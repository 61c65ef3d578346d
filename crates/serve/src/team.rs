//! Multi-tenant barrier teams: a PH-CTR phaser per team, served to
//! connections.
//!
//! A [`Team`] *is* a [`CentralPhaser`]: its words, packed, sit inline at
//! the end of the team's own allocation, and each [`Conn`] call drives
//! them through a [`HostCtx`] view whose thread id is the connection's
//! slot, so the claim / evict / proxy / commit code is the phaser's — the
//! code `armbar conform --phasers` searches. A connection drop is a
//! deregister whose final arrival proxies the open epoch (abrupt drops
//! mark the team `degraded`); a waiter whose deadline lapses takes
//! `RobustPhaser`'s recovery step, [`recover`], which evicts at most one
//! member per lap; the arrival that commits a boundary makes one flush
//! through the owning shard. DESIGN.md §16 argues proxy safety and the
//! wakeup handshake at acquire/release.
//!
//! A team is one cache-line-aligned allocation: one line of header, then
//! the phaser's words from the next line boundary on (a team of 4 fills
//! two more lines). A cold tenant's episode therefore waits on one
//! pointer, the `Conn`'s, before every line it touches can be fetched at
//! once.
//!
//! A member's own arrival pays only for the phaser's claim and counter
//! RMWs: the team counts neither own arrivals nor episodes. Both are
//! read off the phaser's words by [`Team::metrics`]. A serve slot is
//! a member from epoch 1 and never rejoins, and each epoch of its
//! membership is claimed exactly once (by itself or by a proxy), so its
//! arrival ledger is its claim count; the release word counts the
//! boundaries.

use std::sync::atomic::{
    AtomicU16, AtomicU32, AtomicU64,
    Ordering::{Acquire, Relaxed, Release},
};
use std::sync::Arc;
use std::time::{Duration, Instant};

use armbar_core::host::{HostCtx, HostMem};
use armbar_core::phaser::{CentralPhaser, Claim, Phaser};
use armbar_core::robust::{recover, BarrierError, Recovery};
use armbar_core::MemCtx;
use armbar_simcoh::Arena;

use crate::registry::ShardWake;

/// Busy polls on the release word before a waiter parks.
const SPIN_POLLS: u32 = 96;
/// One timed park on the shard condvar; bounds wakeup loss windows.
const PARK_SLICE: Duration = Duration::from_millis(2);

/// Patience the teams of a registry wait with (held once per shard).
#[derive(Debug, Clone)]
pub struct TeamConfig {
    /// Wall-clock budget per epoch before a waiter starts evicting (and,
    /// when eviction cannot apply, poisons).
    pub deadline: Duration,
}

impl Default for TeamConfig {
    fn default() -> Self {
        Self { deadline: Duration::from_secs(5) }
    }
}

/// Per-tenant counts of what the phaser's words do not record, all off
/// the member's own arrival path. Each counts at most one event per slot
/// (a slot leaves once: dropped, closed or evicted), and a phaser holds at
/// most 4095 slots, so 16 bits are exact. Relaxed — exact totals, no
/// ordering role — except `proxy_arrivals`, which [`Team::metrics`]
/// subtracts from the ledgers (see there).
#[derive(Default)]
struct Counters {
    proxy_arrivals: AtomicU16,
    drops: AtomicU16,
    evictions: AtomicU16,
}

/// A snapshot of one team's per-tenant metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TeamMetrics {
    /// Own (non-proxy) arrivals counted into the epoch: the slots' arrival
    /// ledgers summed, minus `proxy_arrivals`.
    pub arrivals: u64,
    /// Arrivals counted on behalf of dropped/evicted slots.
    pub proxy_arrivals: u64,
    /// Completed epochs that released at least one live member (a final
    /// all-proxy drain commit is not an episode — it releases nobody).
    pub episodes: u64,
    /// Abrupt connection drops (a `Conn` dropped without `close`).
    pub drops: u64,
    /// Timeout-path evictions by surviving waiters.
    pub evictions: u64,
    /// Waits that outlasted the spin stage and parked on the shard.
    pub parked_waits: u64,
}

/// One named barrier group hosted by the server. Created only through
/// [`Registry::register`](crate::registry::Registry::register); members
/// attach with [`Team::connect`] and synchronize through their [`Conn`].
///
/// One allocation holds the whole team. `repr(C, align(64))` puts the
/// header on one cache line and `words`, the packed phaser's words, at
/// the fixed offset of the next line boundary, so an episode's header
/// and word loads all issue from the one `Arc` pointer. `W` is a word
/// array only while the registry builds the team; every `Arc<Team>` is
/// unsized to the slice.
#[repr(C, align(64))]
pub struct Team<W: ?Sized = [AtomicU32]> {
    phaser: CentralPhaser,
    /// Next slot handed out by [`Team::connect`]: a ticket that stops at
    /// the capacity (Relaxed).
    next_conn: AtomicU32,
    /// 0 = healthy, else poisoner slot + 1.
    poison: AtomicU16,
    counters: Counters,
    /// The shard's wakeup path and patience knobs.
    wake: Arc<ShardWake>,
    parked_waits: AtomicU64,
    name: Box<str>,
    words: W,
}

/// The alignment of a [`Team`], a cache line.
const LINE_BYTES: usize = 64;
const LINE_WORDS: usize = LINE_BYTES / 4;

// The header fills one line exactly: the words start at the next.
const _: () = assert!(std::mem::offset_of!(Team<[AtomicU32; 16]>, words) == LINE_BYTES);

/// Builds a team whose word block holds `N` words.
type Build = fn(CentralPhaser, Box<str>, Arc<ShardWake>) -> Arc<Team>;

/// The word-block lengths a team comes in, each with its constructor: a
/// team takes the first that holds its phaser's words. The largest
/// packed phaser, 4095 slots, has 6 · 4095 + 3 words and fits the last.
const BLOCKS: [(usize, Build); 12] = [
    (16, Team::build::<16>),
    (32, Team::build::<32>),
    (64, Team::build::<64>),
    (128, Team::build::<128>),
    (256, Team::build::<256>),
    (512, Team::build::<512>),
    (1024, Team::build::<1024>),
    (2048, Team::build::<2048>),
    (4096, Team::build::<4096>),
    (8192, Team::build::<8192>),
    (16384, Team::build::<16384>),
    (32768, Team::build::<32768>),
];

impl Team {
    pub(crate) fn new(name: Box<str>, members: usize, wake: Arc<ShardWake>) -> Arc<Self> {
        let mut arena = Arena::new();
        let phaser = CentralPhaser::packed(&mut arena, members);
        let words = arena.len().div_ceil(4);
        let (_, build) = BLOCKS
            .into_iter()
            .find(|&(n, _)| n >= words)
            .expect("a packed phaser of at most 4095 slots fits the largest block");
        build(phaser, name, wake)
    }

    /// A team with an `N`-word block, unsized on return.
    fn build<const N: usize>(
        phaser: CentralPhaser,
        name: Box<str>,
        wake: Arc<ShardWake>,
    ) -> Arc<Team> {
        Arc::new(Team {
            phaser,
            next_conn: AtomicU32::new(0),
            poison: AtomicU16::new(0),
            counters: Counters::default(),
            wake,
            parked_waits: AtomicU64::new(0),
            name,
            words: [const { AtomicU32::new(0) }; N],
        })
    }

    /// Loads the first two lines of words, all of a team of up to 4
    /// members. Their addresses need only the team pointer, so on a cold
    /// team these misses overlap the header's instead of waiting for the
    /// phaser's fields to address them.
    fn touch_words(&self) {
        for word in self.words.iter().step_by(LINE_WORDS).take(2) {
            std::hint::black_box(word.load(Relaxed));
        }
    }

    /// The team's words as the host memory its phaser was laid out in.
    fn mem(&self) -> &HostMem {
        HostMem::from_words(&self.words)
    }

    /// `slot`'s context over the team's words (slot 0 also serves reads
    /// that belong to no member: status, metrics).
    fn ctx(&self, slot: usize) -> HostCtx<&HostMem> {
        self.mem().view(slot, self.capacity())
    }

    /// The team's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Index of the registry shard that owns this team.
    pub fn shard(&self) -> usize {
        self.wake.shard
    }

    /// The member count the team was registered with.
    pub fn capacity(&self) -> usize {
        self.phaser.capacity()
    }

    /// The epoch currently accepting arrivals.
    pub fn epoch(&self) -> u32 {
        self.phaser.epoch(&self.ctx(0))
    }

    /// Members of the current epoch (shrinks as slots drop out).
    pub fn members(&self) -> usize {
        self.phaser.members(&self.ctx(0)) as usize
    }

    /// `"poisoned"`, `"degraded"` or `"ok"` — worst state wins. A team is
    /// degraded once a drop or an eviction made it complete an epoch
    /// short-handed.
    pub fn status(&self) -> &'static str {
        if self.poisoned_by().is_some() {
            "poisoned"
        } else if self.counters.drops.load(Relaxed) + self.counters.evictions.load(Relaxed) > 0 {
            "degraded"
        } else {
            "ok"
        }
    }

    /// Has membership drained to zero (every slot left or was evicted)?
    /// Retired teams are reclaimable by the registry sweep.
    pub fn retired(&self) -> bool {
        self.members() == 0
    }

    /// Snapshot of the per-tenant counters.
    pub fn metrics(&self) -> TeamMetrics {
        // Every boundary commit releases an epoch; only the drain commit,
        // always the last, releases nobody.
        let ctx = self.ctx(0);
        let commits = self.phaser.completed(&ctx);
        let drained = self.phaser.members(&ctx) == 0;
        // Proxies first: the Acquire load synchronizes with every Release
        // bump it reads, so the ledger claims behind them are visible to
        // the loads below. Ledgers only grow, so the claims summed cover
        // the proxies counted and the difference cannot underflow mid-run.
        let proxy_arrivals = u64::from(self.counters.proxy_arrivals.load(Acquire));
        let claims: u64 =
            (0..self.capacity()).map(|s| u64::from(self.phaser.last_arrived(&ctx, s))).sum();
        TeamMetrics {
            arrivals: claims - proxy_arrivals,
            proxy_arrivals,
            episodes: u64::from(commits - u32::from(drained)),
            drops: u64::from(self.counters.drops.load(Relaxed)),
            evictions: u64::from(self.counters.evictions.load(Relaxed)),
            parked_waits: self.parked_waits.load(Relaxed),
        }
    }

    /// Attaches the next free member slot; `None` once all `capacity`
    /// connections have been handed out (slots are never reused — a
    /// dropped member's slot stays dead and the team reforms smaller).
    /// The ticket stops at the capacity, so no number of refused calls
    /// can wrap it back onto a live slot.
    pub fn connect(self: &Arc<Self>) -> Option<Conn> {
        let cap = self.capacity() as u32;
        let slot =
            self.next_conn.fetch_update(Relaxed, Relaxed, |t| (t < cap).then_some(t + 1)).ok()?;
        Some(Conn { team: Arc::clone(self), slot, state: AtomicU32::new(0) })
    }

    fn poisoned_by(&self) -> Option<usize> {
        match self.poison.load(Relaxed) {
            0 => None,
            by => Some(usize::from(by) - 1),
        }
    }

    /// A committing claim flushes the shard's parked waiters.
    fn settle(&self, claim: Claim) {
        if claim == Claim::Committed {
            self.wake.flush();
        }
    }

    /// Books a proxy's claim, then settles it. Release: `metrics` must see
    /// the ledger claim behind every proxy it counts.
    fn settle_proxy(&self, claim: Claim) {
        if claim != Claim::Lost {
            self.counters.proxy_arrivals.fetch_add(1, Release);
        }
        self.settle(claim);
    }

    /// One member arrival. Returns the epoch arrived for (pass it to
    /// [`Team::wait`]).
    fn arrive(&self, slot: usize) -> Result<u32, BarrierError> {
        self.touch_words();
        if let Some(by) = self.poisoned_by() {
            return Err(BarrierError::Poisoned { tid: slot, by });
        }
        // A lost claim means an eviction proxy counted this epoch first;
        // the eviction itself surfaces on the next arrival.
        let (epoch, claim) = self.phaser.arrive_claim(&self.ctx(slot))?;
        self.settle(claim);
        Ok(epoch)
    }

    /// Blocks until `epoch` releases: a short spin on the release word,
    /// then timed parks on the owning shard's condvar. Each time the team
    /// deadline lapses the waiter takes one [`recover`] step for `epoch`:
    /// it re-waits while the boundary is committing, otherwise evicts one
    /// unarrived slot (proxy-arriving for it) or, when recovery gives up,
    /// poisons the team — first claimant reports `Timeout` on the release
    /// word, everyone else `Poisoned`. Its own slot is never a victim.
    fn wait(&self, slot: usize, epoch: u32) -> Result<(), BarrierError> {
        let ctx = &self.ctx(slot);
        let released = || self.phaser.completed(ctx) >= epoch;
        for _ in 0..SPIN_POLLS {
            if released() {
                return Ok(());
            }
            std::hint::spin_loop();
        }
        self.parked_waits.fetch_add(1, Relaxed);
        let mut polls = u64::from(SPIN_POLLS);
        // The waited epoch seeds the lap's start: no load off the wait path.
        let (mut attempts, mut seen) = (0, epoch);
        let mut next_recovery = Instant::now() + self.wake.cfg.deadline;
        loop {
            if released() {
                return Ok(());
            }
            if let Some(by) = self.poisoned_by() {
                return Err(BarrierError::Poisoned { tid: ctx.tid(), by });
            }
            if Instant::now() >= next_recovery {
                match recover(&self.phaser, ctx, &mut attempts, epoch, &mut seen, true) {
                    Recovery::Rewait => {}
                    Recovery::Evicted(claim) => {
                        self.counters.evictions.fetch_add(1, Relaxed);
                        self.settle_proxy(claim);
                    }
                    Recovery::Poison if self.claim_poison(slot) => {
                        let addr = self.phaser.release_word();
                        return Err(BarrierError::Timeout { tid: slot, addr, spins: polls });
                    }
                    Recovery::Poison => continue, // someone else poisoned first; report theirs
                }
                next_recovery = Instant::now() + self.wake.cfg.deadline;
            }
            polls += 1;
            self.wake.park(PARK_SLICE, || released() || self.poisoned_by().is_some());
        }
    }

    /// Detaches the connection's slot: its final arrival proxies the open
    /// epoch so nobody waits on it — or, when `arrived` names an arrival
    /// the connection has not waited out (else 0), is that arrival — and
    /// the boundary drops it. `abrupt` distinguishes a connection drop
    /// (marks the team degraded) from a graceful [`Conn::close`].
    fn disconnect(&self, slot: usize, arrived: u32, abrupt: bool) {
        let ctx = &self.ctx(slot);
        // An evicted slot is already out; its eviction proxied it.
        let Ok((_, claim)) = self.phaser.deregister_claim(ctx, arrived) else { return };
        if abrupt {
            self.counters.drops.fetch_add(1, Relaxed);
        }
        self.settle_proxy(claim);
    }

    /// First-poisoner ticket, as a `RobustBarrier`'s first timed-out
    /// waiter takes. Relaxed is enough: the word publishes only itself,
    /// and the broadcast that follows takes the shard lock, which orders
    /// the poison before every parked waiter's predicate.
    fn claim_poison(&self, by: usize) -> bool {
        let won = self.poison.compare_exchange(0, by as u16 + 1, Relaxed, Relaxed).is_ok();
        if won {
            self.wake.flush_now(); // wake everyone parked on the shard
        }
        won
    }
}

/// Bit 31 of a connection's state word: the slot is out of the team.
const OUT: u32 = 1 << 31;

/// A connection's own state, packed into one word (bit 31 = [`OUT`], the
/// low bits an epoch; epochs fit 20 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Attached, with the epoch of an arrival not yet waited out, or 0: a
    /// connection that drops mid-episode leaves through that arrival.
    Arrived(u32),
    /// Out: evicted at this epoch, once an arrival reported it (the
    /// phaser reports an eviction once, the connection keeps failing),
    /// or 0 once detached.
    Out(u32),
}

impl ConnState {
    fn pack(self) -> u32 {
        match self {
            ConnState::Arrived(epoch) => epoch,
            ConnState::Out(epoch) => OUT | epoch,
        }
    }

    fn unpack(word: u32) -> Self {
        if word & OUT == 0 {
            ConnState::Arrived(word)
        } else {
            ConnState::Out(word & !OUT)
        }
    }
}

/// One member's connection to a [`Team`]. Dropping it without
/// [`Conn::close`] models an abrupt connection loss: the slot is proxied
/// out and the team completes the epoch `degraded`.
pub struct Conn {
    team: Arc<Team>,
    slot: u32,
    /// A packed [`ConnState`]. Only this connection touches it; atomic so
    /// that a `&Conn` can update it.
    state: AtomicU32,
}

impl Conn {
    /// The member slot this connection holds.
    pub fn slot(&self) -> usize {
        self.slot as usize
    }

    /// The team this connection belongs to.
    pub fn team(&self) -> &Arc<Team> {
        &self.team
    }

    fn state(&self) -> ConnState {
        ConnState::unpack(self.state.load(Relaxed))
    }

    fn set_state(&self, state: ConnState) {
        self.state.store(state.pack(), Relaxed);
    }

    /// Arrives at the open epoch; returns the epoch to [`Conn::wait`] on.
    pub fn arrive(&self) -> Result<u32, BarrierError> {
        if let ConnState::Out(episode) = self.state() {
            return Err(BarrierError::Evicted { tid: self.slot(), episode });
        }
        let r = self.team.arrive(self.slot());
        match r {
            Ok(e) => self.set_state(ConnState::Arrived(e)),
            Err(BarrierError::Evicted { episode, .. }) => self.set_state(ConnState::Out(episode)),
            Err(_) => {}
        }
        r
    }

    /// Blocks until `epoch` releases (see `Team::wait` semantics).
    pub fn wait(&self, epoch: u32) -> Result<(), BarrierError> {
        self.team.wait(self.slot(), epoch)?;
        if let ConnState::Arrived(arrived) = self.state() {
            if epoch >= arrived {
                self.set_state(ConnState::Arrived(0));
            }
        }
        Ok(())
    }

    /// `arrive` + `wait`: one full barrier episode for this member.
    pub fn arrive_and_wait(&self) -> Result<u32, BarrierError> {
        let epoch = self.arrive()?;
        self.wait(epoch)?;
        Ok(epoch)
    }

    /// Graceful goodbye: leaves the team at the next boundary without
    /// marking it degraded.
    pub fn close(mut self) {
        self.detach(false);
    }

    /// Leaves once: the state goes out, so the drop after a `close` does
    /// nothing, and a connection whose eviction was reported never
    /// deregisters (its eviction proxied it).
    fn detach(&mut self, abrupt: bool) {
        let was = std::mem::replace(self.state.get_mut(), ConnState::Out(0).pack());
        if let ConnState::Arrived(arrived) = ConnState::unpack(was) {
            self.team.disconnect(self.slot(), arrived, abrupt);
        }
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.detach(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use armbar_core::phaser::EPOCH_LIMIT;
    use armbar_core::MemLayer;
    use armbar_simcoh::Addr;

    fn team(members: usize, cfg: TeamConfig) -> (Registry, Arc<Team>) {
        let reg = Registry::new(1, cfg);
        let team = reg.register("t", members).unwrap();
        (reg, team)
    }

    fn patient() -> TeamConfig {
        TeamConfig { deadline: Duration::from_secs(30) }
    }

    fn impatient() -> TeamConfig {
        TeamConfig { deadline: Duration::from_millis(40) }
    }

    #[test]
    fn single_driver_completes_episodes() {
        let (_reg, team) = team(3, patient());
        let conns: Vec<Conn> = (0..3).map(|_| team.connect().unwrap()).collect();
        assert!(team.connect().is_none(), "capacity is exhausted");
        for ep in 1..=10u32 {
            for c in &conns {
                assert_eq!(c.arrive().unwrap(), ep);
            }
            for c in &conns {
                c.wait(ep).unwrap();
            }
        }
        let m = team.metrics();
        assert_eq!(m.episodes, 10);
        assert_eq!(m.arrivals, 30);
        assert_eq!((m.proxy_arrivals, m.drops, m.evictions), (0, 0, 0));
        assert_eq!(team.status(), "ok");
    }

    #[test]
    fn threaded_members_rendezvous() {
        let (_reg, team) = team(4, patient());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = team.connect().unwrap();
                s.spawn(move || {
                    for _ in 0..50 {
                        c.arrive_and_wait().unwrap();
                    }
                    c.close();
                });
            }
        });
        let m = team.metrics();
        assert_eq!(m.episodes, 50);
        assert_eq!(m.arrivals, 200);
        assert_eq!(team.status(), "ok");
        assert!(team.retired(), "all members closed -> drained");
    }

    #[test]
    fn abrupt_drop_proxies_and_degrades() {
        let (_reg, team) = team(3, patient());
        let a = team.connect().unwrap();
        let b = team.connect().unwrap();
        let victim = team.connect().unwrap();
        drop(victim); // no close(): abrupt connection loss
        let ep = a.arrive().unwrap();
        b.arrive().unwrap();
        a.wait(ep).unwrap(); // must not hang: the drop proxied slot 2
        b.wait(ep).unwrap();
        let m = team.metrics();
        assert_eq!((m.episodes, m.drops, m.proxy_arrivals), (1, 1, 1));
        assert_eq!(team.status(), "degraded");
        assert_eq!(team.members(), 2, "next epoch reformed without the victim");
    }

    #[test]
    fn graceful_close_does_not_degrade() {
        let (_reg, team) = team(2, patient());
        let a = team.connect().unwrap();
        let b = team.connect().unwrap();
        b.close();
        let ep = a.arrive().unwrap();
        a.wait(ep).unwrap();
        assert_eq!(team.status(), "ok");
        assert_eq!(team.members(), 1);
        assert_eq!(team.metrics().drops, 0);
    }

    #[test]
    fn timeout_evicts_silent_member_and_survivors_continue() {
        let (_reg, team) = team(2, impatient());
        let a = team.connect().unwrap();
        let silent = team.connect().unwrap();
        let ep = a.arrive().unwrap();
        a.wait(ep).unwrap(); // deadline lap evicts the silent slot
        assert_eq!(team.status(), "degraded");
        assert_eq!(team.metrics().evictions, 1);
        // The evicted member's next arrival fails fast, survivors carry on.
        assert!(matches!(silent.arrive(), Err(BarrierError::Evicted { tid: 1, .. })));
        let ep = a.arrive().unwrap();
        a.wait(ep).unwrap();
        assert_eq!(team.metrics().episodes, 2);
    }

    #[test]
    fn unarrivable_epoch_poisons_all_members() {
        // A sole member that never arrives but waits on a future epoch:
        // nothing is evictable (its own arrival is the one missing), so the
        // waiter must poison, and later members see Poisoned.
        let (_reg, team) = team(1, impatient());
        let a = team.connect().unwrap();
        let err = a.wait(1).unwrap_err();
        assert!(
            matches!(err, BarrierError::Timeout { tid: 0, addr, .. } if addr == team.phaser.release_word()),
            "got {err:?}"
        );
        assert_eq!(team.status(), "poisoned");
        assert!(matches!(a.arrive(), Err(BarrierError::Poisoned { by: 0, .. })));
    }

    /// Before the store to `release`, waits until a waiter has parked and
    /// then sleeps `pause`: a champion preempted after it stored the next
    /// membership word, before it stored the release.
    struct PauseBeforeRelease<'a> {
        inner: HostCtx<&'a HostMem>,
        release: Addr,
        parked: &'a AtomicU64,
        pause: Duration,
    }

    impl MemLayer for PauseBeforeRelease<'_> {
        fn inner(&self) -> &dyn MemCtx {
            &self.inner
        }
        fn store(&self, addr: Addr, value: u32) {
            if addr == self.release {
                while self.parked.load(Relaxed) == 0 {
                    std::thread::yield_now();
                }
                std::thread::sleep(self.pause);
            }
            self.inner.store(addr, value)
        }
    }

    #[test]
    fn a_deadline_that_lapses_while_the_champion_commits_is_not_a_stall() {
        // Slot 1 parks on epoch 1 with a 40 ms deadline while the
        // champion sits 300 ms between its membership store and its
        // release store. The epoch the waiter needs is committing, so
        // nobody may be evicted or poisoned.
        let (_reg, team) = team(2, impatient());
        let (_champion, waiter) = (team.connect().unwrap(), team.connect().unwrap());
        assert_eq!(waiter.arrive().unwrap(), 1);
        std::thread::scope(|s| {
            let waited = s.spawn(|| waiter.wait(1));
            let paused = PauseBeforeRelease {
                inner: team.ctx(0),
                release: team.phaser.release_word(),
                parked: &team.parked_waits,
                pause: Duration::from_millis(300),
            };
            let (epoch, claim) = team.phaser.arrive_claim(&paused).unwrap();
            assert_eq!((epoch, claim), (1, Claim::Committed));
            team.settle(claim);
            assert_eq!(waited.join().unwrap(), Ok(()));
        });
        assert_eq!((team.status(), team.metrics().evictions, team.members()), ("ok", 0, 2));
    }

    #[test]
    fn wrongful_evictee_sees_evicted_not_hang() {
        let (_reg, team) = team(2, impatient());
        let a = team.connect().unwrap();
        let late = team.connect().unwrap();
        let ep = a.arrive().unwrap();
        a.wait(ep).unwrap(); // evicts `late`
                             // The late member's own arrival claim lost to the eviction proxy;
                             // arrive() swallows that, and the error surfaces on re-arrival.
        match late.arrive() {
            Err(BarrierError::Evicted { tid: 1, episode }) => assert_eq!(episode, 1),
            other => panic!("expected Evicted, got {other:?}"),
        }
    }

    #[test]
    fn drain_commit_is_not_an_episode() {
        let (_reg, team) = team(2, patient());
        let a = team.connect().unwrap();
        let b = team.connect().unwrap();
        let ep = a.arrive().unwrap();
        b.arrive().unwrap();
        a.wait(ep).unwrap();
        // Both leave mid-epoch: the closing proxies fill epoch 2, but that
        // commit releases nobody and must not count as an episode.
        a.close();
        b.close();
        assert!(team.retired());
        assert_eq!(team.metrics().episodes, 1);
    }

    #[test]
    fn drop_after_arriving_leaves_through_that_arrival() {
        // The victim arrives for epoch 1 and drops before waiting: that
        // arrival is its last, so epoch 1 completes without a proxy and
        // epoch 2 runs without the victim.
        let (_reg, team) = team(3, patient());
        let a = team.connect().unwrap();
        let b = team.connect().unwrap();
        let victim = team.connect().unwrap();
        assert_eq!(victim.arrive().unwrap(), 1);
        drop(victim);
        for ep in 1..=2 {
            assert_eq!(a.arrive().unwrap(), ep);
            assert_eq!(b.arrive().unwrap(), ep);
            a.wait(ep).unwrap();
            b.wait(ep).unwrap();
        }
        let m = team.metrics();
        assert_eq!((m.episodes, m.arrivals, m.proxy_arrivals, m.drops), (2, 5, 0, 1));
        assert_eq!((team.members(), team.status()), (2, "degraded"));
    }

    #[test]
    fn a_refused_ticket_never_wraps_onto_a_live_slot() {
        let (_reg, team) = team(2, patient());
        let (a, b) = (team.connect().unwrap(), team.connect().unwrap());
        // As after 2^32 - 2 refused connects: an unbounded ticket wraps to
        // slot 0 on the third call below.
        team.next_conn.store(u32::MAX - 1, Relaxed);
        for _ in 0..3 {
            assert!(team.connect().is_none(), "a full team hands out no slot");
        }
        for ep in 1..=2 {
            assert_eq!((a.arrive().unwrap(), b.arrive().unwrap()), (ep, ep));
            a.wait(ep).unwrap();
            b.wait(ep).unwrap();
        }
        assert_eq!(team.metrics().episodes, 2);
    }

    #[test]
    fn a_team_of_four_is_one_allocation_with_its_words_from_a_line_boundary() {
        let (_reg, team) = team(4, patient());
        let mem = team.mem();
        let view = std::ptr::from_ref(mem).cast::<u8>() as usize;
        assert_eq!(view % 64, 0, "the words start a cache line");
        let start = Arc::as_ptr(&team).cast::<u8>() as usize;
        let end = start + std::mem::size_of_val(&*team);
        assert!(start < view && view + std::mem::size_of_val(mem) <= end, "inside the team");
        // The packed phaser's 27 words all end within the two lines.
        let mut arena = Arena::new();
        let _ = CentralPhaser::packed(&mut arena, 4);
        assert_eq!(arena.len(), 27 * 4);
        assert!(std::mem::size_of_val(mem) >= arena.len() && arena.len() <= 128);
        assert!(std::mem::size_of::<Option<Conn>>() <= 24);
    }

    #[test]
    fn every_member_count_gets_a_block_that_holds_its_words() {
        for members in [1, 2, 3, 5, 100, 4095] {
            let (_reg, team) = team(members, patient());
            let mut arena = Arena::new();
            let _ = CentralPhaser::packed(&mut arena, members);
            assert!(std::mem::size_of_val(team.mem()) >= arena.len(), "{members} members");
            let conns: Vec<Conn> = (0..members).map(|_| team.connect().unwrap()).collect();
            for c in &conns {
                assert_eq!(c.arrive().unwrap(), 1);
            }
            conns.iter().for_each(|c| c.wait(1).unwrap());
            assert_eq!(team.metrics().arrivals, members as u64);
        }
    }

    #[test]
    fn conn_state_packs_arrivals_and_evictions_apart() {
        for epoch in [1, 1 << 19, EPOCH_LIMIT] {
            for state in [ConnState::Arrived(epoch), ConnState::Out(epoch)] {
                assert_eq!(ConnState::unpack(state.pack()), state);
            }
            assert_ne!(ConnState::Arrived(epoch).pack(), ConnState::Out(epoch).pack());
        }
    }

    #[test]
    fn an_evicted_conn_keeps_failing_and_closes_without_a_proxy() {
        let (_reg, team) = team(2, impatient());
        let a = team.connect().unwrap();
        let late = team.connect().unwrap();
        let ep = a.arrive().unwrap();
        a.wait(ep).unwrap(); // evicts `late`, proxying its epoch 1
        for _ in 0..3 {
            match late.arrive() {
                Err(BarrierError::Evicted { tid: 1, episode }) => assert_eq!(episode, ep),
                other => panic!("expected Evicted, got {other:?}"),
            }
        }
        let before = team.metrics();
        late.close();
        let after = team.metrics();
        assert_eq!((after.proxy_arrivals, after.drops), (before.proxy_arrivals, 0));
        assert_eq!(a.arrive_and_wait().unwrap(), 2, "the survivor carries on alone");
    }

    #[test]
    fn derived_arrival_counts_match_a_hand_count() {
        // Five slots; each leaves a different way. Own arrivals per slot:
        // a 6, b 4, c 3, d 3, e 1 = 17. Proxies: e's drop (epoch 2), c's
        // eviction (4), b's close (5) and a's closing drain (7) = 4.
        let (_reg, team) = team(5, impatient());
        let [a, b, c, d, e] = std::array::from_fn(|_| team.connect().unwrap());
        let episode = |conns: &[&Conn], ep: u32| {
            for conn in conns {
                assert_eq!(conn.arrive().unwrap(), ep);
            }
            for conn in conns {
                conn.wait(ep).unwrap();
            }
        };
        let counts = |team: &Team| {
            let m = team.metrics();
            (m.arrivals, m.proxy_arrivals)
        };
        episode(&[&a, &b, &c, &d, &e], 1);
        drop(e); // abrupt drop before arriving: proxied
        episode(&[&a, &b, &c, &d], 2);
        assert_eq!(counts(&team), (9, 1));
        assert_eq!(d.arrive().unwrap(), 3);
        drop(d); // drop after arriving: that arrival is its last
        episode(&[&a, &b, &c], 3);
        assert_eq!(counts(&team), (13, 1));
        // c stays silent: a's deadline lap evicts it (a proxy).
        assert_eq!((a.arrive().unwrap(), b.arrive().unwrap()), (4, 4));
        a.wait(4).unwrap();
        b.wait(4).unwrap();
        assert_eq!((team.metrics().evictions, team.members()), (1, 2));
        assert_eq!(a.arrive().unwrap(), 5);
        b.close(); // mid-epoch close: its final arrival proxies epoch 5
        a.wait(5).unwrap();
        episode(&[&a], 6);
        a.close(); // the drain commit, epoch 7
        drop(c); // already evicted: counts nothing
        assert!(team.retired());
        let m = team.metrics();
        assert_eq!((m.arrivals, m.proxy_arrivals), (17, 4));
        assert_eq!((m.episodes, m.drops, m.evictions), (6, 2, 1));
    }
}
