//! Multi-tenant barrier teams: a PH-CTR phaser per team, served to
//! connections.
//!
//! A [`Team`] *is* a [`CentralPhaser`], packed in a [`HostMem`] of its
//! own; each [`Conn`] call drives it through a [`HostCtx`] view whose
//! thread id is the connection's slot, so the claim / evict / proxy /
//! commit code is the phaser's — the code `armbar conform --phasers`
//! searches. A connection drop is a deregister whose final arrival
//! proxies the open epoch (abrupt drops mark the team `degraded`); past
//! the deadline a waiter evicts one unarrived member per lap, and poisons
//! the team when nobody is evictable; the arrival that commits a boundary
//! makes one flush through the owning shard. DESIGN.md §16 argues proxy
//! safety and the wakeup handshake at acquire/release.
//!
//! A member's own arrival pays only for the phaser's claim and counter
//! RMWs: the team counts neither own arrivals nor episodes. Both are
//! read off the phaser's words by [`Team::metrics`]. A serve slot is
//! a member from epoch 1 and never rejoins, and each epoch of its
//! membership is claimed exactly once (by itself or by a proxy), so its
//! arrival ledger is its claim count; the release word counts the
//! boundaries.

use std::sync::atomic::{
    AtomicBool, AtomicU32, AtomicU64,
    Ordering::{Acquire, Relaxed, Release},
};
use std::sync::Arc;
use std::time::{Duration, Instant};

use armbar_core::host::{HostCtx, HostMem};
use armbar_core::phaser::{CentralPhaser, Claim, Phaser};
use armbar_core::robust::BarrierError;
use armbar_core::MemCtx;
use armbar_simcoh::Arena;

use crate::registry::ShardWake;

/// Patience knobs the teams of a registry wait by (held once per shard).
#[derive(Debug, Clone)]
pub struct TeamConfig {
    /// Wall-clock budget per epoch before a waiter starts evicting (and,
    /// when eviction cannot apply, poisons).
    pub deadline: Duration,
    /// One timed park on the shard condvar; bounds wakeup loss windows.
    pub park_slice: Duration,
    /// Busy polls on the release word before parking.
    pub spin: u32,
}

impl Default for TeamConfig {
    fn default() -> Self {
        Self { deadline: Duration::from_secs(5), park_slice: Duration::from_millis(2), spin: 96 }
    }
}

/// Per-tenant counters for what the phaser's words do not record, all
/// off the member's own arrival path. Relaxed — exact totals, no ordering
/// role — except `proxy_arrivals`, which [`Team::metrics`] subtracts from
/// the ledgers (see there).
#[derive(Default)]
struct Counters {
    proxy_arrivals: AtomicU64,
    drops: AtomicU64,
    evictions: AtomicU64,
    parked_waits: AtomicU64,
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
/// `repr(C)` keeps what every episode reads at the front, so a cold team
/// costs as few cache lines as possible.
#[repr(C)]
pub struct Team {
    /// The team's words: the packed phaser and nothing else.
    mem: Arc<HostMem>,
    phaser: CentralPhaser,
    /// 0 = healthy, else poisoner slot + 1.
    poison: AtomicU32,
    capacity: u32,
    /// Next slot handed out by [`Team::connect`] (a ticket: Relaxed).
    next_conn: AtomicU32,
    /// The shard's wakeup path and patience knobs.
    wake: Arc<ShardWake>,
    counters: Counters,
    /// Set by the first drop or eviction: the team completed an epoch
    /// short-handed. A status flag, so Relaxed.
    degraded: AtomicBool,
    shard: usize,
    name: String,
}

impl Team {
    pub(crate) fn new(name: &str, members: usize, shard: usize, wake: Arc<ShardWake>) -> Self {
        let mut arena = Arena::new();
        let phaser = CentralPhaser::packed(&mut arena, members);
        Self {
            mem: HostMem::new(&arena),
            capacity: members as u32,
            phaser,
            wake,
            counters: Counters::default(),
            poison: AtomicU32::new(0),
            degraded: AtomicBool::new(false),
            next_conn: AtomicU32::new(0),
            shard,
            name: name.to_string(),
        }
    }

    /// `slot`'s context over the team's words (slot 0 also serves reads
    /// that belong to no member: status, metrics).
    fn ctx(&self, slot: usize) -> HostCtx<&HostMem> {
        self.mem.view(slot, self.capacity())
    }

    /// The team's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Index of the registry shard that owns this team.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The member count the team was registered with.
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// The epoch currently accepting arrivals.
    pub fn epoch(&self) -> u32 {
        self.phaser.epoch(&self.ctx(0))
    }

    /// Members of the current epoch (shrinks as slots drop out).
    pub fn members(&self) -> usize {
        self.phaser.members(&self.ctx(0)) as usize
    }

    /// `"poisoned"`, `"degraded"` or `"ok"` — worst state wins.
    pub fn status(&self) -> &'static str {
        if self.poisoned_by().is_some() {
            "poisoned"
        } else if self.degraded.load(Relaxed) {
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
        let proxy_arrivals = self.counters.proxy_arrivals.load(Acquire);
        let claims: u64 =
            (0..self.capacity()).map(|s| u64::from(self.phaser.last_arrived(&ctx, s))).sum();
        TeamMetrics {
            arrivals: claims - proxy_arrivals,
            proxy_arrivals,
            episodes: u64::from(commits - u32::from(drained)),
            drops: self.counters.drops.load(Relaxed),
            evictions: self.counters.evictions.load(Relaxed),
            parked_waits: self.counters.parked_waits.load(Relaxed),
        }
    }

    /// Attaches the next free member slot; `None` once all `capacity`
    /// connections have been handed out (slots are never reused — a
    /// dropped member's slot stays dead and the team reforms smaller).
    pub fn connect(self: &Arc<Self>) -> Option<Conn> {
        let slot = self.next_conn.fetch_add(1, Relaxed);
        (slot < self.capacity).then(|| Conn {
            team: Arc::clone(self),
            slot,
            attached: true,
            arrived: AtomicU32::new(0),
            evicted_at: AtomicU32::new(0),
        })
    }

    fn poisoned_by(&self) -> Option<usize> {
        match self.poison.load(Relaxed) {
            0 => None,
            by => Some(by as usize - 1),
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
    /// then timed parks on the owning shard's condvar. Past the team
    /// deadline each lap evicts one unarrived slot (proxy-arriving for
    /// it); when no slot is evictable and the epoch is still stuck, the
    /// waiter poisons the team — first claimant reports `Timeout`,
    /// everyone else `Poisoned`.
    fn wait(&self, slot: usize, epoch: u32) -> Result<(), BarrierError> {
        let ctx = &self.ctx(slot);
        let released = || self.phaser.completed(ctx) >= epoch;
        for _ in 0..self.wake.cfg.spin {
            if released() {
                return Ok(());
            }
            std::hint::spin_loop();
        }
        self.counters.parked_waits.fetch_add(1, Relaxed);
        let mut polls = u64::from(self.wake.cfg.spin);
        let mut next_recovery = Instant::now() + self.wake.cfg.deadline;
        loop {
            if released() {
                return Ok(());
            }
            if let Some(by) = self.poisoned_by() {
                return Err(BarrierError::Poisoned { tid: ctx.tid(), by });
            }
            if Instant::now() >= next_recovery {
                if !self.try_evict(ctx, epoch) && !released() {
                    if self.claim_poison(ctx.tid()) {
                        return Err(BarrierError::Timeout {
                            tid: ctx.tid(),
                            addr: 0,
                            spins: polls,
                        });
                    }
                    continue; // someone else poisoned first; report theirs
                }
                // Eviction (or a completed boundary) made progress; grant
                // the proxy a fresh deadline before escalating further.
                next_recovery = Instant::now() + self.wake.cfg.deadline;
            }
            polls += 1;
            self.wake.park(self.wake.cfg.park_slice, || released() || self.poisoned_by().is_some());
        }
    }

    /// Deadline recovery: evict one slot that has not arrived for the
    /// stuck `epoch`. Returns `true` when something moved (this waiter or
    /// a rival evicted a slot, or the boundary committed). The waiter's
    /// own slot is never a candidate — a member cannot evict itself; when
    /// its own arrival is the missing one, escalation falls through to
    /// poisoning.
    fn try_evict(&self, ctx: &HostCtx<&HostMem>, epoch: u32) -> bool {
        let Some(victim) = self.phaser.find_victim(ctx, epoch) else {
            return false;
        };
        if let Some(claim) = self.phaser.evict_claim(ctx, victim, epoch) {
            self.counters.evictions.fetch_add(1, Relaxed);
            self.degraded.store(true, Relaxed);
            self.settle_proxy(claim);
        }
        true
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
            self.degraded.store(true, Relaxed);
        }
        self.settle_proxy(claim);
    }

    /// First-poisoner ticket (the `RobustBarrier::claim_poison` shape).
    /// Relaxed is enough: the word publishes only itself, and the
    /// broadcast that follows takes the shard lock, which orders the
    /// poison before every parked waiter's predicate.
    fn claim_poison(&self, by: usize) -> bool {
        let won = self.poison.compare_exchange(0, by as u32 + 1, Relaxed, Relaxed).is_ok();
        if won {
            self.wake.flush_now(); // wake everyone parked on the shard
        }
        won
    }
}

/// One member's connection to a [`Team`]. Dropping it without
/// [`Conn::close`] models an abrupt connection loss: the slot is proxied
/// out and the team completes the epoch `degraded`.
pub struct Conn {
    team: Arc<Team>,
    slot: u32,
    attached: bool,
    /// The epoch of an arrival not yet waited out, or 0: a connection
    /// that drops mid-episode leaves through that arrival.
    arrived: AtomicU32,
    /// The epoch this slot was evicted at, once an arrival reported it:
    /// the phaser reports an eviction once, the connection keeps failing.
    evicted_at: AtomicU32,
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

    /// Arrives at the open epoch; returns the epoch to [`Conn::wait`] on.
    pub fn arrive(&self) -> Result<u32, BarrierError> {
        let at = self.evicted_at.load(Relaxed);
        if at != 0 {
            return Err(BarrierError::Evicted { tid: self.slot(), episode: at });
        }
        let r = self.team.arrive(self.slot());
        match r {
            Ok(e) => self.arrived.store(e, Relaxed),
            Err(BarrierError::Evicted { episode, .. }) => self.evicted_at.store(episode, Relaxed),
            Err(_) => {}
        }
        r
    }

    /// Blocks until `epoch` releases (see [`Team::wait`] semantics).
    pub fn wait(&self, epoch: u32) -> Result<(), BarrierError> {
        self.team.wait(self.slot(), epoch)?;
        if epoch >= self.arrived.load(Relaxed) {
            self.arrived.store(0, Relaxed);
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

    fn detach(&mut self, abrupt: bool) {
        if std::mem::take(&mut self.attached) && self.evicted_at.load(Relaxed) == 0 {
            self.team.disconnect(self.slot(), self.arrived.load(Relaxed), abrupt);
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

    fn team(members: usize, cfg: TeamConfig) -> (Registry, Arc<Team>) {
        let reg = Registry::new(1, cfg);
        let team = reg.register("t", members).unwrap();
        (reg, team)
    }

    fn patient() -> TeamConfig {
        TeamConfig { deadline: Duration::from_secs(30), ..TeamConfig::default() }
    }

    fn impatient() -> TeamConfig {
        TeamConfig { deadline: Duration::from_millis(40), ..TeamConfig::default() }
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
        assert!(matches!(err, BarrierError::Timeout { tid: 0, .. }), "got {err:?}");
        assert_eq!(team.status(), "poisoned");
        assert!(matches!(a.arrive(), Err(BarrierError::Poisoned { by: 0, .. })));
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
