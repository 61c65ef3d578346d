//! Hardened episodes: deadlines and poisoning on top of any [`Barrier`].
//!
//! The algorithms in this crate, like the paper's, assume every participant
//! arrives and every wakeup lands. On the host backend a violated
//! assumption — a crashed participant, a store that never happened, a
//! straggler that outlives everyone's patience — turns `wait` into an
//! infinite spin. [`RobustBarrier`] makes those failures *observable*
//! instead:
//!
//! * **Deadlines** — [`RobustBarrier::wait`] re-implements the inner
//!   barrier's spin waits as bounded polling loops (same Acquire loads,
//!   staged by a [`SpinWait`]) and returns
//!   [`BarrierError::Timeout`] when an episode exceeds its deadline,
//!   reporting the address the thread was stuck on and how many polls it
//!   burned.
//! * **Poisoning** — in the style of `std::sync::Mutex`: a participant
//!   that panics while holding a [`PoisonGuard`] (or while inside `wait`)
//!   marks the barrier poisoned, and every current and future waiter fails
//!   fast with [`BarrierError::Poisoned`] rather than spinning until its
//!   own deadline. A timeout also poisons, so one detected hang releases
//!   the whole team at the speed of a cache-line invalidation.
//!
//! The wrapper is backend-agnostic (it only speaks [`MemCtx`]), but it is
//! *aimed at the host*: the simulator already converts these failures into
//! typed `SimError`s at zero cost, and its virtual clock makes wall-clock
//! deadlines meaningless there. Use raw barriers under simulation and
//! `RobustBarrier` on real threads.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use armbar_simcoh::{Addr, Arena, WaitKind};

use crate::env::{Barrier, MemCtx, MemLayer};
use crate::host::SpinWait;
use crate::phaser::{phaser_mark, Claim, Phaser, PH_COMPLETED};

/// How a hardened episode failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BarrierError {
    /// The episode did not complete within the deadline. `addr` is the
    /// word this thread was spinning on when time ran out and `spins` how
    /// many failed polls it had accumulated there — enough to tell a lost
    /// wakeup (stuck on the wake flag) from a missing arrival (stuck on a
    /// peer's arrival flag).
    Timeout { tid: usize, addr: Addr, spins: u64 },
    /// Another participant (`by`) crashed or timed out and poisoned the
    /// barrier; this thread failed fast instead of waiting for a wakeup
    /// that can never come.
    Poisoned { tid: usize, by: usize },
    /// A survivor evicted this slot from a [`Phaser`] team after it
    /// stalled: the survivor proxy-arrived on its behalf, `episode`
    /// completed degraded, and the team reformed without it. Reported
    /// exactly once, to the evictee's own slot.
    Evicted { tid: usize, episode: u32 },
}

impl std::fmt::Display for BarrierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BarrierError::Timeout { tid, addr, spins } => write!(
                f,
                "barrier timeout: t{tid} gave up on addr {addr:#x} after {spins} failed polls"
            ),
            BarrierError::Poisoned { tid, by } => {
                write!(f, "barrier poisoned: t{tid} failed fast (poisoned by t{by})")
            }
            BarrierError::Evicted { tid, episode } => {
                write!(f, "barrier evicted: t{tid} was voted out at episode {episode}")
            }
        }
    }
}

impl std::error::Error for BarrierError {}

/// Deadlines for a [`RobustBarrier`] / [`RobustPhaser`].
#[derive(Debug, Clone)]
pub struct RobustConfig {
    /// Per-`wait` deadline. Generous by default: a deadline exists to turn
    /// a hang into an error, not to race healthy episodes.
    pub deadline: Duration,
    /// Deterministic deadline: abort a bounded wait after this many failed
    /// polls, in addition to the wall clock. This is how timeouts become
    /// meaningful **on the simulator**, whose virtual clock makes
    /// wall-clock deadlines vacuous: poll counts are a pure function of
    /// the schedule, so the same seed detects the same stall at the same
    /// point on every run and transport. When set, the waiter skips the
    /// yield/backoff pauses (pointless against virtual time).
    pub max_polls: Option<u64>,
}

impl Default for RobustConfig {
    fn default() -> Self {
        Self { deadline: Duration::from_secs(5), max_polls: None }
    }
}

/// Typed unwind payload used to exit an inner `wait` that can no longer
/// succeed. Caught by [`Hardening::bounded`] and returned to its caller, which
/// converts it into a [`BarrierError`]; never escapes this module.
enum WaitAbort {
    Timeout { addr: Addr, spins: u64 },
    Poisoned { by: usize },
}

impl WaitAbort {
    /// The plain error: no poisoning, no recovery.
    fn into_error(self, tid: usize) -> BarrierError {
        match self {
            WaitAbort::Timeout { addr, spins } => BarrierError::Timeout { tid, addr, spins },
            WaitAbort::Poisoned { by } => BarrierError::Poisoned { tid, by },
        }
    }
}

/// The poison word, its first-poisoner ticket and the deadline config
/// shared by [`RobustBarrier`] and [`RobustPhaser`]. Lives in the arena,
/// so one instance serves all participants on either backend.
struct Hardening {
    /// Padded poison word: `0` = healthy, `tid + 1` = poisoned by `tid`.
    poison: Addr,
    /// First-poisoner ticket: every detector `fetch_add`s here; only the
    /// ticket-0 winner writes the poison word, so the reported `by` is the
    /// *first* detection (lowest virtual time on the simulator) no matter
    /// how many waiters time out in the same dead episode.
    claim: Addr,
    config: RobustConfig,
}

impl Hardening {
    /// Allocates both words alone on `line_bytes`-sized cache lines (so
    /// fail-fast polling never false-shares with barrier state).
    fn new(arena: &mut Arena, line_bytes: usize, config: RobustConfig) -> Self {
        let poison = arena.alloc_padded_u32(line_bytes);
        let claim = arena.alloc_padded_u32(line_bytes);
        Self { poison, claim, config }
    }

    fn poisoned_by(&self, ctx: &dyn MemCtx) -> Option<usize> {
        match ctx.load(self.poison) {
            0 => None,
            tid1 => Some(tid1 as usize - 1),
        }
    }

    /// Fails fast when the team is already poisoned.
    fn healthy(&self, ctx: &dyn MemCtx) -> Result<(), BarrierError> {
        match self.poisoned_by(ctx) {
            Some(by) => Err(BarrierError::Poisoned { tid: ctx.tid(), by }),
            None => Ok(()),
        }
    }

    /// Takes a first-poisoner ticket; the ticket-0 winner writes the poison
    /// word and gets `true`.
    fn claim_first(&self, ctx: &dyn MemCtx) -> bool {
        let first = ctx.fetch_add(self.claim, 1) == 0;
        if first {
            ctx.store(self.poison, ctx.tid() as u32 + 1);
        }
        first
    }

    /// The first-poisoner protocol after a timeout: every timed-out
    /// detector takes a ticket; ticket 0 writes the poison word and reports
    /// the primary `Timeout`, every later detector waits for the (imminent)
    /// poison store and reports `Poisoned` by the *winner* — so all
    /// participants agree on a single first poisoner (the
    /// lowest-virtual-time detection on the simulator, where ticket order
    /// is the deterministic schedule order).
    fn claim_timeout(&self, ctx: &dyn MemCtx, addr: Addr, spins: u64) -> BarrierError {
        if self.claim_first(ctx) {
            BarrierError::Timeout { tid: ctx.tid(), addr, spins }
        } else {
            let by = ctx.spin_until_ge(self.poison, 1) as usize - 1;
            BarrierError::Poisoned { tid: ctx.tid(), by }
        }
    }

    /// Runs `f` on a [`BoundedCtx`] over `ctx` that gives up after
    /// `deadline` or once the team is poisoned, returning that abort as
    /// `Err`. Any other panic keeps unwinding — after poisoning the team
    /// for the peers when `poison_on_panic` is set.
    fn bounded<T>(
        &self,
        ctx: &dyn MemCtx,
        deadline: Duration,
        poison_on_panic: bool,
        f: impl FnOnce(&dyn MemCtx) -> T,
    ) -> Result<T, WaitAbort> {
        silence_wait_aborts();
        let bounded = BoundedCtx { inner: ctx, hard: self, deadline: Instant::now() + deadline };
        match catch_unwind(AssertUnwindSafe(|| f(&bounded))) {
            Ok(t) => Ok(t),
            Err(payload) => match payload.downcast::<WaitAbort>() {
                Ok(abort) => Err(*abort),
                Err(panic) => {
                    if poison_on_panic {
                        self.claim_first(ctx);
                    }
                    resume_unwind(panic)
                }
            },
        }
    }
}

/// A [`Barrier`] wrapper adding deadlines and std-Mutex-style poisoning.
///
/// All mutable state (the poison word) lives in the shared arena, so one
/// instance is shared by all participants exactly like the barrier it
/// wraps, on either backend.
pub struct RobustBarrier {
    inner: Box<dyn Barrier>,
    hard: Hardening,
}

impl RobustBarrier {
    /// Wraps `inner`, allocating the poison word from `arena` alone on a
    /// `line_bytes`-sized cache line (so fail-fast polling never false-shares
    /// with barrier state). Must be called before the arena is materialized.
    pub fn new(
        arena: &mut Arena,
        line_bytes: usize,
        inner: Box<dyn Barrier>,
        config: RobustConfig,
    ) -> Self {
        Self { inner, hard: Hardening::new(arena, line_bytes, config) }
    }

    /// The wrapped barrier's label.
    pub fn name(&self) -> &str {
        self.inner.name()
    }

    /// Who poisoned the barrier, if anyone.
    pub fn poisoned_by(&self, ctx: &dyn MemCtx) -> Option<usize> {
        self.hard.poisoned_by(ctx)
    }

    /// Clears the poison mark so a *new team* can reuse the allocation.
    /// Best-effort: the wrapped barrier's own state (counters, epoch flags)
    /// may still reflect the interrupted episode; monotonic epoch-based
    /// algorithms usually self-heal on the next episode, counter-based
    /// ones may not. Prefer rebuilding the barrier after a failure.
    pub fn clear_poison(&self, ctx: &dyn MemCtx) {
        ctx.store(self.hard.poison, 0);
        ctx.store(self.hard.claim, 0);
    }

    /// An episode guard for the calling participant: while it is live, a
    /// panic on this thread poisons the barrier so blocked peers fail fast
    /// (the host-backend analogue of `SimError::ThreadPanic`). Hold it
    /// across the whole parallel section, not just the `wait` calls.
    pub fn guard<'a>(&'a self, ctx: &'a dyn MemCtx) -> PoisonGuard<'a> {
        PoisonGuard { hard: &self.hard, ctx, armed: true }
    }

    /// Blocks until all participants arrive, the configured deadline
    /// expires, or the barrier is poisoned.
    pub fn wait(&self, ctx: &dyn MemCtx) -> Result<(), BarrierError> {
        self.wait_deadline(ctx, self.hard.config.deadline)
    }

    /// [`RobustBarrier::wait`] with an explicit deadline for this episode.
    ///
    /// On timeout the barrier is poisoned (so peers stuck in the same dead
    /// episode fail fast as [`BarrierError::Poisoned`]) and the wrapped
    /// barrier's state must be considered lost — see
    /// [`RobustBarrier::clear_poison`]. A genuine panic inside the wrapped
    /// algorithm poisons too, then keeps unwinding.
    pub fn wait_deadline(&self, ctx: &dyn MemCtx, deadline: Duration) -> Result<(), BarrierError> {
        self.hard.healthy(ctx)?;
        self.hard.bounded(ctx, deadline, true, |b| self.inner.wait(b)).map_err(
            |abort| match abort {
                // Poison so peers blocked on the same dead episode fail fast
                // instead of each burning a full deadline.
                WaitAbort::Timeout { addr, spins } => self.hard.claim_timeout(ctx, addr, spins),
                abort => abort.into_error(ctx.tid()),
            },
        )
    }
}

/// The [`WaitAbort`] escape is an implementation detail: it is always
/// caught by [`Hardening::bounded`], so the default panic hook must not spray
/// a "Box<dyn Any>" message and backtrace on every timeout.
fn silence_wait_aborts() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<WaitAbort>() {
                prev(info);
            }
        }));
    });
}

/// Poisons the barrier if dropped during a panic — see
/// [`RobustBarrier::guard`].
pub struct PoisonGuard<'a> {
    hard: &'a Hardening,
    ctx: &'a dyn MemCtx,
    armed: bool,
}

impl PoisonGuard<'_> {
    /// Consumes the guard without poisoning even if a panic is in flight
    /// (for participants that leave the team in an orderly way).
    pub fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        // Claim-first, and never spin in a destructor: a guard that loses
        // the ticket leaves the winner's attribution in place.
        if self.armed && std::thread::panicking() {
            self.hard.claim_first(self.ctx);
        }
    }
}

/// A [`Phaser`] wrapper that turns stalls into **recovery** instead of
/// terminal poisoning: when a bounded wait times out, the detecting
/// survivor takes one [`recover`] step — an eviction vote where
/// [`Phaser::find_victim`] names the stalled member whose absence explains
/// the stall, a first-claim-wins ticket elects one evictor, the winner
/// **proxy-arrives** for the victim (shyper's `add_barrier_count` idiom),
/// the episode completes *degraded*, and the next epoch reforms with P−1
/// members. The victim's slot receives [`BarrierError::Evicted`] exactly
/// once. Poisoning remains the fallback when eviction is disabled, the
/// team is down to its last member, or recovery attempts run out.
///
/// Timeouts are wall-clock on the host and poll-count
/// ([`RobustConfig::max_polls`]) on the simulator, where detection order
/// is deterministic: the same seed evicts the same victim at the same
/// virtual time on every run.
pub struct RobustPhaser {
    inner: Box<dyn Phaser>,
    hard: Hardening,
    eviction: bool,
}

impl RobustPhaser {
    /// Wraps `inner`; same arena discipline as [`RobustBarrier::new`].
    /// Eviction starts enabled.
    pub fn new(
        arena: &mut Arena,
        line_bytes: usize,
        inner: Box<dyn Phaser>,
        config: RobustConfig,
    ) -> Self {
        let hard = Hardening::new(arena, line_bytes, config);
        Self { inner, hard, eviction: true }
    }

    /// Enables or disables the eviction vote; disabled means every timeout
    /// poisons, exactly like [`RobustBarrier`].
    pub fn with_eviction(mut self, enabled: bool) -> Self {
        self.eviction = enabled;
        self
    }

    /// The wrapped phaser's label.
    pub fn name(&self) -> &str {
        self.inner.name()
    }

    /// Who poisoned the team, if recovery gave up.
    pub fn poisoned_by(&self, ctx: &dyn MemCtx) -> Option<usize> {
        self.hard.poisoned_by(ctx)
    }

    /// The current epoch / committed member count (see [`Phaser`]).
    pub fn epoch(&self, ctx: &dyn MemCtx) -> u32 {
        self.inner.epoch(ctx)
    }
    /// See [`Phaser::members`].
    pub fn members(&self, ctx: &dyn MemCtx) -> u32 {
        self.inner.members(ctx)
    }

    /// Joins the team (unbounded: a join can only commit when the current
    /// members reach their boundary, so its latency is the team's, not a
    /// fault indicator). Returns the first member epoch.
    pub fn register(&self, ctx: &dyn MemCtx) -> u32 {
        self.inner.register(ctx)
    }

    /// See [`Phaser::request_join`] (non-blocking).
    pub fn request_join(&self, ctx: &dyn MemCtx) -> u32 {
        self.inner.request_join(ctx)
    }

    /// See [`Phaser::await_join`] (unbounded, like [`RobustPhaser::register`]).
    pub fn await_join(&self, ctx: &dyn MemCtx, token: u32) -> u32 {
        self.inner.await_join(ctx, token)
    }

    /// One hardened episode: bounded arrive, then bounded release wait,
    /// each with the eviction-vote recovery loop.
    pub fn arrive_and_wait(&self, ctx: &dyn MemCtx) -> Result<u32, BarrierError> {
        let epoch = self.recovering(ctx, None, |b| self.inner.arrive(b))?;
        self.recovering(ctx, Some(epoch), |b| {
            self.inner.wait_epoch(b, epoch);
            Ok(epoch)
        })?;
        ctx.mark(phaser_mark(PH_COMPLETED, ctx.tid(), epoch));
        Ok(epoch)
    }

    /// Hardened leave: the final arrival is bounded like any episode.
    pub fn deregister(&self, ctx: &dyn MemCtx) -> Result<u32, BarrierError> {
        self.recovering(ctx, None, |b| self.inner.deregister(b))
    }

    /// Bounded wait for `epoch` to commit (a leaver waiting out its final
    /// epoch before re-registering, see [`Phaser::deregister`]).
    pub fn wait_epoch(&self, ctx: &dyn MemCtx, epoch: u32) -> Result<(), BarrierError> {
        self.recovering(ctx, Some(epoch), |b| {
            self.inner.wait_epoch(b, epoch);
            Ok(())
        })
    }

    /// Bounded wait on an **out-of-band signal word** (e.g. a churn
    /// script's join-handshake gate) until it reaches `value`; same
    /// deadline/poll budget as the episode waits. Unlike those, a timeout
    /// here neither votes (the stall is the *peer* side of the handshake
    /// dying, not a phaser member desertion — there is no victim to
    /// evict) nor poisons the team (the phaser itself may be perfectly
    /// healthy); the caller just gets the `Timeout` and classifies its
    /// own failure. A poisoned team still fails fast.
    pub fn wait_signal(
        &self,
        ctx: &dyn MemCtx,
        addr: Addr,
        value: u32,
    ) -> Result<u32, BarrierError> {
        self.hard.healthy(ctx)?;
        self.hard
            .bounded(ctx, self.hard.config.deadline, false, |b| b.spin_until_ge(addr, value))
            .map_err(|abort| abort.into_error(ctx.tid()))
    }

    /// Runs `f` under a bounded context; on timeout, takes one [`recover`]
    /// step for `stalled` (for an arrival, `None`: the epoch at the start
    /// of each lap) and re-enters (phaser operations are idempotent per
    /// epoch, see [`Phaser::arrive`]), poisoning when recovery gives up. A
    /// genuine panic poisons too, then keeps unwinding.
    fn recovering<T>(
        &self,
        ctx: &dyn MemCtx,
        stalled: Option<u32>,
        f: impl Fn(&dyn MemCtx) -> Result<T, BarrierError>,
    ) -> Result<T, BarrierError> {
        let mut attempts: u32 = 0;
        loop {
            self.hard.healthy(ctx)?;
            let mut seen = self.inner.epoch(ctx);
            let stalled = stalled.unwrap_or(seen);
            let (addr, spins) = match self.hard.bounded(ctx, self.hard.config.deadline, true, &f) {
                Ok(r) => return r,
                Err(WaitAbort::Timeout { addr, spins }) => (addr, spins),
                Err(abort) => return Err(abort.into_error(ctx.tid())),
            };
            let step = recover(&*self.inner, ctx, &mut attempts, stalled, &mut seen, self.eviction);
            if step == Recovery::Poison {
                return Err(self.hard.claim_timeout(ctx, addr, spins));
            }
        }
    }
}

/// What a waiter does after its deadline lapsed, as [`recover`] decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// Wait another lap.
    Rewait,
    /// This waiter evicted a member; the claim is what its proxy did.
    Evicted(Claim),
    /// Recovery cannot help: poison the team.
    Poison,
}

/// One recovery step after a waiter's deadline lapsed, shared by
/// [`RobustPhaser`] and serve's teams. `stalled` is the epoch the waiter
/// needs (the current one for an arrival, `e` for a wait on `e`); `seen`
/// is the membership epoch at the start of the lap, and the step leaves
/// the one it reads there for the next lap.
///
/// An epoch that moved during the lap or passed `stalled` is progress:
/// the champion stores the next membership word before the release, so a
/// lapse in between falls in the notification phase and re-waits without
/// spending an attempt. Otherwise the step spends one and votes on
/// `stalled` ([`Phaser::find_victim`], then [`Phaser::evict`]). It poisons
/// when `eviction` is off, when evicting would drain the team, or past
/// the members plus 2 attempts (each productive vote evicts a member).
pub fn recover(
    phaser: &dyn Phaser,
    ctx: &dyn MemCtx,
    attempts: &mut u32,
    stalled: u32,
    seen: &mut u32,
    eviction: bool,
) -> Recovery {
    let now = phaser.epoch(ctx);
    if std::mem::replace(seen, now) != now || now > stalled {
        return Recovery::Rewait;
    }
    *attempts += 1;
    let members = if eviction { phaser.members(ctx) } else { return Recovery::Poison };
    if *attempts > members + 2 {
        return Recovery::Poison;
    }
    match phaser.find_victim(ctx, stalled) {
        Some(_) if members <= 1 => Recovery::Poison, // evicting would drain the team
        // A lost ticket re-waits: the winner's proxy unsticks this waiter.
        Some(victim) => {
            phaser.evict(ctx, victim, stalled).map_or(Recovery::Rewait, Recovery::Evicted)
        }
        // Not attributable (e.g. the stalled member's own subtree is
        // still filling in): re-wait and look again.
        None => Recovery::Rewait,
    }
}

/// Poll-check cadence of the bounded spin loops: the poison word is read
/// and the clock consulted every this many failed polls. The poison line is
/// shared read-mostly, so the checks stay out of the coherence traffic of
/// the barrier's own flags; the first check happens on the first failed
/// poll so poisoning is noticed even at tiny deadlines.
const CHECK_EVERY: u64 = 64;

/// A [`MemLayer`] whose spin is a bounded polling loop over `load`,
/// escaping by unwinding with a [`WaitAbort`] when the deadline passes or
/// the poison word is set. Everything else forwards.
struct BoundedCtx<'a> {
    inner: &'a dyn MemCtx,
    hard: &'a Hardening,
    deadline: Instant,
}

impl BoundedCtx<'_> {
    /// Deadline/poison check; diverges (by unwinding) when the episode is
    /// lost. The poll-count deadline is exact (deterministic on the
    /// simulator); the poison/wall-clock checks are rate-limited by the
    /// poll counter, with the first on the first failed poll so poisoning
    /// is noticed even at tiny deadlines.
    fn check(&self, stuck_at: Addr, polls: u64) {
        if self.hard.config.max_polls.is_some_and(|mp| polls >= mp) {
            std::panic::panic_any(WaitAbort::Timeout { addr: stuck_at, spins: polls });
        }
        if !polls.is_multiple_of(CHECK_EVERY) {
            return;
        }
        let p = self.inner.load(self.hard.poison);
        if p != 0 {
            std::panic::panic_any(WaitAbort::Poisoned { by: p as usize - 1 });
        }
        if Instant::now() >= self.deadline {
            std::panic::panic_any(WaitAbort::Timeout { addr: stuck_at, spins: polls });
        }
    }
}

impl MemLayer for BoundedCtx<'_> {
    fn inner(&self) -> &dyn MemCtx {
        self.inner
    }
    fn spin_until(&self, addrs: &[Addr], kind: WaitKind) -> u32 {
        let mut wait = SpinWait::default();
        let mut polls: u64 = 0;
        loop {
            match kind.probe(addrs, |a| self.inner.load(a)) {
                Ok(v) => return v,
                Err(stuck) => self.check(stuck, polls),
            }
            polls += 1;
            // Under a poll-count deadline the host-side pause is skipped:
            // against the simulator's virtual clock, yields and backoff
            // sleeps only add host wall time.
            if self.hard.config.max_polls.is_none() {
                wait.pause();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostMem;
    use crate::registry::AlgorithmId;
    use armbar_topology::{Platform, Topology};
    use std::sync::Arc;

    fn deadline_config(deadline_ms: u64) -> RobustConfig {
        RobustConfig { deadline: Duration::from_millis(deadline_ms), ..RobustConfig::default() }
    }

    /// The last arriver "forgets" its release store: a lost wakeup.
    struct LostWakeup {
        counter: Addr,
        wake: Addr,
    }

    impl Barrier for LostWakeup {
        fn wait(&self, ctx: &dyn MemCtx) {
            let p = ctx.nthreads() as u32;
            if ctx.fetch_add(self.counter, 1) < p - 1 {
                ctx.spin_until_eq(self.wake, 1);
            }
        }
        fn name(&self) -> &str {
            "lost-wakeup"
        }
    }

    #[test]
    fn healthy_episodes_pass_through() {
        let topo = Topology::preset(Platform::Kunpeng920);
        let p = 4;
        let mut arena = Arena::new();
        let inner = AlgorithmId::Optimized.build(&mut arena, p, &topo);
        let robust = Arc::new(RobustBarrier::new(&mut arena, 64, inner, RobustConfig::default()));
        assert_eq!(robust.name(), "OPT");
        let mem = HostMem::new(&arena);
        std::thread::scope(|s| {
            for tid in 0..p {
                let mem = Arc::clone(&mem);
                let robust = Arc::clone(&robust);
                s.spawn(move || {
                    let ctx = mem.ctx(tid, p);
                    for _ in 0..50 {
                        robust.wait(&ctx).unwrap();
                    }
                    assert_eq!(robust.poisoned_by(&ctx), None);
                });
            }
        });
    }

    #[test]
    fn lost_wakeup_times_out_and_poisons() {
        let p = 4;
        let mut arena = Arena::new();
        let inner = Box::new(LostWakeup {
            counter: arena.alloc_padded_u32(64),
            wake: arena.alloc_padded_u32(64),
        });
        let robust = Arc::new(RobustBarrier::new(&mut arena, 64, inner, deadline_config(300)));
        let mem = HostMem::new(&arena);
        let t0 = Instant::now();
        let results: Vec<Result<(), BarrierError>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..p)
                .map(|tid| {
                    let mem = Arc::clone(&mem);
                    let robust = Arc::clone(&robust);
                    s.spawn(move || robust.wait(&mem.ctx(tid, p)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // The last arriver returns Ok (it never waits); every waiter gets a
        // typed error, at least one of them the primary Timeout.
        assert!(t0.elapsed() < Duration::from_secs(10), "waiters must not hang");
        let oks = results.iter().filter(|r| r.is_ok()).count();
        let timeouts =
            results.iter().filter(|r| matches!(r, Err(BarrierError::Timeout { .. }))).count();
        let errors = results.len() - oks;
        assert_eq!(oks, 1, "{results:?}");
        assert_eq!(errors, p - 1, "{results:?}");
        assert!(timeouts >= 1, "{results:?}");
        let ctx = mem.ctx(0, p);
        assert!(robust.poisoned_by(&ctx).is_some());
        // Later arrivals fail fast without waiting out a deadline.
        let t1 = Instant::now();
        assert!(matches!(robust.wait(&ctx), Err(BarrierError::Poisoned { .. })));
        assert!(t1.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn crashed_participant_poisons_waiters() {
        let topo = Topology::preset(Platform::ThunderX2);
        let p = 4;
        let mut arena = Arena::new();
        let inner = AlgorithmId::Mcs.build(&mut arena, p, &topo);
        let robust = Arc::new(RobustBarrier::new(&mut arena, 64, inner, deadline_config(5_000)));
        let mem = HostMem::new(&arena);
        let results: Vec<Result<(), BarrierError>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..p)
                .map(|tid| {
                    let mem = Arc::clone(&mem);
                    let robust = Arc::clone(&robust);
                    s.spawn(move || {
                        let ctx = mem.ctx(tid, p);
                        if tid == 2 {
                            // Dies before ever reaching the barrier; the
                            // guard poisons on the way out.
                            let r = catch_unwind(AssertUnwindSafe(|| {
                                let _guard = robust.guard(&ctx);
                                panic!("injected crash");
                            }));
                            assert!(r.is_err());
                            return Err(BarrierError::Poisoned { tid, by: tid });
                        }
                        robust.wait(&ctx)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (tid, r) in results.iter().enumerate() {
            if tid == 2 {
                continue;
            }
            match r {
                Err(BarrierError::Poisoned { by, .. }) => assert_eq!(*by, 2),
                other => panic!("t{tid}: expected Poisoned, got {other:?}"),
            }
        }
    }

    #[test]
    fn disarmed_guard_does_not_poison() {
        let mut arena = Arena::new();
        let topo = Topology::preset(Platform::Kunpeng920);
        let inner = AlgorithmId::Sense.build(&mut arena, 1, &topo);
        let robust = RobustBarrier::new(&mut arena, 64, inner, RobustConfig::default());
        let mem = HostMem::new(&arena);
        let ctx = mem.ctx(0, 1);
        let r = catch_unwind(AssertUnwindSafe(|| {
            let guard = robust.guard(&ctx);
            guard.disarm();
            panic!("after disarm");
        }));
        assert!(r.is_err());
        assert_eq!(robust.poisoned_by(&ctx), None);
    }

    #[test]
    fn clear_poison_restores_service() {
        let mut arena = Arena::new();
        let topo = Topology::preset(Platform::Kunpeng920);
        let inner = AlgorithmId::Sense.build(&mut arena, 1, &topo);
        let robust = RobustBarrier::new(&mut arena, 64, inner, RobustConfig::default());
        let mem = HostMem::new(&arena);
        let ctx = mem.ctx(0, 1);
        let r = catch_unwind(AssertUnwindSafe(|| {
            let _guard = robust.guard(&ctx);
            panic!("poison it");
        }));
        assert!(r.is_err());
        assert!(matches!(robust.wait(&ctx), Err(BarrierError::Poisoned { .. })));
        robust.clear_poison(&ctx);
        robust.wait(&ctx).unwrap();
    }

    #[test]
    fn errors_render_usefully() {
        let t = BarrierError::Timeout { tid: 3, addr: 0x40, spins: 999 };
        let s = t.to_string();
        assert!(s.contains("t3") && s.contains("0x40") && s.contains("999"), "{s}");
        let p = BarrierError::Poisoned { tid: 1, by: 2 };
        assert!(p.to_string().contains("poisoned by t2"));
        let e = BarrierError::Evicted { tid: 5, episode: 7 };
        assert!(e.to_string().contains("t5") && e.to_string().contains("episode 7"));
    }

    /// Satellite: when several waiters time out in the same dead episode,
    /// every `Poisoned { by }` must name the *first* poisoner — the
    /// ticket-0 claimant — not whichever store landed last. On the
    /// simulator the claim order is the deterministic schedule order, so
    /// the attribution is reproducible; this regression drives the claim
    /// path on the sim with poll-count deadlines.
    #[test]
    fn first_poisoner_wins_attribution_deterministically() {
        use armbar_simcoh::SimBuilder;
        let topo = Arc::new(Topology::preset(Platform::Kunpeng920));
        let p = 6;
        let run = || {
            let mut arena = Arena::new();
            let inner = Box::new(LostWakeup {
                counter: arena.alloc_padded_u32(64),
                wake: arena.alloc_padded_u32(64),
            });
            let config = RobustConfig { max_polls: Some(200), ..RobustConfig::default() };
            let robust = Arc::new(RobustBarrier::new(&mut arena, 64, inner, config));
            let results = Arc::new(std::sync::Mutex::new(vec![None; p]));
            SimBuilder::new(Arc::clone(&topo), p)
                .run({
                    let robust = Arc::clone(&robust);
                    let results = Arc::clone(&results);
                    move |ctx| {
                        let r = robust.wait(ctx);
                        results.lock().unwrap()[ctx.tid()] = Some(r);
                    }
                })
                .unwrap();
            let r = results.lock().unwrap().clone();
            r.into_iter().map(Option::unwrap).collect::<Vec<_>>()
        };
        let results = run();
        let winners: Vec<usize> = results
            .iter()
            .filter_map(|r| match r {
                Err(BarrierError::Timeout { tid, .. }) => Some(*tid),
                _ => None,
            })
            .collect();
        assert_eq!(winners.len(), 1, "exactly one primary Timeout: {results:?}");
        let by_set: std::collections::BTreeSet<usize> = results
            .iter()
            .filter_map(|r| match r {
                Err(BarrierError::Poisoned { by, .. }) => Some(*by),
                _ => None,
            })
            .collect();
        assert_eq!(
            by_set.into_iter().collect::<Vec<_>>(),
            winners,
            "all waiters agree on the first poisoner: {results:?}"
        );
        // Deterministic: the same seedless sim run elects the same winner.
        assert_eq!(results, run(), "attribution must be schedule-deterministic");
    }

    /// The tentpole's recovery path: a deserting member is evicted by a
    /// survivor's proxy arrival, every episode completes degraded (never
    /// poisoned), the team reforms with P-1 members, and the victim's
    /// slot sees exactly one `Evicted` report.
    #[test]
    fn robust_phaser_evicts_deserter_and_reforms() {
        use crate::phaser::{CentralPhaser, TreePhaser};
        use armbar_simcoh::SimBuilder;
        let topo = Arc::new(Topology::preset(Platform::Kunpeng920));
        let p = 8;
        let episodes = 5u32;
        for which in ["ctr", "tree"] {
            let mut arena = Arena::new();
            let inner: Box<dyn Phaser> = match which {
                "ctr" => Box::new(CentralPhaser::full(&mut arena, p, &topo)),
                _ => Box::new(TreePhaser::full(&mut arena, p, &topo)),
            };
            let config = RobustConfig { max_polls: Some(3_000), ..RobustConfig::default() };
            let robust = Arc::new(RobustPhaser::new(&mut arena, 64, inner, config));
            let results = Arc::new(std::sync::Mutex::new(vec![Vec::new(); p]));
            SimBuilder::new(Arc::clone(&topo), p)
                .run({
                    let robust = Arc::clone(&robust);
                    let results = Arc::clone(&results);
                    move |ctx| {
                        let slot = ctx.tid();
                        let mut epoch = 0;
                        while epoch < episodes {
                            if slot == 3 && epoch == 2 {
                                // Deserts episode 3 silently (sits out the
                                // degraded epoch), then comes back to find
                                // itself evicted — reported exactly once.
                                robust.wait_epoch(ctx, 3).unwrap();
                                let r = robust.arrive_and_wait(ctx);
                                results.lock().unwrap()[slot].push(r.clone());
                                assert_eq!(
                                    r,
                                    Err(BarrierError::Evicted { tid: 3, episode: 3 }),
                                    "{which}"
                                );
                                return;
                            }
                            let r = robust.arrive_and_wait(ctx);
                            results.lock().unwrap()[slot].push(r.clone());
                            epoch = r.unwrap_or_else(|e| panic!("{which}: t{slot}: {e}"));
                        }
                        assert_eq!(
                            robust.poisoned_by(ctx),
                            None,
                            "{which}: degraded, not poisoned"
                        );
                        assert_eq!(robust.members(ctx), p as u32 - 1, "{which}: reformed P-1");
                    }
                })
                .unwrap();
            let all = results.lock().unwrap();
            let evicted: Vec<_> = all
                .iter()
                .flatten()
                .filter(|r| matches!(r, Err(BarrierError::Evicted { .. })))
                .collect();
            assert_eq!(evicted.len(), 1, "{which}: exactly one Evicted report: {all:?}");
            assert_eq!(*evicted[0], Err(BarrierError::Evicted { tid: 3, episode: 3 }), "{which}");
        }
    }

    /// Spends `stall_ns` of simulated time before the store to `release`:
    /// a champion that stalls after it stored the next membership word,
    /// before it stored the release.
    struct StallBeforeRelease<'a> {
        inner: &'a dyn MemCtx,
        release: Addr,
        stall_ns: f64,
    }

    impl MemLayer for StallBeforeRelease<'_> {
        fn inner(&self) -> &dyn MemCtx {
            self.inner
        }
        fn store(&self, addr: Addr, value: u32) {
            if addr == self.release {
                self.inner.compute_ns(self.stall_ns);
            }
            self.inner.store(addr, value)
        }
    }

    /// The survivors' 5000-poll deadlines lapse while each champion
    /// stalls 100 µs of simulated time inside its commit. The
    /// epoch they need is committing, so that is no stall: voting on the
    /// next epoch, where nobody has arrived yet, would evict healthy
    /// members.
    #[test]
    fn a_lapse_while_the_champion_commits_evicts_nobody() {
        use crate::phaser::CentralPhaser;
        use armbar_simcoh::SimBuilder;
        let topo = Arc::new(Topology::preset(Platform::Kunpeng920));
        let p = 3;
        let mut arena = Arena::new();
        let phaser = CentralPhaser::full(&mut arena, p, &topo);
        let release = phaser.release_word();
        let config = RobustConfig { max_polls: Some(5_000), ..RobustConfig::default() };
        let robust = Arc::new(RobustPhaser::new(&mut arena, 64, Box::new(phaser), config));
        SimBuilder::new(Arc::clone(&topo), p)
            .run({
                let robust = Arc::clone(&robust);
                move |ctx| {
                    let stalling = StallBeforeRelease { inner: ctx, release, stall_ns: 100_000.0 };
                    for e in 1..=2 {
                        assert_eq!(robust.arrive_and_wait(&stalling), Ok(e), "t{}", ctx.tid());
                    }
                    assert_eq!(robust.members(ctx), p as u32);
                    assert_eq!(robust.poisoned_by(ctx), None);
                }
            })
            .unwrap();
    }

    /// Eviction disabled → the legacy terminal-poisoning behavior.
    #[test]
    fn robust_phaser_without_eviction_poisons() {
        use crate::phaser::CentralPhaser;
        use armbar_simcoh::SimBuilder;
        let topo = Arc::new(Topology::preset(Platform::Kunpeng920));
        let p = 4;
        let mut arena = Arena::new();
        let inner: Box<dyn Phaser> = Box::new(CentralPhaser::full(&mut arena, p, &topo));
        let config = RobustConfig { max_polls: Some(500), ..RobustConfig::default() };
        let robust =
            Arc::new(RobustPhaser::new(&mut arena, 64, inner, config).with_eviction(false));
        let results = Arc::new(std::sync::Mutex::new(vec![None; p]));
        SimBuilder::new(Arc::clone(&topo), p)
            .run({
                let robust = Arc::clone(&robust);
                let results = Arc::clone(&results);
                move |ctx| {
                    if ctx.tid() == 2 {
                        return; // deserts the first episode
                    }
                    let r = robust.arrive_and_wait(ctx);
                    results.lock().unwrap()[ctx.tid()] = Some(r);
                }
            })
            .unwrap();
        let r = results.lock().unwrap();
        for (tid, res) in r.iter().enumerate() {
            if tid == 2 {
                continue;
            }
            assert!(
                matches!(
                    res,
                    Some(Err(BarrierError::Timeout { .. } | BarrierError::Poisoned { .. }))
                ),
                "t{tid}: expected Timeout/Poisoned, got {res:?}"
            );
        }
    }

    /// One spin case: the values a peer stores into the watched words (one
    /// store per word, so every interleaving ends in the same result), the
    /// condition, and the value every backend must return.
    type SpinCase = (&'static [u32], WaitKind, u32);
    const SPIN_CASES: [SpinCase; 5] = [
        (&[5], WaitKind::Eq(5), 5),
        (&[9], WaitKind::Ge(3), 9),    // overshoot: the satisfying value
        (&[], WaitKind::AllGe(4), 4),  // nothing to watch: the epoch at once
        (&[6], WaitKind::AllGe(4), 4), // batched even over one word
        (&[9, 4, 5], WaitKind::AllGe(4), 4),
    ];

    /// Tid 1 stores the case's values; tid 0 spins on the words (through
    /// a [`BoundedCtx`] when `bounded`) and returns what the spin returned.
    fn spin_case(
        ctx: &dyn MemCtx,
        words: &[Addr],
        hard: &Hardening,
        (values, kind, _): SpinCase,
        bounded: bool,
    ) -> Option<u32> {
        let watched = &words[..values.len()];
        if ctx.tid() == 1 {
            ctx.compute_ns(500.0);
            for (&a, &v) in watched.iter().zip(values) {
                ctx.store(a, v);
            }
            return None;
        }
        if !bounded {
            return Some(ctx.spin_until(watched, kind));
        }
        let spin = |b: &dyn MemCtx| b.spin_until(watched, kind);
        Some(hard.bounded(ctx, Duration::from_secs(10), false, spin).ok().expect("no timeout"))
    }

    /// Three watched words and the poison words, each on its own line.
    fn spin_arena() -> (Arena, Vec<Addr>, Hardening) {
        let mut arena = Arena::new();
        let words = (0..3).map(|_| arena.alloc_padded_u32(64)).collect();
        let hard = Hardening::new(&mut arena, 64, RobustConfig::default());
        (arena, words, hard)
    }

    fn host_spins(bounded: bool) -> Vec<u32> {
        let spin = |case: SpinCase| {
            let (arena, words, hard) = spin_arena();
            let mem = HostMem::new(&arena);
            std::thread::scope(|s| {
                let threads: Vec<_> = (0..2)
                    .map(|tid| {
                        let (mem, words, hard) = (&mem, &words, &hard);
                        s.spawn(move || spin_case(&mem.ctx(tid, 2), words, hard, case, bounded))
                    })
                    .collect();
                threads.into_iter().find_map(|t| t.join().unwrap()).unwrap()
            })
        };
        SPIN_CASES.into_iter().map(spin).collect()
    }

    fn sim_spins(bounded: bool) -> Vec<u32> {
        let spin = |case: SpinCase| {
            let (arena, words, hard) = spin_arena();
            let got = Arc::new(std::sync::Mutex::new(None));
            let sink = Arc::clone(&got);
            armbar_simcoh::SimBuilder::new(Arc::new(Topology::preset(Platform::Kunpeng920)), 2)
                .reserve_for(&arena)
                .run(move |sim| {
                    if let Some(v) = spin_case(sim, &words, &hard, case, bounded) {
                        *sink.lock().unwrap() = Some(v);
                    }
                })
                .unwrap();
            let v = *got.lock().unwrap();
            v.expect("tid 0 spun")
        };
        SPIN_CASES.into_iter().map(spin).collect()
    }

    #[test]
    fn spin_semantics_agree_across_backends() {
        let expected: Vec<u32> = SPIN_CASES.iter().map(|c| c.2).collect();
        for (backend, got) in [
            ("host", host_spins(false)),
            ("sim", sim_spins(false)),
            ("bounded host", host_spins(true)),
            ("bounded sim", sim_spins(true)),
        ] {
            assert_eq!(got, expected, "{backend}");
        }
    }
}
