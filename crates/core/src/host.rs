//! Host-atomics backend: a real shared-memory arena for real threads.
//!
//! [`HostMem`] materializes an [`armbar_simcoh::Arena`] layout as one
//! contiguous slab of `AtomicU32`s, so the exact flag placement chosen by a
//! barrier's constructor (packed vs. cache-line padded) is preserved on the
//! host. Memory orderings follow the idioms of *Rust Atomics and Locks*:
//! flag publication is Release, flag observation is Acquire, counters are
//! AcqRel read-modify-writes.
//!
//! Spin loops follow a three-stage [`SpinPolicy`]: busy spinning with
//! [`std::hint::spin_loop`], then periodic `yield_now`, then capped
//! exponential-backoff sleeping — so barriers stay live *and* stop burning
//! whole cores when threads are heavily oversubscribed (e.g. 64 simulated
//! participants on a laptop core). The thresholds are configurable per
//! context ([`HostMem::ctx_with_policy`]) or process-wide via environment
//! variables (`ARMBAR_SPIN_YIELD`, `ARMBAR_BACKOFF_CAP_US`).

use std::ops::Deref;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use armbar_simcoh::{Addr, Arena, WaitKind};

use crate::env::MemCtx;

/// Staged waiting strategy for host spin loops: `spins_per_yield` busy
/// iterations between yields, `yields_before_backoff` yields before the
/// loop starts sleeping, then exponential backoff from `initial_backoff`
/// doubling up to `max_backoff`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpinPolicy {
    /// Busy-spin iterations between `yield_now` calls. Low enough that an
    /// oversubscribed host makes progress, high enough that dedicated
    /// cores rarely leave userspace.
    pub spins_per_yield: u32,
    /// Yields before the waiter escalates to sleeping.
    pub yields_before_backoff: u32,
    /// First sleep once backoff begins.
    pub initial_backoff: Duration,
    /// Ceiling of the exponential backoff — bounds worst-case wakeup
    /// latency once a waiter has gone to sleep.
    pub max_backoff: Duration,
}

impl Default for SpinPolicy {
    fn default() -> Self {
        Self {
            spins_per_yield: 128,
            yields_before_backoff: 64,
            initial_backoff: Duration::from_micros(20),
            max_backoff: Duration::from_millis(1),
        }
    }
}

impl SpinPolicy {
    /// The process-wide policy: the default, overridden by the environment
    /// variables `ARMBAR_SPIN_YIELD` (spins between yields) and
    /// `ARMBAR_BACKOFF_CAP_US` (backoff ceiling, microseconds; `0` disables
    /// sleeping entirely). Read once and cached.
    pub fn from_env() -> Self {
        Self::cached().clone()
    }

    /// The process-wide policy, read once.
    fn cached() -> &'static Self {
        static CACHED: std::sync::OnceLock<SpinPolicy> = std::sync::OnceLock::new();
        CACHED.get_or_init(|| {
            Self::from_vars(
                std::env::var("ARMBAR_SPIN_YIELD").ok().as_deref(),
                std::env::var("ARMBAR_BACKOFF_CAP_US").ok().as_deref(),
            )
        })
    }

    /// Applies the environment-variable overrides to the default policy,
    /// reporting rejected values on stderr (once per process): a spin
    /// override silently replaced by the default would make a liveness
    /// tuning knob appear to work while doing nothing.
    fn from_vars(spin_yield: Option<&str>, cap_us: Option<&str>) -> Self {
        let (p, warnings) = Self::from_vars_checked(spin_yield, cap_us);
        if !warnings.is_empty() {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                for w in &warnings {
                    eprintln!("armbar: {w}");
                }
            });
        }
        p
    }

    /// The override logic itself: returns the resulting policy plus one
    /// warning per rejected value. A valid `spin_yield` must be a positive
    /// integer; a `cap_us` of zero is valid and turns backoff off (pure
    /// spin + yield).
    fn from_vars_checked(spin_yield: Option<&str>, cap_us: Option<&str>) -> (Self, Vec<String>) {
        let mut p = Self::default();
        let mut warnings = Vec::new();
        match spin_yield.map(|s| (s, s.trim().parse::<u32>())) {
            Some((_, Ok(n))) if n > 0 => p.spins_per_yield = n,
            Some((raw, _)) => warnings.push(format!(
                "ignoring ARMBAR_SPIN_YIELD={raw:?} (expected a positive integer); \
                 using the default of {}",
                p.spins_per_yield
            )),
            None => {}
        }
        match cap_us.map(|s| (s, s.trim().parse::<u64>())) {
            Some((_, Ok(0))) => p.yields_before_backoff = u32::MAX,
            Some((_, Ok(us))) => {
                p.max_backoff = Duration::from_micros(us);
                p.initial_backoff = p.initial_backoff.min(p.max_backoff);
            }
            Some((raw, Err(_))) => warnings.push(format!(
                "ignoring ARMBAR_BACKOFF_CAP_US={raw:?} (expected microseconds, 0 disables \
                 backoff); using the default of {} us",
                p.max_backoff.as_micros()
            )),
            None => {}
        }
        (p, warnings)
    }

    /// A fresh staged waiter following this policy.
    pub fn waiter(&self) -> SpinWait<'_> {
        SpinWait { policy: self, spins: 0, yields: 0, backoff: self.initial_backoff }
    }
}

/// Cursor through one spin episode: call [`SpinWait::pause`] after every
/// failed poll and it escalates spin → yield → capped exponential sleep.
pub struct SpinWait<'a> {
    policy: &'a SpinPolicy,
    spins: u64,
    yields: u32,
    backoff: Duration,
}

impl SpinWait<'_> {
    /// One wait step at the current escalation level.
    pub fn pause(&mut self) {
        self.spins += 1;
        if !self.spins.is_multiple_of(self.policy.spins_per_yield as u64) {
            std::hint::spin_loop();
            return;
        }
        if self.yields < self.policy.yields_before_backoff {
            self.yields += 1;
            std::thread::yield_now();
            return;
        }
        std::thread::sleep(self.backoff);
        self.backoff = (self.backoff * 2).min(self.policy.max_backoff);
    }

    /// Failed polls so far.
    pub fn spins(&self) -> u64 {
        self.spins
    }
}

/// A shared arena of host atomics matching an [`Arena`] layout. The words
/// sit inline behind the [`Arc`] that [`HostMem::new`] returns: one
/// allocation, one pointer hop from a [`HostCtx`] to any word.
#[repr(transparent)]
pub struct HostMem {
    words: [AtomicU32],
}

impl HostMem {
    /// Materializes backing storage for everything allocated from `arena`
    /// so far. All words start at zero, mirroring the simulator.
    pub fn new(arena: &Arena) -> Arc<Self> {
        let n_words = arena.len().div_ceil(4);
        let words: Arc<[AtomicU32]> = (0..n_words).map(|_| AtomicU32::new(0)).collect();
        // SAFETY: `HostMem` is `repr(transparent)` over `[AtomicU32]`, so
        // both pointees have the same layout and the same slice-length
        // metadata; the pointer comes from `Arc::into_raw` of that layout.
        unsafe { Arc::from_raw(Arc::into_raw(words) as *const HostMem) }
    }

    /// Views words the caller already owns as a `HostMem`, for a host
    /// that keeps a phaser's words inline in a larger allocation of its
    /// own (a serve team). Word `i` answers [`Addr`] `4 * i`. The cast is
    /// sound because `HostMem` is `repr(transparent)` over
    /// `[AtomicU32]`: the view is the same slice, with the same length
    /// and the borrow's lifetime, and adds no invariant of its own.
    #[inline]
    pub fn from_words(words: &[AtomicU32]) -> &HostMem {
        // SAFETY: `HostMem` is `repr(transparent)` over `[AtomicU32]`, so
        // the two slice DSTs share layout and length metadata; the cast
        // keeps both, and the returned borrow inherits the input's lifetime.
        unsafe { &*(words as *const [AtomicU32] as *const HostMem) }
    }

    /// A per-thread operation context using the process-wide
    /// [`SpinPolicy::from_env`]. `nthreads` is the number of barrier
    /// participants; `tid` must be unique per participant.
    ///
    /// # Panics
    /// Panics if `tid >= nthreads`.
    pub fn ctx(self: &Arc<Self>, tid: usize, nthreads: usize) -> HostCtx {
        HostCtx::new(Arc::clone(self), tid, nthreads, None)
    }

    /// Like [`HostMem::ctx`], but with an explicit spin policy — the
    /// builder knob for callers that know their subscription level.
    ///
    /// # Panics
    /// Panics if `tid >= nthreads`.
    pub fn ctx_with_policy(
        self: &Arc<Self>,
        tid: usize,
        nthreads: usize,
        policy: SpinPolicy,
    ) -> HostCtx {
        HostCtx::new(Arc::clone(self), tid, nthreads, Some(Box::new(policy)))
    }

    /// A context borrowing this memory: no reference counting, for a
    /// caller that makes one per operation. Spins follow
    /// [`SpinPolicy::from_env`].
    ///
    /// # Panics
    /// Panics if `tid >= nthreads`.
    #[inline]
    pub fn view(&self, tid: usize, nthreads: usize) -> HostCtx<&HostMem> {
        HostCtx::new(self, tid, nthreads, None)
    }

    #[inline]
    fn word(&self, addr: Addr) -> &AtomicU32 {
        debug_assert_eq!(addr % 4, 0, "unaligned access at {addr:#x}");
        &self.words[(addr / 4) as usize]
    }
}

/// Per-thread handle over a [`HostMem`]: shared ownership of the memory
/// by default, a borrow for [`HostMem::view`]. 32 bytes either way; the
/// impl is generic, so its methods inline into every calling crate.
pub struct HostCtx<M: Deref<Target = HostMem> = Arc<HostMem>> {
    mem: M,
    tid: u32,
    nthreads: u32,
    /// `None` is the process-wide [`SpinPolicy::from_env`].
    policy: Option<Box<SpinPolicy>>,
}

impl<M: Deref<Target = HostMem>> HostCtx<M> {
    fn new(mem: M, tid: usize, nthreads: usize, policy: Option<Box<SpinPolicy>>) -> Self {
        assert!(tid < nthreads, "tid {tid} out of range for {nthreads} threads");
        let narrow = |n: usize| u32::try_from(n).expect("thread counts fit in 32 bits");
        Self { mem, tid: narrow(tid), nthreads: narrow(nthreads), policy }
    }

    /// This context's staged-waiting configuration.
    pub fn policy(&self) -> &SpinPolicy {
        match &self.policy {
            Some(policy) => policy,
            None => SpinPolicy::cached(),
        }
    }
}

impl<M: Deref<Target = HostMem>> MemCtx for HostCtx<M> {
    fn tid(&self) -> usize {
        self.tid as usize
    }
    fn nthreads(&self) -> usize {
        self.nthreads as usize
    }
    fn load(&self, addr: Addr) -> u32 {
        self.mem.word(addr).load(Ordering::Acquire)
    }
    fn store(&self, addr: Addr, value: u32) {
        self.mem.word(addr).store(value, Ordering::Release)
    }
    fn load_relaxed(&self, addr: Addr) -> u32 {
        self.mem.word(addr).load(Ordering::Relaxed)
    }
    fn store_relaxed(&self, addr: Addr, value: u32) {
        self.mem.word(addr).store(value, Ordering::Relaxed)
    }
    fn fence(&self) {
        std::sync::atomic::fence(Ordering::SeqCst)
    }
    fn fetch_add(&self, addr: Addr, delta: u32) -> u32 {
        self.mem.word(addr).fetch_add(delta, Ordering::AcqRel)
    }
    fn compare_exchange(&self, addr: Addr, current: u32, new: u32) -> u32 {
        match self.mem.word(addr).compare_exchange(
            current,
            new,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(prev) | Err(prev) => prev,
        }
    }
    fn swap(&self, addr: Addr, new: u32) -> u32 {
        self.mem.word(addr).swap(new, Ordering::AcqRel)
    }
    fn spin_until(&self, addrs: &[Addr], kind: WaitKind) -> u32 {
        // One polling loop over all watched words: the loads of different
        // lines issue back-to-back, letting the misses overlap.
        let mut wait = self.policy().waiter();
        loop {
            if let Ok(v) = kind.probe(addrs, |a| self.load(a)) {
                return v;
            }
            wait.pause();
        }
    }
    fn compute_ns(&self, ns: f64) {
        // Host-side "work": a calibration-free busy wait. Coarse, but the
        // harness only needs the work to take *roughly* this long.
        let start = std::time::Instant::now();
        let target = std::time::Duration::from_nanos(ns as u64);
        while start.elapsed() < target {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_layout_is_materialized() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        let b = arena.alloc_padded_u32(64);
        let mem = HostMem::new(&arena);
        let ctx = mem.ctx(0, 1);
        ctx.store(a, 11);
        ctx.store(b, 22);
        assert_eq!(ctx.load(a), 11);
        assert_eq!(ctx.load(b), 22);
    }

    #[test]
    fn from_words_views_the_callers_words() {
        let words: [AtomicU32; 4] = std::array::from_fn(|i| AtomicU32::new(i as u32));
        let mem = HostMem::from_words(&words);
        let ctx = mem.view(0, 1);
        assert_eq!(ctx.load(12), 3);
        ctx.store(4, 40);
        assert_eq!(words[1].load(Ordering::Relaxed), 40);
        assert!(std::ptr::eq(mem.words.as_ptr(), words.as_ptr()));
        assert_eq!(mem.words.len(), 4);
    }

    #[test]
    fn fetch_add_is_atomic_across_threads() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        let mem = HostMem::new(&arena);
        let threads = 4;
        let iters = 1000;
        std::thread::scope(|s| {
            for t in 0..threads {
                let mem = Arc::clone(&mem);
                s.spawn(move || {
                    let ctx = mem.ctx(t, threads);
                    for _ in 0..iters {
                        ctx.fetch_add(a, 1);
                    }
                });
            }
        });
        let ctx = mem.ctx(0, threads);
        assert_eq!(ctx.load(a), (threads * iters) as u32);
    }

    #[test]
    fn spin_until_sees_release_store() {
        let mut arena = Arena::new();
        let flag = arena.alloc_u32();
        let data = arena.alloc_u32();
        let mem = HostMem::new(&arena);
        std::thread::scope(|s| {
            {
                let mem = Arc::clone(&mem);
                s.spawn(move || {
                    let ctx = mem.ctx(0, 2);
                    ctx.store(data, 99);
                    ctx.store(flag, 1);
                });
            }
            let ctx = mem.ctx(1, 2);
            ctx.spin_until_eq(flag, 1);
            // Release/Acquire pairing makes the data store visible.
            assert_eq!(ctx.load(data), 99);
        });
    }

    #[test]
    fn spin_until_ge_handles_overshoot() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        let mem = HostMem::new(&arena);
        let ctx = mem.ctx(0, 1);
        ctx.store(a, 10);
        assert_eq!(ctx.spin_until_ge(a, 3), 10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ctx_validates_tid() {
        let arena = Arena::new();
        let mem = HostMem::new(&arena);
        let _ = mem.ctx(3, 2);
    }

    #[test]
    fn compute_ns_takes_time() {
        let arena = Arena::new();
        let mem = HostMem::new(&arena);
        let ctx = mem.ctx(0, 1);
        let t0 = std::time::Instant::now();
        ctx.compute_ns(2_000_000.0); // 2 ms
        assert!(t0.elapsed() >= std::time::Duration::from_millis(2));
    }

    #[test]
    fn env_overrides_parse_and_clamp() {
        let p = SpinPolicy::from_vars(Some("512"), Some("5000"));
        assert_eq!(p.spins_per_yield, 512);
        assert_eq!(p.max_backoff, Duration::from_millis(5));
        assert!(p.initial_backoff <= p.max_backoff);

        // Garbage and zero spin values fall back to the default.
        let d = SpinPolicy::default();
        assert_eq!(SpinPolicy::from_vars(Some("bogus"), None), d);
        assert_eq!(SpinPolicy::from_vars(Some("0"), None).spins_per_yield, d.spins_per_yield);

        // Cap of zero disables sleeping.
        assert_eq!(SpinPolicy::from_vars(None, Some("0")).yields_before_backoff, u32::MAX);

        // A cap below the initial sleep drags the initial sleep down.
        let tight = SpinPolicy::from_vars(None, Some("1"));
        assert_eq!(tight.initial_backoff, Duration::from_micros(1));
    }

    #[test]
    fn malformed_env_overrides_warn_instead_of_silently_defaulting() {
        // Valid values: no warnings.
        let (_, w) = SpinPolicy::from_vars_checked(Some("512"), Some("0"));
        assert!(w.is_empty(), "{w:?}");
        let (_, w) = SpinPolicy::from_vars_checked(None, None);
        assert!(w.is_empty(), "{w:?}");

        // Unparseable values are rejected loudly, naming the variable.
        let (p, w) = SpinPolicy::from_vars_checked(Some("fast"), Some("1e6"));
        assert_eq!(p, SpinPolicy::default());
        assert_eq!(w.len(), 2);
        assert!(w[0].contains("ARMBAR_SPIN_YIELD=\"fast\""), "{}", w[0]);
        assert!(w[1].contains("ARMBAR_BACKOFF_CAP_US=\"1e6\""), "{}", w[1]);

        // Zero spins-per-yield would mean "yield every iteration, never
        // spin" — out of the knob's domain, so it warns too.
        let (p, w) = SpinPolicy::from_vars_checked(Some("0"), None);
        assert_eq!(p.spins_per_yield, SpinPolicy::default().spins_per_yield);
        assert_eq!(w.len(), 1);

        // One bad value does not take the other down with it.
        let (p, w) = SpinPolicy::from_vars_checked(Some("-7"), Some("250"));
        assert_eq!(p.max_backoff, Duration::from_micros(250));
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn spin_wait_escalates_to_sleeping() {
        // One spin per yield and zero yields: every pause sleeps, so a
        // handful of pauses must take measurable wall time and the backoff
        // must stay capped.
        let p = SpinPolicy {
            spins_per_yield: 1,
            yields_before_backoff: 0,
            initial_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_micros(400),
        };
        let mut w = p.waiter();
        let t0 = std::time::Instant::now();
        for _ in 0..4 {
            w.pause();
        }
        // 100 + 200 + 400 + 400 us of sleeping, minus scheduler slop.
        assert!(t0.elapsed() >= Duration::from_micros(900), "{:?}", t0.elapsed());
        assert_eq!(w.spins(), 4);
        assert_eq!(w.backoff, p.max_backoff);
    }

    #[test]
    fn oversubscribed_spin_completes() {
        // More waiter threads than the host is likely to have cores, all
        // released by one late store: the staged policy must not starve the
        // releasing thread.
        let mut arena = Arena::new();
        let flag = arena.alloc_u32();
        let mem = HostMem::new(&arena);
        let waiters = 16;
        let policy = SpinPolicy {
            spins_per_yield: 8,
            yields_before_backoff: 4,
            initial_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_micros(200),
        };
        std::thread::scope(|s| {
            for t in 1..=waiters {
                let mem = Arc::clone(&mem);
                let policy = policy.clone();
                s.spawn(move || {
                    let ctx = mem.ctx_with_policy(t, waiters + 1, policy);
                    assert_eq!(ctx.spin_until_eq(flag, 7), 7);
                });
            }
            let ctx = mem.ctx(0, waiters + 1);
            ctx.compute_ns(1_000_000.0); // 1 ms head start for the waiters
            ctx.store(flag, 7);
        });
    }

    #[test]
    fn contexts_are_compact_and_views_share_the_words() {
        assert_eq!(std::mem::size_of::<HostCtx>(), 32);
        assert_eq!(std::mem::size_of::<HostCtx<&HostMem>>(), 32);
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        let mem = HostMem::new(&arena);
        mem.view(1, 2).store(a, 7);
        assert_eq!(mem.ctx(0, 2).load(a), 7);
        assert_eq!(mem.view(1, 2).policy(), &SpinPolicy::from_env());
    }
}
