//! Host-atomics backend: a real shared-memory arena for real threads.
//!
//! [`HostMem`] materializes an [`armbar_simcoh::Arena`] layout as one
//! contiguous slab of `AtomicU32`s, so the exact flag placement chosen by a
//! barrier's constructor (packed vs. cache-line padded) is preserved on the
//! host. Memory orderings follow the idioms of *Rust Atomics and Locks*:
//! flag publication is Release, flag observation is Acquire, counters are
//! AcqRel read-modify-writes.
//!
//! Spin loops follow a three-stage [`SpinWait`]: busy spinning with
//! [`std::hint::spin_loop`], then periodic `yield_now`, then capped
//! exponential-backoff sleeping — so barriers stay live *and* stop burning
//! whole cores when threads are heavily oversubscribed (e.g. 64 simulated
//! participants on a laptop core). The stage thresholds are constants.

use std::ops::Deref;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use armbar_simcoh::{Addr, Arena, WaitKind};

use crate::env::MemCtx;

/// Busy-spin iterations between `yield_now` calls: low enough that an
/// oversubscribed host makes progress, high enough that dedicated cores
/// rarely leave userspace.
pub const SPINS_PER_YIELD: u64 = 128;
/// Yields before a waiter escalates to sleeping.
pub const YIELDS_BEFORE_BACKOFF: u32 = 64;
/// First sleep once backoff begins.
pub const INITIAL_BACKOFF: Duration = Duration::from_micros(20);
/// Ceiling of the exponential backoff: bounds worst-case wakeup latency
/// once a waiter has gone to sleep.
pub const MAX_BACKOFF: Duration = Duration::from_millis(1);

/// Cursor through one host spin episode: call [`SpinWait::pause`] after
/// every failed poll and it escalates spin → yield → capped exponential
/// sleep — [`SPINS_PER_YIELD`] busy polls between yields,
/// [`YIELDS_BEFORE_BACKOFF`] yields, then sleeps doubling from
/// [`INITIAL_BACKOFF`] up to [`MAX_BACKOFF`].
pub struct SpinWait {
    spins: u64,
    yields: u32,
    backoff: Duration,
}

impl Default for SpinWait {
    fn default() -> Self {
        Self { spins: 0, yields: 0, backoff: INITIAL_BACKOFF }
    }
}

impl SpinWait {
    /// One wait step at the current escalation level.
    pub fn pause(&mut self) {
        self.spins += 1;
        if !self.spins.is_multiple_of(SPINS_PER_YIELD) {
            std::hint::spin_loop();
            return;
        }
        if self.yields < YIELDS_BEFORE_BACKOFF {
            self.yields += 1;
            std::thread::yield_now();
            return;
        }
        std::thread::sleep(self.backoff);
        self.backoff = (self.backoff * 2).min(MAX_BACKOFF);
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

    /// A per-thread operation context. `nthreads` is the number of
    /// barrier participants; `tid` must be unique per participant.
    ///
    /// # Panics
    /// Panics if `tid >= nthreads`.
    pub fn ctx(self: &Arc<Self>, tid: usize, nthreads: usize) -> HostCtx {
        HostCtx::new(Arc::clone(self), tid, nthreads)
    }

    /// A context borrowing this memory: no reference counting, for a
    /// caller that makes one per operation.
    ///
    /// # Panics
    /// Panics if `tid >= nthreads`.
    #[inline]
    pub fn view(&self, tid: usize, nthreads: usize) -> HostCtx<&HostMem> {
        HostCtx::new(self, tid, nthreads)
    }

    #[inline]
    fn word(&self, addr: Addr) -> &AtomicU32 {
        debug_assert_eq!(addr % 4, 0, "unaligned access at {addr:#x}");
        &self.words[(addr / 4) as usize]
    }
}

/// Per-thread handle over a [`HostMem`]: shared ownership of the memory
/// by default, a borrow for [`HostMem::view`]. 24 bytes either way; the
/// impl is generic, so its methods inline into every calling crate.
pub struct HostCtx<M: Deref<Target = HostMem> = Arc<HostMem>> {
    mem: M,
    tid: u32,
    nthreads: u32,
}

impl<M: Deref<Target = HostMem>> HostCtx<M> {
    fn new(mem: M, tid: usize, nthreads: usize) -> Self {
        assert!(tid < nthreads, "tid {tid} out of range for {nthreads} threads");
        let narrow = |n: usize| u32::try_from(n).expect("thread counts fit in 32 bits");
        Self { mem, tid: narrow(tid), nthreads: narrow(nthreads) }
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
        let mut wait = SpinWait::default();
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
    fn spin_wait_escalates_to_sleeping() {
        // Spins, then yields, then sleeps whose length doubles up to the
        // cap: the sleeping stage must take measurable wall time.
        let mut w = SpinWait::default();
        for _ in 0..SPINS_PER_YIELD * u64::from(YIELDS_BEFORE_BACKOFF) {
            w.pause();
        }
        assert_eq!(w.yields, YIELDS_BEFORE_BACKOFF);
        assert_eq!(w.backoff, INITIAL_BACKOFF, "no sleep before the yields run out");
        let t0 = std::time::Instant::now();
        for _ in 0..SPINS_PER_YIELD * 4 {
            w.pause();
        }
        // 20 + 40 + 80 + 160 us of sleeping, minus scheduler slop.
        assert!(t0.elapsed() >= INITIAL_BACKOFF * 15, "{:?}", t0.elapsed());
        assert_eq!(w.backoff, INITIAL_BACKOFF * 16);
        for _ in 0..SPINS_PER_YIELD * 2 {
            w.pause();
        }
        assert_eq!(w.backoff, MAX_BACKOFF, "backoff stays capped");
        assert_eq!(w.spins(), SPINS_PER_YIELD * (u64::from(YIELDS_BEFORE_BACKOFF) + 6));
    }

    #[test]
    fn oversubscribed_spin_completes() {
        // More waiter threads than the host is likely to have cores, all
        // released by one late store: the staged wait must not starve the
        // releasing thread.
        let mut arena = Arena::new();
        let flag = arena.alloc_u32();
        let mem = HostMem::new(&arena);
        let waiters = 16;
        std::thread::scope(|s| {
            for t in 1..=waiters {
                let mem = Arc::clone(&mem);
                s.spawn(move || {
                    let ctx = mem.ctx(t, waiters + 1);
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
        assert_eq!(std::mem::size_of::<HostCtx>(), 24);
        assert_eq!(std::mem::size_of::<HostCtx<&HostMem>>(), 24);
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        let mem = HostMem::new(&arena);
        mem.view(1, 2).store(a, 7);
        assert_eq!(mem.ctx(0, 2).load(a), 7);
    }
}
