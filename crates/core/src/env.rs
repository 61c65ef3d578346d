//! The backend abstraction: one algorithm body, two execution worlds.
//!
//! Every barrier algorithm in this crate is written once against the
//! [`MemCtx`] trait and can then run either
//!
//! * on **host atomics** ([`crate::host::HostMem`]) — a real, usable barrier
//!   for real threads, with Acquire/Release orderings and polite spin
//!   loops; or
//! * on the **simulated machine** (`armbar_simcoh::SimThread`) — where every
//!   operation is charged its modeled coherence cost on a chosen ARMv8
//!   topology.
//!
//! Memory is a flat arena of 32-bit words addressed by byte offsets
//! ([`armbar_simcoh::Arena`] hands out the addresses for both worlds), so
//! decisions like "pack four arrival flags into one cache line" vs. "give
//! each flag its own line" are made *once*, in the allocation code, and have
//! the same layout in both backends.
//!
//! A *wrapper* context — one that perturbs, bounds or re-annotates some
//! operations of another context and passes the rest through — implements
//! [`MemLayer`] instead of [`MemCtx`]: it names the wrapped context in
//! [`MemLayer::inner`] and overrides only the methods it changes, and the
//! blanket `impl<T: MemLayer> MemCtx for T` makes it a context. Every
//! method it does not override reaches the inner context as issued —
//! relaxed accesses, `fence` and `mark` included. Use it whenever a context
//! wraps exactly one other context; a backend that owns its memory (host
//! atomics, the simulator) implements [`MemCtx`] directly. Call a layer
//! through `&dyn MemCtx`: where both traits are in scope, a method call on
//! the concrete layer type is ambiguous.

use armbar_simcoh::{Addr, SimThread, WaitKind};

/// Per-thread memory-operation context. Object-safe so algorithms can be
/// boxed behind the [`Barrier`] trait.
pub trait MemCtx {
    /// This thread's id, in `0..nthreads()`. Thread `i` is assumed pinned
    /// to core `i` of the machine (the paper's setup).
    fn tid(&self) -> usize;
    /// Number of threads participating in the barrier episodes.
    fn nthreads(&self) -> usize;
    /// Loads the word at `addr` (Acquire).
    fn load(&self, addr: Addr) -> u32;
    /// Stores to the word at `addr` (Release).
    fn store(&self, addr: Addr, value: u32);
    /// Relaxed load: no ordering with surrounding accesses. Under the weak
    /// simulator a schedule policy may serve it a stale previously-observed
    /// value.
    fn load_relaxed(&self, addr: Addr) -> u32;
    /// Relaxed store: no ordering with surrounding accesses. Under the weak
    /// simulator its commit may be deferred past later operations.
    fn store_relaxed(&self, addr: Addr, value: u32);
    /// Full memory barrier (`dmb ish`): orders every preceding access before
    /// every following one.
    fn fence(&self);
    /// Atomic wrapping fetch-add (AcqRel); returns the previous value.
    fn fetch_add(&self, addr: Addr, delta: u32) -> u32;
    /// Atomic compare-exchange (AcqRel): stores `new` iff the word equals
    /// `current`. Returns the previous value either way — the exchange
    /// succeeded iff it equals `current`. This is the arbitration
    /// primitive for races that plain load/store cannot decide, e.g. a
    /// phaser member's own arrival versus a survivor's proxy arrival.
    fn compare_exchange(&self, addr: Addr, current: u32, new: u32) -> u32;
    /// Atomic exchange (AcqRel, ARMv8.1 `SWP`): unconditionally stores
    /// `new` and returns the previous value. The natural test-and-set
    /// primitive for spinlocks: unlike CAS it cannot fail, and on LSE
    /// parts it is priced like a fetch-add, below a compare-exchange.
    fn swap(&self, addr: Addr, new: u32) -> u32;
    /// Spins until the words at `addrs` satisfy `kind` (every backend
    /// decides with [`WaitKind::holds`]); returns the satisfying value of an
    /// `Eq`/`Ge` wait, which watches exactly one word, or the epoch of an
    /// `AllGe` wait. The only spin a backend implements.
    fn spin_until(&self, addrs: &[Addr], kind: WaitKind) -> u32;
    /// Spins until the word at `addr` equals `value`; returns it.
    fn spin_until_eq(&self, addr: Addr, value: u32) -> u32 {
        self.spin_until(&[addr], WaitKind::Eq(value))
    }
    /// Spins until the word at `addr` is ≥ `value` (monotonic epochs);
    /// returns the satisfying value.
    fn spin_until_ge(&self, addr: Addr, value: u32) -> u32 {
        self.spin_until(&[addr], WaitKind::Ge(value))
    }
    /// Spins until *every* word in `addrs` is ≥ `value`. Backends poll all
    /// flags in one loop, so independent line fetches overlap
    /// (memory-level parallelism) instead of waiting for each flag in turn
    /// — the intended way for a tournament winner to observe its group.
    fn spin_until_all_ge(&self, addrs: &[Addr], value: u32) {
        self.spin_until(addrs, WaitKind::AllGe(value));
    }
    /// Burns `ns` nanoseconds of local compute (used by the EPCC harness to
    /// model out-of-barrier work).
    fn compute_ns(&self, ns: f64);
    /// Records an instrumentation timestamp (free: costs no virtual time).
    /// No-op on backends without a collector (the host); the simulator
    /// stores `(tid, label, virtual time)` tuples in its run statistics.
    /// Algorithms use the `MARK_*` labels to expose their phase structure.
    fn mark(&self, _label: u32) {}
}

/// Mark label: a thread entered the barrier (start of the Arrival-Phase).
pub const MARK_ENTER: u32 = 0xB000;
/// Mark label: the champion observed the last arrival (end of the
/// Arrival-Phase / start of the Notification-Phase).
pub const MARK_ARRIVED: u32 = 0xB001;
/// Mark label: a thread left the barrier (end of the Notification-Phase).
pub const MARK_EXIT: u32 = 0xB002;

/// A reusable P-thread barrier.
///
/// `wait` must be called by all `nthreads` participants with their own
/// contexts; the call returns only after every participant of the episode
/// has arrived. Implementations are immutable after construction — all
/// mutable state lives in the shared arena — so one instance is shared by
/// all threads and reused across any number of episodes.
pub trait Barrier: Send + Sync {
    /// Blocks until all participants reach the barrier.
    fn wait(&self, ctx: &dyn MemCtx);
    /// Short algorithm label (e.g. `"SENSE"`, `"STOUR"`).
    fn name(&self) -> &str;

    /// [`Barrier::wait`] bracketed by the phase hooks: [`MARK_ENTER`] as the
    /// episode starts and [`MARK_EXIT`] as this thread leaves. Together with
    /// the champion's [`MARK_ARRIVED`] (emitted inside the algorithms /
    /// [`crate::wakeup::Wakeup::release`]), every barrier reports an
    /// arrival/notification split without per-algorithm instrumentation.
    /// Free on the simulator (marks cost no virtual time) and a no-op on
    /// the host backend, so production episodes pay nothing.
    fn wait_traced(&self, ctx: &dyn MemCtx) {
        ctx.mark(MARK_ENTER);
        self.wait(ctx);
        ctx.mark(MARK_EXIT);
    }

    /// One audited episode: records entry in the shared
    /// [`crate::oracle::EpisodeOracle`] witness table, runs the traced wait
    /// (so the PR 1 phase marks double as the quiescence record), and
    /// audits every peer's episode on exit. Episodes are 1-based and must
    /// be issued in order. Panics with an `oracle`-prefixed message on a
    /// safety violation — the conformance checker converts that into a
    /// classified, replayable finding.
    fn wait_conformed(
        &self,
        ctx: &dyn MemCtx,
        oracle: &crate::oracle::EpisodeOracle,
        episode: u32,
    ) {
        oracle.enter(ctx, episode);
        self.wait_traced(ctx);
        oracle.verify_exit(ctx, episode, self.name());
    }
}

/// A [`MemCtx`] wrapper written as the methods it changes: every method
/// defaults to forwarding to [`MemLayer::inner`], and the blanket impl below
/// turns any layer into a [`MemCtx`]. The convenience spins
/// (`spin_until_eq`/`_ge`/`_all_ge`) are not part of the layer: they stay
/// [`MemCtx`] defaults over the layer's own [`MemLayer::spin_until`], so a
/// layer that overrides `spin_until` sees every spin.
pub trait MemLayer {
    /// The wrapped context.
    fn inner(&self) -> &dyn MemCtx;
    fn tid(&self) -> usize {
        self.inner().tid()
    }
    fn nthreads(&self) -> usize {
        self.inner().nthreads()
    }
    fn load(&self, addr: Addr) -> u32 {
        self.inner().load(addr)
    }
    fn store(&self, addr: Addr, value: u32) {
        self.inner().store(addr, value)
    }
    fn load_relaxed(&self, addr: Addr) -> u32 {
        self.inner().load_relaxed(addr)
    }
    fn store_relaxed(&self, addr: Addr, value: u32) {
        self.inner().store_relaxed(addr, value)
    }
    fn fence(&self) {
        self.inner().fence()
    }
    fn fetch_add(&self, addr: Addr, delta: u32) -> u32 {
        self.inner().fetch_add(addr, delta)
    }
    fn compare_exchange(&self, addr: Addr, current: u32, new: u32) -> u32 {
        self.inner().compare_exchange(addr, current, new)
    }
    fn swap(&self, addr: Addr, new: u32) -> u32 {
        self.inner().swap(addr, new)
    }
    fn spin_until(&self, addrs: &[Addr], kind: WaitKind) -> u32 {
        self.inner().spin_until(addrs, kind)
    }
    fn compute_ns(&self, ns: f64) {
        self.inner().compute_ns(ns)
    }
    fn mark(&self, label: u32) {
        self.inner().mark(label)
    }
}

impl<T: MemLayer> MemCtx for T {
    fn tid(&self) -> usize {
        MemLayer::tid(self)
    }
    fn nthreads(&self) -> usize {
        MemLayer::nthreads(self)
    }
    fn load(&self, addr: Addr) -> u32 {
        MemLayer::load(self, addr)
    }
    fn store(&self, addr: Addr, value: u32) {
        MemLayer::store(self, addr, value)
    }
    fn load_relaxed(&self, addr: Addr) -> u32 {
        MemLayer::load_relaxed(self, addr)
    }
    fn store_relaxed(&self, addr: Addr, value: u32) {
        MemLayer::store_relaxed(self, addr, value)
    }
    fn fence(&self) {
        MemLayer::fence(self)
    }
    fn fetch_add(&self, addr: Addr, delta: u32) -> u32 {
        MemLayer::fetch_add(self, addr, delta)
    }
    fn compare_exchange(&self, addr: Addr, current: u32, new: u32) -> u32 {
        MemLayer::compare_exchange(self, addr, current, new)
    }
    fn swap(&self, addr: Addr, new: u32) -> u32 {
        MemLayer::swap(self, addr, new)
    }
    fn spin_until(&self, addrs: &[Addr], kind: WaitKind) -> u32 {
        MemLayer::spin_until(self, addrs, kind)
    }
    fn compute_ns(&self, ns: f64) {
        MemLayer::compute_ns(self, ns)
    }
    fn mark(&self, label: u32) {
        MemLayer::mark(self, label)
    }
}

/// `MemCtx` for simulated threads: operations forward to the discrete-event
/// engine, which charges modeled coherence latencies.
impl MemCtx for SimThread {
    fn tid(&self) -> usize {
        SimThread::tid(self)
    }
    fn nthreads(&self) -> usize {
        SimThread::nthreads(self)
    }
    fn load(&self, addr: Addr) -> u32 {
        SimThread::load(self, addr)
    }
    fn store(&self, addr: Addr, value: u32) {
        SimThread::store(self, addr, value)
    }
    fn load_relaxed(&self, addr: Addr) -> u32 {
        SimThread::load_relaxed(self, addr)
    }
    fn store_relaxed(&self, addr: Addr, value: u32) {
        SimThread::store_relaxed(self, addr, value)
    }
    fn fence(&self) {
        SimThread::fence(self)
    }
    fn fetch_add(&self, addr: Addr, delta: u32) -> u32 {
        SimThread::fetch_add(self, addr, delta)
    }
    fn compare_exchange(&self, addr: Addr, current: u32, new: u32) -> u32 {
        SimThread::compare_exchange(self, addr, current, new)
    }
    fn swap(&self, addr: Addr, new: u32) -> u32 {
        SimThread::swap(self, addr, new)
    }
    fn spin_until(&self, addrs: &[Addr], kind: WaitKind) -> u32 {
        SimThread::spin_until(self, addrs, kind)
    }
    fn compute_ns(&self, ns: f64) {
        SimThread::compute_ns(self, ns)
    }
    fn mark(&self, label: u32) {
        SimThread::mark(self, label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armbar_simcoh::{Arena, SimBuilder};
    use armbar_topology::{Platform, Topology};
    use std::sync::Arc;

    #[test]
    fn sim_thread_implements_memctx() {
        let topo = Arc::new(Topology::preset(Platform::Kunpeng920));
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        let stats = SimBuilder::new(topo, 2)
            .run(move |sim| {
                let ctx: &dyn MemCtx = sim;
                assert_eq!(ctx.nthreads(), 2);
                if ctx.tid() == 0 {
                    ctx.compute_ns(10.0);
                    ctx.fetch_add(a, 5);
                } else {
                    let v = ctx.spin_until_ge(a, 5);
                    assert_eq!(v, 5);
                    assert_eq!(ctx.load(a), 5);
                }
            })
            .unwrap();
        assert!(stats.max_time_ns() >= 10.0);
    }

    /// A layer that overrides nothing.
    struct Through<'a>(&'a dyn MemCtx);

    impl MemLayer for Through<'_> {
        fn inner(&self) -> &dyn MemCtx {
            self.0
        }
    }

    #[test]
    fn forwarding_layer_is_invisible_to_the_simulator() {
        // Conformed episodes exercise the RMWs, the spins, the oracle's
        // relaxed accesses and the phase marks; the fence issues one more
        // engine op per episode. Every one must reach the engine as issued
        // for the run to replay byte for byte.
        let run = |layered: bool| {
            let topo = Arc::new(Topology::preset(Platform::Kunpeng920));
            let p = 16;
            let mut arena = Arena::new();
            let barrier: Arc<dyn Barrier> =
                Arc::from(crate::AlgorithmId::Optimized.build(&mut arena, p, &topo));
            let oracle = crate::EpisodeOracle::new(&mut arena, p, topo.cacheline_bytes());
            SimBuilder::new(topo, p)
                .reserve_for(&arena)
                .run(move |sim| {
                    let through = Through(sim);
                    let ctx: &dyn MemCtx = if layered { &through } else { sim };
                    for episode in 1..=3 {
                        barrier.wait_conformed(ctx, &oracle, episode);
                        ctx.fence();
                    }
                })
                .unwrap()
        };
        let (bare, layered) = (run(false), run(true));
        assert_eq!(bare.marks(), layered.marks());
        assert_eq!(bare.coherence().per_thread(), layered.coherence().per_thread());
        assert_eq!(bare.per_thread_time_ns(), layered.per_thread_time_ns());
        assert_eq!(bare.schedule_hash(), layered.schedule_hash());
        assert!(!bare.marks().is_empty());
    }
}
