//! The fault-injecting [`MemCtx`] wrapper.

use std::cell::Cell;

use armbar_core::MemCtx;
use armbar_simcoh::rng::SplitMix64;
use armbar_simcoh::{Addr, WaitKind};

use crate::plan::FaultPlan;

/// Wraps one thread's `&dyn MemCtx` and perturbs it according to a
/// [`FaultPlan`]. Because the injection happens below the [`MemCtx`]
/// trait, the wrapped barrier runs unmodified and the same plan means the
/// same faults on the simulator and on host threads:
///
/// * **straggler** — the victim's first operation is preceded by the
///   planned `compute_ns` delay (virtual time on the simulator, busy-wait
///   wall time on the host);
/// * **lost wakeup** — the victim's n-th `store` is swallowed;
/// * **crash** — the victim panics once its operation count is reached
///   (surfacing as `SimError::ThreadPanic` under simulation, and as a
///   poisoned barrier on the host when used with `RobustBarrier`);
/// * **latency** — every operation of every thread is preceded by a
///   seeded random delay, its stream derived from `(plan seed, tid)` so
///   runs replay bit-identically regardless of scheduling.
///
/// Construct one per participating thread; the wrapper is single-threaded
/// by design (interior `Cell` state) exactly like the contexts it wraps.
pub struct FaultyCtx<'a> {
    inner: &'a dyn MemCtx,
    plan: &'a FaultPlan,
    ops: Cell<u64>,
    stores: Cell<u64>,
    rng_state: Cell<u64>,
    straggled: Cell<bool>,
}

impl<'a> FaultyCtx<'a> {
    /// Wraps `inner`, deriving this thread's jitter stream from the plan
    /// seed and `inner.tid()`.
    pub fn new(inner: &'a dyn MemCtx, plan: &'a FaultPlan) -> Self {
        // One next_u64 of warm-up decorrelates neighboring tids.
        let mut rng = SplitMix64::new(plan.seed() ^ (inner.tid() as u64).wrapping_mul(0x9E37));
        let state = rng.next_u64();
        Self {
            inner,
            plan,
            ops: Cell::new(0),
            stores: Cell::new(0),
            rng_state: Cell::new(state),
            straggled: Cell::new(false),
        }
    }

    /// Memory operations this wrapper has passed through (or dropped).
    pub fn ops(&self) -> u64 {
        self.ops.get()
    }

    fn next_f64(&self) -> f64 {
        let mut rng = SplitMix64::new(self.rng_state.get());
        let v = rng.next_f64();
        self.rng_state.set(rng.next_u64());
        v
    }

    /// Runs the per-operation fault machinery: one-shot straggler delay,
    /// crash countdown, latency perturbation.
    fn before_op(&self) {
        let tid = self.inner.tid();
        if !self.straggled.replace(true) {
            if let Some(delay) = self.plan.straggler_delay(tid) {
                self.inner.compute_ns(delay);
            }
        }
        let n = self.ops.get() + 1;
        self.ops.set(n);
        if self.plan.crash_after(tid) == Some(n) {
            panic!("injected crash: participant {tid} dies at op {n}");
        }
        if let Some(amp) = self.plan.latency_amp() {
            self.inner.compute_ns(self.next_f64() * amp);
        }
    }

    /// [`FaultyCtx::before_op`] for a store, plus the lost-store check:
    /// `false` means the store vanishes and nobody ever sees its value.
    /// `store` and `store_relaxed` share one counter, so a lost-store plan
    /// kills the N-th store regardless of its ordering annotation.
    fn before_store(&self) -> bool {
        self.before_op();
        let nth = self.stores.get() + 1;
        self.stores.set(nth);
        self.plan.lost_store(self.inner.tid()) != Some(nth)
    }
}

/// Every memory operation runs the fault machinery first; `tid`,
/// `nthreads`, `compute_ns` and `mark` forward untouched, so a compute-only
/// body never straggles or crashes.
impl armbar_core::MemLayer for FaultyCtx<'_> {
    fn inner(&self) -> &dyn MemCtx {
        self.inner
    }
    fn load(&self, addr: Addr) -> u32 {
        self.before_op();
        self.inner.load(addr)
    }
    fn store(&self, addr: Addr, value: u32) {
        if self.before_store() {
            self.inner.store(addr, value);
        }
    }
    fn load_relaxed(&self, addr: Addr) -> u32 {
        self.before_op();
        self.inner.load_relaxed(addr)
    }
    fn store_relaxed(&self, addr: Addr, value: u32) {
        if self.before_store() {
            self.inner.store_relaxed(addr, value);
        }
    }
    fn fence(&self) {
        self.before_op();
        self.inner.fence()
    }
    fn fetch_add(&self, addr: Addr, delta: u32) -> u32 {
        self.before_op();
        self.inner.fetch_add(addr, delta)
    }
    fn compare_exchange(&self, addr: Addr, current: u32, new: u32) -> u32 {
        self.before_op();
        self.inner.compare_exchange(addr, current, new)
    }
    fn swap(&self, addr: Addr, new: u32) -> u32 {
        self.before_op();
        self.inner.swap(addr, new)
    }
    fn spin_until(&self, addrs: &[Addr], kind: WaitKind) -> u32 {
        self.before_op();
        self.inner.spin_until(addrs, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Fault, Scenario};
    use armbar_simcoh::{Arena, SimBuilder, SimError};
    use armbar_topology::{Platform, Topology};
    use std::sync::Arc;

    fn topo() -> Arc<armbar_topology::Topology> {
        Arc::new(Topology::preset(Platform::Kunpeng920))
    }

    #[test]
    fn baseline_plan_is_transparent() {
        let plan = FaultPlan::new(1);
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        let faulty = SimBuilder::new(topo(), 2)
            .run(move |sim| {
                let ctx = FaultyCtx::new(sim, &plan);
                if ctx.tid() == 0 {
                    ctx.store(a, 1);
                } else {
                    ctx.spin_until_eq(a, 1);
                }
            })
            .unwrap();
        let clean = SimBuilder::new(topo(), 2)
            .run(move |sim| {
                let ctx: &dyn MemCtx = sim;
                if ctx.tid() == 0 {
                    ctx.store(a, 1);
                } else {
                    ctx.spin_until_eq(a, 1);
                }
            })
            .unwrap();
        assert_eq!(faulty.max_time_ns(), clean.max_time_ns());
    }

    #[test]
    fn straggler_delays_only_the_victim() {
        let plan = FaultPlan::new(1).with(Fault::Straggler { tid: 1, delay_ns: 5_000.0 });
        let stats = SimBuilder::new(topo(), 2)
            .run(move |sim| {
                let ctx = FaultyCtx::new(sim, &plan);
                ctx.compute_ns(1.0); // first op triggers the one-shot delay
            })
            .unwrap();
        // compute_ns passes through without before_op; use load to trigger.
        assert!(stats.max_time_ns() < 5_000.0, "compute-only body must not straggle");

        let plan = FaultPlan::new(1).with(Fault::Straggler { tid: 1, delay_ns: 5_000.0 });
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        let stats = SimBuilder::new(topo(), 2)
            .run(move |sim| {
                let ctx = FaultyCtx::new(sim, &plan);
                ctx.load(a);
            })
            .unwrap();
        assert!(stats.per_thread_time_ns()[1] >= 5_000.0);
        assert!(stats.per_thread_time_ns()[0] < 5_000.0);
    }

    #[test]
    fn lost_store_is_invisible_to_peers() {
        let plan = FaultPlan::new(1).with(Fault::LostWakeup { tid: 0, nth_store: 2 });
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        let b = arena.alloc_padded_u32(64);
        let err = SimBuilder::new(topo(), 2)
            .run(move |sim| {
                let ctx = FaultyCtx::new(sim, &plan);
                if ctx.tid() == 0 {
                    ctx.store(a, 1); // store #1 lands
                    ctx.store(b, 1); // store #2 dropped
                } else {
                    ctx.spin_until_eq(a, 1); // satisfied
                    ctx.spin_until_eq(b, 1); // never satisfied -> deadlock
                }
            })
            .unwrap_err();
        match err {
            SimError::Deadlock { waiters } => {
                assert_eq!(waiters.len(), 1);
                assert_eq!(waiters[0].addr, b);
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn crash_panics_at_the_planned_op() {
        let plan = FaultPlan::new(1).with(Fault::Crash { tid: 1, after_ops: 3 });
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        let err = SimBuilder::new(topo(), 2)
            .run(move |sim| {
                let ctx = FaultyCtx::new(sim, &plan);
                for _ in 0..10 {
                    ctx.load(a);
                }
            })
            .unwrap_err();
        match err {
            SimError::ThreadPanic { tid, message, .. } => {
                assert_eq!(tid, 1);
                assert!(message.contains("injected crash"), "{message}");
                assert!(message.contains("op 3"), "{message}");
            }
            other => panic!("expected panic, got {other}"),
        }
    }

    #[test]
    fn latency_perturbation_slows_but_replays_identically() {
        let run = |seed: u64| {
            let plan = FaultPlan::scenario(Scenario::Latency, seed, 2);
            let mut arena = Arena::new();
            let a = arena.alloc_u32();
            SimBuilder::new(topo(), 2)
                .run(move |sim| {
                    let ctx = FaultyCtx::new(sim, &plan);
                    for _ in 0..20 {
                        ctx.fetch_add(a, 1);
                    }
                })
                .unwrap()
                .max_time_ns()
        };
        let clean = {
            let mut arena = Arena::new();
            let a = arena.alloc_u32();
            SimBuilder::new(topo(), 2)
                .run(move |sim| {
                    for _ in 0..20 {
                        sim.fetch_add(a, 1);
                    }
                })
                .unwrap()
                .max_time_ns()
        };
        assert!(run(7) > clean, "perturbation must add latency");
        assert_eq!(run(7), run(7), "same seed, same perturbed schedule");
        assert_ne!(run(7), run(8), "different seeds must perturb differently");
    }
}
