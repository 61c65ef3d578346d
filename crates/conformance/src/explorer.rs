//! The exploring schedule policy: seeded perturbation of the engine's
//! interleaving decisions.
//!
//! Three perturbation mechanisms, all drawn from one `SplitMix64` stream so
//! a trial is a pure function of its seed:
//!
//! 1. **tie-break permutation** — when several ready operations share the
//!    minimum virtual time, pick uniformly among them instead of by thread
//!    id (free: does not consume the perturbation budget);
//! 2. **bounded priority preemption** — with probability `preempt_prob`,
//!    run a uniformly chosen ready op regardless of its timestamp;
//! 3. **targeted delay injection** — with probability `delay_prob`, push a
//!    synchronization-relevant op (a flag write, RMW, or spin entry) up to
//!    `max_delay_ns` into the future, widening race windows exactly where
//!    barriers are vulnerable.
//!
//! Mechanisms 2 and 3 consume from a per-trial `budget`; once spent, the
//! policy degrades to the default minimum-time order, which keeps
//! perturbed runs finite and makes the budget the natural shrinking axis:
//! a violation reproducible at budget 0 needed no perturbation at all.
//!
//! A fourth, **orthogonal** mechanism searches the engine's bounded
//! weak-memory mode (DESIGN.md §15): whenever a relaxed operation could
//! legally misbehave — a relaxed store commit deferred into the thread's
//! store buffer, or a relaxed load served from its stale cache — the
//! engine consults [`SchedulePolicy::weak`], and this policy says *weak*
//! with probability `reorder_prob` until the per-trial `reorder_budget`
//! is spent. The decisions draw from their own `SplitMix64` stream
//! (derived from the same trial seed), so enabling or disabling the
//! reordering search never perturbs the interleaving decisions: a
//! `reorder_budget` of 0 reproduces the sequentially consistent engine
//! byte-for-byte, which makes the reordering budget a second independent
//! shrinking axis — shrunk *first*, because a violation reproducible at
//! reorder budget 0 is a scheduling bug, not a memory-ordering bug.

use armbar_simcoh::rng::SplitMix64;
#[cfg(test)]
use armbar_simcoh::schedule::WeakOpKind;
use armbar_simcoh::schedule::{
    oldest_index, ReadyOp, ReadyOpKind, ScheduleDecision, SchedulePolicy, WeakDecision, WeakOp,
};

/// Tuning knobs for [`ExplorerPolicy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExplorerConfig {
    /// Probability of a bounded priority preemption per decision point.
    pub preempt_prob: f64,
    /// Probability of a targeted delay injection per decision point.
    pub delay_prob: f64,
    /// Upper bound on one injected delay, in virtual ns.
    pub max_delay_ns: f64,
    /// Perturbation budget per trial: preemptions + delays combined.
    pub budget: u32,
    /// Probability of taking a weak-memory choice (defer a relaxed store
    /// commit / serve a relaxed load stale) when the engine offers one.
    pub reorder_prob: f64,
    /// Weak-memory choices per trial. 0 (the default) disables the
    /// reordering search entirely: the engine stays sequentially
    /// consistent and runs are byte-identical to a build without the
    /// weak-memory mode.
    pub reorder_budget: u32,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        Self {
            preempt_prob: 0.25,
            delay_prob: 0.25,
            max_delay_ns: 500.0,
            budget: 64,
            reorder_prob: 0.5,
            reorder_budget: 0,
        }
    }
}

impl ExplorerConfig {
    /// This configuration with a different perturbation budget (the
    /// shrinking axis).
    pub fn with_budget(mut self, budget: u32) -> Self {
        self.budget = budget;
        self
    }

    /// This configuration with a different weak-memory reordering budget
    /// (the second shrinking axis; 0 disables the reordering search).
    pub fn with_reorder_budget(mut self, reorder_budget: u32) -> Self {
        self.reorder_budget = reorder_budget;
        self
    }
}

/// A seeded [`SchedulePolicy`] implementing the exploration mechanisms
/// above. One instance drives one trial.
#[derive(Debug, Clone)]
pub struct ExplorerPolicy {
    rng: SplitMix64,
    /// Weak-memory decision stream, separate from `rng` so the reordering
    /// search composes with — never perturbs — the interleaving search.
    wrng: SplitMix64,
    cfg: ExplorerConfig,
    remaining: u32,
    reorder_remaining: u32,
}

impl ExplorerPolicy {
    /// A policy for one trial: `seed` fixes the entire decision stream.
    pub fn new(seed: u64, cfg: ExplorerConfig) -> Self {
        // Decorrelate from the engine's jitter stream, which is seeded
        // with the same trial seed.
        Self {
            rng: SplitMix64::new(seed ^ 0xC0F0_8A11_5EED_0001),
            wrng: SplitMix64::new(seed ^ 0xC0F0_8A11_5EED_0002),
            cfg,
            remaining: cfg.budget,
            reorder_remaining: cfg.reorder_budget,
        }
    }

    fn pick_index(&mut self, n: usize) -> usize {
        (self.rng.next_u64() % n as u64) as usize
    }
}

/// Whether a ready op is a synchronization site a delay may target: flag
/// writes, RMWs, and spin entries are where lost-wakeup and early-exit
/// windows live.
fn is_sync_site(r: &ReadyOp) -> bool {
    r.addr.is_some() && matches!(r.kind, ReadyOpKind::Write | ReadyOpKind::Rmw | ReadyOpKind::Spin)
}

/// Index of the `k`-th ready op matching `pred`.
fn nth_index(ready: &[ReadyOp], pred: impl Fn(&ReadyOp) -> bool, k: usize) -> usize {
    ready.iter().enumerate().filter(|(_, r)| pred(r)).nth(k).map(|(i, _)| i).expect("k < count")
}

impl SchedulePolicy for ExplorerPolicy {
    fn pick(&mut self, ready: &[ReadyOp]) -> ScheduleDecision {
        if self.remaining > 0 && ready.len() > 1 {
            let roll = self.rng.next_f64();
            if roll < self.cfg.delay_prob {
                let sites = ready.iter().filter(|r| is_sync_site(r)).count();
                if sites > 0 {
                    self.remaining -= 1;
                    let k = self.pick_index(sites);
                    let index = nth_index(ready, is_sync_site, k);
                    let ns = self.rng.next_f64() * self.cfg.max_delay_ns;
                    return ScheduleDecision::Delay { index, ns };
                }
            } else if roll < self.cfg.delay_prob + self.cfg.preempt_prob {
                self.remaining -= 1;
                return ScheduleDecision::Run(self.pick_index(ready.len()));
            }
            // Free tie-break permutation: uniform among the ops sharing
            // the minimum virtual time. The engine offers `ready` sorted by
            // `(time, tid)`, so the oldest op is the first and its ties are
            // a prefix.
            let t0 = ready[0].time_ns;
            let ties = ready.iter().take_while(|r| r.time_ns == t0).count();
            return ScheduleDecision::Run(if ties > 1 { self.pick_index(ties) } else { 0 });
        }
        // Budget spent (or nothing to permute): default order, which the
        // scan finds on any slice, as `MinTimePolicy` does.
        ScheduleDecision::Run(oldest_index(ready))
    }

    fn weak(&mut self, _op: &WeakOp) -> WeakDecision {
        if self.reorder_remaining == 0 {
            // Early return WITHOUT consuming the stream: a reorder budget
            // of 0 must be byte-identical to a policy with no weak()
            // override at all, and an exhausted budget must degrade to
            // sequential consistency the same way the perturbation
            // budget degrades to minimum-time order.
            return WeakDecision::Strong;
        }
        if self.wrng.next_f64() < self.cfg.reorder_prob {
            self.reorder_remaining -= 1;
            WeakDecision::Weak
        } else {
            WeakDecision::Strong
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(tid: usize, t: f64, kind: ReadyOpKind) -> ReadyOp {
        ReadyOp { tid, time_ns: t, kind, addr: Some(64 * tid as u32) }
    }

    #[test]
    fn zero_budget_reproduces_default_order() {
        let mut p = ExplorerPolicy::new(7, ExplorerConfig::default().with_budget(0));
        let ready = [
            op(2, 5.0, ReadyOpKind::Write),
            op(0, 5.0, ReadyOpKind::Rmw),
            op(1, 1.0, ReadyOpKind::Read),
        ];
        for _ in 0..32 {
            assert_eq!(p.pick(&ready), ScheduleDecision::Run(2), "index of min (time, tid)");
        }
    }

    #[test]
    fn same_seed_same_decisions() {
        let ready = [
            op(0, 1.0, ReadyOpKind::Write),
            op(1, 1.0, ReadyOpKind::Spin),
            op(2, 1.0, ReadyOpKind::Rmw),
            op(3, 2.0, ReadyOpKind::Read),
        ];
        let cfg = ExplorerConfig::default();
        let mut a = ExplorerPolicy::new(99, cfg);
        let mut b = ExplorerPolicy::new(99, cfg);
        for _ in 0..256 {
            assert_eq!(a.pick(&ready), b.pick(&ready));
        }
    }

    #[test]
    fn budget_bounds_the_perturbations() {
        let ready = [
            op(0, 1.0, ReadyOpKind::Write),
            op(1, 1.0, ReadyOpKind::Write),
            op(2, 3.0, ReadyOpKind::Write),
        ];
        let mut p = ExplorerPolicy::new(3, ExplorerConfig { budget: 5, ..Default::default() });
        let mut perturbed = 0u32;
        for _ in 0..1000 {
            // A preemption picking a non-minimal op is only provably a
            // perturbation when it selects index 2 (time 3.0); the
            // budget accounting below is checked directly instead.
            if let ScheduleDecision::Delay { .. } = p.pick(&ready) {
                perturbed += 1;
            }
        }
        assert!(perturbed <= 5, "delays alone exceeded the budget: {perturbed}");
        assert_eq!(p.remaining, 0, "a long run must spend the whole budget");
    }

    #[test]
    fn delays_target_sync_sites_only() {
        // Only Free ops (no addr): delay must never fire, preemption may.
        let ready = [
            ReadyOp { tid: 0, time_ns: 1.0, kind: ReadyOpKind::Free, addr: None },
            ReadyOp { tid: 1, time_ns: 1.0, kind: ReadyOpKind::Free, addr: None },
        ];
        let mut p = ExplorerPolicy::new(
            11,
            ExplorerConfig { delay_prob: 1.0, preempt_prob: 0.0, ..Default::default() },
        );
        for _ in 0..100 {
            assert!(!matches!(p.pick(&ready), ScheduleDecision::Delay { .. }));
        }
    }

    fn wop(tid: usize) -> WeakOp {
        WeakOp { tid, addr: 64 * tid as u32, kind: WeakOpKind::RelaxedStore }
    }

    #[test]
    fn zero_reorder_budget_is_always_strong() {
        let mut p =
            ExplorerPolicy::new(7, ExplorerConfig { reorder_prob: 1.0, ..Default::default() });
        assert_eq!(p.cfg.reorder_budget, 0, "reordering is off by default");
        for i in 0..256 {
            assert_eq!(p.weak(&wop(i % 8)), WeakDecision::Strong);
        }
    }

    #[test]
    fn reorder_budget_bounds_weak_decisions() {
        let mut p = ExplorerPolicy::new(
            21,
            ExplorerConfig { reorder_prob: 1.0, ..Default::default() }.with_reorder_budget(5),
        );
        let weaks = (0..1000).filter(|i| p.weak(&wop(i % 8)) == WeakDecision::Weak).count();
        assert_eq!(weaks, 5, "prob 1.0 must spend exactly the reorder budget");
        assert_eq!(p.reorder_remaining, 0);
    }

    #[test]
    fn weak_stream_is_independent_of_pick_stream() {
        // Interleaving weak() calls must not change the pick() decisions:
        // the two streams are decorrelated by construction.
        let ready = [
            op(0, 1.0, ReadyOpKind::Write),
            op(1, 1.0, ReadyOpKind::Spin),
            op(2, 1.0, ReadyOpKind::Rmw),
        ];
        let cfg = ExplorerConfig::default().with_reorder_budget(64);
        let mut plain = ExplorerPolicy::new(99, cfg);
        let mut mixed = ExplorerPolicy::new(99, cfg);
        for i in 0..256 {
            mixed.weak(&wop(i % 8));
            assert_eq!(plain.pick(&ready), mixed.pick(&ready));
        }
    }

    #[test]
    fn same_seed_same_weak_decisions() {
        let cfg = ExplorerConfig::default().with_reorder_budget(16);
        let mut a = ExplorerPolicy::new(4242, cfg);
        let mut b = ExplorerPolicy::new(4242, cfg);
        for i in 0..256 {
            assert_eq!(a.weak(&wop(i % 8)), b.weak(&wop(i % 8)));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let ready = [
            op(0, 1.0, ReadyOpKind::Write),
            op(1, 1.0, ReadyOpKind::Write),
            op(2, 1.0, ReadyOpKind::Write),
            op(3, 1.0, ReadyOpKind::Write),
        ];
        let cfg = ExplorerConfig::default();
        let seq = |seed: u64| {
            let mut p = ExplorerPolicy::new(seed, cfg);
            (0..64).map(|_| format!("{:?}", p.pick(&ready))).collect::<Vec<_>>()
        };
        assert_ne!(seq(1), seq(2));
    }
}
