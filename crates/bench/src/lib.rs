//! # armbar-bench — Criterion benchmark harnesses
//!
//! Four benchmark suites:
//!
//! * `algorithms` — simulated per-episode overhead of every algorithm at
//!   the paper's anchor points (Figures 5–7): the benchmark measures the
//!   wall-clock of a deterministic simulation whose *virtual* time is the
//!   paper's metric; each run also prints the virtual overhead so the
//!   criterion report doubles as a figure regeneration.
//! * `optimizations` — the Figure 11/12/13 configuration space (padding ×
//!   fan-in × wake-up).
//! * `host_backend` — real-thread barrier episodes on the host (small
//!   thread counts; this is the library-as-a-product benchmark).
//! * `simulator` — engine throughput (ops/second) so regressions in the
//!   DES core are caught independently of the modeled numbers.
//!
//! Alongside the Criterion suites, three binaries write the committed
//! BENCH files through the one [`report`] writer: `bench_sim`
//! (`BENCH_sim.json`, the blocking engine-throughput gate), `bench_churn`
//! (`BENCH_churn.json`) and `bench_serve` (`BENCH_serve.json`). All three
//! time their workload with [`best_pass`].
//!
//! Helpers shared by the suites live here.

pub mod report;

use std::sync::Arc;
use std::time::Instant;

use armbar_core::prelude::*;
use armbar_epcc::{sim_overhead_of, OverheadConfig};
use armbar_simcoh::Arena;
use armbar_topology::{Platform, Topology};

/// Builds a barrier + topology pair ready for simulation runs.
pub fn build(platform: Platform, p: usize, id: AlgorithmId) -> (Arc<Topology>, Arc<dyn Barrier>) {
    let topo = Arc::new(Topology::preset(platform));
    let mut arena = Arena::new();
    let barrier: Arc<dyn Barrier> = Arc::from(id.build(&mut arena, p, &topo));
    (topo, barrier)
}

/// One simulated overhead measurement with bench-friendly defaults
/// (fewer episodes than the experiment pipelines — criterion already
/// repeats).
pub fn sim_once(topo: &Arc<Topology>, p: usize, barrier: Arc<dyn Barrier>) -> f64 {
    sim_overhead_of(
        topo,
        p,
        barrier,
        OverheadConfig { warmup: 2, episodes: 10, delay_ns: 100.0, seed: 7 },
    )
    .expect("simulation failed")
}

/// The measurement loop every BENCH writer shares. `rep(r)` runs seeded
/// repetition `r` and returns its outcome. One untimed warm-up repetition
/// (`r = reps`, outside the timed seeds) spawns the simulator team and
/// thread pools; then `attempts` timed passes each run repetitions
/// `0..reps` back to back, and `rate(outcomes, wall_secs)` scores each
/// pass. Returns the best score and that pass's outcomes.
///
/// The hosts these run on are shared VMs whose wall clocks swing ±40%
/// with neighbour load, so the best of a few attempts estimates
/// capability far more stably than any single draw.
pub fn best_pass<T>(
    attempts: u32,
    reps: u64,
    mut rep: impl FnMut(u64) -> T,
    rate: impl Fn(&[T], f64) -> f64,
) -> (f64, Vec<T>) {
    assert!(attempts >= 1 && reps >= 1, "need at least one timed repetition");
    rep(reps);
    let mut best: Option<(f64, Vec<T>)> = None;
    for _ in 0..attempts {
        let t0 = Instant::now();
        let outcomes: Vec<T> = (0..reps).map(&mut rep).collect();
        let score = rate(&outcomes, t0.elapsed().as_secs_f64());
        if best.as_ref().is_none_or(|(b, _)| score > *b) {
            best = Some((score, outcomes));
        }
    }
    best.expect("at least one attempt")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_run_every_algorithm() {
        for id in [AlgorithmId::Sense, AlgorithmId::Optimized] {
            let (topo, b) = build(Platform::ThunderX2, 16, id);
            assert!(sim_once(&topo, 16, b) > 0.0);
        }
    }

    #[test]
    fn best_pass_warms_up_once_and_keeps_the_best_attempt() {
        let mut seen = Vec::new();
        let score = std::cell::Cell::new(0.0);
        let (best, outcomes) = best_pass(
            3,
            2,
            |r| {
                seen.push(r);
                r
            },
            |_, _| {
                score.set(score.get() + 1.0);
                score.get()
            },
        );
        assert_eq!(seen, [2, 0, 1, 0, 1, 0, 1]);
        assert_eq!((best, outcomes), (3.0, vec![0, 1]));
    }
}
