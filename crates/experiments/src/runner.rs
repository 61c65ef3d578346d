//! Sweep runners shared by all experiments.
//!
//! Two functions measure, and both take a [`BarrierSpec`] (a registry
//! [`AlgorithmId`], an f-way [`FwayConfig`] or a closure) and the
//! [`SweepPool`] they fan out on: [`overhead_ns`] is one point (the mean
//! over `Scale::reps` seeded runs), [`curve`] one overhead-vs-threads
//! curve. The figures pass `SweepPool::ambient()` — `--jobs`/`ARMBAR_JOBS`
//! workers. Every sweep point is an independent simulation (a pure
//! function of `(topology, seed, program)`) and results collect in
//! submission order, so output is byte-identical to the serial path at
//! any worker count.
//!
//! Below the pool, each worker keeps an ambient `armbar_simcoh::SimTeam`:
//! the P simulated-thread workers of an episode are spawned once per
//! (worker, P) and reused across every rep and sweep point, which is a
//! large share of the post-overhaul `all_experiments --quick` speedup
//! (see DESIGN.md §11).

use std::sync::Arc;

use armbar_core::prelude::*;
use armbar_epcc::{sim_overhead_reps, OverheadConfig};
use armbar_simcoh::Arena;
use armbar_sweep::{Job, SweepPool};
use armbar_topology::{Platform, Topology};

/// Experiment scale: full (paper-faithful) for the binaries, reduced for
/// integration tests.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Independently seeded repetitions per point (paper: 20).
    pub reps: u64,
    /// Measured barrier episodes per run.
    pub episodes: u32,
    /// Thread counts swept by the "vs. threads" figures.
    pub sweep: Vec<usize>,
}

impl Scale {
    /// Paper-faithful scale (bounded to keep a full regeneration in
    /// minutes: 10 reps instead of the paper's 20; the simulator's noise
    /// comes only from seeded jitter, so fewer reps suffice).
    pub fn full() -> Self {
        Self {
            reps: 10,
            episodes: 40,
            sweep: vec![1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 17, 20, 24, 32, 33, 40, 48, 56, 64],
        }
    }

    /// Reduced scale for tests.
    pub fn quick() -> Self {
        Self { reps: 2, episodes: 10, sweep: vec![1, 4, 16, 64] }
    }

    /// The measurement configuration for rep `r`, on the workspace-wide
    /// seed schedule ([`armbar_epcc::SEED_STRIDE`]) — registry algorithms
    /// and custom barrier configurations see identical per-rep seeds.
    pub fn cfg(&self, rep: u64) -> OverheadConfig {
        OverheadConfig { warmup: 4, episodes: self.episodes, delay_ns: 100.0, seed: 0x5EED }
            .rep(rep)
    }
}

/// Shared topology handles (constructing one per call is cheap, but the
/// sweeps reuse them for clarity).
pub fn topo(platform: Platform) -> Arc<Topology> {
    Arc::new(Topology::preset(platform))
}

/// Mean overhead (ns) of the barrier `spec` builds at `p` threads over
/// `scale.reps` repetitions, fanned out over `pool` (inline when called
/// from one of its jobs).
pub fn overhead_ns(
    pool: &SweepPool,
    topo: &Arc<Topology>,
    p: usize,
    spec: &dyn BarrierSpec,
    scale: &Scale,
) -> f64 {
    sim_overhead_reps(pool, topo, p, spec, scale.cfg(0), scale.reps)
        .unwrap_or_else(|e| {
            let name = spec.build(&mut Arena::new(), p, topo).name().to_string();
            panic!("{name} at p={p} on {}: {e}", topo.name())
        })
        .mean
}

/// An overhead-vs-threads curve of `spec` over `scale.sweep` (points past
/// the machine's core count dropped): one parallel job per point on
/// `pool`, the repetitions of a point inline on its worker.
pub fn curve(
    pool: &SweepPool,
    topo: &Arc<Topology>,
    spec: &dyn BarrierSpec,
    scale: &Scale,
) -> Vec<(usize, f64)> {
    let points: Vec<usize> =
        scale.sweep.iter().copied().filter(|&p| p <= topo.num_cores()).collect();
    let jobs = points
        .iter()
        .map(|&p| Job::parallel(move || overhead_ns(pool, topo, p, spec, scale)))
        .collect();
    points.iter().copied().zip(pool.run(jobs)).collect()
}

/// Directory where the binaries drop CSVs (workspace `results/`).
pub fn results_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_runs_a_curve() {
        let t = topo(Platform::ThunderX2);
        let curve = curve(&SweepPool::ambient(), &t, &AlgorithmId::Tournament, &Scale::quick());
        assert_eq!(curve.len(), 4);
        assert!(curve.iter().all(|&(_, ns)| ns >= 0.0));
        // Larger thread counts cost more for any real barrier.
        assert!(curve.last().unwrap().1 > curve.first().unwrap().1);
    }

    #[test]
    fn sweep_respects_core_count() {
        let t = topo(Platform::XeonGold); // 32 cores
        let curve = curve(&SweepPool::ambient(), &t, &AlgorithmId::Sense, &Scale::quick());
        assert!(curve.iter().all(|&(p, _)| p <= 32));
    }

    #[test]
    fn fway_runner_accepts_custom_configs() {
        let t = topo(Platform::Kunpeng920);
        let config = FwayConfig { fanin: Fanin::Fixed(4), ..FwayConfig::stour() };
        let ns = overhead_ns(&SweepPool::ambient(), &t, 16, &config, &Scale::quick());
        assert!(ns > 0.0);
    }

    #[test]
    fn scale_cfg_seeds_differ_per_rep() {
        let s = Scale::quick();
        assert_ne!(s.cfg(0).seed, s.cfg(1).seed);
    }

    #[test]
    fn scale_cfg_follows_the_shared_seed_schedule() {
        let s = Scale::quick();
        assert_eq!(s.cfg(3).seed, s.cfg(0).rep(3).seed);
        assert_eq!(s.cfg(0).seed, 0x5EED);
    }
}
