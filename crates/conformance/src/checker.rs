//! The fixed-barrier trial, the shared result types, and the conformance
//! matrix.
//!
//! One *trial* = one seeded, perturbed simulation of `episodes` audited
//! barrier episodes (`Barrier::wait_conformed`) on one (platform,
//! algorithm) pair. Trials are pure functions of their seed, so every
//! violation is replayable; the shared search path (`search.rs`) runs
//! the seed loop and shrinks the reproducer.

use std::sync::Arc;

use armbar_core::env::{MARK_ENTER, MARK_EXIT};
use armbar_core::{AlgorithmId, Barrier, EpisodeOracle};
use armbar_faults::Scenario;
use armbar_simcoh::stats::Mark;
use armbar_simcoh::{Arena, SimBuilder};
use armbar_sweep::{Job, SweepPool};
use armbar_topology::{Platform, Topology};

use crate::explorer::{ExplorerConfig, ExplorerPolicy};
use crate::search::{classify, search, SearchOutcome, TrialResult};

/// What to check: the cross product of platforms × algorithms, each cell
/// searched over `seeds` perturbed schedules.
#[derive(Debug, Clone)]
pub struct ConformConfig {
    /// Modeled machines to check on.
    pub platforms: Vec<Platform>,
    /// Barrier algorithms under audit.
    pub algorithms: Vec<AlgorithmId>,
    /// Participating threads per trial (clamped to the platform's cores).
    pub threads: usize,
    /// Audited barrier episodes per trial.
    pub episodes: u32,
    /// Seeded schedules searched per (platform, algorithm) cell.
    pub seeds: u32,
    /// Master seed; trial seeds derive from it.
    pub base_seed: u64,
    /// Exploration tuning (perturbation probabilities and budget).
    pub explorer: ExplorerConfig,
    /// Engine op budget per trial (perturbation delays count against it).
    pub op_budget: u64,
}

impl Default for ConformConfig {
    fn default() -> Self {
        Self {
            platforms: vec![Platform::Kunpeng920],
            // Every fixed-membership algorithm: the paper's 14 plus the
            // shyper contender barriers — lock-guarded counters are where
            // schedule exploration finds reuse bugs (a stranded straggler
            // spinning on a reset count), so they ride in the default
            // sweep and in `conform --quick`.
            algorithms: AlgorithmId::ALL.into_iter().chain(AlgorithmId::CONTENDERS).collect(),
            threads: 8,
            episodes: 2,
            seeds: 200,
            base_seed: 0xC0F0,
            explorer: ExplorerConfig::default(),
            op_budget: 4_000_000,
        }
    }
}

/// The safety property a failing trial violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A thread left episode `k` before every peer had entered it.
    EarlyExit,
    /// Episode numbering skewed by more than one across threads.
    EpochSkew,
    /// The episode hung: some thread never observed a release.
    LostWakeup,
    /// The engine's op budget tripped — a live-lock under this schedule.
    Livelock,
    /// The per-thread `ENTER`/`EXIT` phase marks did not balance and
    /// alternate — residual work leaked across episodes.
    Quiescence,
    /// The barrier body panicked for a non-oracle reason.
    Panic,
    /// A phaser member's completion ledger broke: a gap, a repeat, a
    /// missing tail, or an eviction of a slot that never deserted.
    LostMember,
    /// Phaser activity outside the committed membership: an arrival,
    /// leave, or eviction recorded for a slot that was not a member.
    PhantomArrival,
}

impl ViolationKind {
    /// Stable table label.
    pub fn label(self) -> &'static str {
        match self {
            ViolationKind::EarlyExit => "early-exit",
            ViolationKind::EpochSkew => "epoch-skew",
            ViolationKind::LostWakeup => "lost-wakeup",
            ViolationKind::Livelock => "livelock",
            ViolationKind::Quiescence => "quiescence",
            ViolationKind::Panic => "panic",
            ViolationKind::LostMember => "lost-member",
            ViolationKind::PhantomArrival => "phantom-arrival",
        }
    }
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A confirmed oracle violation with its minimal deterministic reproducer:
/// re-running the same (platform, algorithm, threads) trial with
/// `--schedule-seed seed`, the recorded budget, and `episodes` replays it
/// bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Violated property.
    pub kind: ViolationKind,
    /// Human-readable diagnostic from the oracle or engine.
    pub detail: String,
    /// Trial seed reproducing the violation.
    pub seed: u64,
    /// Minimal perturbation budget that still reproduces it (0 = the
    /// violation needs no perturbation at all).
    pub budget: u32,
    /// Minimal weak-memory reordering budget that still reproduces it
    /// (0 = the violation is a scheduling bug, reproducible under
    /// sequential consistency; > 0 = a genuine memory-ordering bug).
    pub reorder_budget: u32,
    /// Minimal episode count that still reproduces it.
    pub episodes: u32,
}

/// One (platform, algorithm) cell of the conformance matrix, or one
/// (platform, phaser, scenario) cell of the phaser matrix.
#[derive(Debug, Clone)]
pub struct ConformCell {
    /// Modeled machine.
    pub platform: Platform,
    /// Algorithm under audit.
    pub algorithm: AlgorithmId,
    /// Churn script family searched (phaser cells only).
    pub scenario: Option<Scenario>,
    /// Threads per trial (after clamping to the platform).
    pub threads: usize,
    /// Trials actually run (the search stops at the first violation).
    pub trials: u32,
    /// Distinct schedule fingerprints observed across those trials.
    pub distinct_schedules: usize,
    /// Violations found (at most one per cell; shrunk before reporting).
    pub violations: Vec<Violation>,
}

impl ConformCell {
    /// The cell a search of (platform, algorithm, scenario) at `threads`
    /// produced.
    pub(crate) fn new(
        platform: Platform,
        algorithm: AlgorithmId,
        scenario: Option<Scenario>,
        threads: usize,
        outcome: SearchOutcome,
    ) -> Self {
        Self {
            platform,
            algorithm,
            scenario,
            threads,
            trials: outcome.trials,
            distinct_schedules: outcome.distinct_schedules,
            violations: outcome.violation.into_iter().collect(),
        }
    }

    /// Table status column.
    pub fn status(&self) -> &'static str {
        if self.violations.is_empty() {
            "ok"
        } else {
            "VIOLATED"
        }
    }

    /// Table detail column: the reproducer, or the schedule coverage.
    pub fn detail(&self) -> String {
        match self.violations.first() {
            None => format!("{} distinct schedules", self.distinct_schedules),
            Some(v) => format!(
                "{}: {} [replay: seed {:#x} budget {} rbudget {} episodes {}]",
                v.kind, v.detail, v.seed, v.budget, v.reorder_budget, v.episodes
            ),
        }
    }
}

/// Runs one audited, perturbed trial of the barrier `build` makes — the
/// testing seam for deliberately broken (or fence-demoted) barriers.
pub(crate) fn run_trial(
    topo: &Arc<Topology>,
    build: &dyn Fn(&mut Arena, usize, &Topology) -> Box<dyn Barrier>,
    threads: usize,
    episodes: u32,
    seed: u64,
    explorer: ExplorerConfig,
    op_budget: u64,
) -> TrialResult {
    let p = threads.min(topo.num_cores()).max(1);
    let mut arena = Arena::new();
    let barrier: Arc<dyn Barrier> = Arc::from(build(&mut arena, p, topo));
    let oracle = EpisodeOracle::new(&mut arena, p, topo.cacheline_bytes());
    let result = SimBuilder::new(Arc::clone(topo), p)
        .seed(seed)
        .op_budget(op_budget)
        .reserve_for(&arena)
        .schedule_policy(ExplorerPolicy::new(seed, explorer))
        .run(move |sim| {
            for e in 1..=episodes {
                barrier.wait_conformed(sim, &oracle, e);
            }
        });
    let stats = result.map_err(classify)?;
    check_quiescence(stats.marks(), p, episodes)
        .map(|()| stats.schedule_hash())
        .map_err(|detail| (ViolationKind::Quiescence, detail))
}

/// The quiescence oracle: each thread's phase marks must be exactly
/// `episodes` alternating `ENTER`/`EXIT` pairs — an unbalanced or
/// out-of-order sequence means an episode leaked work into the next one.
pub fn check_quiescence(marks: &[Mark], threads: usize, episodes: u32) -> Result<(), String> {
    for tid in 0..threads {
        let seq: Vec<u32> = marks
            .iter()
            .filter(|m| m.tid == tid && (m.label == MARK_ENTER || m.label == MARK_EXIT))
            .map(|m| m.label)
            .collect();
        if seq.len() != 2 * episodes as usize {
            return Err(format!(
                "thread {tid}: {} phase marks for {episodes} episodes (want {})",
                seq.len(),
                2 * episodes
            ));
        }
        for (i, &label) in seq.iter().enumerate() {
            let want = if i % 2 == 0 { MARK_ENTER } else { MARK_EXIT };
            if label != want {
                return Err(format!(
                    "thread {tid}: phase mark {i} is {label:#x}, want {want:#x} \
                     (episodes must strictly alternate enter/exit)"
                ));
            }
        }
    }
    Ok(())
}

/// Searches one (platform, algorithm) cell: up to `cfg.seeds` trials,
/// stopping at the first violation (shrunk before reporting).
fn run_cell(platform: Platform, algorithm: AlgorithmId, cfg: &ConformConfig) -> ConformCell {
    let topo = Arc::new(Topology::preset(platform));
    let threads = cfg.threads.min(topo.num_cores()).max(1);
    let build = |arena: &mut Arena, p: usize, t: &Topology| algorithm.build(arena, p, t);
    let trial = |explorer, episodes, seed| {
        run_trial(&topo, &build, threads, episodes, seed, explorer, cfg.op_budget)
    };
    let outcome = search(&trial, cfg.explorer, cfg.episodes, cfg.seeds, cfg.base_seed);
    ConformCell::new(platform, algorithm, None, threads, outcome)
}

/// Runs the conformance matrix on `pool`: one cell per (platform,
/// algorithm), in listed order. Cells are pure functions of the config,
/// fan out as parallel jobs, and collect in submission order — the
/// rendered table is byte-identical at any worker count.
pub fn conform_matrix_on(pool: &SweepPool, cfg: &ConformConfig) -> Vec<ConformCell> {
    silence_oracle_panics();
    let mut jobs: Vec<Job<'_, ConformCell>> = Vec::new();
    for &platform in &cfg.platforms {
        for &algorithm in &cfg.algorithms {
            jobs.push(Job::parallel(move || run_cell(platform, algorithm, cfg)));
        }
    }
    pool.run(jobs)
}

/// Keeps expected oracle violations (and their teardown) from spraying
/// panic reports over the table: they are caught, classified, and shrunk.
pub(crate) fn silence_oracle_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied());
            if !msg.is_some_and(armbar_core::oracle::is_oracle_message) {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use armbar_core::MemCtx;
    use armbar_simcoh::Addr;
    use armbar_sweep::SweepPool;

    fn quick_cfg() -> ConformConfig {
        ConformConfig {
            algorithms: vec![AlgorithmId::Sense, AlgorithmId::Dissemination],
            threads: 4,
            episodes: 2,
            seeds: 30,
            ..ConformConfig::default()
        }
    }

    #[test]
    fn all_sampled_algorithms_conform() {
        let cells = conform_matrix_on(&SweepPool::new(2), &quick_cfg());
        for c in &cells {
            assert!(c.violations.is_empty(), "{}: {}", c.algorithm.label(), c.detail());
            assert_eq!(c.trials, 30);
        }
    }

    #[test]
    fn exploration_produces_schedule_diversity() {
        let cells = conform_matrix_on(&SweepPool::new(2), &quick_cfg());
        for c in &cells {
            assert!(
                c.distinct_schedules > c.trials as usize / 2,
                "{}: only {} distinct schedules over {} trials",
                c.algorithm.label(),
                c.distinct_schedules,
                c.trials
            );
        }
    }

    #[test]
    fn weak_search_matrix_is_clean_and_deterministic() {
        // The weak-memory search over a sample of the matrix: the shipped
        // acquire/release annotations must survive reordered schedules,
        // and the table must stay byte-identical at any worker count
        // (the weak decision stream is per-trial, not per-worker).
        let cfg = ConformConfig {
            algorithms: vec![AlgorithmId::Sense, AlgorithmId::Dissemination, AlgorithmId::Mcs],
            threads: 4,
            episodes: 2,
            seeds: 30,
            explorer: ExplorerConfig { reorder_prob: 0.8, ..ExplorerConfig::default() }
                .with_reorder_budget(16),
            ..ConformConfig::default()
        };
        let serial = conform_matrix_on(&SweepPool::new(1), &cfg);
        let parallel = conform_matrix_on(&SweepPool::new(4), &cfg);
        for c in &serial {
            assert!(c.violations.is_empty(), "{}: {}", c.algorithm.label(), c.detail());
        }
        let render = |cells: &[ConformCell]| crate::report::render_csv(cells, &cfg);
        assert_eq!(render(&serial), render(&parallel));
    }

    #[test]
    fn weak_search_explores_distinct_schedules() {
        // Reordering decisions feed the schedule fingerprint: the same
        // seeds must reach schedules the SC search cannot.
        let base = quick_cfg();
        let weak = ConformConfig {
            explorer: ExplorerConfig { reorder_prob: 0.8, ..ExplorerConfig::default() }
                .with_reorder_budget(16),
            ..base.clone()
        };
        let sc = conform_matrix_on(&SweepPool::new(2), &base);
        let wk = conform_matrix_on(&SweepPool::new(2), &weak);
        for (s, w) in sc.iter().zip(&wk) {
            assert!(w.violations.is_empty(), "{}: {}", w.algorithm.label(), w.detail());
            assert!(
                s.distinct_schedules > 0 && w.distinct_schedules > 0,
                "both searches must make progress"
            );
        }
    }

    #[test]
    fn matrix_is_identical_at_any_worker_count() {
        let cfg = quick_cfg();
        let serial = conform_matrix_on(&SweepPool::new(1), &cfg);
        let parallel = conform_matrix_on(&SweepPool::new(4), &cfg);
        let render = |cells: &[ConformCell]| crate::report::render_csv(cells, &cfg);
        assert_eq!(render(&serial), render(&parallel));
    }

    /// A "barrier" in which thread 1 deserts: everyone else runs a correct
    /// counter barrier (per-round releases on a monotonically numbered
    /// flag), but thread 1 returns immediately — the early-exit bug the
    /// schedule search must expose. Nothing here can deadlock, so the
    /// violation kind is stable across schedules.
    struct Deserter {
        counter: Addr,
        flag: Addr,
    }

    impl Barrier for Deserter {
        fn wait(&self, ctx: &dyn MemCtx) {
            if ctx.tid() == 1 {
                return; // never waits — the bug under audit
            }
            let n = ctx.nthreads() as u32 - 1;
            let arrival = ctx.fetch_add(self.counter, 1) + 1;
            let round = arrival.div_ceil(n);
            if arrival == round * n {
                ctx.store(self.flag, round); // last of the round releases
            } else {
                ctx.spin_until_ge(self.flag, round);
            }
        }
        fn name(&self) -> &str {
            "DESERTER"
        }
    }

    #[test]
    fn broken_barrier_is_caught_and_replayable() {
        let topo = Arc::new(Topology::preset(Platform::Kunpeng920));
        let build = |arena: &mut Arena, _p: usize, t: &Topology| -> Box<dyn Barrier> {
            let line = t.cacheline_bytes();
            Box::new(Deserter {
                counter: arena.alloc_padded_u32(line),
                flag: arena.alloc_padded_u32(line),
            })
        };
        let cfg = ExplorerConfig::default();
        let trial = |explorer, episodes, seed| {
            run_trial(&topo, &build, 4, episodes, seed, explorer, 4_000_000)
        };
        let found = search(&trial, cfg, 2, 50, 0xBAD);
        let v = found.violation.expect("the schedule search must expose the deserter");
        let (kind, detail) =
            trial(cfg, 2, v.seed).expect_err("the search stopped at a failing seed");
        assert!(
            matches!(kind, ViolationKind::EarlyExit | ViolationKind::EpochSkew),
            "{kind}: {detail}"
        );
        // The reproducer replays deterministically with the same verdict,
        // and the shrunk one with its recorded verdict.
        let replay = trial(cfg, 2, v.seed);
        assert_eq!(replay.err().map(|(k, _)| k), Some(kind));
        let shrunk = cfg.with_budget(v.budget).with_reorder_budget(v.reorder_budget);
        assert_eq!(trial(shrunk, v.episodes, v.seed).err().map(|(k, _)| k), Some(v.kind));
    }

    #[test]
    fn quiescence_check_accepts_balanced_marks() {
        let marks = [
            Mark { tid: 0, label: MARK_ENTER, time_ns: 0.0 },
            Mark { tid: 0, label: MARK_EXIT, time_ns: 1.0 },
            Mark { tid: 0, label: MARK_ENTER, time_ns: 2.0 },
            Mark { tid: 0, label: MARK_EXIT, time_ns: 3.0 },
        ];
        assert!(check_quiescence(&marks, 1, 2).is_ok());
    }

    #[test]
    fn quiescence_check_rejects_imbalance_and_disorder() {
        let missing_exit = [Mark { tid: 0, label: MARK_ENTER, time_ns: 0.0 }];
        assert!(check_quiescence(&missing_exit, 1, 1).is_err());
        let reversed = [
            Mark { tid: 0, label: MARK_EXIT, time_ns: 0.0 },
            Mark { tid: 0, label: MARK_ENTER, time_ns: 1.0 },
        ];
        assert!(check_quiescence(&reversed, 1, 1).is_err());
    }
}
