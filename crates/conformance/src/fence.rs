//! Fence minimization: which of a barrier's orderings are load-bearing?
//!
//! Every algorithm in `armbar-core` ships with hand-placed acquire/release
//! annotations (relaxed where a comment argues it is safe, ordered where
//! the ordering is load-bearing). This module *tests that placement* under
//! the bounded weak-memory search: for each (platform, algorithm) cell it
//! re-runs the conformance trials at four demotion levels —
//!
//! * **as-shipped** — the annotations exactly as written;
//! * **relax-loads** — every acquire load inside `Barrier::wait` demoted
//!   to relaxed (spins, RMWs, and fences keep their semantics);
//! * **relax-stores** — every release store inside `wait` demoted;
//! * **relax-all** — both demotions at once;
//!
//! and records which levels survive the weak explorer. The demotion is a
//! [`MemCtx`] wrapper applied around the barrier's `wait` **only**: the
//! episode oracle's own witness accesses run unwrapped, so a level
//! "passes" exactly when the barrier still publishes pre-barrier writes
//! and orders post-barrier reads with the orderings that *remain*.
//!
//! The search is greedy weakest-first per cell: the first level in
//! `[relax-all, relax-stores, relax-loads, as-shipped]` whose every seeded
//! trial passes is the **weakest passing placement** — if it is not
//! `as-shipped`, the shipped annotations are stronger than the oracles
//! require (a documented optimization opportunity, not a bug). A level
//! that fails ships a shrunk deterministic reproducer, which doubles as
//! the suite's injected-bug self-test: demoting SENSE's release flip
//! reorders the counter reset behind it and loses arrivals.

use std::sync::Arc;

use armbar_core::{AlgorithmId, Barrier, MemCtx, MemLayer};
use armbar_simcoh::Addr;
use armbar_sweep::{Job, SweepPool};
use armbar_topology::{Platform, Topology};

use crate::checker::{run_trial, Violation};
use crate::explorer::ExplorerConfig;
use crate::search::{search, TrialResult};

/// How far to demote the annotations inside `Barrier::wait`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FenceLevel {
    /// Both demotions at once (the weakest placement probed).
    RelaxAll,
    /// Every release store demoted to relaxed.
    RelaxStores,
    /// Every acquire load demoted to relaxed.
    RelaxLoads,
    /// The annotations exactly as written in the algorithm.
    AsShipped,
}

impl FenceLevel {
    /// Weakest-first probe order.
    pub const ALL: [FenceLevel; 4] = [
        FenceLevel::RelaxAll,
        FenceLevel::RelaxStores,
        FenceLevel::RelaxLoads,
        FenceLevel::AsShipped,
    ];

    /// Stable table label.
    pub fn label(self) -> &'static str {
        match self {
            FenceLevel::RelaxAll => "relax-all",
            FenceLevel::RelaxStores => "relax-stores",
            FenceLevel::RelaxLoads => "relax-loads",
            FenceLevel::AsShipped => "as-shipped",
        }
    }

    fn relax_loads(self) -> bool {
        matches!(self, FenceLevel::RelaxAll | FenceLevel::RelaxLoads)
    }

    fn relax_stores(self) -> bool {
        matches!(self, FenceLevel::RelaxAll | FenceLevel::RelaxStores)
    }
}

impl std::fmt::Display for FenceLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// [`MemLayer`] demoting ordered plain accesses per [`FenceLevel`].
/// Spins, RMWs, and fences pass through untouched: demotion targets the
/// annotations the algorithms chose, not the primitives' semantics.
struct WeakenCtx<'a> {
    inner: &'a dyn MemCtx,
    level: FenceLevel,
}

impl MemLayer for WeakenCtx<'_> {
    fn inner(&self) -> &dyn MemCtx {
        self.inner
    }
    fn load(&self, addr: Addr) -> u32 {
        if self.level.relax_loads() {
            self.inner.load_relaxed(addr)
        } else {
            self.inner.load(addr)
        }
    }
    fn store(&self, addr: Addr, value: u32) {
        if self.level.relax_stores() {
            self.inner.store_relaxed(addr, value)
        } else {
            self.inner.store(addr, value)
        }
    }
}

/// Wraps a barrier so its `wait` body runs under a [`WeakenCtx`]. The
/// oracle and the trace marks (`wait_traced`/`wait_conformed` default
/// methods) still see the raw context.
struct WeakenedBarrier {
    inner: Box<dyn Barrier>,
    level: FenceLevel,
}

impl Barrier for WeakenedBarrier {
    fn wait(&self, ctx: &dyn MemCtx) {
        self.inner.wait(&WeakenCtx { inner: ctx, level: self.level });
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// What to probe: the cross product of platforms × algorithms × the four
/// demotion levels, each searched over `seeds` weak-exploring schedules.
#[derive(Debug, Clone)]
pub struct FenceConfig {
    /// Modeled machines to probe on.
    pub platforms: Vec<Platform>,
    /// Barrier algorithms under audit.
    pub algorithms: Vec<AlgorithmId>,
    /// Participating threads per trial (clamped to the platform's cores).
    pub threads: usize,
    /// Audited barrier episodes per trial (≥ 2, or cross-episode
    /// reorderings — the interesting ones — are invisible).
    pub episodes: u32,
    /// Seeded schedules searched per (platform, algorithm, level).
    pub seeds: u32,
    /// Master seed; trial seeds derive from it.
    pub base_seed: u64,
    /// Exploration tuning. `reorder_budget` must be > 0: a fence probe
    /// without the weak search would pass every demotion vacuously.
    pub explorer: ExplorerConfig,
    /// Engine op budget per trial.
    pub op_budget: u64,
}

impl Default for FenceConfig {
    fn default() -> Self {
        Self {
            platforms: vec![Platform::Kunpeng920],
            algorithms: AlgorithmId::ALL.to_vec(),
            threads: 8,
            episodes: 3,
            seeds: 80,
            base_seed: 0x00FE_2CE5,
            explorer: ExplorerConfig { reorder_prob: 0.8, ..ExplorerConfig::default() }
                .with_reorder_budget(16),
            op_budget: 4_000_000,
        }
    }
}

/// Outcome of probing one demotion level of one cell.
#[derive(Debug, Clone)]
pub struct LevelResult {
    /// The demotion probed.
    pub level: FenceLevel,
    /// Shrunk reproducer if any seeded trial violated; `None` = the level
    /// passed every trial.
    pub violation: Option<Violation>,
}

/// One (platform, algorithm) row of the fence report.
#[derive(Debug, Clone)]
pub struct FenceCell {
    /// Modeled machine.
    pub platform: Platform,
    /// Algorithm under audit.
    pub algorithm: AlgorithmId,
    /// Threads per trial (after clamping to the platform).
    pub threads: usize,
    /// One result per [`FenceLevel::ALL`] entry, in that (weakest-first)
    /// order.
    pub results: Vec<LevelResult>,
}

impl FenceCell {
    /// The weakest demotion level that passed every trial. `as-shipped`
    /// always passes on a conforming barrier, so this is total for
    /// correct inputs; `None` means even the shipped placement violated.
    pub fn weakest_passing(&self) -> Option<FenceLevel> {
        self.results.iter().find(|r| r.violation.is_none()).map(|r| r.level)
    }
}

/// The conformance trial of `algorithm` with its `wait` demoted to `level`.
fn demoted_trial<'a>(
    topo: &'a Arc<Topology>,
    algorithm: AlgorithmId,
    level: FenceLevel,
    cfg: &'a FenceConfig,
) -> impl Fn(ExplorerConfig, u32, u64) -> TrialResult + 'a {
    move |explorer, episodes, seed| {
        let build =
            |arena: &mut armbar_simcoh::Arena, p: usize, t: &Topology| -> Box<dyn Barrier> {
                Box::new(WeakenedBarrier { inner: algorithm.build(arena, p, t), level })
            };
        run_trial(topo, &build, cfg.threads, episodes, seed, explorer, cfg.op_budget)
    }
}

/// Probes one demotion level of one cell: runs up to `cfg.seeds` trials
/// and shrinks the first violation.
fn probe_level(
    topo: &Arc<Topology>,
    algorithm: AlgorithmId,
    level: FenceLevel,
    cfg: &FenceConfig,
) -> LevelResult {
    let trial = demoted_trial(topo, algorithm, level, cfg);
    let outcome = search(&trial, cfg.explorer, cfg.episodes, cfg.seeds, cfg.base_seed);
    LevelResult { level, violation: outcome.violation }
}

/// Probes one (platform, algorithm) row, weakest level first.
fn run_fence_cell(platform: Platform, algorithm: AlgorithmId, cfg: &FenceConfig) -> FenceCell {
    let topo = Arc::new(Topology::preset(platform));
    let threads = cfg.threads.min(topo.num_cores()).max(1);
    let results =
        FenceLevel::ALL.iter().map(|&level| probe_level(&topo, algorithm, level, cfg)).collect();
    FenceCell { platform, algorithm, threads, results }
}

/// Runs the fence-minimization matrix on `pool`. Cells are pure functions
/// of the config, fan out as parallel jobs, and collect in submission
/// order — the rendered report is byte-identical at any worker count.
pub fn fence_matrix_on(pool: &SweepPool, cfg: &FenceConfig) -> Vec<FenceCell> {
    assert!(cfg.explorer.reorder_budget > 0, "a fence probe needs the weak search on");
    assert!(cfg.episodes >= 2, "cross-episode reorderings need at least two episodes");
    crate::checker::silence_oracle_panics();
    let mut jobs: Vec<Job<'_, FenceCell>> = Vec::new();
    for &platform in &cfg.platforms {
        for &algorithm in &cfg.algorithms {
            jobs.push(Job::parallel(move || run_fence_cell(platform, algorithm, cfg)));
        }
    }
    pool.run(jobs)
}

/// Renders the fence report as Markdown: one row per (platform,
/// algorithm), a pass/fail column per demotion level, and the weakest
/// passing placement. Deterministic — no wall-clock values.
pub fn render_fence_markdown(cells: &[FenceCell], cfg: &FenceConfig) -> String {
    let mut out = String::new();
    out.push_str("# Fence minimization report\n\n");
    out.push_str(&format!(
        "Weak-memory search: base seed {:#x}, {} seeds/level, {} episodes, {} threads, \
         budget {}, reorder budget {} (p={}).\n\n",
        cfg.base_seed,
        cfg.seeds,
        cfg.episodes,
        cfg.threads,
        cfg.explorer.budget,
        cfg.explorer.reorder_budget,
        cfg.explorer.reorder_prob,
    ));
    out.push_str(
        "`ok` = every seeded trial passed at that demotion; a kind label = the shrunk \
         counterexample's violation class. `as-shipped` is the placement committed in \
         `armbar-core`; a weaker passing level means the shipped placement is stronger than \
         the episode oracles require.\n\n",
    );
    out.push_str("| platform | algorithm | relax-all | relax-stores | relax-loads | as-shipped | weakest passing |\n");
    out.push_str("|---|---|---|---|---|---|---|\n");
    for c in cells {
        let col = |level: FenceLevel| -> String {
            match c.results.iter().find(|r| r.level == level).and_then(|r| r.violation.as_ref()) {
                None => "ok".to_string(),
                Some(v) => format!("{}", v.kind),
            }
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} |\n",
            c.platform.label(),
            c.algorithm.label(),
            col(FenceLevel::RelaxAll),
            col(FenceLevel::RelaxStores),
            col(FenceLevel::RelaxLoads),
            col(FenceLevel::AsShipped),
            c.weakest_passing().map(|l| l.label()).unwrap_or("NONE (shipped VIOLATED)"),
        ));
    }
    out.push('\n');
    let mut any = false;
    for c in cells {
        for r in &c.results {
            if let Some(v) = &r.violation {
                if !any {
                    out.push_str("## Shrunk counterexamples\n\n");
                    any = true;
                }
                out.push_str(&format!(
                    "- {} / {} @ {}: {}: {} [replay: seed {:#x} budget {} rbudget {} episodes {}]\n",
                    c.platform.label(),
                    c.algorithm.label(),
                    r.level,
                    v.kind,
                    v.detail,
                    v.seed,
                    v.budget,
                    v.reorder_budget,
                    v.episodes,
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use armbar_sweep::SweepPool;

    fn quick_cfg(algorithms: Vec<AlgorithmId>) -> FenceConfig {
        FenceConfig { algorithms, threads: 4, episodes: 3, seeds: 40, ..FenceConfig::default() }
    }

    #[test]
    fn shipped_sense_passes_and_underfenced_sense_is_caught() {
        // The suite's injected-bug self-test: SENSE's counter reset may be
        // (and is) relaxed because the champion's global-sense flip is a
        // release that flushes it. Demoting that release (relax-stores)
        // re-creates the classic under-fenced barrier: the reset commits
        // after the flip, a woken peer's next-episode arrival is erased,
        // and the episode deadlocks. The probe must catch it AND the
        // as-shipped placement must survive the same search.
        let cells = fence_matrix_on(&SweepPool::new(2), &quick_cfg(vec![AlgorithmId::Sense]));
        assert_eq!(cells.len(), 1);
        let cell = &cells[0];
        let at = |level: FenceLevel| {
            cell.results.iter().find(|r| r.level == level).expect("all levels probed")
        };
        assert!(
            at(FenceLevel::AsShipped).violation.is_none(),
            "shipped SENSE must conform under the weak search: {:?}",
            at(FenceLevel::AsShipped).violation
        );
        let broken = at(FenceLevel::RelaxStores)
            .violation
            .as_ref()
            .expect("demoting SENSE's release flip must be caught");
        assert!(
            broken.reorder_budget > 0,
            "the reproducer needs weak memory: a shrink to rbudget 0 would mean a scheduling \
             bug, got {broken:?}"
        );
        assert!(broken.episodes >= 2, "the lost arrival is a cross-episode effect: {broken:?}");
        // The shrunk reproducer replays deterministically.
        let topo = Arc::new(Topology::preset(Platform::Kunpeng920));
        let cfg = quick_cfg(vec![AlgorithmId::Sense]);
        let trial = demoted_trial(&topo, AlgorithmId::Sense, FenceLevel::RelaxStores, &cfg);
        let replay = trial(
            cfg.explorer.with_budget(broken.budget).with_reorder_budget(broken.reorder_budget),
            broken.episodes,
            broken.seed,
        );
        assert_eq!(replay.err().map(|(k, _)| k), Some(broken.kind));
    }

    #[test]
    fn report_renders_every_cell_and_flags_counterexamples() {
        let cfg = quick_cfg(vec![AlgorithmId::Sense]);
        let cells = fence_matrix_on(&SweepPool::new(2), &cfg);
        let md = render_fence_markdown(&cells, &cfg);
        assert!(md.contains("| Kunpeng920 | SENSE |"));
        assert!(md.contains("## Shrunk counterexamples"), "relax-stores must contribute one");
        assert!(md.contains("rbudget"));
    }

    #[test]
    fn weak_search_is_required() {
        let cfg = FenceConfig {
            explorer: ExplorerConfig::default().with_reorder_budget(0),
            ..quick_cfg(vec![AlgorithmId::Sense])
        };
        let caught = std::panic::catch_unwind(|| fence_matrix_on(&SweepPool::new(1), &cfg));
        assert!(caught.is_err(), "reorder budget 0 must be rejected");
    }
}
