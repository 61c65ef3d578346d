//! The explore workload: conformance cells on a one-worker sweep pool, one
//! op per cell.
//!
//! Thousands of tiny simulations, so the cost is per-simulation set-up, the
//! schedule-policy and weak-memory hooks and the oracles — the opposite of
//! sim-kilocore's hot loop. Cells per pass:
//!
//! * 16 SC cells: every fixed-membership barrier on Kunpeng920 at P=8;
//! * 48 weak cells: the same barriers on the three ARM machines with a
//!   reorder budget of 64 (the `conform --weak` explorer);
//! * 8 phaser cells: both phasers under the four churn scripts on
//!   Kunpeng920 at P=4 (`core::phaser` and `faults::ChurnPlan`).
//!
//! Seed counts (SC 16, weak 24, phaser 1) make every cell but two cost
//! 4–10 ms, one continuum in which the median and p90 fall; the two
//! crash-evict cells, whose stall detection has to run out its poll
//! budget, are the slow tail that p99 lands in.

use armbar_conformance::{
    conform_matrix_on, phaser_conform_matrix_on, ConformConfig, ExplorerConfig, PhaserConformConfig,
};
use armbar_core::registry::AlgorithmId;
use armbar_faults::Scenario;
use armbar_sweep::SweepPool;
use armbar_topology::Platform;

use crate::clock;
use crate::reference::render;
use crate::stats::{median, slug, Metrics};
use crate::trace::Tracer;
use crate::workload::{PassCtx, Workload};

const SC_SEEDS: u32 = 16;
const WEAK_SEEDS: u32 = 24;
const PHASER_SEEDS: u32 = 1;
/// Base schedule seeds of variant 0 (the checkers' defaults) and the
/// stride between variants.
const SC_BASE: u64 = 0xC0F0;
const PHASER_BASE: u64 = 0xFA5E;
const SEED_STRIDE: u64 = 0x9E37_79B9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Sc,
    Weak,
    Phaser,
}

impl Family {
    fn label(self) -> &'static str {
        match self {
            Family::Sc => "sc",
            Family::Weak => "weak",
            Family::Phaser => "phaser",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Family::Sc => "conformance.cell.sc",
            Family::Weak => "conformance.cell.weak",
            Family::Phaser => "conformance.cell.phaser",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub family: Family,
    pub platform: Platform,
    pub algorithm: AlgorithmId,
    pub scenario: Option<Scenario>,
}

impl Cell {
    pub fn key(&self) -> String {
        let mut k = format!(
            "{}.{}.{}",
            self.family.label(),
            slug(self.platform.label()),
            slug(self.algorithm.label())
        );
        if let Some(s) = self.scenario {
            k.push('.');
            k.push_str(&slug(s.label()));
        }
        k
    }
}

pub fn cells() -> Vec<Cell> {
    let fixed: Vec<AlgorithmId> =
        AlgorithmId::ALL.into_iter().chain(AlgorithmId::CONTENDERS).collect();
    let sc = fixed.iter().map(|&algorithm| Cell {
        family: Family::Sc,
        platform: Platform::Kunpeng920,
        algorithm,
        scenario: None,
    });
    let weak = Platform::ARM.into_iter().flat_map(|platform| {
        fixed.iter().map(move |&algorithm| Cell {
            family: Family::Weak,
            platform,
            algorithm,
            scenario: None,
        })
    });
    let phaser = AlgorithmId::PHASERS.into_iter().flat_map(|algorithm| {
        Scenario::CHURN.into_iter().map(move |s| Cell {
            family: Family::Phaser,
            platform: Platform::Kunpeng920,
            algorithm,
            scenario: Some(s),
        })
    });
    sc.chain(weak.collect::<Vec<_>>()).chain(phaser).collect()
}

/// Outcome of one cell: (trials, distinct schedules, violations).
fn run_cell(pool: &SweepPool, cell: &Cell, variant: u64) -> (u32, usize, usize) {
    let stride = variant.wrapping_mul(SEED_STRIDE);
    match cell.family {
        Family::Sc | Family::Weak => {
            let mut cfg = ConformConfig {
                platforms: vec![cell.platform],
                algorithms: vec![cell.algorithm],
                seeds: SC_SEEDS,
                base_seed: SC_BASE.wrapping_add(stride),
                ..ConformConfig::default()
            };
            if cell.family == Family::Weak {
                cfg.seeds = WEAK_SEEDS;
                cfg.explorer =
                    ExplorerConfig { reorder_prob: 0.8, ..cfg.explorer }.with_reorder_budget(64);
            }
            let c = &conform_matrix_on(pool, &cfg)[0];
            (c.trials, c.distinct_schedules, c.violations.len())
        }
        Family::Phaser => {
            let cfg = PhaserConformConfig {
                platforms: vec![cell.platform],
                algorithms: vec![cell.algorithm],
                scenarios: vec![cell.scenario.expect("phaser cells name a scenario")],
                threads: 4,
                episodes: 3,
                seeds: PHASER_SEEDS,
                base_seed: PHASER_BASE.wrapping_add(stride),
                ..PhaserConformConfig::default()
            };
            let c = &phaser_conform_matrix_on(pool, &cfg)[0];
            (c.trials, c.distinct_schedules, c.violations.len())
        }
    }
}

pub struct Explore {
    pool: SweepPool,
    cells: Vec<Cell>,
    /// Host ns per cell, by family.
    cell_ns: [Vec<f64>; 3],
    trials: u64,
    distinct: u64,
    violations: u64,
    rss_delta_kb: i64,
}

impl Explore {
    pub(crate) fn with_cells(cells: Vec<Cell>, tracer: &mut Tracer) -> Self {
        let pool = SweepPool::new(1);
        // Warm-up: one unchecked cell of each family, on variant 0's seeds
        // so that set-up does the same work whatever the seed.
        for family in [Family::Sc, Family::Weak, Family::Phaser] {
            let Some(cell) = cells.iter().find(|c| c.family == family) else { continue };
            let s = tracer.begin(family.span(), 0);
            run_cell(&pool, cell, 0);
            tracer.end(s);
        }
        Self {
            pool,
            cells,
            cell_ns: Default::default(),
            trials: 0,
            distinct: 0,
            violations: 0,
            rss_delta_kb: 0,
        }
    }
}

impl Workload for Explore {
    fn setup(_variant: u64, _passes: usize, tracer: &mut Tracer) -> Self {
        Self::with_cells(cells(), tracer)
    }

    fn samples_per_pass(&self) -> usize {
        self.cells.len()
    }

    fn pass(&mut self, pass: usize, cx: &mut PassCtx<'_>) {
        let traced = cx.tracer.enabled();
        let rss0 = if traced { crate::stats::rss_kb() as i64 } else { 0 };
        let ps = cx.tracer.begin("bench.pass", pass as u64);
        for (i, cell) in self.cells.iter().enumerate() {
            let s = cx.tracer.begin(cell.family.span(), i as u64);
            let t = clock::now();
            let (trials, distinct, violations) = run_cell(&self.pool, cell, cx.variant);
            let ns = clock::since(t);
            cx.tracer.end(s);
            cx.log.samples_ns.push(ns);
            let rendered = render(&[
                ("trials", trials.to_string()),
                ("distinct", distinct.to_string()),
                ("violations", violations.to_string()),
            ]);
            let matches = cx.checker.verify(cx.variant, &cell.key(), &rendered);
            cx.log.record(1, matches && violations == 0);
            self.cell_ns[cell.family as usize].push(ns as f64);
            self.trials += u64::from(trials);
            self.distinct += distinct as u64;
            self.violations += violations as u64;
        }
        cx.tracer.end(ps);
        if traced {
            self.rss_delta_kb += crate::stats::rss_kb() as i64 - rss0;
        }
    }

    fn layer_metrics(&self, m: &mut Metrics) {
        for family in [Family::Sc, Family::Weak, Family::Phaser] {
            let ns = &self.cell_ns[family as usize];
            let name = format!("conformance.cell_ms.{}", family.label());
            m.push(name, median(ns) / 1e6, "ms", ns.len());
        }
        let busy_s: f64 = self.cell_ns.iter().flatten().sum::<f64>() / 1e9;
        m.push(
            "conformance.trials_per_s",
            self.trials as f64 / busy_s,
            "1/s",
            self.trials as usize,
        );
        let ratio = self.distinct as f64 / self.trials as f64;
        m.push("conformance.distinct_ratio", ratio, "ratio", self.trials as usize);
        m.push("conformance.violations", self.violations as f64, "count", 1);
        // Every trial is one `SimBuilder::run`.
        let per_run = self.rss_delta_kb as f64 / self.trials as f64;
        m.push("simcoh.rss_kb_per_run.explore", per_run, "KiB", self.trials as usize);
    }
}
