//! Lock-counter vs SENSE/STOUR crossover — model prediction against
//! simulation (DESIGN.md §17).
//!
//! The shyper contender barriers (`SHY-CTR`, `SHY-PROXY`) pay the
//! platform's CAS/SWP pricing per arrival where SENSE pays one fetch-add
//! and STOUR pays no atomics at all. With the per-op-kind cost split the
//! analytical model predicts, per ARM platform, the thread count at which
//! the lock-guarded counter loses to the best no-lock barrier; this
//! experiment measures the same four curves in the simulator and reports
//! both verdicts side by side. The model-vs-sim validation test (and the
//! CI `crossover-smoke` job) require the two crossover indices to agree
//! within one sweep step.

use armbar_core::prelude::*;
use armbar_model::crossover as model;
use armbar_sweep::SweepPool;
use armbar_topology::Platform;

use crate::report::{us, Report};
use crate::runner::{overhead_ns, topo, Scale};

/// The four curves measured and predicted, in column order.
const CURVES: [AlgorithmId; 4] =
    [AlgorithmId::ShyCtr, AlgorithmId::ShyProxy, AlgorithmId::Sense, AlgorithmId::Stour];

/// Measured sim curves for one platform over `grid`: per point, the mean
/// overhead of each of [`CURVES`].
fn sim_curves(platform: Platform, grid: &[usize], scale: &Scale) -> Vec<(usize, [f64; 4])> {
    let pool = SweepPool::ambient();
    let t = topo(platform);
    grid.iter()
        .map(|&p| {
            let mut ns = [0.0; 4];
            for (slot, id) in ns.iter_mut().zip(CURVES) {
                *slot = overhead_ns(&pool, &t, p, &id, scale);
            }
            (p, ns)
        })
        .collect()
}

/// Index into the grid of the first point where the measured `SHY-CTR`
/// overhead exceeds the best measured no-lock reference.
pub fn sim_crossover_index(curves: &[(usize, [f64; 4])]) -> Option<usize> {
    curves.iter().position(|&(_, [shy_ctr, _, sense, stour])| shy_ctr > sense.min(stour))
}

/// The crossover sweep grid: the scale's thread sweep without the trivial
/// `p = 1` point (every barrier is free there, so it can never order the
/// curves).
pub fn grid(scale: &Scale) -> Vec<usize> {
    scale.sweep.iter().copied().filter(|&p| p >= 2).collect()
}

/// Per-platform curve reports plus a crossover summary report (last).
pub fn run(scale: &Scale) -> Vec<Report> {
    let grid = grid(scale);
    let mut reports = Vec::new();
    let mut summary = Report::new(
        "Lock-counter crossover — model prediction vs simulation",
        &["platform", "model crossover P", "sim crossover P", "|Δ| steps", "within 1 step"],
    );
    for platform in Platform::ARM {
        let t = topo(platform);
        let sim = sim_curves(platform, &grid, scale);
        let predicted = model::predicted_curves(&t, &grid);
        let mut r = Report::new(
            format!("Contender curves — {} ({} reps)", t.name(), scale.reps),
            &[
                "threads",
                "SHY-CTR sim",
                "SHY-PROXY sim",
                "SENSE sim",
                "STOUR sim",
                "SHY-CTR model",
                "SENSE model",
                "STOUR model",
            ],
        );
        for (&(p, sim_ns), pred) in sim.iter().zip(&predicted) {
            r.row(vec![
                p.to_string(),
                us(sim_ns[0]),
                us(sim_ns[1]),
                us(sim_ns[2]),
                us(sim_ns[3]),
                us(pred.shy_ctr_ns),
                us(pred.sense_ns),
                us(pred.stour_ns),
            ]);
        }
        r.note("sim = measured mean overhead; model = closed-form episode cost");
        r.note("(DESIGN.md §17). Absolute scales differ; the crossover ordering");
        r.note("is the claim under test.");
        reports.push(r);

        let model_idx = model::predicted_crossover_index(&t, &grid);
        let sim_idx = sim_crossover_index(&sim);
        let fmt = |idx: Option<usize>| match idx {
            Some(i) => grid[i].to_string(),
            None => "never".to_string(),
        };
        let (delta, ok) = match (model_idx, sim_idx) {
            (Some(m), Some(s)) => {
                let d = m.abs_diff(s);
                (d.to_string(), d <= 1)
            }
            (None, None) => ("0".to_string(), true),
            _ => ("∞".to_string(), false),
        };
        summary.row(vec![
            t.name().to_string(),
            fmt(model_idx),
            fmt(sim_idx),
            delta,
            if ok { "yes" } else { "NO" }.to_string(),
        ]);
    }
    summary.note("crossover P = first swept thread count where SHY-CTR costs more");
    summary.note("than min(SENSE, STOUR); the per-op-kind model must land within");
    summary.note("one sweep step of the simulator on every ARM platform.");
    reports.push(summary);
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite 2: per ARM platform, the model-predicted crossover lands
    /// within one sweep step of the simulated crossover (tolerance
    /// documented in DESIGN.md §17).
    #[test]
    fn model_crossover_matches_sim_within_one_step() {
        let scale = Scale::quick();
        let grid = grid(&scale);
        for platform in Platform::ARM {
            let t = topo(platform);
            let sim = sim_curves(platform, &grid, &scale);
            let model_idx = model::predicted_crossover_index(&t, &grid)
                .unwrap_or_else(|| panic!("{platform}: model predicts no crossover"));
            let sim_idx = sim_crossover_index(&sim)
                .unwrap_or_else(|| panic!("{platform}: sim shows no crossover: {sim:?}"));
            assert!(
                model_idx.abs_diff(sim_idx) <= 1,
                "{platform}: model crossover at grid[{model_idx}]={}, \
                 sim at grid[{sim_idx}]={} — more than one sweep step apart\n{sim:?}",
                grid[model_idx],
                grid[sim_idx],
            );
        }
    }

    #[test]
    fn summary_report_flags_every_platform_within_tolerance() {
        let reports = run(&Scale::quick());
        assert_eq!(reports.len(), 4, "3 platform reports + summary");
        let summary = reports.last().unwrap();
        assert_eq!(summary.rows.len(), 3);
        for row in &summary.rows {
            assert_eq!(row[4], "yes", "{row:?}");
        }
    }

    #[test]
    fn grid_drops_the_trivial_point() {
        assert_eq!(grid(&Scale::quick()), vec![4, 16, 64]);
    }
}
