//! Table IV: performance improvement of the optimized barrier over the
//! GCC OpenMP barrier, the LLVM OpenMP barrier, and the best-performing
//! state-of-the-art algorithm, at 64 threads.
//!
//! Paper values: vs GCC 8× / 23× / 11× (geomean 12.6×); vs LLVM 2.7× /
//! 2.5× / 9× (4.7×); vs the state of the art 1.7× / 1.8× / 1.4× (1.6×).

use armbar_core::prelude::*;
use armbar_epcc::summary::geomean;
use armbar_sweep::SweepPool;
use armbar_topology::Platform;

use crate::report::{speedup, Report};
use crate::runner::{overhead_ns, topo, Scale};

/// Thread count of the table.
const P: usize = 64;

/// One measured speedup row.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Baseline label ("GCC", "LLVM", "state-of-the-art").
    pub baseline: String,
    /// Per-ARM-platform speedups of the optimized barrier, paper order.
    pub per_platform: [f64; 3],
    /// Geometric mean across platforms.
    pub geomean: f64,
}

/// Measures the three Table IV rows. Also returns which existing algorithm
/// won per platform (the "state of the art" is whatever existing algorithm
/// is fastest there, as in the paper).
pub fn measure(scale: &Scale) -> (Vec<SpeedupRow>, Vec<(Platform, AlgorithmId)>) {
    let pool = SweepPool::ambient();
    let mut opt = [0.0f64; 3];
    let mut gcc = [0.0f64; 3];
    let mut llvm = [0.0f64; 3];
    let mut best = [0.0f64; 3];
    let mut best_ids = Vec::new();

    for (i, platform) in Platform::ARM.into_iter().enumerate() {
        let t = topo(platform);
        opt[i] = overhead_ns(&pool, &t, P, &AlgorithmId::Optimized, scale);
        gcc[i] = overhead_ns(&pool, &t, P, &AlgorithmId::Sense, scale);
        llvm[i] = overhead_ns(&pool, &t, P, &AlgorithmId::LlvmHyper, scale);
        // Best existing algorithm = the cheapest of the paper's seven plus
        // the LLVM barrier (everything that predates the optimization).
        let (id, v) = AlgorithmId::SEVEN
            .into_iter()
            .chain([AlgorithmId::LlvmHyper])
            .map(|id| (id, overhead_ns(&pool, &t, P, &id, scale)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        best[i] = v;
        best_ids.push((platform, id));
    }

    let row = |label: &str, base: [f64; 3]| {
        let per: [f64; 3] = std::array::from_fn(|i| base[i] / opt[i]);
        SpeedupRow { baseline: label.to_string(), per_platform: per, geomean: geomean(&per) }
    };
    (vec![row("GCC", gcc), row("LLVM", llvm), row("state-of-the-art", best)], best_ids)
}

/// Runs Table IV.
pub fn run(scale: &Scale) -> Vec<Report> {
    let (rows, best_ids) = measure(scale);
    let mut r = Report::new(
        format!("Table IV — speedup of the optimized barrier at {P} threads"),
        &["baseline", "Phytium 2000+", "ThunderX2", "Kunpeng920", "Geomean"],
    );
    for row in &rows {
        r.row(vec![
            row.baseline.clone(),
            speedup(row.per_platform[0]),
            speedup(row.per_platform[1]),
            speedup(row.per_platform[2]),
            speedup(row.geomean),
        ]);
    }
    for (platform, id) in &best_ids {
        r.note(format!("best existing algorithm on {platform}: {id}"));
    }
    r.note("paper: vs GCC 8x/23x/11x (12.6x); vs LLVM 2.7x/2.5x/9x (4.7x);");
    r.note("vs state-of-the-art 1.7x/1.8x/1.4x (1.6x).");
    vec![r]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimized_barrier_wins_every_comparison() {
        let (rows, _) = measure(&Scale::quick());
        for row in &rows {
            for (i, &s) in row.per_platform.iter().enumerate() {
                assert!(s > 1.0, "{} on platform {i}: speedup {s} ≤ 1", row.baseline);
            }
        }
    }

    #[test]
    fn speedup_ordering_matches_paper() {
        // GCC row >> LLVM row >> state-of-the-art row.
        let (rows, _) = measure(&Scale::quick());
        assert!(rows[0].geomean > rows[1].geomean);
        assert!(rows[1].geomean > rows[2].geomean);
        // Rough magnitudes: GCC ≥ 8x, LLVM ≥ 2x, SOTA ≥ 1.1x geomean.
        assert!(rows[0].geomean >= 8.0, "GCC geomean {}", rows[0].geomean);
        assert!(rows[1].geomean >= 2.0, "LLVM geomean {}", rows[1].geomean);
        assert!(rows[2].geomean >= 1.1, "SOTA geomean {}", rows[2].geomean);
    }

    #[test]
    fn thunderx2_has_the_largest_gcc_speedup() {
        // Paper: 23x on ThunderX2 vs 8x/11x elsewhere.
        let (rows, _) = measure(&Scale::quick());
        let gcc = &rows[0].per_platform;
        assert!(gcc[1] > gcc[0] && gcc[1] > gcc[2], "GCC speedups {gcc:?}");
    }
}
