//! Kilocore projection: every registry barrier on the coherent
//! hierarchical presets with MemPool-derived latencies (tiles → groups →
//! cluster) at P ∈ {64, 256, 1024}.
//!
//! The paper measures up to 64 ARMv8 cores; this experiment asks what its
//! algorithm ranking looks like three doublings further out, on a
//! 1024-core single-chip machine with the MemPool manycore's latencies
//! (see PAPERS.md) but a MESI-style directory: the real MemPool shares one
//! L1 scratchpad and has no private caches to keep coherent. The
//! qualitative expectation from the paper's model: the centralized
//! schemes' hot-spot term grows ~linearly in P and collapses first, while
//! tree/tournament schemes grow with `log P` times the (now deeper)
//! hierarchy's layer latencies.

use armbar_core::prelude::*;
use armbar_sweep::{Job, SweepPool};
use armbar_topology::Platform;

use crate::report::{us, Report};
use crate::runner::{algo_overhead_ns_on, topo, Scale};

/// Thread counts projected, filtered per platform to its core count.
const POINTS: [usize; 3] = [64, 256, 1024];

/// Runs the kilocore projection: one report per platform, all registry
/// algorithms × all applicable thread counts.
pub fn run(scale: &Scale) -> Vec<Report> {
    let pool = SweepPool::ambient();
    Platform::KILOCORE.iter().map(|&platform| run_platform(&pool, platform, scale)).collect()
}

fn run_platform(pool: &SweepPool, platform: Platform, scale: &Scale) -> Report {
    let t = topo(platform);
    let points: Vec<usize> = POINTS.iter().copied().filter(|&p| p <= t.num_cores()).collect();
    let mut r = Report::new(
        format!("Kilocore — barrier overhead on {} (us)", t.name()),
        &["algorithm", "threads", "overhead (us)"],
    );
    // One parallel job per (algorithm, P) point; collection order is the
    // submission order, so the table is deterministic at any worker count.
    // The shyper contenders ride along capped at P ≤ 256: their lock
    // serializes every arrival (with a failed-CAS storm quadratic in P),
    // so the 1024-core point would burn minutes simulating a barrier the
    // model already prices out at a fraction of that scale.
    let cells: Vec<(AlgorithmId, usize)> = AlgorithmId::ALL
        .iter()
        .flat_map(|&id| points.iter().map(move |&p| (id, p)))
        .chain(
            AlgorithmId::CONTENDERS
                .iter()
                .flat_map(|&id| points.iter().filter(|&&p| p <= 256).map(move |&p| (id, p))),
        )
        .collect();
    let jobs = cells
        .iter()
        .map(|&(id, p)| {
            let t = std::sync::Arc::clone(&t);
            Job::parallel(move || algo_overhead_ns_on(pool, &t, p, id, scale))
        })
        .collect();
    for ((id, p), ns) in cells.iter().zip(pool.run(jobs)) {
        r.row(vec![id.label().to_string(), p.to_string(), us(ns)]);
    }
    r.note("hierarchy: 4-core tiles, 64-core groups; MemPool-style NUMA-on-chip;");
    r.note("centralized schemes hot-spot ~linearly in P, trees in log P.");
    r.note("SHY-CTR/SHY-PROXY contender rows are capped at P <= 256 (lock");
    r.note("serialization makes the 1024-point a pure CAS storm).");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smallest meaningful scale: the full 14 × {64,256,1024} grid at the
    /// quick Scale already runs in CI's kilocore-smoke job; the unit test
    /// only pins the report shape and the headline ordering.
    fn tiny() -> Scale {
        Scale { reps: 1, episodes: 2, sweep: vec![] }
    }

    fn overhead(r: &Report, algo: &str, p: &str) -> f64 {
        r.rows
            .iter()
            .find(|row| row[0] == algo && row[1] == p)
            .unwrap_or_else(|| panic!("missing row {algo}/{p}"))[2]
            .parse()
            .unwrap()
    }

    #[test]
    fn kilocore_grid_covers_every_algorithm_and_scale_point() {
        let reports = run(&tiny());
        assert_eq!(reports.len(), 2, "one report per kilocore platform");
        let (r256, r1024) = (&reports[0], &reports[1]);
        assert_eq!(
            r256.rows.len(),
            14 * 2 + 2 * 2,
            "MemPool-256: {{64, 256}} per algorithm + contenders"
        );
        assert_eq!(
            r1024.rows.len(),
            14 * 3 + 2 * 2,
            "MemPool-1024: {{64, 256, 1024}} per algorithm, contenders capped at 256"
        );
        // The contender rows exist at 256 but are deliberately absent at
        // the 1024-core point.
        assert!(r1024.rows.iter().any(|row| row[0] == "SHY-CTR" && row[1] == "256"));
        assert!(!r1024.rows.iter().any(|row| row[0] == "SHY-CTR" && row[1] == "1024"));
        // Every overhead is positive and grows from 64 to the full machine
        // for the centralized scheme (hot-spot growth is the paper's core
        // claim, and it must survive the projection).
        for r in [r256, r1024] {
            assert!(r.rows.iter().all(|row| row[2].parse::<f64>().unwrap() > 0.0));
        }
        let sense64 = overhead(r1024, "SENSE", "64");
        let sense1024 = overhead(r1024, "SENSE", "1024");
        assert!(
            sense1024 > 4.0 * sense64,
            "centralized hot-spot must blow up 64→1024: {sense64} vs {sense1024}"
        );
        // A tournament tree pays log P · layer latency; it must beat the
        // centralized scheme by a wide margin at P=1024.
        let tour1024 = overhead(r1024, "TOUR", "1024");
        assert!(
            tour1024 < sense1024 / 2.0,
            "tree must beat centralized at 1024: {tour1024} vs {sense1024}"
        );
    }
}
