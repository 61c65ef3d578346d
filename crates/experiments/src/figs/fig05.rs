//! Figure 5: OpenMP barrier overhead (µs) of the GCC and LLVM
//! implementations at 32 threads on the three ARMv8 machines and the Intel
//! Xeon Gold reference.
//!
//! The paper's headline motivation: ~2 µs on the Xeon versus up to ~16 µs
//! (GCC on ThunderX2) — an 8× slowdown on comparable clock speeds.

use armbar_core::prelude::*;
use armbar_sweep::SweepPool;
use armbar_topology::Platform;

use crate::report::{us, Report};
use crate::runner::{overhead_ns, topo, Scale};

/// Thread count of the figure.
const P: usize = 32;

/// Runs the Figure 5 comparison.
pub fn run(scale: &Scale) -> Vec<Report> {
    let pool = SweepPool::ambient();
    let mut r = Report::new(
        format!("Figure 5 — GCC vs LLVM barrier overhead at {P} threads (us)"),
        &["platform", "GCC (us)", "LLVM (us)", "GCC vs Xeon"],
    );
    let xeon_gcc = overhead_ns(&pool, &topo(Platform::XeonGold), P, &AlgorithmId::Sense, scale);
    for platform in Platform::ALL {
        let t = topo(platform);
        let gcc = overhead_ns(&pool, &t, P, &AlgorithmId::Sense, scale);
        let llvm = overhead_ns(&pool, &t, P, &AlgorithmId::LlvmHyper, scale);
        r.row(vec![t.name().to_string(), us(gcc), us(llvm), format!("{:.1}x", gcc / xeon_gcc)]);
    }
    r.note("paper: Intel ~2 us; ThunderX2 GCC ~16 us (8x the Intel platform);");
    r.note("LLVM (tree barrier) consistently below GCC (centralized) on ARMv8.");
    vec![r]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(r: &Report, row: usize, col: usize) -> f64 {
        r.rows[row][col].trim_end_matches('x').parse().unwrap()
    }

    #[test]
    fn arm_gcc_is_slower_than_xeon_and_llvm_helps() {
        let r = &run(&Scale::quick())[0];
        assert_eq!(r.rows.len(), 4);
        // Rows: Phytium, ThunderX2, Kunpeng920, Xeon.
        let xeon_gcc = cell(r, 3, 1);
        for arm in 0..3 {
            let gcc = cell(r, arm, 1);
            assert!(gcc > 2.0 * xeon_gcc, "{}: GCC {gcc} vs Xeon {xeon_gcc}", r.rows[arm][0]);
            let llvm = cell(r, arm, 2);
            assert!(llvm < gcc, "{}: LLVM must beat GCC", r.rows[arm][0]);
        }
        // ThunderX2 is the worst GCC platform (paper: 8x slowdown).
        let tx2_ratio = cell(r, 1, 3);
        assert!(tx2_ratio > 4.0, "ThunderX2 ratio {tx2_ratio}");
    }
}
