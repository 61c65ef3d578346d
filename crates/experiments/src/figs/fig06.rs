//! Figure 6: barrier overhead of the GNU GCC (a) and LLVM (b) OpenMP
//! implementations versus thread count on the three ARMv8 machines.
//!
//! Expected shapes: GCC grows steeply with threads everywhere (worst on
//! ThunderX2 at full width); LLVM's tree barrier cuts the 64-thread
//! overhead by several times (the paper reports 3× on Phytium 2000+ and
//! 10× on ThunderX2); Kunpeng 920 fluctuates visibly in both.

use armbar_core::prelude::*;
use armbar_sweep::SweepPool;
use armbar_topology::Platform;

use crate::report::{us, Report};
use crate::runner::{curve, topo, Scale};

/// Runs Figure 6(a) (GCC) and 6(b) (LLVM).
pub fn run(scale: &Scale) -> Vec<Report> {
    let pool = SweepPool::ambient();
    [("a", "GNU GCC", AlgorithmId::Sense), ("b", "LLVM", AlgorithmId::LlvmHyper)]
        .into_iter()
        .map(|(panel, name, id)| {
            let mut r = Report::new(
                format!("Figure 6({panel}) — {name} OpenMP barrier overhead vs threads (us)"),
                &["threads", "Phytium 2000+", "ThunderX2", "Kunpeng920"],
            );
            let curves: Vec<Vec<(usize, f64)>> =
                Platform::ARM.iter().map(|&pf| curve(&pool, &topo(pf), &id, scale)).collect();
            for (i, &(p, _)) in curves[0].iter().enumerate() {
                r.row(vec![
                    p.to_string(),
                    us(curves[0][i].1),
                    us(curves[1][i].1),
                    us(curves[2][i].1),
                ]);
            }
            r.note(match panel {
                "a" => {
                    "paper: overhead rises with threads; Kunpeng920 fluctuates; \
                        Phytium 2000+ is the best GCC platform at full width"
                }
                _ => {
                    "paper: LLVM reduces the 64-thread overhead by ~3x (Phytium) \
                      and ~10x (ThunderX2) vs GCC"
                }
            });
            r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcc_grows_and_llvm_beats_it_at_scale() {
        let reports = run(&Scale::quick());
        let (gcc, llvm) = (&reports[0], &reports[1]);
        let last = gcc.rows.len() - 1;
        for col in 1..=3 {
            let g1: f64 = gcc.rows[0][col].parse().unwrap();
            let g64: f64 = gcc.rows[last][col].parse().unwrap();
            assert!(g64 > 4.0 * g1.max(0.05), "GCC must scale poorly (col {col})");
            let l64: f64 = llvm.rows[last][col].parse().unwrap();
            assert!(l64 < g64 / 2.0, "LLVM must clearly beat GCC at 64 (col {col})");
        }
    }
}
