//! Figure 13: overhead of the (padded) static f-way tournament with
//! different fan-ins at 64 threads.
//!
//! The paper sweeps the fan-in and finds the minimum at `f = 4` on all
//! three platforms — the empirical confirmation of the Eq. 1/2 model,
//! which brackets the continuous optimum in `[e, 3.59]` and prefers the
//! power of two for cluster alignment.

use armbar_core::prelude::*;
use armbar_model::optimal_fanin_int;
use armbar_sweep::SweepPool;
use armbar_topology::Platform;

use crate::report::{us, Report};
use crate::runner::{overhead_ns, topo, Scale};

/// Thread count of the figure.
const P: usize = 64;
/// Fan-ins swept (power-of-two ladder up to the machine width).
pub const FANINS: [usize; 6] = [2, 4, 8, 16, 32, 64];

/// Runs the Figure 13 fan-in sweep.
pub fn run(scale: &Scale) -> Vec<Report> {
    let pool = SweepPool::ambient();
    let mut r = Report::new(
        format!("Figure 13 — static f-way tournament by fan-in at {P} threads (us)"),
        &["fan-in", "Phytium 2000+", "ThunderX2", "Kunpeng920"],
    );
    let mut curves: Vec<Vec<f64>> = Vec::new();
    for platform in Platform::ARM {
        let t = topo(platform);
        curves.push(
            FANINS
                .iter()
                .map(|&f| {
                    overhead_ns(
                        &pool,
                        &t,
                        P,
                        &FwayConfig {
                            fanin: Fanin::Fixed(f),
                            padded_flags: true,
                            ..FwayConfig::stour()
                        },
                        scale,
                    )
                })
                .collect(),
        );
    }
    for (i, &f) in FANINS.iter().enumerate() {
        r.row(vec![f.to_string(), us(curves[0][i]), us(curves[1][i]), us(curves[2][i])]);
    }
    for platform in Platform::ARM {
        let t = topo(platform);
        r.note(format!(
            "Eq. 1 model for {}: optimal integer fan-in = {}",
            t.name(),
            optimal_fanin_int(&t, P)
        ));
    }
    r.note("paper: the sweep's minimum sits at fan-in 4 on all three platforms.");
    vec![r]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimum_is_at_fanin_4_on_every_platform() {
        let r = &run(&Scale::quick())[0];
        for col in 1..=3 {
            let vals: Vec<f64> = r.rows.iter().map(|row| row[col].parse().unwrap()).collect();
            let min_idx = vals.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
            assert_eq!(
                FANINS[min_idx], 4,
                "platform column {col}: minimum at fan-in {} ({vals:?})",
                FANINS[min_idx]
            );
        }
    }

    #[test]
    fn model_agrees_with_sweep() {
        for platform in Platform::ARM {
            let t = topo(platform);
            assert_eq!(optimal_fanin_int(&t, P), 4);
        }
    }
}
