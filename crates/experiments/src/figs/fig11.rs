//! Figure 11: Arrival-Phase optimizations — the original static f-way
//! tournament versus flag padding and the fixed fan-in of 4.
//!
//! Three configurations per platform (Section VI-A):
//! * "static f-way" — balanced fan-ins, packed 32-bit flags (STOUR);
//! * "padding static f-way" — same schedule, one cache line per flag;
//! * "padding static 4-way" — padded flags and fixed fan-in 4.
//!
//! Expected: padding always helps (up to ~1.35× on Kunpeng 920, whose
//! larger lines pack more flags and hence conflict more); the balanced
//! schedule's variable fan-in makes overhead fluctuate with the thread
//! count, which the fixed 4-way smooths out and beats.

use armbar_core::prelude::*;
use armbar_sweep::SweepPool;
use armbar_topology::Platform;

use crate::report::{us, Report};
use crate::runner::{curve, topo, Scale};

/// The three Figure 11 configurations, in figure order.
pub fn configs() -> [(&'static str, FwayConfig); 3] {
    [
        ("static f-way", FwayConfig::stour()),
        ("padding static f-way", FwayConfig { padded_flags: true, ..FwayConfig::stour() }),
        (
            "padding static 4-way",
            FwayConfig { fanin: Fanin::Fixed(4), padded_flags: true, ..FwayConfig::stour() },
        ),
    ]
}

/// Runs Figure 11(a)–(c), one report per ARMv8 platform.
pub fn run(scale: &Scale) -> Vec<Report> {
    let pool = SweepPool::ambient();
    ["a", "b", "c"]
        .into_iter()
        .zip(Platform::ARM)
        .map(|(panel, platform)| {
            let t = topo(platform);
            let mut r = Report::new(
                format!("Figure 11({panel}) — arrival-phase variants on {} (us)", t.name()),
                &["threads", "static f-way", "padding static f-way", "padding static 4-way"],
            );
            let curves: Vec<Vec<(usize, f64)>> =
                configs().iter().map(|(_, c)| curve(&pool, &t, c, scale)).collect();
            for i in 0..curves[0].len() {
                let mut row = vec![curves[0][i].0.to_string()];
                row.extend(curves.iter().map(|c| us(c[i].1)));
                r.row(row);
            }
            r.note("paper: padding helps everywhere (up to 1.35x on Kunpeng920);");
            r.note("fixed fan-in 4 removes the balanced schedule's fluctuation.");
            r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::overhead_ns;

    #[test]
    fn padding_helps_at_full_width() {
        let scale = Scale::quick();
        let pool = SweepPool::ambient();
        let cfgs = configs();
        for platform in Platform::ARM {
            let t = topo(platform);
            let packed = overhead_ns(&pool, &t, 64, &cfgs[0].1, &scale);
            let padded = overhead_ns(&pool, &t, 64, &cfgs[1].1, &scale);
            assert!(padded < packed, "{platform:?}: padded {padded} vs packed {packed}");
        }
    }

    #[test]
    fn padded_4way_beats_padded_fway_at_full_width() {
        let scale = Scale::quick();
        let pool = SweepPool::ambient();
        let cfgs = configs();
        for platform in Platform::ARM {
            let t = topo(platform);
            let fway = overhead_ns(&pool, &t, 64, &cfgs[1].1, &scale);
            let four = overhead_ns(&pool, &t, 64, &cfgs[2].1, &scale);
            assert!(four <= fway * 1.05, "{platform:?}: 4-way {four} vs f-way {fway}");
        }
    }

    #[test]
    fn kunpeng_padding_gain_is_largest() {
        // The paper attributes the biggest padding speedup to Kunpeng 920's
        // wider cache lines (more flags per line → more conflicts).
        let scale = Scale::quick();
        let pool = SweepPool::ambient();
        let cfgs = configs();
        let gain = |pf: Platform| {
            let t = topo(pf);
            overhead_ns(&pool, &t, 64, &cfgs[0].1, &scale)
                / overhead_ns(&pool, &t, 64, &cfgs[1].1, &scale)
        };
        let kp = gain(Platform::Kunpeng920);
        assert!(kp > 1.1, "Kunpeng padding gain {kp}");
    }

    #[test]
    fn three_panels_produced() {
        let reports = run(&Scale::quick());
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert_eq!(r.columns.len(), 4);
        }
    }
}
