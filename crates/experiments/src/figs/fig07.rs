//! Figure 7: overhead comparison of the seven barrier algorithms on the
//! three ARMv8 platforms, versus thread count.
//!
//! Panel (a) isolates SENSE (an order of magnitude above the rest); panels
//! (b)–(d) compare DIS/CMB/MCS/TOUR/STOUR/DTOUR per platform. Expected
//! shapes (Section IV-B): SENSE grows ~linearly and dominates everything;
//! MCS loses to CMB past ~8 threads and is clearly worse than TOUR on
//! Kunpeng 920; DIS scales poorly once threads exceed the cluster size;
//! the tournament family performs best, with DTOUR strongest on ThunderX2.

use armbar_core::prelude::*;
use armbar_sweep::SweepPool;
use armbar_topology::Platform;

use crate::report::{us, Report};
use crate::runner::{curve, topo, Scale};

/// Runs Figure 7: one report for SENSE across platforms (panel a) and one
/// per platform for the remaining six algorithms (panels b–d).
pub fn run(scale: &Scale) -> Vec<Report> {
    let pool = SweepPool::ambient();
    let mut out = Vec::new();

    let mut a = Report::new(
        "Figure 7(a) — SENSE overhead vs threads (us)",
        &["threads", "Phytium 2000+", "ThunderX2", "Kunpeng920"],
    );
    let sense: Vec<Vec<(usize, f64)>> = Platform::ARM
        .iter()
        .map(|&pf| curve(&pool, &topo(pf), &AlgorithmId::Sense, scale))
        .collect();
    for (i, &(p, phytium_ns)) in sense[0].iter().enumerate() {
        a.row(vec![p.to_string(), us(phytium_ns), us(sense[1][i].1), us(sense[2][i].1)]);
    }
    a.note("paper: grows linearly with threads; worst on ThunderX2; separated from");
    a.note("the other algorithms because it is several times more expensive.");
    out.push(a);

    const OTHERS: [AlgorithmId; 6] = [
        AlgorithmId::Dissemination,
        AlgorithmId::Combining,
        AlgorithmId::Mcs,
        AlgorithmId::Tournament,
        AlgorithmId::Stour,
        AlgorithmId::Dtour,
    ];
    for (panel, platform) in ["b", "c", "d"].into_iter().zip(Platform::ARM) {
        let t = topo(platform);
        let mut r = Report::new(
            format!("Figure 7({panel}) — algorithms on {} (us)", t.name()),
            &["threads", "DIS", "CMB", "MCS", "TOUR", "STOUR", "DTOUR"],
        );
        let curves: Vec<Vec<(usize, f64)>> =
            OTHERS.iter().map(|&id| curve(&pool, &t, &id, scale)).collect();
        for i in 0..curves[0].len() {
            let mut row = vec![curves[0][i].0.to_string()];
            row.extend(curves.iter().map(|c| us(c[i].1)));
            r.row(row);
        }
        r.note("paper: MCS overtakes CMB beyond ~8 threads; tournament family best;");
        r.note("DIS scales poorly once threads exceed the cluster size N_c.");
        out.push(r);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::overhead_ns;

    #[test]
    fn sense_dominates_every_other_algorithm_at_64() {
        let scale = Scale::quick();
        let pool = SweepPool::ambient();
        for platform in Platform::ARM {
            let t = topo(platform);
            let sense = overhead_ns(&pool, &t, 64, &AlgorithmId::Sense, &scale);
            for id in [AlgorithmId::Dissemination, AlgorithmId::Mcs, AlgorithmId::Stour] {
                let v = overhead_ns(&pool, &t, 64, &id, &scale);
                assert!(sense > 3.0 * v, "{platform:?}: SENSE {sense} vs {id} {v}");
            }
        }
    }

    #[test]
    fn mcs_beats_cmb_small_but_loses_large() {
        let scale = Scale::quick();
        let pool = SweepPool::ambient();
        let t = topo(Platform::Kunpeng920);
        let mcs64 = overhead_ns(&pool, &t, 64, &AlgorithmId::Mcs, &scale);
        let cmb64 = overhead_ns(&pool, &t, 64, &AlgorithmId::Combining, &scale);
        assert!(mcs64 > cmb64, "at 64 threads MCS ({mcs64}) must exceed CMB ({cmb64})");
        let mcs4 = overhead_ns(&pool, &t, 4, &AlgorithmId::Mcs, &scale);
        let cmb4 = overhead_ns(&pool, &t, 4, &AlgorithmId::Combining, &scale);
        assert!(mcs4 <= cmb4 * 1.2, "at 4 threads MCS ({mcs4}) should not trail CMB ({cmb4})");
    }

    #[test]
    fn mcs_clearly_worse_than_tour_on_kunpeng() {
        let scale = Scale::quick();
        let pool = SweepPool::ambient();
        let t = topo(Platform::Kunpeng920);
        let mcs = overhead_ns(&pool, &t, 64, &AlgorithmId::Mcs, &scale);
        let tour = overhead_ns(&pool, &t, 64, &AlgorithmId::Tournament, &scale);
        assert!(mcs > 1.25 * tour, "MCS {mcs} vs TOUR {tour}");
    }

    #[test]
    fn reports_have_expected_shape() {
        let reports = run(&Scale::quick());
        assert_eq!(reports.len(), 4);
        assert!(reports[0].title.contains("SENSE"));
        for r in &reports[1..] {
            assert_eq!(r.columns.len(), 7);
        }
    }
}
