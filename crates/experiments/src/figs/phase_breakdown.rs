//! Phase breakdown (extension analysis): attributing each barrier
//! episode's cost to the paper's Arrival-Phase and Notification-Phase.
//!
//! The paper optimizes the two phases separately (Sections V-B and V-C);
//! this report shows where the time actually goes in the simulated
//! episodes — e.g. that SENSE is arrival-dominated (the serialized RMW
//! storm) while the optimized barrier splits its much smaller budget
//! roughly evenly, and that switching wake-ups moves only the
//! notification share.

use std::sync::Arc;

use armbar_core::prelude::*;
use armbar_epcc::{trace_episodes, OverheadConfig};
use armbar_simcoh::Arena;
use armbar_topology::Platform;

use crate::report::{us, Report};
use crate::runner::{topo, Scale};

/// Thread count analyzed.
const P: usize = 64;

/// Measured episodes in the per-episode trace table.
const TRACE_EPISODES: u32 = 4;

/// Runs the phase-breakdown report plus a per-episode trace table
/// (timings and coherence-op counters for every measured episode).
pub fn run(_scale: &Scale) -> Vec<Report> {
    let mut r = Report::new(
        format!("Phase breakdown at {P} threads (us)"),
        &["platform", "algorithm", "arrival", "notification", "arrival share"],
    );
    for platform in Platform::ARM {
        let t = topo(platform);
        for id in [
            AlgorithmId::Sense,
            AlgorithmId::Stour,
            AlgorithmId::Padded4Way,
            AlgorithmId::Optimized,
        ] {
            let mut arena = Arena::new();
            let barrier: Arc<dyn Barrier> = Arc::from(id.build(&mut arena, P, &t));
            let cfg = OverheadConfig { warmup: 4, episodes: 1, ..OverheadConfig::default() };
            let tr = trace_episodes(&t, P, barrier, cfg).unwrap().pop().unwrap();
            let (Some(arrival), Some(notification)) = (tr.arrival_ns(), tr.notification_ns())
            else {
                continue;
            };
            r.row(vec![
                t.name().to_string(),
                id.label().to_string(),
                us(arrival),
                us(notification),
                format!("{:.0}%", 100.0 * arrival / (arrival + notification)),
            ]);
        }
    }
    r.note("arrival = last entry → champion sees the last arrival;");
    r.note("notification = champion's release → last thread leaves.");
    vec![r, episode_trace_report()]
}

/// Per-episode trace of SENSE vs. the optimized barrier: where the paper's
/// headline speedup comes from, episode by episode — SENSE pays thousands
/// of RFO invalidations and write stalls per episode, OPT a few hundred.
fn episode_trace_report() -> Report {
    let mut r = Report::new(
        format!("Per-episode trace at {P} threads"),
        &[
            "platform",
            "algorithm",
            "episode",
            "arrival",
            "notification",
            "remote reads",
            "RFO invals",
            "stalls",
            "wakeups",
        ],
    );
    for platform in Platform::ARM {
        let t = topo(platform);
        for id in [AlgorithmId::Sense, AlgorithmId::Optimized] {
            let mut arena = Arena::new();
            let barrier: Arc<dyn Barrier> = Arc::from(id.build(&mut arena, P, &t));
            let cfg = OverheadConfig { episodes: TRACE_EPISODES, ..OverheadConfig::default() };
            let traces = trace_episodes(&t, P, barrier, cfg).unwrap();
            for tr in &traces {
                let c = &tr.counters;
                r.row(vec![
                    t.name().to_string(),
                    id.label().to_string(),
                    tr.episode.to_string(),
                    tr.arrival_ns().map(us).unwrap_or_default(),
                    tr.notification_ns().map(us).unwrap_or_default(),
                    c.remote_reads.to_string(),
                    c.rfo_invalidations.to_string(),
                    (c.read_stalls + c.write_stalls).to_string(),
                    c.spin_wakeups.to_string(),
                ]);
            }
        }
    }
    r.note("times in us; counters are machine-wide deltas attributed per episode.");
    r.note("same data as `armbar trace --format csv`, for the report archive.");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_all_platforms_and_marked_algorithms() {
        let r = &run(&Scale::quick())[0];
        assert_eq!(r.rows.len(), 12); // 3 platforms × 4 marked algorithms
    }

    #[test]
    fn episode_trace_table_shows_opt_doing_less_coherence_work() {
        let r = episode_trace_report();
        // 3 platforms × 2 algorithms × TRACE_EPISODES episodes.
        assert_eq!(r.rows.len(), 3 * 2 * TRACE_EPISODES as usize);
        for platform in ["Phytium 2000+", "ThunderX2", "Kunpeng920"] {
            let invals = |alg: &str| -> u64 {
                r.rows
                    .iter()
                    .filter(|row| row[0] == platform && row[1] == alg)
                    .map(|row| row[6].parse::<u64>().unwrap())
                    .sum()
            };
            assert!(
                invals("SENSE") > invals("OPT"),
                "{platform}: SENSE {} vs OPT {}",
                invals("SENSE"),
                invals("OPT")
            );
        }
    }

    #[test]
    fn sense_is_arrival_dominated_everywhere() {
        let r = &run(&Scale::quick())[0];
        for row in r.rows.iter().filter(|row| row[1] == "SENSE") {
            let share: f64 = row[4].trim_end_matches('%').parse().unwrap();
            assert!(share > 55.0, "{row:?}");
        }
    }

    #[test]
    fn optimized_total_is_far_below_sense_total() {
        let r = &run(&Scale::quick())[0];
        for platform in ["Phytium 2000+", "ThunderX2", "Kunpeng920"] {
            let total = |alg: &str| -> f64 {
                let row = r.rows.iter().find(|row| row[0] == platform && row[1] == alg).unwrap();
                row[2].parse::<f64>().unwrap() + row[3].parse::<f64>().unwrap()
            };
            assert!(total("SENSE") > 4.0 * total("OPT"), "{platform}");
        }
    }
}
