//! Machine-readable phaser churn trajectory: `BENCH_churn.json`.
//!
//! Measures wall-clock episode throughput (simulated episodes per second
//! through the rendezvous scheduler) of both phasers at P = 64 on the
//! paper's Kunpeng preset, in two regimes: a steady team and a 10%-churn
//! team (one slot flaps — orderly leave, one epoch out, rejoin — every ten
//! epochs). The workload is byte-for-byte the churn experiment's worker
//! (`armbar_experiments::figs::churn::churn_run_ns`), so the bench prices
//! exactly what the `churn` CSV sweep prices, just in wall seconds.
//!
//! ```text
//! bench_churn [--out PATH] [--summary PATH]
//! ```
//!
//! An unknown flag or a missing value prints the usage line and exits 2.
//!
//! Unlike `bench_sim`, this file is *informational* — CI publishes it in
//! the non-blocking bench summary and never gates on it: churn throughput
//! tracks boundary-commit cost, which the blocking `engine_ops_per_sec_*`
//! gate already covers upstream. If the output file already exists, its
//! `baseline` section is carried forward (new keys seeded from the fresh
//! run) so the pre-phaser reference stays next to the current numbers.

use std::sync::Arc;

use armbar_bench::report::{self, Point};
use armbar_bench::{best_pass, Args};
use armbar_core::registry::AlgorithmId;
use armbar_experiments::figs::churn::churn_run_ns;
use armbar_topology::{Platform, Topology};

/// Episodes per run: long enough for a period-10 flap to complete several
/// full cycles, short enough that one attempt stays O(100 ms) at P = 64.
const EPISODES: u32 = 40;
/// Independently seeded runs per timed attempt.
const REPS: u64 = 4;
/// Timed attempts; best is reported.
const ATTEMPTS: u32 = 5;

/// Simulated episodes completed per wall-second.
fn churn_point(id: AlgorithmId, p: usize, period: Option<u32>) -> Point {
    let topo = Arc::new(Topology::preset(Platform::Kunpeng920));
    let one_rep = |rep: u64| churn_run_ns(&topo, p, id, period, EPISODES, 0x5EED ^ rep);
    let (episodes_per_sec, _) = best_pass(ATTEMPTS, REPS, one_rep, |runs, secs| {
        (runs.len() as u64 * u64::from(EPISODES)) as f64 / secs
    });
    let regime = match period {
        None => "steady".to_string(),
        Some(per) => format!("churn{}", 100 / per),
    };
    let key = format!("episodes_per_sec_{}_p{p}_{regime}", id.label().to_ascii_lowercase());
    eprintln!("{key:>36}: {episodes_per_sec:>10.0} episodes/s");
    Point::new(key, episodes_per_sec)
}

fn main() {
    let args = Args::from_env("bench_churn [--out PATH] [--summary PATH]");

    let mut points = Vec::new();
    for id in AlgorithmId::PHASERS {
        for period in [None, Some(10u32)] {
            points.push(churn_point(id, 64, period));
        }
    }
    // Informational only — there is no gate flag on purpose.
    report::write(
        args.value("--out").unwrap_or("BENCH_churn.json"),
        &points,
        "Phaser churn bench (non-blocking)",
        args.value("--summary"),
        None,
    );
}
