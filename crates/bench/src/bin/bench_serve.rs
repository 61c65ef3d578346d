//! Machine-readable serve throughput: `BENCH_serve.json`.
//!
//! Drives the seeded Zipf multi-tenant load (10k teams of 4 and 3M
//! episodes, or 2k teams and 400k episodes with `--quick`; Zipf s = 0.8
//! episode skew, 1% scripted connection drops, 8 shards) through a fresh
//! [`armbar_serve::Registry`] and records aggregate episodes/sec, sampled
//! episode-latency percentiles, and the per-shard episode balance.
//!
//! ```text
//! bench_serve [--quick] [--out PATH] [--summary PATH]
//! ```
//!
//! The load shape is fixed: the committed keys mean this workload, so a
//! delta against them only means something for the same shape. Explore
//! other shapes with `armbar serve`. An unknown flag or a missing value
//! prints the usage line and exits 2.
//!
//! Same reporting conventions as `bench_sim`/`bench_churn`: one untimed
//! warm-up run, then the best of several timed attempts, a delta versus
//! the committed file on stderr, an optional `--summary` markdown append
//! for the CI step summary, and the committed `baseline` section carried
//! forward. Throughput is the driver's own drive-phase clock (setup is
//! untimed). The per-shard balance is reported as `max/min × 100` so it
//! fits the integral-value JSON convention.

use armbar_bench::report::{self, Point};
use armbar_bench::{best_pass, Args};
use armbar_serve::{run_load, summary_text, LoadConfig};

/// Timed attempts; best throughput wins (outcomes are identical across
/// attempts by the determinism contract, so any attempt's report serves).
const ATTEMPTS: u32 = 3;

fn main() {
    let args = Args::from_env("bench_serve [--quick] [--out PATH] [--summary PATH]");
    let (teams, episodes) =
        if args.has("--quick") { (2_000, 400_000) } else { (10_000, 3_000_000) };
    let cfg = LoadConfig {
        teams,
        members: 4,
        episodes,
        shards: 8,
        zipf: 0.8,
        drop_frac: 0.01,
        seed: 0xBA5E,
        ..LoadConfig::default()
    };

    let one_run = |_| {
        let report = run_load(&cfg);
        eprintln!(
            "run: {:.0} episodes/s (p50 {} ns, p99 {} ns)",
            report.eps, report.p50_ns, report.p99_ns
        );
        report
    };
    let (_, mut runs) = best_pass(ATTEMPTS, 1, one_run, |runs, _| runs[0].eps);
    let report = runs.remove(0);
    eprint!("{}", summary_text(&report));

    let points = vec![
        Point::new("serve_episodes_per_sec", report.eps),
        Point::new("serve_p50_episode_ns", report.p50_ns as f64),
        Point::new("serve_p99_episode_ns", report.p99_ns as f64),
        Point::new("serve_shard_balance_x100", report.shard_balance() * 100.0),
        Point::new("serve_teams", report.outcomes.len() as f64),
    ];
    report::write(
        args.value("--out").unwrap_or("BENCH_serve.json"),
        &points,
        "Serve load bench (non-gating)",
        args.value("--summary"),
        None,
    );
}
