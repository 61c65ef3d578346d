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
//!
//! Three more keys take a serve episode apart on teams of 4 (same
//! best-of-attempts loop, fresh teams per repetition):
//!
//! * `serve_hot_episode_ns` — four `Conn::arrive` then four `Conn::wait`
//!   on one team, which stays in cache;
//! * `serve_bare_episode_ns` — the same episode as bare PH-CTR calls, four
//!   `CentralPhaser::arrive_claim` then four `completed` reads through
//!   `HostMem::view`, with no registry, wakeup path or counters;
//! * `serve_cold_episode_ns` — the `Conn` episode again, one per visit,
//!   over 10k teams visited in a seeded shuffled order, so most visits
//!   find the team's lines out of cache. `run_load` drives team after
//!   team and the hot key one team, so neither sees this cost.
//!
//! The hot–bare difference is what serve adds to the phaser it runs on;
//! the cold–hot difference is what fetching a cold tenant's lines costs.
//! Like every key in this file they are informational, never gated: a
//! shared runner's timing measures the runner, and nanosecond-scale loops
//! on one core swing with its neighbours. Their ratios, measured in one
//! run, are the numbers to read.

use std::time::Instant;

use armbar_bench::report::{self, Point};
use armbar_bench::{best_pass, Args};
use armbar_core::host::HostMem;
use armbar_core::phaser::CentralPhaser;
use armbar_serve::{run_load, summary_text, Conn, LoadConfig, Registry, TeamConfig};
use armbar_simcoh::rng::SplitMix64;
use armbar_simcoh::Arena;

/// Timed attempts; best throughput wins (outcomes are identical across
/// attempts by the determinism contract, so any attempt's report serves).
const ATTEMPTS: u32 = 3;

/// Members of every team the per-episode keys drive, and the episodes
/// one repetition drives (well inside a phaser's epoch space).
const MEMBERS: usize = 4;
const EPISODES: u32 = 200_000;

/// Teams the cold key visits in turn: as many as the full load has.
const COLD_TEAMS: usize = 10_000;

/// Best-of-[`ATTEMPTS`] nanoseconds per episode of `episodes(n)`, which
/// drives `n` episodes of fresh teams and returns their wall seconds.
fn episode_ns(mut episodes: impl FnMut(u32) -> f64) -> f64 {
    let per_sec = |secs: &[f64], _| f64::from(EPISODES) / secs[0];
    let (best, _) = best_pass(ATTEMPTS, 1, |_| episodes(EPISODES), per_sec);
    1e9 / best
}

/// One hot team driven through its connections.
fn hot_episodes(n: u32) -> f64 {
    let registry = Registry::new(1, TeamConfig::default());
    let team = registry.register("hot", MEMBERS).expect("fresh registry");
    let conns: Vec<Conn> = (0..MEMBERS).map(|_| team.connect().expect("free slot")).collect();
    let t0 = Instant::now();
    for ep in 1..=n {
        for c in &conns {
            assert_eq!(c.arrive().expect("live member"), ep);
        }
        for c in &conns {
            c.wait(ep).expect("released");
        }
    }
    t0.elapsed().as_secs_f64()
}

/// `n` episodes, one per visit, over [`COLD_TEAMS`] teams visited in a
/// seeded Fisher–Yates shuffle of `n / COLD_TEAMS` rounds (registration
/// and the shuffle are untimed).
fn cold_episodes(n: u32) -> f64 {
    let registry = Registry::new(8, TeamConfig::default());
    let conns: Vec<Conn> = (0..COLD_TEAMS)
        .flat_map(|i| {
            let team = registry.register(&format!("cold-{i:05}"), MEMBERS).expect("fresh");
            (0..MEMBERS).map(move |_| team.connect().expect("free slot"))
        })
        .collect();
    let mut order: Vec<u32> = (0..n).map(|k| k % COLD_TEAMS as u32).collect();
    let mut rng = SplitMix64::new(0xC01D);
    for i in (1..order.len()).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let t0 = Instant::now();
    for &team in &order {
        let members = &conns[team as usize * MEMBERS..][..MEMBERS];
        let mut epoch = 0;
        for c in members {
            epoch = c.arrive().expect("live member");
        }
        for c in members {
            c.wait(epoch).expect("released");
        }
    }
    t0.elapsed().as_secs_f64()
}

/// The same episodes as bare PH-CTR calls on a packed host phaser.
fn bare_episodes(n: u32) -> f64 {
    let mut arena = Arena::new();
    let phaser = CentralPhaser::packed(&mut arena, MEMBERS);
    let mem = HostMem::new(&arena);
    let t0 = Instant::now();
    for ep in 1..=n {
        for slot in 0..MEMBERS {
            let (e, _) = phaser.arrive_claim(&mem.view(slot, MEMBERS)).expect("member");
            assert_eq!(e, ep);
        }
        for slot in 0..MEMBERS {
            assert!(phaser.completed(&mem.view(slot, MEMBERS)) >= ep, "released");
        }
    }
    t0.elapsed().as_secs_f64()
}

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
    let (hot_ns, bare_ns) = (episode_ns(hot_episodes), episode_ns(bare_episodes));
    eprintln!("hot team of {MEMBERS}: {hot_ns:.0} ns/episode via Conn, {bare_ns:.0} ns bare");
    let cold_ns = episode_ns(cold_episodes);
    eprintln!("{COLD_TEAMS} cold teams of {MEMBERS}: {cold_ns:.0} ns/episode via Conn");

    let points = vec![
        Point::new("serve_episodes_per_sec", report.eps),
        Point::new("serve_p50_episode_ns", report.p50_ns as f64),
        Point::new("serve_p99_episode_ns", report.p99_ns as f64),
        Point::new("serve_shard_balance_x100", report.shard_balance() * 100.0),
        Point::new("serve_teams", report.outcomes.len() as f64),
        Point::new("serve_hot_episode_ns", hot_ns),
        Point::new("serve_bare_episode_ns", bare_ns),
        Point::new("serve_cold_episode_ns", cold_ns),
    ];
    report::write(
        args.value("--out").unwrap_or("BENCH_serve.json"),
        &points,
        "Serve load bench (non-gating)",
        args.value("--summary"),
        None,
    );
}
