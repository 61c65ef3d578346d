//! The seeded Zipf load driver behind `BENCH_serve.json` and the
//! `armbar serve` subcommand.
//!
//! A load run replays a deterministic plan against a fresh [`Registry`]:
//! `teams` named teams of `members` connections each, with the total
//! episode budget spread by a seeded Zipf draw (heavy-tailed tenant skew
//! — a few hot teams, a long cold tail) and a seeded fraction of teams
//! suffering a connection drop mid-run, scripted by the faults crate's
//! [`ChurnPlan`] crash-evict scenario.
//!
//! Determinism contract (pinned by `tests/serve_determinism.rs` and the
//! `serve-smoke` CI job): every per-tenant *outcome* — episodes, arrival
//! counts, proxy arrivals, drops, final status — is a pure function of
//! the seeded plan. Each team is driven whole by exactly one worker, so
//! neither the worker count nor the shard count can change an outcome;
//! [`outcome_csv`] is byte-identical at any `--shards`/`--jobs`. Only
//! wall-clock aggregates (episodes/sec, latency percentiles, wakeup
//! counters) vary run to run, and those are reported separately.
//!
//! Episode drive is split-phase, the shape a batching server actually
//! sees: the worker fires all of a team's arrivals back-to-back (N
//! fetch-adds on the team's arrival counter), the filling arrival commits and
//! flushes, and the trailing waits are satisfied reads. Cross-team
//! blocking still happens whenever drops and evictions reshape a team.

use std::time::{Duration, Instant};

use armbar_core::phaser::EPOCH_LIMIT;
use armbar_faults::{ChurnPlan, Scenario};
use armbar_simcoh::rng::SplitMix64;

use crate::registry::{Registry, WakeStats};
use crate::team::{Conn, TeamConfig, TeamMetrics};

/// Seed-stream separators, one per independent draw family (same
/// discipline as the faults crate's scenario mixing).
const MIX_EPISODES: u64 = 0xE915_0DE5;
const MIX_DROPS: u64 = 0xD209_0CCA;

/// Everything a load run needs; a pure value, so two runs with equal
/// configs replay the same plan.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Number of tenant teams.
    pub teams: usize,
    /// Connections per team.
    pub members: usize,
    /// Registry shards.
    pub shards: usize,
    /// Total episodes across all teams (Zipf-split between them).
    pub episodes: u64,
    /// Zipf skew exponent: team `i` draws weight `(i+1)^-zipf`.
    pub zipf: f64,
    /// Fraction of (droppable) teams that lose one connection mid-run.
    pub drop_frac: f64,
    /// Master seed for the episode split and the drop scripts.
    pub seed: u64,
    /// Driver worker threads; 0 = the sweep-pool ambient default.
    pub workers: usize,
    /// Per-epoch deadline stamped onto every team.
    pub deadline: Duration,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            teams: 256,
            members: 4,
            shards: 8,
            episodes: 25_600,
            zipf: 0.8,
            drop_frac: 0.02,
            seed: 0xBA5E,
            workers: 0,
            deadline: Duration::from_secs(10),
        }
    }
}

/// One team's slice of the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TeamPlan {
    /// Barrier episodes this team drives.
    pub episodes: u32,
    /// `(victim slot, epoch)` of a scripted connection drop, if any.
    pub drop: Option<(usize, u32)>,
}

/// The driven outcome of one team — all fields deterministic.
#[derive(Debug, Clone)]
pub struct TeamOutcome {
    /// Registered team name (`team-00042` style, stable across runs).
    pub name: String,
    /// Members the team was registered with.
    pub members: usize,
    /// Per-tenant counters at the end of the run.
    pub metrics: TeamMetrics,
    /// `"ok"`, `"degraded"` or `"poisoned"`.
    pub status: &'static str,
}

/// The full result of a load run.
pub struct LoadReport {
    /// Per-team outcomes, in team order (deterministic).
    pub outcomes: Vec<TeamOutcome>,
    /// Total episodes driven (the plan total).
    pub episodes: u64,
    /// Wall time of the drive phase.
    pub wall: Duration,
    /// Episodes per wall-second.
    pub eps: f64,
    /// Sampled episode-latency percentiles, in nanoseconds.
    pub p50_ns: u64,
    /// 99th percentile of the same samples.
    pub p99_ns: u64,
    /// Driven episodes per registry shard (plan + hash determined).
    pub shard_episodes: Vec<u64>,
    /// Wakeup-path counters (timing-dependent; summary only).
    pub wake: WakeStats,
}

impl LoadReport {
    /// max/min per-shard episode ratio — the balance the name hash buys.
    /// 1.0 is perfect; the acceptance bar is 2.0.
    pub fn shard_balance(&self) -> f64 {
        let max = self.shard_episodes.iter().copied().max().unwrap_or(0);
        let min = self.shard_episodes.iter().copied().min().unwrap_or(0);
        if min == 0 {
            f64::INFINITY
        } else {
            max as f64 / min as f64
        }
    }
}

/// Stable tenant name for team index `i`.
pub fn team_name(i: usize) -> String {
    format!("team-{i:05}")
}

/// Splits `cfg.episodes` across teams by a seeded Zipf draw and scripts
/// the connection drops. Pure function of the config.
pub fn plan(cfg: &LoadConfig) -> Vec<TeamPlan> {
    assert!(cfg.teams >= 1, "need at least one team");
    assert!(cfg.zipf >= 0.0, "zipf exponent must be non-negative");
    // Zipf weights and their running sum (for inverse-CDF sampling).
    let mut cumulative = Vec::with_capacity(cfg.teams);
    let mut total = 0.0f64;
    for i in 0..cfg.teams {
        total += ((i + 1) as f64).powf(-cfg.zipf);
        cumulative.push(total);
    }
    let mut episodes = vec![0u32; cfg.teams];
    let mut rng = SplitMix64::new(cfg.seed ^ MIX_EPISODES);
    for _ in 0..cfg.episodes {
        let r = rng.next_f64() * total;
        let idx = cumulative.partition_point(|&c| c <= r).min(cfg.teams - 1);
        episodes[idx] += 1;
    }
    // A team's phaser commits at most `EPOCH_LIMIT` epochs.
    let top = episodes.iter().copied().max().unwrap_or(0);
    assert!(top < EPOCH_LIMIT, "hottest team would exhaust its epoch space ({top} episodes)");
    episodes
        .into_iter()
        .enumerate()
        .map(|(i, eps)| {
            // Droppable: needs a survivor and an epoch to desert at.
            let droppable = cfg.members >= 2 && eps >= 2;
            let dropped = droppable
                && SplitMix64::new(cfg.seed ^ MIX_DROPS ^ (i as u64)).next_f64() < cfg.drop_frac;
            let drop = dropped.then(|| {
                // Reuse the churn scripting: the crash-evict scenario picks
                // the victim slot and the epoch it deserts at.
                let churn = ChurnPlan::scenario(
                    Scenario::CrashEvict,
                    cfg.seed ^ (i as u64),
                    cfg.members,
                    eps,
                );
                let victim = churn.victim();
                let at = churn.script(victim).desert_at.expect("crash-evict scripts a desertion");
                (victim, at.min(eps))
            });
            TeamPlan { episodes: eps, drop }
        })
        .collect()
}

/// Drives the plan for one team: split-phase arrivals, a scripted drop,
/// a graceful drain. Returns sampled episode latencies (ns).
fn drive_team(conns: &mut Vec<Option<Conn>>, plan: &TeamPlan, samples: &mut Vec<u64>) {
    for ep in 1..=plan.episodes {
        if let Some((victim, at)) = plan.drop {
            if ep == at {
                conns[victim] = None; // abrupt: Drop proxies the slot out
            }
        }
        let sample = ep % 64 == 1;
        let t0 = sample.then(Instant::now);
        for conn in conns.iter().flatten() {
            // A dropped team completes degraded; survivors never error.
            conn.arrive().expect("live member failed to arrive");
        }
        for conn in conns.iter().flatten() {
            conn.wait(ep).expect("live member failed to release");
        }
        if let Some(t0) = t0 {
            samples.push(t0.elapsed().as_nanos() as u64);
        }
    }
    for conn in conns.drain(..).flatten() {
        conn.close();
    }
}

/// Runs the full load: registers every team, partitions them round-robin
/// over the workers, drives all episodes, and collects outcomes.
pub fn run_load(cfg: &LoadConfig) -> LoadReport {
    let plans = plan(cfg);
    let registry = Registry::new(cfg.shards, TeamConfig { deadline: cfg.deadline });
    // Setup (untimed): register teams, attach connections.
    let mut teams = Vec::with_capacity(cfg.teams);
    let mut conns: Vec<Vec<Option<Conn>>> = Vec::with_capacity(cfg.teams);
    for i in 0..cfg.teams {
        let team = registry.register(&team_name(i), cfg.members).expect("fresh registry");
        conns.push((0..cfg.members).map(|_| team.connect()).collect());
        teams.push(team);
    }
    let workers = if cfg.workers == 0 {
        armbar_sweep::SweepPool::ambient().workers()
    } else {
        cfg.workers.min(armbar_sweep::available_parallelism())
    };
    // Drive (timed): each worker owns the teams `i % workers == w`.
    let t0 = Instant::now();
    let mut lanes: Vec<Vec<u64>> = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        let plans = &plans;
        for chunk in partition(conns, workers) {
            handles.push(s.spawn(move || {
                let mut samples = Vec::new();
                for (i, mut team_conns) in chunk {
                    drive_team(&mut team_conns, &plans[i], &mut samples);
                }
                samples
            }));
        }
        lanes = handles.into_iter().map(|h| h.join().expect("load worker panicked")).collect();
    });
    let wall = t0.elapsed();

    let mut samples: Vec<u64> = lanes.concat();
    samples.sort_unstable();
    let pct = |p: f64| {
        if samples.is_empty() {
            0
        } else {
            samples[((samples.len() - 1) as f64 * p) as usize]
        }
    };
    let mut shard_episodes = vec![0u64; cfg.shards];
    let outcomes: Vec<TeamOutcome> = teams
        .iter()
        .map(|t| {
            let m = t.metrics();
            shard_episodes[t.shard()] += m.episodes;
            TeamOutcome {
                name: t.name().to_string(),
                members: t.capacity(),
                metrics: m,
                status: t.status(),
            }
        })
        .collect();
    let episodes: u64 = plans.iter().map(|p| u64::from(p.episodes)).sum();
    LoadReport {
        outcomes,
        episodes,
        eps: episodes as f64 / wall.as_secs_f64().max(1e-9),
        wall,
        p50_ns: pct(0.50),
        p99_ns: pct(0.99),
        shard_episodes,
        wake: registry.wake_stats(),
    }
}

/// Round-robin split of `(index, item)` pairs into `workers` lanes.
fn partition<T>(items: Vec<T>, workers: usize) -> Vec<Vec<(usize, T)>> {
    let workers = workers.max(1);
    let mut lanes: Vec<Vec<(usize, T)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        lanes[i % workers].push((i, item));
    }
    lanes
}

/// The deterministic per-tenant outcome table: byte-identical at any
/// shard or worker count (it deliberately carries no shard column and no
/// timing). This is the artifact the CI byte-diff pins.
pub fn outcome_csv(report: &LoadReport) -> String {
    let mut out =
        String::from("team,members,episodes,arrivals,proxy_arrivals,drops,evictions,status\n");
    for o in &report.outcomes {
        let m = &o.metrics;
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            o.name,
            o.members,
            m.episodes,
            m.arrivals,
            m.proxy_arrivals,
            m.drops,
            m.evictions,
            o.status
        ));
    }
    out
}

/// The same per-tenant table as a JSON document (deterministic, same
/// contract as [`outcome_csv`]).
pub fn outcome_json(report: &LoadReport) -> String {
    let mut out = String::from("{\n  \"tenants\": [\n");
    for (i, o) in report.outcomes.iter().enumerate() {
        let m = &o.metrics;
        let sep = if i + 1 == report.outcomes.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"team\": \"{}\", \"members\": {}, \"episodes\": {}, \"arrivals\": {}, \
             \"proxy_arrivals\": {}, \"drops\": {}, \"evictions\": {}, \"status\": \"{}\"}}{sep}\n",
            o.name,
            o.members,
            m.episodes,
            m.arrivals,
            m.proxy_arrivals,
            m.drops,
            m.evictions,
            o.status
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Human summary of the run's wall-clock aggregates (stderr material —
/// everything here is timing-dependent and excluded from the CSV).
pub fn summary_text(report: &LoadReport) -> String {
    let degraded = report.outcomes.iter().filter(|o| o.status == "degraded").count();
    format!(
        "serve load: {} episodes across {} teams in {:.3} s => {:.0} episodes/s\n\
         episode latency: p50 {} ns, p99 {} ns (sampled every 64th episode)\n\
         shard episodes: {:?} (balance {:.2}x)\n\
         wakeups: {} broadcast, {} elided (nobody parked), {} coalesced; degraded teams: {}\n",
        report.episodes,
        report.outcomes.len(),
        report.wall.as_secs_f64(),
        report.eps,
        report.p50_ns,
        report.p99_ns,
        report.shard_episodes,
        report.shard_balance(),
        report.wake.flushes,
        report.wake.elided,
        report.wake.coalesced,
        degraded,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> LoadConfig {
        LoadConfig {
            teams: 40,
            members: 4,
            shards: 4,
            episodes: 2_000,
            drop_frac: 0.25,
            workers: 2,
            ..LoadConfig::default()
        }
    }

    #[test]
    fn plan_is_deterministic_and_conserves_episodes() {
        let cfg = small();
        let a = plan(&cfg);
        let b = plan(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.iter().map(|p| u64::from(p.episodes)).sum::<u64>(), cfg.episodes);
        // A different seed reshuffles the split.
        let c = plan(&LoadConfig { seed: 1, ..cfg });
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_skew_front_loads_the_split() {
        let cfg = LoadConfig { teams: 100, episodes: 100_000, ..small() };
        let p = plan(&cfg);
        let head: u64 = p[..10].iter().map(|t| u64::from(t.episodes)).sum();
        assert!(
            head > cfg.episodes / 4,
            "zipf(0.8) head-10 share too small: {head}/{}",
            cfg.episodes
        );
        assert!(p[0].episodes > p[99].episodes, "rank 1 must out-draw rank 100");
    }

    #[test]
    fn drops_are_scripted_within_bounds() {
        let p = plan(&small());
        let dropped: Vec<_> = p.iter().filter(|t| t.drop.is_some()).collect();
        assert!(!dropped.is_empty(), "25% drop fraction must script some drops");
        for t in dropped {
            let (victim, at) = t.drop.unwrap();
            assert!(victim < 4);
            assert!(at >= 1 && at <= t.episodes);
        }
    }

    #[test]
    fn outcomes_identical_across_shard_and_worker_counts() {
        let base = small();
        let reference = outcome_csv(&run_load(&base));
        for (shards, workers) in [(1, 1), (7, 3), (4, 4)] {
            let got = outcome_csv(&run_load(&LoadConfig { shards, workers, ..base.clone() }));
            assert_eq!(got, reference, "outcome CSV must not depend on shards/workers");
        }
        let json = outcome_json(&run_load(&base));
        assert_eq!(json, outcome_json(&run_load(&LoadConfig { shards: 2, ..base.clone() })));
    }

    #[test]
    fn outcomes_match_the_plan() {
        let cfg = small();
        let plans = plan(&cfg);
        let report = run_load(&cfg);
        assert_eq!(report.episodes, cfg.episodes);
        assert_eq!(report.shard_episodes.iter().sum::<u64>(), cfg.episodes);
        for (i, (p, o)) in plans.iter().zip(&report.outcomes).enumerate() {
            assert_eq!(o.name, team_name(i));
            assert_eq!(o.metrics.episodes, u64::from(p.episodes), "team {i} episode count");
            assert_eq!(o.metrics.evictions, 0, "scripted drops proxy, never time out");
            match p.drop {
                // Dropped team: the victim deserts (1 drop); survivors drive
                // the rest and the close-drain proxies the remaining slots.
                Some(_) => {
                    assert_eq!(o.metrics.drops, 1);
                    assert_eq!(o.status, "degraded");
                }
                None => {
                    assert_eq!(o.metrics.drops, 0);
                    assert_eq!(o.status, "ok");
                }
            }
        }
    }

    #[test]
    fn summary_text_mentions_the_aggregates() {
        let report = run_load(&LoadConfig { teams: 8, episodes: 64, ..small() });
        let s = summary_text(&report);
        assert!(s.contains("64 episodes across 8 teams"));
        assert!(s.contains("balance"));
    }
}
