//! The serve-zipf workload: a closed loop over 10,000 teams of 4 with Zipf
//! (s = 0.8) tenant skew and 2% scripted abrupt drops, planned by
//! `armbar_serve::load::plan`.
//!
//! Every member waits for the release before it arrives again. Episodes
//! are interleaved across teams in a seeded shuffle of the plan, so
//! consecutive episodes mostly touch different tenants and cold tenants
//! miss in cache the way they do on a multi-tenant server (`run_load`
//! drives team after team and keeps each one cache-hot). Drops take the
//! evict → proxy path beside plain episodes. One op is one team episode;
//! every 16th is timed.

use std::sync::Arc;
use std::time::Duration;

use armbar_serve::load::{plan, team_name, TeamPlan};
use armbar_serve::{Conn, LoadConfig, Registry, Team, TeamConfig, WakeStats};
use armbar_simcoh::rng::SplitMix64;

use crate::clock;
use crate::reference::render;
use crate::stats::{fnv1a, median, Metrics, FNV_BASIS};
use crate::trace::Tracer;
use crate::workload::{PassCtx, Workload};

const TEAMS: usize = 10_000;
const MEMBERS: usize = 4;
const SHARDS: usize = 8;
/// Team episodes per pass.
pub const EPISODES: u64 = 2_000_000;
/// Every `SAMPLE_EVERY`-th episode is timed.
const SAMPLE_EVERY: usize = 16;
/// In the traced run, every `TRACE_EVERY`-th episode records spans around
/// each arrive and wait (recording them all would not fit in memory).
const TRACE_EVERY: usize = 1024;
const BASE_SEED: u64 = 0xBA5E;
const SEED_STRIDE: u64 = 0x9E37_79B9;
const MIX_ORDER: u64 = 0x0D0E_0F10;

fn load_config(variant: u64) -> LoadConfig {
    LoadConfig {
        teams: TEAMS,
        members: MEMBERS,
        shards: SHARDS,
        episodes: EPISODES,
        zipf: 0.8,
        drop_frac: 0.02,
        seed: BASE_SEED.wrapping_add(variant.wrapping_mul(SEED_STRIDE)),
        workers: 1,
        deadline: Duration::from_secs(10),
    }
}

/// The plan's episodes as a sequence of team indices, shuffled with a
/// seeded Fisher–Yates pass.
fn interleave(plans: &[TeamPlan], seed: u64) -> Vec<u16> {
    let mut order: Vec<u16> = Vec::with_capacity(EPISODES as usize);
    for (i, p) in plans.iter().enumerate() {
        let team = u16::try_from(i).expect("team index fits u16");
        order.extend(std::iter::repeat_n(team, p.episodes as usize));
    }
    let mut rng = SplitMix64::new(seed ^ MIX_ORDER);
    for i in (1..order.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// The generated inputs of a variant: the plan and its interleaving.
pub fn inputs(variant: u64) -> (Vec<TeamPlan>, Vec<u16>) {
    let cfg = load_config(variant);
    let plans = plan(&cfg);
    let order = interleave(&plans, cfg.seed);
    (plans, order)
}

/// One pass's server: a fresh registry with every team registered and
/// every member connected. Set-up builds the first pass's; each pass
/// builds the next one's after its episodes, with the clock stopped, so
/// at most two are alive at once.
struct Server {
    registry: Registry,
    teams: Vec<Arc<Team>>,
    /// `MEMBERS` connections per team, team-major; `None` once dropped.
    conns: Vec<Option<Conn>>,
    /// Episodes each team has started.
    started: Vec<u32>,
}

impl Server {
    fn new(tracer: &mut Tracer, register_ns: &mut Vec<u64>) -> Self {
        let cfg = TeamConfig { deadline: Duration::from_secs(10), ..TeamConfig::default() };
        let registry = Registry::new(SHARDS, cfg);
        let mut teams = Vec::with_capacity(TEAMS);
        let mut conns = Vec::with_capacity(TEAMS * MEMBERS);
        for i in 0..TEAMS {
            let name = team_name(i);
            let traced = tracer.enabled() && i % SAMPLE_EVERY == 0;
            let s = if traced { tracer.begin("serve.register", i as u64) } else { None };
            let t = traced.then(clock::now);
            let team = registry.register(&name, MEMBERS).expect("fresh registry accepts the team");
            conns.extend((0..MEMBERS).map(|_| team.connect()));
            if let Some(t) = t {
                register_ns.push(clock::since(t));
            }
            tracer.end(s);
            teams.push(team);
        }
        assert!(conns.iter().all(Option::is_some), "every member slot connects");
        Self { registry, teams, conns, started: vec![0; TEAMS] }
    }
}

pub struct Serve {
    plans: Vec<TeamPlan>,
    order: Vec<u16>,
    passes: usize,
    next: Option<Server>,
    register_ns: Vec<u64>,
    arrive_ns: Vec<u64>,
    wait_ns: Vec<u64>,
    close_ns: Vec<u64>,
    wake: WakeStats,
    shard_balance: Vec<f64>,
}

impl Workload for Serve {
    fn setup(variant: u64, passes: usize, tracer: &mut Tracer) -> Self {
        let (plans, order) = inputs(variant);
        let mut register_ns = Vec::new();
        let next = Some(Server::new(tracer, &mut register_ns));
        Self {
            plans,
            order,
            passes,
            next,
            register_ns,
            arrive_ns: Vec::new(),
            wait_ns: Vec::new(),
            close_ns: Vec::new(),
            wake: WakeStats::default(),
            shard_balance: Vec::new(),
        }
    }

    fn samples_per_pass(&self) -> usize {
        self.order.len().div_ceil(SAMPLE_EVERY)
    }

    fn pass(&mut self, pass: usize, cx: &mut PassCtx<'_>) {
        let mut srv = self.next.take().expect("each pass has a fresh server");
        let traced = cx.tracer.enabled();
        let ps = cx.tracer.begin("bench.pass", pass as u64);
        let mut errors = 0u64;
        for (k, &team) in self.order.iter().enumerate() {
            let t = usize::from(team);
            srv.started[t] += 1;
            if let Some((victim, at)) = self.plans[t].drop {
                if srv.started[t] == at {
                    srv.conns[t * MEMBERS + victim] = None; // abrupt: the drop proxies the slot
                }
            }
            let members = &srv.conns[t * MEMBERS..(t + 1) * MEMBERS];
            if traced && k % TRACE_EVERY == 0 {
                errors += traced_episode(
                    members,
                    k as u64,
                    cx.tracer,
                    &mut self.arrive_ns,
                    &mut self.wait_ns,
                );
                continue;
            }
            let t0 = (k % SAMPLE_EVERY == 0).then(clock::now);
            let mut epoch = 0;
            for c in members.iter().flatten() {
                match c.arrive() {
                    Ok(e) => epoch = e,
                    Err(_) => errors += 1,
                }
            }
            for c in members.iter().flatten() {
                errors += u64::from(c.wait(epoch).is_err());
            }
            if let Some(t0) = t0 {
                cx.log.samples_ns.push(clock::since(t0));
            }
        }
        for (i, conn) in srv.conns.iter_mut().enumerate() {
            let Some(conn) = conn.take() else { continue };
            let s = (traced && i % SAMPLE_EVERY == 0)
                .then(|| (cx.tracer.begin("serve.close", i as u64), clock::now()));
            conn.close();
            if let Some((s, t)) = s {
                self.close_ns.push(clock::since(t));
                cx.tracer.end(s);
            }
        }
        cx.tracer.end(ps);

        let digest = outcome(&srv);
        let ok = errors == 0 && cx.checker.verify(cx.variant, "outcome", &digest);
        cx.log.record(self.order.len() as u64, ok);
        let w = srv.registry.wake_stats();
        self.wake.flushes += w.flushes;
        self.wake.elided += w.elided;
        self.wake.coalesced += w.coalesced;
        let mut per_shard = [0u64; SHARDS];
        for team in &srv.teams {
            per_shard[team.shard()] += team.metrics().episodes;
        }
        let (max, min) = (per_shard.iter().max(), per_shard.iter().min());
        self.shard_balance
            .push(*max.expect("shards") as f64 / (*min.expect("shards")).max(1) as f64);
        drop(srv);
        if pass + 1 < self.passes {
            let (mut quiet, mut unused) = (Tracer::new(false), Vec::new());
            self.next = Some(clock::untimed(|| Server::new(&mut quiet, &mut unused)));
        }
    }

    fn layer_metrics(&self, m: &mut Metrics) {
        let med = |v: &[u64]| median(&v.iter().map(|&x| x as f64).collect::<Vec<_>>());
        m.push("serve.register_us", med(&self.register_ns) / 1e3, "us", self.register_ns.len());
        m.push("serve.arrive_ns", med(&self.arrive_ns), "ns", self.arrive_ns.len());
        m.push("serve.wait_ns", med(&self.wait_ns), "ns", self.wait_ns.len());
        m.push("serve.close_us", med(&self.close_ns) / 1e3, "us", self.close_ns.len());
        let passes = self.shard_balance.len().max(1);
        m.push("serve.flushes", (self.wake.flushes / passes as u64) as f64, "count", passes);
        m.push("serve.elided", (self.wake.elided / passes as u64) as f64, "count", passes);
        m.push("serve.coalesced", (self.wake.coalesced / passes as u64) as f64, "count", passes);
        m.push("serve.shard_balance", median(&self.shard_balance), "ratio", passes);
    }
}

/// One episode with a span around every arrive and wait; returns the
/// number of calls that failed.
fn traced_episode(
    members: &[Option<Conn>],
    op: u64,
    tracer: &mut Tracer,
    arrive_ns: &mut Vec<u64>,
    wait_ns: &mut Vec<u64>,
) -> u64 {
    let mut errors = 0;
    let es = tracer.begin("bench.episode", op);
    let mut epoch = 0;
    for c in members.iter().flatten() {
        let s = tracer.begin("serve.arrive", op);
        let t = clock::now();
        let r = c.arrive();
        arrive_ns.push(clock::since(t));
        tracer.end(s);
        match r {
            Ok(e) => epoch = e,
            Err(_) => errors += 1,
        }
    }
    for c in members.iter().flatten() {
        let s = tracer.begin("serve.wait", op);
        let t = clock::now();
        let r = c.wait(epoch);
        wait_ns.push(clock::since(t));
        tracer.end(s);
        errors += u64::from(r.is_err());
    }
    tracer.end(es);
    errors
}

/// Totals and a digest of the per-tenant outcome table (episodes, own
/// arrivals, proxy arrivals, drops, status per team, in team order).
fn outcome(srv: &Server) -> String {
    let (mut episodes, mut arrivals, mut proxy, mut drops, mut degraded) = (0, 0, 0, 0, 0);
    let mut h = FNV_BASIS;
    for team in &srv.teams {
        let m = team.metrics();
        episodes += m.episodes;
        arrivals += m.arrivals;
        proxy += m.proxy_arrivals;
        drops += m.drops;
        degraded += u64::from(team.status() != "ok");
        let row = format!(
            "{} {} {} {} {} {}\n",
            team.name(),
            m.episodes,
            m.arrivals,
            m.proxy_arrivals,
            m.drops,
            team.status()
        );
        h = fnv1a(h, row.as_bytes());
    }
    render(&[
        ("episodes", episodes.to_string()),
        ("arrivals", arrivals.to_string()),
        ("proxy", proxy.to_string()),
        ("drops", drops.to_string()),
        ("not_ok", degraded.to_string()),
        ("digest", format!("{h:016x}")),
    ])
}
