//! The simulator workloads: EPCC barrier-overhead simulations through
//! `SimBuilder::run`, one op per measured barrier episode.
//!
//! * `sim-paper`: the paper's 14 registry barriers plus SHY-CTR/SHY-PROXY at
//!   P ∈ {16, 64} on Phytium 2000+, ThunderX2 and Kunpeng920 — what
//!   regenerating the paper's figures costs (single-heap scheduler, LSE and
//!   LL/SC atomics tables).
//! * `sim-kilocore`: SENSE, DIS and STOUR at P=1024 on MemPool-1024 plus the
//!   two contenders at P=256 on MemPool-256 — where the quick suite spends
//!   its time (sharded scheduler, per-line waiter table, failed-CAS storms).
//!
//! An op's host time is the interval between consecutive returns of
//! simulated thread 0 from `Barrier::wait`. Fibers run every simulated
//! thread on the one driving OS thread, so that interval is the engine's
//! host time for one episode.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use armbar_core::env::Barrier;
use armbar_core::registry::AlgorithmId;
use armbar_simcoh::{Arena, CoherenceCounters, OpKind, SimBuilder};
use armbar_topology::{Platform, Topology};

use crate::clock;
use crate::reference::render;
use crate::stats::{median, slug, Metrics};
use crate::trace::Tracer;
use crate::workload::{PassCtx, Workload};

/// Per-episode work outside the barrier, ns (the experiments' delay).
const DELAY_NS: f64 = 100.0;
/// Marks bracketing the measured episodes.
const MARK_WARM: u32 = 1;
const MARK_END: u32 = 2;
/// Simulation seed of variant 0 and the stride between variants (the
/// experiments' per-rep seed schedule).
const BASE_SEED: u64 = 0x5EED;
const SEED_STRIDE: u64 = 0x9E37_79B9;

/// Clock readings at which thread 0 returned from `wait`. Static, so the
/// simulation body captures nothing that grows: the fiber transport never
/// drops a body, so whatever it captured stays allocated.
static STAMPS: Mutex<Vec<u64>> = Mutex::new(Vec::new());

fn stamp() {
    let t = clock::now();
    STAMPS.lock().expect("stamp lock poisoned").push(t);
}

/// One simulation of a pass.
#[derive(Debug, Clone)]
pub struct Cell {
    pub platform: Platform,
    pub p: usize,
    pub id: AlgorithmId,
    pub warmup: u32,
    pub episodes: u32,
    /// Per-layer aggregation key.
    pub group: String,
}

impl Cell {
    pub fn key(&self) -> String {
        format!("{}.p{}.{}", slug(self.platform.label()), self.p, slug(self.id.label()))
    }
}

/// The sim-paper pass: 16 barriers × P ∈ {16, 64} × three ARM machines,
/// each with 4 warm-up episodes (the experiments' EPCC protocol) and 10
/// measured episodes at P=16, 20 at P=64. The P=64 episodes are then two
/// thirds of the ops, so the median falls inside them rather than on the
/// boundary between the cheap P=16 and the dearer P=64 episodes.
pub fn paper_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for platform in Platform::ARM {
        for p in [16, 64] {
            for id in AlgorithmId::ALL.into_iter().chain(AlgorithmId::CONTENDERS) {
                let group = format!("{}-p{p}", slug(platform.label()));
                let episodes = if p == 64 { 20 } else { 10 };
                cells.push(Cell { platform, p, id, warmup: 4, episodes, group });
            }
        }
    }
    cells
}

/// The sim-kilocore pass: per pass 64 STOUR, 4 DIS, 2 SENSE and 2 + 2
/// contender episodes, after one warm-up episode each. Each percentile
/// falls inside one kind of episode: the median among the STOUR episodes
/// (86% of ops), p90 among the DIS and p99 among the contender episodes
/// (the dearest 5%), not on a boundary between two kinds.
pub fn kilocore_cells() -> Vec<Cell> {
    let big = [(AlgorithmId::Stour, 64), (AlgorithmId::Dissemination, 4), (AlgorithmId::Sense, 2)];
    let big = big.into_iter().map(|(id, e)| (Platform::MemPool1024, 1024, id, e));
    let small = [(AlgorithmId::ShyCtr, 2), (AlgorithmId::ShyProxy, 2)];
    let small = small.into_iter().map(|(id, e)| (Platform::MemPool256, 256, id, e));
    big.chain(small)
        .map(|(platform, p, id, episodes)| Cell {
            platform,
            p,
            id,
            warmup: 1,
            episodes,
            group: format!("{}-p{p}", slug(id.label())),
        })
        .collect()
}

/// What one simulation produced.
struct SimOut {
    /// The checked output: schedule hash, EPCC overhead, event count.
    rendered: String,
    events: u64,
    counters: CoherenceCounters,
}

/// Runs one EPCC simulation of `cell`, appending thread 0's per-episode
/// host times to `samples`.
fn simulate(
    topo: &Arc<Topology>,
    cell: &Cell,
    barrier: Arc<dyn Barrier>,
    seed: u64,
    samples: &mut Vec<u64>,
) -> SimOut {
    let (warmup, episodes) = (cell.warmup, cell.episodes);
    STAMPS.lock().expect("stamp lock poisoned").clear();
    let stats = SimBuilder::new(Arc::clone(topo), cell.p)
        .seed(seed)
        .run(move |ctx| {
            for _ in 0..warmup {
                ctx.compute_ns(DELAY_NS);
                barrier.wait(ctx);
            }
            ctx.mark(MARK_WARM);
            if ctx.tid() == 0 {
                stamp();
            }
            for _ in 0..episodes {
                ctx.compute_ns(DELAY_NS);
                barrier.wait(ctx);
                if ctx.tid() == 0 {
                    stamp();
                }
            }
            ctx.mark(MARK_END);
        })
        .unwrap_or_else(|e| panic!("{} failed: {e}", cell.key()));
    let stamps = STAMPS.lock().expect("stamp lock poisoned");
    samples.extend(stamps.windows(2).map(|w| w[1] - w[0]));
    let t0 = stats.last_mark_time(MARK_WARM).expect("warm-up mark recorded");
    let t1 = stats.last_mark_time(MARK_END).expect("end mark recorded");
    let overhead = ((t1 - t0) / f64::from(episodes) - DELAY_NS).max(0.0);
    let events = stats.total_mem_ops() + stats.ops(OpKind::Compute);
    let rendered = render(&[
        ("hash", format!("{:016x}", stats.schedule_hash())),
        ("overhead_ns", format!("{overhead:?}")),
        ("events", events.to_string()),
    ]);
    SimOut { rendered, events, counters: stats.coherence().total() }
}

/// Per-layer observations of one aggregation group.
#[derive(Default)]
struct Group {
    /// Host ns the group's simulations took, per pass.
    host_ns: Vec<u64>,
    events: u64,
    remote_reads: u64,
    rfo_invalidations: u64,
    spin_wakeups: u64,
}

/// A simulator workload's prepared state.
pub struct Sims {
    name: &'static str,
    cells: Vec<Cell>,
    topos: BTreeMap<String, Arc<Topology>>,
    /// Barriers per pass and cell, built in set-up.
    barriers: Vec<Vec<Arc<dyn Barrier>>>,
    preset_ns: u64,
    build_ns: Vec<u64>,
    groups: BTreeMap<String, Group>,
    passes_run: u64,
    rss_delta_kb: Vec<i64>,
}

impl Sims {
    pub(crate) fn setup(
        name: &'static str,
        cells: Vec<Cell>,
        passes: usize,
        tr: &mut Tracer,
    ) -> Self {
        let mut topos = BTreeMap::new();
        let t = clock::now();
        for c in &cells {
            if let std::collections::btree_map::Entry::Vacant(e) =
                topos.entry(slug(c.platform.label()))
            {
                let s = tr.begin("topology.preset", 0);
                e.insert(Arc::new(Topology::preset(c.platform)));
                tr.end(s);
            }
        }
        let preset_ns = clock::since(t);
        let mut build_ns = Vec::with_capacity(passes * cells.len());
        let barriers = (0..passes)
            .map(|pass| {
                cells
                    .iter()
                    .map(|c| {
                        let topo = &topos[&slug(c.platform.label())];
                        let s = tr.begin("core.build", pass as u64);
                        let t = clock::now();
                        let b: Arc<dyn Barrier> =
                            Arc::from(c.id.build(&mut Arena::new(), c.p, topo));
                        build_ns.push(clock::since(t));
                        tr.end(s);
                        b
                    })
                    .collect()
            })
            .collect();
        // Warm-up: one short simulation per machine and thread count
        // (fiber stacks, engine tables, lazy statics), unchecked and untimed.
        let mut warmed = Vec::new();
        for c in &cells {
            if warmed.contains(&(c.platform, c.p)) {
                continue;
            }
            warmed.push((c.platform, c.p));
            let topo = &topos[&slug(c.platform.label())];
            let warm = Cell { id: AlgorithmId::Sense, warmup: 1, episodes: 1, ..c.clone() };
            let b = Arc::from(warm.id.build(&mut Arena::new(), warm.p, topo));
            let s = tr.begin("simcoh.run", 0);
            simulate(topo, &warm, b, BASE_SEED, &mut Vec::new());
            tr.end(s);
        }
        Self {
            name,
            cells,
            topos,
            barriers,
            preset_ns,
            build_ns,
            groups: BTreeMap::new(),
            passes_run: 0,
            rss_delta_kb: Vec::new(),
        }
    }

    pub(crate) fn pass(&mut self, pass: usize, cx: &mut PassCtx<'_>) {
        let seed = BASE_SEED.wrapping_add(cx.variant.wrapping_mul(SEED_STRIDE));
        let traced = cx.tracer.enabled();
        let mut pass_host: BTreeMap<&str, u64> = BTreeMap::new();
        let ps = cx.tracer.begin("bench.pass", pass as u64);
        for (i, cell) in self.cells.iter().enumerate() {
            let topo = &self.topos[&slug(cell.platform.label())];
            let barrier = Arc::clone(&self.barriers[pass][i]);
            let rss0 = if traced { crate::stats::rss_kb() as i64 } else { 0 };
            let s = cx.tracer.begin("simcoh.run", i as u64);
            let t = clock::now();
            let out = simulate(topo, cell, barrier, seed, &mut cx.log.samples_ns);
            let host = clock::since(t);
            cx.tracer.end(s);
            if traced {
                self.rss_delta_kb.push(crate::stats::rss_kb() as i64 - rss0);
            }
            let ok = cx.checker.verify(cx.variant, &cell.key(), &out.rendered);
            cx.log.record(u64::from(cell.episodes), ok);
            *pass_host.entry(&cell.group).or_default() += host;
            let g = self.groups.entry(cell.group.clone()).or_default();
            g.events += out.events;
            g.remote_reads += out.counters.remote_reads;
            g.rfo_invalidations += out.counters.rfo_invalidations;
            g.spin_wakeups += out.counters.spin_wakeups;
        }
        cx.tracer.end(ps);
        for (group, ns) in pass_host {
            self.groups.get_mut(group).expect("group seen").host_ns.push(ns);
        }
        self.passes_run += 1;
    }

    fn layer_metrics(&self, m: &mut Metrics) {
        let wl = self.name;
        m.push(format!("topology.preset_ms.{wl}"), self.preset_ns as f64 / 1e6, "ms", 1);
        let builds: Vec<f64> = self.build_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        m.push(format!("core.build_us.{wl}"), median(&builds), "us", builds.len());
        let rss: Vec<f64> = self.rss_delta_kb.iter().map(|&kb| kb as f64).collect();
        let per_run = rss.iter().sum::<f64>() / rss.len().max(1) as f64;
        m.push(format!("simcoh.rss_kb_per_run.{wl}"), per_run, "KiB", rss.len());
        let passes = self.passes_run.max(1);
        for (name, g) in &self.groups {
            let host: Vec<f64> = g.host_ns.iter().map(|&ns| ns as f64).collect();
            let host_ns = median(&host);
            let events = g.events / passes;
            m.push(format!("simcoh.run_ms.{name}"), host_ns / 1e6, "ms", host.len());
            m.push(
                format!("simcoh.ns_per_event.{name}"),
                host_ns / events as f64,
                "ns",
                host.len(),
            );
            m.push(format!("simcoh.events.{name}"), events as f64, "count", 1);
            m.push(
                format!("simcoh.remote_reads.{name}"),
                (g.remote_reads / passes) as f64,
                "count",
                1,
            );
            let rfo = (g.rfo_invalidations / passes) as f64;
            m.push(format!("simcoh.rfo_invalidations.{name}"), rfo, "count", 1);
            m.push(
                format!("simcoh.spin_wakeups.{name}"),
                (g.spin_wakeups / passes) as f64,
                "count",
                1,
            );
        }
    }
}

pub struct SimPaper(Sims);
pub struct SimKilocore(Sims);

impl Workload for SimPaper {
    fn samples_per_pass(&self) -> usize {
        self.0.cells.iter().map(|c| c.episodes as usize).sum()
    }
    fn setup(_variant: u64, passes: usize, tracer: &mut Tracer) -> Self {
        SimPaper(Sims::setup("sim-paper", paper_cells(), passes, tracer))
    }
    fn pass(&mut self, pass: usize, cx: &mut PassCtx<'_>) {
        self.0.pass(pass, cx)
    }
    fn layer_metrics(&self, metrics: &mut Metrics) {
        self.0.layer_metrics(metrics)
    }
}

impl Workload for SimKilocore {
    fn samples_per_pass(&self) -> usize {
        self.0.cells.iter().map(|c| c.episodes as usize).sum()
    }
    fn setup(_variant: u64, passes: usize, tracer: &mut Tracer) -> Self {
        SimKilocore(Sims::setup("sim-kilocore", kilocore_cells(), passes, tracer))
    }
    fn pass(&mut self, pass: usize, cx: &mut PassCtx<'_>) {
        self.0.pass(pass, cx)
    }
    fn layer_metrics(&self, metrics: &mut Metrics) {
        self.0.layer_metrics(metrics)
    }
}
