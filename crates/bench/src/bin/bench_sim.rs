//! Machine-readable simulator performance trajectory: `BENCH_sim.json`.
//!
//! Measures engine throughput (operations per wall-second through the
//! scheduler's indexed heap of running and ready threads and its stall
//! queue) for a SENSE and a STOUR barrier
//! microbench at P ∈ {16, 64} on the paper's 64-core Phytium preset and at
//! P ∈ {256, 1024} on the hierarchical MemPool presets (thousand-wide
//! sharer sets and wake sweeps), DIS at P = 1024 and the two contenders at
//! P ∈ {16, 64} and at P = 256 (write-stall storms on one line), SENSE at
//! P = 8 on Kunpeng920 under the conformance checker's `ExplorerPolicy`
//! (the policy path, sequentially consistent and with weak-memory
//! reordering), SENSE at P = 16 on the OS-thread transport, the
//! wall-clock of a quick-scale regeneration of every experiment suite, in
//! total and per suite, and the median time to build the MemPool-1024
//! preset, and writes the numbers as JSON to the repo root.
//!
//! Each contender point also writes an exact work key,
//! `work_stall_records_<algo>_p<P>`: the write plus read stalls its timed
//! repetitions record (every attempt runs the same seeds, so every attempt
//! counts the same). A stall is one busy-line re-post, the unit of work of
//! the stall-queue path; the count is a pure function of seed and program,
//! so it reads the same on every host and transport, and an engine change
//! that claims to do the same work faster must leave it equal.
//!
//! ```text
//! bench_sim [--out PATH] [--gate-drop-pct N] [--summary PATH]
//! ```
//!
//! An unknown flag or a missing value prints the usage line and exits 2.
//!
//! `--gate-drop-pct N` turns the run into a perf gate: after writing the
//! JSON, the process exits nonzero if any `engine_ops_per_sec_*` key
//! dropped more than N% against the committed file or any `work_*` key
//! changed at all (wall-clock keys are reported but never gated — they
//! measure the runner, not the engine).
//! `engine_ops_per_sec_sense_p16_os` is informational too: every blocked
//! handoff of an explicit `SimTeam` parks and unparks an OS worker, so the
//! key measures the host's futex path and scheduler more than the engine.
//! It sits beside `engine_ops_per_sec_sense_p16` (the same runs on the
//! fiber transport) to put the transport split in the committed file.
//! `topology_preset_ms_mempool1024` sits outside the gated prefix: it is
//! set-up cost, paid once per machine model before any simulation starts,
//! so no engine throughput depends on it. It tracks what building the
//! largest preset's pair→layer map and layer masks costs.
//! `--summary PATH` appends a markdown delta table (GitHub step-summary
//! format) to the given file.
//!
//! If the output file already exists, its `benches` section is treated as
//! the committed baseline: the tool prints the delta of the fresh run
//! against it, and carries the existing `baseline` section forward — keys
//! new to this run are seeded with the fresh value — so the file always
//! records the pre-overhaul reference next to the current numbers. CI runs
//! this as a *blocking* perf gate: the `bench-sim` job fails on a >20% drop
//! of any gated `engine_ops_per_sec_*` key, or on any change of a `work_*`
//! key, against the committed file.

use std::sync::Arc;
use std::time::Instant;

use armbar_bench::report::{self, Gate, Point};
use armbar_bench::{best_pass, Args};
use armbar_conformance::{ExplorerConfig, ExplorerPolicy};
use armbar_core::env::Barrier;
use armbar_core::registry::AlgorithmId;
use armbar_experiments::{Scale, SUITES};
use armbar_simcoh::{Arena, OpKind, SimBuilder, SimTeam, SimThread};
use armbar_topology::{Platform, Topology};

/// Measurement effort for one engine point. The paper-scale points (P ≤ 64)
/// keep the historical 30×12×6 schedule so the trajectory stays comparable
/// across commits; the kilocore points shrink every knob — one episode at
/// P = 1024 already pushes two orders of magnitude more ops through the
/// engine than a P = 16 episode, so far fewer draws reach the same
/// statistical weight inside the CI budget.
struct Effort {
    /// Episodes per simulation run; sized so one point takes O(100 ms).
    episodes: u32,
    /// Independently seeded runs per attempt (amortizes thread spawn noise —
    /// and, post-overhaul, exercises episode reuse).
    reps: u64,
    /// Timed attempts per point; the best is reported (switch-bound
    /// workloads barely benefit: the context-switch floor is the same in
    /// every attempt).
    attempts: u32,
}

impl Effort {
    fn for_threads(p: usize) -> Effort {
        if p <= 64 {
            Effort { episodes: 30, reps: 12, attempts: 6 }
        } else {
            Effort { episodes: 8, reps: 3, attempts: 3 }
        }
    }
}

/// Engine operations per wall-clock second of one barrier microbench on
/// the default heap path, and the stall records of its timed repetitions.
fn engine_point(platform: Platform, p: usize, id: AlgorithmId) -> (Point, u64) {
    let key = format!("engine_ops_per_sec_{}_p{p}", id.label().to_ascii_lowercase());
    engine_rate(key, platform, p, id, None, None)
}

/// SENSE at P = 8 on Kunpeng920 with every run steered by a seeded
/// [`ExplorerPolicy`]: the policy path, where the engine offers each
/// decision to the policy.
fn policy_point(suffix: &str, explorer: ExplorerConfig) -> Point {
    let key = format!("engine_ops_per_sec_policy_sense_p8{suffix}");
    engine_rate(key, Platform::Kunpeng920, 8, AlgorithmId::Sense, Some(explorer), None).0
}

/// Informational: measures the host's park/unpark path (module doc).
const OS_TRANSPORT_KEY: &str = "engine_ops_per_sec_sense_p16_os";

/// The SENSE P = 16 point run on an explicit [`SimTeam`], whose workers are
/// OS threads: the OS-thread transport's side of the transport split.
fn os_transport_point() -> Point {
    let mut team = SimTeam::new(16);
    let key = OS_TRANSPORT_KEY.to_string();
    engine_rate(key, Platform::Phytium2000Plus, 16, AlgorithmId::Sense, None, Some(&mut team)).0
}

/// Engine operations per wall-clock second of one barrier microbench,
/// under `explorer` when given and on `team` when given (else on the
/// ambient transport, fibers by default), reported as `key`, and the
/// write plus read stalls its timed repetitions record.
fn engine_rate(
    key: String,
    platform: Platform,
    p: usize,
    id: AlgorithmId,
    explorer: Option<ExplorerConfig>,
    mut team: Option<&mut SimTeam>,
) -> (Point, u64) {
    let topo = Arc::new(Topology::preset(platform));
    let effort = Effort::for_threads(p);
    let episodes = effort.episodes;
    let one_rep = |rep: u64| -> (u64, u64) {
        let mut arena = Arena::new();
        let barrier: Arc<dyn Barrier> = Arc::from(id.build(&mut arena, p, &topo));
        let seed = 0x5EED ^ rep;
        let mut sim = SimBuilder::new(Arc::clone(&topo), p).seed(seed);
        if let Some(cfg) = explorer {
            sim = sim.schedule_policy(ExplorerPolicy::new(seed, cfg));
        }
        let body = move |ctx: &SimThread| {
            for _ in 0..episodes {
                ctx.compute_ns(100.0);
                barrier.wait(ctx);
            }
        };
        let stats = match team.as_deref_mut() {
            Some(team) => team.run(sim, body),
            None => sim.run(body),
        }
        .expect("benchmark barrier must complete");
        let c = stats.coherence().total();
        (stats.total_mem_ops() + stats.ops(OpKind::Compute), c.write_stalls + c.read_stalls)
    };
    let (ops_per_sec, reps) = best_pass(effort.attempts, effort.reps, one_rep, |reps, secs| {
        reps.iter().map(|&(ops, _)| ops).sum::<u64>() as f64 / secs
    });
    eprintln!("{key:>42}: {ops_per_sec:>12.0} ops/s");
    (Point::new(key, ops_per_sec), reps.iter().map(|&(_, stalls)| stalls).sum())
}

/// Wall-clock seconds of a quick-scale regeneration of every suite
/// (`all_experiments --quick`, minus the CSV writing): the total, then one
/// informational `quick_secs_<slug>` point per suite.
fn quick_experiments_secs() -> Vec<Point> {
    let scale = Scale::quick();
    let mut suites = Vec::new();
    let t0 = Instant::now();
    for (slug, run) in SUITES {
        let t = Instant::now();
        assert!(!run(&scale).is_empty(), "suite {slug} produced nothing");
        suites.push(Point::new(format!("quick_secs_{slug}"), t.elapsed().as_secs_f64()));
    }
    let total = t0.elapsed().as_secs_f64();
    eprintln!("all_experiments --quick: {total:.2} s");
    let mut points = vec![Point::new("all_experiments_quick_secs", total)];
    points.extend(suites);
    points
}

/// Median wall-clock milliseconds of building [`Platform::MemPool1024`]
/// (informational, see the module doc). The drop of each built machine
/// falls outside its timing.
fn preset_build_ms() -> Point {
    const BUILDS: usize = 9;
    let mut ms: Vec<f64> = (0..BUILDS)
        .map(|_| {
            let t = Instant::now();
            let topo = std::hint::black_box(Topology::preset(Platform::MemPool1024));
            let elapsed = t.elapsed().as_secs_f64() * 1e3;
            drop(topo);
            elapsed
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    let median = ms[BUILDS / 2];
    eprintln!("MemPool-1024 preset build: {median:.2} ms");
    Point::new("topology_preset_ms_mempool1024", median)
}

fn main() {
    let args = Args::from_env("bench_sim [--out PATH] [--gate-drop-pct N] [--summary PATH]");
    let out = args.value("--out").unwrap_or("BENCH_sim.json");
    let gate = args.value("--gate-drop-pct").map(|s| Gate {
        prefix: "engine_ops_per_sec_",
        informational: &[OS_TRANSPORT_KEY],
        max_drop_pct: s
            .parse()
            .unwrap_or_else(|_| args.fail(&format!("bad --gate-drop-pct {s:?}"))),
    });

    let mut points = Vec::new();
    for id in [AlgorithmId::Sense, AlgorithmId::Stour] {
        for p in [16usize, 64] {
            points.push(engine_point(Platform::Phytium2000Plus, p, id).0);
        }
        // Kilocore points: the hierarchical MemPool presets at their full
        // core counts, where every write meets a thousand-wide sharer set.
        for (platform, p) in [(Platform::MemPool256, 256usize), (Platform::MemPool1024, 1024)] {
            points.push(engine_point(platform, p, id).0);
        }
    }
    points.push(engine_point(Platform::MemPool1024, 1024, AlgorithmId::Dissemination).0);
    // Contender points: the lock-guarded counters are the engine's worst
    // case for RMW traffic (CAS storms and spin wake-ups on one line: at
    // P = 256 every processed op is re-posted a hundred times behind the
    // line's queue), the stall-queue path. Their stall records follow the
    // rates as exact work keys.
    let mut work = Vec::new();
    for id in [AlgorithmId::ShyCtr, AlgorithmId::ShyProxy] {
        for (platform, p) in [
            (Platform::Phytium2000Plus, 16usize),
            (Platform::Phytium2000Plus, 64),
            (Platform::MemPool256, 256),
        ] {
            let (rate, stalls) = engine_point(platform, p, id);
            points.push(rate);
            let algo = id.label().to_ascii_lowercase();
            work.push(Point::new(format!("work_stall_records_{algo}_p{p}"), stalls as f64));
        }
    }
    points.extend(work);
    // Policy points: the explorer's perturbation budget, then the same
    // with the weak-memory reordering search the `conform --weak` leg runs.
    let sc = ExplorerConfig::default();
    let weak = ExplorerConfig { reorder_prob: 0.8, ..sc }.with_reorder_budget(64);
    points.push(policy_point("", sc));
    points.push(policy_point("_weak", weak));
    points.push(os_transport_point());
    points.extend(quick_experiments_secs());
    points.push(preset_build_ms());

    if !report::write(out, &points, "Simulator perf gate", args.value("--summary"), gate) {
        std::process::exit(1);
    }
}
