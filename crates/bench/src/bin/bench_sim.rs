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
//! Every engine point also writes an exact work key beside its rate,
//! `work_ops_<point>` (`work_ops_stour_p1024` beside
//! `engine_ops_per_sec_stour_p1024`): the ops its timed repetitions push
//! through the engine plus their busy-line stall re-posts, each of which
//! the engine dispatches once more. Each contender point also writes
//! `work_stall_records_<algo>_p<P>`: the write plus read stalls alone, the
//! unit of work of the stall-queue path. Every attempt runs the same
//! seeds, so every attempt counts the same; the counts are pure functions
//! of seed and program, so they read the same on every host and transport
//! (the OS-transport point's count equals the fiber point's, and the run
//! checks that), and an engine change that claims to do the same work
//! faster must leave them equal.
//!
//! Every point run on the fiber transport (all but the OS-transport point)
//! also writes `work_switches_<point>`: the context switches the fiber
//! runtime made over the timed repetitions, into and out of its driver
//! included. The count follows from the engine's wake order alone, so it
//! too is exact, and a change to the transport that claims to do the same
//! work must leave it equal.
//!
//! `engine_floor_ns_p{1,64,1024}` are the engine's hand-off floor: host ns
//! per simulated op when P threads on MemPool-1024 each store to a line of
//! their own, so no op meets a sharer, a waiter or a busy line. They
//! measure the per-op cost of posting, scheduling and replying with no
//! protocol in it, and how it grows with P. They are wall-clock readings
//! of the runner like the rates, and informational.
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
//! largest preset costs; as a nested power-of-two machine it builds no
//! pair→layer map and no per-core layer masks.
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
use armbar_simcoh::arena::padded_elem;
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

/// What one engine point writes: its rate, its exact `work_ops_*` count,
/// its `work_switches_*` count on the fiber transport and the stall
/// records of its timed repetitions.
struct EnginePoint {
    rate: Point,
    work: Point,
    switches: Option<Point>,
    stalls: u64,
}

/// Engine operations per wall-clock second of one barrier microbench on
/// the default heap path, with its work counts.
fn engine_point(platform: Platform, p: usize, id: AlgorithmId) -> EnginePoint {
    let key = format!("engine_ops_per_sec_{}_p{p}", id.label().to_ascii_lowercase());
    engine_rate(key, platform, p, id, None, None)
}

/// SENSE at P = 8 on Kunpeng920 with every run steered by a seeded
/// [`ExplorerPolicy`]: the policy path, where the engine offers each
/// decision to the policy.
fn policy_point(suffix: &str, explorer: ExplorerConfig) -> EnginePoint {
    let key = format!("engine_ops_per_sec_policy_sense_p8{suffix}");
    engine_rate(key, Platform::Kunpeng920, 8, AlgorithmId::Sense, Some(explorer), None)
}

/// Informational: measures the host's park/unpark path (module doc).
const OS_TRANSPORT_KEY: &str = "engine_ops_per_sec_sense_p16_os";

/// Thread counts of the hand-off floor keys.
const FLOOR_THREADS: [usize; 3] = [1, 64, 1024];

/// Keys reported but never gated: the OS-transport rate and the hand-off
/// floor (module doc).
const INFORMATIONAL: [&str; 4] =
    [OS_TRANSPORT_KEY, "engine_floor_ns_p1", "engine_floor_ns_p64", "engine_floor_ns_p1024"];

/// The SENSE P = 16 point run on an explicit [`SimTeam`], whose workers are
/// OS threads: the OS-thread transport's side of the transport split.
fn os_transport_point() -> EnginePoint {
    let mut team = SimTeam::new(16);
    let key = OS_TRANSPORT_KEY.to_string();
    engine_rate(key, Platform::Phytium2000Plus, 16, AlgorithmId::Sense, None, Some(&mut team))
}

/// Engine operations per wall-clock second of one barrier microbench,
/// under `explorer` when given and on `team` when given (else on the
/// ambient transport, fibers by default), reported as `key`, with the
/// work counts of its timed repetitions.
fn engine_rate(
    key: String,
    platform: Platform,
    p: usize,
    id: AlgorithmId,
    explorer: Option<ExplorerConfig>,
    mut team: Option<&mut SimTeam>,
) -> EnginePoint {
    let topo = Arc::new(Topology::preset(platform));
    let effort = Effort::for_threads(p);
    let episodes = effort.episodes;
    let one_rep = |rep: u64| -> (u64, u64, Option<u64>) {
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
        let ops = stats.total_mem_ops() + stats.ops(OpKind::Compute);
        (ops, c.write_stalls + c.read_stalls, stats.fiber_switches())
    };
    let (ops_per_sec, reps) = best_pass(effort.attempts, effort.reps, one_rep, |reps, secs| {
        reps.iter().map(|&(ops, ..)| ops).sum::<u64>() as f64 / secs
    });
    eprintln!("{key:>42}: {ops_per_sec:>12.0} ops/s");
    let stalls = reps.iter().map(|&(_, stalls, _)| stalls).sum();
    let ops: u64 = reps.iter().map(|&(ops, ..)| ops).sum();
    let switches: Option<u64> = reps.iter().map(|&(.., switches)| switches).sum();
    let work_key = |kind: &str| key.replacen("engine_ops_per_sec_", kind, 1);
    EnginePoint {
        work: Point::new(work_key("work_ops_"), (ops + stalls) as f64),
        switches: switches.map(|n| Point::new(work_key("work_switches_"), n as f64)),
        rate: Point::new(key, ops_per_sec),
        stalls,
    }
}

/// Host ns per simulated op when `p` threads on MemPool-1024 each store to
/// a line of their own: the engine's hand-off floor (module doc).
fn floor_point(p: usize) -> Point {
    /// Stores per repetition, split evenly over the threads.
    const STORES: usize = 1 << 17;
    let topo = Arc::new(Topology::preset(Platform::MemPool1024));
    let line = topo.cacheline_bytes();
    let one_rep = |rep: u64| -> u64 {
        let mut arena = Arena::new();
        let base = arena.alloc_padded_u32_array(p, line);
        let stats = SimBuilder::new(Arc::clone(&topo), p)
            .seed(0x5EED ^ rep)
            .reserve_for(&arena)
            .run(move |ctx| {
                let word = padded_elem(base, ctx.tid(), line);
                for i in 0..STORES / p {
                    ctx.store(word, i as u32);
                }
            })
            .expect("floor run must complete");
        stats.total_mem_ops()
    };
    let (ops_per_sec, _) =
        best_pass(3, 3, one_rep, |reps, secs| reps.iter().sum::<u64>() as f64 / secs);
    let ns = 1e9 / ops_per_sec;
    eprintln!("{:>42}: {ns:>12.0} ns/op", format!("engine floor P={p}"));
    Point::new(format!("engine_floor_ns_p{p}"), ns)
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
        informational: &INFORMATIONAL,
        max_drop_pct: s
            .parse()
            .unwrap_or_else(|_| args.fail(&format!("bad --gate-drop-pct {s:?}"))),
    });

    let mut engine = Vec::new();
    for id in [AlgorithmId::Sense, AlgorithmId::Stour] {
        for p in [16usize, 64] {
            engine.push(engine_point(Platform::Phytium2000Plus, p, id));
        }
        // Kilocore points: the hierarchical MemPool presets at their full
        // core counts, where every write meets a thousand-wide sharer set.
        for (platform, p) in [(Platform::MemPool256, 256usize), (Platform::MemPool1024, 1024)] {
            engine.push(engine_point(platform, p, id));
        }
    }
    engine.push(engine_point(Platform::MemPool1024, 1024, AlgorithmId::Dissemination));
    // Contender points: the lock-guarded counters are the engine's worst
    // case for RMW traffic (CAS storms and spin wake-ups on one line: at
    // P = 256 every processed op is re-posted a hundred times behind the
    // line's queue), the stall-queue path. Their stall records are exact
    // work keys too.
    let mut stall_records = Vec::new();
    for id in [AlgorithmId::ShyCtr, AlgorithmId::ShyProxy] {
        for (platform, p) in [
            (Platform::Phytium2000Plus, 16usize),
            (Platform::Phytium2000Plus, 64),
            (Platform::MemPool256, 256),
        ] {
            let point = engine_point(platform, p, id);
            let algo = id.label().to_ascii_lowercase();
            let key = format!("work_stall_records_{algo}_p{p}");
            stall_records.push(Point::new(key, point.stalls as f64));
            engine.push(point);
        }
    }
    // Policy points: the explorer's perturbation budget, then the same
    // with the weak-memory reordering search the `conform --weak` leg runs.
    let sc = ExplorerConfig::default();
    let weak = ExplorerConfig { reorder_prob: 0.8, ..sc }.with_reorder_budget(64);
    engine.push(policy_point("", sc));
    engine.push(policy_point("_weak", weak));
    let os = os_transport_point();
    let fiber = engine.iter().find(|e| e.rate.key == "engine_ops_per_sec_sense_p16");
    assert_eq!(
        fiber.map(|e| e.work.value),
        Some(os.work.value),
        "the transports must do the same work"
    );
    engine.push(os);

    let (mut points, mut work, mut switches) = (Vec::new(), Vec::new(), Vec::new());
    for e in engine {
        points.push(e.rate);
        work.push(e.work);
        switches.extend(e.switches);
    }
    points.extend(work);
    points.extend(switches);
    points.extend(stall_records);
    points.extend(FLOOR_THREADS.map(floor_point));
    points.extend(quick_experiments_secs());
    points.push(preset_build_ms());

    if !report::write(out, &points, "Simulator perf gate", args.value("--summary"), gate) {
        std::process::exit(1);
    }
}
