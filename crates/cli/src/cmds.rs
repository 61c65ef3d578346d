//! Subcommand implementations and flag parsing for the `armbar` CLI.

use std::sync::Arc;

use armbar_conformance::{
    conform_matrix_on, phaser_conform_matrix_on, ConformCell, ConformConfig, ExplorerConfig,
    PhaserConformConfig, TableConfig,
};
use armbar_core::prelude::*;
use armbar_epcc::{latency_table, sim_overhead, trace_episodes, EpisodeTrace, OverheadConfig};
use armbar_faults::{chaos_matrix_on, render_csv, render_json, Backend, ChaosConfig, Scenario};
use armbar_model::{optimal_fanin_int, recommend_wakeup, WakeupChoice};
use armbar_simcoh::Arena;
use armbar_sweep::{Job, SweepPool};
use armbar_topology::{Platform, Topology};

/// Top-level usage text.
pub const USAGE: &str = "\
armbar — barrier synchronization toolkit (CLUSTER'21 reproduction)

USAGE:
  armbar platforms
      List the built-in machine models.
  armbar latency <platform>
      Regenerate the machine's core-to-core latency table (Tables I-III).
  armbar sweep <platform> [--threads N,N,...] [--algos NAME,NAME,...] [--jobs N]
      Simulated barrier overhead per algorithm and thread count. The
      default set includes the shyper contender barriers (SHY-CTR,
      SHY-PROXY) alongside the paper algorithms, up to their
      simulability bound; above it their cells read skipped* unless
      --algos names them.
  armbar recommend <platform> [--threads N]
      Model-driven configuration (fan-in, wake-up) with validation runs.
  armbar phases <platform> [--threads N]
      Arrival/notification phase breakdown of the marked algorithms.
  armbar trace <platform> [--algorithm|--algo NAME[,NAME,...]] [--threads N]
               [--episodes N] [--jobs N] [--format csv|json] [--out FILE]
      Per-episode arrival/notification timings plus coherence-op counter
      deltas (local/remote reads, RFO invalidation fan-out, stalls) as
      structured CSV or JSON. Several algorithms trace concurrently.
  armbar chaos [--churn] [--platforms NAME,...] [--algos NAME,...]
               [--scenarios NAME,...] [--backend sim|host|both] [--threads N]
               [--episodes N] [--seed N] [--deadline-ms N] [--jobs N]
               [--format csv|json] [--out FILE]
      Fault-injection survival table: every algorithm x platform under
      seeded straggler / latency / lost-wakeup / crash scenarios —
      deterministic on the simulator, deadline-guarded on the host.
      --churn switches to the membership-churn preset: both phasers under
      the join / leave / crash-evict / flap scenarios, with recovered /
      degraded / poisoned outcomes. On the simulator the default set
      stops at each algorithm's simulability bound (a note on stderr
      names what it leaves out); --algos runs a named one at any
      --threads.
  armbar conform [--quick] [--weak] [--phasers] [--platforms NAME,...]
                 [--algos NAME,...] [--scenarios NAME,...] [--threads N]
                 [--episodes N] [--seeds N] [--schedule-seed N] [--budget N]
                 [--reorder-budget N] [--fence-report FILE] [--fence-seeds N]
                 [--jobs N] [--format csv|json] [--out FILE]
      Schedule-exploring conformance check: each (platform, algorithm)
      cell is driven through --seeds seeded, perturbed interleavings and
      audited by safety oracles (no early exit, epoch consistency, no
      lost wake-up, quiescence). Violations ship a shrunk deterministic
      reproducer and make the command exit nonzero. --quick = all 14
      algorithms plus the SHY-CTR/SHY-PROXY contenders on Kunpeng920 at
      8 threads, 1200 seeds per cell. The default set stops at each
      algorithm's simulability bound, as in sweep and chaos.
      --phasers searches register/deregister interleavings of the dynamic
      phasers under churn scripts instead, auditing the membership oracles
      (no lost member, no phantom arrival), 800 seeds per cell by default.
  armbar serve [--teams N] [--members N] [--episodes N] [--shards N]
               [--seed N] [--zipf S] [--drop-frac F] [--jobs N]
               [--format csv|json] [--out FILE]
      Barrier-as-a-service load replay: drives a seeded Zipf-skewed
      multi-tenant episode plan (with scripted connection drops) through
      the sharded coordination server and emits the per-tenant metrics
      table (episodes, arrivals, proxy arrivals, drops, final status) as
      CSV or JSON. The table is byte-identical at any --shards/--jobs;
      wall-clock aggregates (episodes/sec, latency percentiles, wakeup
      batching counters) go to stderr.

A flag or argument a subcommand does not list above is a usage error
(exit 2). Sweeps fan out over min(--jobs | ARMBAR_JOBS, available cores) workers;
results are byte-identical at any worker count (host-backend cells always
run serially — they measure wall time). Platforms match case-insensitively
ignoring punctuation, as a positional argument or via --platform: phytium,
thunderx2, kunpeng920, xeon.";

/// What one subcommand accepts, read off its block in [`USAGE`].
#[derive(Default)]
struct Declared {
    /// Flags taking one value.
    values: Vec<&'static str>,
    switches: Vec<&'static str>,
    positionals: usize,
}

/// Reads `cmd`'s block in [`USAGE`]: its `armbar cmd` line and the
/// `[`-led lines under it. A `[--flag]` group declares a switch, a
/// `[--flag VALUE]` group a flag taking one value (`|` separates
/// aliases), and each `<placeholder>` outside the groups one positional.
/// As USAGE's closing note says, `--platform NAME` also stands for a
/// `<platform>` positional and for `--platforms`. `None` for a command
/// USAGE does not list.
fn declared(cmd: &str) -> Option<Declared> {
    let head = format!("  armbar {cmd}");
    let mut lines = USAGE.lines().skip_while(|l| {
        l.strip_prefix(&head).is_none_or(|tail| !tail.is_empty() && !tail.starts_with(' '))
    });
    let first = &lines.next()?[head.len()..];
    let block = std::iter::once(first).chain(lines.take_while(|l| l.trim_start().starts_with('[')));
    let mut d = Declared::default();
    for line in block {
        let (mut depth, mut start) = (0, 0);
        for (i, c) in line.char_indices() {
            match (c, depth) {
                ('[', 0) => (depth, start) = (1, i + 1),
                ('[', _) => depth += 1,
                (']', 1) => {
                    depth = 0;
                    let mut words = line[start..i].split_whitespace();
                    let names = words.next().unwrap_or_default().split('|');
                    if words.next().is_some() {
                        d.values.extend(names);
                    } else {
                        d.switches.extend(names);
                    }
                }
                (']', _) => depth -= 1,
                ('<', 0) => d.positionals += 1,
                _ => {}
            }
        }
    }
    if first.contains("<platform>") || d.values.contains(&"--platforms") {
        d.values.push("--platform");
    }
    Some(d)
}

/// Checks `rest` against what `cmd` declares in [`USAGE`]: an undeclared
/// flag, a flag missing its value, or a positional argument beyond the
/// declared ones is a usage error. `None` for an unknown command.
pub fn check_args(cmd: &str, rest: &[String]) -> Option<Result<(), String>> {
    let d = declared(cmd)?;
    let mut args = rest.iter();
    let mut seen = 0;
    while let Some(arg) = args.next() {
        if d.values.contains(&arg.as_str()) {
            if args.next().is_none() {
                return Some(Err(format!("{arg} needs a value")));
            }
        } else if arg.starts_with("--") {
            if !d.switches.contains(&arg.as_str()) {
                return Some(Err(format!("unknown flag {arg:?} for `armbar {cmd}`")));
            }
        } else {
            seen += 1;
            if seen > d.positionals {
                return Some(Err(format!("unexpected argument {arg:?} for `armbar {cmd}`")));
            }
        }
    }
    Some(Ok(()))
}

/// Parses `--flag value` style options out of `rest`; returns the value.
fn flag_value(rest: &[String], flag: &str) -> Option<String> {
    rest.iter().position(|a| a == flag).and_then(|i| rest.get(i + 1).cloned())
}

/// Lowercases and strips punctuation so `phytium2000p` matches the label
/// "Phytium 2000+".
fn normalize(s: &str) -> String {
    s.chars().filter(char::is_ascii_alphanumeric).collect::<String>().to_ascii_lowercase()
}

fn parse_platform(rest: &[String]) -> Result<Platform, String> {
    let name = flag_value(rest, "--platform")
        .or_else(|| rest.first().cloned())
        .ok_or_else(|| "missing <platform> argument".to_string())?;
    let name = normalize(&name);
    Platform::EVERY
        .into_iter()
        .find(|p| {
            let label = normalize(p.label());
            !name.is_empty() && (label.contains(&name) || name.contains(&label))
        })
        .ok_or_else(|| {
            format!(
                "unknown platform {name:?}; known: {}",
                Platform::EVERY.map(|p| p.label()).join(", ")
            )
        })
}

fn parse_threads(rest: &[String], default: &[usize], max: usize) -> Result<Vec<usize>, String> {
    let Some(spec) = flag_value(rest, "--threads") else {
        return Ok(default.iter().copied().filter(|&p| p <= max).collect());
    };
    let mut out = Vec::new();
    for part in spec.split(',') {
        let p: usize = part.trim().parse().map_err(|_| format!("bad thread count {part:?}"))?;
        if p == 0 || p > max {
            return Err(format!("thread count {p} out of range 1..={max}"));
        }
        out.push(p);
    }
    if out.is_empty() {
        return Err("--threads needs at least one value".into());
    }
    Ok(out)
}

/// `--jobs N` → a pool of `min(N, available cores)` workers; without the
/// flag, the ambient pool (`ARMBAR_JOBS` or all cores).
fn parse_pool(rest: &[String]) -> Result<SweepPool, String> {
    match flag_value(rest, "--jobs") {
        Some(s) => match s.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(SweepPool::new(n.min(armbar_sweep::available_parallelism()))),
            _ => Err(format!("bad --jobs value {s:?} (need a positive integer)")),
        },
        None => Ok(SweepPool::ambient()),
    }
}

fn parse_algos(rest: &[String]) -> Result<Vec<AlgorithmId>, String> {
    let Some(spec) = flag_value(rest, "--algos") else {
        return Ok(AlgorithmId::SEVEN
            .into_iter()
            .chain([AlgorithmId::LlvmHyper, AlgorithmId::Optimized])
            .chain(AlgorithmId::CONTENDERS)
            .collect());
    };
    let mut out = Vec::new();
    for part in spec.split(',') {
        let id = AlgorithmId::parse(part.trim())
            .ok_or_else(|| format!("unknown algorithm {part:?} (try SENSE, DIS, CMB, MCS, TOUR, STOUR, DTOUR, LLVM, OPT, HYBRID, NDIS, RING, SHY-CTR, SHY-PROXY)"))?;
        out.push(id);
    }
    Ok(out)
}

/// `--platforms NAME,...` (or `--platform`), if given.
fn parse_platforms(rest: &[String]) -> Result<Option<Vec<Platform>>, String> {
    let Some(spec) = flag_value(rest, "--platforms").or_else(|| flag_value(rest, "--platform"))
    else {
        return Ok(None);
    };
    spec.split(',')
        .map(|part| parse_platform(&[part.trim().to_string()]))
        .collect::<Result<_, _>>()
        .map(Some)
}

/// An integer flag that must be at least `min`; `what` names it in the
/// error.
fn count_flag(rest: &[String], flag: &str, what: &str, min: u32) -> Result<Option<u32>, String> {
    match flag_value(rest, flag) {
        None => Ok(None),
        Some(s) => match s.parse::<u32>() {
            Ok(n) if n >= min => Ok(Some(n)),
            _ => Err(format!("bad {what} {s:?} (need at least {min})")),
        },
    }
}

/// A seed flag, decimal or `0x`-prefixed hex.
fn seed_flag(rest: &[String], flag: &str) -> Result<Option<u64>, String> {
    let Some(s) = flag_value(rest, flag) else {
        return Ok(None);
    };
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map(Some)
    .map_err(|_| format!("bad {flag} {s:?}"))
}

/// `--format csv|json` (default csv): whether to render JSON.
fn json_format(rest: &[String]) -> Result<bool, String> {
    match flag_value(rest, "--format").as_deref() {
        None | Some("csv") => Ok(false),
        Some("json") => Ok(true),
        Some(f) => Err(format!("unknown format {f:?} (expected csv or json)")),
    }
}

/// Writes `text` to `--out FILE`, naming `what` it holds on stderr, or
/// prints it.
fn emit(rest: &[String], text: &str, what: &str) -> Result<(), String> {
    match flag_value(rest, "--out") {
        Some(path) => {
            std::fs::write(&path, text).map_err(|e| format!("writing {path:?}: {e}"))?;
            eprintln!("wrote {what} to {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// `armbar platforms`
pub fn platforms() -> Result<(), String> {
    for p in Platform::EVERY {
        let t = Topology::preset(p);
        println!(
            "{:18} {:3} cores, N_c = {:2}, {}-byte lines, {} latency layers",
            t.name(),
            t.num_cores(),
            t.n_c(),
            t.cacheline_bytes(),
            t.layers().len()
        );
    }
    Ok(())
}

/// `armbar latency <platform>`
pub fn latency(rest: &[String]) -> Result<(), String> {
    let platform = parse_platform(rest)?;
    let topo = Arc::new(Topology::preset(platform));
    println!("core-to-core latencies on {} (ns):", topo.name());
    println!("{:>6}  {:24} {:>10} {:>10}", "layer", "description", "table", "measured");
    for row in latency_table(&topo) {
        println!(
            "{:>6}  {:24} {:>10.2} {:>10.2}",
            row.layer.to_string(),
            row.name,
            row.expected_ns,
            row.measured_ns
        );
    }
    Ok(())
}

/// `armbar sweep <platform> [--threads ...] [--algos ...] [--jobs N]`
pub fn sweep(rest: &[String]) -> Result<(), String> {
    let platform = parse_platform(rest)?;
    let topo = Arc::new(Topology::preset(platform));
    let threads = parse_threads(rest, &[2, 4, 8, 16, 32, 64], topo.num_cores())?;
    let algos = parse_algos(rest)?;
    let named = flag_value(rest, "--algos").is_some();
    let pool = parse_pool(rest)?;
    let table = sweep_table(topo.name(), &threads, &algos, named, &pool, |p, id| {
        sim_overhead(&topo, p, &id, OverheadConfig::default()).map_err(|e| e.to_string())
    })?;
    print!("{table}");
    Ok(())
}

/// What a sweep prints in place of a cell it does not run.
const SKIPPED: &str = "skipped*";

/// The sweep's table of overhead (us/episode) on `machine`: one row per
/// thread count, one column per algorithm. `cell(p, id)` simulates one
/// cell, in ns. The cells are independent jobs fanned out over `pool`;
/// results come back in submission (row-major) order, so the table is the
/// same at any worker count. Unless the algorithms were `named` by the
/// user, a cell above the algorithm's [`AlgorithmId::max_threads`] is not
/// run: it reads [`SKIPPED`], and a note under the table gives the bound.
/// A named algorithm runs at every P, and its failure fails the sweep.
fn sweep_table(
    machine: &str,
    threads: &[usize],
    algos: &[AlgorithmId],
    named: bool,
    pool: &SweepPool,
    cell: impl Fn(usize, AlgorithmId) -> Result<f64, String> + Sync,
) -> Result<String, String> {
    let runs = |p: usize, id: AlgorithmId| named || p <= id.max_threads();
    let cell = &cell;
    let jobs: Vec<Job<'_, Result<f64, String>>> = threads
        .iter()
        .flat_map(|&p| {
            algos
                .iter()
                .filter(move |&&id| runs(p, id))
                .map(move |&id| Job::parallel(move || cell(p, id)))
        })
        .collect();
    let mut results = pool.run(jobs).into_iter();

    let mut out = format!("barrier overhead (us/episode) on simulated {machine}:\n");
    out.push_str(&format!("{:>8}", "threads"));
    for id in algos {
        out.push_str(&format!("{:>11}", id.label()));
    }
    out.push('\n');
    let mut skipped = Vec::new();
    for &p in threads {
        out.push_str(&format!("{p:>8}"));
        for &id in algos {
            if runs(p, id) {
                let ns = results.next().expect("one result per run cell")?;
                out.push_str(&format!("{:>11.2}", ns / 1000.0));
            } else {
                out.push_str(&format!("{SKIPPED:>11}"));
                if !skipped.contains(&id) {
                    skipped.push(id);
                }
            }
        }
        out.push('\n');
    }
    out.extend(skipped.into_iter().map(skip_note));
    Ok(out)
}

/// The note for a default-set algorithm left out above its simulability
/// bound ([`AlgorithmId::max_threads`]).
fn skip_note(id: AlgorithmId) -> String {
    format!(
        "* {id} is not simulated above P = {} by default (a run there outgrows the \
         simulator's op budget); name it in --algos to run it\n",
        id.max_threads()
    )
}

/// A default algorithm set at `threads` simulated threads: the algorithms
/// within their simulability bound, and a note naming each one left out.
/// An `--algos` list is run as named and never passes through here.
fn within_bound(set: Vec<AlgorithmId>, threads: usize) -> (Vec<AlgorithmId>, String) {
    let (kept, skipped): (Vec<_>, Vec<_>) =
        set.into_iter().partition(|id| threads <= id.max_threads());
    (kept, skipped.into_iter().map(skip_note).collect())
}

/// `armbar recommend <platform> [--threads N]`
pub fn recommend(rest: &[String]) -> Result<(), String> {
    let platform = parse_platform(rest)?;
    let topo = Arc::new(Topology::preset(platform));
    let p = parse_threads(rest, &[topo.num_cores()], topo.num_cores())?[0];

    let f = optimal_fanin_int(&topo, p);
    let wake = match recommend_wakeup(&topo, p) {
        WakeupChoice::Global => WakeupKind::Global,
        WakeupChoice::Tree => WakeupKind::tree_for(&topo),
    };
    println!("{} at {p} threads:", topo.name());
    println!("  model-optimal fan-in:  {f}");
    println!("  recommended wake-up:   {}", wake.label());

    // Validate against the machine default and the GCC baseline.
    let opt = sim_overhead(&topo, p, &AlgorithmId::Optimized, OverheadConfig::default())
        .map_err(|e| e.to_string())?;
    let gcc = sim_overhead(&topo, p, &AlgorithmId::Sense, OverheadConfig::default())
        .map_err(|e| e.to_string())?;
    println!("  optimized barrier:     {:.2} us/episode", opt / 1000.0);
    println!("  GCC-style barrier:     {:.2} us/episode ({:.1}x)", gcc / 1000.0, gcc / opt);
    Ok(())
}

/// `armbar phases <platform> [--threads N]`
pub fn phases(rest: &[String]) -> Result<(), String> {
    let platform = parse_platform(rest)?;
    let topo = Arc::new(Topology::preset(platform));
    let p = parse_threads(rest, &[topo.num_cores()], topo.num_cores())?[0];

    println!("phase breakdown on {} at {p} threads (us):", topo.name());
    println!("{:>10} {:>10} {:>14}", "algorithm", "arrival", "notification");
    for id in
        [AlgorithmId::Sense, AlgorithmId::Stour, AlgorithmId::Padded4Way, AlgorithmId::Optimized]
    {
        let mut arena = Arena::new();
        let barrier: Arc<dyn Barrier> = Arc::from(id.build(&mut arena, p, &topo));
        let cfg = OverheadConfig { warmup: 4, episodes: 1, ..OverheadConfig::default() };
        let traces = trace_episodes(&topo, p, barrier, cfg).map_err(|e| e.to_string())?;
        match traces.last().and_then(|t| Some((t.arrival_ns()?, t.notification_ns()?))) {
            Some((arrival, notification)) => println!(
                "{:>10} {:>10.2} {:>14.2}",
                id.label(),
                arrival / 1000.0,
                notification / 1000.0
            ),
            None => println!("{:>10} (no phase marks)", id.label()),
        }
    }
    Ok(())
}

/// `armbar trace <platform> [--algorithm NAME[,NAME,...]] [--threads N]
/// [--episodes N] [--jobs N] [--format csv|json] [--out FILE]`
pub fn trace(rest: &[String]) -> Result<(), String> {
    let platform = parse_platform(rest)?;
    let topo = Arc::new(Topology::preset(platform));
    let p = parse_threads(rest, &[topo.num_cores()], topo.num_cores())?[0];
    let algos = match flag_value(rest, "--algorithm").or_else(|| flag_value(rest, "--algo")) {
        Some(spec) => {
            let mut out = Vec::new();
            for part in spec.split(',') {
                out.push(AlgorithmId::parse(part.trim()).ok_or_else(|| {
                    format!("unknown algorithm {part:?} (try SENSE, DIS, OPT, ...)")
                })?);
            }
            out
        }
        None => vec![AlgorithmId::Optimized],
    };
    let episodes = count_flag(rest, "--episodes", "episode count", 1)?.unwrap_or(8);
    let json = json_format(rest)?;
    let pool = parse_pool(rest)?;

    // One deterministic simulation per algorithm; concurrent traces
    // cannot perturb each other, and output order follows the flag order.
    let cfg = OverheadConfig { episodes, ..OverheadConfig::default() };
    let topo_ref = &topo;
    let jobs: Vec<Job<'_, Result<Vec<EpisodeTrace>, String>>> = algos
        .iter()
        .map(|&algo| {
            Job::parallel(move || {
                let mut arena = Arena::new();
                let barrier: Arc<dyn Barrier> = Arc::from(algo.build(&mut arena, p, topo_ref));
                trace_episodes(topo_ref, p, barrier, cfg).map_err(|e| e.to_string())
            })
        })
        .collect();
    let per_algo: Vec<Vec<EpisodeTrace>> = pool.run(jobs).into_iter().collect::<Result<_, _>>()?;

    let text = if !json {
        // Multiple algorithms concatenate as self-describing CSV blocks
        // (each carries its own `#` provenance header).
        algos
            .iter()
            .zip(&per_algo)
            .map(|(&algo, traces)| trace_csv(&topo, p, algo, traces))
            .collect::<String>()
    } else if let ([algo], [traces]) = (algos.as_slice(), per_algo.as_slice()) {
        trace_json(&topo, p, *algo, traces)
    } else {
        // Multiple algorithms become a JSON array of the per-algorithm
        // documents.
        let docs: Vec<String> = algos
            .iter()
            .zip(&per_algo)
            .map(|(&algo, traces)| trace_json(&topo, p, algo, traces).trim_end().to_string())
            .collect();
        format!("[\n{}\n]\n", docs.join(",\n"))
    };
    let total: usize = per_algo.iter().map(Vec::len).sum();
    emit(rest, &text, &format!("{total} episodes"))
}

/// `armbar chaos [--platforms ...] [--algos ...] [--scenarios ...]
/// [--backend sim|host|both] [--threads N] [--episodes N] [--seed N]
/// [--deadline-ms N] [--jobs N] [--format csv|json] [--out FILE]`
pub fn chaos(rest: &[String]) -> Result<(), String> {
    let (config, note) = chaos_config(rest)?;
    let json = json_format(rest)?;
    let pool = parse_pool(rest)?;
    eprint!("{note}");

    let cells = chaos_matrix_on(&pool, &config);
    let text = if json { render_json(&cells, &config) } else { render_csv(&cells, &config) };
    emit(rest, &text, &format!("{} chaos cells", cells.len()))
}

/// The chaos matrix `rest` asks for, and the note on any default-set
/// algorithm it leaves out: with the simulator among the backends, the
/// default set stops at each algorithm's simulability bound.
fn chaos_config(rest: &[String]) -> Result<(ChaosConfig, String), String> {
    // `--churn` swaps in the membership-churn preset (both phasers under
    // the churn scenarios); every explicit flag still overrides it.
    let churn = rest.iter().any(|a| a == "--churn");
    let defaults = if churn { ChaosConfig::churn() } else { ChaosConfig::default() };

    let platforms = match parse_platforms(rest)? {
        Some(platforms) => platforms,
        // Default: the three ARM machines of the paper (churn cells are
        // membership-driven, so one machine model suffices there).
        None if churn => defaults.platforms.clone(),
        None => Platform::ARM.to_vec(),
    };
    let named = flag_value(rest, "--algos").is_some();
    let algorithms = if named { parse_algos(rest)? } else { defaults.algorithms.clone() };
    let scenarios = match flag_value(rest, "--scenarios") {
        Some(spec) => {
            let mut out = Vec::new();
            for part in spec.split(',') {
                let sc = Scenario::parse(part.trim()).ok_or_else(|| {
                    format!(
                        "unknown scenario {part:?} (known: {})",
                        Scenario::ALL
                            .into_iter()
                            .chain(Scenario::CHURN)
                            .map(Scenario::label)
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                })?;
                out.push(sc);
            }
            out
        }
        None => defaults.scenarios.clone(),
    };
    let backends = match flag_value(rest, "--backend").as_deref() {
        None => vec![Backend::Sim],
        Some("both") => Backend::ALL.to_vec(),
        Some(s) => vec![Backend::parse(s)
            .ok_or_else(|| format!("unknown backend {s:?} (expected sim, host, or both)"))?],
    };
    let threads =
        count_flag(rest, "--threads", "thread count", 1)?.map_or(defaults.threads, |n| n as usize);
    let episodes = count_flag(rest, "--episodes", "episode count", 1)?.unwrap_or(defaults.episodes);
    let seed = seed_flag(rest, "--seed")?.unwrap_or(defaults.seed);
    let deadline = match flag_value(rest, "--deadline-ms") {
        Some(s) => match s.parse() {
            Ok(0) | Err(_) => return Err(format!("bad deadline {s:?} (need at least 1 ms)")),
            Ok(ms) => std::time::Duration::from_millis(ms),
        },
        None => defaults.deadline,
    };
    let (algorithms, note) = if !named && backends.contains(&Backend::Sim) {
        within_bound(algorithms, threads)
    } else {
        (algorithms, String::new())
    };
    let config = ChaosConfig {
        platforms,
        algorithms,
        scenarios,
        backends,
        threads,
        episodes,
        seed,
        deadline,
    };
    Ok((config, note))
}

/// The schedule-search flags `conform`, `conform --phasers` and the
/// phaser leg of `conform --weak` share, parsed once; `None` keeps the
/// checker's default.
struct SearchFlags {
    weak: bool,
    platforms: Option<Vec<Platform>>,
    threads: Option<usize>,
    episodes: Option<u32>,
    seeds: Option<u32>,
    base_seed: Option<u64>,
    budget: Option<u32>,
    reorder_budget: Option<u32>,
}

impl SearchFlags {
    fn parse(rest: &[String]) -> Result<Self, String> {
        let budget = |flag: &str| {
            flag_value(rest, flag).map(|s| s.parse().map_err(|_| format!("bad {flag} {s:?}")))
        };
        Ok(Self {
            weak: rest.iter().any(|a| a == "--weak"),
            platforms: parse_platforms(rest)?,
            threads: count_flag(rest, "--threads", "thread count", 1)?.map(|n| n as usize),
            episodes: count_flag(rest, "--episodes", "episode count", 1)?,
            seeds: count_flag(rest, "--seeds", "seed count", 1)?,
            base_seed: seed_flag(rest, "--schedule-seed")?,
            budget: budget("--budget").transpose()?,
            reorder_budget: budget("--reorder-budget").transpose()?,
        })
    }

    /// `explorer` under these flags: `--weak` turns on the bounded
    /// weak-memory search (reordering budget 64, p=0.8), and `--budget` /
    /// `--reorder-budget` override either budget.
    fn explorer(&self, mut explorer: ExplorerConfig) -> ExplorerConfig {
        if self.weak {
            explorer = ExplorerConfig { reorder_prob: 0.8, ..explorer }.with_reorder_budget(64);
        }
        if let Some(budget) = self.budget {
            explorer = explorer.with_budget(budget);
        }
        if let Some(rb) = self.reorder_budget {
            explorer = explorer.with_reorder_budget(rb);
        }
        explorer
    }

    /// The phaser matrix under these flags (slots clamp up to the two a
    /// churn script needs).
    fn phaser_config(&self) -> PhaserConformConfig {
        let d = PhaserConformConfig::default();
        PhaserConformConfig {
            platforms: self.platforms.clone().unwrap_or(d.platforms),
            threads: self.threads.map_or(d.threads, |t| t.max(2)),
            episodes: self.episodes.unwrap_or(d.episodes),
            seeds: self.seeds.unwrap_or(d.seeds),
            base_seed: self.base_seed.unwrap_or(d.base_seed),
            explorer: self.explorer(d.explorer),
            ..d
        }
    }
}

/// One line of the nonzero-exit report: the cell and its reproducer.
fn violation_line(c: &ConformCell) -> String {
    let under = c.scenario.map(|s| format!(" under {}", s.label())).unwrap_or_default();
    format!("{}{under} on {}: {}", c.algorithm.label(), c.platform.label(), c.detail())
}

/// Fails with the report when any cell violated `oracles`.
fn report_violations(violated: Vec<String>, oracles: &str) -> Result<(), String> {
    if violated.is_empty() {
        return Ok(());
    }
    Err(format!(
        "{} cell(s) violated the {oracles} oracles:\n  {}",
        violated.len(),
        violated.join("\n  ")
    ))
}

/// `armbar conform [--quick] [--weak] [--phasers] [--platforms ...]
/// [--algos ...] [--scenarios ...] [--threads N] [--episodes N]
/// [--seeds N] [--schedule-seed N] [--budget N] [--reorder-budget N]
/// [--fence-report FILE] [--jobs N] [--format csv|json] [--out FILE]`
///
/// `--weak` turns on the bounded weak-memory search (reordering budget 64
/// per trial) and extends the sweep to the phasers: the fixed-membership
/// matrix runs first, then the churn matrix, both under the same
/// reordering explorer and search flags. `--reorder-budget N` sets the
/// budget explicitly (without `--weak`, the default 0 keeps the engine
/// sequentially consistent). `--fence-report FILE` additionally runs the
/// fence-minimization matrix (`--fence-seeds N` seeds per demotion
/// level) and writes its Markdown report. `--phasers` runs the phaser
/// matrix alone.
///
/// Exits nonzero (after writing the table) if any cell records a
/// violation, so CI can gate on it directly.
pub fn conform(rest: &[String]) -> Result<(), String> {
    let flags = SearchFlags::parse(rest)?;
    let json = json_format(rest)?;
    let pool = parse_pool(rest)?;
    if rest.iter().any(|a| a == "--phasers") {
        return conform_phasers(rest, &flags, json, &pool);
    }
    let (config, note) = conform_config(rest, &flags)?;
    eprint!("{note}");
    let fence_seeds = count_flag(rest, "--fence-seeds", "--fence-seeds", 1)?;

    let mut cells = conform_matrix_on(&pool, &config);
    let mut text = render_conform(json, &cells, &config);
    // Under --weak the phasers ride along: dynamic membership is where
    // a reordered arrival or eviction store does the most damage.
    if flags.weak {
        let pconfig = flags.phaser_config();
        let pcells = phaser_conform_matrix_on(&pool, &pconfig);
        text.push_str(&render_conform(json, &pcells, &pconfig));
        cells.extend(pcells);
    }
    emit(rest, &text, &format!("{} conformance cells", cells.len()))?;
    let mut violated: Vec<String> =
        cells.iter().filter(|c| !c.violations.is_empty()).map(violation_line).collect();

    if let Some(path) = flag_value(rest, "--fence-report") {
        let d = armbar_conformance::FenceConfig::default();
        let fcfg = armbar_conformance::FenceConfig {
            platforms: config.platforms.clone(),
            algorithms: config.algorithms.clone(),
            threads: config.threads,
            seeds: fence_seeds.unwrap_or(d.seeds),
            ..d
        };
        let fcells = armbar_conformance::fence_matrix_on(&pool, &fcfg);
        let md = armbar_conformance::render_fence_markdown(&fcells, &fcfg);
        std::fs::write(&path, &md).map_err(|e| format!("writing {path:?}: {e}"))?;
        eprintln!("wrote fence report ({} cells) to {path}", fcells.len());
        violated.extend(fcells.iter().filter(|c| c.weakest_passing().is_none()).map(|c| {
            format!(
                "{} on {}: shipped fence placement VIOLATED (see {path})",
                c.algorithm.label(),
                c.platform.label()
            )
        }));
    }
    report_violations(violated, "safety")
}

/// The fixed-membership matrix `rest` asks for, and the note on any
/// default-set algorithm it leaves out: the default set stops at each
/// algorithm's simulability bound, a named one runs at any `--threads`.
fn conform_config(rest: &[String], flags: &SearchFlags) -> Result<(ConformConfig, String), String> {
    let quick = rest.iter().any(|a| a == "--quick");
    let d = ConformConfig::default();
    let threads = flags.threads.unwrap_or(d.threads);
    let (algorithms, note) = if flag_value(rest, "--algos").is_some() {
        (parse_algos(rest)?, String::new())
    } else {
        within_bound(d.algorithms.clone(), threads)
    };
    let config = ConformConfig {
        platforms: flags.platforms.clone().unwrap_or(d.platforms),
        algorithms,
        threads,
        episodes: flags.episodes.unwrap_or(d.episodes),
        // The --quick acceptance sweep: ≥1000 distinct schedules per cell.
        seeds: flags.seeds.unwrap_or(if quick { 1200 } else { d.seeds }),
        base_seed: flags.base_seed.unwrap_or(d.base_seed),
        explorer: flags.explorer(d.explorer),
        ..d
    };
    Ok((config, note))
}

/// A conformance table as JSON or CSV.
fn render_conform<C: TableConfig>(json: bool, cells: &[ConformCell], cfg: &C) -> String {
    if json {
        armbar_conformance::render_json(cells, cfg)
    } else {
        armbar_conformance::render_csv(cells, cfg)
    }
}

/// `armbar conform --phasers [--algos ...] [--scenarios ...]` plus the
/// shared search flags.
///
/// The dynamic-membership arm of `conform`: searches
/// register/deregister/eviction interleavings of the phasers under seeded
/// churn scripts and audits the membership oracles. Exits nonzero on any
/// violation, with a shrunk reproducer in the table.
fn conform_phasers(
    rest: &[String],
    flags: &SearchFlags,
    json: bool,
    pool: &SweepPool,
) -> Result<(), String> {
    if let Some(t @ ..=1) = flags.threads {
        return Err(format!("bad thread count \"{t}\" (churn needs at least 2)"));
    }
    let mut config = flags.phaser_config();
    if flag_value(rest, "--algos").is_some() {
        let algos = parse_algos(rest)?;
        if let Some(bad) = algos.iter().find(|a| !AlgorithmId::PHASERS.contains(a)) {
            return Err(format!(
                "{} has fixed membership; --phasers audits {}",
                bad.label(),
                AlgorithmId::PHASERS.map(|a| a.label()).join(", ")
            ));
        }
        config.algorithms = algos;
    }
    if let Some(spec) = flag_value(rest, "--scenarios") {
        let mut out = Vec::new();
        for part in spec.split(',') {
            let sc = Scenario::parse(part.trim())
                .filter(|sc| Scenario::CHURN.contains(sc))
                .ok_or_else(|| {
                    format!(
                        "unknown churn scenario {part:?} (known: {})",
                        Scenario::CHURN.map(Scenario::label).join(", ")
                    )
                })?;
            out.push(sc);
        }
        config.scenarios = out;
    }

    let cells = phaser_conform_matrix_on(pool, &config);
    let text = render_conform(json, &cells, &config);
    emit(rest, &text, &format!("{} phaser conformance cells", cells.len()))?;
    report_violations(
        cells.iter().filter(|c| !c.violations.is_empty()).map(violation_line).collect(),
        "membership",
    )
}

/// Column order shared by the CSV header and both renderers.
const TRACE_COLUMNS: &str = "episode,arrival_ns,notification_ns,total_ns,\
local_reads,remote_reads,reader_contention,local_writes,remote_writes,\
rfo_invalidations,read_stalls,write_stalls,read_stall_ns,write_stall_ns,spin_wakeups";

fn trace_csv(topo: &Topology, p: usize, algo: AlgorithmId, traces: &[EpisodeTrace]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# trace: {} on {} at {p} threads, {} measured episodes\n",
        algo.label(),
        topo.name(),
        traces.len()
    ));
    out.push_str(
        "# times are ns of simulated virtual time; counters are machine-wide per-episode deltas\n",
    );
    out.push_str(TRACE_COLUMNS);
    out.push('\n');
    for t in traces {
        let c = &t.counters;
        let opt = |v: Option<f64>| v.map(|x| format!("{x:.1}")).unwrap_or_default();
        out.push_str(&format!(
            "{},{},{},{:.1},{},{},{},{},{},{},{},{},{:.1},{:.1},{}\n",
            t.episode,
            opt(t.arrival_ns()),
            opt(t.notification_ns()),
            t.total_ns(),
            c.local_reads,
            c.remote_reads,
            c.reader_contention_events,
            c.local_writes,
            c.remote_writes,
            c.rfo_invalidations,
            c.read_stalls,
            c.write_stalls,
            c.read_stall_ns,
            c.write_stall_ns,
            c.spin_wakeups
        ));
    }
    out
}

fn trace_json(topo: &Topology, p: usize, algo: AlgorithmId, traces: &[EpisodeTrace]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"platform\": \"{}\",\n", topo.name()));
    out.push_str(&format!("  \"algorithm\": \"{}\",\n", algo.label()));
    out.push_str(&format!("  \"threads\": {p},\n"));
    out.push_str("  \"episodes\": [\n");
    for (i, t) in traces.iter().enumerate() {
        let c = &t.counters;
        let opt = |v: Option<f64>| v.map(|x| format!("{x:.1}")).unwrap_or_else(|| "null".into());
        out.push_str(&format!(
            "    {{\"episode\": {}, \"arrival_ns\": {}, \"notification_ns\": {}, \
\"total_ns\": {:.1}, \"counters\": {{\"local_reads\": {}, \"remote_reads\": {}, \
\"reader_contention\": {}, \"local_writes\": {}, \"remote_writes\": {}, \
\"rfo_invalidations\": {}, \"read_stalls\": {}, \"write_stalls\": {}, \
\"read_stall_ns\": {:.1}, \"write_stall_ns\": {:.1}, \"spin_wakeups\": {}}}}}{}\n",
            t.episode,
            opt(t.arrival_ns()),
            opt(t.notification_ns()),
            t.total_ns(),
            c.local_reads,
            c.remote_reads,
            c.reader_contention_events,
            c.local_writes,
            c.remote_writes,
            c.rfo_invalidations,
            c.read_stalls,
            c.write_stalls,
            c.read_stall_ns,
            c.write_stall_ns,
            c.spin_wakeups,
            if i + 1 < traces.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// `armbar serve [--teams N] [--members N] [--episodes N] [--shards N]
/// [--seed N] [--zipf S] [--drop-frac F] [--jobs N] [--format csv|json]
/// [--out FILE]`
///
/// Replays the seeded multi-tenant load against the coordination server
/// and renders the per-tenant metrics table. The table is the
/// deterministic artifact (CI byte-diffs it across shard counts); the
/// timing summary and wakeup-batching counters go to stderr.
pub fn serve(rest: &[String]) -> Result<(), String> {
    let mut cfg =
        armbar_serve::LoadConfig { teams: 2_000, episodes: 200_000, ..Default::default() };
    let parse_usize = |flag: &str, default: usize, min: usize| -> Result<usize, String> {
        match flag_value(rest, flag) {
            Some(s) => match s.parse() {
                Ok(n) if n >= min => Ok(n),
                _ => Err(format!("bad {flag} value {s:?} (need an integer >= {min})")),
            },
            None => Ok(default),
        }
    };
    let parse_f64 = |flag: &str, default: f64| -> Result<f64, String> {
        match flag_value(rest, flag) {
            Some(s) => match s.parse::<f64>() {
                Ok(v) if v >= 0.0 => Ok(v),
                _ => Err(format!("bad {flag} value {s:?} (need a non-negative number)")),
            },
            None => Ok(default),
        }
    };
    cfg.teams = parse_usize("--teams", cfg.teams, 1)?;
    cfg.members = parse_usize("--members", cfg.members, 1)?;
    cfg.episodes = parse_usize("--episodes", cfg.episodes as usize, 1)? as u64;
    cfg.shards = parse_usize("--shards", cfg.shards, 1)?;
    cfg.workers = parse_usize("--jobs", 0, 1)?; // 0 = the ambient pool width
    cfg.zipf = parse_f64("--zipf", cfg.zipf)?;
    cfg.drop_frac = parse_f64("--drop-frac", cfg.drop_frac)?;
    if cfg.drop_frac > 1.0 {
        return Err(format!("bad --drop-frac value {} (need 0..=1)", cfg.drop_frac));
    }
    cfg.seed = seed_flag(rest, "--seed")?.unwrap_or(cfg.seed);
    let json = json_format(rest)?;

    let report = armbar_serve::run_load(&cfg);
    eprint!("{}", armbar_serve::summary_text(&report));
    let text =
        if json { armbar_serve::outcome_json(&report) } else { armbar_serve::outcome_csv(&report) };
    emit(rest, &text, &format!("{} tenant rows", report.outcomes.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_parsing_accepts_substrings() {
        assert_eq!(parse_platform(&["kunpeng".into()]).unwrap(), Platform::Kunpeng920);
        assert_eq!(parse_platform(&["THUNDER".into()]).unwrap(), Platform::ThunderX2);
        assert!(parse_platform(&["riscv".into()]).is_err());
        assert!(parse_platform(&[]).is_err());
    }

    #[test]
    fn platform_parsing_reaches_kilocore_presets() {
        assert_eq!(parse_platform(&["mempool1024".into()]).unwrap(), Platform::MemPool1024);
        assert_eq!(parse_platform(&["MemPool-256".into()]).unwrap(), Platform::MemPool256);
        // Bare "mempool" resolves to the first (smaller) preset.
        assert_eq!(parse_platform(&["mempool".into()]).unwrap(), Platform::MemPool256);
    }

    #[test]
    fn thread_parsing_validates_ranges() {
        let rest = vec!["x".to_string(), "--threads".into(), "2,8,64".into()];
        assert_eq!(parse_threads(&rest, &[1], 64).unwrap(), vec![2, 8, 64]);
        let bad = vec!["x".to_string(), "--threads".into(), "0".into()];
        assert!(parse_threads(&bad, &[1], 64).is_err());
        let big = vec!["x".to_string(), "--threads".into(), "65".into()];
        assert!(parse_threads(&big, &[1], 64).is_err());
    }

    #[test]
    fn thread_default_respects_core_count() {
        assert_eq!(parse_threads(&[], &[2, 64, 128], 64).unwrap(), vec![2, 64]);
    }

    #[test]
    fn default_sets_stop_at_the_simulability_bound() {
        use AlgorithmId::{ShyCtr, ShyProxy};
        let all = ConformConfig::default().algorithms;
        let (kept, note) = within_bound(all.clone(), 1024);
        assert_eq!(
            kept,
            all.iter().copied().filter(|a| ![ShyCtr, ShyProxy].contains(a)).collect::<Vec<_>>()
        );
        assert_eq!(note.lines().count(), 2, "{note}");
        assert!(note.contains("SHY-CTR") && note.contains("SHY-PROXY"), "{note}");
        assert_eq!(within_bound(all.clone(), 256), (all, String::new()));

        // Both commands read the bound; no cell is simulated here.
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let conform_algos = |s: &str| {
            let rest = args(s);
            let flags = SearchFlags::parse(&rest).unwrap();
            conform_config(&rest, &flags).unwrap()
        };
        let (cfg, note) = conform_algos("--platforms mempool1024 --threads 1024");
        assert!(!cfg.algorithms.contains(&ShyCtr) && !cfg.algorithms.contains(&ShyProxy));
        assert_eq!(note.lines().count(), 2, "{note}");
        let (cfg, note) = conform_algos("--platforms mempool1024 --threads 1024 --algos SHY-CTR");
        assert_eq!((cfg.algorithms, note), (vec![ShyCtr], String::new()));

        let (cfg, note) = chaos_config(&args("--platforms mempool1024 --threads 1024")).unwrap();
        assert!(!cfg.algorithms.contains(&ShyCtr) && !cfg.algorithms.contains(&ShyProxy));
        assert_eq!(note.lines().count(), 2, "{note}");
        let (cfg, note) = chaos_config(&args("--threads 1024 --algos SHY-PROXY")).unwrap();
        assert_eq!((cfg.algorithms, note), (vec![ShyProxy], String::new()));
        // The bound is the simulator's: a host-only default set is whole.
        let (cfg, _) = chaos_config(&args("--backend host --threads 512")).unwrap();
        assert_eq!(cfg.algorithms, ChaosConfig::default().algorithms);
        let (cfg, _) = chaos_config(&args("--threads 256")).unwrap();
        assert_eq!(cfg.algorithms, ChaosConfig::default().algorithms);
    }

    #[test]
    fn algo_parsing_round_trips_labels() {
        let rest = vec!["x".to_string(), "--algos".into(), "sense,OPT,ring".into()];
        assert_eq!(
            parse_algos(&rest).unwrap(),
            vec![AlgorithmId::Sense, AlgorithmId::Optimized, AlgorithmId::Ring]
        );
        let bad = vec!["x".to_string(), "--algos".into(), "bogus".into()];
        assert!(parse_algos(&bad).is_err());
    }

    #[test]
    fn subcommands_run_end_to_end() {
        platforms().unwrap();
        latency(&["xeon".into()]).unwrap();
        sweep(&[
            "kunpeng".into(),
            "--threads".into(),
            "2,16".into(),
            "--algos".into(),
            "TOUR,OPT".into(),
        ])
        .unwrap();
        recommend(&["thunderx2".into(), "--threads".into(), "32".into()]).unwrap();
        phases(&["phytium".into(), "--threads".into(), "16".into()]).unwrap();
    }

    #[test]
    fn serve_rejects_bad_flags() {
        let bad = |flags: &[&str]| {
            let rest: Vec<String> = flags.iter().map(|s| s.to_string()).collect();
            assert!(serve(&rest).is_err(), "expected rejection: {flags:?}");
        };
        bad(&["--teams", "0"]);
        bad(&["--members", "zero"]);
        bad(&["--drop-frac", "1.5"]);
        bad(&["--drop-frac", "-0.1"]);
        bad(&["--seed", "0xZZ"]);
        bad(&["--format", "yaml"]);
        bad(&["--jobs", "0"]);
    }

    #[test]
    fn serve_writes_a_deterministic_tenant_table() {
        let dir = std::env::temp_dir().join("armbar-serve-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let base = |shards: &str, path: String| {
            vec![
                "--teams".to_string(),
                "64".into(),
                "--episodes".into(),
                "2000".into(),
                "--drop-frac".into(),
                "0.2".into(),
                "--shards".into(),
                shards.into(),
                "--out".into(),
                path,
            ]
        };
        serve(&base("1", out("s1.csv"))).unwrap();
        serve(&base("4", out("s4.csv"))).unwrap();
        let s1 = std::fs::read_to_string(out("s1.csv")).unwrap();
        let s4 = std::fs::read_to_string(out("s4.csv")).unwrap();
        assert_eq!(s1, s4, "tenant table must not depend on --shards");
        assert!(s1.starts_with("team,members,episodes,"));
        assert!(s1.contains(",degraded\n"), "20% drops must leave degraded tenants");
        let mut json_args = base("4", out("s4.json"));
        json_args.extend(["--format".to_string(), "json".into()]);
        serve(&json_args).unwrap();
        let json = std::fs::read_to_string(out("s4.json")).unwrap();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"tenants\": ["));
    }

    #[test]
    fn platform_parsing_ignores_punctuation_and_accepts_flag() {
        // The acceptance-criteria spelling of the paper's 64-core machine.
        let rest = vec!["--platform".to_string(), "phytium2000p".into()];
        assert_eq!(parse_platform(&rest).unwrap(), Platform::Phytium2000Plus);
        assert_eq!(
            parse_platform(&["Phytium-2000+".to_string()]).unwrap(),
            Platform::Phytium2000Plus
        );
    }

    fn demo_traces() -> (Arc<Topology>, Vec<EpisodeTrace>) {
        let topo = Arc::new(Topology::preset(Platform::ThunderX2));
        let mut arena = Arena::new();
        let barrier: Arc<dyn Barrier> =
            Arc::from(AlgorithmId::Optimized.build(&mut arena, 16, &topo));
        let cfg = OverheadConfig { episodes: 3, ..OverheadConfig::default() };
        let traces = trace_episodes(&topo, 16, barrier, cfg).unwrap();
        (topo, traces)
    }

    #[test]
    fn trace_csv_has_header_note_and_counter_columns() {
        let (topo, traces) = demo_traces();
        let csv = trace_csv(&topo, 16, AlgorithmId::Optimized, &traces);
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("# trace: OPT on ThunderX2"));
        assert!(lines.next().unwrap().starts_with("# times are ns"));
        assert_eq!(lines.next().unwrap(), TRACE_COLUMNS);
        let rows: Vec<&str> = lines.collect();
        assert_eq!(rows.len(), 3);
        let cols = TRACE_COLUMNS.split(',').count();
        for row in rows {
            assert_eq!(row.split(',').count(), cols, "{row}");
        }
    }

    #[test]
    fn trace_json_is_structurally_sound() {
        let (topo, traces) = demo_traces();
        let json = trace_json(&topo, 16, AlgorithmId::Optimized, &traces);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches("\"episode\":").count(), 3);
        assert!(json.contains("\"rfo_invalidations\":"));
        assert!(json.contains("\"arrival_ns\":"));
        assert!(!json.contains("null"), "16-thread OPT episodes always split");
    }

    #[test]
    fn trace_runs_the_acceptance_invocation() {
        // `armbar trace --algorithm optimized --platform phytium2000p
        //  --threads 64` (episodes capped for test speed).
        trace(&[
            "--algorithm".to_string(),
            "optimized".into(),
            "--platform".into(),
            "phytium2000p".into(),
            "--threads".into(),
            "64".into(),
            "--episodes".into(),
            "2".into(),
            "--format".into(),
            "json".into(),
        ])
        .unwrap();
    }

    #[test]
    fn chaos_runs_a_small_sim_matrix() {
        chaos(&[
            "--platforms".to_string(),
            "kunpeng".into(),
            "--algos".into(),
            "SENSE,DIS".into(),
            "--scenarios".into(),
            "baseline,straggler,crash".into(),
            "--threads".into(),
            "4".into(),
            "--seed".into(),
            "0x7".into(),
        ])
        .unwrap();
    }

    #[test]
    fn chaos_rejects_bad_flags() {
        assert!(chaos(&["--scenarios".to_string(), "meteor".into()]).is_err());
        assert!(chaos(&["--backend".to_string(), "quantum".into()]).is_err());
        assert!(chaos(&["--threads".to_string(), "0".into()]).is_err());
        assert!(chaos(&["--deadline-ms".to_string(), "0".into()]).is_err());
        assert!(chaos(&["--seed".to_string(), "xyz".into()]).is_err());
        assert!(chaos(&["--format".to_string(), "xml".into()]).is_err());
    }

    #[test]
    fn trace_rejects_bad_flags() {
        assert!(trace(&["phytium".to_string(), "--episodes".into(), "0".into()]).is_err());
        assert!(trace(&["phytium".to_string(), "--format".into(), "xml".into()]).is_err());
        assert!(trace(&["phytium".to_string(), "--algorithm".into(), "bogus".into()]).is_err());
        assert!(trace(&["phytium".to_string(), "--algorithm".into(), "OPT,bogus".into()]).is_err());
    }

    #[test]
    fn jobs_flag_parses_and_clamps() {
        assert_eq!(parse_pool(&[]).unwrap().workers(), SweepPool::ambient().workers());
        assert_eq!(parse_pool(&["--jobs".to_string(), "1".into()]).unwrap().workers(), 1);
        let big = parse_pool(&["--jobs".to_string(), "9999".into()]).unwrap();
        assert!(big.workers() <= armbar_sweep::available_parallelism());
        assert!(parse_pool(&["--jobs".to_string(), "0".into()]).is_err());
        assert!(parse_pool(&["--jobs".to_string(), "lots".into()]).is_err());
    }

    #[test]
    fn trace_handles_multiple_algorithms() {
        // Two algorithms through the pool: runs end-to-end and writes one
        // CSV block per algorithm, in flag order.
        let out = std::env::temp_dir().join("armbar_trace_multi.csv");
        trace(&[
            "thunderx2".to_string(),
            "--algorithm".into(),
            "SENSE,OPT".into(),
            "--threads".into(),
            "8".into(),
            "--episodes".into(),
            "2".into(),
            "--jobs".into(),
            "2".into(),
            "--out".into(),
            out.to_str().unwrap().into(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let _ = std::fs::remove_file(&out);
        let headers: Vec<&str> = text.lines().filter(|l| l.starts_with("# trace:")).collect();
        assert_eq!(headers.len(), 2);
        assert!(headers[0].contains("SENSE"));
        assert!(headers[1].contains("OPT"));
    }

    #[test]
    fn conform_runs_a_small_clean_matrix() {
        let out = std::env::temp_dir().join("armbar_conform_small.csv");
        conform(&[
            "--platforms".to_string(),
            "kunpeng".into(),
            "--algos".into(),
            "SENSE,DIS".into(),
            "--threads".into(),
            "4".into(),
            "--episodes".into(),
            "1".into(),
            "--seeds".into(),
            "20".into(),
            "--schedule-seed".into(),
            "0x5EED".into(),
            "--out".into(),
            out.to_str().unwrap().into(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let _ = std::fs::remove_file(&out);
        assert!(text.starts_with("# conform: base seed 0x5eed"));
        assert_eq!(text.lines().filter(|l| l.ends_with("distinct schedules")).count(), 2);
        assert!(text.contains(",ok,"));
    }

    #[test]
    fn chaos_churn_preset_runs_both_phasers() {
        let out = std::env::temp_dir().join("armbar_chaos_churn.csv");
        chaos(&[
            "--churn".to_string(),
            "--threads".into(),
            "4".into(),
            "--jobs".into(),
            "2".into(),
            "--out".into(),
            out.to_str().unwrap().into(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let _ = std::fs::remove_file(&out);
        for needle in ["PH-CTR", "PH-TREE", "crash-evict", "degraded", "flap"] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert!(!text.contains("poisoned"), "churn preset must recover:\n{text}");
    }

    #[test]
    fn conform_phasers_runs_a_small_clean_matrix() {
        let out = std::env::temp_dir().join("armbar_conform_phasers.csv");
        conform(&[
            "--phasers".to_string(),
            "--threads".into(),
            "4".into(),
            "--episodes".into(),
            "4".into(),
            "--seeds".into(),
            "6".into(),
            "--scenarios".into(),
            "leave,flap".into(),
            "--jobs".into(),
            "2".into(),
            "--out".into(),
            out.to_str().unwrap().into(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let _ = std::fs::remove_file(&out);
        assert!(text.starts_with("# conform-phasers:"));
        for needle in ["PH-CTR,leave", "PH-TREE,flap", ",ok,"] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert!(!text.contains("VIOLATED"), "{text}");
    }

    #[test]
    fn conform_phasers_rejects_bad_flags() {
        assert!(conform(&["--phasers".to_string(), "--algos".into(), "SENSE".into()]).is_err());
        assert!(conform(&["--phasers".to_string(), "--scenarios".into(), "crash".into()]).is_err());
        assert!(conform(&["--phasers".to_string(), "--threads".into(), "1".into()]).is_err());
        assert!(conform(&["--phasers".to_string(), "--format".into(), "xml".into()]).is_err());
    }

    #[test]
    fn conform_rejects_bad_flags() {
        assert!(conform(&["--threads".to_string(), "0".into()]).is_err());
        assert!(conform(&["--episodes".to_string(), "0".into()]).is_err());
        assert!(conform(&["--seeds".to_string(), "none".into()]).is_err());
        assert!(conform(&["--schedule-seed".to_string(), "0xzz".into()]).is_err());
        assert!(conform(&["--budget".to_string(), "many".into()]).is_err());
        assert!(conform(&["--reorder-budget".to_string(), "many".into()]).is_err());
        assert!(conform(&["--format".to_string(), "xml".into()]).is_err());
        assert!(conform(&["--platforms".to_string(), "riscv".into()]).is_err());
    }

    #[test]
    fn conform_weak_runs_barriers_and_phasers() {
        // --weak must drive both matrices under the reordering explorer
        // and record the reordering knobs in both provenance headers.
        let out = std::env::temp_dir().join("armbar_conform_weak.csv");
        conform(&[
            "--weak".to_string(),
            "--platforms".into(),
            "kunpeng".into(),
            "--algos".into(),
            "SENSE".into(),
            "--threads".into(),
            "4".into(),
            "--episodes".into(),
            "2".into(),
            "--seeds".into(),
            "6".into(),
            "--jobs".into(),
            "2".into(),
            "--out".into(),
            out.to_str().unwrap().into(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let _ = std::fs::remove_file(&out);
        assert!(text.starts_with("# conform:"), "{text}");
        assert!(text.contains("rbudget 64 (p=0.8)"), "{text}");
        assert!(text.contains("# conform-phasers:"), "barriers AND phasers:\n{text}");
        assert!(text.contains("PH-CTR"), "{text}");
        assert!(text.contains("PH-TREE"), "{text}");
        assert!(!text.contains("VIOLATED"), "{text}");
    }

    #[test]
    fn conform_weak_phaser_leg_honours_the_search_flags() {
        // A phaser reproducer's `episodes E` must replay through
        // `conform --weak`: the phaser leg takes the same search flags as
        // the fixed matrix.
        let out = std::env::temp_dir().join("armbar_conform_weak_episodes.csv");
        conform(&[
            "--weak".to_string(),
            "--algos".into(),
            "SENSE".into(),
            "--threads".into(),
            "4".into(),
            "--episodes".into(),
            "3".into(),
            "--seeds".into(),
            "2".into(),
            "--schedule-seed".into(),
            "0xF00".into(),
            "--jobs".into(),
            "2".into(),
            "--out".into(),
            out.to_str().unwrap().into(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let _ = std::fs::remove_file(&out);
        let header = text
            .lines()
            .find(|l| l.starts_with("# conform-phasers:"))
            .unwrap_or_else(|| panic!("no phaser header in:\n{text}"));
        assert!(
            header.starts_with(
                "# conform-phasers: base seed 0xf00, seeds/cell 2, episodes 3, threads 4,"
            ),
            "{header}"
        );
    }

    #[test]
    fn conform_replay_flags_round_trip_the_reproducer_line() {
        // Every field of a violation's `[replay: seed S budget B
        // rbudget R episodes E]` line maps onto a flag; the provenance
        // header must echo the values back exactly.
        let out = std::env::temp_dir().join("armbar_conform_replay.csv");
        conform(&[
            "--platforms".to_string(),
            "kunpeng".into(),
            "--algos".into(),
            "SENSE".into(),
            "--threads".into(),
            "4".into(),
            "--schedule-seed".into(),
            "0xBEEF".into(),
            "--budget".into(),
            "2".into(),
            "--reorder-budget".into(),
            "4".into(),
            "--episodes".into(),
            "1".into(),
            "--seeds".into(),
            "1".into(),
            "--out".into(),
            out.to_str().unwrap().into(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let _ = std::fs::remove_file(&out);
        assert!(
            text.starts_with(
                "# conform: base seed 0xbeef, seeds/cell 1, episodes 1, threads 4, \
                 budget 2, rbudget 4"
            ),
            "{text}"
        );
    }

    #[test]
    fn conform_fence_report_writes_markdown() {
        let out = std::env::temp_dir().join("armbar_conform_fence_cells.csv");
        let report = std::env::temp_dir().join("armbar_fence_report.md");
        conform(&[
            "--platforms".to_string(),
            "kunpeng".into(),
            "--algos".into(),
            "SENSE".into(),
            "--threads".into(),
            "4".into(),
            "--episodes".into(),
            "1".into(),
            "--seeds".into(),
            "1".into(),
            "--fence-seeds".into(),
            "10".into(),
            "--fence-report".into(),
            report.to_str().unwrap().into(),
            "--jobs".into(),
            "2".into(),
            "--out".into(),
            out.to_str().unwrap().into(),
        ])
        .unwrap();
        let _ = std::fs::remove_file(&out);
        let md = std::fs::read_to_string(&report).unwrap();
        let _ = std::fs::remove_file(&report);
        assert!(md.starts_with("# Fence minimization report"), "{md}");
        assert!(md.contains("| Kunpeng920 | SENSE |"), "{md}");
        assert!(conform(&[
            "--fence-seeds".to_string(),
            "0".into(),
            "--fence-report".into(),
            "x".into()
        ])
        .is_err());
    }

    #[test]
    fn sweep_accepts_jobs_flag() {
        sweep(&[
            "kunpeng".to_string(),
            "--threads".into(),
            "2,8".into(),
            "--algos".into(),
            "DIS,OPT".into(),
            "--jobs".into(),
            "2".into(),
        ])
        .unwrap();
        assert!(sweep(&["kunpeng".to_string(), "--jobs".into(), "zero".into()]).is_err());
    }

    /// The default set skips each cell above its algorithm's bound, with a
    /// placeholder and a note, the same at any worker count; a named
    /// algorithm runs there, and its failure fails the sweep. A stand-in
    /// cell replaces the kilocore simulations.
    #[test]
    fn default_sweep_skips_contenders_above_their_bound_but_named_ones_run() {
        let ran = std::sync::Mutex::new(Vec::new());
        let cell = |p: usize, id: AlgorithmId| {
            ran.lock().unwrap().push((p, id));
            Ok(p as f64)
        };
        let algos = parse_algos(&[]).unwrap();
        let table =
            sweep_table("M", &[256, 1024], &algos, false, &SweepPool::new(2), cell).unwrap();
        let row = |p: &str| table.lines().find(|l| l.trim_start().starts_with(p)).unwrap();
        assert!(!row("256 ").contains(SKIPPED));
        assert!(row("1024 ").ends_with(&format!("{SKIPPED:>11}").repeat(2)));
        assert_eq!(row("1024 ").matches(SKIPPED).count(), 2);
        for id in AlgorithmId::CONTENDERS {
            assert!(table.contains(&format!("* {id} is not simulated above P = 256 by default")));
            assert!(ran.lock().unwrap().contains(&(256, id)));
            assert!(!ran.lock().unwrap().contains(&(1024, id)));
        }
        let serial = sweep_table("M", &[256, 1024], &algos, false, &SweepPool::new(1), cell);
        assert_eq!(serial.unwrap(), table);

        let named = [AlgorithmId::ShyCtr];
        let runs = sweep_table("M", &[1024], &named, true, &SweepPool::new(1), cell).unwrap();
        assert!(!runs.contains(SKIPPED) && ran.lock().unwrap().contains(&(1024, named[0])));
        let fails = sweep_table("M", &[1024], &named, true, &SweepPool::new(1), |_, _| {
            Err("budget exceeded".to_string())
        });
        assert_eq!(fails, Err("budget exceeded".to_string()));
    }

    #[test]
    fn usage_blocks_declare_each_commands_arguments() {
        for cmd in ["platforms", "latency", "sweep", "recommend", "phases"] {
            assert!(declared(cmd).is_some(), "{cmd} has no USAGE block");
        }
        let trace = declared("trace").unwrap();
        assert_eq!(trace.positionals, 1);
        assert!(trace.switches.is_empty());
        for flag in ["--algorithm", "--algo", "--threads", "--episodes", "--format", "--platform"] {
            assert!(trace.values.contains(&flag), "trace {flag}");
        }
        let conform = declared("conform").unwrap();
        assert_eq!(conform.switches, ["--quick", "--weak", "--phasers"]);
        assert!(
            conform.values.contains(&"--fence-report") && conform.values.contains(&"--platform")
        );
        assert_eq!(declared("serve").unwrap().values.len(), 10);
        assert!(declared("conf").is_none() && declared("help").is_none());
    }
}
