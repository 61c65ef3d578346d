//! armbar-perfbench: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! armbar-perfbench --workload <sim-paper|sim-kilocore|explore|serve-zipf|all>
//!                  [--seed N] [--seconds S] [--trace 0|1]
//! armbar-perfbench --write-reference [--workload NAME]
//! ```
//!
//! Every workload runs in this one process, driven by one thread at a
//! time. The work of a run is fixed by `--seconds` (a whole number of
//! passes, each sized to take a known time on a 2-vCPU x86-64 VM, as read
//! from the benchmark's calibrated clock), so two builds compare on
//! identical work and the program's memory growth per simulation costs the
//! same in every run. `--seed` selects one of the committed input
//! variants; every op's output is checked against that variant's
//! reference. The last line of standard output is the JSON result; see
//! `perfbench/README.md` for the metrics.

mod clock;
mod explore;
mod reference;
mod serve;
mod sim;
mod stats;
mod suites;
#[cfg(test)]
mod tests;
mod trace;
mod workload;

use reference::{Reference, VARIANTS};
use stats::{median, op_latency_metrics, peak_rss_kb, result_json, Metrics};
use trace::Tracer;
use workload::{Checker, OpLog, PassCtx, Workload};

/// Calls the generic `$f::<W>` for the workload type named `$name`.
macro_rules! dispatch {
    ($name:expr, $f:ident, ($($arg:expr),*)) => {
        match $name {
            "sim-paper" => $f::<sim::SimPaper>($($arg),*),
            "sim-kilocore" => $f::<sim::SimKilocore>($($arg),*),
            "explore" => $f::<explore::Explore>($($arg),*),
            "serve-zipf" => $f::<serve::Serve>($($arg),*),
            other => unreachable!("unknown workload {other}"),
        }
    };
}

const WORKLOADS: [&str; 4] = ["sim-paper", "sim-kilocore", "explore", "serve-zipf"];
/// Set-ups per run; `setup_s` is their median. The first four or so run
/// slower while the process's heap grows to its working size, so the
/// count keeps the median well inside the steady ones.
const SETUP_REPS: usize = 15;

/// Clock seconds one pass of `workload` takes. The explore figure is about
/// four times its pass time: every conformance trial leaks its
/// simulation's engine state (the fiber transport never drops it), so
/// explore measures for about a quarter of `--seconds` to keep the process
/// near 350 MiB at 20 seconds.
fn pass_seconds(workload: &str) -> f64 {
    match workload {
        "sim-paper" => 1.1,
        "sim-kilocore" => 2.2,
        "explore" => 1.33,
        "serve-zipf" => 0.7,
        _ => unreachable!("workload names are validated"),
    }
}

fn passes_for(workload: &str, seconds: u64) -> usize {
    ((seconds as f64 / pass_seconds(workload)).round() as usize).max(1)
}

/// Runs `f` on a fresh host thread while this one waits. The fiber
/// transport pools its stacks per host thread, so every set-up and pass
/// simulates on freshly allocated stacks, which are freed when it ends:
/// where in the caches the thousand stacks of a P=1024 simulation land
/// then varies from pass to pass and averages out within a run, instead of
/// being fixed for the whole run by its first allocation (which moved the
/// sim-kilocore median by 25% between runs of one seed), and no pool
/// outlives the step that filled it.
fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| s.spawn(f).join().expect("a benchmark step panicked"))
}

/// One measured run of a workload.
struct Run<W> {
    workload: W,
    setup_s: Vec<f64>,
    run_s: f64,
    /// Wall seconds of the timed phase, calibrations included.
    wall_s: f64,
    log: OpLog,
}

/// Runs `setups` set-ups and `passes` timed passes. The host's speed
/// drifts over seconds, so set-ups after the first are spread over the
/// run, one between consecutive passes (any left over run before the
/// first pass), and their median samples the whole run rather than one
/// moment of it. A set-up between passes is dropped once timed.
fn measure<W: Workload>(
    variant: u64,
    passes: usize,
    setups: usize,
    tracer: &mut Tracer,
    checker: &mut Checker,
) -> Run<W> {
    let mut setup_s = Vec::with_capacity(setups);
    let mut set_up = |tracer: &mut Tracer| {
        let s = tracer.begin("bench.setup", setup_s.len() as u64);
        clock::calibrate();
        let t = clock::now();
        let w = on_fresh_thread(|| W::setup(variant, passes, tracer));
        setup_s.push(clock::secs_since(t));
        tracer.end(s);
        w
    };
    let between = setups.saturating_sub(1).min(passes - 1);
    let mut workload = set_up(tracer);
    for _ in between + 1..setups {
        drop(workload);
        workload = set_up(tracer);
    }
    let mut log = OpLog::default();
    log.samples_ns.reserve_exact(passes * workload.samples_per_pass());
    let (mut run_s, mut wall_s) = (0.0, 0.0);
    for pass in 0..passes {
        if (1..=between).contains(&pass) {
            drop(set_up(tracer));
        }
        let mut cx =
            PassCtx { variant, tracer: &mut *tracer, checker: &mut *checker, log: &mut log };
        let (t, wall) = (clock::now(), std::time::Instant::now());
        on_fresh_thread(|| workload.pass(pass, &mut cx));
        run_s += clock::secs_since(t);
        wall_s += wall.elapsed().as_secs_f64();
    }
    Run { workload, setup_s, run_s, wall_s, log }
}

fn checker_for(workload: &str) -> Checker {
    Checker::Check(Reference::parse(reference::committed(workload)))
}

/// The end-to-end metrics of one untraced run.
fn end_to_end(name: &str, variant: u64, seconds: u64) -> (Metrics, OpLog) {
    fn go<W: Workload>(name: &str, variant: u64, seconds: u64) -> (Metrics, OpLog) {
        let mut checker = checker_for(name);
        let mut tracer = Tracer::new(false);
        let passes = passes_for(name, seconds);
        let run = measure::<W>(variant, passes, SETUP_REPS, &mut tracer, &mut checker);
        let mut m = Metrics::default();
        m.push("setup_s", median(&run.setup_s), "s", run.setup_s.len());
        m.push("run_s", run.run_s, "s", passes);
        op_latency_metrics(&mut m, &run.log.samples_ns);
        m.push("peak_rss_mb", peak_rss_kb() as f64 / 1024.0, "MiB", 1);
        let k = clock::kernel_us();
        eprintln!(
            "host: wall run {:.3} s; calibration kernel median {:.1} us over {} timings",
            run.wall_s,
            median(&k),
            k.len()
        );
        (m, run.log)
    }
    dispatch!(name, go, (name, variant, seconds))
}

/// Traced run of `name` (plus an untraced twin for the tracing overhead),
/// one traced pass of every other workload, and the quick suites.
fn traced(name: &str, variant: u64, seconds: u64) -> (Metrics, OpLog) {
    /// Runs `workload` untraced (when `twin`) and traced; returns the
    /// traced run's tracer and, with a twin, the overhead in seconds.
    fn go<W: Workload>(
        wl: &str,
        variant: u64,
        passes: usize,
        twin: bool,
        m: &mut Metrics,
        log: &mut OpLog,
    ) -> (Tracer, Option<f64>) {
        let mut checker = checker_for(wl);
        let untraced_s = twin.then(|| {
            let run = measure::<W>(variant, passes, 1, &mut Tracer::new(false), &mut checker);
            log.attempted += run.log.attempted;
            log.failed += run.log.failed;
            run.run_s
        });
        let mut tracer = Tracer::new(true);
        let run = measure::<W>(variant, passes, 1, &mut tracer, &mut checker);
        log.attempted += run.log.attempted;
        log.failed += run.log.failed;
        run.workload.layer_metrics(m);
        (tracer, untraced_s.map(|u| run.run_s - u))
    }
    let mut m = Metrics::default();
    let mut log = OpLog::default();
    let mut tracers = Vec::new();
    let mut overhead = 0.0;
    for wl in WORKLOADS {
        // The twins run half the untraced run's passes: the difference
        // between them is the overhead, and the traced run stays within
        // the time limit beside the quick suites.
        let (passes, twin) =
            if wl == name { ((passes_for(wl, seconds) / 2).max(1), true) } else { (1, false) };
        let (tracer, o) = dispatch!(wl, go, (wl, variant, passes, twin, &mut m, &mut log));
        overhead += o.unwrap_or(0.0);
        tracers.push(tracer);
    }
    let mut tracer = Tracer::new(true);
    suites::run(&mut tracer, &mut log, &mut m);
    tracers.push(tracer);

    m.push("trace.overhead_s", overhead, "s", 1);
    let spans: usize = tracers.iter().map(Tracer::len).sum();
    m.push("trace.spans", spans as f64, "count", 1);
    let mut self_s = std::collections::BTreeMap::new();
    for t in &tracers {
        for (layer, s) in t.self_time_by_layer() {
            *self_s.entry(layer).or_insert(0.0) += s;
        }
    }
    for (layer, s) in self_s {
        m.push(format!("trace.self_s.{layer}"), s, "s", 1);
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{name}-variant{variant}.tsv"));
    let tsv: String = tracers.iter().map(Tracer::to_tsv).collect();
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tsv))
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    eprintln!("spans written to {}", path.display());
    (m, log)
}

/// Regenerates the committed reference of `name` from the current code.
fn write_reference(name: &str) {
    fn go<W: Workload>(name: &str) {
        let mut text = format!(
            "# {name}: expected op outputs per input variant (variant key fields...).\n\
             # Regenerate with `armbar-perfbench --write-reference --workload {name}`.\n"
        );
        for variant in 0..VARIANTS {
            let mut checker = Checker::Record(Vec::new());
            let run = measure::<W>(variant, 1, 1, &mut Tracer::new(false), &mut checker);
            assert_eq!(run.log.failed, 0, "{name} variant {variant} failed an invariant");
            let Checker::Record(lines) = checker else { unreachable!() };
            for l in lines {
                text.push_str(&l);
                text.push('\n');
            }
        }
        let path = reference::path(name);
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }
    dispatch!(name, go, (name))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        write_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-reference" {
            args.write_reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("bad {flag} value {value:?}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let known = WORKLOADS.contains(&args.workload.as_str()) || args.workload == "all";
    if args.write_reference && args.workload.is_empty() {
        args.workload = "all".into();
    } else if !known {
        return Err(format!("--workload must be one of {} or all", WORKLOADS.join(", ")));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    // One driving thread: the experiment suites' sweep pool runs inline.
    armbar_sweep::set_global_jobs(1);
    let names: Vec<&str> =
        if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };
    if args.write_reference {
        names.iter().for_each(|n| write_reference(n));
        return;
    }
    let variant = args.seed % VARIANTS;
    let mut all = Metrics::default();
    let mut log = OpLog::default();
    for name in &names {
        let (m, l) = if args.trace {
            traced(name, variant, args.seconds)
        } else {
            end_to_end(name, variant, args.seconds)
        };
        println!(
            "# {name} (seed {}, variant {variant}, ops {}, failed {})",
            args.seed, l.attempted, l.failed
        );
        print!("{}", m.table());
        log.attempted += l.attempted;
        log.failed += l.failed;
        for metric in m.iter() {
            let full = if names.len() > 1 {
                format!("{name}.{}", metric.name)
            } else {
                metric.name.clone()
            };
            all.push(full, metric.value, metric.unit, metric.samples);
        }
    }
    println!("{}", result_json(log.attempted, log.failed, &all));
}
