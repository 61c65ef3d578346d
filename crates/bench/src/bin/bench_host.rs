//! Machine-readable host-barrier overhead: `BENCH_host.json`.
//!
//! Measures barrier overhead on real host atomics by the paper's EPCC
//! method, through [`armbar_epcc::host_overhead_of`]: time a
//! delay-plus-barrier loop, subtract the delay-only loop, and divide by the
//! number of episodes. Keys:
//!
//! * `host_overhead_ns_<label>_p<P>` for SENSE, DIS, MCS, TOUR and OPT, at
//!   P = 2 and at P = min(nproc, 4) when that is above 2. The cap at 4 keeps
//!   the threads on their own cores: an oversubscribed barrier measures the
//!   OS scheduler, not the algorithm.
//! * `robust_overhead_ns_<label>_p2` for SENSE, DIS and OPT: the same inner
//!   barrier behind `RobustBarrier::wait` (bounded polling plus a poison
//!   check), so the hardening cost reads as the gap to the plain key.
//!
//! ```text
//! bench_host [--out PATH] [--summary PATH]
//! ```
//!
//! Each key is the median of seven passes over all keys. Every key is
//! informational; there is no gate flag on purpose. Host numbers move
//! with the neighbours and the vCPU placement of a shared VM: on a 2-vCPU
//! x86-64 Xeon VM, twelve runs put the middle half of OPT at P = 2 between
//! 427 and 464 ns, yet one run read every key 3–8× lower. At P = 1 every
//! algorithm read 0–13 ns, which is timer noise, so P = 1 gets no key. A
//! gate needs a noise band measured from the spread of repeated runs. An
//! unknown flag or a missing value prints the usage line and exits 2. If
//! the output file already exists, its `baseline` section is carried
//! forward.

use armbar_bench::report::{self, Point};
use armbar_bench::{best_pass, Args};
use armbar_core::prelude::*;
use armbar_epcc::{host_overhead_ns, host_overhead_of, OverheadConfig};
use armbar_simcoh::Arena;
use armbar_topology::{Platform, Topology};

/// Warm-up and measured episodes per run; the per-episode delay is the
/// EPCC default (100 ns).
const CFG: OverheadConfig =
    OverheadConfig { warmup: 1_000, episodes: 20_000, delay_ns: 100.0, seed: 0 };
/// Timed passes over every key (odd, so each key has a middle pass).
const PASSES: u64 = 7;

/// The overhead of `id` behind [`RobustBarrier::wait`], built on the same
/// preset as [`host_overhead_ns`] builds the plain barrier.
fn robust_overhead_ns(p: usize, id: AlgorithmId) -> f64 {
    let topo = Topology::preset(Platform::Phytium2000Plus);
    let mut arena = Arena::new();
    let inner = id.build(&mut arena, p, &topo);
    let robust =
        RobustBarrier::new(&mut arena, topo.cacheline_bytes(), inner, RobustConfig::default());
    let wait = |ctx: &HostCtx| robust.wait(ctx).expect("healthy episode");
    host_overhead_of(p, &HostMem::new(&arena), wait, CFG)
}

fn main() {
    let args = Args::from_env("bench_host [--out PATH] [--summary PATH]");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut threads = vec![2];
    if nproc.min(4) > 2 {
        threads.push(nproc.min(4));
    }

    let label = |id: AlgorithmId| id.label().to_ascii_lowercase();
    let mut probes: Vec<(String, Box<dyn Fn() -> f64>)> = Vec::new();
    for &p in &threads {
        for id in [
            AlgorithmId::Sense,
            AlgorithmId::Dissemination,
            AlgorithmId::Mcs,
            AlgorithmId::Tournament,
            AlgorithmId::Optimized,
        ] {
            let key = format!("host_overhead_ns_{}_p{p}", label(id));
            probes.push((key, Box::new(move || host_overhead_ns(p, id, CFG))));
        }
    }
    for id in [AlgorithmId::Sense, AlgorithmId::Dissemination, AlgorithmId::Optimized] {
        let key = format!("robust_overhead_ns_{}_p2", label(id));
        probes.push((key, Box::new(move || robust_overhead_ns(2, id))));
    }

    // A pass takes every key once, so a disturbance that lasts a while (a
    // neighbour's burst, a vCPU waking from idle) spoils a pass or two, not
    // every run of one key. Each key reports its median pass: when the two
    // threads end up sharing one vCPU, a run reads far too high or far too
    // low, so neither the best nor the worst pass can be trusted.
    // `best_pass` with one attempt runs a warm-up pass, then the timed
    // passes back to back.
    let one_pass = |_| probes.iter().map(|(_, measure)| measure()).collect::<Vec<f64>>();
    let (_, passes) = best_pass(1, PASSES, one_pass, |_, _| 0.0);
    let points: Vec<Point> = probes
        .iter()
        .enumerate()
        .map(|(i, (key, _))| {
            let mut ns: Vec<f64> = passes.iter().map(|pass| pass[i]).collect();
            ns.sort_by(f64::total_cmp);
            Point::new(key.clone(), ns[ns.len() / 2])
        })
        .collect();
    report::write(
        args.value("--out").unwrap_or("BENCH_host.json"),
        &points,
        "Host barrier overhead (informational)",
        args.value("--summary"),
        None,
    );
}
