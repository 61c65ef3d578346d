//! Golden-master regression: the simulator's model output is pinned
//! byte-for-byte.
//!
//! The fixture under `tests/fixtures/` is a quick-scale `runner::curve` CSV for
//! phytium2000p × {SENSE, STOUR, DIS} on the canonical seed schedule,
//! rendered with Rust's default (shortest round-trip) `f64` formatting. Any
//! engine or topology change that shifts a single bit of any overhead value
//! changes a byte here and fails the test — performance refactors must
//! reproduce the model's output exactly, not approximately.
//!
//! To regenerate after an *intentional* model change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_master
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use std::sync::Arc;

use armbar_core::env::Barrier;
use armbar_core::prelude::AlgorithmId;
use armbar_experiments::{
    runner::{curve, topo},
    Scale,
};
use armbar_simcoh::{Arena, SimBuilder};
use armbar_sweep::SweepPool;
use armbar_topology::{Platform, RmwCosts, Topology};

const ALGOS: [AlgorithmId; 3] =
    [AlgorithmId::Sense, AlgorithmId::Stour, AlgorithmId::Dissemination];

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// Renders the golden curves for one topology. Serial pool — the
/// sweep-determinism suite already proves parallel pools produce
/// identical bytes.
fn render_golden_csv_for(t: &Arc<Topology>) -> String {
    let scale = Scale::quick();
    let pool = SweepPool::new(1);
    let mut csv = String::from("algorithm,threads,overhead_ns\n");
    for id in ALGOS {
        for (p, ns) in curve(&pool, t, &id, &scale) {
            writeln!(csv, "{},{},{}", id.label(), p, ns).unwrap();
        }
    }
    csv
}

fn render_golden_csv(platform: Platform) -> String {
    render_golden_csv_for(&topo(platform))
}

fn check_fixture(platform: Platform, name: &str) {
    check_rendered(name, render_golden_csv(platform));
}

fn check_rendered(name: &str, fresh: String) {
    let path = fixture_path(name);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&path, &fresh).expect("failed to write fixture");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {} ({e}); run with GOLDEN_REGEN=1", path.display())
    });
    assert_eq!(
        fresh, committed,
        "simulator output diverged from the golden master; if the model \
         change is intentional, regenerate with GOLDEN_REGEN=1"
    );
}

#[test]
fn model_output_matches_committed_fixture_byte_for_byte() {
    check_fixture(Platform::Phytium2000Plus, "golden_algo_curve_phytium_quick.csv");
}

/// This fixture was generated by the single-heap engine that preceded the
/// (since removed) cluster-sharded scheduler, and is never regenerated:
/// every scheduler since, today's heap plus stall queue included, must
/// reproduce it byte for byte.
#[test]
fn sharded_scheduler_reproduces_pre_shard_kunpeng_fixture() {
    check_fixture(Platform::Kunpeng920, "golden_algo_curve_kunpeng_quick.csv");
}

/// Same provenance as the Kunpeng fixture, for the two-socket ThunderX2.
#[test]
fn sharded_scheduler_reproduces_pre_shard_thunderx2_fixture() {
    check_fixture(Platform::ThunderX2, "golden_algo_curve_thunderx2_quick.csv");
}

/// Equal-costs identity (DESIGN.md §17): the `presplit_*` fixtures are
/// byte copies of the ARM golden masters as generated by the engine
/// *before* the per-op-kind RMW cost split, when every platform charged
/// the single legacy surcharge `ε + 0.5·transfer`. Re-running the same
/// curves on the split engine with a uniform legacy table must reproduce
/// those bytes exactly — `1.0·ε + 0.5·transfer` is the same IEEE-754
/// expression, so the refactor may not move a single bit. These fixtures
/// are frozen: there is deliberately no `GOLDEN_REGEN` path here.
#[test]
fn legacy_rmw_costs_reproduce_presplit_fixtures_byte_for_byte() {
    for (platform, name) in [
        (Platform::Phytium2000Plus, "presplit_algo_curve_phytium_quick.csv"),
        (Platform::ThunderX2, "presplit_algo_curve_thunderx2_quick.csv"),
        (Platform::Kunpeng920, "presplit_algo_curve_kunpeng_quick.csv"),
    ] {
        let t = Arc::new(Topology::preset(platform).with_rmw_costs(RmwCosts::legacy()));
        let fresh = render_golden_csv_for(&t);
        let committed = std::fs::read_to_string(fixture_path(name))
            .unwrap_or_else(|e| panic!("missing frozen fixture {name} ({e})"));
        assert_eq!(
            fresh, committed,
            "{platform:?}: the split engine under uniform legacy RMW costs \
             must be byte-identical to the pre-split engine"
        );
    }
}

/// One kilocore EPCC simulation (1 warm-up, 1 measured episode, 100 ns of
/// work per episode, seed `0x5EED`) rendered as a fixture row: the
/// schedule hash, the overhead in shortest round-trip `f64`, and the
/// machine-wide coherence counters, stall times as raw `f64` bits.
fn render_kilocore_row(platform: Platform, p: usize, id: AlgorithmId) -> String {
    const DELAY_NS: f64 = 100.0;
    let topo = Arc::new(Topology::preset(platform));
    let barrier: Arc<dyn Barrier> = Arc::from(id.build(&mut Arena::new(), p, &topo));
    let stats = SimBuilder::new(topo, p)
        .seed(0x5EED)
        .run(move |ctx| {
            ctx.compute_ns(DELAY_NS);
            barrier.wait(ctx);
            ctx.mark(1);
            ctx.compute_ns(DELAY_NS);
            barrier.wait(ctx);
            ctx.mark(2);
        })
        .unwrap_or_else(|e| panic!("{} P={p}: {e}", id.label()));
    let t0 = stats.last_mark_time(1).expect("warm-up mark");
    let t1 = stats.last_mark_time(2).expect("end mark");
    let overhead = (t1 - t0 - DELAY_NS).max(0.0);
    let c = stats.coherence().total();
    format!(
        "{},{},{},{:016x},{},{},{},{},{},{},{},{},{:016x},{},{:016x},{}",
        platform.label(),
        id.label(),
        p,
        stats.schedule_hash(),
        overhead,
        c.local_reads,
        c.remote_reads,
        c.reader_contention_events,
        c.local_writes,
        c.remote_writes,
        c.rfo_invalidations,
        c.write_stalls,
        c.write_stall_ns.to_bits(),
        c.read_stalls,
        c.read_stall_ns.to_bits(),
        c.spin_wakeups
    )
}

/// Kilocore pin: the centralized, dissemination and static-tournament
/// barriers at P=1024 and the two contenders at P=256 — the write-stall
/// storms, thousand-spinner wake sweeps and 1024-wide sharer sets that no
/// quick-scale curve reaches. Fixture generated by the engine as it stood
/// before the single-heap stall queue, word-indexed wakeups and layer-mask
/// sharer sums, so it proves those paths byte-identical to what they
/// replaced, stall counters included.
#[test]
fn kilocore_runs_match_committed_fixture() {
    let mut csv = String::from(
        "platform,algorithm,threads,schedule_hash,overhead_ns,local_reads,remote_reads,\
         reader_contention_events,local_writes,remote_writes,rfo_invalidations,write_stalls,\
         write_stall_ns_bits,read_stalls,read_stall_ns_bits,spin_wakeups\n",
    );
    let cells = [
        (Platform::MemPool1024, 1024, AlgorithmId::Sense),
        (Platform::MemPool1024, 1024, AlgorithmId::Dissemination),
        (Platform::MemPool1024, 1024, AlgorithmId::Stour),
        (Platform::MemPool256, 256, AlgorithmId::ShyCtr),
        (Platform::MemPool256, 256, AlgorithmId::ShyProxy),
    ];
    for (platform, p, id) in cells {
        csv.push_str(&render_kilocore_row(platform, p, id));
        csv.push('\n');
    }
    check_rendered("golden_kilocore.csv", csv);
}
