//! Failure injection: *both* backends must diagnose broken synchronization
//! rather than hang. The simulator reports deadlocked barriers, panicking
//! participants, and live-locked programs as typed `SimError`s; the host
//! turns the same failures into typed `BarrierError`s via `RobustBarrier`
//! deadlines and poisoning; and the seeded chaos matrix replays the whole
//! story deterministically.

use std::sync::Arc;
use std::time::{Duration, Instant};

use armbar::core::prelude::*;
use armbar::core::HostMem;
use armbar::faults::{chaos_matrix, render_csv, Backend, ChaosConfig, Scenario};
use armbar::simcoh::{Arena, SimBuilder, SimError};
use armbar::{Platform, Topology};

/// A deliberately broken "barrier": the last arrival forgets to release
/// the waiters (a classic lost-wakeup bug).
struct LostWakeupBarrier {
    counter: u32,
    gsense: u32,
}

impl LostWakeupBarrier {
    fn new(arena: &mut Arena) -> Self {
        Self { counter: arena.alloc_padded_u32(64), gsense: arena.alloc_padded_u32(64) }
    }
}

impl Barrier for LostWakeupBarrier {
    fn wait(&self, ctx: &dyn MemCtx) {
        let p = ctx.nthreads() as u32;
        let prev = ctx.fetch_add(self.counter, 1);
        if prev == p - 1 {
            // BUG: should store to gsense here. Everyone else spins forever.
        } else {
            ctx.spin_until_eq(self.gsense, 1);
        }
    }
    fn name(&self) -> &str {
        "broken"
    }
}

#[test]
fn lost_wakeup_is_reported_as_deadlock() {
    let topo = Arc::new(Topology::preset(Platform::ThunderX2));
    let mut arena = Arena::new();
    let barrier = Arc::new(LostWakeupBarrier::new(&mut arena));
    let err = SimBuilder::new(topo, 8).run(move |ctx| barrier.wait(ctx)).unwrap_err();
    match err {
        SimError::Deadlock { waiters } => assert_eq!(waiters.len(), 7),
        other => panic!("expected deadlock, got {other}"),
    }
}

#[test]
fn wrong_epoch_direction_deadlocks_not_hangs() {
    // Waiting for a value the only writer never stores.
    let topo = Arc::new(Topology::preset(Platform::Kunpeng920));
    let mut arena = Arena::new();
    let flag = arena.alloc_padded_u32(128);
    let err = SimBuilder::new(topo, 2)
        .run(move |ctx| {
            if ctx.tid() == 0 {
                ctx.store(flag, 5);
            } else {
                ctx.spin_until_eq(flag, 4); // the writer stores 5: unsatisfiable
            }
        })
        .unwrap_err();
    assert!(matches!(err, SimError::Deadlock { .. }), "{err}");
}

#[test]
fn participant_panic_is_attributed() {
    let topo = Arc::new(Topology::preset(Platform::Phytium2000Plus));
    let mut arena = Arena::new();
    let barrier: Arc<dyn Barrier> = Arc::from(AlgorithmId::Mcs.build(&mut arena, 4, &topo));
    let err = SimBuilder::new(topo, 4)
        .run(move |ctx| {
            if ctx.tid() == 2 {
                panic!("injected failure in participant 2");
            }
            barrier.wait(ctx);
        })
        .unwrap_err();
    match err {
        SimError::ThreadPanic { tid, message, .. } => {
            assert_eq!(tid, 2);
            assert!(message.contains("injected failure"));
        }
        other => panic!("expected panic report, got {other}"),
    }
}

#[test]
fn runaway_loop_hits_the_op_budget() {
    let topo = Arc::new(Topology::preset(Platform::ThunderX2));
    let mut arena = Arena::new();
    let flag = arena.alloc_padded_u32(64);
    let err = SimBuilder::new(topo, 2)
        .op_budget(5_000)
        .run(move |ctx| {
            if ctx.tid() == 0 {
                loop {
                    ctx.fetch_add(flag, 2); // never produces an odd value
                }
            } else {
                ctx.spin_until_eq(flag, 1); // never an odd value
            }
        })
        .unwrap_err();
    assert!(matches!(err, SimError::OpBudgetExhausted { .. }), "{err}");
}

#[test]
fn host_lost_wakeup_times_out_within_the_deadline() {
    // The same broken barrier, on real threads: without RobustBarrier this
    // spins forever; with it, the hang becomes a typed Timeout and the
    // poison releases the rest of the team long before their own deadlines.
    let p = 4;
    let deadline = Duration::from_millis(300);
    let topo = Topology::preset(Platform::Kunpeng920);
    let mut arena = Arena::new();
    let inner: Box<dyn Barrier> = Box::new(LostWakeupBarrier::new(&mut arena));
    let robust = RobustBarrier::new(
        &mut arena,
        topo.cacheline_bytes(),
        inner,
        RobustConfig { deadline, ..RobustConfig::default() },
    );
    let mem = HostMem::new(&arena);

    let start = Instant::now();
    let results: Vec<Result<(), BarrierError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..p)
            .map(|tid| {
                let robust = &robust;
                let mem = Arc::clone(&mem);
                s.spawn(move || robust.wait(&mem.ctx(tid, p)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = start.elapsed();

    // The non-releasing last arrival sails through; everyone else fails
    // typed: at least one primary Timeout, the rest fail fast as Poisoned.
    assert_eq!(results.iter().filter(|r| r.is_ok()).count(), 1);
    assert!(results.iter().any(|r| matches!(r, Err(BarrierError::Timeout { .. }))), "{results:?}");
    for r in &results {
        assert!(
            !matches!(r, Err(BarrierError::Timeout { spins: 0, .. })),
            "a timeout must report its failed polls: {r:?}"
        );
    }
    // One deadline (plus scheduling slack), not one deadline per waiter.
    assert!(elapsed < deadline * 4, "took {elapsed:?} for a {deadline:?} deadline");
}

#[test]
fn host_crashed_participant_poisons_the_waiters() {
    let p = 4;
    let topo = Topology::preset(Platform::Kunpeng920);
    let mut arena = Arena::new();
    let inner = AlgorithmId::Mcs.build(&mut arena, p, &topo);
    let robust = RobustBarrier::new(
        &mut arena,
        topo.cacheline_bytes(),
        inner,
        RobustConfig { deadline: Duration::from_secs(5), ..RobustConfig::default() },
    );
    let mem = HostMem::new(&arena);

    let results: Vec<Option<Result<(), BarrierError>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..p)
            .map(|tid| {
                let robust = &robust;
                let mem = Arc::clone(&mem);
                s.spawn(move || {
                    let ctx = mem.ctx(tid, p);
                    let guard = robust.guard(&ctx);
                    if tid == 2 {
                        panic!("injected failure in participant 2");
                    }
                    let r = robust.wait(&ctx);
                    guard.disarm();
                    r
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().ok()).collect()
    });

    assert!(results[2].is_none(), "the crasher itself must unwind");
    for (tid, r) in results.iter().enumerate().filter(|&(tid, _)| tid != 2) {
        match r {
            Some(Err(BarrierError::Poisoned { by: 2, .. })) => {}
            other => panic!("t{tid}: expected Poisoned by t2, got {other:?}"),
        }
    }
    let probe = mem.ctx(0, p);
    assert_eq!(robust.poisoned_by(&probe), Some(2));
}

#[test]
fn chaos_matrix_replays_byte_identically() {
    // The acceptance smoke: same seed, same survival table, bit for bit —
    // and every algorithm absorbs the survivable scenarios.
    let config = ChaosConfig {
        platforms: vec![Platform::Kunpeng920, Platform::ThunderX2],
        scenarios: Scenario::SURVIVABLE.to_vec(),
        backends: vec![Backend::Sim],
        threads: 8,
        ..ChaosConfig::default()
    };
    let first = chaos_matrix(&config);
    let algos = AlgorithmId::ALL.len() + AlgorithmId::CONTENDERS.len();
    assert_eq!(first.len(), 2 * algos * Scenario::SURVIVABLE.len());
    for cell in &first {
        assert!(
            matches!(cell.status(), "ok" | "recovered"),
            "{}/{} on {}: {:?}",
            cell.algorithm.label(),
            cell.scenario,
            cell.platform.label(),
            cell.outcome
        );
    }
    let a = render_csv(&first, &config);
    let b = render_csv(&chaos_matrix(&config), &config);
    assert_eq!(a, b, "same seed must reproduce the same survival table");
}

#[test]
fn undersubscribed_barrier_deadlocks_cleanly() {
    // Building a barrier for 8 but running it with 4 threads: the episode
    // can never complete, and the simulator must say so.
    let topo = Arc::new(Topology::preset(Platform::ThunderX2));
    let mut arena = Arena::new();
    // NB: build for 8 participants...
    let barrier: Arc<dyn Barrier> = Arc::from(AlgorithmId::Sense.build(&mut arena, 8, &topo));
    // ...but `wait` sees nthreads() == 4 via the contexts, so the SENSE
    // counter target (4) disagrees with the other participants' view only
    // if the implementation misused its construction-time P. Run a
    // stricter variant: a combining tree built for 8 genuinely needs 8.
    let mut arena2 = Arena::new();
    let cmb: Arc<dyn Barrier> = Arc::from(AlgorithmId::Combining.build(&mut arena2, 8, &topo));
    let _ = barrier;
    let err = SimBuilder::new(topo, 4).run(move |ctx| cmb.wait(ctx)).unwrap_err();
    assert!(matches!(err, SimError::Deadlock { .. }), "{err}");
}
