//! Additional engine tests: the batched (MLP) wait, the NoC bandwidth
//! queue, and the busy-line requeue discipline. Split from `engine.rs` to
//! keep the engine readable.

use std::sync::Arc;

use armbar_topology::{Topology, TopologyBuilder};

use crate::arena::Arena;
use crate::engine::SimBuilder;
use crate::error::SimError;
use crate::stats::OpKind;

/// 8 cores, clusters of 4, zero jitter, no NoC charge:
/// ε = 1, L0 = 10 (α 0.5), L1 = 40 (α 0.5), inv = 2, read contention = 3.
fn topo() -> Arc<Topology> {
    Arc::new(
        TopologyBuilder::new("t8", 8)
            .epsilon_ns(1.0)
            .layer("near", 10.0, 0.5)
            .layer("far", 40.0, 0.5)
            .hierarchy(&[4])
            .coherence(2.0, 3.0, 0.0)
            .build(),
    )
}

/// Same machine with a 5 ns/transaction NoC.
fn topo_noc() -> Arc<Topology> {
    Arc::new(
        TopologyBuilder::new("t8noc", 8)
            .epsilon_ns(1.0)
            .layer("near", 10.0, 0.5)
            .layer("far", 40.0, 0.5)
            .hierarchy(&[4])
            .coherence(2.0, 3.0, 0.0)
            .noc_ns(5.0)
            .build(),
    )
}

#[test]
fn batched_wait_pays_max_not_sum() {
    // Thread 3 batch-waits on flags owned by threads 0 (L0), 1 (L0) and
    // 4 (L1 = 40). All were written before the wait begins, so the probe
    // fetches three lines: max(40) + 0.3·(10+10) = 46, not 60.
    let mut arena = Arena::new();
    let f0 = arena.alloc_padded_u32(64);
    let f1 = arena.alloc_padded_u32(64);
    let f4 = arena.alloc_padded_u32(64);
    let stats = SimBuilder::new(topo(), 5)
        .run(move |ctx| match ctx.tid() {
            0 => ctx.store(f0, 1),
            1 => ctx.store(f1, 1),
            4 => ctx.store(f4, 1),
            3 => {
                ctx.compute_ns(1000.0); // let the writers go first
                let t0 = ctx.now_ns();
                ctx.spin_until_all_ge(&[f0, f1, f4], 1);
                let dt = ctx.now_ns() - t0;
                assert!((dt - 46.0).abs() < 1e-9, "batched probe cost {dt}");
            }
            _ => {}
        })
        .unwrap();
    assert_eq!(stats.ops(OpKind::RemoteRead), 3);
}

#[test]
fn batched_wait_blocks_until_all_satisfied() {
    let mut arena = Arena::new();
    let f0 = arena.alloc_padded_u32(64);
    let f1 = arena.alloc_padded_u32(64);
    let stats = SimBuilder::new(topo(), 3)
        .run(move |ctx| match ctx.tid() {
            0 => {
                ctx.compute_ns(100.0);
                ctx.store(f0, 1);
            }
            1 => {
                ctx.compute_ns(500.0);
                ctx.store(f1, 1);
            }
            2 => {
                ctx.spin_until_all_ge(&[f0, f1], 1);
                // Released only after the slower writer (t=500) plus wake.
                assert!(ctx.now_ns() > 500.0, "woke at {}", ctx.now_ns());
            }
            _ => unreachable!(),
        })
        .unwrap();
    assert_eq!(stats.ops(OpKind::SpinWakeup), 1);
}

#[test]
fn batched_wait_empty_list_is_noop() {
    let stats = SimBuilder::new(topo(), 1)
        .run(move |ctx| {
            ctx.spin_until_all_ge(&[], 99);
            ctx.compute_ns(7.0);
        })
        .unwrap();
    assert_eq!(stats.max_time_ns(), 7.0);
}

#[test]
fn batched_deadlock_is_detected() {
    let mut arena = Arena::new();
    let f0 = arena.alloc_padded_u32(64);
    let f1 = arena.alloc_padded_u32(64);
    let err = SimBuilder::new(topo(), 2)
        .run(move |ctx| {
            if ctx.tid() == 0 {
                ctx.store(f0, 1); // f1 never written
            } else {
                ctx.spin_until_all_ge(&[f0, f1], 1);
            }
        })
        .unwrap_err();
    assert!(matches!(err, SimError::Deadlock { .. }), "{err}");
}

#[test]
fn noc_queue_serializes_concurrent_remote_traffic() {
    // Seven threads each pull a line owned by thread 0 at the same time.
    // Without the NoC each pays its own latency; with a 5 ns service
    // interval the k-th transaction queues behind k−1 others.
    let run = |topo: Arc<Topology>| {
        let mut arena = Arena::new();
        let lines = arena.alloc_padded_u32_array(8, 64);
        SimBuilder::new(topo, 8)
            .run(move |ctx| {
                let me = ctx.tid();
                if me == 0 {
                    for i in 0..8usize {
                        ctx.store(lines + 64 * i as u32, 1);
                    }
                    ctx.store(lines + 64 * 7, 2); // "ready" signal on line 7
                } else {
                    ctx.spin_until_ge(lines + 64 * 7, 1);
                    ctx.load(lines + 64 * me as u32);
                }
            })
            .unwrap()
            .max_time_ns()
    };
    let without = run(topo());
    let with = run(topo_noc());
    assert!(with > without + 10.0, "NoC queueing should slow the burst: {without} vs {with}");
}

#[test]
fn noc_charge_skips_local_traffic() {
    // A thread hammering its own exclusive line never touches the NoC.
    let run = |topo: Arc<Topology>| {
        let mut arena = Arena::new();
        let a = arena.alloc_padded_u32(64);
        SimBuilder::new(topo, 1)
            .run(move |ctx| {
                for i in 0..100 {
                    ctx.store(a, i);
                }
            })
            .unwrap()
            .max_time_ns()
    };
    assert_eq!(run(topo()), run(topo_noc()));
}

#[test]
fn busy_line_requeue_interleaves_spinner_registration() {
    // The signature effect of the requeue discipline: a spinner that
    // *issues* its first read while a queue of RMWs is draining still
    // registers mid-queue, so later RMWs pay invalidations to it. With
    // five RMW threads and one spinner, the spinner's crowd presence makes
    // the total strictly larger than the sum of uncontended RMWs.
    let mut arena = Arena::new();
    let counter = arena.alloc_padded_u32(64);
    let stats = SimBuilder::new(topo(), 6)
        .run(move |ctx| {
            if ctx.tid() == 0 {
                ctx.spin_until_ge(counter, 5);
            } else {
                ctx.fetch_add(counter, 1);
            }
        })
        .unwrap();
    // All five RMWs completed and the spinner woke exactly once.
    assert_eq!(stats.ops(OpKind::SpinWakeup), 1);
    let total = stats.max_time_ns();
    assert!(total > 5.0 * 16.0, "crowd effects missing? total {total}");
}

#[test]
fn rmw_surcharge_makes_atomics_costlier_than_stores() {
    let mut arena = Arena::new();
    let a = arena.alloc_padded_u32(64);
    let b = arena.alloc_padded_u32(64);
    let stats = SimBuilder::new(topo(), 2)
        .run(move |ctx| {
            if ctx.tid() == 0 {
                ctx.store(a, 1);
                ctx.store(b, 1);
            } else {
                ctx.spin_until_eq(a, 1);
                ctx.spin_until_eq(b, 1);
                let t0 = ctx.now_ns();
                ctx.store(a, 2); // plain store to a remote-owned line
                let store_cost = ctx.now_ns() - t0;
                let t1 = ctx.now_ns();
                ctx.fetch_add(b, 1); // RMW on an equivalent line
                let rmw_cost = ctx.now_ns() - t1;
                assert!(rmw_cost > store_cost, "RMW ({rmw_cost}) must exceed store ({store_cost})");
            }
        })
        .unwrap();
    assert!(stats.total_mem_ops() > 0);
}

#[test]
fn hotspot_accounting_identifies_the_hot_line() {
    // Everyone hammers one counter; a second line sees a single write.
    let mut arena = Arena::new();
    let hot = arena.alloc_padded_u32(64);
    let cold = arena.alloc_padded_u32(64);
    let stats = SimBuilder::new(topo(), 8)
        .run(move |ctx| {
            for _ in 0..10 {
                ctx.fetch_add(hot, 1);
            }
            if ctx.tid() == 0 {
                ctx.store(cold, 1);
            }
        })
        .unwrap();
    let hottest = stats.hottest_lines(1);
    assert_eq!(hottest.len(), 1);
    assert_eq!(hottest[0].0, hot / 64);
    assert_eq!(hottest[0].1.writes, 80);
    assert!(stats.hotspot_concentration() > 0.95);
}

#[test]
fn spread_traffic_has_low_concentration() {
    let mut arena = Arena::new();
    let lines = arena.alloc_padded_u32_array(8, 64);
    let stats = SimBuilder::new(topo(), 8)
        .run(move |ctx| {
            let mine = lines + 64 * ctx.tid() as u32;
            for i in 0..10 {
                ctx.store(mine, i);
            }
        })
        .unwrap();
    assert!((stats.hotspot_concentration() - 0.125).abs() < 1e-9);
    assert_eq!(stats.hottest_lines(100).len(), 8);
}

#[test]
fn invalidation_counts_reflect_sharer_crowds() {
    let mut arena = Arena::new();
    let flag = arena.alloc_padded_u32(64);
    let stats = SimBuilder::new(topo(), 5)
        .run(move |ctx| {
            if ctx.tid() == 0 {
                ctx.compute_ns(500.0); // let all four spinners subscribe
                ctx.store(flag, 1);
            } else {
                ctx.spin_until_eq(flag, 1);
            }
        })
        .unwrap();
    let t = stats.line_traffic()[&(flag / 64)];
    assert_eq!(t.writes, 1);
    assert_eq!(t.invalidations, 4, "the release must invalidate all four spinners");
    assert_eq!(t.peak_sharers, 4);
}

// ---------------------------------------------------------------------------
// Schedule-policy tests: the policy engine path must be semantically
// identical to the default heap path under MinTimePolicy, stay deterministic
// under perturbation, and survive adversarial policies.

use crate::schedule::{MinTimePolicy, ReadyOp, ScheduleDecision, SchedulePolicy};

/// A contended episode body: every thread RMWs a shared counter, the last
/// arriver releases a flag, the rest spin on it.
fn barrier_body(counter: u32, flag: u32, n: u32) -> impl Fn(&crate::engine::SimThread) + Clone {
    move |ctx: &crate::engine::SimThread| {
        for round in 1..=3u32 {
            let prev = ctx.fetch_add(counter, 1);
            if prev + 1 == round * n {
                ctx.store(flag, round);
            } else {
                ctx.spin_until_ge(flag, round);
            }
        }
    }
}

#[test]
fn policy_mode_matches_default_with_min_time_policy() {
    let make = |policy: bool| {
        let mut arena = Arena::new();
        let counter = arena.alloc_padded_u32(64);
        let flag = arena.alloc_padded_u32(64);
        let b = SimBuilder::new(topo(), 6).seed(42);
        let b = if policy { b.schedule_policy(MinTimePolicy) } else { b };
        b.run(barrier_body(counter, flag, 6)).unwrap()
    };
    let default = make(false);
    let policied = make(true);
    assert_eq!(default.per_thread_time_ns(), policied.per_thread_time_ns());
    assert_eq!(default.total_mem_ops(), policied.total_mem_ops());
    assert_eq!(
        default.schedule_hash(),
        policied.schedule_hash(),
        "MinTimePolicy must reproduce the default processing order exactly"
    );
}

/// Always runs the highest-index ready op: a maximally unfair order that
/// ignores virtual time entirely.
struct ReversePolicy;

impl SchedulePolicy for ReversePolicy {
    fn pick(&mut self, ready: &[ReadyOp]) -> ScheduleDecision {
        ScheduleDecision::Run(ready.len() - 1)
    }
}

#[test]
fn adversarial_order_still_completes_the_barrier() {
    let mut arena = Arena::new();
    let counter = arena.alloc_padded_u32(64);
    let flag = arena.alloc_padded_u32(64);
    let stats = SimBuilder::new(topo(), 8)
        .schedule_policy(ReversePolicy)
        .run(barrier_body(counter, flag, 8))
        .unwrap();
    // 3 rounds × 7 spinners woke (the releaser never spins).
    assert_eq!(stats.ops(OpKind::SpinWakeup), 21);
}

/// Delays every flag-site write once by a fixed amount, then behaves
/// normally.
struct DelayOncePolicy {
    delays_left: u32,
}

impl SchedulePolicy for DelayOncePolicy {
    fn pick(&mut self, ready: &[ReadyOp]) -> ScheduleDecision {
        if self.delays_left > 0 {
            if let Some(i) =
                ready.iter().position(|r| matches!(r.kind, crate::schedule::ReadyOpKind::Write))
            {
                self.delays_left -= 1;
                return ScheduleDecision::Delay { index: i, ns: 250.0 };
            }
        }
        MinTimePolicy.pick(ready)
    }
}

#[test]
fn injected_delays_change_the_schedule_but_not_the_outcome() {
    let run = |delays: u32| {
        let mut arena = Arena::new();
        let counter = arena.alloc_padded_u32(64);
        let flag = arena.alloc_padded_u32(64);
        SimBuilder::new(topo(), 4)
            .schedule_policy(DelayOncePolicy { delays_left: delays })
            .run(barrier_body(counter, flag, 4))
            .unwrap()
    };
    let plain = run(0);
    let delayed = run(3);
    assert_eq!(plain.ops(OpKind::SpinWakeup), delayed.ops(OpKind::SpinWakeup));
    assert_ne!(
        plain.schedule_hash(),
        delayed.schedule_hash(),
        "delay injection must register as a distinct schedule"
    );
}

/// Returns garbage decisions; the engine must fall back instead of wedging.
struct MisbehavingPolicy;

impl SchedulePolicy for MisbehavingPolicy {
    fn pick(&mut self, ready: &[ReadyOp]) -> ScheduleDecision {
        // An out-of-range index, or a NaN delay.
        if ready.len().is_multiple_of(2) {
            ScheduleDecision::Run(usize::MAX)
        } else {
            ScheduleDecision::Delay { index: 0, ns: f64::NAN }
        }
    }
}

#[test]
fn misbehaving_policy_falls_back_to_oldest() {
    let mut arena = Arena::new();
    let counter = arena.alloc_padded_u32(64);
    let flag = arena.alloc_padded_u32(64);
    let stats = SimBuilder::new(topo(), 4)
        .schedule_policy(MisbehavingPolicy)
        .run(barrier_body(counter, flag, 4))
        .unwrap();
    assert_eq!(stats.ops(OpKind::SpinWakeup), 9);
}

#[test]
fn policy_runs_are_deterministic() {
    let run = || {
        let mut arena = Arena::new();
        let counter = arena.alloc_padded_u32(64);
        let flag = arena.alloc_padded_u32(64);
        let s = SimBuilder::new(topo(), 8)
            .schedule_policy(ReversePolicy)
            .run(barrier_body(counter, flag, 8))
            .unwrap();
        (s.schedule_hash(), s.total_mem_ops())
    };
    assert_eq!(run(), run());
}

#[test]
fn policy_mode_detects_deadlock() {
    let mut arena = Arena::new();
    let a = arena.alloc_u32();
    let err = SimBuilder::new(topo(), 2)
        .schedule_policy(ReversePolicy)
        .run(move |ctx| {
            ctx.spin_until_ge(a, 1); // nobody ever writes
        })
        .unwrap_err();
    assert!(matches!(err, SimError::Deadlock { .. }), "{err}");
}

#[test]
fn policy_mode_respects_op_budget() {
    let mut arena = Arena::new();
    let a = arena.alloc_u32();
    let err = SimBuilder::new(topo(), 1)
        .schedule_policy(ReversePolicy)
        .op_budget(500)
        .run(move |ctx| loop {
            ctx.store(a, 1);
        })
        .unwrap_err();
    assert!(matches!(err, SimError::OpBudgetExhausted { .. }), "{err}");
}

#[test]
fn default_schedule_hash_is_stable_and_seed_independent_ops() {
    // Zero-jitter topology: different seeds draw identical jitter factors,
    // so the processing order — and hence the hash — must match.
    let run = |seed: u64| {
        let mut arena = Arena::new();
        let counter = arena.alloc_padded_u32(64);
        let flag = arena.alloc_padded_u32(64);
        SimBuilder::new(topo(), 4).seed(seed).run(barrier_body(counter, flag, 4)).unwrap()
    };
    assert_eq!(run(1).schedule_hash(), run(2).schedule_hash());
    assert_ne!(run(1).schedule_hash(), 0, "hash must record the processed ops");
}

#[test]
fn failed_cas_wakes_no_one_but_keeps_the_spinners_as_sharers() {
    // t1 and t2 spin on `a == 5`. t0's failed CAS rewrites the unchanged
    // value: it invalidates both spinners' copies, wakes neither, and the
    // spinners re-fetch the line — so t0's next write pays them again.
    let mut arena = Arena::new();
    let a = arena.alloc_padded_u32(64);
    SimBuilder::new(topo(), 3)
        .run(move |ctx| {
            if ctx.tid() != 0 {
                assert_eq!(ctx.spin_until_eq(a, 5), 5);
                return;
            }
            ctx.compute_ns(100.0); // let both spinners park first
            let c0 = ctx.coherence_counters();
            assert_eq!(ctx.compare_exchange(a, 9, 7), 0, "the CAS must fail");
            let c1 = ctx.coherence_counters();
            assert_eq!(c1.rfo_invalidations - c0.rfo_invalidations, 2);
            assert_eq!(c1.spin_wakeups, 0, "an unchanged word wakes no one");
            ctx.store(a, 5);
            let c2 = ctx.coherence_counters();
            assert_eq!(c2.rfo_invalidations - c1.rfo_invalidations, 2, "spinners re-added");
            assert_eq!(c2.spin_wakeups, 2);
        })
        .unwrap();
}

#[test]
fn store_to_a_neighbouring_word_leaves_the_spinner_blocked_but_charged() {
    // t1 spins on word 1; t0 stores word 0 of the same line twice. Each
    // store invalidates the spinner's copy without waking it, and the
    // spinner re-fetches the line after each one.
    let mut arena = Arena::new();
    let base = arena.alloc_u32_array(2);
    let (w0, w1) = (base, base + 4);
    SimBuilder::new(topo(), 2)
        .run(move |ctx| {
            if ctx.tid() == 1 {
                assert_eq!(ctx.spin_until_eq(w1, 1), 1);
                return;
            }
            ctx.compute_ns(100.0); // let the spinner park first
            ctx.store(w0, 7);
            let c = ctx.coherence_counters();
            assert_eq!((c.rfo_invalidations, c.spin_wakeups), (1, 0));
            // t0 now owns the line and t1 shares it again: the write waits
            // for the farthest holder (L0 = 10) and pays its RFO (α·L0 = 5).
            let t0 = ctx.now_ns();
            ctx.store(w0, 8);
            assert_eq!(ctx.now_ns() - t0, 15.0);
            let c = ctx.coherence_counters();
            assert_eq!((c.rfo_invalidations, c.spin_wakeups), (2, 0));
            ctx.store(w1, 1); // release the spinner
        })
        .unwrap();
}

#[test]
fn a_run_keeps_nothing_its_body_captured() {
    // The engine state of a finished run is freed, body included, under
    // either transport and whether the run succeeds or deadlocks.
    let token = Arc::new(());
    let mut arena = Arena::new();
    let flag = arena.alloc_padded_u32(64);
    let held = Arc::clone(&token);
    SimBuilder::new(topo(), 4)
        .run(move |ctx| {
            let _ = &held;
            if ctx.tid() == 0 {
                ctx.store(flag, 1);
            } else {
                ctx.spin_until_eq(flag, 1);
            }
        })
        .unwrap();
    assert_eq!(Arc::strong_count(&token), 1, "a finished run leaked its body");
    let held = Arc::clone(&token);
    let err = SimBuilder::new(topo(), 2)
        .run(move |ctx| {
            let _ = &held;
            ctx.spin_until_eq(flag, 1);
        })
        .unwrap_err();
    assert!(matches!(err, SimError::Deadlock { .. }), "{err}");
    assert_eq!(Arc::strong_count(&token), 1, "an aborted run leaked its body");
}

// ---------------------------------------------------------------------------
// Busy-line storm oracle: the policy path re-posts every stalled op through
// one dispatch each, and under MinTimePolicy it reproduces the default
// processing order exactly. Whatever the default engine does with a busy
// line's queued losers must leave every observable bit where that oracle
// puts it.

use crate::engine::SimThread;
use crate::stats::RunStats;

/// SHY-CTR's shape on raw simulator ops: a CAS test-and-test-and-set lock
/// and a monotonic arrival counter on one line, exited by a `≥` spin.
fn cas_counter_storm(lock: u32, count: u32, episodes: u32) -> impl Fn(&SimThread) + Clone {
    move |ctx: &SimThread| {
        let p = ctx.nthreads() as u32;
        for _ in 0..episodes {
            while ctx.compare_exchange(lock, 0, 1) != 0 {
                ctx.spin_until_eq(lock, 0);
            }
            let c = ctx.load(count).wrapping_add(1);
            ctx.store_relaxed(count, c);
            ctx.store(lock, 0);
            ctx.spin_until_ge(count, c.div_ceil(p) * p);
        }
    }
}

/// Runs `body` on the default engine and under [`MinTimePolicy`], asserts
/// the two agree on the schedule hash, every thread's clock and every
/// thread's coherence counters (exact `f64` equality), or on the error,
/// and returns the default engine's result.
fn assert_matches_policy_oracle(
    topo: Arc<Topology>,
    p: usize,
    budget: Option<u64>,
    body: impl Fn(&SimThread) + Clone + Send + Sync + 'static,
) -> Result<RunStats, SimError> {
    let run = |policy: bool| {
        let b = SimBuilder::new(Arc::clone(&topo), p).seed(7);
        let b = match budget {
            Some(ops) => b.op_budget(ops),
            None => b,
        };
        let b = if policy { b.schedule_policy(MinTimePolicy) } else { b };
        b.run(body.clone())
    };
    let (default, oracle) = (run(false), run(true));
    match (&default, &oracle) {
        (Ok(d), Ok(o)) => {
            assert_eq!(d.schedule_hash(), o.schedule_hash(), "schedule hash");
            assert_eq!(d.per_thread_time_ns(), o.per_thread_time_ns(), "thread clocks");
            assert_eq!(d.coherence().per_thread(), o.coherence().per_thread(), "counters");
        }
        (Err(d), Err(o)) => assert_eq!(d, o),
        _ => panic!("default {default:?} vs policy oracle {oracle:?}"),
    }
    default
}

fn storm_on(
    topo: Arc<Topology>,
    p: usize,
    episodes: u32,
    budget: Option<u64>,
) -> Result<RunStats, SimError> {
    let mut arena = Arena::new();
    let line = topo.cacheline_bytes();
    let base = arena.alloc(line, line);
    assert_matches_policy_oracle(topo, p, budget, cas_counter_storm(base, base + 4, episodes))
}

#[test]
fn lock_storm_matches_the_one_op_per_dispatch_oracle() {
    let small = storm_on(topo(), 8, 3, None).unwrap();
    assert!(small.coherence().total().write_stalls > 0, "no storm at P=8");
    let mempool = Arc::new(armbar_topology::platforms::mempool_256());
    let big = storm_on(mempool, 64, 2, None).unwrap();
    assert!(big.coherence().total().write_stalls > 20_000, "no storm at P=64");
}

#[test]
fn lock_storm_budget_runs_out_at_the_same_op_as_the_oracle() {
    let mempool = Arc::new(armbar_topology::platforms::mempool_256());
    for budget in [5_000, 20_000] {
        let err = storm_on(Arc::clone(&mempool), 64, 2, Some(budget)).unwrap_err();
        assert_eq!(err, SimError::OpBudgetExhausted { ops: budget + 1, budget });
    }
}

/// Thread 7 takes `line` at t = 0 with a fetch-add that ends at `a`;
/// threads 0–3 and 5 store to it three times each from `a / 2`, so they
/// queue as one stall run at `a`. There thread 0 wins, thread 1 is the
/// run's first loser, and thread 4 holds the key `(a, 4)` between losers 3
/// and 5: running (the reply to a fence that ends at `a`) or posted (a load
/// of `other` issued at `a`).
fn split_run(a: f64, running: bool) -> Result<RunStats, SimError> {
    let mut arena = Arena::new();
    let line = arena.alloc_padded_u32(64);
    let other = arena.alloc_padded_u32(64);
    let body = move |ctx: &SimThread| match ctx.tid() {
        4 => {
            if running {
                ctx.compute_ns(a - 1.0);
                ctx.fence(); // ε = 1: the reply lands at exactly `a`
                assert_eq!(ctx.now_ns(), a);
            } else {
                ctx.compute_ns(a);
            }
            ctx.load(other);
        }
        6 => {}
        7 => {
            ctx.fetch_add(line, 1);
        }
        tid => {
            ctx.compute_ns(a / 2.0);
            for i in 0..3 {
                ctx.store(line, tid as u32 * 10 + i);
            }
        }
    };
    assert_matches_policy_oracle(topo(), 8, None, body)
}

#[test]
fn same_time_keys_inside_a_stall_run_cut_it_identically() {
    // A fetch-add on a cold line ends at the same time whoever issues it;
    // thread 1's store stalls behind thread 0's until then.
    let mut arena = Arena::new();
    let line = arena.alloc_padded_u32(64);
    let probe = SimBuilder::new(topo(), 2)
        .run(move |ctx| {
            if ctx.tid() == 0 {
                ctx.fetch_add(line, 1);
            } else {
                ctx.store(line, 1);
            }
        })
        .unwrap();
    let a = probe.coherence().thread(1).write_stall_ns;
    assert!(a > 1.0, "the fence must start after t = 0");
    for running in [false, true] {
        let stats = split_run(a, running).unwrap();
        assert!(stats.coherence().thread(5).write_stalls >= 2, "thread 5 never re-stalled");
    }
}

/// The stall run at `a` of [`split_run`]'s shape, with thread 4's op on
/// another line that a fetch-add of thread 6 keeps busy until the same
/// `a`: a store to that line, or a batched wait on it (no single line).
/// Thread 4's entry sits between losers 3 and 5 of line `a`'s run.
fn run_with_a_foreign_entry(a: f64, batched: bool) -> Result<RunStats, SimError> {
    let mut arena = Arena::new();
    let line = arena.alloc_padded_u32(64);
    let other = arena.alloc_padded_u32(64);
    let body = move |ctx: &SimThread| match ctx.tid() {
        6 => {
            ctx.fetch_add(other, 1);
        }
        7 => {
            ctx.fetch_add(line, 1);
        }
        4 => {
            ctx.compute_ns(a / 2.0);
            if batched {
                ctx.spin_until_all_ge(&[other], 1);
            } else {
                ctx.store(other, 9);
            }
        }
        tid => {
            ctx.compute_ns(a / 2.0);
            for i in 0..3 {
                ctx.store(line, tid as u32 * 10 + i);
            }
        }
    };
    assert_matches_policy_oracle(topo(), 8, None, body)
}

/// The time a fetch-add on a cold line ends, whoever issues it.
fn cold_fetch_add_ns() -> f64 {
    let mut arena = Arena::new();
    let line = arena.alloc_padded_u32(64);
    let probe = SimBuilder::new(topo(), 2)
        .run(move |ctx| {
            if ctx.tid() == 0 {
                ctx.fetch_add(line, 1);
            } else {
                ctx.store(line, 1);
            }
        })
        .unwrap();
    probe.coherence().thread(1).write_stall_ns
}

#[test]
fn an_entry_on_another_line_or_a_batched_wait_ends_the_stretch() {
    let a = cold_fetch_add_ns();
    for batched in [false, true] {
        let stats = run_with_a_foreign_entry(a, batched).unwrap();
        // Thread 4 stalled once, until `a`, then ran: its line was free.
        let c = stats.coherence().thread(4);
        let (stalls, ns) = if batched {
            (c.read_stalls, c.read_stall_ns)
        } else {
            (c.write_stalls, c.write_stall_ns)
        };
        assert_eq!((stalls, ns), (1, a / 2.0), "batched {batched}");
        // The losers on either side of it re-stalled on `line`.
        for tid in [3, 5] {
            assert!(
                stats.coherence().thread(tid).write_stalls >= 2,
                "thread {tid} never re-stalled"
            );
        }
    }
}

#[test]
fn read_and_write_stalls_on_one_line_match_the_oracle_bit_for_bit() {
    let mempool = Arc::new(armbar_topology::platforms::mempool_256());
    let mut arena = Arena::new();
    let word = arena.alloc_padded_u32(mempool.cacheline_bytes());
    let p = 64;
    let rounds = 3;
    // Even threads add, odd threads re-read the word and then spin on it,
    // so one line's stall runs mix RMWs, loads and spin entries.
    let body = move |ctx: &SimThread| {
        for _ in 0..rounds {
            if ctx.tid().is_multiple_of(2) {
                ctx.fetch_add(word, 1);
            } else {
                ctx.load(word);
            }
        }
        ctx.spin_until_ge(word, rounds * p as u32 / 2);
    };
    let stats = assert_matches_policy_oracle(Arc::clone(&mempool), p, None, body).unwrap();
    let oracle =
        SimBuilder::new(mempool, p).seed(7).schedule_policy(MinTimePolicy).run(body).unwrap();
    let bits = |c: &crate::stats::CoherenceCounters| {
        (c.write_stalls, c.write_stall_ns.to_bits(), c.read_stalls, c.read_stall_ns.to_bits())
    };
    for (tid, (d, o)) in
        stats.coherence().per_thread().iter().zip(oracle.coherence().per_thread()).enumerate()
    {
        assert_eq!(bits(d), bits(o), "thread {tid}");
    }
    let total = stats.coherence().total();
    assert!(total.write_stalls > 0 && total.read_stalls > 0, "{total:?}");
    let restalled_reader = stats.coherence().per_thread().iter().skip(1).step_by(2);
    assert!(restalled_reader.clone().any(|c| c.read_stalls >= 2), "no reader re-stalled");
}

#[test]
fn a_counter_snapshot_taken_mid_storm_matches_the_oracle() {
    let mempool = Arc::new(armbar_topology::platforms::mempool_256());
    let mut arena = Arena::new();
    let line = mempool.cacheline_bytes();
    let lock = arena.alloc(line, line);
    let storm = cas_counter_storm(lock, lock + 4, 2);
    // Every thread snapshots the counters after each lock attempt; both
    // runs append to one log, the default engine's first.
    let log = Arc::new(std::sync::Mutex::new(Vec::new()));
    let seen = Arc::clone(&log);
    let body = move |ctx: &SimThread| {
        storm(ctx);
        let c = ctx.coherence_counters();
        seen.lock().unwrap().push((ctx.tid(), c));
        while ctx.compare_exchange(lock, 0, 1) != 0 {
            let c = ctx.coherence_counters();
            seen.lock().unwrap().push((ctx.tid(), c));
            ctx.spin_until_eq(lock, 0);
        }
        ctx.store(lock, 0);
    };
    let p = 64;
    let stats = assert_matches_policy_oracle(mempool, p, None, body).unwrap();
    let log = std::mem::take(&mut *log.lock().unwrap());
    let (default, oracle) = log.split_at(log.len() / 2);
    // Each thread's snapshots in its program order.
    let by_thread = |half: &[(usize, crate::stats::CoherenceCounters)]| {
        let mut v = half.to_vec();
        v.sort_by_key(|&(tid, _)| tid);
        v
    };
    assert_eq!(by_thread(default), by_thread(oracle));
    let total = stats.coherence().total();
    assert!(default.len() > p, "no thread waited for the lock");
    // Taken mid-storm: stalls already counted, and not all of them.
    assert!(default.iter().any(|(_, c)| c.write_stalls > 0 && c.write_stalls < total.write_stalls));
    assert!(default.iter().all(|(_, c)| c.write_stall_ns <= total.write_stall_ns));
}
