//! A spin-wait costs the simulator no heap allocation once a run is warm:
//! the condition is a plain `WaitKind` value, a blocked single-word wait
//! keeps its address inline, the buffers a handoff needs (the wake list, a
//! batched wait's address list) are reused from one operation to the next,
//! and a schedule policy is offered the engine's own ready list.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use armbar_simcoh::schedule::{oldest_index, ReadyOp, ScheduleDecision, SchedulePolicy};
use armbar_simcoh::{Arena, SimBuilder, WaitKind};
use armbar_topology::{Platform, Topology};

/// Counts the allocations made on the current OS thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every request to the system allocator unchanged; the
// counter is a const-initialised thread-local without a destructor, so
// touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn satisfied_spins_allocate_nothing() {
    let topo = Arc::new(Topology::preset(Platform::Kunpeng920));
    let mut arena = Arena::new();
    let words: Vec<u32> = (0..3).map(|_| arena.alloc_padded_u32(64)).collect();
    let allocs = Arc::new(AtomicU64::new(u64::MAX));
    let sink = Arc::clone(&allocs);
    SimBuilder::new(topo, 1)
        .reserve_for(&arena)
        .run(move |ctx| {
            for &w in &words {
                ctx.store(w, 5);
            }
            let spins = || {
                assert_eq!(ctx.spin_until_eq(words[0], 5), 5);
                assert_eq!(ctx.spin_until_ge(words[1], 3), 5);
                assert_eq!(ctx.spin_until(&words, WaitKind::AllGe(4)), 4);
            };
            // The first round sizes the reused buffers.
            spins();
            let before = ALLOCS.with(Cell::get);
            for _ in 0..100 {
                spins();
            }
            sink.store(ALLOCS.with(Cell::get) - before, Ordering::SeqCst);
        })
        .unwrap();
    assert_eq!(allocs.load(Ordering::SeqCst), 0);
}

/// Runs the oldest ready op, except that every third decision delays the
/// newest one by 40 ns first.
struct DelayEveryThird(u64);

impl SchedulePolicy for DelayEveryThird {
    fn pick(&mut self, ready: &[ReadyOp]) -> ScheduleDecision {
        self.0 += 1;
        if self.0.is_multiple_of(3) {
            ScheduleDecision::Delay { index: ready.len() - 1, ns: 40.0 }
        } else {
            ScheduleDecision::Run(oldest_index(ready))
        }
    }
}

/// Allocations two threads make over `ROUNDS` ping-pong rounds after one
/// warm-up round. Thread 1 spins on thread 0's flag before thread 0 has
/// computed far enough to set it, so its wait blocks every round. Each
/// thread counts its own OS thread's allocations over its rounds; a final
/// handshake keeps thread 1 from finishing inside thread 0's window.
fn ping_pong_allocs(policy: bool) -> u64 {
    const ROUNDS: u32 = 50;
    let topo = Arc::new(Topology::preset(Platform::Kunpeng920));
    let mut arena = Arena::new();
    let flags = [arena.alloc_padded_u32(64), arena.alloc_padded_u32(64)];
    let allocs = Arc::new(AtomicU64::new(0));
    let sink = Arc::clone(&allocs);
    let mut sim = SimBuilder::new(topo, 2).reserve_for(&arena);
    if policy {
        sim = sim.schedule_policy(DelayEveryThird(0));
    }
    sim.run(move |ctx| {
        let me = ctx.tid();
        let round = |r: u32| {
            if me == 0 {
                ctx.compute_ns(500.0);
                ctx.store(flags[0], r);
                ctx.spin_until_ge(flags[1], r);
            } else {
                ctx.spin_until_ge(flags[0], r);
                ctx.store(flags[1], r);
            }
        };
        round(1);
        let before = ALLOCS.with(Cell::get);
        for r in 2..=ROUNDS + 1 {
            round(r);
        }
        sink.fetch_add(ALLOCS.with(Cell::get) - before, Ordering::SeqCst);
        if me == 0 {
            ctx.store(flags[0], ROUNDS + 2);
        } else {
            ctx.spin_until_ge(flags[0], ROUNDS + 2);
        }
    })
    .unwrap();
    allocs.load(Ordering::SeqCst)
}

#[test]
fn blocking_spins_allocate_nothing() {
    assert_eq!(ping_pong_allocs(false), 0);
}

#[test]
fn policy_decisions_allocate_nothing() {
    assert_eq!(ping_pong_allocs(true), 0);
}
