//! A spin-wait whose condition already holds costs the simulator no heap
//! allocation: the condition is a plain `WaitKind` value, and the buffers
//! a handoff needs (the wake list, a batched wait's address list) are
//! reused from one operation to the next.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
