//! A barrier episode costs no heap allocation on the host backend once the
//! barrier is warm: every address a thread waits on or signals is fixed at
//! construction, so the wait path only does arithmetic over it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use armbar_core::{AlgorithmId, FwayConfig, HostMem, WakeupKind};
use armbar_simcoh::Arena;
use armbar_topology::TopologyBuilder;

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

const P: usize = 4;
const WARM_UP: u32 = 3;
const EPISODES: u32 = 50;

/// Allocations each of `P` host threads makes over `EPISODES` episodes of
/// `id`'s barrier, after `WARM_UP` episodes.
fn allocs_per_thread(id: AlgorithmId) -> Vec<u64> {
    // Two clusters of two cores: HYBRID gets a cluster level and a
    // tournament level, and the contention makes OPT and HYBRID pick the
    // NUMA-aware tree wake-up.
    let topo = TopologyBuilder::new("two pairs", P)
        .layer("pair", 10.0, 0.5)
        .layer("cross", 40.0, 0.5)
        .hierarchy(&[2])
        .coherence(5.0, 5.0, 0.0)
        .build();
    assert_eq!(FwayConfig::optimized(&topo).wakeup, WakeupKind::NumaTree);
    let mut arena = Arena::new();
    let barrier: Arc<dyn armbar_core::Barrier> = Arc::from(id.build(&mut arena, P, &topo));
    let mem = HostMem::new(&arena);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..P)
            .map(|tid| {
                let mem = Arc::clone(&mem);
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    let ctx = mem.ctx(tid, P);
                    for _ in 0..WARM_UP {
                        barrier.wait(&ctx);
                    }
                    let before = ALLOCS.with(Cell::get);
                    for _ in 0..EPISODES {
                        barrier.wait(&ctx);
                    }
                    ALLOCS.with(Cell::get) - before
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    })
}

#[test]
fn warm_barrier_episodes_allocate_nothing() {
    let allocating: Vec<_> = AlgorithmId::ALL
        .into_iter()
        .chain(AlgorithmId::CONTENDERS)
        .map(|id| (id.label(), allocs_per_thread(id)))
        .filter(|(_, allocs)| allocs.iter().any(|&n| n > 0))
        .collect();
    assert!(allocating.is_empty(), "allocations per thread on the wait path: {allocating:?}");
}
