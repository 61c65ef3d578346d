//! Quickstart: the optimized barrier in a handful of lines, on both
//! backends.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use armbar::core::prelude::*;
use armbar::epcc::{sim_overhead, OverheadConfig};
use armbar::simcoh::Arena;
use armbar::{Platform, Topology};

fn main() {
    // ── 1. A real barrier for real threads ────────────────────────────
    let threads = 4;
    let topo = Topology::preset(Platform::Phytium2000Plus);
    let mut arena = Arena::new();
    let barrier: Arc<dyn Barrier> =
        Arc::from(AlgorithmId::Optimized.build(&mut arena, threads, &topo));
    let mem = HostMem::new(&arena);

    let mut totals = vec![0u64; threads];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let mem = Arc::clone(&mem);
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    let ctx = mem.ctx(tid, threads);
                    let mut local = 0u64;
                    for phase in 0..100u64 {
                        local += phase * (tid as u64 + 1); // "work"
                        barrier.wait(&ctx); // nobody starts phase k+1 early
                    }
                    local
                })
            })
            .collect();
        for (tid, h) in handles.into_iter().enumerate() {
            totals[tid] = h.join().unwrap();
        }
    });
    println!("host backend: 100 barrier-separated phases on {threads} threads -> {totals:?}");

    // ── 2. The same algorithm, costed on a modeled 64-core ARMv8 part ──
    for platform in Platform::ARM {
        let t = Arc::new(Topology::preset(platform));
        let optimized =
            sim_overhead(&t, 64, &AlgorithmId::Optimized, OverheadConfig::default()).unwrap();
        let gcc = sim_overhead(&t, 64, &AlgorithmId::Sense, OverheadConfig::default()).unwrap();
        println!(
            "simulated {:16} @64 threads: optimized {:7.2} us | GCC-style {:7.2} us ({:.1}x)",
            t.name(),
            optimized / 1000.0,
            gcc / 1000.0,
            gcc / optimized
        );
    }
}
