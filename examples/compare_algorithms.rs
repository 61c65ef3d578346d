//! Sweep every barrier algorithm on a chosen (simulated) platform and
//! print an overhead-vs-threads table — Figure 7 for one machine, as a
//! library call you can point at any topology.
//!
//! ```text
//! cargo run --release --example compare_algorithms            # ThunderX2
//! cargo run --release --example compare_algorithms kunpeng920
//! cargo run --release --example compare_algorithms "phytium 2000+"
//! ```

use std::sync::Arc;

use armbar::core::prelude::*;
use armbar::epcc::{sim_overhead, OverheadConfig};
use armbar::{Platform, Topology};

fn main() {
    let wanted = std::env::args().nth(1).unwrap_or_else(|| "thunderx2".into());
    let platform = Platform::ALL
        .into_iter()
        .find(|p| p.label().to_ascii_lowercase().contains(&wanted.to_ascii_lowercase()))
        .unwrap_or_else(|| {
            eprintln!("unknown platform {wanted:?}; try one of:");
            for p in Platform::ALL {
                eprintln!("  {p}");
            }
            std::process::exit(1);
        });
    let topo = Arc::new(Topology::preset(platform));
    println!(
        "barrier overhead (us/episode) on simulated {} ({} cores, N_c = {})",
        topo.name(),
        topo.num_cores(),
        topo.n_c()
    );

    let algorithms: Vec<AlgorithmId> = AlgorithmId::SEVEN
        .into_iter()
        .chain([AlgorithmId::LlvmHyper, AlgorithmId::Optimized])
        .collect();

    print!("{:>8}", "threads");
    for id in &algorithms {
        print!("{:>11}", id.label());
    }
    println!();
    for p in [2usize, 4, 8, 16, 32, 64] {
        if p > topo.num_cores() {
            continue;
        }
        print!("{p:>8}");
        for &id in &algorithms {
            let ns = sim_overhead(&topo, p, &id, OverheadConfig::default()).unwrap();
            print!("{:>11.2}", ns / 1000.0);
        }
        println!();
    }
    println!("\n(OPT is this library's optimized barrier: padded flags, fan-in 4,");
    println!(" platform-selected wake-up tree.)");
}
