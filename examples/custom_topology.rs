//! Define your own machine model and evaluate the barrier design space on
//! it — here, a hypothetical 4-socket ThunderX2-style part ("TX2x4") that
//! does not exist in the paper.
//!
//! This is the intended workflow for a new chip: measure (or estimate)
//! the latency layers, describe the cluster hierarchy, then let the
//! analytical model and the simulator pick the barrier configuration.
//!
//! ```text
//! cargo run --release --example custom_topology
//! ```

use std::sync::Arc;

use armbar::core::prelude::*;
use armbar::epcc::{sim_overhead, OverheadConfig};
use armbar::model::{optimal_fanin_int, recommend_wakeup, WakeupChoice};
use armbar::TopologyBuilder;

fn main() {
    // A fictional 4-socket, 96-core machine: 24 cores per socket in
    // clusters of 8, with a slow inter-socket mesh.
    let topo = Arc::new(
        TopologyBuilder::new("TX2x4 (hypothetical)", 96)
            .cacheline_bytes(64)
            .epsilon_ns(1.2)
            .layer("within a cluster", 18.0, 0.8)
            .layer("within a socket", 32.0, 0.8)
            .layer("across sockets", 180.0, 0.9)
            .hierarchy(&[8, 24])
            .coherence(18.0, 9.0, 0.03)
            .noc_ns(3.0)
            .build(),
    );
    println!("machine: {} ({} cores, N_c = {})", topo.name(), topo.num_cores(), topo.n_c());

    // 1. Ask the analytical model for a configuration.
    let f = optimal_fanin_int(&topo, topo.num_cores());
    let wake = match recommend_wakeup(&topo, topo.num_cores()) {
        WakeupChoice::Global => WakeupKind::Global,
        WakeupChoice::Tree => WakeupKind::NumaTree,
    };
    println!("model recommends: fan-in {f}, {} wake-up", wake.label());

    // 2. Validate by simulating the neighbourhood of that configuration.
    let p = topo.num_cores();
    println!("\nsimulated overhead at {p} threads (us):");
    for (label, config) in [
        ("original STOUR".to_string(), FwayConfig::stour()),
        (
            format!("padded {f}-way + global"),
            FwayConfig {
                fanin: Fanin::Fixed(f),
                padded_flags: true,
                dynamic: false,
                wakeup: WakeupKind::Global,
            },
        ),
        (
            format!("padded {f}-way + binary tree"),
            FwayConfig {
                fanin: Fanin::Fixed(f),
                padded_flags: true,
                dynamic: false,
                wakeup: WakeupKind::BinaryTree,
            },
        ),
        (
            format!("padded {f}-way + NUMA tree"),
            FwayConfig {
                fanin: Fanin::Fixed(f),
                padded_flags: true,
                dynamic: false,
                wakeup: WakeupKind::NumaTree,
            },
        ),
    ] {
        let ns = sim_overhead(&topo, p, &config, OverheadConfig::default()).unwrap();
        println!("  {label:32} {:8.2}", ns / 1000.0);
    }
}
