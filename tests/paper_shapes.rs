//! End-to-end assertions of the paper's headline claims, at reduced scale
//! (DESIGN.md §4 "Expected shapes"). These are the workspace's acceptance
//! tests: if a refactor silently breaks the modeled physics or an
//! algorithm's structure, a claim below fails.

use std::sync::Arc;

use armbar::core::prelude::*;
use armbar::epcc::{sim_overhead, OverheadConfig};
use armbar::{Platform, Topology};

fn topo(p: Platform) -> Arc<Topology> {
    Arc::new(Topology::preset(p))
}

fn overhead(t: &Arc<Topology>, p: usize, id: AlgorithmId) -> f64 {
    sim_overhead(t, p, &id, OverheadConfig { episodes: 20, ..Default::default() }).unwrap()
}

#[test]
fn sense_is_several_times_slower_on_arm_than_on_xeon() {
    // Figure 5's motivation at 32 threads.
    let xeon = overhead(&topo(Platform::XeonGold), 32, AlgorithmId::Sense);
    for platform in Platform::ARM {
        let arm = overhead(&topo(platform), 32, AlgorithmId::Sense);
        assert!(arm > 2.0 * xeon, "{platform}: {arm} vs Xeon {xeon}");
    }
    let tx2 = overhead(&topo(Platform::ThunderX2), 32, AlgorithmId::Sense);
    assert!(tx2 > 4.0 * xeon, "ThunderX2 must be the worst: {tx2} vs {xeon}");
}

#[test]
fn optimized_barrier_beats_gcc_by_an_order_of_magnitude() {
    // Table IV, GCC row (paper: 8x–23x).
    for platform in Platform::ARM {
        let t = topo(platform);
        let gcc = overhead(&t, 64, AlgorithmId::Sense);
        let opt = overhead(&t, 64, AlgorithmId::Optimized);
        let speedup = gcc / opt;
        assert!(speedup > 6.0, "{platform}: GCC speedup only {speedup:.1}x");
    }
}

#[test]
fn optimized_barrier_beats_llvm() {
    // Table IV, LLVM row (paper: 2.5x–9x).
    for platform in Platform::ARM {
        let t = topo(platform);
        let llvm = overhead(&t, 64, AlgorithmId::LlvmHyper);
        let opt = overhead(&t, 64, AlgorithmId::Optimized);
        let speedup = llvm / opt;
        assert!(speedup > 1.5, "{platform}: LLVM speedup only {speedup:.1}x");
    }
}

#[test]
fn optimized_barrier_beats_every_existing_algorithm_at_full_width() {
    // Table IV, state-of-the-art row (paper: 1.4x–1.8x).
    for platform in Platform::ARM {
        let t = topo(platform);
        let opt = overhead(&t, 64, AlgorithmId::Optimized);
        for id in AlgorithmId::SEVEN {
            let v = overhead(&t, 64, id);
            assert!(v > opt, "{platform}: {id} ({v:.0} ns) beat OPT ({opt:.0} ns)");
        }
    }
}

#[test]
fn dissemination_spikes_when_crossing_cluster_boundaries() {
    // Section IV-B: once P > N_c, DIS pays remote traffic every round.
    // On ThunderX2 (N_c = 32) the 32→33 step is dramatic.
    let t = topo(Platform::ThunderX2);
    let at32 = overhead(&t, 32, AlgorithmId::Dissemination);
    let at33 = overhead(&t, 33, AlgorithmId::Dissemination);
    assert!(at33 > 1.8 * at32, "DIS 32→33: {at32:.0} → {at33:.0} ns");
}

#[test]
fn dissemination_loses_to_tournament_at_scale() {
    for platform in Platform::ARM {
        let t = topo(platform);
        let dis = overhead(&t, 64, AlgorithmId::Dissemination);
        let tour = overhead(&t, 64, AlgorithmId::Tournament);
        assert!(dis > tour, "{platform}: DIS {dis:.0} vs TOUR {tour:.0}");
    }
}

#[test]
fn sense_grows_roughly_linearly() {
    // Figure 7(a): near-linear growth (between linear and gently
    // superlinear; far from the quadratic a naive crowd model would give).
    let t = topo(Platform::ThunderX2);
    let a = overhead(&t, 16, AlgorithmId::Sense);
    let b = overhead(&t, 32, AlgorithmId::Sense);
    let c = overhead(&t, 64, AlgorithmId::Sense);
    assert!(b / a > 1.6 && b / a < 4.0, "16→32 growth {:.2}", b / a);
    assert!(c / b > 1.6 && c / b < 4.5, "32→64 growth {:.2}", c / b);
}

#[test]
fn kunpeng_is_the_noisy_platform() {
    // The paper reports dramatic fluctuation on Kunpeng 920. Compare the
    // spread of repeated measurements across seeds.
    use armbar::epcc::sim_overhead_reps;
    use armbar_sweep::SweepPool;
    let cfg = OverheadConfig { episodes: 20, ..Default::default() };
    let reps = |platform| {
        let pool = SweepPool::ambient();
        sim_overhead_reps(&pool, &topo(platform), 32, &AlgorithmId::Stour, cfg, 8).unwrap()
    };
    let (kp, phy) = (reps(Platform::Kunpeng920), reps(Platform::Phytium2000Plus));
    assert!(
        kp.cv() > 2.0 * phy.cv(),
        "Kunpeng cv {:.3} should dwarf Phytium cv {:.3}",
        kp.cv(),
        phy.cv()
    );
}

#[test]
fn single_thread_barriers_are_nearly_free_everywhere() {
    for platform in Platform::ARM {
        let t = topo(platform);
        for id in AlgorithmId::ALL {
            let v = overhead(&t, 1, id);
            assert!(v < 600.0, "{platform}/{id}: P=1 overhead {v:.0} ns");
        }
    }
}
