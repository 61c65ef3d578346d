//! The parallel sweep engine is invisible in the output: any worker count
//! produces byte-identical results files, and seed-matched measurement
//! paths stay point-for-point comparable.

use std::sync::Arc;

use armbar_core::prelude::*;
use armbar_experiments::runner::{curve, topo};
use armbar_experiments::{figs, Scale};
use armbar_faults::{chaos_matrix_on, render_csv, render_json, ChaosConfig};
use armbar_sweep::{Job, SweepPool};
use armbar_topology::Platform;

/// A quick-scale figure pipeline rendered to CSV under a pinned ambient
/// worker count.
fn fig07_csv(jobs: usize) -> String {
    armbar_sweep::set_global_jobs(jobs);
    figs::fig07::run(&Scale::quick()).iter().map(|r| r.to_csv()).collect()
}

#[test]
fn quick_scale_figure_csv_is_byte_identical_across_worker_counts() {
    let serial = fig07_csv(1);
    let parallel = fig07_csv(4);
    assert!(!serial.is_empty());
    assert_eq!(serial, parallel, "worker count leaked into figure output");
}

#[test]
fn curves_are_byte_identical_across_worker_counts() {
    let scale = Scale::quick();
    for platform in [Platform::Phytium2000Plus, Platform::Kunpeng920] {
        let t = topo(platform);
        let serial = curve(&SweepPool::new(1), &t, &AlgorithmId::Optimized, &scale);
        let parallel = curve(&SweepPool::new(4), &t, &AlgorithmId::Optimized, &scale);
        assert_eq!(serial, parallel, "{platform:?}");

        let config = FwayConfig::stour();
        let serial = curve(&SweepPool::new(1), &t, &config, &scale);
        let parallel = curve(&SweepPool::new(4), &t, &config, &scale);
        assert_eq!(serial, parallel, "{platform:?}");
    }
}

#[test]
fn chaos_renderings_are_byte_identical_across_worker_counts() {
    let config = ChaosConfig {
        algorithms: vec![AlgorithmId::Sense, AlgorithmId::Dissemination, AlgorithmId::Optimized],
        threads: 4,
        ..ChaosConfig::default()
    };
    let serial = chaos_matrix_on(&SweepPool::new(1), &config);
    let parallel = chaos_matrix_on(&SweepPool::new(4), &config);
    assert_eq!(render_csv(&serial, &config), render_csv(&parallel, &config));
    assert_eq!(render_json(&serial, &config), render_json(&parallel, &config));
}

#[test]
fn registry_and_custom_fway_curves_are_seed_matched() {
    // Regression for the seed-protocol bug: the registry STOUR curve and
    // the equivalent custom FwayConfig curve must agree exactly, at any
    // worker count, on every platform the paper compares them on.
    let scale = Scale::quick();
    let pool = SweepPool::new(2);
    for platform in Platform::ARM {
        let t = topo(platform);
        let registry = curve(&pool, &t, &AlgorithmId::Stour, &scale);
        let custom = curve(&pool, &t, &FwayConfig::stour(), &scale);
        assert_eq!(registry, custom, "{platform:?}");
    }
}

#[test]
fn mixed_serial_and_parallel_jobs_keep_submission_order() {
    // A host-measurement job embedded in a sim sweep must bypass the pool
    // yet land in its submitted slot.
    let t = Arc::new(armbar_topology::Topology::preset(Platform::ThunderX2));
    let t = &t;
    let jobs: Vec<Job<'_, (usize, bool)>> = (0..6)
        .map(|i| {
            if i == 3 {
                Job::serial(move || (i, true))
            } else {
                Job::parallel(move || {
                    let ns = armbar_epcc::sim_overhead(
                        t,
                        4,
                        &AlgorithmId::Dissemination,
                        armbar_epcc::OverheadConfig { episodes: 4, ..Default::default() },
                    )
                    .unwrap();
                    (i, ns >= 0.0)
                })
            }
        })
        .collect();
    let results = SweepPool::new(3).run(jobs);
    assert_eq!(results.iter().map(|&(i, _)| i).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4, 5]);
    assert!(results.iter().all(|&(_, ok)| ok));
}
