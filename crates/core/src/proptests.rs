//! Property-based tests: every algorithm, arbitrary thread counts,
//! platforms, *and machine shapes* must uphold the barrier invariant under
//! simulation.

use std::sync::Arc;

use proptest::prelude::*;

use armbar_topology::{LayerId, Platform, Topology, TopologyBuilder};

use crate::algorithms::testutil::{check_sim, check_sim_on};
use crate::registry::AlgorithmId;

fn arb_platform() -> impl Strategy<Value = Platform> {
    prop::sample::select(Platform::ARM.to_vec())
}

fn arb_algorithm() -> impl Strategy<Value = AlgorithmId> {
    prop::sample::select(AlgorithmId::ALL.to_vec())
}

/// Arbitrary machine shapes no preset covers: cores carved into *uneven*
/// clusters (sizes 1–5, so single-core clusters appear constantly), mapped
/// through `pair_layer_fn` onto a near/far layer pair whose far latency is
/// drawn from a wide range. Every structural assumption an algorithm bakes
/// in about "clusters have equal size ≥ 2" gets attacked here.
fn arb_uneven_topology() -> impl Strategy<Value = Arc<Topology>> {
    (2usize..=48, 0u64..u64::MAX, 20.0f64..150.0, 1usize..=5).prop_map(
        |(cores, seed, far_ns, n_c)| {
            // Deterministically carve `cores` into clusters of size 1..=5.
            let mut assign = Vec::with_capacity(cores);
            let (mut cluster, mut remaining, mut s) = (0usize, 0usize, seed);
            for _ in 0..cores {
                if remaining == 0 {
                    cluster += 1;
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    remaining = 1 + ((s >> 33) % 5) as usize;
                }
                assign.push(cluster);
                remaining -= 1;
            }
            let topo = TopologyBuilder::new("prop-uneven", cores)
                .epsilon_ns(1.0)
                .layer("near", 8.0, 0.5)
                .layer("far", far_ns, 0.7)
                .n_c(n_c.min(cores))
                .pair_layer_fn(|a, b| if assign[a] == assign[b] { LayerId(0) } else { LayerId(1) })
                .coherence(3.0, 2.0, 0.0)
                .build();
            Arc::new(topo)
        },
    )
}

/// Arbitrary *hierarchical* machines in the MemPool mold: tiles of 2–5
/// cores nested in groups of 2–4 tiles, 1–4 groups per cluster. This is
/// the shape family the kilocore presets come from; the property pins that
/// nothing in any algorithm assumes a particular tile/group alignment.
fn arb_hierarchical_topology() -> impl Strategy<Value = Arc<Topology>> {
    (2usize..=5, 2usize..=4, 1usize..=4, 5.0f64..40.0).prop_map(
        |(tile, tiles_per_group, groups, group_ns)| {
            let group = tile * tiles_per_group;
            let cores = group * groups;
            let topo = TopologyBuilder::new("prop-hier", cores)
                .epsilon_ns(0.5)
                .layer("within a tile", 2.0, 0.35)
                .layer("within a group", group_ns, 0.45)
                .layer("across groups", group_ns * 2.1, 0.55)
                .n_c(tile.min(4))
                .hierarchy(&[tile, group])
                .coherence(1.5, 0.6, 0.01)
                .noc_ns(0.8)
                .build();
            Arc::new(topo)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Any algorithm × platform × P ∈ [1, 64] completes and preserves the
    /// episode-progress invariant.
    #[test]
    fn any_barrier_any_size_is_correct(
        id in arb_algorithm(),
        platform in arb_platform(),
        p in 1usize..=64,
    ) {
        check_sim(platform, p, 2, move |a, p, t| id.build(a, p, t));
    }

    /// Every registry barrier completes one episode without deadlock on
    /// machines with uneven clusters and single-core layers — shapes no
    /// platform preset exercises.
    #[test]
    fn any_barrier_on_arbitrary_machine_shapes(
        id in arb_algorithm(),
        topo in arb_uneven_topology(),
        p_raw in 1usize..=48,
    ) {
        let p = p_raw.min(topo.num_cores());
        check_sim_on(Arc::clone(&topo), p, 1, move |a, p, t| id.build(a, p, t));
    }

    /// Every registry barrier completes on arbitrary tile/group/cluster
    /// hierarchies — the kilocore shape family — at any thread count.
    #[test]
    fn any_barrier_on_hierarchical_shapes(
        id in arb_algorithm(),
        topo in arb_hierarchical_topology(),
        p_raw in 1usize..=80,
    ) {
        let p = p_raw.min(topo.num_cores());
        check_sim_on(Arc::clone(&topo), p, 1, move |a, p, t| id.build(a, p, t));
    }

    /// Fixed-fan-in f-way barriers are correct for any (P, f) pair.
    #[test]
    fn fway_any_fanin_is_correct(
        p in 1usize..=64,
        f in 2usize..=16,
        padded in any::<bool>(),
        dynamic in any::<bool>(),
    ) {
        use crate::algorithms::fway::{Fanin, FwayBarrier, FwayConfig};
        use crate::wakeup::WakeupKind;
        check_sim(Platform::Kunpeng920, p, 2, move |a, p, t| {
            Box::new(FwayBarrier::with_config(a, p, t, FwayConfig {
                fanin: Fanin::Fixed(f),
                padded_flags: padded,
                dynamic,
                wakeup: WakeupKind::Global,
            }))
        });
    }
}
