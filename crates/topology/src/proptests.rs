//! Property-based tests over all topology presets and random custom
//! hierarchies.

use crate::{LayerId, Platform, Topology, TopologyBuilder};
use proptest::prelude::*;

fn arb_platform() -> impl Strategy<Value = Platform> {
    prop::sample::select(Platform::ALL.to_vec())
}

proptest! {
    /// Latency is symmetric and positive for every pair on every preset.
    #[test]
    fn preset_latency_symmetric(p in arb_platform(), a in 0usize..64, b in 0usize..64) {
        let t = Topology::preset(p);
        let (a, b) = (a % t.num_cores(), b % t.num_cores());
        prop_assert_eq!(t.latency_ns(a, b), t.latency_ns(b, a));
        prop_assert!(t.latency_ns(a, b) > 0.0);
    }

    /// ε is the minimum communication latency on every preset.
    #[test]
    fn epsilon_is_minimal(p in arb_platform(), a in 0usize..64, b in 0usize..64) {
        let t = Topology::preset(p);
        let (a, b) = (a % t.num_cores(), b % t.num_cores());
        prop_assert!(t.latency_ns(a, b) >= t.epsilon_ns());
    }

    /// Cores in the same logical cluster always communicate over the
    /// innermost layer (L0) — the defining property of N_c.
    #[test]
    fn same_cluster_is_innermost_layer(p in arb_platform(), a in 0usize..64, b in 0usize..64) {
        let t = Topology::preset(p);
        let (a, b) = (a % t.num_cores(), b % t.num_cores());
        if a != b && t.same_cluster(a, b) {
            prop_assert_eq!(t.layer(a, b), LayerId(0));
        }
    }

    /// RFO cost never exceeds the transfer latency itself (α ≤ 1).
    #[test]
    fn rfo_bounded_by_latency(p in arb_platform(), a in 0usize..64, b in 0usize..64) {
        let t = Topology::preset(p);
        let (a, b) = (a % t.num_cores(), b % t.num_cores());
        prop_assert!(t.rfo_ns(a, b) <= t.latency_ns(a, b) + 1e-12);
    }

    /// Random two-level hierarchies produce valid, symmetric topologies.
    #[test]
    fn random_hierarchy_builds(
        inner_log in 1u32..4,
        fanout_log in 1u32..3,
        lat0 in 1.0f64..100.0,
        extra in 1.0f64..200.0,
        alpha0 in 0.0f64..1.0,
        alpha1 in 0.0f64..1.0,
    ) {
        let inner = 1usize << inner_log;
        let cores = inner << fanout_log;
        let t = TopologyBuilder::new("prop", cores)
            .layer("in", lat0, alpha0)
            .layer("out", lat0 + extra, alpha1)
            .hierarchy(&[inner])
            .build();
        prop_assert_eq!(t.n_c(), inner);
        for a in 0..cores {
            for b in 0..cores {
                prop_assert_eq!(t.latency_ns(a, b), t.latency_ns(b, a));
            }
        }
        // Inner pairs are strictly cheaper than outer pairs.
        if cores > inner {
            prop_assert!(t.latency_ns(0, 1) < t.latency_ns(0, cores - 1));
        }
    }

    /// mean_remote_latency_ns is monotone in the span on every preset.
    #[test]
    fn mean_latency_monotone(p in arb_platform(), lo in 2usize..32) {
        let t = Topology::preset(p);
        let hi = (lo * 2).min(t.num_cores());
        prop_assert!(t.mean_remote_latency_ns(lo) <= t.mean_remote_latency_ns(hi) + 1e-9);
    }
}

/// The layer `hierarchy(sizes)` assigns to the pair `(a, b)`, pair by pair:
/// the innermost level whose cluster holds both cores, else the outermost
/// layer.
pub(crate) fn per_pair_layer(sizes: &[usize], a: usize, b: usize) -> LayerId {
    if a == b {
        return LayerId::LOCAL;
    }
    let level = sizes.iter().position(|&s| a / s == b / s).unwrap_or(sizes.len());
    LayerId(level as u8)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// `hierarchy()`'s layer function equals the per-pair rule on every
    /// pair, and its layer masks fold core sets into the layers of their
    /// members, also when the core count is not a multiple of the outer
    /// cluster sizes (a ragged last cluster) or is smaller than them. Half
    /// the cases draw power-of-two nests, whose sizes run from 1 to 4096,
    /// below and above a 64-core word; these take the nested, table-free
    /// representation.
    #[test]
    fn hierarchy_matches_per_pair_rule(
        cores in 1usize..=300,
        levels in 0usize..=3,
        base in 1usize..=8,
        fanouts in (2usize..=5, 2usize..=5),
        pow2 in any::<bool>(),
        logs in (0u32..=6, 1u32..=3, 1u32..=3),
        set_seed in 0u64..u64::MAX,
    ) {
        let mut sizes = if pow2 {
            let (k0, k1, k2) = logs;
            vec![1 << k0, 1 << (k0 + k1), 1 << (k0 + k1 + k2)]
        } else {
            vec![base, base * fanouts.0, base * fanouts.0 * fanouts.1]
        };
        sizes.truncate(levels);
        let t = (0..=levels)
            .fold(TopologyBuilder::new("prop", cores), |b, i| {
                b.layer(&format!("L{i}"), 1.0 + i as f64, 0.5)
            })
            .hierarchy(&sizes)
            .build();
        let nested = matches!(t.map, crate::machine::LayerMap::Nested { .. });
        prop_assert!(nested == sizes.iter().all(|s| s.is_power_of_two()), "sizes {sizes:?}");
        for a in 0..cores {
            for c in 0..cores {
                let (got, want) = (t.layer(a, c), per_pair_layer(&sizes, a, c));
                prop_assert!(got == want, "sizes {sizes:?}, pair ({a}, {c}): {got} != {want}");
            }
        }
        // Sets from full to sparse.
        let mut x = set_seed;
        for density in [0u32, 1, 3, 6] {
            let set: Vec<u64> = (0..t.mask_words())
                .map(|w| {
                    let mut bits = u64::MAX;
                    for _ in 0..density {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        bits &= x;
                    }
                    let live = (cores - 64 * w).min(64);
                    bits & u64::MAX >> (64 - live)
                })
                .collect();
            for a in 0..cores {
                let want = (0..cores)
                    .filter(|&c| c != a && set[c / 64] >> (c % 64) & 1 == 1)
                    .fold(0u64, |m, c| m | 1 << t.layer(a, c).0);
                let got = t.layers_of(a, &set);
                prop_assert!(got == want, "sizes {sizes:?}, core {a}: {got:#x} != {want:#x}");
            }
        }
    }
}
