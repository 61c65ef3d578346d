//! The four machines evaluated in the paper, with the measured
//! core-to-core latencies of Tables I–III.
//!
//! The latency numbers (`ε`, `L_i`) are the paper's measurements verbatim.
//! The coherence parameters (`α_i`, invalidation/read contention, jitter)
//! are *calibrated*, not measured: the paper constrains `0 ≤ α_i ≤ 1` and
//! describes contention qualitatively; the values below were fitted so the
//! simulator reproduces the anchor points of Figures 5–7 (see DESIGN.md §2
//! and EXPERIMENTS.md).

use crate::atomics::RmwCosts;
use crate::builder::TopologyBuilder;
use crate::layer::LayerId;
use crate::machine::Topology;

/// The machines evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// Phytium 2000+ — 64 ARMv8 cores @ 2.2 GHz, 8 panels × 2 core groups × 4 cores.
    Phytium2000Plus,
    /// Marvell/Cavium ThunderX2 — 2 sockets × 32 ARMv8 cores @ 2.5 GHz (CCPI2 interconnect).
    ThunderX2,
    /// HiSilicon Kunpeng 920 — 2 SCCLs × 8 CCLs × 4 ARMv8 cores @ 2.6 GHz.
    Kunpeng920,
    /// 32-core Intel Xeon Gold @ 2.1 GHz — the x86 reference of Figure 5.
    XeonGold,
    /// Coherent 256-core hierarchy with MemPool-derived latencies: 64
    /// tiles × 4 cores, 4 groups of 16 tiles (the kilocore family's
    /// quarter-scale point). See [`mempool_256`] for what it is not.
    MemPool256,
    /// Coherent 1024-core hierarchy with MemPool-derived latencies: 256
    /// tiles × 4 cores, 16 groups of 64 cores (PAPERS.md: "Fast
    /// Shared-Memory Barrier Synchronization for a 1024-Cores RISC-V
    /// Many-Core Cluster"). See [`mempool_1024`] for what it is not.
    MemPool1024,
}

impl Platform {
    /// The four platforms evaluated in the paper, ARM first, in the
    /// paper's order. The heavy experiment suites iterate this set; the
    /// kilocore extrapolations have their own family.
    pub const ALL: [Platform; 4] =
        [Platform::Phytium2000Plus, Platform::ThunderX2, Platform::Kunpeng920, Platform::XeonGold];

    /// The three ARMv8 platforms (the paper's evaluation targets).
    pub const ARM: [Platform; 3] =
        [Platform::Phytium2000Plus, Platform::ThunderX2, Platform::Kunpeng920];

    /// The kilocore extrapolations: coherent 4/64/1024 hierarchies with
    /// MemPool-derived latencies.
    pub const KILOCORE: [Platform; 2] = [Platform::MemPool256, Platform::MemPool1024];

    /// Every preset machine: the paper's four plus the kilocore pair.
    pub const EVERY: [Platform; 6] = [
        Platform::Phytium2000Plus,
        Platform::ThunderX2,
        Platform::Kunpeng920,
        Platform::XeonGold,
        Platform::MemPool256,
        Platform::MemPool1024,
    ];

    /// Short display name as used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Platform::Phytium2000Plus => "Phytium 2000+",
            Platform::ThunderX2 => "ThunderX2",
            Platform::Kunpeng920 => "Kunpeng920",
            Platform::XeonGold => "Intel Xeon Gold",
            Platform::MemPool256 => "MemPool-256",
            Platform::MemPool1024 => "MemPool-1024",
        }
    }
}

impl std::fmt::Display for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Phytium 2000+ (Table I). 64 cores in 8 panels of 8; every 4 cores form
/// a core group sharing an L2 cache. Cross-panel latency depends on the
/// panel pair; the paper reports latencies from panel 0 to panels 1–7, which
/// we index by panel distance `|p − q|`.
pub fn phytium_2000plus() -> Topology {
    // Table I: ε, L0 (core group), L1 (panel), L2..L8 (panel 0-1 .. 0-7).
    const CROSS_PANEL: [f64; 7] = [54.1, 76.3, 65.6, 61.4, 72.7, 95.5, 84.5];
    let mut b = TopologyBuilder::new("Phytium 2000+", 64)
        .cacheline_bytes(64)
        .epsilon_ns(1.8)
        .layer("within a core group", 9.1, 0.55)
        .layer("within a panel", 42.3, 0.55);
    for (d, &l) in CROSS_PANEL.iter().enumerate() {
        b = b.layer(&format!("panel distance {}", d + 1), l, 0.55);
    }
    b.n_c(4)
        .pair_layer_fn(phytium_layer)
        .coherence(5.0, 10.0, 0.03)
        .noc_ns(3.0)
        // FT-2000+ cores are ARMv8.0: every atomic is an LDXR…STXR
        // exclusive loop that retries under contention (expensive FAA/SWP,
        // cheap failed CAS). See DESIGN.md §17.
        .rmw_costs(RmwCosts::llsc(1.6, 1.2))
        .build()
}

/// The layer joining distinct Phytium 2000+ cores `a` and `c`: `L0` within
/// a core group of 4, `L1` within a panel of 8, else `L2..L8` by panel
/// distance. Not a nested hierarchy, so the machine keeps a pair map.
fn phytium_layer(a: usize, c: usize) -> LayerId {
    if a / 4 == c / 4 {
        LayerId(0) // same core group
    } else if a / 8 == c / 8 {
        LayerId(1) // same panel
    } else {
        let d = (a / 8).abs_diff(c / 8);
        LayerId(1 + d as u8) // L2..L8 by panel distance
    }
}

/// ThunderX2 (Table II). Two 32-core sockets; uniform ~24 ns within a
/// socket (dual-ring LLC), 140.7 ns across the CCPI2 link. The dual-ring
/// bus saturates under hot-spot traffic, hence the large invalidation
/// contention coefficient.
pub fn thunderx2() -> Topology {
    TopologyBuilder::new("ThunderX2", 64)
        .cacheline_bytes(64)
        .epsilon_ns(1.2)
        .layer("within a socket", 24.0, 0.9)
        .layer("across sockets", 140.7, 0.9)
        .n_c(32)
        .hierarchy(&[32])
        .coherence(22.0, 12.0, 0.03)
        .noc_ns(4.0)
        // Vulcan cores are ARMv8.1: LSE far atomics execute FAA/SWP near
        // the home node (cheap), CAS carries a compare leg and a failed
        // CAS skips the write-back. See DESIGN.md §17.
        .rmw_costs(RmwCosts::lse(0.6, 1.1))
        .build()
}

/// Kunpeng 920 (Table III). 2 SCCLs × 8 CCLs × 4 cores; 128-byte cache
/// lines. Reader-side contention is cheap (the paper finds global wake-up
/// *wins* here), but the LLC tag partitioning makes individual transfers
/// noisy — the paper reports dramatically fluctuating barrier overheads,
/// modelled as high multiplicative jitter.
pub fn kunpeng920() -> Topology {
    TopologyBuilder::new("Kunpeng920", 64)
        .cacheline_bytes(128)
        .epsilon_ns(1.15)
        .layer("within a CCL", 14.2, 0.5)
        .layer("within an SCCL", 44.2, 0.5)
        .layer("across SCCLs", 75.0, 0.5)
        .n_c(4)
        .hierarchy(&[4, 32])
        .coherence(5.0, 0.8, 0.22)
        .noc_ns(2.5)
        // TSV110 cores are ARMv8.2 with LSE far atomics, same shape as
        // ThunderX2 but a slightly costlier CAS leg (128-byte lines make
        // the exclusive grab heavier). See DESIGN.md §17.
        .rmw_costs(RmwCosts::lse(0.7, 1.2))
        .build()
}

/// 32-core Intel Xeon Gold reference (Figure 5's x86 baseline): a flat
/// mesh with low, uniform core-to-core latency and a fast on-die
/// interconnect (low contention coefficients).
pub fn xeon_gold() -> Topology {
    TopologyBuilder::new("Intel Xeon Gold", 32)
        .cacheline_bytes(64)
        .epsilon_ns(1.0)
        .layer("on die", 20.0, 0.25)
        .hierarchy(&[])
        .n_c(32)
        .coherence(2.0, 0.5, 0.01)
        .noc_ns(0.5)
        .build()
}

/// Shared core of the kilocore presets: a *coherent* MESI-style directory
/// hierarchy — tiles of 4 cores, groups of 64 cores, the full cluster —
/// with MemPool-derived latencies. Latencies extrapolate the MemPool
/// paper's 1/5/9-11-cycle access hierarchy (tile, group, cluster) at a
/// 2 GHz clock; the coherence coefficients are calibrated the same way as
/// the paper platforms' (low contention — the design goal of that machine
/// is a sub-logarithmic-diameter NoC).
///
/// The real MemPool is not simulated: it has a banked, shared L1
/// scratchpad and no private data caches, hence no sharers and no RFO
/// invalidations. These presets give every core a private cached copy and
/// the same directory protocol as the ARM machines, so they project the
/// paper's cost model to kilocore scale rather than model that machine.
fn mempool(name: &str, cores: usize) -> Topology {
    TopologyBuilder::new(name, cores)
        .cacheline_bytes(64)
        .epsilon_ns(0.5)
        .layer("within a tile", 2.0, 0.35)
        .layer("within a group", 10.0, 0.45)
        .layer("across groups", 21.0, 0.55)
        .n_c(4)
        .hierarchy(&[4, 64])
        .coherence(1.5, 0.6, 0.01)
        .noc_ns(0.8)
        .build()
}

/// Coherent 256-core hierarchy with MemPool-derived latencies: 64 tiles ×
/// 4 cores, 4 groups of 64. Not MemPool itself, which shares one L1
/// scratchpad and has no private caches.
pub fn mempool_256() -> Topology {
    mempool("MemPool-256", 256)
}

/// Coherent 1024-core hierarchy with MemPool-derived latencies: 256 tiles
/// × 4 cores, 16 groups of 64. Not MemPool itself, which shares one L1
/// scratchpad and has no private caches.
pub fn mempool_1024() -> Topology {
    mempool("MemPool-1024", 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phytium_matches_table_1() {
        let t = phytium_2000plus();
        assert_eq!(t.num_cores(), 64);
        assert_eq!(t.epsilon_ns(), 1.8);
        // Same core group: cores 0 and 3.
        assert_eq!(t.latency_ns(0, 3), 9.1);
        // Same panel, different core group: cores 0 and 7.
        assert_eq!(t.latency_ns(0, 7), 42.3);
        // Panel 0 → 1..7 (first core of each panel).
        let expect = [54.1, 76.3, 65.6, 61.4, 72.7, 95.5, 84.5];
        for (p, &l) in expect.iter().enumerate() {
            assert_eq!(t.latency_ns(0, (p + 1) * 8), l, "panel 0-{}", p + 1);
        }
        assert_eq!(t.n_c(), 4);
    }

    #[test]
    fn every_preset_layer_matches_its_definition() {
        // Each preset's layer function, restated pair by pair: the
        // per-pair rule of its hierarchy sizes, or Phytium's panel rule.
        for p in Platform::EVERY {
            let t = Topology::preset(p);
            let sizes: &[usize] = match p {
                Platform::Phytium2000Plus => &[],
                Platform::ThunderX2 => &[32],
                Platform::Kunpeng920 => &[4, 32],
                Platform::XeonGold => &[],
                Platform::MemPool256 | Platform::MemPool1024 => &[4, 64],
            };
            for a in 0..t.num_cores() {
                for b in 0..t.num_cores() {
                    let want = match p {
                        Platform::Phytium2000Plus if a != b => phytium_layer(a, b),
                        _ => crate::proptests::per_pair_layer(sizes, a, b),
                    };
                    assert_eq!(t.layer(a, b), want, "{p:?} ({a}, {b})");
                }
            }
        }
    }

    #[test]
    fn thunderx2_matches_table_2() {
        let t = thunderx2();
        assert_eq!(t.num_cores(), 64);
        assert_eq!(t.epsilon_ns(), 1.2);
        assert_eq!(t.latency_ns(0, 31), 24.0);
        assert_eq!(t.latency_ns(0, 32), 140.7);
        assert_eq!(t.latency_ns(33, 63), 24.0);
        assert_eq!(t.n_c(), 32);
        assert_eq!(t.num_clusters(), 2);
    }

    #[test]
    fn kunpeng920_matches_table_3() {
        let t = kunpeng920();
        assert_eq!(t.num_cores(), 64);
        assert_eq!(t.epsilon_ns(), 1.15);
        assert_eq!(t.latency_ns(0, 3), 14.2); // within CCL
        assert_eq!(t.latency_ns(0, 4), 44.2); // within SCCL
        assert_eq!(t.latency_ns(0, 63), 75.0); // across SCCLs
        assert_eq!(t.cacheline_bytes(), 128);
        assert_eq!(t.n_c(), 4);
    }

    #[test]
    fn xeon_is_flat() {
        let t = xeon_gold();
        assert_eq!(t.num_cores(), 32);
        for a in 0..32 {
            for b in 0..32 {
                if a != b {
                    assert_eq!(t.latency_ns(a, b), 20.0);
                }
            }
        }
    }

    #[test]
    fn phytium_panel_distance_symmetry() {
        let t = phytium_2000plus();
        // Panel 2 → panel 5 is distance 3, same as panel 0 → 3.
        assert_eq!(t.latency_ns(16, 40), t.latency_ns(0, 24));
    }

    #[test]
    fn arm_platforms_have_more_contention_than_xeon() {
        let xeon = xeon_gold();
        for p in Platform::ARM {
            let t = Topology::preset(p);
            assert!(
                t.coherence().inv_ns > xeon.coherence().inv_ns,
                "{p}: expected higher invalidation contention than Xeon"
            );
        }
    }

    #[test]
    fn platform_labels_are_stable() {
        assert_eq!(Platform::Phytium2000Plus.to_string(), "Phytium 2000+");
        assert_eq!(Platform::ThunderX2.to_string(), "ThunderX2");
        assert_eq!(Platform::Kunpeng920.to_string(), "Kunpeng920");
        assert_eq!(Platform::XeonGold.to_string(), "Intel Xeon Gold");
        assert_eq!(Platform::MemPool256.to_string(), "MemPool-256");
        assert_eq!(Platform::MemPool1024.to_string(), "MemPool-1024");
    }

    #[test]
    fn every_is_all_plus_kilocore() {
        assert_eq!(Platform::EVERY.len(), Platform::ALL.len() + Platform::KILOCORE.len());
        for p in Platform::ALL.iter().chain(Platform::KILOCORE.iter()) {
            assert!(Platform::EVERY.contains(p), "{p:?} missing from EVERY");
        }
    }

    #[test]
    fn mempool_1024_matches_the_tile_group_cluster_hierarchy() {
        let t = mempool_1024();
        assert_eq!(t.num_cores(), 1024);
        assert_eq!(t.n_c(), 4);
        assert_eq!(t.num_clusters(), 256); // tiles
        assert_eq!(t.latency_ns(0, 3), 2.0); // within a tile
        assert_eq!(t.latency_ns(0, 63), 10.0); // within a group
        assert_eq!(t.latency_ns(0, 1023), 21.0); // across groups
                                                 // The latency hierarchy is strictly increasing outward.
        assert!(t.epsilon_ns() < 2.0);
    }

    #[test]
    fn mempool_256_is_the_quarter_scale_point() {
        let t = mempool_256();
        assert_eq!(t.num_cores(), 256);
        // Same per-layer numbers as the 1024-core machine — only the
        // group count differs, so curves are comparable across scales.
        let big = mempool_1024();
        assert_eq!(t.latency_ns(0, 3), big.latency_ns(0, 3));
        assert_eq!(t.latency_ns(0, 63), big.latency_ns(0, 63));
        assert_eq!(t.latency_ns(0, 255), big.latency_ns(0, 1023));
        assert_eq!(t.cacheline_bytes(), big.cacheline_bytes());
    }

    #[test]
    fn mempool_contention_is_below_the_arm_parts() {
        // The MemPool design goal is a low-contention NoC: its
        // invalidation and NoC service coefficients sit below every
        // paper ARM platform.
        for p in Platform::KILOCORE {
            let t = Topology::preset(p);
            for arm in Platform::ARM {
                let a = Topology::preset(arm);
                assert!(t.coherence().inv_ns < a.coherence().inv_ns, "{p:?} vs {arm:?}");
                assert!(t.coherence().noc_ns < a.coherence().noc_ns, "{p:?} vs {arm:?}");
            }
        }
    }

    #[test]
    fn arm_presets_carry_differentiated_rmw_costs() {
        use crate::atomics::RmwOp;
        // The three ARM parts split the RMW surcharge by op kind; the
        // Xeon reference and the MemPool extrapolations keep the legacy
        // shared surcharge (their goldens must not move).
        for p in Platform::ARM {
            assert!(!Topology::preset(p).rmw_costs().is_legacy(), "{p}");
        }
        for p in [Platform::XeonGold, Platform::MemPool256, Platform::MemPool1024] {
            assert!(Topology::preset(p).rmw_costs().is_legacy(), "{p}");
        }
        // LL/SC vs LSE: contended FAA is pricier than a successful CAS on
        // Phytium (exclusive-loop retries) and cheaper on the LSE parts.
        let (eps, t) = (1.0, 50.0);
        let phy = phytium_2000plus();
        assert!(
            phy.rmw_costs().surcharge_ns(RmwOp::FetchAdd, eps, t)
                > phy.rmw_costs().surcharge_ns(RmwOp::CmpXchgOk, eps, t)
        );
        for p in [Platform::ThunderX2, Platform::Kunpeng920] {
            let c = Topology::preset(p).rmw_costs().clone();
            assert!(
                c.surcharge_ns(RmwOp::FetchAdd, eps, t) < c.surcharge_ns(RmwOp::CmpXchgOk, eps, t),
                "{p}"
            );
            // Failed CAS is cheaper than successful on every ARM part.
            assert!(
                c.surcharge_ns(RmwOp::CmpXchgFail, eps, t)
                    < c.surcharge_ns(RmwOp::CmpXchgOk, eps, t),
                "{p}"
            );
        }
    }

    #[test]
    fn kunpeng_jitter_dominates_other_platforms() {
        let kp = kunpeng920();
        for p in [Platform::Phytium2000Plus, Platform::ThunderX2, Platform::XeonGold] {
            assert!(kp.coherence().jitter > Topology::preset(p).coherence().jitter);
        }
    }
}
