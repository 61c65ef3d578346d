//! STOUR / DTOUR — the f-way tournament barriers (Grunwald & Vajracharya,
//! Section II-B-2) and, fully configured, the **paper's optimized barrier**
//! (Section V).
//!
//! The f-way tournament generalizes pairwise play-offs to groups of `f`
//! threads per round. One [`FwayBarrier`] type covers the whole design
//! space studied by the paper:
//!
//! * **fan-in schedule** — the original *balanced* schedule (`f_l ≈
//!   P^(1/rounds)`, max 8) or the paper's *fixed* power-of-two fan-in
//!   (recommendation: `f = 4`, derived by minimizing Eq. 1);
//! * **arrival flag layout** — *packed* 4-byte flags (original; children of
//!   one group and even different groups share cache lines → serialized
//!   sibling writes and inter-subtree interference, Figure 8a) or *padded*
//!   one-flag-per-line (the paper's fix, Figure 8b);
//! * **winner selection** — *static* (first thread of the group; no atomics
//!   at all) or *dynamic* (last arrival via a group counter; DTOUR);
//! * **wake-up policy** — global sense, binary tree, or the paper's
//!   NUMA-aware tree ([`crate::wakeup`]).
//!
//! The named configurations of the paper map as:
//!
//! | Paper | Constructor |
//! |---|---|
//! | STOUR ("static f-way") | [`FwayBarrier::stour`] |
//! | DTOUR ("dynamic f-way") | [`FwayBarrier::dtour`] |
//! | "padding static f-way" (Fig. 11) | [`FwayConfig::padded_flags`] on STOUR |
//! | "padding static 4-way" (Fig. 11) | [`FwayBarrier::padded_4way`] |
//! | **optimized barrier** (Table IV) | [`FwayBarrier::optimized`] |

use armbar_simcoh::{arena::padded_elem, Addr, Arena};
use armbar_topology::Topology;

use crate::env::{Barrier, MemCtx};
use crate::trees::FaninPlan;
use crate::wakeup::{EpochSlots, Wakeup, WakeupKind};

/// Fan-in schedule selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fanin {
    /// The original balanced schedule with the given maximum fan-in
    /// (8 in the original publication).
    Balanced { max: usize },
    /// Fixed fan-in at every level (the paper recommends 4).
    Fixed(usize),
}

/// Full configuration of an f-way tournament barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FwayConfig {
    /// Fan-in schedule.
    pub fanin: Fanin,
    /// One cache line per arrival flag (true) or packed 4-byte flags
    /// (false, the original layout).
    pub padded_flags: bool,
    /// Winner selection: dynamic (group counter, DTOUR) or static.
    pub dynamic: bool,
    /// Notification-phase policy.
    pub wakeup: WakeupKind,
}

impl FwayConfig {
    /// The original STOUR: balanced fan-ins ≤ 8, packed flags, static
    /// winners, global wake-up.
    pub fn stour() -> Self {
        Self {
            fanin: Fanin::Balanced { max: 8 },
            padded_flags: false,
            dynamic: false,
            wakeup: WakeupKind::Global,
        }
    }

    /// The original DTOUR: like STOUR but dynamic winners.
    pub fn dtour() -> Self {
        Self { dynamic: true, ..Self::stour() }
    }

    /// The paper's optimized configuration for a given machine: padded
    /// flags, fixed fan-in 4, and the empirically best wake-up for the
    /// platform — global on Kunpeng 920 (cheap reader contention),
    /// NUMA-aware tree on Phytium 2000+ and ThunderX2 (Section VI-B).
    pub fn optimized(topo: &Topology) -> Self {
        let coh = topo.coherence();
        // Global wake-up costs ~(inv + read-contention) per extra thread;
        // tree wake-up costs ~log₂P extra hops. Prefer global only when the
        // per-thread contention coefficients are small (the paper's
        // Kunpeng 920 case).
        let cheap_contention = coh.inv_ns + coh.read_contention_ns < 7.0;
        let wakeup = if cheap_contention {
            WakeupKind::Global
        } else if topo.num_clusters() > 1 {
            WakeupKind::NumaTree
        } else {
            WakeupKind::BinaryTree
        };
        Self { fanin: Fanin::Fixed(4), padded_flags: true, dynamic: false, wakeup }
    }
}

/// One tournament level's flag (or counter) array.
#[derive(Debug)]
struct Level {
    /// Base address of this level's per-contestant flags (static) or
    /// per-group counters (dynamic).
    base: Addr,
    /// Stride between consecutive entries, bytes.
    stride: usize,
    /// Group size at this level.
    fanin: usize,
    /// Number of contestants entering this level.
    contestants: usize,
}

impl Level {
    fn entry(&self, i: usize) -> Addr {
        padded_elem(self.base, i, self.stride)
    }
}

/// The f-way tournament barrier family. See the module docs for the
/// configuration space.
#[derive(Debug)]
pub struct FwayBarrier {
    levels: Vec<Level>,
    config: FwayConfig,
    wakeup: Wakeup,
    epochs: EpochSlots,
    name: String,
}

impl FwayBarrier {
    /// Builds a barrier for `p` threads on `topo` with an explicit
    /// configuration.
    pub fn with_config(arena: &mut Arena, p: usize, topo: &Topology, config: FwayConfig) -> Self {
        assert!(p >= 1);
        let line = topo.cacheline_bytes();
        let plan = match config.fanin {
            Fanin::Balanced { max } => FaninPlan::balanced(p, max),
            Fanin::Fixed(f) => FaninPlan::fixed(p, f),
        };
        let mut levels = Vec::with_capacity(plan.rounds().len());
        for (l, &f) in plan.rounds().iter().enumerate() {
            let contestants = plan.contestants(p, l);
            let (base, stride) = if config.dynamic {
                // One padded counter per group (counters are RMW hot words;
                // packing them would be self-sabotage even in the original).
                let groups = contestants.div_ceil(f);
                (arena.alloc_padded_u32_array(groups, line), line)
            } else if config.padded_flags {
                (arena.alloc_padded_u32_array(contestants, line), line)
            } else {
                // Original layout: packed 4-byte flags, many per line.
                (arena.alloc_u32_array(contestants), 4)
            };
            levels.push(Level { base, stride, fanin: f, contestants });
        }
        let wakeup = Wakeup::new(arena, p, line, topo.n_c(), config.wakeup);
        let epochs = EpochSlots::new(arena, p, line);
        let name = Self::display_name(&config);
        Self { levels, config, wakeup, epochs, name }
    }

    fn display_name(config: &FwayConfig) -> String {
        match (config.dynamic, config.fanin, config.padded_flags) {
            (true, _, _) => "DTOUR".into(),
            (false, Fanin::Balanced { .. }, false) => "STOUR".into(),
            (false, Fanin::Balanced { .. }, true) => "STOUR-pad".into(),
            (false, Fanin::Fixed(f), true) => format!("OPT-{f}way"),
            (false, Fanin::Fixed(f), false) => format!("STOUR-{f}way"),
        }
    }

    /// The original static f-way tournament (STOUR).
    pub fn stour(arena: &mut Arena, p: usize, topo: &Topology) -> Self {
        Self::with_config(arena, p, topo, FwayConfig::stour())
    }

    /// The original dynamic f-way tournament (DTOUR).
    pub fn dtour(arena: &mut Arena, p: usize, topo: &Topology) -> Self {
        Self::with_config(arena, p, topo, FwayConfig::dtour())
    }

    /// Figure 11's "padding static f-way": STOUR with one line per flag.
    pub fn stour_padded(arena: &mut Arena, p: usize, topo: &Topology) -> Self {
        Self::with_config(arena, p, topo, FwayConfig { padded_flags: true, ..FwayConfig::stour() })
    }

    /// Figure 11's "padding static 4-way": padded flags and fixed fan-in 4,
    /// still with the original global wake-up.
    pub fn padded_4way(arena: &mut Arena, p: usize, topo: &Topology) -> Self {
        Self::with_config(
            arena,
            p,
            topo,
            FwayConfig { fanin: Fanin::Fixed(4), padded_flags: true, ..FwayConfig::stour() },
        )
    }

    /// The paper's optimized barrier for `topo` (Table IV's "ours").
    pub fn optimized(arena: &mut Arena, p: usize, topo: &Topology) -> Self {
        let mut b = Self::with_config(arena, p, topo, FwayConfig::optimized(topo));
        b.name = "OPT".into();
        b
    }

    /// The active configuration.
    pub fn config(&self) -> &FwayConfig {
        &self.config
    }

    /// Number of tournament rounds.
    pub fn rounds(&self) -> usize {
        self.levels.len()
    }

    fn wait_static(&self, ctx: &dyn MemCtx, e: u32) {
        let mut idx = ctx.tid();
        for level in &self.levels {
            let f = level.fanin;
            let group = idx / f;
            let pos = idx % f;
            if pos != 0 {
                // Loser: publish arrival on own flag, await release.
                ctx.store(level.entry(idx), e);
                self.wakeup.wait(ctx, e);
                return;
            }
            // Winner: poll the whole group in one loop. With packed flags
            // the first fetch brings every sibling's flag in one line (one
            // R_R); with padded flags the independent line fetches overlap.
            let size = f.min(level.contestants - group * f);
            if size > 1 {
                let flags: Vec<_> = (1..size).map(|q| level.entry(idx + q)).collect();
                ctx.spin_until_all_ge(&flags, e);
            }
            idx = group;
        }
        debug_assert_eq!(idx, 0, "static champion must be thread 0");
        self.wakeup.release(ctx, e);
    }

    fn wait_dynamic(&self, ctx: &dyn MemCtx, e: u32) {
        let mut idx = ctx.tid();
        for level in &self.levels {
            let f = level.fanin;
            let group = idx / f;
            let size = f.min(level.contestants - group * f);
            if size > 1 {
                let counter = level.entry(group);
                let prev = ctx.fetch_add(counter, 1);
                if prev != size as u32 - 1 {
                    self.wakeup.wait(ctx, e);
                    return;
                }
                // Last arrival wins the group; reset for the next episode
                // (safe: group peers are blocked until the release). May
                // relax — the winner's next operation is a higher-level
                // fetch_add (an RMW, which drains buffered stores) or the
                // wake-up release store, either of which orders the reset
                // before any peer can wake and re-enter.
                ctx.store_relaxed(counter, 0);
            }
            idx = group;
        }
        self.wakeup.release(ctx, e);
    }
}

impl Barrier for FwayBarrier {
    fn wait(&self, ctx: &dyn MemCtx) {
        if ctx.nthreads() == 1 {
            return;
        }
        let e = self.epochs.next(ctx);
        if self.config.dynamic {
            self.wait_dynamic(ctx, e);
        } else {
            self.wait_static(ctx, e);
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::testutil::{check_host, check_sim, HOST_SIZES, SIM_SIZES};
    use armbar_topology::Platform;

    #[test]
    fn stour_sim_correct_across_sizes() {
        for &p in &SIM_SIZES {
            check_sim(Platform::Phytium2000Plus, p, 4, |a, p, t| {
                Box::new(FwayBarrier::stour(a, p, t))
            });
        }
    }

    #[test]
    fn dtour_sim_correct_across_sizes() {
        for &p in &SIM_SIZES {
            check_sim(Platform::ThunderX2, p, 4, |a, p, t| Box::new(FwayBarrier::dtour(a, p, t)));
        }
    }

    #[test]
    fn padded_variants_sim_correct() {
        for &p in &[1usize, 5, 17, 64] {
            check_sim(Platform::Kunpeng920, p, 3, |a, p, t| {
                Box::new(FwayBarrier::stour_padded(a, p, t))
            });
            check_sim(Platform::Kunpeng920, p, 3, |a, p, t| {
                Box::new(FwayBarrier::padded_4way(a, p, t))
            });
        }
    }

    #[test]
    fn optimized_sim_correct_on_all_platforms() {
        for platform in Platform::ARM {
            for &p in &[1usize, 2, 13, 32, 64] {
                check_sim(platform, p, 3, |a, p, t| Box::new(FwayBarrier::optimized(a, p, t)));
            }
        }
    }

    #[test]
    fn every_fixed_fanin_sim_correct() {
        for f in [2usize, 4, 8, 16, 32, 64] {
            check_sim(Platform::ThunderX2, 64, 3, move |a, p, t| {
                Box::new(FwayBarrier::with_config(
                    a,
                    p,
                    t,
                    FwayConfig { fanin: Fanin::Fixed(f), ..FwayConfig::stour() },
                ))
            });
        }
    }

    #[test]
    fn every_wakeup_policy_sim_correct() {
        for wakeup in [WakeupKind::Global, WakeupKind::BinaryTree, WakeupKind::NumaTree] {
            for &p in &[2usize, 16, 64] {
                check_sim(Platform::Phytium2000Plus, p, 3, move |a, p, t| {
                    Box::new(FwayBarrier::with_config(
                        a,
                        p,
                        t,
                        FwayConfig { wakeup, ..FwayConfig::optimized(t) },
                    ))
                });
            }
        }
    }

    #[test]
    fn dynamic_with_tree_wakeup_sim_correct() {
        // Dynamic champion may not be thread 0; the tree release must
        // still reach everyone.
        check_sim(Platform::ThunderX2, 32, 4, |a, p, t| {
            Box::new(FwayBarrier::with_config(
                a,
                p,
                t,
                FwayConfig { wakeup: WakeupKind::BinaryTree, ..FwayConfig::dtour() },
            ))
        });
    }

    #[test]
    fn host_correct_stour_and_optimized() {
        for &p in &HOST_SIZES {
            check_host(p, 30, |a, p, t| Box::new(FwayBarrier::stour(a, p, t)));
            check_host(p, 30, |a, p, t| Box::new(FwayBarrier::optimized(a, p, t)));
        }
    }

    #[test]
    fn host_correct_dtour() {
        for &p in &HOST_SIZES {
            check_host(p, 30, |a, p, t| Box::new(FwayBarrier::dtour(a, p, t)));
        }
    }

    #[test]
    fn optimized_config_picks_platform_wakeups() {
        // Paper Section VI-B: tree on Phytium/ThunderX2, global on KP920.
        let phy = FwayConfig::optimized(&Topology::preset(Platform::Phytium2000Plus));
        let tx2 = FwayConfig::optimized(&Topology::preset(Platform::ThunderX2));
        let kp = FwayConfig::optimized(&Topology::preset(Platform::Kunpeng920));
        assert_eq!(phy.wakeup, WakeupKind::NumaTree);
        assert_eq!(tx2.wakeup, WakeupKind::NumaTree);
        assert_eq!(kp.wakeup, WakeupKind::Global);
        for c in [phy, tx2, kp] {
            assert_eq!(c.fanin, Fanin::Fixed(4));
            assert!(c.padded_flags);
            assert!(!c.dynamic);
        }
    }

    #[test]
    fn padded_flags_shrink_invalidation_fanout() {
        // The false-sharing effect the paper's §V-A padding removes, now
        // observable: with packed 4-byte flags, every arrival store
        // invalidates the copies of all siblings (and unrelated groups)
        // spinning on the same line, so the run's total RFO invalidation
        // fan-out must be strictly larger than with one-flag-per-line.
        use armbar_simcoh::SimBuilder;
        use std::sync::Arc;

        let run = |padded: bool| {
            let topo = Arc::new(Topology::preset(Platform::Phytium2000Plus));
            let mut arena = Arena::new();
            let barrier = Arc::new(FwayBarrier::with_config(
                &mut arena,
                64,
                &topo,
                FwayConfig { padded_flags: padded, ..FwayConfig::stour() },
            ));
            let stats = SimBuilder::new(topo, 64)
                .run(move |ctx| {
                    for _ in 0..3 {
                        barrier.wait(ctx);
                    }
                })
                .unwrap();
            stats.coherence().total()
        };
        let packed = run(false);
        let padded = run(true);
        assert!(
            padded.rfo_invalidations < packed.rfo_invalidations,
            "padding must cut RFO fan-out: padded {} vs packed {}",
            padded.rfo_invalidations,
            packed.rfo_invalidations
        );
    }

    #[test]
    fn packed_layout_shares_lines_padded_does_not() {
        let topo = Topology::preset(Platform::ThunderX2);
        let line = topo.cacheline_bytes() as u32;
        let mut arena = Arena::new();
        let packed = FwayBarrier::stour(&mut arena, 64, &topo);
        let l0 = &packed.levels[0];
        assert_eq!(l0.entry(0) / line, l0.entry(1) / line, "packed flags share a line");

        let mut arena = Arena::new();
        let padded = FwayBarrier::stour_padded(&mut arena, 64, &topo);
        let l0 = &padded.levels[0];
        assert_ne!(l0.entry(0) / line, l0.entry(1) / line, "padded flags get own lines");
    }

    #[test]
    fn names_match_paper_labels() {
        let topo = Topology::preset(Platform::ThunderX2);
        let mut arena = Arena::new();
        assert_eq!(FwayBarrier::stour(&mut arena, 8, &topo).name(), "STOUR");
        assert_eq!(FwayBarrier::dtour(&mut arena, 8, &topo).name(), "DTOUR");
        assert_eq!(FwayBarrier::stour_padded(&mut arena, 8, &topo).name(), "STOUR-pad");
        assert_eq!(FwayBarrier::padded_4way(&mut arena, 8, &topo).name(), "OPT-4way");
        assert_eq!(FwayBarrier::optimized(&mut arena, 8, &topo).name(), "OPT");
    }

    #[test]
    fn rounds_follow_the_plan() {
        let topo = Topology::preset(Platform::ThunderX2);
        let mut arena = Arena::new();
        assert_eq!(FwayBarrier::stour(&mut arena, 64, &topo).rounds(), 2); // 8×8
        assert_eq!(FwayBarrier::padded_4way(&mut arena, 64, &topo).rounds(), 3); // 4×4×4
        assert_eq!(FwayBarrier::stour(&mut arena, 1, &topo).rounds(), 0);
    }
}
