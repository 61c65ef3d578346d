//! HYBRID — a cluster-hierarchical barrier (extension).
//!
//! Not one of the paper's seven: this is the "hybrid" design direction the
//! paper's related-work section attributes to Rodchenko et al. —
//! centralized synchronization *within* a core cluster (where the shared
//! counter is cheap: every participant is an `L_0` neighbour) combined
//! with a tree *across* clusters. It composes naturally from this
//! workspace's pieces and serves as an ablation of the question "is the
//! f-way tournament actually better than clustering + counters?" on the
//! modeled machines.
//!
//! Arrival: each cluster's threads fetch-add a cluster-local padded
//! counter; the last arrival becomes the cluster representative and enters
//! a padded 4-way static tournament over representatives (one per
//! cluster). Both are levels of the f-way tournament's walk
//! ([`crate::algorithms::fway`]): one dynamic level of fan-in `N_c` over
//! the threads, then the static levels over the clusters. Notification:
//! any [`WakeupKind`].

use armbar_simcoh::Arena;
use armbar_topology::Topology;

use crate::algorithms::fway::{climb, Fanin, FwayConfig, Level};
use crate::env::{Barrier, MemCtx};
use crate::wakeup::{EpochSlots, Wakeup, WakeupKind};

/// Cluster-hierarchical barrier: per-cluster counters + a static f-way
/// tournament over cluster representatives.
#[derive(Debug)]
pub struct HybridBarrier {
    /// The cluster level (dynamic, fan-in `N_c`), then the padded 4-way
    /// static levels over the cluster representatives.
    levels: Vec<Level>,
    wakeup: Wakeup,
    epochs: EpochSlots,
}

impl HybridBarrier {
    /// Builds the barrier for `p` threads on `topo`, clustering by the
    /// machine's `N_c` and using the machine-appropriate wake-up.
    pub fn new(arena: &mut Arena, p: usize, topo: &Topology) -> Self {
        Self::with_wakeup(arena, p, topo, FwayConfig::optimized(topo).wakeup)
    }

    /// Builds with an explicit wake-up policy.
    pub fn with_wakeup(arena: &mut Arena, p: usize, topo: &Topology, wakeup: WakeupKind) -> Self {
        assert!(p >= 1);
        let line = topo.cacheline_bytes();
        let n_c = topo.n_c().min(p).max(1);
        let clusters = p.div_ceil(n_c);
        let mut levels = vec![Level::new(arena, p, n_c, true, line)];
        let tournament =
            FwayConfig { fanin: Fanin::Fixed(4), padded_flags: true, dynamic: false, wakeup };
        levels.extend(Level::rounds(arena, clusters, &tournament, line));
        Self {
            levels,
            wakeup: Wakeup::new(arena, p, line, topo.n_c(), wakeup),
            epochs: EpochSlots::new(arena, p, line),
        }
    }

    /// Number of clusters participating.
    pub fn clusters(&self) -> usize {
        self.levels[0].groups()
    }
}

impl Barrier for HybridBarrier {
    fn wait(&self, ctx: &dyn MemCtx) {
        if ctx.nthreads() == 1 {
            return;
        }
        let e = self.epochs.next(ctx);
        climb(&self.levels, ctx, ctx.tid(), e, &self.wakeup);
    }

    fn name(&self) -> &str {
        "HYBRID"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::testutil::{check_host, check_sim, check_sim_on, HOST_SIZES, SIM_SIZES};
    use crate::env::MemLayer;
    use armbar_simcoh::{Addr, SimBuilder};
    use armbar_topology::{Platform, TopologyBuilder};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// An 8-core machine with logical clusters of `n_c` cores.
    fn machine(n_c: usize) -> Topology {
        TopologyBuilder::new("flat", 8).layer("noc", 20.0, 0.5).n_c(n_c).hierarchy(&[8]).build()
    }

    /// Counts the RMWs a thread issues.
    struct RmwCount<'a> {
        inner: &'a dyn MemCtx,
        rmws: &'a AtomicU64,
    }

    impl MemLayer for RmwCount<'_> {
        fn inner(&self) -> &dyn MemCtx {
            self.inner
        }
        fn fetch_add(&self, addr: Addr, delta: u32) -> u32 {
            self.rmws.fetch_add(1, Ordering::Relaxed);
            self.inner.fetch_add(addr, delta)
        }
    }

    /// RMWs issued over `episodes` simulated episodes of HYBRID on `topo`.
    fn rmws(topo: Topology, p: usize, episodes: u32) -> u64 {
        let mut arena = Arena::new();
        let barrier = Arc::new(HybridBarrier::new(&mut arena, p, &topo));
        let rmws = Arc::new(AtomicU64::new(0));
        let sink = Arc::clone(&rmws);
        SimBuilder::new(Arc::new(topo), p)
            .run(move |sim| {
                let ctx = RmwCount { inner: sim, rmws: &sink };
                for _ in 0..episodes {
                    barrier.wait(&ctx);
                }
            })
            .unwrap();
        rmws.load(Ordering::Relaxed)
    }

    #[test]
    fn single_core_clusters_are_a_fan_in_one_level() {
        // N_c = 1: every thread is its own cluster's representative, so
        // the cluster level issues no RMW and the static levels play over
        // all 8 threads (two 4-way rounds).
        let topo = machine(1);
        let mut arena = Arena::new();
        let b = HybridBarrier::new(&mut arena, 8, &topo);
        assert_eq!((b.clusters(), b.levels.len()), (8, 3));
        assert_eq!(rmws(machine(1), 8, 3), 0);
        for p in [2usize, 5, 8] {
            check_sim_on(Arc::new(machine(1)), p, 4, |a, p, t| {
                Box::new(HybridBarrier::new(a, p, t))
            });
        }
        // The host runs the barrier shaped by the same machine.
        check_host(5, 30, |a, p, _| Box::new(HybridBarrier::new(a, p, &machine(1))));
    }

    #[test]
    fn one_cluster_is_a_single_dynamic_level() {
        // N_c ≥ P: one cluster counter over every thread and no static
        // level; each thread fetch-adds the counter once per episode.
        let topo = machine(8);
        for p in [2usize, 5, 8] {
            let mut arena = Arena::new();
            let b = HybridBarrier::new(&mut arena, p, &topo);
            assert_eq!((b.clusters(), b.levels.len()), (1, 1), "p={p}");
            assert_eq!(rmws(machine(8), p, 3), 3 * p as u64, "p={p}");
            check_sim_on(Arc::new(machine(8)), p, 4, |a, p, t| {
                Box::new(HybridBarrier::new(a, p, t))
            });
        }
        check_host(5, 30, |a, p, _| Box::new(HybridBarrier::new(a, p, &machine(8))));
    }

    #[test]
    fn sim_correct_across_sizes() {
        for &p in &SIM_SIZES {
            for platform in Platform::ARM {
                check_sim(platform, p, 3, |a, p, t| Box::new(HybridBarrier::new(a, p, t)));
            }
        }
    }

    #[test]
    fn sim_correct_with_every_wakeup() {
        for wakeup in [WakeupKind::Global, WakeupKind::BinaryTree, WakeupKind::NumaTree] {
            check_sim(Platform::ThunderX2, 64, 3, move |a, p, t| {
                Box::new(HybridBarrier::with_wakeup(a, p, t, wakeup))
            });
        }
    }

    #[test]
    fn host_correct_across_sizes() {
        for &p in &HOST_SIZES {
            check_host(p, 30, |a, p, t| Box::new(HybridBarrier::new(a, p, t)));
        }
    }

    #[test]
    fn cluster_count_follows_topology() {
        let topo = Topology::preset(Platform::Kunpeng920); // N_c = 4
        let mut arena = Arena::new();
        assert_eq!(HybridBarrier::new(&mut arena, 64, &topo).clusters(), 16);
        assert_eq!(HybridBarrier::new(&mut arena, 6, &topo).clusters(), 2);
        assert_eq!(HybridBarrier::new(&mut arena, 3, &topo).clusters(), 1);
    }

    #[test]
    fn degenerate_single_cluster_works() {
        // P ≤ N_c: pure centralized counter + wake-up.
        check_sim(Platform::ThunderX2, 16, 4, |a, p, t| Box::new(HybridBarrier::new(a, p, t)));
    }
}
