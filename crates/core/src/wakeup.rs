//! Notification-phase (wake-up) policies — Section V-C of the paper.
//!
//! After the last thread arrives, everyone else must be released. The paper
//! studies three broadcast schemes:
//!
//! * **Global sense** — one shared wake word everybody spins on; the
//!   champion writes it once (Eq. 3 models the cost). Best on Kunpeng 920.
//! * **Binary tree** — each thread has a private, cache-line-padded wake
//!   flag; parents wake children `2n+1`, `2n+2` (Eq. 4). Best on Phytium
//!   2000+ and ThunderX2.
//! * **NUMA-aware tree** — the paper's new topology (Eq. 5): cluster
//!   masters form the cross-cluster tree so that only one edge per cluster
//!   crosses a cluster boundary. Scales past the binary tree at high
//!   thread counts on Phytium 2000+/ThunderX2.
//!
//! All policies are *epoch-based*: episode `e` releases threads by
//! publishing the value `e`, so flags never need re-initialization (the
//! paper's Re-initialization-Phase disappears into the monotonic counter).

use armbar_simcoh::{arena::padded_elem, Addr, Arena};
use armbar_topology::Topology;

use crate::env::MemCtx;
use crate::trees::WakeTree;

/// Which broadcast scheme a barrier uses for its Notification-Phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WakeupKind {
    /// One shared wake word (sense-style, epoch-valued).
    Global,
    /// Binary tree over padded per-thread flags.
    BinaryTree,
    /// The paper's NUMA-aware tree (needs the machine's `N_c`).
    NumaTree,
}

impl WakeupKind {
    /// Display label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            WakeupKind::Global => "global",
            WakeupKind::BinaryTree => "binary tree",
            WakeupKind::NumaTree => "NUMA-aware tree",
        }
    }

    /// The tree wake-up for `topo`: the NUMA-aware tree on a machine with
    /// more than one cluster, the binary tree otherwise.
    pub fn tree_for(topo: &Topology) -> Self {
        if topo.num_clusters() > 1 {
            WakeupKind::NumaTree
        } else {
            WakeupKind::BinaryTree
        }
    }
}

/// A constructed wake-up mechanism shared by all participants.
#[derive(Debug)]
pub struct Wakeup {
    kind: WakeupKind,
    /// Global wake word (Global) — padded, alone on its line.
    gwake: Addr,
    /// Per-thread wake flags (trees) — `flag(i) = base + stride·i`.
    flags: Addr,
    stride: usize,
    tree: Option<WakeTree>,
}

impl Wakeup {
    /// Allocates wake-up state for `p` threads on a machine with
    /// `line_bytes` cache lines and logical cluster size `n_c`.
    pub fn new(
        arena: &mut Arena,
        p: usize,
        line_bytes: usize,
        n_c: usize,
        kind: WakeupKind,
    ) -> Self {
        assert!(p >= 1);
        let (gwake, flags, stride, tree) = match kind {
            WakeupKind::Global => (arena.alloc_padded_u32(line_bytes), 0, 0, None),
            WakeupKind::BinaryTree => (
                0,
                arena.alloc_padded_u32_array(p, line_bytes),
                line_bytes,
                Some(WakeTree::binary(p)),
            ),
            WakeupKind::NumaTree => (
                0,
                arena.alloc_padded_u32_array(p, line_bytes),
                line_bytes,
                Some(WakeTree::numa(p, n_c)),
            ),
        };
        Self { kind, gwake, flags, stride, tree }
    }

    /// The policy in use.
    pub fn kind(&self) -> WakeupKind {
        self.kind
    }

    /// Thread `i`'s wake flag under a tree policy.
    pub(crate) fn flag(&self, i: usize) -> Addr {
        padded_elem(self.flags, i, self.stride)
    }

    fn forward(&self, ctx: &dyn MemCtx, node: usize, epoch: u32) {
        let tree = self.tree.as_ref().expect("tree wakeup without a tree");
        for &c in tree.children(node) {
            ctx.store(self.flag(c), epoch);
        }
    }

    /// Called by the **champion** (the thread that observed the last
    /// arrival) to release everyone else with epoch value `epoch`.
    ///
    /// With a tree policy the tree is rooted at thread 0; a champion other
    /// than thread 0 (possible in dynamic tournaments) first wakes the root,
    /// which then forwards as usual via its own [`Wakeup::wait`].
    pub fn release(&self, ctx: &dyn MemCtx, epoch: u32) {
        // The champion calling release IS the end of the Arrival-Phase:
        // record it here so every Wakeup-based barrier gets the phase hook
        // without its own instrumentation (free on the simulator, no-op on
        // the host).
        ctx.mark(crate::env::MARK_ARRIVED);
        match self.kind {
            WakeupKind::Global => ctx.store(self.gwake, epoch),
            WakeupKind::BinaryTree | WakeupKind::NumaTree => {
                let me = ctx.tid();
                if me == 0 {
                    self.forward(ctx, 0, epoch);
                } else {
                    // A dynamic champion is an interior node of the tree: it
                    // starts the broadcast at the root AND covers its own
                    // subtree (its parent will also write its flag, which is
                    // harmless — epochs are monotone and it isn't waiting).
                    ctx.store(self.flag(0), epoch);
                    self.forward(ctx, me, epoch);
                }
            }
        }
    }

    /// Called by every **non-champion** to block until released, forwarding
    /// the wake-up to its tree children where applicable.
    pub fn wait(&self, ctx: &dyn MemCtx, epoch: u32) {
        match self.kind {
            WakeupKind::Global => {
                ctx.spin_until_ge(self.gwake, epoch);
            }
            WakeupKind::BinaryTree | WakeupKind::NumaTree => {
                let me = ctx.tid();
                ctx.spin_until_ge(self.flag(me), epoch);
                self.forward(ctx, me, epoch);
            }
        }
    }
}

/// Per-thread monotone episode counters, each padded onto its own line.
/// Local state kept in the shared arena so that both backends (and the
/// simulator's cost accounting) see it identically.
#[derive(Debug)]
pub struct EpochSlots {
    base: Addr,
    stride: usize,
}

impl EpochSlots {
    /// Allocates `p` padded epoch slots.
    pub fn new(arena: &mut Arena, p: usize, line_bytes: usize) -> Self {
        Self { base: arena.alloc_padded_u32_array(p, line_bytes), stride: line_bytes }
    }

    /// Increments and returns this thread's episode number (first call
    /// returns 1). A purely local operation — relaxed: no other thread ever
    /// touches this slot, so it needs no ordering at all.
    pub fn next(&self, ctx: &dyn MemCtx) -> u32 {
        let a = padded_elem(self.base, ctx.tid(), self.stride);
        let e = ctx.load_relaxed(a).wrapping_add(1);
        ctx.store_relaxed(a, e);
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armbar_simcoh::SimBuilder;
    use armbar_topology::{Platform, Topology};
    use std::sync::Arc;

    fn run_wakeup(kind: WakeupKind, p: usize) {
        let topo = Arc::new(Topology::preset(Platform::ThunderX2));
        let mut arena = Arena::new();
        let w = Arc::new(Wakeup::new(&mut arena, p, topo.cacheline_bytes(), topo.n_c(), kind));
        let done = arena.alloc_u32();
        let stats = SimBuilder::new(topo, p)
            .run(move |ctx| {
                for e in 1..=3u32 {
                    if ctx.tid() == 0 {
                        // "Champion": give others time to start waiting.
                        ctx.compute_ns(500.0);
                        w.release(ctx, e);
                    } else {
                        w.wait(ctx, e);
                    }
                }
                ctx.fetch_add(done, 1);
            })
            .unwrap();
        assert!(stats.max_time_ns() > 0.0);
    }

    #[test]
    fn global_wakeup_releases_everyone() {
        run_wakeup(WakeupKind::Global, 8);
        run_wakeup(WakeupKind::Global, 64);
    }

    #[test]
    fn binary_tree_wakeup_releases_everyone() {
        run_wakeup(WakeupKind::BinaryTree, 8);
        run_wakeup(WakeupKind::BinaryTree, 64);
    }

    #[test]
    fn numa_tree_wakeup_releases_everyone() {
        run_wakeup(WakeupKind::NumaTree, 8);
        run_wakeup(WakeupKind::NumaTree, 64);
    }

    #[test]
    fn tree_release_from_non_root_champion() {
        // A dynamic champion (not thread 0) must still be able to release.
        let topo = Arc::new(Topology::preset(Platform::ThunderX2));
        let p = 16;
        let mut arena = Arena::new();
        let w = Arc::new(Wakeup::new(
            &mut arena,
            p,
            topo.cacheline_bytes(),
            topo.n_c(),
            WakeupKind::BinaryTree,
        ));
        SimBuilder::new(topo, p)
            .run(move |ctx| {
                if ctx.tid() == 5 {
                    ctx.compute_ns(500.0);
                    w.release(ctx, 1);
                } else {
                    w.wait(ctx, 1);
                }
            })
            .unwrap();
    }

    #[test]
    fn epoch_slots_count_locally() {
        let topo = Arc::new(Topology::preset(Platform::Kunpeng920));
        let mut arena = Arena::new();
        let slots = Arc::new(EpochSlots::new(&mut arena, 4, topo.cacheline_bytes()));
        SimBuilder::new(topo, 4)
            .run(move |ctx| {
                for want in 1..=10u32 {
                    assert_eq!(slots.next(ctx), want);
                }
            })
            .unwrap();
    }

    #[test]
    fn wakeup_kind_labels() {
        assert_eq!(WakeupKind::Global.label(), "global");
        assert_eq!(WakeupKind::BinaryTree.label(), "binary tree");
        assert_eq!(WakeupKind::NumaTree.label(), "NUMA-aware tree");
    }

    #[test]
    fn tree_wakeup_is_numa_aware_only_across_clusters() {
        let one_cluster = armbar_topology::TopologyBuilder::new("one cluster", 4)
            .layer("shared", 10.0, 0.5)
            .n_c(4)
            .hierarchy(&[4])
            .build();
        assert_eq!(WakeupKind::tree_for(&one_cluster), WakeupKind::BinaryTree);
        let thunderx2 = Topology::preset(Platform::ThunderX2);
        assert_eq!(WakeupKind::tree_for(&thunderx2), WakeupKind::NumaTree);
    }
}
