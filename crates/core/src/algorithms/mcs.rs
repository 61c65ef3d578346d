//! MCS — the Mellor-Crummey & Scott tree barrier (Section II-B-2).
//!
//! Every thread is an internal node of a static 4-ary arrival tree (not a
//! leaf, unlike the combining tree): node `i`'s arrival children are
//! `4i+1..4i+4`. A node waits for its children's arrival flags — four
//! packed words in the node's own cache-line-sized record, exactly the
//! original `childnotready` layout — then signals its slot in its parent's
//! record. Wake-up descends a separate binary tree (`2i+1`, `2i+2`) over
//! padded per-thread flags, as in the original algorithm: that is
//! [`WakeupKind::BinaryTree`].
//!
//! The paper's finding (Figure 7): because the 4-ary tree packs more
//! threads per level, synchronization partners quickly span core clusters,
//! so MCS loses to CMB beyond ~8 threads on these machines.

use armbar_simcoh::{arena::padded_elem, Addr, Arena};
use armbar_topology::Topology;

use crate::env::{Barrier, MemCtx};
use crate::wakeup::{EpochSlots, Wakeup, WakeupKind};

/// Arrival fan-in of the MCS tree (fixed at 4 in the original).
const ARRIVAL_FANIN: usize = 4;

/// MCS P-node tree barrier.
#[derive(Debug)]
pub struct McsBarrier {
    /// Node records: `records + line·i + 4·s` = arrival flag of node `i`'s
    /// child slot `s` (packed within node `i`'s line).
    records: Addr,
    /// Binary wake-up tree over padded per-thread flags.
    wakeup: Wakeup,
    line: usize,
    epochs: EpochSlots,
}

impl McsBarrier {
    /// Builds the barrier for `p` threads.
    pub fn new(arena: &mut Arena, p: usize, topo: &Topology) -> Self {
        assert!(p >= 1);
        let line = topo.cacheline_bytes();
        assert!(4 * ARRIVAL_FANIN <= line, "child slots must fit one line");
        Self {
            records: arena.alloc_padded_u32_array(p, line),
            wakeup: Wakeup::new(arena, p, line, topo.n_c(), WakeupKind::BinaryTree),
            line,
            epochs: EpochSlots::new(arena, p, line),
        }
    }

    fn arrival_slot(&self, parent: usize, slot: usize) -> Addr {
        padded_elem(self.records, parent, self.line) + 4 * slot as Addr
    }
}

impl Barrier for McsBarrier {
    fn wait(&self, ctx: &dyn MemCtx) {
        let p = ctx.nthreads();
        if p == 1 {
            return;
        }
        let me = ctx.tid();
        let e = self.epochs.next(ctx);

        // Arrival: wait for own children (one polling loop over the packed
        // slots — they share the node's line anyway), then notify parent.
        let children = ARRIVAL_FANIN.min(p.saturating_sub(ARRIVAL_FANIN * me + 1));
        if children > 0 {
            let slots: [Addr; ARRIVAL_FANIN] = std::array::from_fn(|s| self.arrival_slot(me, s));
            ctx.spin_until_all_ge(&slots[..children], e);
        }
        if me != 0 {
            let parent = (me - 1) / ARRIVAL_FANIN;
            let slot = (me - 1) % ARRIVAL_FANIN;
            ctx.store(self.arrival_slot(parent, slot), e);
            // Wake-up: block until the binary tree reaches us, then wake
            // our own children.
            self.wakeup.wait(ctx, e);
        } else {
            // Root saw its subtree complete: the whole arrival tree is done.
            self.wakeup.release(ctx, e);
        }
    }

    fn name(&self) -> &str {
        "MCS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::testutil::{check_host, check_sim, HOST_SIZES, SIM_SIZES};
    use armbar_topology::Platform;

    #[test]
    fn sim_correct_across_sizes() {
        for &p in &SIM_SIZES {
            check_sim(Platform::ThunderX2, p, 4, |a, p, t| Box::new(McsBarrier::new(a, p, t)));
        }
    }

    #[test]
    fn sim_correct_on_kunpeng() {
        for &p in &[4usize, 20, 64] {
            check_sim(Platform::Kunpeng920, p, 3, |a, p, t| Box::new(McsBarrier::new(a, p, t)));
        }
    }

    #[test]
    fn host_correct_across_sizes() {
        for &p in &HOST_SIZES {
            check_host(p, 30, |a, p, t| Box::new(McsBarrier::new(a, p, t)));
        }
    }

    #[test]
    fn child_slots_pack_into_parent_record() {
        let topo = Topology::preset(Platform::ThunderX2);
        let mut arena = Arena::new();
        let b = McsBarrier::new(&mut arena, 21, &topo);
        let line = topo.cacheline_bytes() as u32;
        // All four slots of node 0 share node 0's line …
        for s in 1..4 {
            assert_eq!(b.arrival_slot(0, s) / line, b.arrival_slot(0, 0) / line);
        }
        // … and are distinct from node 1's record and from wake flags.
        assert_ne!(b.arrival_slot(0, 0) / line, b.arrival_slot(1, 0) / line);
        assert_ne!(b.arrival_slot(0, 0) / line, b.wakeup.flag(0) / line);
    }

    #[test]
    fn arrival_tree_parent_math_is_inverse() {
        for parent in 0..32usize {
            for s in 0..4 {
                let child = 4 * parent + 1 + s;
                assert_eq!((child - 1) / 4, parent);
                assert_eq!((child - 1) % 4, s);
            }
        }
    }
}
