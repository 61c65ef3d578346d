//! Ring barrier (Aravind, reference \[7\] of the paper).
//!
//! Threads are arranged on a logical ring; a token (an epoch value) makes
//! two passes. In the **collect** pass, thread `i` waits for its
//! predecessor's token and forwards it — by the time the token returns to
//! thread 0, everyone has arrived. In the **release** pass the token
//! travels the ring again, releasing each thread in turn. Each thread
//! performs exactly one remote write and two local spins per episode —
//! "minimal remote memory references", the property the original paper
//! advertises — at the cost of an O(P) critical path.
//!
//! Included as a contrast algorithm: its per-thread traffic is the lowest
//! of any barrier here, but the linear token walk makes it uncompetitive
//! at 64 threads, which is precisely why the CLUSTER'21 paper's tree-based
//! optimization space is the interesting one.

use armbar_simcoh::{arena::padded_elem, Addr, Arena};
use armbar_topology::Topology;

use crate::env::{Barrier, MemCtx};
use crate::wakeup::EpochSlots;

/// Two-pass ring (token) barrier.
#[derive(Debug)]
pub struct RingBarrier {
    /// Collect-pass token slots, one padded line per thread.
    collect: Addr,
    /// Release-pass token slots.
    release: Addr,
    line: usize,
    epochs: EpochSlots,
}

impl RingBarrier {
    /// Builds the barrier for `p` threads.
    pub fn new(arena: &mut Arena, p: usize, topo: &Topology) -> Self {
        assert!(p >= 1);
        let line = topo.cacheline_bytes();
        Self {
            collect: arena.alloc_padded_u32_array(p, line),
            release: arena.alloc_padded_u32_array(p, line),
            line,
            epochs: EpochSlots::new(arena, p, line),
        }
    }

    fn collect_slot(&self, i: usize) -> Addr {
        padded_elem(self.collect, i, self.line)
    }

    fn release_slot(&self, i: usize) -> Addr {
        padded_elem(self.release, i, self.line)
    }
}

impl Barrier for RingBarrier {
    fn wait(&self, ctx: &dyn MemCtx) {
        let p = ctx.nthreads();
        if p == 1 {
            return;
        }
        let me = ctx.tid();
        let e = self.epochs.next(ctx);
        let next = (me + 1) % p;

        if me == 0 {
            // Ring head: start the collect pass, wait for it to return,
            // then start the release pass (its own release is implicit).
            ctx.store(self.collect_slot(next), e);
            ctx.spin_until_ge(self.collect_slot(0), e);
            // The collect token returned: every thread has arrived.
            ctx.mark(crate::env::MARK_ARRIVED);
            ctx.store(self.release_slot(next), e);
        } else {
            // Wait for the collect token, forward it.
            ctx.spin_until_ge(self.collect_slot(me), e);
            ctx.store(self.collect_slot(next), e);
            // Wait for the release token; forward unless we close the ring.
            ctx.spin_until_ge(self.release_slot(me), e);
            if next != 0 {
                ctx.store(self.release_slot(next), e);
            }
        }
    }

    fn name(&self) -> &str {
        "RING"
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
            check_sim(Platform::Kunpeng920, p, 3, |a, p, t| Box::new(RingBarrier::new(a, p, t)));
        }
    }

    #[test]
    fn sim_correct_on_all_arm_platforms() {
        for platform in Platform::ARM {
            check_sim(platform, 64, 2, |a, p, t| Box::new(RingBarrier::new(a, p, t)));
        }
    }

    #[test]
    fn host_correct_across_sizes() {
        for &p in &HOST_SIZES {
            check_host(p, 25, |a, p, t| Box::new(RingBarrier::new(a, p, t)));
        }
    }

    #[test]
    fn slots_are_padded_apart() {
        let topo = Topology::preset(Platform::ThunderX2);
        let mut arena = Arena::new();
        let b = RingBarrier::new(&mut arena, 8, &topo);
        let line = topo.cacheline_bytes() as u32;
        for i in 0..7 {
            assert_ne!(b.collect_slot(i) / line, b.collect_slot(i + 1) / line);
        }
        assert_ne!(b.collect_slot(0) / line, b.release_slot(0) / line);
    }
}
