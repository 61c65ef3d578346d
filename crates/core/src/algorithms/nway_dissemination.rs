//! n-way dissemination barrier (Hoefler et al., reference \[4\] of the
//! paper).
//!
//! Generalizes the dissemination barrier's pairwise rounds to `n`
//! simultaneous notifications per round: in round `r` of base `w = n+1`,
//! thread `i` signals threads `(i + j·w^r) mod P` for `j = 1..n` and waits
//! for the `n` mirrored in-flags. Round count drops from `⌈log₂P⌉` to
//! `⌈log_{n+1}P⌉` at the cost of more traffic per round — designed for
//! interconnects with hardware parallelism (InfiniBand in the original;
//! the MLP of a cache hierarchy here).
//!
//! With `n = 1` this *is* the classic dissemination barrier.

use armbar_simcoh::{arena::padded_elem, Addr, Arena};
use armbar_topology::Topology;

use crate::env::{Barrier, MemCtx};
use crate::wakeup::EpochSlots;

/// n-way dissemination barrier.
#[derive(Debug)]
pub struct NwayDisseminationBarrier {
    /// `flags + line·i + 4·(r·n + (j−1))` = in-flag of thread `i`, round
    /// `r`, peer slot `j`.
    flags: Addr,
    line: usize,
    rounds: usize,
    n: usize,
    epochs: EpochSlots,
}

impl NwayDisseminationBarrier {
    /// Builds the barrier for `p` threads with `n` partners per round.
    ///
    /// # Panics
    /// Panics when `n < 1` or the per-thread flag block exceeds one cache
    /// line (ensuring the classic compact layout stays honest).
    pub fn new(arena: &mut Arena, p: usize, topo: &Topology, n: usize) -> Self {
        assert!(p >= 1);
        assert!(n >= 1, "need at least one partner per round");
        let w = n + 1;
        let mut rounds = 0usize;
        let mut span = 1usize;
        while span < p {
            span = span.saturating_mul(w);
            rounds += 1;
        }
        let line = topo.cacheline_bytes();
        let slots = (rounds * n).max(1);
        assert!(
            4 * slots <= line,
            "flag block ({} slots) exceeds a {line}-byte cache line; lower n",
            slots
        );
        Self {
            flags: arena.alloc_padded_u32_array(p, line),
            line,
            rounds,
            n,
            epochs: EpochSlots::new(arena, p, line),
        }
    }

    fn flag(&self, thread: usize, round: usize, j: usize) -> Addr {
        debug_assert!(j >= 1 && j <= self.n);
        padded_elem(self.flags, thread, self.line) + 4 * (round * self.n + (j - 1)) as Addr
    }

    /// Number of rounds (`⌈log_{n+1}P⌉`).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Partners signalled per round.
    pub fn n(&self) -> usize {
        self.n
    }
}

impl Barrier for NwayDisseminationBarrier {
    fn wait(&self, ctx: &dyn MemCtx) {
        let p = ctx.nthreads();
        if p == 1 {
            return;
        }
        let me = ctx.tid();
        let e = self.epochs.next(ctx);
        let w = self.n + 1;
        let mut stride = 1usize;
        for r in 0..self.rounds {
            if r == self.rounds - 1 {
                // Symmetric barrier, no champion: each thread's final round
                // is its own arrival/notification boundary.
                ctx.mark(crate::env::MARK_ARRIVED);
            }
            for j in 1..=self.n {
                let partner = (me + j * stride) % p;
                ctx.store(self.flag(partner, r, j), e);
            }
            let waits: Vec<Addr> = (1..=self.n).map(|j| self.flag(me, r, j)).collect();
            ctx.spin_until_all_ge(&waits, e);
            stride = stride.saturating_mul(w);
        }
    }

    fn name(&self) -> &str {
        "NDIS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::testutil::{check_host, check_sim, HOST_SIZES, SIM_SIZES};
    use armbar_topology::Platform;

    #[test]
    fn sim_correct_across_sizes_and_widths() {
        for n in [1usize, 2, 3] {
            for &p in &SIM_SIZES {
                check_sim(Platform::Phytium2000Plus, p, 3, move |a, p, t| {
                    Box::new(NwayDisseminationBarrier::new(a, p, t, n))
                });
            }
        }
    }

    #[test]
    fn host_correct_across_sizes() {
        for &p in &HOST_SIZES {
            check_host(p, 25, |a, p, t| Box::new(NwayDisseminationBarrier::new(a, p, t, 2)));
        }
    }

    #[test]
    fn round_count_shrinks_with_n() {
        let topo = Topology::preset(Platform::ThunderX2);
        let mut arena = Arena::new();
        let one = NwayDisseminationBarrier::new(&mut arena, 64, &topo, 1);
        let two = NwayDisseminationBarrier::new(&mut arena, 64, &topo, 2);
        let three = NwayDisseminationBarrier::new(&mut arena, 64, &topo, 3);
        assert_eq!(one.rounds(), 6); // log2 64
        assert_eq!(two.rounds(), 4); // log3 64 = 3.79 → 4
        assert_eq!(three.rounds(), 3); // log4 64
    }

    #[test]
    fn n1_matches_classic_dissemination_round_count() {
        let topo = Topology::preset(Platform::Kunpeng920);
        for p in [2usize, 5, 17, 33, 64] {
            let mut arena = Arena::new();
            let b = NwayDisseminationBarrier::new(&mut arena, p, &topo, 1);
            let classic = crate::algorithms::DisseminationBarrier::new(&mut arena, p, &topo);
            assert_eq!(b.rounds(), classic.rounds(), "p={p}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn rejects_oversized_flag_blocks() {
        let topo = Topology::preset(Platform::ThunderX2); // 64 B lines
        let mut arena = Arena::new();
        // 9 partners × ⌈log10(64)⌉ = 2 rounds → 18 slots = 72 B > 64 B.
        let _ = NwayDisseminationBarrier::new(&mut arena, 64, &topo, 9);
    }
}
