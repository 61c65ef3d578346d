//! DIS and NDIS — the dissemination barrier (Section II-B-3) and its
//! n-way generalization (Hoefler et al., reference \[4\] of the paper).
//!
//! In round `r` of base `w = n+1`, thread `i` signals threads
//! `(i + j·w^r) mod P` for `j = 1..n` and waits for the `n` mirrored
//! in-flags. There is no distinguished champion and no
//! Notification-Phase — after the last round every thread has transitively
//! heard from everyone. With `n = 1` this is the classic dissemination
//! barrier (DIS): `⌈log₂P⌉` rounds of pairwise signalling, thread `i`
//! notifying `(i + 2^r) mod P`. Larger `n` (NDIS builds `n = 2`) cuts the
//! round count to `⌈log_{n+1}P⌉` at the cost of more traffic per round —
//! designed for interconnects with hardware parallelism (InfiniBand in the
//! original; the MLP of a cache hierarchy here).
//!
//! Flags are epoch-valued. Following the classic compact layout, each
//! thread's per-round in-flags are packed contiguously (4 bytes × rounds ×
//! n), so on a 64-byte-line machine a thread's whole flag block lives in
//! one line — which is precisely why DIS suffers on ARMv8: every round, a
//! *different* remote writer dirties that line while its owner spins on it,
//! and once `P > N_c` those writers sit across cluster boundaries in every
//! round (not just the last few, as in tree barriers).

use armbar_simcoh::{arena::padded_elem, Addr, Arena};
use armbar_topology::Topology;

use crate::env::{Barrier, MemCtx};
use crate::wakeup::EpochSlots;

/// n-way dissemination barrier; `n = 1` is DIS.
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
                // is its own arrival/notification boundary (the phase split
                // takes the latest such mark).
                ctx.mark(crate::env::MARK_ARRIVED);
            }
            // The signals must stay release stores: round-r flags are how
            // each thread's pre-barrier writes (and the transitive writes
            // of everyone it already heard from) propagate to the partners.
            for j in 1..=self.n {
                let partner = (me + j * stride) % p;
                ctx.store(self.flag(partner, r, j), e);
            }
            if self.n == 1 {
                // One in-flag: DIS's single-word wait. A batched wait is a
                // different op on the simulator, priced differently even
                // over one word.
                ctx.spin_until_ge(self.flag(me, r, 1), e);
            } else {
                let waits: Vec<Addr> = (1..=self.n).map(|j| self.flag(me, r, j)).collect();
                ctx.spin_until_all_ge(&waits, e);
            }
            stride = stride.saturating_mul(w);
        }
    }

    fn name(&self) -> &str {
        if self.n == 1 {
            "DIS"
        } else {
            "NDIS"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::testutil::{check_host, check_sim, HOST_SIZES, SIM_SIZES};
    use crate::env::MemLayer;
    use armbar_simcoh::{SimBuilder, WaitKind};
    use armbar_topology::Platform;
    use std::sync::{Arc, Mutex};

    #[test]
    fn sim_correct_across_sizes_and_widths() {
        for n in [1usize, 2, 3] {
            for &p in &SIM_SIZES {
                check_sim(Platform::Phytium2000Plus, p, 4, move |a, p, t| {
                    Box::new(NwayDisseminationBarrier::new(a, p, t, n))
                });
            }
        }
    }

    #[test]
    fn sim_correct_on_kunpeng_lines() {
        // 128-byte lines change the flag block layout; re-verify.
        for &p in &[2usize, 16, 64] {
            check_sim(Platform::Kunpeng920, p, 4, |a, p, t| {
                Box::new(NwayDisseminationBarrier::new(a, p, t, 1))
            });
        }
    }

    #[test]
    fn host_correct_across_sizes() {
        for (n, episodes) in [(1usize, 30u32), (2, 25)] {
            for &p in &HOST_SIZES {
                check_host(p, episodes, move |a, p, t| {
                    Box::new(NwayDisseminationBarrier::new(a, p, t, n))
                });
            }
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
    fn round_count_matches_formula() {
        let topo = Topology::preset(Platform::ThunderX2);
        for (p, want) in [(2usize, 1usize), (4, 2), (5, 3), (32, 5), (33, 6), (64, 6)] {
            let mut arena = Arena::new();
            let b = NwayDisseminationBarrier::new(&mut arena, p, &topo, 1);
            assert_eq!(b.rounds(), want, "p={p}");
        }
    }

    #[test]
    fn n1_matches_classic_dissemination_round_count() {
        // DIS runs ⌈log₂P⌉ pairwise rounds, whatever the line size.
        let topo = Topology::preset(Platform::Kunpeng920);
        for p in [1usize, 2, 3, 4, 5, 17, 33, 64, 65] {
            let mut arena = Arena::new();
            let b = NwayDisseminationBarrier::new(&mut arena, p, &topo, 1);
            let ceil_log2 = (usize::BITS - (p - 1).leading_zeros()) as usize;
            assert_eq!(b.rounds(), ceil_log2, "p={p}");
        }
    }

    #[test]
    fn flag_blocks_are_one_line_per_thread() {
        let topo = Topology::preset(Platform::ThunderX2);
        let line = topo.cacheline_bytes() as u32;
        for n in [1usize, 2] {
            let mut arena = Arena::new();
            let b = NwayDisseminationBarrier::new(&mut arena, 64, &topo, n);
            for t in 0..64 {
                for r in 0..b.rounds() {
                    for j in 1..=n {
                        let (a, first) = (b.flag(t, r, j), b.flag(t, 0, 1));
                        assert_eq!(a / line, first / line, "n={n} t={t} r={r} j={j}");
                    }
                }
            }
            assert_ne!(b.flag(0, 0, 1) / line, b.flag(1, 0, 1) / line);
        }
    }

    /// Records every spin a thread issues: the watched-word count and the
    /// condition.
    struct CountingCtx<'a> {
        inner: &'a dyn MemCtx,
        spins: &'a Mutex<Vec<(usize, WaitKind)>>,
    }

    impl MemLayer for CountingCtx<'_> {
        fn inner(&self) -> &dyn MemCtx {
            self.inner
        }
        fn spin_until(&self, addrs: &[Addr], kind: WaitKind) -> u32 {
            self.spins.lock().unwrap().push((addrs.len(), kind));
            self.inner.spin_until(addrs, kind)
        }
    }

    #[test]
    fn each_round_issues_one_wait_of_the_partner_count_shape() {
        // DIS waits on its one in-flag with a single-word `Ge`; NDIS waits
        // on its n in-flags with one batched `AllGe`. The simulator prices
        // the two differently, so DIS must never take the batched path.
        let topo = Arc::new(Topology::preset(Platform::ThunderX2));
        let (p, episodes) = (8usize, 2u32);
        for n in [1usize, 2] {
            let mut arena = Arena::new();
            let b = Arc::new(NwayDisseminationBarrier::new(&mut arena, p, &topo, n));
            let rounds = b.rounds();
            let spins = Arc::new(Mutex::new(Vec::new()));
            SimBuilder::new(Arc::clone(&topo), p)
                .run({
                    let (b, spins) = (Arc::clone(&b), Arc::clone(&spins));
                    move |sim| {
                        let ctx = CountingCtx { inner: sim, spins: &spins };
                        for _ in 0..episodes {
                            b.wait(&ctx);
                        }
                    }
                })
                .unwrap();
            let spins = spins.lock().unwrap();
            assert_eq!(spins.len(), p * rounds * episodes as usize, "n={n}");
            for &(words, kind) in spins.iter() {
                match n {
                    1 => assert!(words == 1 && matches!(kind, WaitKind::Ge(_)), "{kind:?}"),
                    _ => assert!(words == n && matches!(kind, WaitKind::AllGe(_)), "{kind:?}"),
                }
            }
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
