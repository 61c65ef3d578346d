//! TOUR — the tournament barrier (Hensgen, Finkel & Manber; Section
//! II-B-2).
//!
//! `⌈log₂P⌉` rounds of statically paired play-offs: in round `k`, thread
//! `i` with `i mod 2^(k+1) == 0` is the *winner* and waits for the *loser*
//! `i + 2^k`, who signals its arrival and drops out to await the global
//! release. Thread 0 is the champion by construction and releases everyone
//! through the global (epoch-valued) wake word, [`WakeupKind::Global`] —
//! the original algorithm's global wake-up.
//!
//! Equivalent to a bottom-up static combining tree with fan-in 2 but with
//! no atomic read-modify-writes anywhere: every flag has exactly one
//! writer, which is why static tournaments behave so well on the modeled
//! ARMv8 parts (Figure 7).

use armbar_simcoh::{arena::padded_elem, Addr, Arena};
use armbar_topology::Topology;

use crate::env::{Barrier, MemCtx};
use crate::wakeup::{EpochSlots, Wakeup, WakeupKind};

/// Pairwise tournament barrier with global wake-up.
#[derive(Debug)]
pub struct TournamentBarrier {
    /// `flags + line·i + 4·k` = round-`k` arrival flag of winner `i`,
    /// packed in winner `i`'s line (written by its round-`k` loser).
    flags: Addr,
    wakeup: Wakeup,
    line: usize,
    rounds: usize,
    epochs: EpochSlots,
}

impl TournamentBarrier {
    /// Builds the barrier for `p` threads.
    pub fn new(arena: &mut Arena, p: usize, topo: &Topology) -> Self {
        assert!(p >= 1);
        let line = topo.cacheline_bytes();
        let rounds = (usize::BITS - (p - 1).leading_zeros()) as usize;
        assert!(4 * rounds.max(1) <= line, "round flags exceed a cache line");
        Self {
            flags: arena.alloc_padded_u32_array(p, line),
            wakeup: Wakeup::new(arena, p, line, topo.n_c(), WakeupKind::Global),
            line,
            rounds,
            epochs: EpochSlots::new(arena, p, line),
        }
    }

    fn flag(&self, winner: usize, round: usize) -> Addr {
        padded_elem(self.flags, winner, self.line) + 4 * round as Addr
    }

    /// Number of play-off rounds.
    pub fn rounds(&self) -> usize {
        self.rounds
    }
}

impl Barrier for TournamentBarrier {
    fn wait(&self, ctx: &dyn MemCtx) {
        let p = ctx.nthreads();
        if p == 1 {
            return;
        }
        let me = ctx.tid();
        let e = self.epochs.next(ctx);

        for k in 0..self.rounds {
            let pair = 1usize << (k + 1);
            if me.is_multiple_of(pair) {
                let loser = me + (1 << k);
                if loser < p {
                    ctx.spin_until_ge(self.flag(me, k), e);
                }
                // Bye (loser ≥ p): advance unopposed.
            } else {
                let winner = me - (1 << k);
                ctx.store(self.flag(winner, k), e);
                self.wakeup.wait(ctx, e);
                return;
            }
        }
        // Champion (thread 0): global release.
        self.wakeup.release(ctx, e);
    }

    fn name(&self) -> &str {
        "TOUR"
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
            check_sim(Platform::Phytium2000Plus, p, 4, |a, p, t| {
                Box::new(TournamentBarrier::new(a, p, t))
            });
        }
    }

    #[test]
    fn sim_correct_on_all_arm_platforms() {
        for platform in Platform::ARM {
            check_sim(platform, 64, 3, |a, p, t| Box::new(TournamentBarrier::new(a, p, t)));
        }
    }

    #[test]
    fn host_correct_across_sizes() {
        for &p in &HOST_SIZES {
            check_host(p, 30, |a, p, t| Box::new(TournamentBarrier::new(a, p, t)));
        }
    }

    #[test]
    fn round_count_is_ceil_log2() {
        let topo = Topology::preset(Platform::ThunderX2);
        for (p, want) in [(2usize, 1usize), (3, 2), (16, 4), (33, 6), (64, 6)] {
            let mut arena = Arena::new();
            assert_eq!(TournamentBarrier::new(&mut arena, p, &topo).rounds(), want, "p={p}");
        }
    }

    #[test]
    fn each_flag_has_one_static_writer() {
        // Round-k flag of winner w is written only by w + 2^k: check the
        // pairing arithmetic covers every thread exactly once per loss.
        let p = 64;
        let rounds = 6;
        let mut writers = std::collections::HashMap::new();
        for i in 0..p {
            for k in 0..rounds {
                let pair = 1usize << (k + 1);
                if i % pair != 0 {
                    let winner = i - (1 << k);
                    assert!(writers.insert((winner, k), i).is_none());
                    break;
                }
            }
        }
        // Everyone but the champion loses exactly once.
        assert_eq!(writers.len(), p - 1);
    }
}
