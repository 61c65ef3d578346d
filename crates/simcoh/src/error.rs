//! Simulation failure modes, and the spin-wait condition they report.

use crate::arena::Addr;

/// A spin-wait condition: what a thread blocked in `spin_until` waits
/// *for*. It is a plain value, so every backend evaluates it the same way
/// ([`WaitKind::holds`]), and a deadlock report can say not just where a
/// thread was stuck but what condition could never be met (a lost-wakeup
/// report reads "t3 on addr 0x40 waiting for == 1" instead of a bare
/// address). `Eq` and `Ge` watch exactly one word; `AllGe` watches a list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitKind {
    /// `spin_until_eq`: waiting for the word to equal the value.
    Eq(u32),
    /// `spin_until_ge`: waiting for the word to reach the epoch.
    Ge(u32),
    /// `spin_until_all_ge`: waiting for *every* watched word to reach the
    /// epoch; the reported address is one that had not yet.
    AllGe(u32),
}

impl WaitKind {
    /// Whether a watched word holding `v` satisfies the wait.
    pub fn holds(self, v: u32) -> bool {
        match self {
            WaitKind::Eq(t) => v == t,
            WaitKind::Ge(t) | WaitKind::AllGe(t) => v >= t,
        }
    }

    /// One poll of the wait over `addrs`, reading each word with `load`.
    /// `Ok` carries the wait's result — the satisfying value of an `Eq`/`Ge`
    /// word, the epoch of an `AllGe` list — and `Err` the first watched word
    /// that does not hold yet. An `AllGe` poll stops at that word.
    pub fn probe(self, addrs: &[Addr], mut load: impl FnMut(Addr) -> u32) -> Result<u32, Addr> {
        match self {
            WaitKind::AllGe(epoch) => match addrs.iter().find(|&&a| !self.holds(load(a))) {
                Some(&a) => Err(a),
                None => Ok(epoch),
            },
            WaitKind::Eq(_) | WaitKind::Ge(_) => {
                let a = self.word(addrs);
                let v = load(a);
                if self.holds(v) {
                    Ok(v)
                } else {
                    Err(a)
                }
            }
        }
    }

    /// The one word an `Eq`/`Ge` wait watches.
    pub(crate) fn word(self, addrs: &[Addr]) -> Addr {
        match addrs {
            [a] => *a,
            _ => panic!("a `{self}` wait watches one word, not {}", addrs.len()),
        }
    }
}

impl std::fmt::Display for WaitKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaitKind::Eq(v) => write!(f, "== {v}"),
            WaitKind::Ge(v) => write!(f, ">= {v}"),
            WaitKind::AllGe(v) => write!(f, "all >= {v}"),
        }
    }
}

/// One thread blocked forever in a deadlocked simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlockWaiter {
    /// The blocked thread.
    pub tid: usize,
    /// The address it was spinning on (for all-ge waits: the first watched
    /// address still below the epoch).
    pub addr: u32,
    /// The condition that could never be satisfied.
    pub kind: WaitKind,
    /// The word's committed (coherence-state) value at detection time.
    pub last_value: u32,
    /// What the waiter itself would read: the committed value overlaid with
    /// the waiter's own store buffer and stale-value cache. Equal to
    /// `last_value` outside weak mode; when they differ, the divergence is
    /// itself the diagnosis — a reordering hid the committed value from
    /// this thread (or vice versa), which no fence-free reading of
    /// `last_value` alone could explain.
    pub view: u32,
}

impl std::fmt::Display for DeadlockWaiter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "t{} on addr {:#x} waiting for {} (saw {}",
            self.tid, self.addr, self.kind, self.last_value
        )?;
        if self.view != self.last_value {
            write!(f, ", thread view {}", self.view)?;
        }
        write!(f, ")")
    }
}

/// Why a simulation could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Every live simulated thread is blocked in `spin_until` and no write
    /// can ever satisfy any of them: the program under simulation (usually
    /// a barrier implementation) has deadlocked.
    ///
    /// Carries, per blocked thread, the address it was spinning on, the
    /// wait condition, and the value last observed there.
    Deadlock { waiters: Vec<DeadlockWaiter> },
    /// The simulation exceeded the configured operation budget — a live-lock
    /// or runaway loop in the simulated program. Carries both the configured
    /// budget and the number of operations issued when the guard tripped, so
    /// the message tells the reader what limit to raise.
    OpBudgetExhausted { ops: u64, budget: u64 },
    /// A simulated thread panicked; the message is forwarded. `waiters`
    /// snapshots every *other* thread that was blocked in a spin-wait when
    /// the panic tore the run down — often the interesting part of the
    /// diagnosis (the panicking thread is frequently an assertion that a
    /// release store never happened, and the waiters say who was stuck
    /// because of it).
    ThreadPanic { tid: usize, message: String, waiters: Vec<DeadlockWaiter> },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { waiters } => {
                write!(f, "simulated deadlock: {} thread(s) blocked forever: ", waiters.len())?;
                for (i, w) in waiters.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{w}")?;
                }
                Ok(())
            }
            SimError::OpBudgetExhausted { ops, budget } => {
                write!(
                    f,
                    "simulation exceeded its operation budget of {budget} ops \
                     (issued {ops}): live-lock?"
                )
            }
            SimError::ThreadPanic { tid, message, waiters } => {
                write!(f, "simulated thread {tid} panicked: {message}")?;
                if !waiters.is_empty() {
                    write!(f, "; {} thread(s) were blocked: ", waiters.len())?;
                    for (i, w) in waiters.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{w}")?;
                    }
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadlock_message_lists_waiters_with_conditions() {
        let e = SimError::Deadlock {
            waiters: vec![
                DeadlockWaiter {
                    tid: 0,
                    addr: 0x40,
                    kind: WaitKind::Eq(1),
                    last_value: 0,
                    view: 0,
                },
                DeadlockWaiter {
                    tid: 3,
                    addr: 0x80,
                    kind: WaitKind::Ge(7),
                    last_value: 6,
                    view: 6,
                },
            ],
        };
        let s = e.to_string();
        assert!(s.contains("t0 on addr 0x40 waiting for == 1 (saw 0)"), "{s}");
        assert!(s.contains("t3 on addr 0x80 waiting for >= 7 (saw 6)"), "{s}");
    }

    #[test]
    fn divergent_weak_view_is_reported_alongside_committed_value() {
        let w =
            DeadlockWaiter { tid: 1, addr: 0x44, kind: WaitKind::Eq(2), last_value: 2, view: 0 };
        let s = w.to_string();
        assert!(s.contains("(saw 2, thread view 0)"), "{s}");
        // Identical views keep the pre-weak message shape.
        let w =
            DeadlockWaiter { tid: 1, addr: 0x44, kind: WaitKind::Eq(2), last_value: 2, view: 2 };
        assert!(w.to_string().ends_with("(saw 2)"), "{w}");
    }

    #[test]
    fn wait_kind_display_covers_all_variants() {
        assert_eq!(WaitKind::Eq(2).to_string(), "== 2");
        assert_eq!(WaitKind::Ge(3).to_string(), ">= 3");
        assert_eq!(WaitKind::AllGe(4).to_string(), "all >= 4");
    }

    #[test]
    fn holds_at_the_ends_of_the_word() {
        // Plain (non-modular) comparison: an epoch at u32::MAX is not
        // reached by a word that wrapped to 0.
        for kind in [WaitKind::Ge(0), WaitKind::AllGe(0)] {
            assert!(kind.holds(0) && kind.holds(u32::MAX), "{kind}");
        }
        for kind in [WaitKind::Ge(u32::MAX), WaitKind::AllGe(u32::MAX)] {
            assert!(kind.holds(u32::MAX) && !kind.holds(0), "{kind}");
        }
        assert!(WaitKind::Eq(0).holds(0) && !WaitKind::Eq(0).holds(u32::MAX));
        assert!(WaitKind::Eq(u32::MAX).holds(u32::MAX) && !WaitKind::Eq(u32::MAX).holds(0));
    }

    #[test]
    fn probe_returns_the_value_or_the_first_unmet_word() {
        let mem = |a: Addr| [4, 5, 9][a as usize / 4];
        assert_eq!(WaitKind::Ge(3).probe(&[8], mem), Ok(9));
        assert_eq!(WaitKind::Eq(4).probe(&[4], mem), Err(4));
        assert_eq!(WaitKind::AllGe(5).probe(&[0, 4, 8], mem), Err(0));
        assert_eq!(WaitKind::AllGe(4).probe(&[0, 4, 8], mem), Ok(4));
        assert_eq!(WaitKind::AllGe(7).probe(&[], mem), Ok(7));
    }

    #[test]
    fn budget_message_mentions_ops_and_budget() {
        let e = SimError::OpBudgetExhausted { ops: 123, budget: 100 };
        let s = e.to_string();
        assert!(s.contains("123"), "{s}");
        assert!(s.contains("budget of 100 ops"), "{s}");
    }

    #[test]
    fn panic_message_forwards() {
        let e = SimError::ThreadPanic { tid: 7, message: "boom".into(), waiters: vec![] };
        assert!(e.to_string().contains("thread 7"));
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn panic_message_lists_blocked_peers() {
        let e = SimError::ThreadPanic {
            tid: 2,
            message: "boom".into(),
            waiters: vec![DeadlockWaiter {
                tid: 0,
                addr: 0x40,
                kind: WaitKind::Ge(1),
                last_value: 0,
                view: 0,
            }],
        };
        let s = e.to_string();
        assert!(s.contains("1 thread(s) were blocked"), "{s}");
        assert!(s.contains("t0 on addr 0x40 waiting for >= 1 (saw 0)"), "{s}");
    }
}
