//! The one search path every conformance check runs through.
//!
//! A *trial* is a closure from `(explorer, episodes, seed)` to a
//! [`TrialResult`]: the fixed-barrier checker, the phaser checker and the
//! fence probe differ only in the trial they hand over. Everything else
//! exists once, here:
//!
//! * [`search`] — the seed loop: runs trials on successive
//!   [`trial_seed`]s, counts distinct schedule fingerprints, and stops at
//!   the first violation;
//! * [`shrink`] — minimizes that violation's reproducer: the smallest
//!   weak-memory reordering budget first, then the smallest perturbation
//!   budget, then the fewest episodes;
//! * [`classify`] — maps an aborted simulation ([`SimError`]) onto the
//!   violated property.
//!
//! Trials are pure functions of their inputs, so every probe is
//! deterministic and the reported reproducer replays exactly.

use std::collections::HashSet;

use armbar_simcoh::SimError;

use crate::checker::{Violation, ViolationKind};
use crate::explorer::ExplorerConfig;

/// Outcome of one trial: the schedule fingerprint, or a classified
/// violation.
pub(crate) type TrialResult = Result<u64, (ViolationKind, String)>;

/// One trial of a search: `(explorer, episodes, seed)` → [`TrialResult`].
pub(crate) type Trial<'a> = &'a dyn Fn(ExplorerConfig, u32, u64) -> TrialResult;

/// The i-th trial seed of a search (golden-ratio stride keeps neighboring
/// trials decorrelated while staying replayable from `base` alone).
pub fn trial_seed(base: u64, i: u32) -> u64 {
    base.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1
}

/// What one search found.
#[derive(Debug, Clone)]
pub(crate) struct SearchOutcome {
    /// Trials actually run (the search stops at the first violation).
    pub trials: u32,
    /// Distinct schedule fingerprints among the passing trials.
    pub distinct_schedules: usize,
    /// The first violation, shrunk.
    pub violation: Option<Violation>,
}

/// The seed loop: up to `seeds` trials at `explorer` and `episodes` on the
/// seeds derived from `base_seed`, stopping at the first violation, which
/// is shrunk before it is returned.
pub(crate) fn search(
    trial: Trial<'_>,
    explorer: ExplorerConfig,
    episodes: u32,
    seeds: u32,
    base_seed: u64,
) -> SearchOutcome {
    let mut distinct: HashSet<u64> = HashSet::new();
    for i in 0..seeds {
        let seed = trial_seed(base_seed, i);
        match trial(explorer, episodes, seed) {
            Ok(hash) => {
                distinct.insert(hash);
            }
            Err(found) => {
                return SearchOutcome {
                    trials: i + 1,
                    distinct_schedules: distinct.len(),
                    violation: Some(shrink(trial, explorer, episodes, seed, found)),
                }
            }
        }
    }
    SearchOutcome { trials: seeds, distinct_schedules: distinct.len(), violation: None }
}

/// Powers-of-two shrink ladder below `limit`: 0, 1, 2, 4, … .
fn shrink_candidates(limit: u32) -> Vec<u32> {
    let mut candidates: Vec<u32> = vec![0];
    let mut b = 1;
    while b < limit {
        candidates.push(b);
        b *= 2;
    }
    candidates
}

/// Minimizes a trial that failed at `seed`: the smallest weak-memory
/// reordering budget first (so a reproducer at rbudget 0 is provably a
/// scheduling bug, not a memory-ordering bug), then the smallest
/// perturbation budget (0, 1, 2, 4, …) that still violates, then the
/// fewest episodes. Each rung keeps the knobs the earlier rungs chose; the
/// reported kind and detail are those of the last failing probe.
fn shrink(
    trial: Trial<'_>,
    explorer: ExplorerConfig,
    episodes: u32,
    seed: u64,
    found: (ViolationKind, String),
) -> Violation {
    let (kind, detail) = found;
    let mut v = Violation {
        kind,
        detail,
        seed,
        budget: explorer.budget,
        reorder_budget: explorer.reorder_budget,
        episodes,
    };
    let probe = |budget: u32, reorder_budget: u32, episodes: u32| {
        trial(explorer.with_budget(budget).with_reorder_budget(reorder_budget), episodes, seed)
            .err()
    };
    for rb in shrink_candidates(explorer.reorder_budget) {
        if let Some((kind, detail)) = probe(v.budget, rb, v.episodes) {
            (v.reorder_budget, v.kind, v.detail) = (rb, kind, detail);
            break;
        }
    }
    for b in shrink_candidates(explorer.budget) {
        if let Some((kind, detail)) = probe(b, v.reorder_budget, v.episodes) {
            (v.budget, v.kind, v.detail) = (b, kind, detail);
            break;
        }
    }
    for e in 1..episodes {
        if let Some((kind, detail)) = probe(v.budget, v.reorder_budget, e) {
            (v.episodes, v.kind, v.detail) = (e, kind, detail);
            break;
        }
    }
    v
}

/// Maps an aborted simulation onto the property it violated: a deadlock
/// is a lost wake-up, an exhausted op budget a live-lock, and a panic is
/// an early exit or epoch skew when the episode oracle raised it.
pub(crate) fn classify(err: SimError) -> (ViolationKind, String) {
    match err {
        SimError::Deadlock { waiters } => (
            ViolationKind::LostWakeup,
            match waiters.first() {
                Some(w) => format!("{} blocked; first: {w}", waiters.len()),
                None => "all threads blocked".to_string(),
            },
        ),
        SimError::ThreadPanic { tid, message, .. } => {
            let kind = if message.contains("early exit") {
                ViolationKind::EarlyExit
            } else if message.contains("epoch skew") {
                ViolationKind::EpochSkew
            } else {
                ViolationKind::Panic
            };
            (kind, format!("t{tid}: {message}"))
        }
        SimError::OpBudgetExhausted { ops, budget } => {
            (ViolationKind::Livelock, format!("{ops} ops exceeded budget {budget}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// A fake trial that fails only at reorder budget ≥ 4, perturbation
    /// budget ≥ 2 and episodes ≥ 2, recording every probe.
    fn ladder_trial(
        probes: &RefCell<Vec<(u32, u32, u32)>>,
    ) -> impl Fn(ExplorerConfig, u32, u64) -> TrialResult + '_ {
        move |explorer, episodes, _seed| {
            probes.borrow_mut().push((explorer.reorder_budget, explorer.budget, episodes));
            if explorer.reorder_budget >= 4 && explorer.budget >= 2 && episodes >= 2 {
                Err((ViolationKind::EarlyExit, format!("rb {}", explorer.reorder_budget)))
            } else {
                Ok(0)
            }
        }
    }

    #[test]
    fn shrink_finds_the_smallest_failing_knobs_reorder_budget_first() {
        let probes = RefCell::new(Vec::new());
        let trial = ladder_trial(&probes);
        let explorer = ExplorerConfig::default().with_budget(64).with_reorder_budget(64);
        let v = shrink(&trial, explorer, 5, 0xF00D, (ViolationKind::Panic, "found".into()));
        assert_eq!((v.reorder_budget, v.budget, v.episodes), (4, 2, 2), "{v:?}");
        assert_eq!((v.kind, v.detail.as_str(), v.seed), (ViolationKind::EarlyExit, "rb 4", 0xF00D));
        let probes = probes.take();
        // The reorder budget is probed first, at the full budget and
        // episode count: 0, 1, 2, then 4 fails.
        assert_eq!(&probes[..4], &[(0, 64, 5), (1, 64, 5), (2, 64, 5), (4, 64, 5)]);
        // Then the perturbation budget at the chosen reorder budget, then
        // the episodes at both chosen budgets.
        assert_eq!(&probes[4..], &[(4, 0, 5), (4, 1, 5), (4, 2, 5), (4, 2, 1), (4, 2, 2)]);
    }

    #[test]
    fn seed_loop_stops_at_the_first_failing_seed() {
        let fail_at = trial_seed(0xBA5E, 3);
        let trial = |explorer: ExplorerConfig, episodes: u32, seed: u64| {
            if seed == fail_at && explorer.budget > 0 && episodes > 1 {
                Err((ViolationKind::LostWakeup, "stuck".to_string()))
            } else {
                Ok(seed % 2)
            }
        };
        let out = search(&trial, ExplorerConfig::default(), 2, 10, 0xBA5E);
        assert_eq!(out.trials, 4, "seeds 0..=3 ran, 4.. did not");
        assert_eq!(out.distinct_schedules, 1, "every trial seed is odd");
        let v = out.violation.expect("seed 3 fails");
        assert_eq!(
            (v.seed, v.kind, v.budget, v.episodes),
            (fail_at, ViolationKind::LostWakeup, 1, 2)
        );
        let clean = search(&trial, ExplorerConfig::default(), 2, 3, 0xBA5E);
        assert_eq!((clean.trials, clean.violation.is_none()), (3, true));
    }

    #[test]
    fn trial_seeds_are_distinct_and_replayable() {
        let mut seen = HashSet::new();
        for i in 0..1000 {
            assert!(seen.insert(trial_seed(0xC0F0, i)));
        }
        assert_eq!(trial_seed(1, 7), trial_seed(1, 7));
    }
}
