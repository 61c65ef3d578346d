//! Phaser conformance: schedule search over register/deregister
//! interleavings with membership safety oracles.
//!
//! Where [`crate::checker`] audits *fixed-membership* barriers, this module
//! audits the dynamic-membership
//! [`Phaser`](armbar_core::phaser::Phaser)s: each trial runs a seeded
//! [`ChurnPlan`] script (a late join, an orderly leave, a crash eviction,
//! or a leave/rejoin flap) under the same perturbing
//! [`crate::ExplorerPolicy`] the fixed checker uses, then
//! reconstructs the per-epoch member set from the phaser event marks and
//! checks two oracles:
//!
//! * **no lost member** — every committed member's `PH_COMPLETED` epochs
//!   form a gapless, repeat-free run covering exactly its membership
//!   interval (`PH_JOINED`‥`PH_LEFT`/`PH_EVICTED`, or the whole run), and
//!   only a scripted deserter is ever evicted;
//! * **no phantom arrival** — no completion, leave, or eviction is ever
//!   recorded for a slot outside the committed membership.
//!
//! Each trial runs the churn team through `armbar_faults::run_churn_sim`,
//! the same harness `chaos --churn` uses, with the explorer installed.
//! Trials are pure functions of their seed (the script, the schedule, and
//! the stall-detection budget all derive from it), so every violation
//! ships with a deterministic reproducer, found and shrunk by the same
//! search path (`search.rs`) as the fixed checker's.

use std::sync::Arc;

use armbar_core::phaser::{
    decode_phaser_mark, PH_COMPLETED, PH_EVICTED, PH_JOINED, PH_LEFT, PH_MARK_EPOCH_MAX,
};
use armbar_core::{AlgorithmId, BarrierError};
use armbar_faults::harness::CHURN_SIM_MAX_POLLS;
use armbar_faults::{
    build_phaser, run_churn_sim, ChurnPlan, ChurnVerdict, PhaserFactory, Scenario,
};
use armbar_simcoh::stats::Mark;
use armbar_sweep::{Job, SweepPool};
use armbar_topology::{Platform, Topology};

use crate::checker::{ConformCell, ViolationKind};
use crate::explorer::{ExplorerConfig, ExplorerPolicy};
use crate::search::{classify, search, TrialResult};

/// What to check: platforms × phaser algorithms × churn scenarios, each
/// cell searched over `seeds` perturbed schedules.
#[derive(Debug, Clone)]
pub struct PhaserConformConfig {
    /// Modeled machines to check on.
    pub platforms: Vec<Platform>,
    /// Phaser algorithms under audit (fixed-membership algorithms cannot
    /// run churn scripts and are rejected per-trial).
    pub algorithms: Vec<AlgorithmId>,
    /// Churn scripts to search under (the register/deregister
    /// interleavings; see [`Scenario::CHURN`]).
    pub scenarios: Vec<Scenario>,
    /// Participating slots per trial (clamped to the platform's cores).
    pub threads: usize,
    /// Steady-state episodes per trial (the script's epochs fall inside).
    pub episodes: u32,
    /// Seeded schedules searched per (platform, algorithm, scenario) cell.
    pub seeds: u32,
    /// Master seed; trial seeds derive from it.
    pub base_seed: u64,
    /// Exploration tuning (perturbation probabilities and budget).
    pub explorer: ExplorerConfig,
    /// Engine op budget per trial (perturbation delays count against it).
    pub op_budget: u64,
    /// Stall-detection budget in failed polls (see
    /// [`armbar_core::RobustConfig::max_polls`]). Must stay far above any
    /// healthy wait *including* injected delays, or the explorer provokes
    /// wrongful evictions of merely-slow members.
    pub max_polls: u64,
}

impl Default for PhaserConformConfig {
    fn default() -> Self {
        Self {
            platforms: vec![Platform::Kunpeng920],
            algorithms: AlgorithmId::PHASERS.to_vec(),
            scenarios: Scenario::CHURN.to_vec(),
            threads: 8,
            episodes: 5,
            seeds: 800,
            base_seed: 0xFA5E,
            explorer: ExplorerConfig::default(),
            op_budget: 4_000_000,
            max_polls: CHURN_SIM_MAX_POLLS,
        }
    }
}

/// Runs one perturbed churn trial of the phaser `build` makes — the
/// testing seam for deliberately broken phasers.
pub(crate) fn run_phaser_trial(
    topo: &Arc<Topology>,
    build: PhaserFactory<'_>,
    scenario: Scenario,
    cfg: &PhaserConformConfig,
    explorer: ExplorerConfig,
    episodes: u32,
    seed: u64,
) -> TrialResult {
    let p = cfg.threads.min(topo.num_cores()).max(2);
    let plan = ChurnPlan::scenario(scenario, seed, p, episodes);
    let (stats, verdicts) = run_churn_sim(topo, &plan, episodes, build, cfg.max_polls, |sim| {
        sim.op_budget(cfg.op_budget).schedule_policy(ExplorerPolicy::new(seed, explorer))
    })
    .expect("phaser conformance requires a phaser algorithm")
    .map_err(classify)?;
    check_verdicts(&plan, &verdicts)?;
    check_membership_ledger(stats.marks(), p, plan.initial_members(), episodes)
        .map(|()| stats.schedule_hash())
}

/// Script-level oracle: every thread must end the way its script says —
/// only the scripted deserter may collect an eviction report, and nobody
/// may time out or observe poison.
fn check_verdicts(
    plan: &ChurnPlan,
    verdicts: &[ChurnVerdict],
) -> Result<(), (ViolationKind, String)> {
    let mut evicted: Vec<usize> = Vec::new();
    for (slot, v) in verdicts.iter().enumerate() {
        match v {
            ChurnVerdict::Done => {}
            ChurnVerdict::Evicted { .. } => evicted.push(slot),
            ChurnVerdict::Unexpected(why) => {
                return Err((ViolationKind::PhantomArrival, format!("t{slot}: {why}")))
            }
            ChurnVerdict::Error(BarrierError::Evicted { episode, .. }) => {
                return Err((
                    ViolationKind::LostMember,
                    format!("t{slot} evicted at epoch {episode} without a scripted desertion"),
                ))
            }
            ChurnVerdict::Error(e) => {
                return Err((ViolationKind::LostWakeup, format!("t{slot}: {e}")))
            }
        }
    }
    let expected: &[usize] =
        if plan.kind() == Scenario::CrashEvict { &[plan.victim()] } else { &[] };
    if evicted != expected {
        return Err((
            ViolationKind::LostMember,
            format!("eviction reports for slots {evicted:?}, script expects {expected:?}"),
        ));
    }
    Ok(())
}

/// The membership oracles, checked over the run's phaser event marks.
///
/// Replays each slot's events in virtual-time order against the committed
/// membership the marks themselves declare (`slot < initial` members from
/// epoch 1; `PH_JOINED` starts an interval at its acked epoch;
/// `PH_LEFT`/`PH_EVICTED` end it). A slot's completions must hit every
/// epoch of its interval exactly once and in order (**no lost member**),
/// and no event may fall outside an interval (**no phantom arrival**).
pub fn check_membership_ledger(
    marks: &[Mark],
    threads: usize,
    initial: usize,
    episodes: u32,
) -> Result<(), (ViolationKind, String)> {
    // The mark's 12-bit epoch field saturates at `PH_MARK_EPOCH_MAX`
    // rather than aliasing; a horizon at or past the ceiling would make
    // saturated marks indistinguishable from real completions of the cap
    // epoch, so the replay refuses outright instead of mis-judging.
    assert!(
        episodes < PH_MARK_EPOCH_MAX,
        "episode horizon {episodes} would saturate the phaser mark epoch field (max {})",
        PH_MARK_EPOCH_MAX - 1
    );
    // Events grouped by the mark's *slot field*, not its recording tid:
    // every kind is self-reported except `PH_EVICTED`, which the evictor
    // emits on the victim's behalf. The global mark slice is in virtual
    // commit order, so each group stays chronological.
    let mut events: Vec<Vec<(u32, u32)>> = vec![Vec::new(); threads];
    for m in marks {
        if let Some((kind, slot, epoch)) = decode_phaser_mark(m.label) {
            if slot >= threads {
                return Err((
                    ViolationKind::PhantomArrival,
                    format!("phaser mark for slot {slot} beyond the team of {threads}"),
                ));
            }
            events[slot].push((kind, epoch));
        }
    }
    for (slot, evs) in events.iter().enumerate() {
        let mut member = slot < initial;
        // The next epoch this slot owes the team a completion for.
        let mut due: u32 = 1;
        for &(kind, epoch) in evs {
            match kind {
                PH_JOINED => {
                    if member {
                        return Err((
                            ViolationKind::PhantomArrival,
                            format!("t{slot} joined at epoch {epoch} while already a member"),
                        ));
                    }
                    member = true;
                    due = epoch;
                }
                PH_COMPLETED => {
                    if !member {
                        return Err((
                            ViolationKind::PhantomArrival,
                            format!("t{slot} completed epoch {epoch} while not a member"),
                        ));
                    }
                    if epoch != due {
                        return Err((
                            ViolationKind::LostMember,
                            format!("t{slot} completed epoch {epoch}, expected {due}"),
                        ));
                    }
                    due += 1;
                }
                PH_LEFT => {
                    if !member {
                        return Err((
                            ViolationKind::PhantomArrival,
                            format!("t{slot} left at epoch {epoch} while not a member"),
                        ));
                    }
                    if epoch != due {
                        return Err((
                            ViolationKind::LostMember,
                            format!(
                                "t{slot} left at epoch {epoch} with completions through {}",
                                due - 1
                            ),
                        ));
                    }
                    member = false;
                }
                PH_EVICTED => {
                    if !member {
                        return Err((
                            ViolationKind::PhantomArrival,
                            format!("t{slot} evicted at epoch {epoch} while not a member"),
                        ));
                    }
                    if epoch != due {
                        return Err((
                            ViolationKind::LostMember,
                            format!(
                                "t{slot} evicted at epoch {epoch} with completions through {}",
                                due - 1
                            ),
                        ));
                    }
                    member = false;
                }
                other => {
                    return Err((
                        ViolationKind::PhantomArrival,
                        format!("t{slot}: unknown phaser event kind {other}"),
                    ))
                }
            }
        }
        // A slot still in the team at the end must have completed every
        // remaining epoch (a join acked past the last epoch owes nothing).
        if member && due <= episodes {
            return Err((
                ViolationKind::LostMember,
                format!(
                    "t{slot} is still a member but completed only through epoch {} of {episodes}",
                    due - 1
                ),
            ));
        }
    }
    Ok(())
}

/// Searches one (platform, algorithm, scenario) cell: up to `cfg.seeds`
/// trials, stopping at the first violation (shrunk before reporting).
fn run_phaser_cell(
    platform: Platform,
    algorithm: AlgorithmId,
    scenario: Scenario,
    cfg: &PhaserConformConfig,
) -> ConformCell {
    let topo = Arc::new(Topology::preset(platform));
    let threads = cfg.threads.min(topo.num_cores()).max(2);
    let build: PhaserFactory<'_> =
        &|arena, cap, initial, t| build_phaser(algorithm, arena, cap, initial, t);
    let trial = |explorer, episodes, seed| {
        run_phaser_trial(&topo, build, scenario, cfg, explorer, episodes, seed)
    };
    let outcome = search(&trial, cfg.explorer, cfg.episodes, cfg.seeds, cfg.base_seed);
    ConformCell::new(platform, algorithm, Some(scenario), threads, outcome)
}

/// Runs the phaser conformance matrix on `pool`. Cells are pure functions
/// of the config, fan out as parallel jobs, and collect in submission
/// order — the rendered table is byte-identical at any worker count.
pub fn phaser_conform_matrix_on(pool: &SweepPool, cfg: &PhaserConformConfig) -> Vec<ConformCell> {
    let mut jobs: Vec<Job<'_, ConformCell>> = Vec::new();
    for &platform in &cfg.platforms {
        for &algorithm in &cfg.algorithms {
            for &scenario in &cfg.scenarios {
                jobs.push(Job::parallel(move || {
                    run_phaser_cell(platform, algorithm, scenario, cfg)
                }));
            }
        }
    }
    pool.run(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::render_csv;
    use armbar_core::phaser::{phaser_mark, Claim, Phaser};
    use armbar_core::{CentralPhaser, MemCtx};

    fn quick_cfg() -> PhaserConformConfig {
        PhaserConformConfig { threads: 4, episodes: 4, seeds: 12, ..PhaserConformConfig::default() }
    }

    #[test]
    fn weak_churn_interleavings_conform_for_both_phasers() {
        // The weak-memory search composed with churn: the phasers' fully
        // ordered membership/arrival protocol must survive reordered
        // schedules on every churn scenario.
        let cfg = PhaserConformConfig {
            explorer: ExplorerConfig { reorder_prob: 0.8, ..ExplorerConfig::default() }
                .with_reorder_budget(16),
            ..quick_cfg()
        };
        let cells = phaser_conform_matrix_on(&SweepPool::new(2), &cfg);
        for c in &cells {
            assert!(
                c.violations.is_empty(),
                "{} under {}: {}",
                c.algorithm.label(),
                c.scenario.map_or("", Scenario::label),
                c.detail()
            );
        }
    }

    #[test]
    fn churn_interleavings_conform_for_both_phasers() {
        let cells = phaser_conform_matrix_on(&SweepPool::new(2), &quick_cfg());
        assert_eq!(cells.len(), AlgorithmId::PHASERS.len() * Scenario::CHURN.len());
        for c in &cells {
            assert!(
                c.violations.is_empty(),
                "{} under {}: {}",
                c.algorithm.label(),
                c.scenario.map_or("", Scenario::label),
                c.detail()
            );
            assert_eq!(c.trials, 12);
        }
    }

    #[test]
    fn phaser_matrix_is_identical_at_any_worker_count() {
        let cfg = quick_cfg();
        let serial = phaser_conform_matrix_on(&SweepPool::new(1), &cfg);
        let parallel = phaser_conform_matrix_on(&SweepPool::new(4), &cfg);
        assert_eq!(render_csv(&serial, &cfg), render_csv(&parallel, &cfg));
    }

    fn mk(kind: u32, slot: usize, epoch: u32, t: f64) -> Mark {
        Mark { tid: slot, label: phaser_mark(kind, slot, epoch), time_ns: t }
    }

    #[test]
    fn ledger_accepts_a_legal_flap() {
        // Slot 1 completes 1, leaves at 2, rejoins at 4, completes 4..=5;
        // slot 0 is steady throughout.
        let marks = [
            mk(PH_COMPLETED, 0, 1, 0.0),
            mk(PH_COMPLETED, 1, 1, 1.0),
            mk(PH_LEFT, 1, 2, 2.0),
            mk(PH_COMPLETED, 0, 2, 3.0),
            mk(PH_COMPLETED, 0, 3, 4.0),
            mk(PH_JOINED, 1, 4, 5.0),
            mk(PH_COMPLETED, 0, 4, 6.0),
            mk(PH_COMPLETED, 1, 4, 7.0),
            mk(PH_COMPLETED, 0, 5, 8.0),
            mk(PH_COMPLETED, 1, 5, 9.0),
        ];
        assert!(check_membership_ledger(&marks, 2, 2, 5).is_ok());
    }

    #[test]
    fn ledger_rejects_a_gapped_completion_run() {
        let marks = [
            mk(PH_COMPLETED, 0, 1, 0.0),
            mk(PH_COMPLETED, 0, 3, 1.0), // skipped epoch 2
        ];
        let (kind, detail) = check_membership_ledger(&marks, 1, 1, 3).unwrap_err();
        assert_eq!(kind, ViolationKind::LostMember, "{detail}");
    }

    #[test]
    fn ledger_rejects_a_phantom_completion() {
        // Slot 1 never joined (initial membership is slot 0 only).
        let marks = [mk(PH_COMPLETED, 0, 1, 0.0), mk(PH_COMPLETED, 1, 1, 1.0)];
        let (kind, detail) = check_membership_ledger(&marks, 2, 1, 1).unwrap_err();
        assert_eq!(kind, ViolationKind::PhantomArrival, "{detail}");
    }

    #[test]
    fn ledger_rejects_a_missing_tail() {
        // A steady member that stops completing before the last epoch.
        let marks = [mk(PH_COMPLETED, 0, 1, 0.0)];
        let (kind, detail) = check_membership_ledger(&marks, 1, 1, 3).unwrap_err();
        assert_eq!(kind, ViolationKind::LostMember, "{detail}");
    }

    #[test]
    fn ledger_rejects_activity_after_a_leave() {
        let marks = [
            mk(PH_COMPLETED, 0, 1, 0.0),
            mk(PH_LEFT, 0, 2, 1.0),
            mk(PH_EVICTED, 0, 3, 2.0), // evicting a slot that already left
        ];
        let (kind, detail) = check_membership_ledger(&marks, 1, 1, 3).unwrap_err();
        assert_eq!(kind, ViolationKind::PhantomArrival, "{detail}");
    }

    /// A phaser whose `deregister` *lies*: it reports an orderly leave
    /// (emitting `PH_LEFT` and arriving one last time) but never files the
    /// `LEAVE_REQ`, so the membership word still counts the slot. The next
    /// epoch stalls on a "member" that will never arrive again, the
    /// survivors evict it, and the ledger shows an eviction of a slot that
    /// already left — the membership oracles must catch this.
    struct LyingLeaver {
        inner: CentralPhaser,
    }

    impl Phaser for LyingLeaver {
        fn request_join(&self, ctx: &dyn MemCtx) -> u32 {
            self.inner.request_join(ctx)
        }
        fn await_join(&self, ctx: &dyn MemCtx, token: u32) -> u32 {
            self.inner.await_join(ctx, token)
        }
        fn arrive(&self, ctx: &dyn MemCtx) -> Result<u32, BarrierError> {
            self.inner.arrive(ctx)
        }
        fn wait_epoch(&self, ctx: &dyn MemCtx, epoch: u32) {
            self.inner.wait_epoch(ctx, epoch)
        }
        fn deregister(&self, ctx: &dyn MemCtx) -> Result<u32, BarrierError> {
            let e = self.inner.arrive(ctx)?; // the bug: no LEAVE_REQ store
            ctx.mark(phaser_mark(PH_LEFT, ctx.tid(), e));
            Ok(e)
        }
        fn find_victim(&self, ctx: &dyn MemCtx, epoch: u32) -> Option<usize> {
            self.inner.find_victim(ctx, epoch)
        }
        fn evict(&self, ctx: &dyn MemCtx, victim: usize, epoch: u32) -> Option<Claim> {
            self.inner.evict(ctx, victim, epoch)
        }
        fn epoch(&self, ctx: &dyn MemCtx) -> u32 {
            self.inner.epoch(ctx)
        }
        fn members(&self, ctx: &dyn MemCtx) -> u32 {
            self.inner.members(ctx)
        }
        fn name(&self) -> &str {
            "LYING-LEAVER"
        }
    }

    #[test]
    fn broken_phaser_is_caught_shrunk_and_replayable() {
        let topo = Arc::new(Topology::preset(Platform::Kunpeng920));
        let cfg = quick_cfg();
        let build: PhaserFactory<'_> = &|arena, cap, initial, t| {
            Some(Box::new(LyingLeaver { inner: CentralPhaser::new(arena, cap, initial, t) }))
        };
        let trial = |explorer, episodes, seed| {
            run_phaser_trial(&topo, build, Scenario::Leave, &cfg, explorer, episodes, seed)
        };
        let out = search(&trial, cfg.explorer, cfg.episodes, 50, 0xBAD);
        let v = out.violation.expect("the churn search must expose the lying deregister");
        let found = trial(cfg.explorer, cfg.episodes, v.seed)
            .expect_err("the search stopped at a failing seed");
        assert!(
            matches!(found.0, ViolationKind::LostMember | ViolationKind::PhantomArrival),
            "{}: {}",
            found.0,
            found.1
        );
        // The shrunk reproducer replays deterministically with a
        // membership-oracle verdict.
        assert!(v.budget <= cfg.explorer.budget && v.episodes <= cfg.episodes);
        let replay = trial(
            cfg.explorer.with_budget(v.budget).with_reorder_budget(v.reorder_budget),
            v.episodes,
            v.seed,
        );
        assert_eq!(replay.err().map(|(k, _)| k), Some(v.kind));
    }
}
