//! Pins the explored schedules themselves, not just how many are distinct.
//!
//! The conform goldens count distinct schedule fingerprints per cell, so a
//! change to the policy path that reorders decisions while keeping trials
//! distinct would pass them. This test folds every `ExplorerPolicy`
//! trial's schedule hash, per-thread virtual times and op counts into one
//! FNV-1a digest and compares it with a committed constant. The trials
//! cover sequentially consistent exploration at perturbation budget 64,
//! weak-memory exploration at reorder budget 64 on every barrier and ARM
//! machine, and one phaser churn cell. A second digest pins PH-CTR under
//! all four churn scenarios at the same two budgets. A policy that breaks
//! time ties by the highest tid instead of the lowest must move both.

use std::sync::Arc;

use armbar_conformance::{trial_seed, ExplorerConfig, ExplorerPolicy};
use armbar_core::{AlgorithmId, Barrier, EpisodeOracle};
use armbar_faults::harness::CHURN_SIM_MAX_POLLS;
use armbar_faults::{build_phaser, run_churn_sim, ChurnPlan, Scenario};
use armbar_simcoh::schedule::{ReadyOp, ScheduleDecision, SchedulePolicy, WeakDecision, WeakOp};
use armbar_simcoh::stats::{OpKind, RunStats};
use armbar_simcoh::{Arena, SimBuilder, SimError};
use armbar_topology::{Platform, Topology};

/// The digest of [`trials`] under [`ExplorerPolicy`]. It moved once, on
/// purpose: PH-TREE's `arrive` now loads the membership word before the
/// eviction report, as PH-CTR's does (it was 0xC996_2B18_C20A_4EB4).
const PINNED: u64 = 0x71F5_A9AD_E317_8B0F;
/// The digest of [`central_trials`] under [`ExplorerPolicy`]. It moved
/// once, on purpose: PH-CTR's `arrive` now loads the membership word
/// before the eviction report (it was 0xFEFD_7296_7D10_1F15 before).
const PINNED_CENTRAL: u64 = 0x18A3_8E7E_B6BE_F78D;

const SEEDS: u32 = 6;
const PHASER_SEEDS: u32 = 8;

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn run(&mut self, result: Result<RunStats, SimError>) {
        match result {
            Ok(stats) => {
                self.word(stats.schedule_hash());
                for t in stats.per_thread_time_ns() {
                    self.word(t.to_bits());
                }
                for kind in OpKind::ALL {
                    self.word(stats.ops(kind));
                }
            }
            Err(e) => e.to_string().bytes().for_each(|b| self.word(u64::from(b))),
        }
    }
}

/// Runs every pinned trial with the policy `make` builds from the trial
/// seed and explorer configuration, folding each run into one digest.
fn trials<P: SchedulePolicy + 'static>(make: impl Fn(u64, ExplorerConfig) -> P) -> u64 {
    let mut fnv = Fnv(0xCBF2_9CE4_8422_2325);
    let sc = ExplorerConfig::default().with_budget(64);
    let weak = ExplorerConfig { reorder_prob: 0.8, ..sc }.with_reorder_budget(64);
    let fixed = AlgorithmId::ALL.into_iter().chain(AlgorithmId::CONTENDERS);
    for platform in Platform::ARM {
        let topo = Arc::new(Topology::preset(platform));
        for id in fixed.clone() {
            for explorer in [sc, weak] {
                for i in 0..SEEDS {
                    let seed = trial_seed(0xC0F0, i);
                    let mut arena = Arena::new();
                    let barrier: Arc<dyn Barrier> = Arc::from(id.build(&mut arena, 8, &topo));
                    let oracle = EpisodeOracle::new(&mut arena, 8, topo.cacheline_bytes());
                    fnv.run(
                        SimBuilder::new(Arc::clone(&topo), 8)
                            .seed(seed)
                            .op_budget(4_000_000)
                            .reserve_for(&arena)
                            .schedule_policy(make(seed, explorer))
                            .run(move |sim| {
                                for e in 1..=2 {
                                    barrier.wait_conformed(sim, &oracle, e);
                                }
                            }),
                    );
                }
            }
        }
    }
    let topo = Arc::new(Topology::preset(Platform::Kunpeng920));
    for i in 0..PHASER_SEEDS {
        let seed = trial_seed(0xFA5E, i);
        let plan = ChurnPlan::scenario(Scenario::Join, seed, 4, 3);
        let build = &|arena: &mut Arena, cap, initial, t: &Topology| {
            build_phaser(AlgorithmId::PhaserTree, arena, cap, initial, t)
        };
        let run = run_churn_sim(&topo, &plan, 3, build, CHURN_SIM_MAX_POLLS, |sim| {
            sim.op_budget(4_000_000).schedule_policy(make(seed, sc))
        })
        .expect("a phaser algorithm");
        fnv.run(run.map(|(stats, _)| stats));
    }
    fnv.0
}

/// PH-CTR under every churn scenario, at SC budget 64 and weak reorder
/// budget 64: the phaser whose slot machinery the serve teams run on.
fn central_trials<P: SchedulePolicy + 'static>(make: impl Fn(u64, ExplorerConfig) -> P) -> u64 {
    let mut fnv = Fnv(0xCBF2_9CE4_8422_2325);
    let sc = ExplorerConfig::default().with_budget(64);
    let weak = ExplorerConfig { reorder_prob: 0.8, ..sc }.with_reorder_budget(64);
    let topo = Arc::new(Topology::preset(Platform::Kunpeng920));
    let build = &|arena: &mut Arena, cap, initial, t: &Topology| {
        build_phaser(AlgorithmId::PhaserCentral, arena, cap, initial, t)
    };
    for scenario in Scenario::CHURN {
        for explorer in [sc, weak] {
            for i in 0..PHASER_SEEDS {
                let seed = trial_seed(0xC7A1, i);
                let plan = ChurnPlan::scenario(scenario, seed, 4, 5);
                let run = run_churn_sim(&topo, &plan, 5, build, CHURN_SIM_MAX_POLLS, |sim| {
                    sim.op_budget(4_000_000).schedule_policy(make(seed, explorer))
                })
                .expect("a phaser algorithm");
                fnv.run(run.map(|(stats, _)| stats));
            }
        }
    }
    fnv.0
}

#[test]
fn central_phaser_churn_trials_match_the_pinned_digest() {
    assert_eq!(central_trials(ExplorerPolicy::new), PINNED_CENTRAL, "PH-CTR schedules moved");
}

#[test]
fn explorer_trials_match_the_pinned_digest() {
    assert_eq!(trials(ExplorerPolicy::new), PINNED, "explored schedules moved");
}

/// The explorer with every pick moved to the highest tid among the ops
/// sharing the picked op's virtual time.
struct HighTidTies(ExplorerPolicy);

impl SchedulePolicy for HighTidTies {
    fn pick(&mut self, ready: &[ReadyOp]) -> ScheduleDecision {
        match self.0.pick(ready) {
            ScheduleDecision::Run(i) => {
                let t = ready[i].time_ns;
                let tied = ready.iter().enumerate().filter(|(_, r)| r.time_ns == t);
                ScheduleDecision::Run(tied.max_by_key(|(_, r)| r.tid).map_or(i, |(j, _)| j))
            }
            other => other,
        }
    }

    fn weak(&mut self, op: &WeakOp) -> WeakDecision {
        self.0.weak(op)
    }
}

#[test]
fn breaking_ties_by_the_highest_tid_moves_the_digest() {
    assert_ne!(trials(|seed, cfg| HighTidTies(ExplorerPolicy::new(seed, cfg))), PINNED);
    assert_ne!(
        central_trials(|seed, cfg| HighTidTies(ExplorerPolicy::new(seed, cfg))),
        PINNED_CENTRAL
    );
}
