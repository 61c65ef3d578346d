//! Serve's member script, searched on the simulator.
//!
//! An `armbar-serve` team is a packed [`CentralPhaser`] driven through the
//! phaser's claim-reporting calls, so the churn matrix already covers its
//! arrivals, evictions and proxies. What the churn scripts never do is
//! what a connection does when it drops *after* arriving: the leave
//! request races the boundary scan of the very epoch the slot already
//! counted in. This trial runs the script a team's connections follow —
//! every member arrives and waits for a few episodes, one member
//! disconnects right after arriving in a seeded epoch, and the rest close
//! one by one until the team drains — through the same search path as
//! the phaser checker, and audits it with the membership ledger oracles
//! plus the team's own end state: the boundaries commit epochs `1..=K+1`
//! exactly once each, the last of them retires the team, and nothing
//! commits after.

use std::sync::{Arc, Mutex};

use armbar_core::phaser::{phaser_mark, CentralPhaser, Claim, Phaser, PH_COMPLETED};
use armbar_core::BarrierError;
use armbar_simcoh::rng::SplitMix64;
use armbar_simcoh::{Arena, SimBuilder, SimThread};
use armbar_topology::{Platform, Topology};

use crate::checker::ViolationKind;
use crate::explorer::{ExplorerConfig, ExplorerPolicy};
use crate::phaser::check_membership_ledger;
use crate::search::{classify, search, TrialResult};

/// Connections per team (the serve default).
const SLOTS: usize = 4;
/// Steady episodes per trial before the team drains.
const EPISODES: u32 = 4;
/// Seeds searched per budget.
const SEEDS: u32 = 48;

/// How a connection leaves the team, given the epoch of an arrival it has
/// not waited out (0 if none).
type Leave = fn(&CentralPhaser, &SimThread, u32) -> Result<(u32, Claim), BarrierError>;

/// Serve's `Team::disconnect`.
fn serve_leave(
    ph: &CentralPhaser,
    ctx: &SimThread,
    arrived: u32,
) -> Result<(u32, Claim), BarrierError> {
    ph.deregister_claim(ctx, arrived)
}

/// A broken disconnect: it always leaves through a plain deregister, even
/// with its arrival in flight. That final arrival lands in whatever epoch
/// is open by then, and if the boundary it raced already applied the
/// leave request, it counts a slot that is no longer a member.
fn plain_leave(ph: &CentralPhaser, ctx: &SimThread, _: u32) -> Result<(u32, Claim), BarrierError> {
    ph.deregister_claim(ctx, 0)
}

/// One connection's script; `commits` collects the epochs its claims
/// committed.
fn member(
    ph: &CentralPhaser,
    ctx: &SimThread,
    leave: Leave,
    (leaver, at): (usize, u32),
    episodes: u32,
    commits: &Mutex<Vec<u32>>,
) -> Result<(), String> {
    let slot = ctx.tid();
    let book = |(e, claim): (u32, Claim)| {
        if claim == Claim::Committed {
            commits.lock().unwrap().push(e);
        }
        e
    };
    let mut in_flight = 0;
    for e in 1..=episodes {
        let got = book(ph.arrive_claim(ctx).map_err(|err| format!("t{slot}: {err}"))?);
        if got != e {
            return Err(format!("t{slot} arrived for epoch {got}, expected {e}"));
        }
        if slot == leaver && e == at {
            in_flight = e; // the connection drops with its arrival counted
            break;
        }
        ph.wait_epoch(ctx, e);
        ctx.mark(phaser_mark(PH_COMPLETED, slot, e));
    }
    book(leave(ph, ctx, in_flight).map_err(|err| format!("t{slot} leaving: {err}"))?);
    // Every connection is gone once the drain epoch releases.
    ph.wait_epoch(ctx, episodes + 1);
    let (epoch, members) = (ph.epoch(ctx), ph.members(ctx));
    if (epoch, members) != (episodes + 2, 0) {
        return Err(format!(
            "t{slot}: after the drain the team reads epoch {epoch} with {members} members"
        ));
    }
    Ok(())
}

/// One trial: the script under the explorer, then the oracles.
fn trial(
    topo: &Arc<Topology>,
    leave: Leave,
    explorer: ExplorerConfig,
    episodes: u32,
    seed: u64,
) -> TrialResult {
    let mut rng = SplitMix64::new(seed);
    let leaver = (rng.next_u64() % SLOTS as u64) as usize;
    let at = 1 + (rng.next_u64() % u64::from(episodes)) as u32;
    let mut arena = Arena::new();
    let ph = Arc::new(CentralPhaser::packed(&mut arena, SLOTS));
    let commits = Arc::new(Mutex::new(Vec::new()));
    let failures = Arc::new(Mutex::new(Vec::new()));
    let stats = SimBuilder::new(Arc::clone(topo), SLOTS)
        .seed(seed)
        .op_budget(2_000_000)
        .reserve_for(&arena)
        .schedule_policy(ExplorerPolicy::new(seed, explorer))
        .run({
            let (ph, commits, failures) = (ph, Arc::clone(&commits), Arc::clone(&failures));
            move |sim| {
                if let Err(why) = member(&ph, sim, leave, (leaver, at), episodes, &commits) {
                    failures.lock().unwrap().push(why);
                }
            }
        })
        .map_err(classify)?;
    if let Some(why) = failures.lock().unwrap().first() {
        return Err((ViolationKind::LostMember, why.clone()));
    }
    let mut commits = commits.lock().unwrap().clone();
    commits.sort_unstable();
    if commits != (1..=episodes + 1).collect::<Vec<_>>() {
        return Err((
            ViolationKind::LostMember,
            format!("boundaries committed epochs {commits:?}, expected 1..={}", episodes + 1),
        ));
    }
    check_membership_ledger(stats.marks(), SLOTS, SLOTS, episodes)?;
    Ok(stats.schedule_hash())
}

fn budgets() -> [ExplorerConfig; 2] {
    let sc = ExplorerConfig::default().with_budget(64);
    [sc, ExplorerConfig { reorder_prob: 0.8, ..sc }.with_reorder_budget(64)]
}

#[test]
fn serve_member_script_conforms_at_both_budgets() {
    let topo = Arc::new(Topology::preset(Platform::Kunpeng920));
    let run = |explorer, episodes, seed| trial(&topo, serve_leave, explorer, episodes, seed);
    for explorer in budgets() {
        let out = search(&run, explorer, EPISODES, SEEDS, 0x5E7E);
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert_eq!(out.trials, SEEDS);
        assert!(out.distinct_schedules > 1, "the explorer must vary the schedule");
    }
}

#[test]
fn a_plain_deregister_with_an_arrival_in_flight_is_caught() {
    let topo = Arc::new(Topology::preset(Platform::Kunpeng920));
    let run = |explorer, episodes, seed| trial(&topo, plain_leave, explorer, episodes, seed);
    for explorer in budgets() {
        let v = search(&run, explorer, EPISODES, SEEDS, 0x5E7E)
            .violation
            .expect("the search must expose a leave that races its own epoch's boundary");
        // The shrunk reproducer replays with the same verdict.
        let replay = run(
            explorer.with_budget(v.budget).with_reorder_budget(v.reorder_budget),
            v.episodes,
            v.seed,
        );
        assert_eq!(replay.err().map(|(k, _)| k), Some(v.kind));
    }
}
