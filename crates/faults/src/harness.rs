//! The chaos matrix: algorithms × platforms × scenarios → survival table.
//!
//! Each cell runs one barrier under one seeded [`Scenario`] and classifies
//! the result:
//!
//! * **simulator cells** are fully deterministic — faults surface as typed
//!   [`SimError`]s (deadlock, panic, live-lock) and the same seed replays
//!   the same table bit-for-bit;
//! * **host cells** run real threads under [`RobustBarrier`], so a fault
//!   can never hang the harness past the configured deadline — it surfaces
//!   as a typed `BarrierError` instead. Survivable scenarios classify
//!   deterministically; for lost wakeups the *detection* is deterministic
//!   on the simulator while the host guarantees bounded-time detection
//!   (which error each peer reports depends on thread interleaving, so the
//!   table collapses them into one status).
//!
//! Simulator cells run through `SimBuilder::run` and therefore on the
//! ambient `armbar_simcoh::SimTeam`: worker threads are reused across
//! cells, and an episode that dies of a deadlock abort or an injected
//! panic cannot poison the next one — the team catches both per episode
//! (covered by `armbar_simcoh::team` tests).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use armbar_core::{
    AlgorithmId, Barrier, BarrierError, CentralPhaser, HostMem, MemCtx, Phaser, RobustBarrier,
    RobustConfig, RobustPhaser, SpinPolicy, TreePhaser,
};
use armbar_simcoh::{Addr, Arena, RunStats, SimBuilder, SimError};
use armbar_sweep::{Job, SweepPool};
use armbar_topology::{Platform, Topology};

use crate::plan::{ChurnPlan, FaultPlan, Scenario};
use crate::FaultyCtx;

/// Which execution backend a chaos cell ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The deterministic coherence simulator.
    Sim,
    /// Real threads on host atomics, deadline-guarded by `RobustBarrier`.
    Host,
}

impl Backend {
    /// Both backends, in table order.
    pub const ALL: [Backend; 2] = [Backend::Sim, Backend::Host];

    /// Stable table label.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Host => "host",
        }
    }

    /// Parses a table label (case-insensitive), for CLI use.
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.to_ascii_lowercase();
        Self::ALL.into_iter().find(|b| b.label() == s)
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What to run: the cross product of everything listed here, in listed
/// order (the row order of the survival table is fully determined).
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Modeled machines (the simulator charges their coherence costs; the
    /// host uses their cache-line size for arena layout).
    pub platforms: Vec<Platform>,
    /// Barrier algorithms under test.
    pub algorithms: Vec<AlgorithmId>,
    /// Fault scenarios per algorithm.
    pub scenarios: Vec<Scenario>,
    /// Execution backends.
    pub backends: Vec<Backend>,
    /// Participating threads per cell.
    pub threads: usize,
    /// Barrier episodes per cell (keep ≥ 3 so every planned fault fires).
    pub episodes: u32,
    /// Master seed: plans, victims, and jitter all derive from it.
    pub seed: u64,
    /// Per-episode deadline for host cells.
    pub deadline: Duration,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            platforms: vec![Platform::Kunpeng920],
            // The paper's 14 algorithms plus the shyper contenders: the
            // survival table should show what a *lock-guarded* counter
            // does under faults (a crashed lock holder wedges everyone).
            algorithms: AlgorithmId::ALL.into_iter().chain(AlgorithmId::CONTENDERS).collect(),
            scenarios: Scenario::ALL.to_vec(),
            backends: vec![Backend::Sim],
            threads: 8,
            episodes: 3,
            seed: 0xC4A05,
            deadline: Duration::from_secs(5),
        }
    }
}

impl ChaosConfig {
    /// The churn matrix preset: both phasers × the [`Scenario::CHURN`]
    /// scenarios, with enough episodes (5) for a flap to leave, sit out,
    /// rejoin and arrive again within one run.
    pub fn churn() -> Self {
        Self {
            algorithms: AlgorithmId::PHASERS.to_vec(),
            scenarios: Scenario::CHURN.to_vec(),
            episodes: 5,
            ..Self::default()
        }
    }
}

/// How one cell ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellOutcome {
    /// All threads completed every episode.
    Completed,
    /// The fault was caught by a typed error; `mechanism` names how.
    Detected { mechanism: String },
    /// The episode hung and the deadline tripped (host only) — the fault
    /// was detected, but only as lost progress.
    TimedOut,
    /// Churn: every episode completed, but only because a survivor evicted
    /// the scripted deserter and proxy-arrived on its behalf.
    Degraded { mechanism: String },
    /// Churn: recovery gave up (or never applied) and the team poisoned —
    /// the failure mode [`armbar_core::RobustPhaser`] exists to avoid.
    Poisoned { mechanism: String },
}

/// One row of the survival table.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// Execution backend.
    pub backend: Backend,
    /// Modeled machine.
    pub platform: Platform,
    /// Barrier algorithm.
    pub algorithm: AlgorithmId,
    /// Injected scenario.
    pub scenario: Scenario,
    /// Participating threads.
    pub threads: usize,
    /// How the cell ended.
    pub outcome: CellOutcome,
}

impl ChaosCell {
    /// Table status: `ok` (baseline completed), `recovered` (completed
    /// despite planned faults/churn), `detected` (typed error),
    /// `timed-out`, `degraded` (completed through an eviction), or
    /// `poisoned` (churn recovery failed).
    pub fn status(&self) -> &'static str {
        match (&self.outcome, self.scenario) {
            (CellOutcome::Completed, Scenario::Baseline) => "ok",
            (CellOutcome::Completed, _) => "recovered",
            (CellOutcome::Detected { .. }, _) => "detected",
            (CellOutcome::TimedOut, _) => "timed-out",
            (CellOutcome::Degraded { .. }, _) => "degraded",
            (CellOutcome::Poisoned { .. }, _) => "poisoned",
        }
    }

    /// Free-text detail for `detected`/`degraded`/`poisoned` rows, empty
    /// otherwise.
    pub fn detail(&self) -> &str {
        match &self.outcome {
            CellOutcome::Detected { mechanism }
            | CellOutcome::Degraded { mechanism }
            | CellOutcome::Poisoned { mechanism } => mechanism,
            _ => "",
        }
    }
}

/// Runs the full matrix described by `config` and returns one cell per
/// (backend × platform × algorithm × scenario) combination, in that
/// nesting order. Cells fan out over the ambient [`SweepPool`]
/// (`--jobs`/`ARMBAR_JOBS` workers); see [`chaos_matrix_on`].
pub fn chaos_matrix(config: &ChaosConfig) -> Vec<ChaosCell> {
    chaos_matrix_on(&SweepPool::ambient(), config)
}

/// [`chaos_matrix`] on an explicit pool. Simulator cells are pure
/// functions of the seed and run concurrently; host cells spawn real
/// threads, race a wall-clock deadline, and would misclassify under
/// oversubscription — they are [`Job::serial`] and run alone with the
/// pool idle. Either way the table order (and thus the rendered CSV/JSON)
/// is fixed by the submission order, independent of the worker count.
pub fn chaos_matrix_on(pool: &SweepPool, config: &ChaosConfig) -> Vec<ChaosCell> {
    silence_injected_crashes();
    let mut jobs: Vec<Job<'_, ChaosCell>> = Vec::new();
    for &backend in &config.backends {
        for &platform in &config.platforms {
            for &algorithm in &config.algorithms {
                for &scenario in &config.scenarios {
                    let cell = move |outcome| ChaosCell {
                        backend,
                        platform,
                        algorithm,
                        scenario,
                        threads: config.threads,
                        outcome,
                    };
                    let churn = Scenario::CHURN.contains(&scenario);
                    jobs.push(match (backend, churn) {
                        (Backend::Sim, false) => Job::parallel(move || {
                            cell(run_sim_cell(platform, algorithm, scenario, config))
                        }),
                        (Backend::Sim, true) => Job::parallel(move || {
                            cell(run_churn_sim_cell(platform, algorithm, scenario, config))
                        }),
                        (Backend::Host, false) => Job::serial(move || {
                            cell(run_host_cell(platform, algorithm, scenario, config))
                        }),
                        (Backend::Host, true) => Job::serial(move || {
                            cell(run_churn_host_cell(platform, algorithm, scenario, config))
                        }),
                    });
                }
            }
        }
    }
    pool.run(jobs)
}

/// Keeps planned crashes from spraying panic messages and backtraces over
/// the survival table: they are expected, caught, and classified. Public
/// so integration tests that drive [`FaultyCtx`] crash plans directly can
/// reuse the same filter.
pub fn silence_injected_crashes() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied());
            if !msg.is_some_and(|m| m.starts_with("injected crash")) {
                prev(info);
            }
        }));
    });
}

fn run_sim_cell(
    platform: Platform,
    algorithm: AlgorithmId,
    scenario: Scenario,
    config: &ChaosConfig,
) -> CellOutcome {
    let topo = Arc::new(Topology::preset(platform));
    let p = config.threads.min(topo.num_cores());
    let mut arena = Arena::new();
    let barrier: Arc<dyn Barrier> = Arc::from(algorithm.build(&mut arena, p, &topo));
    let plan = FaultPlan::scenario(scenario, config.seed, p);
    let episodes = config.episodes;
    let result = SimBuilder::new(topo, p).seed(config.seed).run(move |sim| {
        let ctx = FaultyCtx::new(sim, &plan);
        for _ in 0..episodes {
            barrier.wait(&ctx);
        }
    });
    match result {
        Ok(_) => CellOutcome::Completed,
        Err(SimError::Deadlock { waiters }) => CellOutcome::Detected {
            mechanism: match waiters.first() {
                Some(w) => format!("deadlock; {} blocked; first: {w}", waiters.len()),
                None => "deadlock".to_string(),
            },
        },
        Err(SimError::ThreadPanic { tid, .. }) => {
            CellOutcome::Detected { mechanism: format!("panic; t{tid} died mid-episode") }
        }
        Err(SimError::OpBudgetExhausted { .. }) => {
            CellOutcome::Detected { mechanism: "live-lock; op budget exhausted".to_string() }
        }
    }
}

fn run_host_cell(
    platform: Platform,
    algorithm: AlgorithmId,
    scenario: Scenario,
    config: &ChaosConfig,
) -> CellOutcome {
    let topo = Topology::preset(platform);
    let p = config.threads.min(topo.num_cores());
    let mut arena = Arena::new();
    let inner = algorithm.build(&mut arena, p, &topo);
    let robust = RobustBarrier::new(
        &mut arena,
        topo.cacheline_bytes(),
        inner,
        RobustConfig { deadline: config.deadline, policy: SpinPolicy::from_env(), max_polls: None },
    );
    let plan = FaultPlan::scenario(scenario, config.seed, p);
    let mem = HostMem::new(&arena);
    let episodes = config.episodes;

    // Per-thread verdicts: did it finish, fail typed, or crash?
    enum Verdict {
        Done,
        Failed(#[allow(dead_code)] BarrierError),
        Crashed,
    }

    let verdicts: Vec<Verdict> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..p)
            .map(|tid| {
                let robust = &robust;
                let plan = &plan;
                let mem = Arc::clone(&mem);
                s.spawn(move || {
                    let host = mem.ctx(tid, p);
                    let ctx = FaultyCtx::new(&host, plan);
                    let body = || -> Result<(), BarrierError> {
                        let guard = robust.guard(&ctx);
                        for _ in 0..episodes {
                            robust.wait(&ctx)?;
                        }
                        guard.disarm();
                        Ok(())
                    };
                    match catch_unwind(AssertUnwindSafe(body)) {
                        Ok(Ok(())) => Verdict::Done,
                        Ok(Err(e)) => Verdict::Failed(e),
                        Err(_) => Verdict::Crashed, // injected crash; guard poisoned
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker must not die unwound")).collect()
    });

    // Aggregate with a fixed precedence so the cell outcome does not depend
    // on which peer happened to observe the failure first:
    // crash > timeout/poison > completed.
    if verdicts.iter().any(|v| matches!(v, Verdict::Crashed)) {
        return CellOutcome::Detected {
            mechanism: "panic; crash poisoned the episode".to_string(),
        };
    }
    if verdicts.iter().any(|v| matches!(v, Verdict::Failed(_))) {
        return CellOutcome::TimedOut;
    }
    CellOutcome::Completed
}

/// Stall-detection budget for simulator churn cells, in failed polls (see
/// [`RobustConfig::max_polls`]). Far above any healthy wait at chaos-sized
/// teams, so the only timeouts are the scripted desertion — and the same
/// seed detects it at the same virtual time on every run.
pub const CHURN_SIM_MAX_POLLS: u64 = 20_000;

/// Builds the dynamic-membership phaser behind a churn cell; `None` for
/// fixed-membership algorithms, which cannot run membership churn.
pub fn build_phaser(
    algorithm: AlgorithmId,
    arena: &mut Arena,
    cap: usize,
    initial: usize,
    topo: &Topology,
) -> Option<Box<dyn Phaser>> {
    match algorithm {
        AlgorithmId::PhaserCentral => Some(Box::new(CentralPhaser::new(arena, cap, initial, topo))),
        AlgorithmId::PhaserTree => Some(Box::new(TreePhaser::new(arena, cap, initial, topo))),
        _ => None,
    }
}

/// How one churn participant ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnVerdict {
    /// Ran its script to the end (all arrivals, or an orderly leave).
    Done,
    /// Collected the one-shot eviction report after its scripted desertion.
    Evicted { episode: u32 },
    /// The script broke down: a scripted step failed in an unexpected way.
    Unexpected(String),
    /// A typed failure (timeout / poison) — recovery did not hold.
    Error(BarrierError),
}

/// One thread's run of its [`ChurnPlan`] script: identical on both
/// backends, since every churn event is membership-driven (no memory
/// faults are injected). `aux` is the scripted handshake word behind
/// [`ChurnPlan::gate`]. On the simulator, [`run_churn_sim`] runs it for
/// every slot.
pub fn churn_thread(
    robust: &RobustPhaser,
    ctx: &dyn MemCtx,
    plan: &ChurnPlan,
    aux: Addr,
    episodes: u32,
) -> ChurnVerdict {
    let slot = ctx.tid();
    let script = plan.script(slot);
    let mut next: u32 = 1;
    if let Some(j) = script.join_after {
        // Late joiner: sit out until the release clock reaches the
        // scripted epoch, then request-signal-await so the shepherd keeps
        // a boundary alive for the ack.
        if j > 0 {
            if let Err(e) = robust.wait_epoch(ctx, j) {
                return ChurnVerdict::Error(e);
            }
        }
        let token = robust.request_join(ctx);
        ctx.store(aux, 1);
        next = robust.await_join(ctx, token);
    }
    while next <= episodes {
        if plan.gate() == Some((slot, next)) {
            // Shepherd: hold this arrival until the joiner's request is
            // visible, so this epoch's boundary is guaranteed to commit
            // the join (otherwise a request landing after the team's final
            // boundary would never be acked). Bounded: if the joiner died
            // before signaling, an unbounded spin here would hang the
            // shepherd forever; the deadline turns that into a failed
            // cell instead.
            if let Err(e) = robust.wait_signal(ctx, aux, 1) {
                return ChurnVerdict::Error(e);
            }
        }
        if script.desert_at == Some(next) {
            // Desert silently: sit out while the survivors time out, vote,
            // and proxy-arrive; then come back for the one-shot report.
            if let Err(e) = robust.wait_epoch(ctx, next) {
                return ChurnVerdict::Error(e);
            }
            return match robust.arrive_and_wait(ctx) {
                Err(BarrierError::Evicted { episode, .. }) => ChurnVerdict::Evicted { episode },
                Ok(e) => ChurnVerdict::Unexpected(format!(
                    "deserter of epoch {next} arrived for epoch {e} without an eviction report"
                )),
                Err(e) => ChurnVerdict::Error(e),
            };
        }
        if script.leave_at == Some(next) {
            let final_epoch = match robust.deregister(ctx) {
                Ok(e) => e,
                Err(e) => return ChurnVerdict::Error(e),
            };
            if !script.rejoin {
                return ChurnVerdict::Done;
            }
            // Flap: the leave must commit before the same slot may rejoin.
            if let Err(e) = robust.wait_epoch(ctx, final_epoch) {
                return ChurnVerdict::Error(e);
            }
            let token = robust.request_join(ctx);
            ctx.store(aux, 1);
            next = robust.await_join(ctx, token);
            continue;
        }
        match robust.arrive_and_wait(ctx) {
            Ok(e) => next = e + 1,
            Err(e) => return ChurnVerdict::Error(e),
        }
    }
    ChurnVerdict::Done
}

/// Folds per-thread verdicts into the cell outcome: errors dominate
/// (recovery failed), exactly one eviction report is `degraded`, a clean
/// sheet is `completed`.
fn classify_churn(plan: &ChurnPlan, verdicts: &[ChurnVerdict]) -> CellOutcome {
    for v in verdicts {
        match v {
            ChurnVerdict::Error(e) => return CellOutcome::Poisoned { mechanism: e.to_string() },
            ChurnVerdict::Unexpected(why) => {
                return CellOutcome::Poisoned { mechanism: why.clone() }
            }
            _ => {}
        }
    }
    let evictions: Vec<u32> = verdicts
        .iter()
        .filter_map(|v| match v {
            ChurnVerdict::Evicted { episode } => Some(*episode),
            _ => None,
        })
        .collect();
    match evictions.as_slice() {
        [] => CellOutcome::Completed,
        [episode] => CellOutcome::Degraded {
            mechanism: format!(
                "evicted t{} at epoch {episode}; survivors completed degraded",
                plan.victim()
            ),
        },
        more => CellOutcome::Poisoned {
            mechanism: format!("{} eviction reports for one deserter", more.len()),
        },
    }
}

/// A phaser factory taking `(arena, capacity, initial_members, topo)`;
/// `None` for fixed-membership algorithms, which cannot run churn. The
/// testing seam for deliberately broken phasers.
pub type PhaserFactory<'a> =
    &'a dyn Fn(&mut Arena, usize, usize, &Topology) -> Option<Box<dyn Phaser>>;

/// Runs `plan` on the simulator: builds the phaser and the `aux`
/// handshake word, wraps them in a [`RobustPhaser`] with a stall-detection
/// budget of `max_polls` failed polls, runs [`churn_thread`] on every slot
/// of the plan for `episodes` epochs, and collects the verdicts in slot
/// order. The run is seeded with the plan's seed; `sim` adds the caller's
/// knobs (schedule policy, op budget). `None` when `build` yields no
/// phaser. The one churn team on the simulator: `chaos --churn` and the
/// phaser conformance search both run through here.
pub fn run_churn_sim(
    topo: &Arc<Topology>,
    plan: &ChurnPlan,
    episodes: u32,
    build: PhaserFactory<'_>,
    max_polls: u64,
    sim: impl FnOnce(SimBuilder) -> SimBuilder,
) -> Option<Result<(RunStats, Vec<ChurnVerdict>), SimError>> {
    let p = plan.scripts().len();
    let mut arena = Arena::new();
    let inner = build(&mut arena, p, plan.initial_members(), topo)?;
    let aux = arena.alloc_padded_u32(topo.cacheline_bytes());
    let robust = Arc::new(RobustPhaser::new(
        &mut arena,
        topo.cacheline_bytes(),
        inner,
        RobustConfig { max_polls: Some(max_polls), ..RobustConfig::default() },
    ));
    let verdicts = Arc::new(Mutex::new(vec![None; p]));
    let result =
        sim(SimBuilder::new(Arc::clone(topo), p).seed(plan.seed())).reserve_for(&arena).run({
            let robust = Arc::clone(&robust);
            let verdicts = Arc::clone(&verdicts);
            let plan = plan.clone();
            move |sim| {
                let v = churn_thread(&robust, sim, &plan, aux, episodes);
                verdicts.lock().unwrap()[sim.tid()] = Some(v);
            }
        });
    Some(result.map(|stats| {
        let verdicts = verdicts.lock().unwrap().iter().cloned().map(Option::unwrap).collect();
        (stats, verdicts)
    }))
}

fn run_churn_sim_cell(
    platform: Platform,
    algorithm: AlgorithmId,
    scenario: Scenario,
    config: &ChaosConfig,
) -> CellOutcome {
    let topo = Arc::new(Topology::preset(platform));
    let p = config.threads.min(topo.num_cores()).max(2);
    let plan = ChurnPlan::scenario(scenario, config.seed, p, config.episodes);
    let build: PhaserFactory<'_> =
        &|arena, cap, initial, t| build_phaser(algorithm, arena, cap, initial, t);
    match run_churn_sim(&topo, &plan, config.episodes, build, CHURN_SIM_MAX_POLLS, |sim| sim) {
        None => CellOutcome::Detected {
            mechanism: "churn scenarios require a phaser algorithm".to_string(),
        },
        Some(Err(e)) => CellOutcome::Poisoned { mechanism: format!("sim aborted: {e}") },
        Some(Ok((_, verdicts))) => classify_churn(&plan, &verdicts),
    }
}

fn run_churn_host_cell(
    platform: Platform,
    algorithm: AlgorithmId,
    scenario: Scenario,
    config: &ChaosConfig,
) -> CellOutcome {
    let topo = Topology::preset(platform);
    let p = config.threads.min(topo.num_cores()).max(2);
    let episodes = config.episodes;
    let plan = ChurnPlan::scenario(scenario, config.seed, p, episodes);
    let mut arena = Arena::new();
    let Some(inner) = build_phaser(algorithm, &mut arena, p, plan.initial_members(), &topo) else {
        return CellOutcome::Detected {
            mechanism: "churn scenarios require a phaser algorithm".to_string(),
        };
    };
    let aux = arena.alloc_padded_u32(topo.cacheline_bytes());
    let robust = RobustPhaser::new(
        &mut arena,
        topo.cacheline_bytes(),
        inner,
        RobustConfig { deadline: config.deadline, policy: SpinPolicy::from_env(), max_polls: None },
    );
    let mem = HostMem::new(&arena);
    let verdicts: Vec<ChurnVerdict> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..p)
            .map(|tid| {
                let robust = &robust;
                let plan = &plan;
                let mem = Arc::clone(&mem);
                s.spawn(move || {
                    let ctx = mem.ctx(tid, p);
                    churn_thread(robust, &ctx, plan, aux, episodes)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("churn worker must not die")).collect()
    });
    classify_churn(&plan, &verdicts)
}

/// Renders cells as CSV with a `#`-prefixed provenance header. Contains no
/// wall-clock values, so equal seeds yield byte-identical output. Commas in
/// the detail column become `;`, so every row keeps seven fields.
pub fn render_csv(cells: &[ChaosCell], config: &ChaosConfig) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# chaos: seed {:#x}, episodes {}, deadline {} ms\n",
        config.seed,
        config.episodes,
        config.deadline.as_millis()
    ));
    out.push_str("backend,platform,threads,algorithm,scenario,status,detail\n");
    for c in cells {
        out.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            c.backend,
            c.platform.label(),
            c.threads,
            c.algorithm.label(),
            c.scenario,
            c.status(),
            c.detail().replace(',', ";")
        ));
    }
    out
}

/// Renders cells as a JSON document (same fields as the CSV).
pub fn render_json(cells: &[ChaosCell], config: &ChaosConfig) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"seed\": {},\n", config.seed));
    out.push_str(&format!("  \"episodes\": {},\n", config.episodes));
    out.push_str(&format!("  \"deadline_ms\": {},\n", config.deadline.as_millis()));
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"backend\": \"{}\", \"platform\": \"{}\", \"threads\": {}, \
             \"algorithm\": \"{}\", \"scenario\": \"{}\", \"status\": \"{}\", \
             \"detail\": \"{}\"}}{}\n",
            c.backend,
            c.platform.label(),
            c.threads,
            c.algorithm.label(),
            c.scenario,
            c.status(),
            c.detail().replace('"', "'"),
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> ChaosConfig {
        ChaosConfig {
            algorithms: vec![AlgorithmId::Sense, AlgorithmId::Dissemination],
            threads: 4,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn sim_matrix_classifies_survivable_scenarios_as_survived() {
        let cells = chaos_matrix(&small_config());
        for c in &cells {
            if Scenario::SURVIVABLE.contains(&c.scenario) {
                assert!(
                    matches!(c.outcome, CellOutcome::Completed),
                    "{}/{}/{} should survive, got {:?}",
                    c.algorithm.label(),
                    c.scenario,
                    c.backend,
                    c.outcome
                );
            }
        }
    }

    #[test]
    fn sim_matrix_detects_crashes_with_typed_errors() {
        let cells = chaos_matrix(&small_config());
        for c in cells.iter().filter(|c| c.scenario == Scenario::Crash) {
            assert!(
                matches!(&c.outcome, CellOutcome::Detected { mechanism } if mechanism.starts_with("panic")),
                "{}: crash must surface as a panic, got {:?}",
                c.algorithm.label(),
                c.outcome
            );
        }
    }

    #[test]
    fn matrix_is_identical_at_any_worker_count() {
        // The sweep-pool fan-out must not reorder or perturb the table:
        // jobs=1 is the serial reference, jobs=4 must match byte for byte.
        let config = small_config();
        let serial = render_csv(&chaos_matrix_on(&SweepPool::new(1), &config), &config);
        let parallel = render_csv(&chaos_matrix_on(&SweepPool::new(4), &config), &config);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn sim_matrix_replays_bit_identically() {
        let config = small_config();
        let a = render_csv(&chaos_matrix(&config), &config);
        let b = render_csv(&chaos_matrix(&config), &config);
        assert_eq!(a, b);
        let mut reseeded = small_config();
        reseeded.seed ^= 1;
        let c = render_csv(&chaos_matrix(&reseeded), &reseeded);
        assert_ne!(a, c, "different seed must perturb the table");
    }

    #[test]
    fn host_cells_never_hang_and_report_typed_outcomes() {
        let config = ChaosConfig {
            backends: vec![Backend::Host],
            algorithms: vec![AlgorithmId::Dissemination],
            scenarios: vec![Scenario::Baseline, Scenario::LostWakeup, Scenario::Crash],
            threads: 4,
            deadline: Duration::from_millis(300),
            ..ChaosConfig::default()
        };
        let cells = chaos_matrix(&config);
        assert_eq!(cells.len(), 3);
        assert!(matches!(cells[0].outcome, CellOutcome::Completed), "{:?}", cells[0].outcome);
        // Dissemination: every thread stores a flag each round, so the
        // dropped store always hangs the episode -> deadline trips.
        assert!(matches!(cells[1].outcome, CellOutcome::TimedOut), "{:?}", cells[1].outcome);
        assert!(
            matches!(&cells[2].outcome, CellOutcome::Detected { mechanism } if mechanism.starts_with("panic")),
            "{:?}",
            cells[2].outcome
        );
    }

    fn churn_config() -> ChaosConfig {
        ChaosConfig { threads: 8, ..ChaosConfig::churn() }
    }

    #[test]
    fn churn_matrix_recovers_joins_leaves_and_flaps_on_sim() {
        let cells = chaos_matrix(&churn_config());
        assert_eq!(cells.len(), 8, "2 phasers x 4 churn scenarios");
        for c in &cells {
            match c.scenario {
                Scenario::CrashEvict => assert_eq!(
                    c.status(),
                    "degraded",
                    "{}/{}: deserter must be evicted, got {:?}",
                    c.algorithm.label(),
                    c.scenario,
                    c.outcome
                ),
                _ => assert_eq!(
                    c.status(),
                    "recovered",
                    "{}/{}: churn must complete, got {:?}",
                    c.algorithm.label(),
                    c.scenario,
                    c.outcome
                ),
            }
        }
    }

    #[test]
    fn churn_matrix_replays_bit_identically_at_any_worker_count() {
        let config = churn_config();
        let serial = render_csv(&chaos_matrix_on(&SweepPool::new(1), &config), &config);
        let parallel = render_csv(&chaos_matrix_on(&SweepPool::new(4), &config), &config);
        assert_eq!(serial, parallel);
        let again = render_csv(&chaos_matrix(&config), &config);
        assert_eq!(serial, again, "same seed must replay the same churn table");
    }

    #[test]
    fn churn_cells_on_host_complete_degraded_not_poisoned() {
        let config = ChaosConfig {
            backends: vec![Backend::Host],
            scenarios: Scenario::CHURN.to_vec(),
            threads: 4,
            deadline: Duration::from_millis(500),
            ..ChaosConfig::churn()
        };
        let cells = chaos_matrix(&config);
        for c in &cells {
            let want = if c.scenario == Scenario::CrashEvict { "degraded" } else { "recovered" };
            assert_eq!(
                c.status(),
                want,
                "host {}/{}: got {:?}",
                c.algorithm.label(),
                c.scenario,
                c.outcome
            );
        }
    }

    #[test]
    fn churn_scenarios_reject_fixed_membership_algorithms() {
        let config = ChaosConfig {
            algorithms: vec![AlgorithmId::Sense],
            scenarios: vec![Scenario::CrashEvict],
            ..ChaosConfig::churn()
        };
        let cells = chaos_matrix(&config);
        assert_eq!(cells.len(), 1);
        assert!(
            matches!(&cells[0].outcome, CellOutcome::Detected { mechanism } if mechanism.contains("phaser")),
            "{:?}",
            cells[0].outcome
        );
    }

    #[test]
    fn renderers_are_stable_and_quote_free() {
        let config = ChaosConfig {
            algorithms: vec![AlgorithmId::Sense],
            scenarios: vec![Scenario::Baseline, Scenario::Crash],
            threads: 2,
            ..ChaosConfig::default()
        };
        let cells = chaos_matrix(&config);
        let csv = render_csv(&cells, &config);
        assert!(csv.starts_with("# chaos: seed 0xc4a05"));
        assert_eq!(csv.lines().count(), 2 + cells.len());
        for line in csv.lines().skip(2) {
            assert_eq!(line.matches(',').count(), 6, "unescaped comma in: {line}");
        }
        let json = render_json(&cells, &config);
        assert!(json.contains("\"scenario\": \"crash\""));
        assert!(json.contains("\"status\": \"detected\""));
    }

    #[test]
    fn csv_escapes_commas_in_the_detail_column() {
        // A deadlocked churn cell's detail carries `SimError`'s Display,
        // which joins the blocked waiters with ", ".
        let cell = ChaosCell {
            backend: Backend::Sim,
            platform: Platform::Kunpeng920,
            algorithm: AlgorithmId::PhaserCentral,
            scenario: Scenario::Flap,
            threads: 4,
            outcome: CellOutcome::Poisoned {
                mechanism: "sim aborted: deadlock: t0 on addr 0x40, t1 on addr 0x80".to_string(),
            },
        };
        let csv = render_csv(&[cell], &ChaosConfig::churn());
        let row = csv.lines().nth(2).expect("one data row");
        assert_eq!(row.split(',').count(), 7, "{row}");
        assert!(row.ends_with("t0 on addr 0x40; t1 on addr 0x80"), "{row}");
    }
}
