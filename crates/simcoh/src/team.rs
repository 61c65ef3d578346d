//! Episode-reusable simulation teams.
//!
//! Spawning P OS threads per [`SimBuilder::run`] call dominated the cost of
//! short episodes — an experiment sweep at quick scale launches tens of
//! thousands of simulations of a few hundred virtual operations each. A
//! [`SimTeam`] spawns its workers **once** and replays them across episodes:
//! each run publishes a fresh episode (shared engine state + body) under an
//! epoch counter, the participating workers pick it up, and the driver
//! blocks until the episode's engine declares it finished.
//!
//! Teams are deterministic by construction: every episode gets a fresh
//! engine [`State`](crate::engine), so which OS threads execute the bodies
//! is invisible to the model. A failed episode (deadlock, budget, panic)
//! tears down via the engine's abort protocol — the worker catches the
//! internal unwind and survives to serve the next episode.
//!
//! [`SimBuilder::run`] routes through a per-host-thread *ambient* team
//! automatically, so `epcc`, the experiments runner, the fault harness and
//! the tracing CLI all reuse workers without any call-site changes.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use crate::engine::{panic_message, silence_abort_panics, AbortSignal, SimBuilder, SimThread};
use crate::error::SimError;
use crate::stats::RunStats;

/// One published episode: the engine state the workers attach to, the body
/// they run, and how many of them take part.
#[derive(Clone)]
struct Episode {
    shared: Arc<crate::engine::Shared>,
    body: Arc<dyn Fn(&SimThread) + Send + Sync>,
    participants: usize,
}

struct CtrlState {
    /// Bumped once per published episode; workers compare against the last
    /// epoch they served to detect new work.
    epoch: u64,
    job: Option<Episode>,
    shutdown: bool,
}

struct Ctrl {
    mx: Mutex<CtrlState>,
    /// One start condvar per worker, so publishing a P-thread episode on a
    /// larger team wakes exactly P workers instead of all of them.
    start_cv: Vec<Condvar>,
}

/// A pool of simulation workers reused across episodes.
///
/// ```
/// use std::sync::Arc;
/// use armbar_topology::{Platform, Topology};
/// use armbar_simcoh::{Arena, SimBuilder, SimTeam};
///
/// let topo = Arc::new(Topology::preset(Platform::ThunderX2));
/// let mut team = SimTeam::new(2);
/// for episode in 0..3 {
///     let mut arena = Arena::new();
///     let flag = arena.alloc_u32();
///     let stats = team
///         .run(SimBuilder::new(Arc::clone(&topo), 2).seed(episode), move |ctx| {
///             if ctx.tid() == 0 {
///                 ctx.store(flag, 1);
///             } else {
///                 ctx.spin_until_eq(flag, 1);
///             }
///         })
///         .unwrap();
///     assert!(stats.max_time_ns() > 0.0);
/// }
/// ```
pub struct SimTeam {
    ctrl: Arc<Ctrl>,
    workers: Vec<JoinHandle<()>>,
    capacity: usize,
}

impl SimTeam {
    /// Spawns a team of `capacity` workers. Episodes of up to `capacity`
    /// threads can run on it; smaller episodes leave the surplus workers
    /// parked.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "a team needs at least one worker");
        silence_abort_panics();
        let ctrl = Arc::new(Ctrl {
            mx: Mutex::new(CtrlState { epoch: 0, job: None, shutdown: false }),
            start_cv: (0..capacity).map(|_| Condvar::new()).collect(),
        });
        let workers = (0..capacity)
            .map(|index| {
                let ctrl = Arc::clone(&ctrl);
                std::thread::Builder::new()
                    .name(format!("simcoh-w{index}"))
                    .spawn(move || worker_loop(index, &ctrl))
                    .expect("failed to spawn simulation worker")
            })
            .collect();
        Self { ctrl, workers, capacity }
    }

    /// Number of workers (the largest episode this team can host).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Runs one episode configured by `builder` on this team's workers.
    /// Identical semantics and results to [`SimBuilder::run`], minus the
    /// per-run thread spawn/join.
    ///
    /// # Panics
    /// Panics when the builder asks for more threads than the team has.
    pub fn run(
        &mut self,
        builder: SimBuilder,
        body: impl Fn(&SimThread) + Send + Sync + 'static,
    ) -> Result<RunStats, SimError> {
        self.run_arc(builder, Arc::new(body))
    }

    pub(crate) fn run_arc(
        &mut self,
        builder: SimBuilder,
        body: Arc<dyn Fn(&SimThread) + Send + Sync>,
    ) -> Result<RunStats, SimError> {
        let participants = builder.nthreads;
        assert!(
            participants <= self.capacity,
            "{participants} threads exceed this team's capacity of {}",
            self.capacity
        );
        let shared = Arc::new(builder.into_shared());
        {
            let mut c = self.ctrl.mx.lock();
            c.epoch += 1;
            c.job = Some(Episode { shared: Arc::clone(&shared), body, participants });
        }
        // Notify with the lock released: a woken worker re-acquires the ctrl
        // mutex inside its wait, and piling 64 workers onto a held lock costs
        // an extra context-switch round each. (The epoch was published under
        // the lock, so a worker mid-check cannot miss it.)
        for cv in &self.ctrl.start_cv[..participants] {
            cv.notify_one();
        }
        // `collect` returns only after every participant passed its finish
        // point, so the next episode cannot race this one's workers.
        let result = shared.collect();
        // Every participant took its copy of the job and dropped its body
        // before finishing; release the job's, so nothing the body captured
        // outlives the run.
        self.ctrl.mx.lock().job = None;
        result
    }
}

impl Drop for SimTeam {
    fn drop(&mut self) {
        {
            let mut c = self.ctrl.mx.lock();
            c.shutdown = true;
        }
        for cv in &self.ctrl.start_cv {
            cv.notify_one();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(index: usize, ctrl: &Ctrl) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut c = ctrl.mx.lock();
            loop {
                if c.shutdown {
                    return;
                }
                if c.epoch != seen {
                    seen = c.epoch;
                    match &c.job {
                        Some(job) if index < job.participants => break job.clone(),
                        // Not a participant this episode (whose job may
                        // already be released); fall through to wait. (No
                        // missed work: the driver blocks until an episode
                        // fully finishes before publishing the next, so a
                        // participant is always parked here — or about to
                        // re-check the epoch — while its episode's job is
                        // published.)
                        _ => continue,
                    }
                }
                ctrl.start_cv[index].wait(&mut c);
            }
        };
        let Episode { shared, body, participants } = job;
        let ctx = SimThread::new(Arc::clone(&shared), index, participants, None);
        let result = catch_unwind(AssertUnwindSafe(|| body(&ctx)));
        let panic_msg = match result {
            Ok(()) => None,
            // NB: `&*p` reborrows the payload itself; `&p` would unsize the
            // Box and defeat the downcasts.
            Err(p) => {
                if (*p).is::<AbortSignal>() {
                    None // internal tear-down, not a user panic
                } else {
                    Some(panic_message(&*p))
                }
            }
        };
        let deferred = ctx.take_deferred();
        // The driver may return as soon as the last participant finishes,
        // so drop the body first: nothing it captured outlives the run.
        drop(body);
        shared.finish_thread(index, panic_msg, deferred);
    }
}

thread_local! {
    /// The calling thread's ambient team, grown on demand. One per host
    /// thread so concurrent sweep-pool workers never contend on a team.
    static AMBIENT_TEAM: RefCell<Option<SimTeam>> = const { RefCell::new(None) };
}

/// Entry point for [`SimBuilder::run`]: reuses (or creates) the calling
/// thread's ambient team. The team is taken out of the slot for the duration
/// of the run, so a simulated body that itself launches simulations (from
/// its worker threads) composes safely.
pub(crate) fn run_with_ambient_team(
    builder: SimBuilder,
    body: Arc<dyn Fn(&SimThread) + Send + Sync>,
) -> Result<RunStats, SimError> {
    // Preferred transport: fibers on one OS thread (see `crate::fiber`).
    // `ARMBAR_SIM_FIBERS=0` falls through to the OS-thread teams below;
    // explicit `SimTeam::run` calls always use OS threads.
    if crate::fiber::fibers_enabled() {
        return crate::fiber::run_on_fibers(builder, body);
    }
    let mut team = AMBIENT_TEAM
        .with(|cell| {
            let mut slot = cell.borrow_mut();
            match slot.take() {
                Some(t) if t.capacity() >= builder.nthreads => Some(t),
                // Absent or too small: drop the old team (if any) and grow.
                _ => None,
            }
        })
        .unwrap_or_else(|| SimTeam::new(builder.nthreads));
    let result = team.run_arc(builder, body);
    AMBIENT_TEAM.with(move |cell| {
        let mut slot = cell.borrow_mut();
        match slot.as_ref() {
            // Keep the larger team if something re-populated the slot.
            Some(existing) if existing.capacity() >= team.capacity() => {}
            _ => *slot = Some(team),
        }
    });
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Arena;
    use crate::error::WaitKind;
    use armbar_topology::{Topology, TopologyBuilder};

    fn topo() -> Arc<Topology> {
        Arc::new(
            TopologyBuilder::new("team8", 8)
                .epsilon_ns(1.0)
                .layer("near", 10.0, 0.5)
                .layer("far", 40.0, 0.5)
                .hierarchy(&[4])
                .coherence(2.0, 3.0, 0.1)
                .build(),
        )
    }

    fn barrier_body(counter: u32, flag: u32, p: u32) -> impl Fn(&SimThread) + Send + Sync {
        move |ctx: &SimThread| {
            let prev = ctx.fetch_add(counter, 1);
            if prev == p - 1 {
                ctx.store(flag, 1);
            } else {
                ctx.spin_until_eq(flag, 1);
            }
        }
    }

    #[test]
    fn reused_team_reproduces_identical_stats() {
        let t = topo();
        let mut team = SimTeam::new(4);
        let run = |team: &mut SimTeam| {
            let mut arena = Arena::new();
            let counter = arena.alloc_u32();
            let flag = arena.alloc_padded_u32(64);
            team.run(SimBuilder::new(Arc::clone(&t), 4).seed(7), barrier_body(counter, flag, 4))
                .unwrap()
        };
        let first = run(&mut team);
        let second = run(&mut team);
        assert_eq!(first.max_time_ns(), second.max_time_ns());
        assert_eq!(first.per_thread_time_ns(), second.per_thread_time_ns());
        assert_eq!(first.total_mem_ops(), second.total_mem_ops());
        assert_eq!(
            first.coherence().total().total_mem_ops(),
            second.coherence().total().total_mem_ops()
        );
    }

    #[test]
    fn team_matches_fresh_spawn_results() {
        let t = topo();
        let mut arena = Arena::new();
        let counter = arena.alloc_u32();
        let flag = arena.alloc_padded_u32(64);
        let via_builder =
            SimBuilder::new(Arc::clone(&t), 4).seed(3).run(barrier_body(counter, flag, 4)).unwrap();
        let mut team = SimTeam::new(4);
        let via_team = team
            .run(SimBuilder::new(Arc::clone(&t), 4).seed(3), barrier_body(counter, flag, 4))
            .unwrap();
        assert_eq!(via_builder.max_time_ns(), via_team.max_time_ns());
        assert_eq!(via_builder.per_thread_time_ns(), via_team.per_thread_time_ns());
    }

    #[test]
    fn deadlock_in_one_episode_does_not_poison_the_next() {
        let t = topo();
        let mut team = SimTeam::new(4);
        // Episode 1: everyone spins on a flag nobody writes.
        let mut arena = Arena::new();
        let dead = arena.alloc_u32();
        let err = team
            .run(SimBuilder::new(Arc::clone(&t), 4), move |ctx| {
                ctx.spin_until_ge(dead, 1);
            })
            .unwrap_err();
        match err {
            SimError::Deadlock { waiters } => {
                assert_eq!(waiters.len(), 4);
                assert!(waiters.iter().all(|w| w.kind == WaitKind::Ge(1)));
            }
            other => panic!("expected deadlock, got {other}"),
        }
        // Episode 2 on the same workers must run clean.
        let mut arena = Arena::new();
        let counter = arena.alloc_u32();
        let flag = arena.alloc_padded_u32(64);
        let stats =
            team.run(SimBuilder::new(Arc::clone(&t), 4), barrier_body(counter, flag, 4)).unwrap();
        assert_eq!(stats.ops(crate::stats::OpKind::SpinWakeup), 3);
    }

    #[test]
    fn panic_in_one_episode_does_not_poison_the_next() {
        let t = topo();
        let mut team = SimTeam::new(2);
        let err = team
            .run(SimBuilder::new(Arc::clone(&t), 2), |ctx| {
                if ctx.tid() == 1 {
                    panic!("episode-one failure");
                }
            })
            .unwrap_err();
        assert!(matches!(err, SimError::ThreadPanic { tid: 1, .. }), "{err}");
        let mut arena = Arena::new();
        let flag = arena.alloc_u32();
        let stats = team
            .run(SimBuilder::new(Arc::clone(&t), 2), move |ctx| {
                if ctx.tid() == 0 {
                    ctx.store(flag, 1);
                } else {
                    ctx.spin_until_eq(flag, 1);
                }
            })
            .unwrap();
        assert!(stats.max_time_ns() > 0.0);
    }

    #[test]
    fn smaller_episodes_leave_surplus_workers_parked() {
        let t = topo();
        let mut team = SimTeam::new(8);
        for p in [1usize, 3, 8, 2] {
            let mut arena = Arena::new();
            let counter = arena.alloc_u32();
            let flag = arena.alloc_padded_u32(64);
            let stats = team
                .run(SimBuilder::new(Arc::clone(&t), p), barrier_body(counter, flag, p as u32))
                .unwrap();
            assert_eq!(stats.per_thread_time_ns().len(), p);
        }
    }

    #[test]
    #[should_panic(expected = "exceed this team's capacity")]
    fn oversubscribing_a_team_panics() {
        let t = topo();
        let mut team = SimTeam::new(2);
        let _ = team.run(SimBuilder::new(t, 4), |_| {});
    }
}
