//! Per-episode traces: phase timings *and* coherence-op counter deltas for
//! every measured barrier episode, the raw material behind the CLI `trace`
//! and `phases` subcommands and the phase-breakdown experiment. The
//! simulator's arrival/notification split exists only here: a one-episode
//! split is the trace of a run with `episodes: 1`.
//!
//! Timing comes from the centralized phase hooks (`Barrier::wait_traced`
//! brackets each measured episode with ENTER/EXIT; the champion paths emit
//! ARRIVED). Counters come from [`armbar_simcoh::SimThread::coherence_counters`]
//! snapshots taken by thread 0 at episode boundaries.
//!
//! ## Attribution caveat
//!
//! Counter snapshots are machine-wide totals taken at thread 0's virtual
//! time; threads still finishing an episode's tail (late tree wakeups) are
//! charged to the *next* episode's delta. Per-episode counter rows are
//! therefore attributions — exact in total across all measured episodes,
//! approximate per row. Phase timings are exact: they come from the marks.

use std::sync::{Arc, Mutex};

use armbar_core::env::{Barrier, MARK_ARRIVED, MARK_ENTER, MARK_EXIT};
use armbar_simcoh::{CoherenceCounters, SimBuilder, SimError};
use armbar_topology::Topology;

use crate::overhead::OverheadConfig;

/// One measured barrier episode: absolute phase timestamps (virtual ns)
/// plus the machine-wide coherence-counter delta attributed to it.
#[derive(Debug, Clone, Copy)]
pub struct EpisodeTrace {
    /// Measured-episode index, 1-based (warm-up episodes are not traced).
    pub episode: u32,
    /// Latest ENTER of the episode (the last thread to reach the barrier).
    pub enter_ns: f64,
    /// Champion's ARRIVED (end of the Arrival-Phase), when the algorithm's
    /// mark pattern is recognized; `None` otherwise (e.g. `p = 1`).
    pub arrived_ns: Option<f64>,
    /// Latest EXIT of the episode (the last thread released).
    pub exit_ns: f64,
    /// Coherence-op counter delta attributed to this episode.
    pub counters: CoherenceCounters,
}

impl EpisodeTrace {
    /// Arrival-Phase span: last ENTER → champion's ARRIVED.
    pub fn arrival_ns(&self) -> Option<f64> {
        self.arrived_ns.map(|a| (a - self.enter_ns).max(0.0))
    }

    /// Notification-Phase span: champion's ARRIVED → last EXIT.
    pub fn notification_ns(&self) -> Option<f64> {
        self.arrived_ns.map(|a| (self.exit_ns - a).max(0.0))
    }

    /// Whole-episode span: last ENTER → last EXIT.
    pub fn total_ns(&self) -> f64 {
        (self.exit_ns - self.enter_ns).max(0.0)
    }
}

/// Runs `cfg.warmup` untraced then `cfg.episodes` traced episodes of
/// `barrier` with `p` threads on the simulated `topo` and returns one
/// [`EpisodeTrace`] per measured episode.
pub fn trace_episodes(
    topo: &Arc<Topology>,
    p: usize,
    barrier: Arc<dyn Barrier>,
    cfg: OverheadConfig,
) -> Result<Vec<EpisodeTrace>, SimError> {
    assert!(cfg.episodes >= 1);
    let snapshots: Arc<Mutex<Vec<CoherenceCounters>>> =
        Arc::new(Mutex::new(Vec::with_capacity(cfg.episodes as usize + 1)));
    let snaps = Arc::clone(&snapshots);
    let stats = SimBuilder::new(Arc::clone(topo), p).seed(cfg.seed).run(move |ctx| {
        let snap = |_label: u32| {
            if ctx.tid() == 0 {
                snaps.lock().unwrap().push(ctx.coherence_counters());
            }
        };
        for _ in 0..cfg.warmup {
            ctx.compute_ns(cfg.delay_ns);
            barrier.wait(ctx);
        }
        snap(0); // baseline after warm-up
        for k in 0..cfg.episodes {
            ctx.compute_ns(cfg.delay_ns);
            barrier.wait_traced(ctx);
            snap(k + 1);
        }
    })?;

    // Group marks per thread in program order; thread k's i-th ENTER/EXIT
    // belongs to measured episode i (warm-up episodes are untraced).
    let episodes = cfg.episodes as usize;
    let mut enters: Vec<Vec<f64>> = vec![Vec::with_capacity(episodes); p];
    let mut exits: Vec<Vec<f64>> = vec![Vec::with_capacity(episodes); p];
    let mut arrivals_per_thread: Vec<Vec<f64>> = vec![Vec::new(); p];
    let mut arrivals_in_order: Vec<f64> = Vec::new();
    for m in stats.marks() {
        match m.label {
            MARK_ENTER => enters[m.tid].push(m.time_ns),
            MARK_EXIT => exits[m.tid].push(m.time_ns),
            MARK_ARRIVED => {
                arrivals_per_thread[m.tid].push(m.time_ns);
                arrivals_in_order.push(m.time_ns);
            }
            _ => {}
        }
    }
    for tid in 0..p {
        assert_eq!(enters[tid].len(), episodes, "thread {tid} missed ENTER marks");
        assert_eq!(exits[tid].len(), episodes, "thread {tid} missed EXIT marks");
    }

    // ARRIVED marks also fire during warm-up (they live inside the
    // algorithms), so the measured episodes are the trailing groups. Two
    // recognized patterns: one champion per episode, or one mark per thread
    // per episode (symmetric barriers like dissemination — take the max).
    let rounds = cfg.warmup as usize + episodes;
    let arrived_of = |k: usize| -> Option<f64> {
        if arrivals_in_order.len() == rounds {
            Some(arrivals_in_order[cfg.warmup as usize + k])
        } else if arrivals_per_thread.iter().all(|a| a.len() == rounds) {
            arrivals_per_thread
                .iter()
                .map(|a| a[cfg.warmup as usize + k])
                .fold(None, |acc, t| Some(acc.map_or(t, |m: f64| m.max(t))))
        } else {
            None
        }
    };

    let snapshots = snapshots.lock().unwrap();
    assert_eq!(snapshots.len(), episodes + 1, "missing counter snapshots");
    let traces = (0..episodes)
        .map(|k| EpisodeTrace {
            episode: k as u32 + 1,
            enter_ns: (0..p).map(|t| enters[t][k]).fold(f64::MIN, f64::max),
            arrived_ns: arrived_of(k),
            exit_ns: (0..p).map(|t| exits[t][k]).fold(f64::MIN, f64::max),
            counters: snapshots[k + 1].delta_since(&snapshots[k]),
        })
        .collect();
    Ok(traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use armbar_core::prelude::*;
    use armbar_simcoh::Arena;
    use armbar_topology::Platform;

    fn trace(platform: Platform, p: usize, id: AlgorithmId, episodes: u32) -> Vec<EpisodeTrace> {
        let topo = Arc::new(Topology::preset(platform));
        let mut arena = Arena::new();
        let barrier: Arc<dyn Barrier> = Arc::from(id.build(&mut arena, p, &topo));
        let cfg = OverheadConfig { episodes, ..OverheadConfig::default() };
        trace_episodes(&topo, p, barrier, cfg).unwrap()
    }

    #[test]
    fn every_episode_reports_phases_and_counters() {
        let traces = trace(Platform::ThunderX2, 32, AlgorithmId::Optimized, 6);
        assert_eq!(traces.len(), 6);
        for (i, t) in traces.iter().enumerate() {
            assert_eq!(t.episode as usize, i + 1);
            assert!(t.arrival_ns().unwrap() > 0.0, "{t:?}");
            assert!(t.notification_ns().unwrap() > 0.0, "{t:?}");
            assert!(t.total_ns() > 0.0);
            assert!(t.counters.total_mem_ops() > 0, "{t:?}");
            assert!(t.counters.spin_wakeups > 0, "{t:?}");
        }
        // Episodes are consecutive in virtual time.
        for w in traces.windows(2) {
            assert!(w[1].enter_ns > w[0].exit_ns);
        }
    }

    #[test]
    fn symmetric_barrier_arrival_uses_per_thread_marks() {
        let traces = trace(Platform::Phytium2000Plus, 16, AlgorithmId::Dissemination, 4);
        for t in &traces {
            assert!(t.arrived_ns.is_some(), "{t:?}");
        }
    }

    #[test]
    fn counter_deltas_sum_to_run_totals_order() {
        // The per-episode attribution must conserve the total op volume:
        // deltas over the measured region sum to (final − baseline) exactly.
        let topo = Arc::new(Topology::preset(Platform::Kunpeng920));
        let mut arena = Arena::new();
        let barrier: Arc<dyn Barrier> = Arc::from(AlgorithmId::Stour.build(&mut arena, 24, &topo));
        let cfg = OverheadConfig { episodes: 5, ..OverheadConfig::default() };
        let traces = trace_episodes(&topo, 24, barrier, cfg).unwrap();
        let mut acc = CoherenceCounters::default();
        for t in &traces {
            acc.accumulate(&t.counters);
        }
        // Every measured episode runs the same barrier: op volume per
        // episode must be steady (identical memory-op counts).
        let ops0 = traces[0].counters.total_mem_ops();
        for t in &traces[1..] {
            let rel = (t.counters.total_mem_ops() as f64 - ops0 as f64).abs() / ops0 as f64;
            assert!(rel < 0.25, "unsteady op volume: {} vs {ops0}", t.counters.total_mem_ops());
        }
        assert_eq!(
            acc.total_mem_ops(),
            traces.iter().map(|t| t.counters.total_mem_ops()).sum::<u64>()
        );
    }

    #[test]
    fn single_thread_trace_has_no_phase_split() {
        let traces = trace(Platform::ThunderX2, 1, AlgorithmId::Optimized, 3);
        for t in &traces {
            assert!(t.arrived_ns.is_none());
            assert!(t.arrival_ns().is_none());
        }
    }

    /// The phase split of one measured episode after 3 untraced warm-up
    /// episodes, as `(arrival, notification)`; `None` without an ARRIVED.
    fn split_of(topo: &Arc<Topology>, p: usize, barrier: Arc<dyn Barrier>) -> Option<(f64, f64)> {
        let cfg = OverheadConfig { warmup: 3, episodes: 1, ..OverheadConfig::default() };
        let t = trace_episodes(topo, p, barrier, cfg).unwrap().pop().unwrap();
        Some((t.arrival_ns()?, t.notification_ns()?))
    }

    fn split(platform: Platform, p: usize, id: AlgorithmId) -> Option<(f64, f64)> {
        let topo = Arc::new(Topology::preset(platform));
        let mut arena = Arena::new();
        let barrier: Arc<dyn Barrier> = Arc::from(id.build(&mut arena, p, &topo));
        split_of(&topo, p, barrier)
    }

    #[test]
    fn optimized_barrier_reports_both_phases() {
        let (arrival, notification) =
            split(Platform::ThunderX2, 64, AlgorithmId::Optimized).unwrap();
        assert!(arrival > 0.0);
        assert!(notification > 0.0);
        assert!(arrival + notification < 10_000.0, "{arrival} + {notification}");
    }

    #[test]
    fn sense_notification_is_the_smaller_share_at_scale() {
        // SENSE's cost is the serialized arrival RMW storm; the release is
        // one store plus staggered wakeups.
        let (arrival, notification) = split(Platform::ThunderX2, 64, AlgorithmId::Sense).unwrap();
        assert!(arrival > notification, "arrival {arrival:.0} vs notification {notification:.0}");
    }

    #[test]
    fn every_algorithm_reports_phases_via_central_hooks() {
        // No per-algorithm instrumentation needed: wait_traced brackets the
        // episode and the champion paths emit ARRIVED.
        for id in AlgorithmId::ALL.into_iter().chain(AlgorithmId::CONTENDERS) {
            let (arrival, notification) = split(Platform::ThunderX2, 16, id)
                .unwrap_or_else(|| panic!("{id:?} reported no phase marks"));
            assert!(arrival >= 0.0 && notification >= 0.0, "{id:?}: {arrival} {notification}");
            assert!(arrival + notification > 0.0, "{id:?}: {arrival} {notification}");
        }
    }

    #[test]
    fn single_thread_episode_has_no_arrival_mark() {
        // With p = 1 every algorithm returns before any champion moment, so
        // ARRIVED is absent and the split is undefined.
        assert!(split(Platform::ThunderX2, 1, AlgorithmId::Mcs).is_none());
    }

    #[test]
    fn wakeup_choice_changes_only_notification() {
        use armbar_core::FwayBarrier;
        let topo = Arc::new(Topology::preset(Platform::ThunderX2));
        let get = |wakeup| {
            let mut arena = Arena::new();
            let b: Arc<dyn Barrier> = Arc::new(FwayBarrier::with_config(
                &mut arena,
                64,
                &topo,
                FwayConfig { wakeup, ..FwayConfig::optimized(&topo) },
            ));
            split_of(&topo, 64, b).unwrap()
        };
        let global = get(WakeupKind::Global);
        let numa = get(WakeupKind::NumaTree);
        // Arrival phases should be close; notification should differ more.
        let arrival_gap = (global.0 - numa.0).abs() / global.0.max(numa.0);
        assert!(arrival_gap < 0.35, "arrival {global:?} vs {numa:?}");
        assert!(
            global.1 > numa.1,
            "on ThunderX2 the NUMA tree must beat the global flip: {global:?} vs {numa:?}"
        );
    }

    #[test]
    fn traces_are_deterministic() {
        let a = trace(Platform::Phytium2000Plus, 16, AlgorithmId::Optimized, 4);
        let b = trace(Platform::Phytium2000Plus, 16, AlgorithmId::Optimized, 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.enter_ns, y.enter_ns);
            assert_eq!(x.exit_ns, y.exit_ns);
            assert_eq!(x.counters, y.counters);
        }
    }
}
