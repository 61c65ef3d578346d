//! # armbar-epcc — measurement harness
//!
//! The measurement methodology of the paper, reimplemented for both
//! backends:
//!
//! * [`overhead`] — EPCC-style barrier overhead: time a loop of
//!   `work(delay); barrier()` and subtract the reference work, per
//!   episode, for any [`BarrierSpec`](armbar_core::BarrierSpec):
//!   [`sim_overhead`] is one simulator run. The paper runs the EPCC
//!   OpenMP micro-benchmark suite 20 times and reports averages;
//!   [`sim_overhead_reps`] mirrors that with independently seeded runs
//!   on an explicit `SweepPool`.
//! * [`pingpong`] — the core-to-core communication micro-benchmark of
//!   Section III-A: one thread *places* data (becoming the cache owner),
//!   another *accesses* it; the per-line read latency is the layer latency
//!   `L_i`. Regenerates Tables I–III from the simulator.
//! * [`episodes`] — per-episode traces: the Arrival/Notification split
//!   from the centralized phase hooks (`Barrier::wait_traced` + champion
//!   ARRIVED) plus coherence-op counter deltas for every measured episode
//!   (feeds the CLI `trace` and `phases` subcommands and the
//!   phase-breakdown experiment).
//! * [`summary`] — small-sample statistics used by the experiment reports.

pub mod episodes;
pub mod overhead;
pub mod pingpong;
pub mod summary;

pub use episodes::{trace_episodes, EpisodeTrace};
pub use overhead::{
    host_overhead_ns, host_overhead_of, sim_overhead, sim_overhead_reps, OverheadConfig,
    SEED_STRIDE,
};
pub use pingpong::{latency_table, measure_latency_ns, LatencyRow};
pub use summary::Summary;
