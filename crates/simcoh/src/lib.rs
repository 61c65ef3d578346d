//! # armbar-simcoh — a cache-coherence *latency* simulator
//!
//! A deterministic discrete-event simulator that executes real Rust thread
//! bodies against a modeled many-core machine ([`armbar_topology::Topology`])
//! and charges every memory operation its cache-coherence cost, following
//! the analytical model of Section III of the CLUSTER'21 paper this
//! workspace reproduces:
//!
//! * local read hit — `ε`;
//! * remote read — `L_i` (the latency layer joining reader and owner), plus
//!   the reader-contention term `c·(j−1)` when `j` readers pile onto one
//!   line;
//! * write / atomic RMW — ownership transfer (`L_i` from the current owner)
//!   plus the read-for-ownership (RFO) fan-out `α_i·L_i` to the farthest
//!   sharer and a per-extra-sharer serialization charge; writes to the same
//!   line **serialize**, which is precisely the hot-spot effect that makes
//!   centralized barriers collapse on many-core machines.
//!
//! The simulated machine is *not* cycle-accurate: it is an executable form
//! of the paper's cost model, sufficient to reproduce the relative shapes of
//! the paper's figures. Because line occupancy, sharer sets and invalidation
//! fan-outs are tracked per real byte address, effects like false sharing of
//! packed 4-byte arrival flags emerge from the same code that exhibits them
//! on hardware.
//!
//! ## Execution model
//!
//! Each simulated thread runs arbitrary Rust code; every [`SimThread`]
//! operation posts to a shared engine that processes operations in
//! virtual-time order (ties broken by thread id), one at a time. The engine
//! is *cooperative*: whichever thread posts an operation runs the
//! scheduling loop inline while it holds the state lock, so serial phases
//! of a simulation advance without any context switches. The interleaving
//! is **fully deterministic** — independent of host scheduling and host
//! core count — and a blocked simulation (a buggy barrier) is detected and
//! reported rather than hanging.
//!
//! Two transports carry the simulated threads. On `x86_64` unix hosts,
//! [`SimBuilder::run`] executes them as *fibers* — stackful coroutines on
//! one OS thread, switching in userspace instead of through the kernel (the
//! `fiber` module; `ARMBAR_SIM_FIBERS=0` opts out). Elsewhere (and
//! in explicit [`SimTeam`] runs) they are OS threads pooled in
//! episode-reusable teams. Results are byte-identical across transports.
//!
//! The host cost of a modeled operation does not grow with P: stalled ops
//! wait in a per-time stall queue beside one indexed heap of the running
//! and ready threads, spin-waiters are indexed by the word they watch, and
//! sharer-set reductions run over per-layer core masks (see `DESIGN.md`
//! §11 and §13).
//!
//! ```
//! use std::sync::Arc;
//! use armbar_topology::{Platform, Topology};
//! use armbar_simcoh::{Arena, SimBuilder};
//!
//! let topo = Arc::new(Topology::preset(Platform::ThunderX2));
//! let mut arena = Arena::new();
//! let flag = arena.alloc_u32();
//!
//! let stats = SimBuilder::new(topo, 2)
//!     .run(move |ctx| {
//!         if ctx.tid() == 0 {
//!             ctx.store(flag, 1); // costs a local write
//!         } else {
//!             ctx.spin_until_eq(flag, 1); // blocks, then pays L_0
//!         }
//!     })
//!     .unwrap();
//! assert!(stats.max_time_ns() > 0.0);
//! ```

pub mod arena;
pub mod engine;
#[cfg(test)]
mod engine_tests;
pub mod error;
pub(crate) mod fiber;
pub mod line;
pub mod rng;
mod sched;
pub mod schedule;
pub mod stats;
pub mod team;

pub use arena::{Addr, Arena};
pub use engine::{SimBuilder, SimThread};
pub use error::{DeadlockWaiter, SimError, WaitKind};
pub use schedule::{
    LoadOrder, MinTimePolicy, ReadyOp, ReadyOpKind, ScheduleDecision, SchedulePolicy, StoreOrder,
    WeakDecision, WeakOp, WeakOpKind,
};
pub use stats::{
    CoherenceCounters, CoherenceStats, LineTraffic, LineTrafficTable, Mark, OpKind, RunStats,
};
pub use team::SimTeam;
