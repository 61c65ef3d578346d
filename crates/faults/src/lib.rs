//! # armbar-faults — deterministic fault injection for barrier episodes
//!
//! The barriers in this workspace assume that every participant arrives and
//! every wakeup lands. This crate breaks those assumptions *on purpose*,
//! reproducibly, and on **both** backends, by interposing on the
//! [`armbar_core::MemCtx`] trait the algorithms are written against:
//!
//! * [`FaultPlan`] — a seeded, declarative description of what goes wrong:
//!   stragglers (delayed arrival), lost wakeups (dropped stores), crashed
//!   participants (mid-episode panic), and latency perturbation (extra
//!   per-operation delay). Same seed, same faults, every run.
//! * [`FaultyCtx`] — wraps any `&dyn MemCtx` (a simulator thread or a host
//!   context) and injects the plan's faults as the wrapped thread performs
//!   its operations. The barrier under test is byte-for-byte the production
//!   code; only its view of memory misbehaves.
//! * [`harness`] — the chaos matrix: every algorithm × platform × scenario,
//!   deterministic on the simulator (faults surface as typed
//!   `SimError`s) and deadline-guarded on the host (faults surface as
//!   typed `BarrierError`s via `RobustBarrier`), rendered as a survival
//!   table in CSV or JSON.
//!
//! ```
//! use armbar_core::MemCtx;
//! use armbar_faults::{FaultPlan, FaultyCtx, Scenario};
//! use armbar_simcoh::{Arena, SimBuilder};
//! use armbar_topology::{Platform, Topology};
//! use std::sync::Arc;
//!
//! let plan = FaultPlan::scenario(Scenario::Straggler, 0xC4A05, 4);
//! let topo = Arc::new(Topology::preset(Platform::Kunpeng920));
//! let mut arena = Arena::new();
//! let flag = arena.alloc_u32();
//! SimBuilder::new(topo, 4)
//!     .run(move |sim| {
//!         let ctx = FaultyCtx::new(sim, &plan);
//!         // one thread arrives late; the flag still gets everyone through
//!         if ctx.tid() == 0 {
//!             ctx.store(flag, 1);
//!         } else {
//!             ctx.spin_until_ge(flag, 1);
//!         }
//!     })
//!     .unwrap();
//! ```

pub mod ctx;
pub mod harness;
pub mod plan;

pub use ctx::FaultyCtx;
pub use harness::{
    build_phaser, chaos_matrix_on, churn_thread, render_csv, render_json, run_churn_sim,
    silence_injected_crashes, Backend, CellOutcome, ChaosCell, ChaosConfig, ChurnVerdict,
    PhaserFactory,
};
pub use plan::{ChurnPlan, Fault, FaultPlan, Scenario, SlotScript};
