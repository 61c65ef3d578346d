//! # armbar-core — barrier synchronization algorithms
//!
//! The algorithm library of the workspace: the seven barriers evaluated by
//! *"Optimizing Barrier Synchronization on ARMv8 Many-Core Architectures"*
//! (CLUSTER 2021), the LLVM OpenMP reference barrier, and the paper's
//! optimized f-way tournament barrier with padded arrival flags, fixed
//! fan-in 4, and platform-selected wake-up (global / binary tree /
//! NUMA-aware tree).
//!
//! Every algorithm is written once against the [`MemCtx`] trait and runs on
//! two backends:
//!
//! * [`host::HostMem`] — real atomics for real threads (a usable barrier
//!   library);
//! * `armbar_simcoh::SimThread` — the modeled ARMv8 machines, where each
//!   operation is charged its cache-coherence cost.
//!
//! ## Quick start (host backend)
//!
//! ```
//! use std::sync::Arc;
//! use armbar_core::prelude::*;
//! use armbar_simcoh::Arena;
//! use armbar_topology::{Platform, Topology};
//!
//! let threads = 4;
//! let topo = Topology::preset(Platform::Phytium2000Plus);
//! let mut arena = Arena::new();
//! let barrier: Arc<dyn Barrier> = Arc::from(
//!     AlgorithmId::Optimized.build(&mut arena, threads, &topo));
//! let mem = HostMem::new(&arena);
//!
//! std::thread::scope(|s| {
//!     for tid in 0..threads {
//!         let barrier = Arc::clone(&barrier);
//!         let mem = Arc::clone(&mem);
//!         s.spawn(move || {
//!             let ctx = mem.ctx(tid, threads);
//!             for _phase in 0..10 {
//!                 // ... do work ...
//!                 barrier.wait(&ctx);
//!             }
//!         });
//!     }
//! });
//! ```

pub mod algorithms;
pub mod env;
pub mod host;
pub mod oracle;
pub mod phaser;
pub mod registry;
pub mod robust;
pub mod trees;
pub mod wakeup;

pub use algorithms::{
    CombiningTreeBarrier, DisseminationBarrier, FwayBarrier, FwayConfig, HybridBarrier,
    HyperBarrier, McsBarrier, SenseBarrier, TournamentBarrier,
};
pub use env::{Barrier, MemCtx, MemLayer};
pub use host::{HostCtx, HostMem};
pub use oracle::EpisodeOracle;
pub use phaser::{CentralPhaser, Phaser, TreePhaser};
pub use registry::{AlgorithmId, BarrierSpec};
pub use robust::{BarrierError, PoisonGuard, RobustBarrier, RobustConfig, RobustPhaser};
pub use wakeup::{Wakeup, WakeupKind};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::algorithms::fway::{Fanin, FwayBarrier, FwayConfig};
    pub use crate::env::{Barrier, MemCtx};
    pub use crate::host::{HostCtx, HostMem};
    pub use crate::oracle::EpisodeOracle;
    pub use crate::phaser::{CentralPhaser, Phaser, TreePhaser};
    pub use crate::registry::{AlgorithmId, BarrierSpec};
    pub use crate::robust::{BarrierError, RobustBarrier, RobustConfig, RobustPhaser};
    pub use crate::wakeup::WakeupKind;
}

#[cfg(test)]
mod proptests;
