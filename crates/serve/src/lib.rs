//! # armbar-serve — barrier-as-a-service
//!
//! A sharded, multi-tenant coordination server hosting thousands of named
//! barrier *teams*. Where the rest of the workspace synchronizes threads
//! inside one process, this crate synchronizes *connections*: members of a
//! team attach through [`Team::connect`], arrive with [`Conn::arrive`],
//! and block in [`Conn::wait`] until the whole team has arrived — with the
//! `RobustPhaser` failure semantics (timeout eviction, poisoning, dynamic
//! membership) carried over to the connection world.
//!
//! The membership protocol is not this crate's: every [`Team`] is an
//! `armbar_core` PH-CTR phaser (`CentralPhaser`) whose packed words sit
//! inline in the team's one allocation, the implementation the
//! conformance checker searches. What
//! this crate adds, in the paper's terms:
//!
//! * **sharded registry** ([`Registry`]) — team ownership is split over
//!   independent shards by a stable FNV-1a name hash; tenant churn and
//!   lookups never take a global lock;
//! * **batched arrivals** ([`Team`]) — N member arrivals are N fetch-adds
//!   on the phaser's one arrival counter, and the filling one commits the
//!   boundary inline;
//! * **batched, backpressure-aware wakeups** ([`registry::ShardWake`]) —
//!   releases flush through the owning shard, eliding the broadcast when
//!   nobody is parked and coalescing co-shard releases into one notify.
//!
//! [`load`] is the seeded Zipf load driver behind the `armbar serve` CLI
//! subcommand and armbar-bench's `bench_serve` writer.

pub mod load;
pub mod registry;
pub mod team;

pub use load::{outcome_csv, outcome_json, run_load, summary_text, LoadConfig, LoadReport};
pub use registry::{fnv1a, Registry, WakeStats};
pub use team::{Conn, Team, TeamConfig, TeamMetrics};
