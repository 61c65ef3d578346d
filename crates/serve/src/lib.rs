//! # armbar-serve — barrier-as-a-service
//!
//! A sharded, multi-tenant coordination server hosting thousands of named
//! barrier *teams*. Where the rest of the workspace synchronizes threads
//! inside one process, this crate synchronizes *connections*: members of a
//! team attach through [`Team::connect`], arrive with [`Conn::arrive`],
//! and block in [`Conn::wait`] until the whole team has arrived — with the
//! `RobustBarrier`/`RobustPhaser` failure semantics (timeout eviction,
//! poisoning, dynamic membership) carried over to the connection world.
//!
//! The performance story, in the paper's terms:
//!
//! * **sharded registry** ([`Registry`]) — team ownership is split over
//!   independent shards by a stable FNV-1a name hash; tenant churn and
//!   lookups never take a global lock;
//! * **batched arrivals** ([`Team`]) — one epoch-stamped arrival word per
//!   team (the phaser `(epoch << 12) | count` encoding), so N arrivals are
//!   N fetch-adds on one line, and the boundary costs one commit;
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
