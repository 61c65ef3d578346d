//! # armbar-conformance — schedule-exploring barrier conformance checking
//!
//! The workspace's correctness tool: drives every barrier algorithm through
//! thousands of seeded, perturbed interleavings of the coherence simulator
//! and checks safety oracles after every episode. Where the chaos harness
//! (`armbar-faults`) asks *"does the barrier fail gracefully when threads
//! misbehave?"*, this crate asks *"is the barrier actually correct on every
//! schedule a sequentially consistent machine could produce?"* — the
//! claims of the paper's Sections II-B and V:
//!
//! * **no early exit** — no thread leaves episode `k` before every
//!   participant has entered it;
//! * **sense/epoch consistency** — episode numbering never skews across
//!   threads (a peer at most one episode ahead is legal);
//! * **no lost wake-up** — every release is observed; a missed one
//!   surfaces as a simulator deadlock and is classified as such;
//! * **quiescence** — every episode's `ENTER`/`EXIT` phase marks balance
//!   and alternate per thread, so no residual work leaks across episodes.
//!
//! The [`phaser`] module extends the search to **dynamic membership**: it
//! drives the phasers through seeded register/deregister/eviction scripts
//! under the same explorer and checks two membership oracles — *no lost
//! member* (every committed member's completion ledger is gapless over its
//! membership interval) and *no phantom arrival* (no activity is ever
//! recorded outside the committed membership).
//!
//! Exploration rides the engine's `SchedulePolicy` hook: an
//! [`ExplorerPolicy`] permutes tie-broken picks, preempts with bounded
//! probability, and injects targeted delays at flag read/write sites. Every
//! trial is a pure function of its seed, so a violation ships with a
//! deterministic reproducer — and a shrinking pass minimizes the
//! reordering budget, perturbation budget and episode count before
//! reporting.
//!
//! The fixed checker, the phaser checker and the [`fence`] probe share one
//! search path: each supplies a trial closure from `(explorer, episodes,
//! seed)` to a schedule fingerprint or a classified violation, and one
//! seed loop, one shrink and one `SimError` classifier do the rest. Both
//! checkers report [`ConformCell`]s.
//!
//! ```
//! use armbar_conformance::{conform_matrix, ConformConfig};
//! use armbar_core::AlgorithmId;
//!
//! let cfg = ConformConfig {
//!     algorithms: vec![AlgorithmId::Sense],
//!     seeds: 25,
//!     ..ConformConfig::default()
//! };
//! let cells = conform_matrix(&cfg);
//! assert!(cells.iter().all(|c| c.violations.is_empty()));
//! ```

pub mod checker;
pub mod explorer;
pub mod fence;
mod litmus;
pub mod phaser;
pub mod report;
mod search;
#[cfg(test)]
mod serve_script;

pub use checker::{
    conform_matrix, conform_matrix_on, ConformCell, ConformConfig, Violation, ViolationKind,
};
pub use explorer::{ExplorerConfig, ExplorerPolicy};
pub use fence::{
    fence_matrix, fence_matrix_on, render_fence_markdown, FenceCell, FenceConfig, FenceLevel,
    LevelResult,
};
pub use phaser::{
    check_membership_ledger, phaser_conform_matrix, phaser_conform_matrix_on, render_phaser_csv,
    render_phaser_json, PhaserConformConfig,
};
pub use report::{render_csv, render_json};
pub use search::trial_seed;
