//! The barrier algorithms evaluated in the paper (Section II-B), plus the
//! LLVM OpenMP reference barrier.
//!
//! | Module | Paper name | Notes |
//! |---|---|---|
//! | [`sense`] | SENSE | sense-reversing centralized; = GCC libgomp |
//! | [`dissemination`] | DIS | ⌈log₂P⌉ pairwise rounds, no notification phase |
//! | [`combining`] | CMB | software combining tree (Yew/Tzeng/Lawrie), fan-in 2 |
//! | [`mcs`] | MCS | Mellor-Crummey & Scott P-node tree (4-ary arrive, binary wake) |
//! | [`tournament`] | TOUR | Hensgen/Finkel/Manber pairwise tournament, global wake-up |
//! | [`fway`] | STOUR / DTOUR | Grunwald & Vajracharya static/dynamic f-way tournament — and, fully configured, the paper's optimized barrier |
//! | [`hyper`] | (LLVM) | hypercube-embedded tree, branch factor 4; = LLVM libomp default |
//! | [`hybrid`] | (extension) | per-cluster counters + tournament over representatives |
//! | [`nway_dissemination`] | (cited, ref \[4\]) | Hoefler n-way dissemination |
//! | [`ring`] | (cited, ref \[7\]) | Aravind two-pass ring/token barrier |
//! | [`shyper`] | (contender) | rust_shyper/rtshyper spinlock-guarded counter, `round_up` reuse-safe exit + proxy arrival |

pub mod combining;
pub mod dissemination;
pub mod fway;
pub mod hybrid;
pub mod hyper;
pub mod mcs;
pub mod nway_dissemination;
pub mod ring;
pub mod sense;
pub mod shyper;
pub mod tournament;

pub use combining::CombiningTreeBarrier;
pub use dissemination::DisseminationBarrier;
pub use fway::{FwayBarrier, FwayConfig};
pub use hybrid::HybridBarrier;
pub use hyper::HyperBarrier;
pub use mcs::McsBarrier;
pub use nway_dissemination::NwayDisseminationBarrier;
pub use ring::RingBarrier;
pub use sense::SenseBarrier;
pub use shyper::{ShyCtrBarrier, ShyProxyBarrier};
pub use tournament::TournamentBarrier;

#[cfg(test)]
pub(crate) mod testutil;
