//! Name-indexed construction of every barrier in the workspace — the
//! experiment pipelines and examples select algorithms through this.

use armbar_simcoh::Arena;
use armbar_topology::Topology;

use crate::algorithms::{
    CombiningTreeBarrier, FwayBarrier, FwayConfig, HybridBarrier, HyperBarrier, McsBarrier,
    NwayDisseminationBarrier, RingBarrier, SenseBarrier, ShyCtrBarrier, ShyProxyBarrier,
    TournamentBarrier,
};
use crate::env::Barrier;
use crate::phaser::{CentralPhaser, TreePhaser};

/// Every barrier configuration referenced by the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmId {
    /// Sense-reversing centralized (Figure 7a) = GCC libgomp's barrier.
    Sense,
    /// Dissemination barrier: n-way dissemination with n = 1.
    Dissemination,
    /// Software combining tree, fan-in 2.
    Combining,
    /// MCS P-node tree.
    Mcs,
    /// Pairwise tournament.
    Tournament,
    /// Static f-way tournament (original: balanced fan-in, packed flags).
    Stour,
    /// Dynamic f-way tournament.
    Dtour,
    /// LLVM libomp's hypercube-embedded tree barrier.
    LlvmHyper,
    /// STOUR with cache-line-padded flags (Figure 11 "padding static f-way").
    StourPadded,
    /// Padded flags + fixed fan-in 4 (Figure 11 "padding static 4-way").
    Padded4Way,
    /// The paper's full optimized barrier (Table IV "ours").
    Optimized,
    /// Extension: cluster-hierarchical hybrid (counters within clusters,
    /// tournament across) — the Rodchenko-style design of the related work.
    Hybrid,
    /// Cited (ref \[4\]): Hoefler n-way dissemination, n = 2.
    NwayDissemination,
    /// Cited (ref \[7\]): Aravind two-pass ring barrier.
    Ring,
    /// Dynamic-membership centralized counter phaser (PR 7). Built here at
    /// fixed full membership; not part of [`AlgorithmId::ALL`] so the
    /// fixed-P sweeps and golden fixtures stay at the paper's 14.
    PhaserCentral,
    /// Dynamic-membership 4-ary reparenting tree phaser (PR 7).
    PhaserTree,
    /// Contender (PR 10): rust_shyper's spinlock-guarded counter barrier
    /// with the `round_up` reuse-safe exit. Not in [`AlgorithmId::ALL`]
    /// (see [`AlgorithmId::CONTENDERS`]) so pre-split golden fixtures
    /// keep the paper's 14.
    ShyCtr,
    /// Contender (PR 10): SHY-CTR plus the `add_barrier_count`
    /// proxy-arrival path for offline cores, SWP test-and-set lock.
    ShyProxy,
}

impl AlgorithmId {
    /// The seven algorithms of the paper's Section IV evaluation, in the
    /// paper's order.
    pub const SEVEN: [AlgorithmId; 7] = [
        AlgorithmId::Sense,
        AlgorithmId::Dissemination,
        AlgorithmId::Combining,
        AlgorithmId::Mcs,
        AlgorithmId::Tournament,
        AlgorithmId::Stour,
        AlgorithmId::Dtour,
    ];

    /// Everything buildable, for exhaustive sweeps.
    pub const ALL: [AlgorithmId; 14] = [
        AlgorithmId::Sense,
        AlgorithmId::Dissemination,
        AlgorithmId::Combining,
        AlgorithmId::Mcs,
        AlgorithmId::Tournament,
        AlgorithmId::Stour,
        AlgorithmId::Dtour,
        AlgorithmId::LlvmHyper,
        AlgorithmId::StourPadded,
        AlgorithmId::Padded4Way,
        AlgorithmId::Optimized,
        AlgorithmId::Hybrid,
        AlgorithmId::NwayDissemination,
        AlgorithmId::Ring,
    ];

    /// The paper's figure-legend label.
    pub fn label(self) -> &'static str {
        match self {
            AlgorithmId::Sense => "SENSE",
            AlgorithmId::Dissemination => "DIS",
            AlgorithmId::Combining => "CMB",
            AlgorithmId::Mcs => "MCS",
            AlgorithmId::Tournament => "TOUR",
            AlgorithmId::Stour => "STOUR",
            AlgorithmId::Dtour => "DTOUR",
            AlgorithmId::LlvmHyper => "LLVM",
            AlgorithmId::StourPadded => "STOUR-pad",
            AlgorithmId::Padded4Way => "OPT-4way",
            AlgorithmId::Optimized => "OPT",
            AlgorithmId::Hybrid => "HYBRID",
            AlgorithmId::NwayDissemination => "NDIS",
            AlgorithmId::Ring => "RING",
            AlgorithmId::PhaserCentral => "PH-CTR",
            AlgorithmId::PhaserTree => "PH-TREE",
            AlgorithmId::ShyCtr => "SHY-CTR",
            AlgorithmId::ShyProxy => "SHY-PROXY",
        }
    }

    /// Builds the barrier for `p` threads on `topo`, allocating its state
    /// from `arena`.
    pub fn build(self, arena: &mut Arena, p: usize, topo: &Topology) -> Box<dyn Barrier> {
        match self {
            AlgorithmId::Sense => Box::new(SenseBarrier::gcc_style(arena, p, topo)),
            AlgorithmId::Dissemination => {
                Box::new(NwayDisseminationBarrier::new(arena, p, topo, 1))
            }
            AlgorithmId::Combining => Box::new(CombiningTreeBarrier::new(arena, p, topo, 2)),
            AlgorithmId::Mcs => Box::new(McsBarrier::new(arena, p, topo)),
            AlgorithmId::Tournament => Box::new(TournamentBarrier::new(arena, p, topo)),
            AlgorithmId::Stour => Box::new(FwayBarrier::stour(arena, p, topo)),
            AlgorithmId::Dtour => Box::new(FwayBarrier::dtour(arena, p, topo)),
            AlgorithmId::LlvmHyper => Box::new(HyperBarrier::new(arena, p, topo)),
            AlgorithmId::StourPadded => Box::new(FwayBarrier::stour_padded(arena, p, topo)),
            AlgorithmId::Padded4Way => Box::new(FwayBarrier::padded_4way(arena, p, topo)),
            AlgorithmId::Optimized => Box::new(FwayBarrier::optimized(arena, p, topo)),
            AlgorithmId::Hybrid => Box::new(HybridBarrier::new(arena, p, topo)),
            AlgorithmId::NwayDissemination => {
                Box::new(NwayDisseminationBarrier::new(arena, p, topo, 2))
            }
            AlgorithmId::Ring => Box::new(RingBarrier::new(arena, p, topo)),
            AlgorithmId::PhaserCentral => Box::new(CentralPhaser::full(arena, p, topo)),
            AlgorithmId::PhaserTree => Box::new(TreePhaser::full(arena, p, topo)),
            AlgorithmId::ShyCtr => Box::new(ShyCtrBarrier::new(arena, p, topo)),
            AlgorithmId::ShyProxy => Box::new(ShyProxyBarrier::new(arena, p, topo)),
        }
    }

    /// The two dynamic-membership phasers (PR 7), kept out of
    /// [`AlgorithmId::ALL`] so the fixed-P experiment grids and golden
    /// fixtures are unchanged; the churn pipelines iterate this instead.
    pub const PHASERS: [AlgorithmId; 2] = [AlgorithmId::PhaserCentral, AlgorithmId::PhaserTree];

    /// The shyper contender barriers (PR 10), kept out of
    /// [`AlgorithmId::ALL`] for the same reason as [`AlgorithmId::PHASERS`]
    /// — the pre-split fixed-P grids and golden fixtures stay at the
    /// paper's 14. The sweep/conform/chaos CLI paths and the `crossover`
    /// family append this set.
    pub const CONTENDERS: [AlgorithmId; 2] = [AlgorithmId::ShyCtr, AlgorithmId::ShyProxy];

    /// The largest thread count a default grid simulates this algorithm
    /// at; `usize::MAX` when any machine size is fine. The contenders' lock
    /// serializes every arrival behind a failed-CAS storm quadratic in P:
    /// at P = 1024 one run outgrows the simulator's default op budget, at a
    /// point the model already prices out. The kilocore suite and `armbar
    /// sweep`'s default set skip the cells above the bound; a sweep that
    /// names the algorithm still runs them.
    pub fn max_threads(self) -> usize {
        match self {
            AlgorithmId::ShyCtr | AlgorithmId::ShyProxy => 256,
            _ => usize::MAX,
        }
    }

    /// Parses a figure-legend label (case-insensitive) or a long-form
    /// alias (`optimized`, `dissemination`, …), for CLI use.
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.to_ascii_lowercase();
        if let Some(id) = Self::ALL
            .into_iter()
            .chain(Self::PHASERS)
            .chain(Self::CONTENDERS)
            .find(|a| a.label().to_ascii_lowercase() == s)
        {
            return Some(id);
        }
        Some(match s.as_str() {
            "centralized" | "gcc" => AlgorithmId::Sense,
            "dissemination" => AlgorithmId::Dissemination,
            "combining" | "combining-tree" => AlgorithmId::Combining,
            "tournament" => AlgorithmId::Tournament,
            "static-fway" => AlgorithmId::Stour,
            "dynamic-fway" => AlgorithmId::Dtour,
            "hypercube" | "libomp" => AlgorithmId::LlvmHyper,
            "padded-stour" => AlgorithmId::StourPadded,
            "padded-4way" | "4way" => AlgorithmId::Padded4Way,
            "optimized" | "ours" => AlgorithmId::Optimized,
            "nway-dissemination" | "nway" => AlgorithmId::NwayDissemination,
            "phaser-central" | "phctr" => AlgorithmId::PhaserCentral,
            "phaser-tree" | "phtree" => AlgorithmId::PhaserTree,
            "shyper" | "shyctr" | "shy" => AlgorithmId::ShyCtr,
            "shyproxy" | "shy-prox" | "add-barrier-count" => AlgorithmId::ShyProxy,
            _ => return None,
        })
    }
}

impl std::fmt::Display for AlgorithmId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What a measurement builds: a recipe for a fresh barrier of `p` threads
/// on `topo`, its state allocated from `arena`. A repeated measurement
/// calls [`BarrierSpec::build`] once per run, each time on a fresh arena,
/// so runs stay independent.
///
/// A registry [`AlgorithmId`], an f-way [`FwayConfig`] and any closure
/// `Fn(&mut Arena, usize, &Topology) -> Box<dyn Barrier>` are specs. The
/// first two are `Copy + Eq + Hash`, so they can key a cache of results.
pub trait BarrierSpec: Sync {
    /// Builds the barrier for `p` threads on `topo` in `arena`.
    fn build(&self, arena: &mut Arena, p: usize, topo: &Topology) -> Box<dyn Barrier>;
}

impl BarrierSpec for AlgorithmId {
    fn build(&self, arena: &mut Arena, p: usize, topo: &Topology) -> Box<dyn Barrier> {
        AlgorithmId::build(*self, arena, p, topo)
    }
}

impl BarrierSpec for FwayConfig {
    fn build(&self, arena: &mut Arena, p: usize, topo: &Topology) -> Box<dyn Barrier> {
        Box::new(FwayBarrier::with_config(arena, p, topo, *self))
    }
}

impl<F: Fn(&mut Arena, usize, &Topology) -> Box<dyn Barrier> + Sync> BarrierSpec for F {
    fn build(&self, arena: &mut Arena, p: usize, topo: &Topology) -> Box<dyn Barrier> {
        self(arena, p, topo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::testutil::check_sim;
    use armbar_topology::Platform;

    #[test]
    fn every_algorithm_builds_and_runs() {
        for id in
            AlgorithmId::ALL.into_iter().chain(AlgorithmId::PHASERS).chain(AlgorithmId::CONTENDERS)
        {
            check_sim(Platform::ThunderX2, 16, 2, move |a, p, t| id.build(a, p, t));
        }
    }

    #[test]
    fn phaser_labels_round_trip_and_stay_out_of_all() {
        for id in AlgorithmId::PHASERS {
            assert_eq!(AlgorithmId::parse(id.label()), Some(id));
            assert!(!AlgorithmId::ALL.contains(&id), "{id:?} must not join the fixed-P grid");
        }
        assert_eq!(AlgorithmId::parse("phaser-tree"), Some(AlgorithmId::PhaserTree));
        assert_eq!(AlgorithmId::parse("phctr"), Some(AlgorithmId::PhaserCentral));
    }

    #[test]
    fn contender_labels_round_trip_and_stay_out_of_all() {
        for id in AlgorithmId::CONTENDERS {
            assert_eq!(AlgorithmId::parse(id.label()), Some(id));
            assert!(!AlgorithmId::ALL.contains(&id), "{id:?} must not join the fixed-P grid");
            // Built names match the registry labels.
            let topo = Topology::preset(Platform::ThunderX2);
            let mut arena = Arena::new();
            assert_eq!(id.build(&mut arena, 8, &topo).name(), id.label());
        }
        assert_eq!(AlgorithmId::parse("shyper"), Some(AlgorithmId::ShyCtr));
        assert_eq!(AlgorithmId::parse("shy-proxy"), Some(AlgorithmId::ShyProxy));
        assert_eq!(AlgorithmId::parse("add-barrier-count"), Some(AlgorithmId::ShyProxy));
    }

    #[test]
    fn labels_round_trip_through_parse() {
        for id in AlgorithmId::ALL {
            assert_eq!(AlgorithmId::parse(id.label()), Some(id));
            assert_eq!(AlgorithmId::parse(&id.label().to_uppercase()), Some(id));
        }
        assert_eq!(AlgorithmId::parse("nonsense"), None);
    }

    #[test]
    fn long_form_aliases_parse() {
        assert_eq!(AlgorithmId::parse("optimized"), Some(AlgorithmId::Optimized));
        assert_eq!(AlgorithmId::parse("Dissemination"), Some(AlgorithmId::Dissemination));
        assert_eq!(AlgorithmId::parse("gcc"), Some(AlgorithmId::Sense));
        assert_eq!(AlgorithmId::parse("tournament"), Some(AlgorithmId::Tournament));
    }

    #[test]
    fn seven_is_a_subset_of_all() {
        for id in AlgorithmId::SEVEN {
            assert!(AlgorithmId::ALL.contains(&id));
        }
    }

    #[test]
    fn built_names_match_labels_for_core_seven() {
        let topo = Topology::preset(Platform::ThunderX2);
        for id in AlgorithmId::SEVEN {
            let mut arena = Arena::new();
            let b = id.build(&mut arena, 8, &topo);
            assert_eq!(b.name(), id.label(), "{id:?}");
        }
    }
}
