//! Ablation studies beyond the paper's figures, quantifying the design
//! choices DESIGN.md calls out:
//!
//! 1. **SENSE layout** — how much of the centralized barrier's collapse is
//!    the libgomp-style packing of counter and generation word into one
//!    cache line (spinner crowd invalidated by every arrival), versus the
//!    inherent serialization of a single hot counter?
//! 2. **Padding × fan-in interaction** — is the fixed fan-in 4 still the
//!    right choice *without* padding (the paper only sweeps padded)?
//! 3. **HYBRID extension** — does the related-work hybrid design
//!    (per-cluster counters + tournament of representatives) beat the
//!    paper's optimized barrier on any modeled machine?

use armbar_core::prelude::*;
use armbar_core::SenseBarrier;
use armbar_epcc::sim_overhead;
use armbar_simcoh::Arena;
use armbar_sweep::SweepPool;
use armbar_topology::{Platform, Topology};

use crate::report::{us, Report};
use crate::runner::{overhead_ns, topo, Scale};

/// Runs the three ablation reports.
pub fn run(scale: &Scale) -> Vec<Report> {
    vec![sense_layout(scale), padding_fanin(scale), hybrid(scale)]
}

/// Ablation 1: SENSE with counter+sense packed (libgomp) vs separated.
fn sense_layout(scale: &Scale) -> Report {
    let mut r = Report::new(
        "Ablation — SENSE flag layout (us)",
        &["platform", "threads", "packed (libgomp)", "separate lines", "packing cost"],
    );
    let separate_lines = |arena: &mut Arena, p: usize, t: &Topology| -> Box<dyn Barrier> {
        Box::new(SenseBarrier::separate_lines(arena, p, t))
    };
    for platform in Platform::ARM {
        let t = topo(platform);
        for p in [16usize, 32, 64] {
            let packed = sim_overhead(&t, p, &AlgorithmId::Sense, scale.cfg(0)).unwrap();
            let separate = sim_overhead(&t, p, &separate_lines, scale.cfg(0)).unwrap();
            r.row(vec![
                t.name().to_string(),
                p.to_string(),
                us(packed),
                us(separate),
                format!("{:.2}x", packed / separate),
            ]);
        }
    }
    r.note("separating the generation word from the counter removes the");
    r.note("arrival-invalidates-spinners false sharing but not the hot counter.");
    r
}

/// Ablation 2: fan-in 4 with and without padding, against fan-in 8.
fn padding_fanin(scale: &Scale) -> Report {
    let pool = SweepPool::ambient();
    let mut r = Report::new(
        "Ablation — padding x fan-in interaction at 64 threads (us)",
        &["platform", "packed f=4", "padded f=4", "packed f=8", "padded f=8"],
    );
    for platform in Platform::ARM {
        let t = topo(platform);
        let cell = |f: usize, padded: bool| {
            overhead_ns(
                &pool,
                &t,
                64,
                &FwayConfig { fanin: Fanin::Fixed(f), padded_flags: padded, ..FwayConfig::stour() },
                scale,
            )
        };
        r.row(vec![
            t.name().to_string(),
            us(cell(4, false)),
            us(cell(4, true)),
            us(cell(8, false)),
            us(cell(8, true)),
        ]);
    }
    r.note("padding and the fan-in choice compose: 4 stays optimal in both");
    r.note("layouts, and padding helps more at the wider fan-in (more siblings");
    r.note("share a line when packed).");
    r
}

/// Ablation 3: the HYBRID extension vs the paper's optimized barrier.
fn hybrid(scale: &Scale) -> Report {
    let pool = SweepPool::ambient();
    let mut r = Report::new(
        "Ablation — HYBRID (cluster counters + tournament) vs OPT at 64 threads (us)",
        &["platform", "HYBRID", "OPT", "TOUR", "verdict"],
    );
    for platform in Platform::ARM {
        let t = topo(platform);
        let hybrid = sim_overhead(&t, 64, &AlgorithmId::Hybrid, scale.cfg(0)).unwrap();
        let opt = overhead_ns(&pool, &t, 64, &AlgorithmId::Optimized, scale);
        let tour = overhead_ns(&pool, &t, 64, &AlgorithmId::Tournament, scale);
        let verdict = if hybrid < opt { "HYBRID wins" } else { "OPT wins" };
        r.row(vec![t.name().to_string(), us(hybrid), us(opt), us(tour), verdict.to_string()]);
    }
    r.note("the hybrid replaces the static intra-cluster rounds with one atomic");
    r.note("counter per cluster; the atomics surcharge usually cancels the");
    r.note("level it saves.");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sense_packing_costs_extra() {
        let r = sense_layout(&Scale::quick());
        // At 64 threads the packed layout must be at least as expensive.
        for row in r.rows.iter().filter(|row| row[1] == "64") {
            let ratio: f64 = row[4].trim_end_matches('x').parse().unwrap();
            assert!(ratio >= 1.0, "{row:?}");
        }
    }

    #[test]
    fn padding_helps_in_both_fanins() {
        let r = padding_fanin(&Scale::quick());
        for row in &r.rows {
            let packed4: f64 = row[1].parse().unwrap();
            let padded4: f64 = row[2].parse().unwrap();
            assert!(padded4 <= packed4 * 1.02, "{row:?}");
        }
    }

    #[test]
    fn hybrid_is_competitive_but_not_reported_as_winner_blindly() {
        let r = hybrid(&Scale::quick());
        assert_eq!(r.rows.len(), 3);
        for row in &r.rows {
            let h: f64 = row[1].parse().unwrap();
            let tour: f64 = row[3].parse().unwrap();
            // The extension must at least be in the same class as TOUR.
            assert!(h < tour * 2.0, "{row:?}");
        }
    }
}
