//! The benchmark's own checks: every output check can fail, and one seed
//! always gives the same inputs and outputs. Run with
//! `cargo test --release` (the serve test drives a full two-million-episode
//! pass).

use crate::explore::{self, Explore};
use crate::reference::{committed, Reference};
use crate::serve::Serve;
use crate::sim::{kilocore_cells, paper_cells, Sims};
use crate::trace::Tracer;
use crate::workload::{Checker, OpLog, PassCtx, Workload};

/// Runs one pass of `w` for `variant`, returning the output lines it would
/// write to a reference.
fn outputs(variant: u64, w: &mut impl FnMut(&mut PassCtx<'_>)) -> Vec<String> {
    let mut checker = Checker::Record(Vec::new());
    let mut log = OpLog::default();
    let mut tracer = Tracer::new(false);
    w(&mut PassCtx { variant, tracer: &mut tracer, checker: &mut checker, log: &mut log });
    assert!(log.attempted > 0);
    let Checker::Record(lines) = checker else { unreachable!() };
    lines
}

/// Each output line matches the committed reference, and perturbing any
/// one of `fields` in the reference makes it fail.
fn assert_checks_bite(workload: &str, lines: &[String], fields: &[&str]) {
    let text = committed(workload);
    for line in lines {
        let mut parts = line.splitn(3, ' ');
        let (v, key, actual) =
            (parts.next().unwrap(), parts.next().unwrap(), parts.next().unwrap());
        let v: u64 = v.parse().unwrap();
        assert!(
            Reference::parse(text).check(v, key, actual),
            "{workload} {key} drifted from its reference"
        );
        for field in fields {
            let mut perturbed = Reference::perturbed(text, field);
            assert!(
                !perturbed.check(v, key, actual),
                "{workload} {key}: perturbed {field} still passes"
            );
        }
    }
}

fn sim_cells() -> Vec<(&'static str, Vec<crate::sim::Cell>)> {
    let paper = paper_cells().into_iter().filter(|c| c.key() == "phytium2000.p16.sense").collect();
    let kilo =
        kilocore_cells().into_iter().filter(|c| c.key() == "mempool-1024.p1024.stour").collect();
    vec![("sim-paper", paper), ("sim-kilocore", kilo)]
}

fn sim_outputs(name: &'static str, cells: &[crate::sim::Cell], variant: u64) -> Vec<String> {
    let mut sims = Sims::setup(name, cells.to_vec(), 1, &mut Tracer::new(false));
    outputs(variant, &mut |cx| sims.pass(0, cx))
}

fn explore_cells() -> Vec<explore::Cell> {
    let mut picked: Vec<explore::Cell> = Vec::new();
    for c in explore::cells() {
        let cheap = c.scenario.is_none_or(|s| s.label() == "leave");
        if cheap && !picked.iter().any(|p| p.family == c.family) {
            picked.push(c);
        }
    }
    assert_eq!(picked.len(), 3);
    picked
}

fn explore_outputs(variant: u64) -> Vec<String> {
    let mut ex = Explore::with_cells(explore_cells(), &mut Tracer::new(false));
    outputs(variant, &mut |cx| ex.pass(0, cx))
}

#[test]
fn sim_checks_fail_on_perturbed_references() {
    for (name, cells) in sim_cells() {
        let lines = sim_outputs(name, &cells, 0);
        assert_eq!(lines.len(), 1);
        assert_checks_bite(name, &lines, &["hash", "overhead_ns", "events"]);
    }
}

#[test]
fn explore_checks_fail_on_perturbed_references() {
    let lines = explore_outputs(0);
    assert_eq!(lines.len(), 3);
    assert_checks_bite("explore", &lines, &["trials", "distinct", "violations"]);
}

#[test]
fn serve_checks_fail_on_perturbed_references() {
    let mut serve = Serve::setup(0, 1, &mut Tracer::new(false));
    let lines = outputs(0, &mut |cx| serve.pass(0, cx));
    assert_eq!(lines.len(), 1);
    let fields = ["episodes", "arrivals", "proxy", "drops", "not_ok", "digest"];
    assert_checks_bite("serve-zipf", &lines, &fields);
}

#[test]
fn same_seed_gives_identical_outputs() {
    for (name, cells) in sim_cells() {
        assert_eq!(sim_outputs(name, &cells, 3), sim_outputs(name, &cells, 3), "{name}");
        assert_ne!(sim_outputs(name, &cells, 3), sim_outputs(name, &cells, 4), "{name}");
    }
    assert_eq!(explore_outputs(5), explore_outputs(5));
    assert_eq!(crate::serve::inputs(2), crate::serve::inputs(2));
    assert_ne!(crate::serve::inputs(2), crate::serve::inputs(3));
}
