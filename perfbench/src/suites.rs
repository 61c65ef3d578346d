//! The traced run's attribution of `all_experiments --quick`: every suite
//! once at `Scale::quick()`, timed on its own.

use armbar_experiments::{figs, Report, Scale};

use crate::clock;
use crate::stats::Metrics;
use crate::trace::Tracer;
use crate::workload::OpLog;

type Suite = fn(&Scale) -> Vec<Report>;

/// The suites of `all_experiments`, in its order.
const SUITES: [(&str, Suite); 15] = [
    ("tables_1_2_3", figs::tables_1_2_3::run),
    ("fig05", figs::fig05::run),
    ("fig06", figs::fig06::run),
    ("fig07", figs::fig07::run),
    ("fig11", figs::fig11::run),
    ("fig12", figs::fig12::run),
    ("fig13", figs::fig13::run),
    ("table4", figs::table4::run),
    ("model_report", figs::model_report::run),
    ("ablations", figs::ablations::run),
    ("phase_breakdown", figs::phase_breakdown::run),
    ("hotspot", figs::hotspot::run),
    ("kilocore", figs::kilocore::run),
    ("churn", figs::churn::run),
    ("crossover", figs::crossover::run),
];

/// Runs every suite once; a suite that produces no report fails its op.
pub fn run(tracer: &mut Tracer, log: &mut OpLog, metrics: &mut Metrics) {
    let scale = Scale::quick();
    for (i, (slug, suite)) in SUITES.iter().enumerate() {
        let s = tracer.begin("experiments.suite", i as u64);
        let t = clock::now();
        let reports = suite(&scale);
        let secs = clock::secs_since(t);
        tracer.end(s);
        log.record(1, !reports.is_empty() && reports.iter().all(|r| !r.to_csv().is_empty()));
        metrics.push(format!("experiments.suite_s.{slug}"), secs, "s", 1);
    }
}
