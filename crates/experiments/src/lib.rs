//! # armbar-experiments — the paper's tables and figures, regenerated
//!
//! One module per experiment suite, listed once in [`SUITES`] and run by
//! the `all_experiments` binary (`--only <slug>,...` picks a subset):
//!
//! | Slug | Paper artifact |
//! |---|---|
//! | `tables_1_2_3` | Tables I–III: core-to-core latencies |
//! | `fig05` | Fig. 5: GCC vs LLVM overhead, 32 threads, 4 platforms |
//! | `fig06` | Fig. 6: GCC / LLVM overhead vs thread count |
//! | `fig07` | Fig. 7: seven barrier algorithms vs thread count |
//! | `fig11` | Fig. 11: arrival-flag padding and fixed fan-in |
//! | `fig12` | Fig. 12: wake-up policies |
//! | `fig13` | Fig. 13: fan-in sweep at 64 threads |
//! | `table4` | Table IV: speedups of the optimized barrier |
//! | `model_report` | Eqs. 1–4: optimal fan-in, wake-up crossover |
//! | `ablations` | SENSE layout, padding × fan-in, HYBRID |
//! | `phase_breakdown` | arrival vs notification split per algorithm |
//! | `hotspot` | per-line coherence hot spots |
//! | `kilocore` | beyond the paper: all barriers at P ∈ {256, 1024} |
//! | `churn` | phaser overhead vs membership churn rate |
//! | `crossover` | lock-counter vs SENSE/STOUR, model against simulation |
//!
//! Every experiment function takes a [`Scale`] so integration tests can run
//! the same pipelines at reduced cost, and returns a [`report::Report`]
//! that renders as an aligned ASCII table and serializes to CSV.

pub mod figs;
pub mod report;
pub mod runner;

pub use report::Report;
pub use runner::Scale;

/// One experiment suite: its slug (the `{slug}_{i}.csv` file stem) and the
/// pipeline that produces its reports.
pub type Suite = (&'static str, fn(&Scale) -> Vec<Report>);

/// Every suite, in `all_experiments` order.
pub const SUITES: [Suite; 15] = [
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

/// The suites named in a comma-separated slug list, in [`SUITES`] order.
/// An unknown slug is an error naming it.
pub fn select(slugs: &str) -> Result<Vec<Suite>, String> {
    let wanted: Vec<&str> = slugs.split(',').map(str::trim).collect();
    if let Some(bad) = wanted.iter().find(|w| !SUITES.iter().any(|(slug, _)| slug == *w)) {
        return Err(format!("unknown suite {bad:?}"));
    }
    Ok(SUITES.into_iter().filter(|(slug, _)| wanted.contains(slug)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_are_unique() {
        let mut slugs: Vec<&str> = SUITES.iter().map(|(slug, _)| *slug).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), SUITES.len());
    }

    #[test]
    fn select_keeps_table_order_and_rejects_unknown_slugs() {
        let picked: Vec<&str> =
            select("churn,fig05").unwrap().iter().map(|(slug, _)| *slug).collect();
        assert_eq!(picked, ["fig05", "churn"]);
        assert!(select("fig05,fig99").unwrap_err().contains("fig99"));
        assert!(select("").is_err());
    }
}
