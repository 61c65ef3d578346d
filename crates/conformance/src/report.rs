//! Rendering of conformance results: CSV (with a `#`-prefixed provenance
//! header) and JSON, one renderer pair for the fixed-membership and the
//! phaser matrices alike. No wall-clock values appear anywhere, so equal
//! configurations yield byte-identical output at any worker count.

use armbar_faults::Scenario;

use crate::checker::{ConformCell, ConformConfig};
use crate::phaser::PhaserConformConfig;

/// What a rendered table says about the configuration it was checked
/// under. The fixed-membership and phaser matrices differ only here: in
/// the provenance line, in one JSON header field, and in the phaser's
/// `scenario` column.
pub trait TableConfig {
    /// Whether cells are keyed by a churn scenario as well.
    const SCENARIO: bool;
    /// The CSV's `#`-prefixed provenance line: everything needed to
    /// replay the table.
    fn provenance(&self) -> String;
    /// The JSON document's header fields, in order.
    fn json_header(&self) -> [(&'static str, u64); 6];
}

impl TableConfig for ConformConfig {
    const SCENARIO: bool = false;
    fn provenance(&self) -> String {
        let e = &self.explorer;
        format!(
            "# conform: base seed {:#x}, seeds/cell {}, episodes {}, threads {}, \
             budget {}, rbudget {} (p={}), preempt {}, delay {} (max {} ns)\n",
            self.base_seed,
            self.seeds,
            self.episodes,
            self.threads,
            e.budget,
            e.reorder_budget,
            e.reorder_prob,
            e.preempt_prob,
            e.delay_prob,
            e.max_delay_ns,
        )
    }
    fn json_header(&self) -> [(&'static str, u64); 6] {
        [
            ("base_seed", self.base_seed),
            ("seeds_per_cell", self.seeds.into()),
            ("episodes", self.episodes.into()),
            ("threads", self.threads as u64),
            ("budget", self.explorer.budget.into()),
            ("reorder_budget", self.explorer.reorder_budget.into()),
        ]
    }
}

impl TableConfig for PhaserConformConfig {
    const SCENARIO: bool = true;
    fn provenance(&self) -> String {
        let e = &self.explorer;
        format!(
            "# conform-phasers: base seed {:#x}, seeds/cell {}, episodes {}, threads {}, \
             budget {}, rbudget {} (p={}), max polls {}\n",
            self.base_seed,
            self.seeds,
            self.episodes,
            self.threads,
            e.budget,
            e.reorder_budget,
            e.reorder_prob,
            self.max_polls,
        )
    }
    fn json_header(&self) -> [(&'static str, u64); 6] {
        [
            ("base_seed", self.base_seed),
            ("seeds_per_cell", self.seeds.into()),
            ("episodes", self.episodes.into()),
            ("threads", self.threads as u64),
            ("max_polls", self.max_polls),
            ("reorder_budget", self.explorer.reorder_budget.into()),
        ]
    }
}

/// Renders cells as CSV under `cfg`'s provenance header.
pub fn render_csv<C: TableConfig>(cells: &[ConformCell], cfg: &C) -> String {
    let mut out = cfg.provenance();
    let scenario = if C::SCENARIO { "scenario," } else { "" };
    out.push_str(&format!(
        "platform,threads,algorithm,{scenario}trials,distinct_schedules,violations,status,detail\n"
    ));
    for c in cells {
        let scenario = if C::SCENARIO {
            format!("{},", c.scenario.map_or("", Scenario::label))
        } else {
            String::new()
        };
        out.push_str(&format!(
            "{},{},{},{scenario}{},{},{},{},{}\n",
            c.platform.label(),
            c.threads,
            c.algorithm.label(),
            c.trials,
            c.distinct_schedules,
            c.violations.len(),
            c.status(),
            c.detail().replace(',', ";")
        ));
    }
    out
}

/// Renders cells as a JSON document (same fields as the CSV, plus the full
/// shrunk reproducer per violation).
pub fn render_json<C: TableConfig>(cells: &[ConformCell], cfg: &C) -> String {
    let mut out = String::from("{\n");
    for (key, value) in cfg.json_header() {
        out.push_str(&format!("  \"{key}\": {value},\n"));
    }
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let scenario = if C::SCENARIO {
            format!("\"scenario\": \"{}\", ", c.scenario.map_or("", Scenario::label))
        } else {
            String::new()
        };
        out.push_str(&format!(
            "    {{\"platform\": \"{}\", \"threads\": {}, \"algorithm\": \"{}\", \
             {scenario}\"trials\": {}, \"distinct_schedules\": {}, \"status\": \"{}\", \
             \"violations\": [",
            c.platform.label(),
            c.threads,
            c.algorithm.label(),
            c.trials,
            c.distinct_schedules,
            c.status(),
        ));
        for (j, v) in c.violations.iter().enumerate() {
            out.push_str(&format!(
                "{{\"kind\": \"{}\", \"seed\": {}, \"budget\": {}, \"reorder_budget\": {}, \
                 \"episodes\": {}, \"detail\": \"{}\"}}{}",
                v.kind,
                v.seed,
                v.budget,
                v.reorder_budget,
                v.episodes,
                v.detail.replace('"', "'"),
                if j + 1 < c.violations.len() { ", " } else { "" }
            ));
        }
        out.push_str(&format!("]}}{}\n", if i + 1 < cells.len() { "," } else { "" }));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{Violation, ViolationKind};
    use armbar_core::AlgorithmId;
    use armbar_topology::Platform;

    fn cell(violations: Vec<Violation>) -> ConformCell {
        ConformCell {
            platform: Platform::Kunpeng920,
            algorithm: AlgorithmId::Sense,
            scenario: None,
            threads: 8,
            trials: 10,
            distinct_schedules: 9,
            violations,
        }
    }

    #[test]
    fn csv_has_provenance_and_rows() {
        let cfg = ConformConfig::default();
        let csv = render_csv(&[cell(vec![])], &cfg);
        assert!(csv.starts_with("# conform: base seed 0xc0f0"));
        assert!(csv.contains("platform,threads,algorithm"));
        assert!(csv.contains("Kunpeng920,8,SENSE,10,9,0,ok,9 distinct schedules"));
    }

    #[test]
    fn violations_render_with_reproducer() {
        let cfg = ConformConfig::default();
        let v = Violation {
            kind: ViolationKind::EarlyExit,
            detail: "t1 left early".to_string(),
            seed: 0xBEEF,
            budget: 2,
            reorder_budget: 4,
            episodes: 1,
        };
        let csv = render_csv(&[cell(vec![v.clone()])], &cfg);
        assert!(csv.contains("VIOLATED"));
        assert!(csv.contains("seed 0xbeef budget 2 rbudget 4 episodes 1"));
        let json = render_json(&[cell(vec![v])], &cfg);
        assert!(json.contains("\"kind\": \"early-exit\""));
        assert!(json.contains("\"seed\": 48879"));
        assert!(json.contains("\"reorder_budget\": 4"));
    }
}
