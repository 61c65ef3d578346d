//! Rendering of conformance results: CSV (with a `#`-prefixed provenance
//! header) and JSON. No wall-clock values appear anywhere, so equal
//! configurations yield byte-identical output at any worker count.

use crate::checker::{ConformCell, ConformConfig};

/// Renders cells as CSV. The provenance header records everything needed
/// to replay the table.
pub fn render_csv(cells: &[ConformCell], cfg: &ConformConfig) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# conform: base seed {:#x}, seeds/cell {}, episodes {}, threads {}, \
         budget {}, rbudget {} (p={}), preempt {}, delay {} (max {} ns)\n",
        cfg.base_seed,
        cfg.seeds,
        cfg.episodes,
        cfg.threads,
        cfg.explorer.budget,
        cfg.explorer.reorder_budget,
        cfg.explorer.reorder_prob,
        cfg.explorer.preempt_prob,
        cfg.explorer.delay_prob,
        cfg.explorer.max_delay_ns,
    ));
    out.push_str("platform,threads,algorithm,trials,distinct_schedules,violations,status,detail\n");
    for c in cells {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
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
pub fn render_json(cells: &[ConformCell], cfg: &ConformConfig) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"base_seed\": {},\n", cfg.base_seed));
    out.push_str(&format!("  \"seeds_per_cell\": {},\n", cfg.seeds));
    out.push_str(&format!("  \"episodes\": {},\n", cfg.episodes));
    out.push_str(&format!("  \"threads\": {},\n", cfg.threads));
    out.push_str(&format!("  \"budget\": {},\n", cfg.explorer.budget));
    out.push_str(&format!("  \"reorder_budget\": {},\n", cfg.explorer.reorder_budget));
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"platform\": \"{}\", \"threads\": {}, \"algorithm\": \"{}\", \
             \"trials\": {}, \"distinct_schedules\": {}, \"status\": \"{}\", \
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
