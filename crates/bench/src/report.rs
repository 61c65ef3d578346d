//! The one BENCH JSON writer behind `BENCH_sim.json`, `BENCH_churn.json`,
//! `BENCH_serve.json` and `BENCH_host.json`.
//!
//! Document shape:
//!
//! ```json
//! {
//!   "benches": { "serve_episodes_per_sec": 123, ... },
//!   "baseline": { "serve_episodes_per_sec": 120, ... }
//! }
//! ```
//!
//! `benches` is always this run; `baseline` is carried forward from the
//! committed file, with keys new to this run seeded from the fresh
//! measurement so future deltas always have a reference. Values render
//! integral, except wall-clock times (keys with a `secs` or `ms` word, such
//! as `all_experiments_quick_secs`, `quick_secs_fig05` or
//! `topology_preset_ms_mempool1024`), which keep two decimals.
//!
//! [`write`] is the entry point: it prints the delta of the fresh run
//! against the committed file, optionally appends the delta table to a
//! markdown summary (GitHub step-summary format), writes the document,
//! and applies an optional [`Gate`].

use std::io::Write as _;

/// One reported metric: a stable key and its value.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// JSON key (e.g. `serve_episodes_per_sec`).
    pub key: String,
    /// Value; rendered integral unless the key has a `secs` or `ms` word.
    pub value: f64,
}

impl Point {
    /// Convenience constructor.
    pub fn new(key: impl Into<String>, value: f64) -> Self {
        Self { key: key.into(), value }
    }
}

/// A value as the document renders it: two decimals for wall-clock times
/// (keys with a `secs` or `ms` word), integral for everything else.
fn value_text(key: &str, value: f64) -> String {
    let decimals = if key.split('_').any(|w| w == "secs" || w == "ms") { 2 } else { 0 };
    format!("{value:.decimals$}")
}

/// Prefix of exact work counts (`work_stall_records_shy-ctr_p256`): values
/// that are pure functions of seed and program, so they read the same on
/// every host, and a [`Gate`] fails on any change of one.
pub const WORK_PREFIX: &str = "work_";

/// A blocking perf gate: the run fails if any key starting with `prefix`
/// dropped more than `max_drop_pct` percent against the committed file, or
/// if any [`WORK_PREFIX`] key changed at all (a count cannot move on
/// noise; one that moved is re-committed with its reason). Other keys, and
/// the `informational` ones under `prefix`, are reported but never gated.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Key prefix of the gated (higher-is-better) metrics.
    pub prefix: &'static str,
    /// Keys under `prefix` that are reported but not gated.
    pub informational: &'static [&'static str],
    /// Largest tolerated drop, in percent.
    pub max_drop_pct: f64,
}

impl Gate {
    /// The rows of `rows` that break the gate.
    fn failures<'a>(&self, rows: &'a [Delta]) -> Vec<&'a Delta> {
        rows.iter()
            .filter(|d| {
                if d.key.starts_with(WORK_PREFIX) {
                    return d.new != d.old;
                }
                d.key.starts_with(self.prefix)
                    && !self.informational.contains(&d.key.as_str())
                    && -d.change_pct() > self.max_drop_pct
            })
            .collect()
    }
}

/// A key present in both the committed file and this run.
#[derive(Debug, PartialEq)]
struct Delta {
    key: String,
    old: f64,
    new: f64,
}

impl Delta {
    /// Relative change from committed to fresh, in percent.
    fn change_pct(&self) -> f64 {
        (self.new / self.old - 1.0) * 100.0
    }
}

/// Minimal flat-JSON number extraction: finds `"key": <number>` anywhere
/// (first hit wins — `benches` precedes `baseline`).
fn first_number(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let rest = json[at..].trim_start();
    let end = rest.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))?;
    rest[..end].parse().ok()
}

/// Extracts the committed `baseline` section verbatim, if present.
fn baseline_section(json: &str) -> Option<String> {
    let at = json.find("\"baseline\": {")?;
    let open = at + "\"baseline\": ".len();
    let mut depth = 0usize;
    for (i, c) in json[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(json[open..=open + i].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

fn render_section(points: &[Point]) -> String {
    let mut s = String::from("{\n");
    for (i, p) in points.iter().enumerate() {
        let sep = if i + 1 == points.len() { "" } else { "," };
        s.push_str(&format!("    \"{}\": {}{sep}\n", p.key, value_text(&p.key, p.value)));
    }
    s.push_str("  }");
    s
}

/// Renders the full two-section document, carrying `previous`'s baseline
/// forward (new keys seeded from the fresh points).
fn render_doc(points: &[Point], previous: Option<&str>) -> String {
    let old_baseline = previous.and_then(baseline_section);
    let carried: Vec<Point> = points
        .iter()
        .map(|p| {
            let value =
                old_baseline.as_deref().and_then(|o| first_number(o, &p.key)).unwrap_or(p.value);
            Point { key: p.key.clone(), value }
        })
        .collect();
    format!(
        "{{\n  \"benches\": {},\n  \"baseline\": {}\n}}\n",
        render_section(points),
        render_section(&carried)
    )
}

/// One row for every point also present in the committed document's
/// `benches` section.
fn deltas(points: &[Point], previous: &str) -> Vec<Delta> {
    points
        .iter()
        .filter_map(|p| {
            let old = first_number(previous, &p.key)?;
            Some(Delta { key: p.key.clone(), old, new: p.value })
        })
        .collect()
}

/// The step-summary markdown table for a set of deltas (falls back to a
/// committed-less table when `rows` is empty).
fn summary_markdown(title: &str, points: &[Point], rows: &[Delta]) -> String {
    let mut md =
        format!("## {title}\n\n| key | committed | this run | delta |\n|---|---:|---:|---:|\n");
    if rows.is_empty() {
        for p in points {
            md.push_str(&format!("| `{}` | _none_ | {} | |\n", p.key, value_text(&p.key, p.value)));
        }
    } else {
        for d in rows {
            let (old, new) = (value_text(&d.key, d.old), value_text(&d.key, d.new));
            md.push_str(&format!("| `{}` | {old} | {new} | {:+.1}% |\n", d.key, d.change_pct()));
        }
    }
    md
}

/// Writes the BENCH document for `points` to `out`, carrying the committed
/// file's baseline forward. Prints the delta table titled `title` against
/// the committed file (and appends it to `summary` when given); returns
/// `false` if `gate` is given and fails.
pub fn write(
    out: &str,
    points: &[Point],
    title: &str,
    summary: Option<&str>,
    gate: Option<Gate>,
) -> bool {
    let previous = std::fs::read_to_string(out).ok();
    let rows = previous.as_deref().map(|p| deltas(points, p)).unwrap_or_default();
    let md = summary_markdown(title, points, &rows);
    eprint!("{md}");
    if let Some(path) = summary {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(md.as_bytes()))
            .expect("failed to append the summary file");
    }
    std::fs::write(out, render_doc(points, previous.as_deref()))
        .unwrap_or_else(|e| panic!("failed to write {out}: {e}"));
    eprintln!("wrote {out}");

    let failures = gate.map(|g| g.failures(&rows)).unwrap_or_default();
    for d in &failures {
        if d.key.starts_with(WORK_PREFIX) {
            eprintln!("PERF GATE FAIL {}: exact count {} != committed {}", d.key, d.new, d.old);
        } else {
            eprintln!("PERF GATE FAIL {}: {:.1}% below committed", d.key, -d.change_pct());
        }
    }
    failures.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts() -> Vec<Point> {
        vec![Point::new("serve_episodes_per_sec", 1_500_000.0), Point::new("serve_teams", 10_000.0)]
    }

    /// The `benches` section of a committed document, as points.
    fn benches(doc: &str) -> Vec<Point> {
        let at = doc.find("\"benches\": {").expect("benches section");
        let body = &doc[at..doc[at..].find('}').map(|e| at + e).unwrap()];
        body.lines()
            .skip(1)
            .filter(|line| !line.trim().is_empty())
            .map(|line| {
                let (key, value) = line.trim().trim_end_matches(',').split_once(": ").unwrap();
                Point::new(key.trim_matches('"'), value.parse().unwrap())
            })
            .collect()
    }

    fn scratch_file(name: &str, contents: &str) -> String {
        let path = std::env::temp_dir()
            .join(format!("armbar-bench-{}-{name}", std::process::id()))
            .to_string_lossy()
            .into_owned();
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn fresh_doc_seeds_baseline_from_run() {
        let doc = render_doc(&pts(), None);
        let base = baseline_section(&doc).expect("baseline present");
        assert_eq!(first_number(&base, "serve_episodes_per_sec"), Some(1_500_000.0));
        assert_eq!(first_number(&doc, "serve_teams"), Some(10_000.0));
    }

    #[test]
    fn baseline_carries_forward_and_new_keys_seed_fresh() {
        let first = render_doc(&pts(), None);
        let mut next = pts();
        next[0].value = 2_000_000.0; // faster run must not move the baseline
        next.push(Point::new("serve_p99_episode_ns", 900.0)); // new key
        let doc = render_doc(&next, Some(&first));
        let base = baseline_section(&doc).expect("baseline present");
        assert_eq!(first_number(&base, "serve_episodes_per_sec"), Some(1_500_000.0));
        assert_eq!(first_number(&base, "serve_p99_episode_ns"), Some(900.0));
        // benches section always reflects this run (first hit wins).
        assert_eq!(first_number(&doc, "serve_episodes_per_sec"), Some(2_000_000.0));
    }

    #[test]
    fn deltas_pair_committed_with_fresh() {
        let first = render_doc(&pts(), None);
        let mut next = pts();
        next[1].value = 20_000.0;
        let d = deltas(&next, &first);
        assert!(d.contains(&Delta { key: "serve_teams".into(), old: 10_000.0, new: 20_000.0 }));
    }

    #[test]
    fn summary_markdown_has_header_and_rows() {
        let rows = vec![Delta { key: "serve_teams".into(), old: 10_000.0, new: 11_000.0 }];
        let md = summary_markdown("Serve load", &pts(), &rows);
        assert!(md.contains("## Serve load"));
        assert!(md.contains("| `serve_teams` | 10000 | 11000 | +10.0% |"));
        let md_empty = summary_markdown("Serve load", &pts(), &[]);
        assert!(md_empty.contains("_none_"));
    }

    #[test]
    fn only_seconds_keys_keep_decimals() {
        assert_eq!(value_text("all_experiments_quick_secs", 8.466), "8.47");
        assert_eq!(value_text("quick_secs_kilocore", 3.014), "3.01");
        assert_eq!(value_text("topology_preset_ms_mempool1024", 7.916), "7.92");
        assert_eq!(value_text("engine_ops_per_sec_sense_p16", 3257889.4), "3257889");
    }

    #[test]
    fn work_keys_fail_the_gate_on_any_change() {
        let key = "work_stall_records_shy-ctr_p256";
        let mut points = pts();
        points.push(Point::new(key, 4_520_761.0));
        let committed = render_doc(&points, None);
        let gate =
            Some(Gate { prefix: "engine_ops_per_sec_", informational: &[], max_drop_pct: 20.0 });
        let with = |value: f64| -> Vec<Point> {
            points
                .iter()
                .map(|p| if p.key == key { Point::new(key, value) } else { p.clone() })
                .collect()
        };
        for (value, passes) in [(4_520_761.0, true), (4_520_762.0, false), (4_520_760.0, false)] {
            let out = scratch_file("work-key.json", &committed);
            assert_eq!(write(&out, &with(value), "t", None, gate), passes, "{key} = {value}");
            std::fs::remove_file(&out).unwrap();
        }
    }

    #[test]
    fn committed_bench_files_round_trip_byte_for_byte() {
        for committed in [
            include_str!("../../../BENCH_sim.json"),
            include_str!("../../../BENCH_churn.json"),
            include_str!("../../../BENCH_serve.json"),
            include_str!("../../../BENCH_host.json"),
        ] {
            let points = benches(committed);
            assert!(!points.is_empty());
            assert_eq!(render_doc(&points, Some(committed)), committed);
        }
    }

    #[test]
    fn gate_fails_engine_drops_and_ignores_informational_keys() {
        let committed = include_str!("../../../BENCH_sim.json");
        let gate = Some(Gate {
            prefix: "engine_ops_per_sec_",
            informational: &["engine_ops_per_sec_sense_p16"],
            max_drop_pct: 20.0,
        });
        let scaled = |key: &str, factor: f64| -> Vec<Point> {
            benches(committed)
                .into_iter()
                .map(|p| if p.key == key { Point::new(p.key, p.value * factor) } else { p })
                .collect()
        };

        let out = scratch_file("engine-drop.json", committed);
        assert!(!write(&out, &scaled("engine_ops_per_sec_sense_p64", 0.75), "t", None, gate));
        std::fs::remove_file(&out).unwrap();

        let out = scratch_file("informational-drop.json", committed);
        assert!(write(&out, &scaled("engine_ops_per_sec_sense_p16", 0.5), "t", None, gate));
        std::fs::remove_file(&out).unwrap();

        let out = scratch_file("quick-rise.json", committed);
        assert!(write(&out, &scaled("all_experiments_quick_secs", 1.25), "t", None, gate));
        // The written file keeps the committed format (2-decimal seconds;
        // the per-suite keys follow the total).
        let quick = first_number(committed, "all_experiments_quick_secs").unwrap();
        let doc = std::fs::read_to_string(&out).unwrap();
        assert!(doc.contains(&format!("\"all_experiments_quick_secs\": {:.2},\n", quick * 1.25)));
        std::fs::remove_file(&out).unwrap();
    }
}
