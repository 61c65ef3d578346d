//! Order statistics, metric records and the result line.

use std::fmt::Write as _;

/// Tail samples a reported percentile must leave beyond it before it is
/// trusted (fewer makes it the noise of a handful of ops).
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `q` of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice or `q` outside `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q)]
}

/// Index of the nearest-rank `q` percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "percentile {q} outside (0, 1]");
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly beyond the `q` percentile of `n` samples.
pub fn tail_count(n: usize, q: f64) -> usize {
    n - 1 - rank(n, q)
}

/// Median of unsorted values (upper median for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Whether `name` is a valid metric name: 1–64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Lower-case identifier for a display label (`"Phytium 2000+"` →
/// `"phytium2000"`, `"STOUR-pad"` → `"stour-pad"`).
pub fn slug(label: &str) -> String {
    label
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || *c == '-')
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement).
    pub samples: usize,
}

/// An ordered set of metrics, rejecting duplicate or malformed names.
#[derive(Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        let name = name.into();
        assert!(valid_name(&name), "invalid metric name {name:?}");
        assert!(self.0.iter().all(|m| m.name != name), "duplicate metric {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push(Metric { name, value, unit, samples });
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }

    /// Human-readable table: name, value, unit and sample count.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for m in &self.0 {
            let _ = writeln!(s, "{:<44} {:>16.6} {:<6} n={}", m.name, m.value, m.unit, m.samples);
        }
        s
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0 && attempted > 0
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit);
    }
    s.push_str("}}");
    s
}

/// Summary of per-op host latencies: median, p90, p99 (µs).
pub fn op_latency_metrics(metrics: &mut Metrics, samples_ns: &[u64]) {
    let mut us: Vec<f64> = samples_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    us.sort_by(f64::total_cmp);
    let n = us.len();
    for (name, q) in [("op_p50_us", 0.5), ("op_p90_us", 0.9), ("op_p99_us", 0.99)] {
        if tail_count(n, q) < MIN_TAIL {
            eprintln!("note: {name} has only {} samples beyond it", tail_count(n, q));
        }
        metrics.push(name, percentile(&us, q), "us", n);
    }
}

/// Peak resident set of this process (`VmHWM`), in KiB.
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM:")
}

/// Current resident set of this process (`VmRSS`), in KiB.
pub fn rss_kb() -> u64 {
    status_kb("VmRSS:")
}

fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"))
}

/// FNV-1a over a byte string, continuing from `h`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_counts_decide_which_percentiles_are_trusted() {
        // p90 of 100 samples leaves exactly 10 beyond it; p99 needs 1000.
        assert_eq!(tail_count(100, 0.9), 10);
        assert_eq!(tail_count(99, 0.9), 9);
        assert_eq!(tail_count(100, 0.99), 1);
        assert_eq!(tail_count(1000, 0.99), 10);
        assert_eq!(tail_count(1, 0.5), 0);
        let trusted = |n| tail_count(n, 0.99) >= MIN_TAIL;
        assert!(!trusted(999));
        assert!(trusted(1000));
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for ok in ["setup_s", "simcoh.run_ms.sense-p1024", "experiments.suite_s.tables_1_2_3"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "-lead", ".lead", "has space", "p99/us", "ü", long.as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert_eq!(slug("Phytium 2000+"), "phytium2000");
        assert_eq!(slug("STOUR-pad"), "stour-pad");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn metrics_reject_bad_names() {
        Metrics::default().push("bad name", 1.0, "s", 1);
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.push("run_s", 1.5, "s", 1);
        let line = result_json(3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"run_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        assert!(result_json(3, 1, &m).starts_with("{\"correct\": false"));
    }
}
