//! Committed reference outputs and the per-op check against them.
//!
//! A reference file holds one line per op kind and input variant:
//! `<variant> <key> <field>=<value> ...`. The benchmark renders each op's
//! output in the same form; an op passes when its rendering equals the
//! reference. References are compiled into the binary, so a run reads no
//! files, and `--write-reference` regenerates them from the current code.

use std::collections::HashMap;

/// Number of input variants; `--seed` selects variant `seed % VARIANTS`.
pub const VARIANTS: u64 = 8;

/// The committed reference text of `workload`.
pub fn committed(workload: &str) -> &'static str {
    match workload {
        "sim-paper" => include_str!("../reference/sim-paper.txt"),
        "sim-kilocore" => include_str!("../reference/sim-kilocore.txt"),
        "explore" => include_str!("../reference/explore.txt"),
        "serve-zipf" => include_str!("../reference/serve-zipf.txt"),
        _ => panic!("no reference for workload {workload:?}"),
    }
}

/// Where `--write-reference` puts the file for `workload`.
pub fn path(workload: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join(format!("{workload}.txt"))
}

/// Renders an op output as `field=value` pairs.
pub fn render(fields: &[(&str, String)]) -> String {
    fields.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ")
}

pub struct Reference {
    expected: HashMap<(u64, String), String>,
    /// Mismatches already reported (each is printed once).
    reported: std::collections::HashSet<(u64, String)>,
}

impl Reference {
    pub fn parse(text: &str) -> Self {
        let mut expected = HashMap::new();
        for line in text.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')) {
            let mut parts = line.splitn(3, ' ');
            let (Some(v), Some(key), Some(rest)) = (parts.next(), parts.next(), parts.next())
            else {
                panic!("malformed reference line {line:?}");
            };
            let variant = v.parse().unwrap_or_else(|_| panic!("bad variant in {line:?}"));
            expected.insert((variant, key.to_string()), rest.to_string());
        }
        Self { expected, reported: Default::default() }
    }

    /// Does `actual` match the reference of (`variant`, `key`)? A missing
    /// reference is a mismatch.
    pub fn check(&mut self, variant: u64, key: &str, actual: &str) -> bool {
        let want = self.expected.get(&(variant, key.to_string()));
        let ok = want.is_some_and(|w| w == actual);
        if !ok && self.reported.insert((variant, key.to_string())) {
            eprintln!(
                "CHECK FAILED variant {variant} {key}: got {actual:?}, expected {:?}",
                want.map(String::as_str).unwrap_or("<no reference>")
            );
        }
        ok
    }

    /// A copy with the last digit of `field` changed in every line — the
    /// perturbation the tests use to show a check can fail.
    #[cfg(test)]
    pub fn perturbed(text: &str, field: &str) -> Self {
        let mut out = String::new();
        for line in text.lines() {
            let mut l = line.to_string();
            if let Some(at) = l.find(&format!(" {field}=")) {
                let start = at + field.len() + 2;
                let end = l[start..].find(' ').map_or(l.len(), |e| start + e);
                let last = end - 1;
                let c = l.as_bytes()[last];
                let flipped = if c == b'0' { '1' } else { '0' };
                l.replace_range(last..end, &flipped.to_string());
            }
            out.push_str(&l);
            out.push('\n');
        }
        Self::parse(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_matches_exact_rendering_only() {
        let mut r = Reference::parse("# comment\n3 cell.a hash=00ff events=12\n");
        assert!(r.check(3, "cell.a", "hash=00ff events=12"));
        assert!(!r.check(3, "cell.a", "hash=00ff events=13"));
        assert!(!r.check(2, "cell.a", "hash=00ff events=12"));
        assert!(!r.check(3, "cell.b", "hash=00ff events=12"));
    }

    #[test]
    fn perturbation_changes_only_the_named_field() {
        let text = "0 k a=10 b=7\n";
        let mut r = Reference::perturbed(text, "b");
        assert!(r.check(0, "k", "a=10 b=0"));
        let mut r = Reference::perturbed(text, "a");
        assert!(r.check(0, "k", "a=11 b=7"));
    }
}
