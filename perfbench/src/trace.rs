//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around its calls into each
//! layer (the program itself is not instrumented). A span's layer is its
//! name up to the first `.`; its self time is its duration minus the time
//! its direct children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Parent id of a root span.
const ROOT: u32 = u32::MAX;

/// One closed (or still open, `end_ns == 0`) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u64,
}

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<u32>;

pub struct Tracer {
    enabled: bool,
    origin: u64,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: crate::clock::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        crate::clock::since(self.origin)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        self.spans.push(Span { name, start_ns: self.now_ns(), end_ns: 0, parent, op });
        self.open.push(id);
        Some(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time (s) summed per layer.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            *out.entry(layer).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Tab-separated dump: id, name, start, end, parent (-1 for roots), op.
    pub fn to_tsv(&self) -> String {
        let mut s = String::from("id\tname\tstart_ns\tend_ns\tparent\top\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = if sp.parent == ROOT { -1 } else { i64::from(sp.parent) };
            let _ = writeln!(
                s,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                sp.name, sp.start_ns, sp.end_ns, sp.op
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            Span { name: "bench.pass", start_ns: 0, end_ns: 100, parent: ROOT, op: 0 },
            Span { name: "simcoh.run", start_ns: 10, end_ns: 70, parent: 0, op: 0 },
            Span { name: "core.build", start_ns: 75, end_ns: 95, parent: 0, op: 1 },
        ];
        let st = t.self_time_by_layer();
        assert_eq!(st["bench"], 20e-9);
        assert_eq!(st["simcoh"], 60e-9);
        assert_eq!(st["core"], 20e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("bench.pass", 0);
        t.end(s);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let mut t = Tracer::new(true);
        let a = t.begin("bench.pass", 0);
        let b = t.begin("simcoh.run", 1);
        t.end(b);
        t.end(a);
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[0].parent, ROOT);
        assert!(t.to_tsv().lines().count() == 3);
    }
}
