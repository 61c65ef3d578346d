//! What every workload provides, and the state its passes share.

use crate::reference::Reference;
use crate::stats::Metrics;
use crate::trace::Tracer;

/// Per-op outcomes of a run: host latency samples and check results.
#[derive(Debug, Default)]
pub struct OpLog {
    pub samples_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
}

impl OpLog {
    /// Counts `ops` ops that passed (`ok`) or failed their check together.
    pub fn record(&mut self, ops: u64, ok: bool) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
        }
    }
}

/// Where op outputs go: checked against a reference, or collected as the
/// lines of a new one.
pub enum Checker {
    Check(Reference),
    Record(Vec<String>),
}

impl Checker {
    pub fn verify(&mut self, variant: u64, key: &str, actual: &str) -> bool {
        match self {
            Checker::Check(r) => r.check(variant, key, actual),
            Checker::Record(lines) => {
                lines.push(format!("{variant} {key} {actual}"));
                true
            }
        }
    }
}

/// Everything a pass writes to.
pub struct PassCtx<'a> {
    pub variant: u64,
    pub tracer: &'a mut Tracer,
    pub checker: &'a mut Checker,
    pub log: &'a mut OpLog,
}

pub trait Workload: Sized + Send {
    /// Builds everything `passes` timed passes need (topologies, barriers,
    /// registries, teams) and warms up; the benchmark's set-up time.
    fn setup(variant: u64, passes: usize, tracer: &mut Tracer) -> Self;

    /// Host latency samples one pass records (reserved up front, so the
    /// sample buffer's growth does not vary the peak resident set).
    fn samples_per_pass(&self) -> usize;

    /// Runs pass number `pass`, timing and checking every op.
    fn pass(&mut self, pass: usize, cx: &mut PassCtx<'_>);

    /// Per-layer metrics of what the traced passes recorded.
    fn layer_metrics(&self, metrics: &mut Metrics);
}
