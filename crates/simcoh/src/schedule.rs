//! Pluggable interleaving control for the discrete-event engine.
//!
//! PR 4's heap scheduler made the interleaving decision a single point:
//! whenever the engine may make progress it picks one posted-but-unprocessed
//! operation and executes it. A [`SchedulePolicy`] externalizes that pick.
//! The default (no policy installed) remains the virtual-time heap order and
//! is byte-identical to the pre-hook engine; a policy opts a run into
//! *explored* scheduling, where any ready operation may be chosen — or
//! delayed — regardless of its virtual timestamp.
//!
//! ## Why arbitrary picks are sound
//!
//! Each simulated thread has at most one outstanding operation (the
//! handoff protocol enforces program order per thread), so executing
//! ready operations in *any* order yields a sequentially consistent
//! interleaving of the program — exactly the set of executions a barrier
//! must survive. What a non-default order gives up is the *cost model*:
//! virtual timestamps stop being globally consistent (an op may observe the
//! effects of a later-stamped op), so explored runs are for correctness
//! checking, not for latency measurement. This is the simulator-level
//! analogue of schedule-bounding stress search — systematic within
//! sequential consistency, and deliberately weaker than weak-memory model
//! checking (see `DESIGN.md` §12).
//!
//! Policies are consulted only at decision points and must be deterministic
//! functions of their own state — a seeded policy makes the whole run a pure
//! function of `(topology, seed, program, policy)`, so any violation found
//! replays bit-for-bit.

use crate::arena::Addr;

/// What kind of operation a ready thread has posted — enough for a policy
/// to target synchronization-relevant sites (flag writes, spin entries)
/// without seeing values or predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadyOpKind {
    /// A plain load.
    Read,
    /// A store.
    Write,
    /// An atomic read-modify-write.
    Rmw,
    /// Entry into a (possibly batched) spin-wait.
    Spin,
    /// An operation with no memory effect (mark, clock read, counter
    /// snapshot).
    Free,
}

/// One posted-but-unprocessed operation offered to a [`SchedulePolicy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadyOp {
    /// The posting thread.
    pub tid: usize,
    /// The thread's virtual time at the post (its scheduler key).
    pub time_ns: f64,
    /// Operation class.
    pub kind: ReadyOpKind,
    /// Target address (first watched address for batched waits; `None` for
    /// [`ReadyOpKind::Free`] operations).
    pub addr: Option<Addr>,
}

/// Memory-ordering annotation on a load (see `DESIGN.md` §15).
///
/// `Acquire` loads always read the committed coherence state and discard the
/// thread's stale-value cache; `Relaxed` loads may (policy permitting) return
/// a value the thread observed earlier, modeling a read satisfied before an
/// invalidation arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadOrder {
    /// `ldar`-style load-acquire: fresh read, orders subsequent accesses.
    Acquire,
    /// Plain `ldr`: may be satisfied early from stale local state.
    Relaxed,
}

/// Memory-ordering annotation on a store (see `DESIGN.md` §15).
///
/// `Release` stores drain the thread's store buffer (in FIFO order) and then
/// commit immediately; `Relaxed` stores may (policy permitting) sit in the
/// thread's store buffer and commit late.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOrder {
    /// `stlr`-style store-release: flushes the buffer, commits now.
    Release,
    /// Plain `str`: may be buffered and commit after later operations.
    Relaxed,
}

/// Class of a weak-memory decision point offered to a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeakOpKind {
    /// A relaxed store that may be deferred into the thread's store buffer.
    RelaxedStore,
    /// A relaxed load for which a stale previously-observed value exists.
    RelaxedLoad,
}

/// One weak-memory decision point: the engine is about to execute a relaxed
/// operation and offers the policy the chance to weaken it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeakOp {
    /// The executing thread.
    pub tid: usize,
    /// Target address.
    pub addr: Addr,
    /// Which weakening is on offer.
    pub kind: WeakOpKind,
}

/// A policy's verdict for one weak-memory decision point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeakDecision {
    /// Execute with sequentially consistent semantics (commit the store now /
    /// read the committed value).
    Strong,
    /// Take the weak behavior (buffer the store / return the stale value).
    Weak,
}

/// A policy's verdict for one decision point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScheduleDecision {
    /// Execute `ready[i]` now.
    Run(usize),
    /// Push `ready[index]` `ns` nanoseconds into the future and decide
    /// again. The delay advances the thread's clock (and counts against the
    /// run's op budget, so delay loops cannot live-lock the engine).
    Delay {
        /// Index into the offered `ready` slice.
        index: usize,
        /// Non-negative, finite delay in virtual ns.
        ns: f64,
    },
}

/// Chooses which ready operation the engine processes next.
///
/// Installed per run via `SimBuilder::schedule_policy`. The engine protects
/// itself against misbehaving policies: out-of-range indices and
/// non-finite/negative delays fall back to the oldest ready op — a policy
/// can therefore bias the search but never wedge or crash the engine.
pub trait SchedulePolicy: Send {
    /// Picks the next action given every ready operation, sorted by
    /// `(time_ns, tid)` (times compared with `total_cmp`). `ready` is
    /// non-empty.
    ///
    /// The engine consults policies only at *settlement points* — no thread
    /// is executing user code, so the ready set is complete and canonical
    /// (host scheduling cannot perturb it). The slice is the engine's own
    /// ready list, which it keeps in this order as operations are posted,
    /// so offering it costs nothing per decision.
    fn pick(&mut self, ready: &[ReadyOp]) -> ScheduleDecision;

    /// Decides whether one relaxed operation takes its weak behavior.
    ///
    /// Consulted only in policy mode, only for operations annotated relaxed,
    /// and (for loads) only when a stale value is actually available. The
    /// default keeps every operation strong, so policies that never override
    /// this — including every pre-weak policy — reproduce sequentially
    /// consistent execution byte-for-byte.
    fn weak(&mut self, _op: &WeakOp) -> WeakDecision {
        WeakDecision::Strong
    }
}

/// The scheduler's order on ready ops: `(time, tid)`, times compared with
/// `total_cmp` — the default heap's order exactly.
pub(crate) fn ready_order(a: &ReadyOp, b: &ReadyOp) -> std::cmp::Ordering {
    a.time_ns.total_cmp(&b.time_ns).then(a.tid.cmp(&b.tid))
}

/// Index of the oldest ready op — minimum `(time, tid)` key, matching the
/// default heap order exactly.
pub fn oldest_index(ready: &[ReadyOp]) -> usize {
    let mut best = 0;
    for (i, r) in ready.iter().enumerate().skip(1) {
        if ready_order(r, &ready[best]).is_lt() {
            best = i;
        }
    }
    best
}

/// Reference policy reproducing the engine's default order: always run the
/// oldest ready op. Since the engine decides only when no thread runs, that
/// is exactly the op the default scheduler would process next. Exists to
/// prove the policy-mode engine path is semantically identical to the
/// default path — see the `policy_mode_matches_default` tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinTimePolicy;

impl SchedulePolicy for MinTimePolicy {
    fn pick(&mut self, ready: &[ReadyOp]) -> ScheduleDecision {
        ScheduleDecision::Run(oldest_index(ready))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(tid: usize, t: f64) -> ReadyOp {
        ReadyOp { tid, time_ns: t, kind: ReadyOpKind::Write, addr: Some(0) }
    }

    #[test]
    fn oldest_index_orders_by_time_then_tid() {
        assert_eq!(oldest_index(&[op(0, 5.0), op(1, 3.0)]), 1);
        assert_eq!(oldest_index(&[op(2, 3.0), op(1, 3.0)]), 1);
        assert_eq!(oldest_index(&[op(0, 0.0)]), 0);
    }

    #[test]
    fn min_time_policy_runs_the_oldest() {
        let mut p = MinTimePolicy;
        assert_eq!(p.pick(&[op(3, 10.0)]), ScheduleDecision::Run(0));
        assert_eq!(p.pick(&[op(3, 10.0), op(1, 10.0), op(0, 12.0)]), ScheduleDecision::Run(1));
    }
}
