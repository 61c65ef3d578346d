//! Run statistics: virtual completion times, operation counts, user marks.

/// Kind of a simulated memory operation, for accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Read satisfied from the local cache (`R_L`, cost ε).
    LocalRead,
    /// Read served from a remote cache (`R_R`, cost `L_i`).
    RemoteRead,
    /// Store or atomic RMW that already owned the line (`W_L`).
    LocalWrite,
    /// Store or atomic RMW that had to acquire the line (`W_R`).
    RemoteWrite,
    /// A `spin_until` that blocked and was woken by a write.
    SpinWakeup,
    /// Pure local compute (`compute_ns`).
    Compute,
}

impl OpKind {
    /// All kinds, for iteration in reports.
    pub const ALL: [OpKind; 6] = [
        OpKind::LocalRead,
        OpKind::RemoteRead,
        OpKind::LocalWrite,
        OpKind::RemoteWrite,
        OpKind::SpinWakeup,
        OpKind::Compute,
    ];
}

/// A user-recorded timestamp (`SimThread::mark`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mark {
    /// Thread that recorded the mark.
    pub tid: usize,
    /// User-chosen label.
    pub label: u32,
    /// Virtual time (ns) at which the mark was recorded.
    pub time_ns: f64,
}

/// Per-cache-line traffic accounting — the "hot spot" evidence (Pfister &
/// Norton) that motivates tree barriers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineTraffic {
    /// Stores and RMWs that committed to this line.
    pub writes: u64,
    /// Total invalidation messages those writes fanned out.
    pub invalidations: u64,
    /// Largest sharer-set size ever invalidated at once.
    pub peak_sharers: u32,
    /// Remote read transfers that pulled this line.
    pub remote_reads: u64,
}

impl LineTraffic {
    /// Whether the line saw a write or a remote read: every record the
    /// engine makes counts one of the two.
    fn seen(&self) -> bool {
        self.writes > 0 || self.remote_reads > 0
    }
}

/// Per-line traffic of a run, dense by line index like the engine's
/// directory, so accounting an op costs an index, not a hash. A line counts
/// as an entry once it saw a write or a remote read; [`len`](Self::len),
/// [`iter`](Self::iter) and indexing see only those.
#[derive(Debug, Clone, Default)]
pub struct LineTrafficTable {
    lines: Vec<LineTraffic>,
    /// Lines with any traffic.
    touched: usize,
}

impl LineTrafficTable {
    /// The record of `line`, created on first use. Every caller then counts
    /// a write or a remote read, so a fresh record is an entry from here on.
    fn entry(&mut self, line: u32) -> &mut LineTraffic {
        let i = line as usize;
        if i >= self.lines.len() {
            self.lines.resize(i + 1, LineTraffic::default());
        }
        let t = &mut self.lines[i];
        if !t.seen() {
            self.touched += 1;
        }
        t
    }

    /// Number of lines with any traffic.
    pub fn len(&self) -> usize {
        self.touched
    }

    /// Whether no line saw any traffic.
    pub fn is_empty(&self) -> bool {
        self.touched == 0
    }

    /// The traffic of `line`, if it saw any.
    pub fn get(&self, line: u32) -> Option<&LineTraffic> {
        self.lines.get(line as usize).filter(|t| t.seen())
    }

    /// `(line, traffic)` of every line with traffic, in line order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &LineTraffic)> {
        self.lines.iter().enumerate().filter(|(_, t)| t.seen()).map(|(i, t)| (i as u32, t))
    }

    /// The traffic of every line with traffic, in line order.
    pub fn values(&self) -> impl Iterator<Item = &LineTraffic> {
        self.iter().map(|(_, t)| t)
    }
}

impl std::ops::Index<&u32> for LineTrafficTable {
    type Output = LineTraffic;

    /// # Panics
    /// Panics when `line` saw no traffic.
    fn index(&self, line: &u32) -> &LineTraffic {
        self.get(*line).unwrap_or_else(|| panic!("line {line} saw no traffic"))
    }
}

/// Per-thread coherence-operation counters, the observable form of the
/// paper's Section III cost model: every simulated memory operation lands in
/// exactly one read/write bucket, and the stall/fan-out fields expose the
/// serialization effects that the latency numbers alone hide.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoherenceCounters {
    /// Reads satisfied from the local cache (`R_L`, cost ε).
    pub local_reads: u64,
    /// Reads served by a remote transfer (`R_R`, cost `L_i`).
    pub remote_reads: u64,
    /// Remote reads that additionally paid reader contention `c·(j−1)`.
    pub reader_contention_events: u64,
    /// Stores/RMWs that already owned the line (`W_L`).
    pub local_writes: u64,
    /// Stores/RMWs that had to acquire ownership remotely (`W_R`).
    pub remote_writes: u64,
    /// Total invalidation messages this thread's writes fanned out (the RFO
    /// crowd cost; a padded-flag layout shrinks this, a packed one inflates
    /// it via false sharing).
    pub rfo_invalidations: u64,
    /// Times a store/RMW found its line busy (a write in flight) and had to
    /// wait for `available_at` — write serialization.
    pub write_stalls: u64,
    /// Virtual ns spent in those write stalls.
    pub write_stall_ns: f64,
    /// Times a read/spin found its line busy and had to wait.
    pub read_stalls: u64,
    /// Virtual ns spent in those read stalls.
    pub read_stall_ns: f64,
    /// Blocking spin-waits woken by a write.
    pub spin_wakeups: u64,
}

impl CoherenceCounters {
    /// Field-wise accumulation (for totals across threads or episodes).
    pub fn accumulate(&mut self, other: &CoherenceCounters) {
        self.local_reads += other.local_reads;
        self.remote_reads += other.remote_reads;
        self.reader_contention_events += other.reader_contention_events;
        self.local_writes += other.local_writes;
        self.remote_writes += other.remote_writes;
        self.rfo_invalidations += other.rfo_invalidations;
        self.write_stalls += other.write_stalls;
        self.write_stall_ns += other.write_stall_ns;
        self.read_stalls += other.read_stalls;
        self.read_stall_ns += other.read_stall_ns;
        self.spin_wakeups += other.spin_wakeups;
    }

    /// Field-wise difference (`self − earlier`), for per-episode deltas
    /// between two snapshots of monotonically growing counters.
    ///
    /// # Panics
    /// Panics in debug builds if `earlier` is not component-wise ≤ `self`.
    pub fn delta_since(&self, earlier: &CoherenceCounters) -> CoherenceCounters {
        CoherenceCounters {
            local_reads: self.local_reads - earlier.local_reads,
            remote_reads: self.remote_reads - earlier.remote_reads,
            reader_contention_events: self.reader_contention_events
                - earlier.reader_contention_events,
            local_writes: self.local_writes - earlier.local_writes,
            remote_writes: self.remote_writes - earlier.remote_writes,
            rfo_invalidations: self.rfo_invalidations - earlier.rfo_invalidations,
            write_stalls: self.write_stalls - earlier.write_stalls,
            write_stall_ns: self.write_stall_ns - earlier.write_stall_ns,
            read_stalls: self.read_stalls - earlier.read_stalls,
            read_stall_ns: self.read_stall_ns - earlier.read_stall_ns,
            spin_wakeups: self.spin_wakeups - earlier.spin_wakeups,
        }
    }

    /// All memory operations (reads + writes, excluding wakeups/stalls
    /// which are attributes of those operations rather than extra ones).
    pub fn total_mem_ops(&self) -> u64 {
        self.local_reads + self.remote_reads + self.local_writes + self.remote_writes
    }
}

/// One thread's busy-line stall counters as the engine accumulates them:
/// 32 dense bytes per thread, apart from the wider [`CoherenceCounters`],
/// so a write storm that re-posts thousands of stalls touches only these.
/// [`RunStats::set_stalls`] copies them into the coherence counters
/// whenever something reads those.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StallCounters {
    write_stalls: u64,
    write_stall_ns: f64,
    read_stalls: u64,
    read_stall_ns: f64,
}

impl StallCounters {
    /// Accounts `ns` of virtual time spent waiting for a busy line
    /// (`write` selects write- vs read-side serialization).
    #[inline]
    pub(crate) fn record(&mut self, write: bool, ns: f64) {
        if write {
            self.write_stalls += 1;
            self.write_stall_ns += ns;
        } else {
            self.read_stalls += 1;
            self.read_stall_ns += ns;
        }
    }
}

/// Snapshot of the per-thread coherence counters of a run.
#[derive(Debug, Clone, Default)]
pub struct CoherenceStats {
    per_thread: Vec<CoherenceCounters>,
}

impl CoherenceStats {
    pub(crate) fn new(nthreads: usize) -> Self {
        Self { per_thread: vec![CoherenceCounters::default(); nthreads] }
    }

    pub(crate) fn thread_mut(&mut self, tid: usize) -> &mut CoherenceCounters {
        &mut self.per_thread[tid]
    }

    /// Counters of each thread, indexed by tid.
    pub fn per_thread(&self) -> &[CoherenceCounters] {
        &self.per_thread
    }

    /// Counters of one thread.
    pub fn thread(&self, tid: usize) -> &CoherenceCounters {
        &self.per_thread[tid]
    }

    /// Sum over all threads.
    pub fn total(&self) -> CoherenceCounters {
        let mut acc = CoherenceCounters::default();
        for c in &self.per_thread {
            acc.accumulate(c);
        }
        acc
    }
}

/// Folds one scheduling event into an order fingerprint (see
/// [`RunStats::mix_schedule`]).
#[inline]
pub(crate) fn fold_schedule(hash: u64, tag: u64, payload: u64) -> u64 {
    let mut z = hash
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tag)
        .wrapping_add(payload.rotate_left(17));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Statistics of one completed simulation run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    per_thread_time_ns: Vec<f64>,
    /// `compute_ns` ops; every other [`OpKind`] is counted in `coherence`.
    compute_ops: u64,
    marks: Vec<Mark>,
    line_traffic: LineTrafficTable,
    coherence: CoherenceStats,
    schedule_hash: u64,
    fiber_switches: Option<u64>,
}

impl RunStats {
    pub(crate) fn new(nthreads: usize) -> Self {
        Self {
            per_thread_time_ns: vec![0.0; nthreads],
            compute_ops: 0,
            marks: Vec::new(),
            line_traffic: LineTrafficTable::default(),
            coherence: CoherenceStats::new(nthreads),
            schedule_hash: 0,
            fiber_switches: None,
        }
    }

    /// Folds one scheduling event into the run's order fingerprint
    /// (SplitMix64-style finalizer over the running hash and the event).
    /// Called once per processed op — and per injected delay — so two runs
    /// share a hash only if the engine made the same decisions in the same
    /// order.
    pub(crate) fn mix_schedule(&mut self, tag: u64, payload: u64) {
        self.schedule_hash = fold_schedule(self.schedule_hash, tag, payload);
    }

    /// Replaces the order fingerprint: a caller that folds a batch of
    /// events with [`fold_schedule`] in a local stores the result here.
    pub(crate) fn set_schedule_hash(&mut self, hash: u64) {
        self.schedule_hash = hash;
    }

    pub(crate) fn set_fiber_switches(&mut self, n: u64) {
        self.fiber_switches = Some(n);
    }

    pub(crate) fn set_thread_time(&mut self, tid: usize, t: f64) {
        self.per_thread_time_ns[tid] = t;
    }

    pub(crate) fn count_compute(&mut self, n: u64) {
        self.compute_ops += n;
    }

    pub(crate) fn push_mark(&mut self, m: Mark) {
        self.marks.push(m);
    }

    /// Accounts one read by `tid` of `line` (per-thread coherence
    /// counters, per-line traffic).
    pub(crate) fn record_read(&mut self, tid: usize, line: u32, local: bool, contended: bool) {
        let c = self.coherence.thread_mut(tid);
        if local {
            c.local_reads += 1;
        } else {
            c.remote_reads += 1;
            if contended {
                c.reader_contention_events += 1;
            }
            self.line_traffic.entry(line).remote_reads += 1;
        }
    }

    /// Accounts one committed write by `tid` to `line` that invalidated
    /// `invalidated` other sharers.
    pub(crate) fn record_write(&mut self, tid: usize, line: u32, remote: bool, invalidated: usize) {
        let c = self.coherence.thread_mut(tid);
        if remote {
            c.remote_writes += 1;
        } else {
            c.local_writes += 1;
        }
        c.rfo_invalidations += invalidated as u64;
        let t = self.line_traffic.entry(line);
        t.writes += 1;
        t.invalidations += invalidated as u64;
        t.peak_sharers = t.peak_sharers.max(invalidated as u32);
    }

    /// Sets each thread's stall fields to the engine's [`StallCounters`]
    /// (an assignment: the engine writes those fields nowhere else, so the
    /// values keep the bits of the same adds made in place).
    pub(crate) fn set_stalls(&mut self, stalls: &[StallCounters]) {
        for (c, s) in self.coherence.per_thread.iter_mut().zip(stalls) {
            c.write_stalls = s.write_stalls;
            c.write_stall_ns = s.write_stall_ns;
            c.read_stalls = s.read_stalls;
            c.read_stall_ns = s.read_stall_ns;
        }
    }

    /// Accounts `ns` of virtual time `tid` spent waiting for a busy line
    /// (`write` selects write- vs read-side serialization) in place. The
    /// engine accumulates stalls in [`StallCounters`] instead.
    #[cfg(test)]
    pub(crate) fn record_stall(&mut self, tid: usize, write: bool, ns: f64) {
        let c = self.coherence.thread_mut(tid);
        if write {
            c.write_stalls += 1;
            c.write_stall_ns += ns;
        } else {
            c.read_stalls += 1;
            c.read_stall_ns += ns;
        }
    }

    /// Accounts one blocking spin-wait of `tid` woken by a write.
    pub(crate) fn record_spin_wakeup(&mut self, tid: usize) {
        self.coherence.thread_mut(tid).spin_wakeups += 1;
    }

    /// Virtual completion time of each thread, in ns.
    pub fn per_thread_time_ns(&self) -> &[f64] {
        &self.per_thread_time_ns
    }

    /// Virtual time at which the last thread finished — the makespan.
    pub fn max_time_ns(&self) -> f64 {
        self.per_thread_time_ns.iter().copied().fold(0.0, f64::max)
    }

    /// Number of operations of a kind across all threads: a sum over the
    /// per-thread [`coherence`](Self::coherence) counters, except for
    /// [`OpKind::Compute`], which they do not count.
    pub fn ops(&self, kind: OpKind) -> u64 {
        let field: fn(&CoherenceCounters) -> u64 = match kind {
            OpKind::LocalRead => |c| c.local_reads,
            OpKind::RemoteRead => |c| c.remote_reads,
            OpKind::LocalWrite => |c| c.local_writes,
            OpKind::RemoteWrite => |c| c.remote_writes,
            OpKind::SpinWakeup => |c| c.spin_wakeups,
            OpKind::Compute => return self.compute_ops,
        };
        self.coherence.per_thread.iter().map(field).sum()
    }

    /// Total memory operations (excluding compute).
    pub fn total_mem_ops(&self) -> u64 {
        OpKind::ALL.iter().filter(|k| !matches!(k, OpKind::Compute)).map(|&k| self.ops(k)).sum()
    }

    /// All marks, in the order they were committed in virtual time.
    pub fn marks(&self) -> &[Mark] {
        &self.marks
    }

    /// Per-line write/invalidation traffic, keyed by line index
    /// (`addr / line_bytes`).
    pub fn line_traffic(&self) -> &LineTrafficTable {
        &self.line_traffic
    }

    /// Per-thread coherence-op counters accumulated over the run.
    pub fn coherence(&self) -> &CoherenceStats {
        &self.coherence
    }

    /// The `n` most-written lines, descending — the hot spots.
    pub fn hottest_lines(&self, n: usize) -> Vec<(u32, LineTraffic)> {
        let mut v: Vec<(u32, LineTraffic)> =
            self.line_traffic.iter().map(|(k, &t)| (k, t)).collect();
        v.sort_by(|a, b| b.1.writes.cmp(&a.1.writes).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// Fraction of all committed writes that landed on the single hottest
    /// line — 1.0 means a perfect hot spot (centralized barrier), values
    /// near `1/lines` mean the traffic is spread (trees).
    pub fn hotspot_concentration(&self) -> f64 {
        let total: u64 = self.line_traffic.values().map(|t| t.writes).sum();
        if total == 0 {
            return 0.0;
        }
        let max = self.line_traffic.values().map(|t| t.writes).max().unwrap_or(0);
        max as f64 / total as f64
    }

    /// Order fingerprint of the run's scheduling decisions. Runs that
    /// processed the same operations in the same order (with the same
    /// injected delays) share a hash; the conformance checker counts
    /// distinct hashes to report how many genuinely different interleavings
    /// a search explored. Identical for repeated runs of one seed.
    pub fn schedule_hash(&self) -> u64 {
        self.schedule_hash
    }

    /// Context switches the fiber transport made to run this simulation,
    /// into and out of its driver included; `None` on the OS-thread
    /// transport. Like the op counts, a pure function of seed and program:
    /// the same on every host and in every run.
    pub fn fiber_switches(&self) -> Option<u64> {
        self.fiber_switches
    }

    /// The latest time at which any thread recorded `label` — useful for
    /// "everyone passed episode k" timestamps.
    pub fn last_mark_time(&self, label: u32) -> Option<f64> {
        self.marks
            .iter()
            .filter(|m| m.label == label)
            .map(|m| m.time_ns)
            .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.max(t))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_time_is_max() {
        let mut s = RunStats::new(3);
        s.set_thread_time(0, 5.0);
        s.set_thread_time(1, 9.0);
        s.set_thread_time(2, 2.0);
        assert_eq!(s.max_time_ns(), 9.0);
    }

    #[test]
    fn op_counting_accumulates() {
        let mut s = RunStats::new(2);
        s.record_read(0, 4, false, false);
        s.record_read(1, 4, false, true);
        s.record_write(1, 4, false, 0);
        assert_eq!(s.ops(OpKind::RemoteRead), 2);
        assert_eq!(s.ops(OpKind::LocalWrite), 1);
        assert_eq!(s.ops(OpKind::RemoteWrite), 0);
        assert_eq!(s.total_mem_ops(), 3);
    }

    #[test]
    fn compute_not_a_mem_op() {
        let mut s = RunStats::new(1);
        s.count_compute(1);
        assert_eq!(s.ops(OpKind::Compute), 1);
        assert_eq!(s.total_mem_ops(), 0);
    }

    #[test]
    fn coherence_counters_track_reads_writes_and_stalls() {
        let mut s = RunStats::new(2);
        s.record_read(0, 7, true, false);
        s.record_read(1, 7, false, true);
        s.record_write(1, 7, true, 3);
        s.record_stall(0, true, 12.5);
        s.record_stall(0, false, 2.5);
        s.record_spin_wakeup(1);

        let c0 = s.coherence().thread(0);
        assert_eq!(c0.local_reads, 1);
        assert_eq!(c0.write_stalls, 1);
        assert_eq!(c0.write_stall_ns, 12.5);
        assert_eq!(c0.read_stalls, 1);
        assert_eq!(c0.read_stall_ns, 2.5);

        let c1 = s.coherence().thread(1);
        assert_eq!(c1.remote_reads, 1);
        assert_eq!(c1.reader_contention_events, 1);
        assert_eq!(c1.remote_writes, 1);
        assert_eq!(c1.rfo_invalidations, 3);
        assert_eq!(c1.spin_wakeups, 1);

        // The aggregate op counts stay consistent with the per-thread view.
        assert_eq!(s.ops(OpKind::LocalRead), 1);
        assert_eq!(s.ops(OpKind::RemoteRead), 1);
        assert_eq!(s.ops(OpKind::RemoteWrite), 1);
        assert_eq!(s.ops(OpKind::SpinWakeup), 1);
        let total = s.coherence().total();
        assert_eq!(total.total_mem_ops(), 3);
        assert_eq!(total.rfo_invalidations, 3);

        // Line traffic picked up the read side too.
        let t = s.line_traffic()[&7];
        assert_eq!(t.writes, 1);
        assert_eq!(t.invalidations, 3);
        assert_eq!(t.remote_reads, 1);
    }

    #[test]
    fn line_traffic_lists_only_lines_with_writes_or_remote_reads() {
        let mut s = RunStats::new(1);
        s.record_read(0, 3, true, false);
        assert!(s.line_traffic().is_empty());
        s.record_write(0, 9, false, 0);
        s.record_read(0, 5, false, false);
        s.record_write(0, 9, true, 2);
        let traffic = s.line_traffic();
        assert_eq!(traffic.len(), 2);
        assert_eq!(traffic.get(3), None);
        assert_eq!(traffic.get(100), None);
        let lines: Vec<u32> = traffic.iter().map(|(k, _)| k).collect();
        assert_eq!(lines, [5, 9]);
        assert_eq!((traffic[&9].writes, traffic[&9].peak_sharers), (2, 2));
        assert_eq!(s.hottest_lines(1)[0].0, 9);
        assert_eq!(s.hotspot_concentration(), 1.0);
    }

    #[test]
    fn coherence_delta_between_snapshots() {
        let mut s = RunStats::new(1);
        s.record_write(0, 1, false, 0);
        let before = s.coherence().total();
        s.record_write(0, 1, true, 5);
        s.record_read(0, 2, false, false);
        let after = s.coherence().total();
        let d = after.delta_since(&before);
        assert_eq!(d.local_writes, 0);
        assert_eq!(d.remote_writes, 1);
        assert_eq!(d.rfo_invalidations, 5);
        assert_eq!(d.remote_reads, 1);
    }

    #[test]
    fn last_mark_time_filters_by_label() {
        let mut s = RunStats::new(2);
        s.push_mark(Mark { tid: 0, label: 1, time_ns: 10.0 });
        s.push_mark(Mark { tid: 1, label: 1, time_ns: 30.0 });
        s.push_mark(Mark { tid: 0, label: 2, time_ns: 50.0 });
        assert_eq!(s.last_mark_time(1), Some(30.0));
        assert_eq!(s.last_mark_time(2), Some(50.0));
        assert_eq!(s.last_mark_time(3), None);
    }
}
