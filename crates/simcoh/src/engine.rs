//! The discrete-event engine: deterministic execution of real thread bodies
//! with per-operation coherence costing.
//!
//! Simulated threads are stackful fibers multiplexed on the calling thread
//! (the default; see the `fiber` module) or OS threads (the fallback
//! transport, and what explicit [`SimTeam`](crate::team::SimTeam) runs
//! use). Either way each [`SimThread`] operation is a handoff to the
//! engine, which processes operations in virtual-time order (ties broken
//! by thread id). Host scheduling therefore cannot influence results: a
//! run is a pure function of `(topology, seed, program)` — identical bytes
//! under both transports.
//!
//! ## One heap and the stall queue
//!
//! Running and ready threads share one indexed heap keyed `(time, tid)`
//! (the `sched` module): a thread enters it when it resumes user code and
//! stays in it while it posts and while its op is processed, each step an
//! in-place rekey. An op that finds its line busy leaves the heap for a
//! stall queue of per-time runs, which a write storm fills and drains at
//! O(1) per op. The engine processes the heap's root iff it is ready, or
//! the stall queue's head iff it sorts below the root. When a run's first
//! loser re-stalls, the losers behind it on the same line are re-posted in
//! one pass and the stretch moves to the line's next release as one block,
//! with the same per-op accounting in the same order. The pass reads each
//! op from the stall record `step` wrote when it queued the op, and adds to
//! dense per-thread stall counters that are copied into the coherence
//! counters whenever those are read, so a re-posted stall costs little
//! more than its fold into the schedule hash; see `DESIGN.md` §13.
//!
//! ## Cooperative scheduling
//!
//! There is no dedicated scheduler thread. The engine state lives inside one
//! mutex, and whichever worker posts an operation runs the engine *inline*
//! under that lock until no further operation is processable. The scheduling
//! rule exploits a lookahead invariant: a thread that is executing user code
//! ("running") will post its next operation at exactly its current
//! engine-known virtual time, so the minimal ready op can be processed as
//! soon as its `(time, tid)` key is smaller than every running thread's key
//! — *without* waiting for global settlement. Keys are unique per thread,
//! so in the one heap that is "the root is ready". The processing order is
//! provably identical to a lock-step "wait for all, pick the minimum"
//! scheduler, but a serial phase (one thread strictly ahead of the rest)
//! executes with zero context switches: the worker posts, services its own
//! operation, and continues.
//!
//! Replies travel through per-thread lock-free cells (a sequence counter
//! plus a slot); a blocked simulated thread resumes via one fiber switch
//! (straight from the fiber that blocks to the next runnable one) on the
//! fiber transport or `thread::unpark` on the OS transport — receipt never
//! touches the lock, and pending wakeups are deferred until the engine lock
//! is released so a woken worker never piles onto a held mutex. State
//! tables, the per-line traffic counters included, are dense `Vec`s
//! indexed by arena-derived word/line slots rather than hash maps; the
//! directory's sharer sets are `⌈nthreads/64⌉` words wide (the `line`
//! module), so an op copies no set and reads only its nonzero words — see
//! `DESIGN.md` §11 for the performance numbers.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use armbar_topology::{CoreId, LayerId, RmwOp, Topology};

use crate::arena::{Addr, Arena};
use crate::error::{DeadlockWaiter, SimError, WaitKind};
use crate::line::{set, Line, SetTable};
use crate::rng::SplitMix64;
use crate::sched::{Sched, SchedKey, TimeKey};
use crate::schedule::{
    oldest_index, ready_order, LoadOrder, ReadyOp, ReadyOpKind, ScheduleDecision, SchedulePolicy,
    StoreOrder, WeakDecision, WeakOp, WeakOpKind,
};
use crate::stats::{fold_schedule, CoherenceCounters, Mark, OpKind, RunStats, StallCounters};

/// Typed panic payload used to tear down worker threads when the simulation
/// aborts (deadlock, budget exhaustion). Recognized and swallowed by the
/// worker wrapper; never reported as a user panic.
pub(crate) struct AbortSignal;

/// Saturation point of the per-extra-sharer invalidation charge. Real
/// interconnects multicast invalidations; the serialization at the network
/// controller grows with the crowd only up to a point. Without this cap a
/// centralized barrier would cost Θ(P²·inv_ns), whereas measurements (the
/// paper's Figures 5–6) show near-linear growth from 32 to 64 threads.
const INV_FANOUT_CAP: usize = 16;

/// Iterations a worker spins on its reply cell before parking. Only used on
/// multi-core hosts, where the engine can publish the reply concurrently; on
/// a single-core host nothing can progress while we spin, so workers park
/// immediately (see [`spin_replies`]).
const REPLY_SPIN_LIMIT: u32 = 64;

/// Deferred-compute accumulator cap: after this many lazily-buffered
/// `compute_ns` calls the thread posts a heartbeat op, so a compute-only
/// infinite loop still trips the operation budget instead of hanging.
const DEFERRED_COMPUTE_FLUSH: u64 = 1024;

/// Whether spinning on the reply cell can ever help: only when another core
/// could be running the engine concurrently.
fn spin_replies() -> bool {
    static SPIN: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *SPIN.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()) > 1)
}

enum OpReq {
    Load(Addr, LoadOrder),
    Store(Addr, u32, StoreOrder),
    FetchAdd(Addr, u32),
    /// Compare-exchange `(addr, current, new)`: stores `new` iff the word
    /// equals `current`; replies with the previous value either way.
    CmpXchg(Addr, u32, u32),
    /// Wait until the word satisfies an `Eq`/`Ge` condition.
    SpinUntil(Addr, WaitKind),
    /// Wait until every listed word is ≥ the epoch. The fetches of the
    /// involved lines overlap (memory-level parallelism), unlike a chain of
    /// `SpinUntil`s.
    SpinUntilAllGe(Vec<Addr>, u32),
    Mark(u32),
    Now,
    /// Zero-cost snapshot of the machine-wide coherence counters.
    Counters,
    /// Full barrier (`dmb ish`): drains the thread's store buffer and
    /// discards its stale-value cache. A no-op outside weak mode.
    Fence,
    /// Atomic exchange `(addr, new)`: stores `new` unconditionally and
    /// replies with the previous value (ARMv8.1 `SWP`).
    Swap(Addr, u32),
}

enum Reply {
    Value(u32),
    /// A batched wait completed; hands its address list back for reuse.
    Watch(Vec<Addr>),
    TimeNs(f64),
    Counters(Box<CoherenceCounters>),
    Abort,
}

/// Classifies a pending op for a [`SchedulePolicy`] (kind + target address;
/// no values or wait conditions leak to the policy).
fn describe_op(op: &OpReq) -> (ReadyOpKind, Option<Addr>) {
    match op {
        OpReq::Load(a, _) => (ReadyOpKind::Read, Some(*a)),
        OpReq::Store(a, _, _) => (ReadyOpKind::Write, Some(*a)),
        OpReq::FetchAdd(a, _) => (ReadyOpKind::Rmw, Some(*a)),
        OpReq::CmpXchg(a, _, _) => (ReadyOpKind::Rmw, Some(*a)),
        OpReq::Swap(a, _) => (ReadyOpKind::Rmw, Some(*a)),
        OpReq::SpinUntil(a, _) => (ReadyOpKind::Spin, Some(*a)),
        OpReq::SpinUntilAllGe(addrs, _) => (ReadyOpKind::Spin, addrs.first().copied()),
        OpReq::Mark(_) | OpReq::Now | OpReq::Counters | OpReq::Fence => (ReadyOpKind::Free, None),
    }
}

/// The one address a memory op touches; `None` for multi-address waits and
/// ops that touch no memory.
fn single_addr(op: &OpReq) -> Option<Addr> {
    match op {
        OpReq::Load(a, _)
        | OpReq::Store(a, _, _)
        | OpReq::FetchAdd(a, _)
        | OpReq::CmpXchg(a, _, _)
        | OpReq::Swap(a, _)
        | OpReq::SpinUntil(a, _) => Some(*a),
        OpReq::SpinUntilAllGe(..)
        | OpReq::Mark(_)
        | OpReq::Now
        | OpReq::Counters
        | OpReq::Fence => None,
    }
}

/// Whether a stall of `op` counts as a write stall.
fn is_write(op: &OpReq) -> bool {
    matches!(op, OpReq::Store(..) | OpReq::FetchAdd(..) | OpReq::CmpXchg(..) | OpReq::Swap(..))
}

/// Small distinct tag per op class for the schedule fingerprint.
fn op_tag(op: &OpReq) -> u8 {
    match op {
        OpReq::Load(..) => 1,
        OpReq::Store(..) => 2,
        OpReq::FetchAdd(..) => 3,
        OpReq::SpinUntil(..) => 4,
        OpReq::SpinUntilAllGe(..) => 5,
        OpReq::Mark(_) => 6,
        OpReq::Now => 7,
        OpReq::Counters => 8,
        OpReq::CmpXchg(..) => 9,
        // Appended (never reordered) so pre-weak schedule fingerprints are
        // unchanged for programs that issue no fences.
        OpReq::Fence => 10,
        // Appended in PR 10: fingerprints of swap-free programs are
        // unchanged.
        OpReq::Swap(..) => 11,
    }
}

/// Blocked spin-waiters, indexed for the wake path. Each registration
/// carries a sequence number: the seq defines the global wake order (the
/// registration order) and guards slot reuse — a stale `(seq, slot)`
/// index entry whose slot was recycled no longer matches.
///
/// Registrations are indexed by *word*: a write can only satisfy waiters
/// watching the word it changed (every blocked waiter is unsatisfied at
/// the current values), so the sweep evaluates that word's bucket alone.
/// The per-line spinner sets carry what a write does to every other
/// waiter on its line: they re-fetch it and rejoin its sharers.
struct WaiterTable {
    slots: Vec<Option<(u64, Waiter)>>,
    free: Vec<usize>,
    /// Word index (`addr >> 2`) → `(seq, slot)` registrations in seq
    /// (= append) order; may hold stale entries of multi-word waiters
    /// already woken through another word.
    by_word: Vec<Bucket>,
    /// Line key → tids of the blocked waiters watching a word on it.
    spinners: SetTable,
    line_shift: u32,
    next_seq: u64,
}

impl WaiterTable {
    fn new(nthreads: usize, line_shift: u32) -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            by_word: Vec::new(),
            spinners: SetTable::new(nthreads, 0),
            line_shift,
            next_seq: 0,
        }
    }

    /// Registers a waiter under every distinct word it watches and as a
    /// spinner on every line holding one.
    fn register(&mut self, w: Waiter) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.free.pop().unwrap_or(self.slots.len());
        let entry = (seq, slot as u32);
        for &a in w.addrs() {
            set::insert(self.spinners.get_mut((a >> self.line_shift) as usize), w.tid);
            let word = (a >> 2) as usize;
            if word >= self.by_word.len() {
                self.by_word.resize_with(word + 1, Bucket::default);
            }
            self.by_word[word].push(entry);
        }
        if slot == self.slots.len() {
            self.slots.push(Some((seq, w)));
        } else {
            self.slots[slot] = Some((seq, w));
        }
    }

    /// Takes the registration bucket for one word (possibly containing
    /// stale entries for already-woken multi-word waiters); empty when no
    /// waiter ever watched the word.
    fn take_bucket(&mut self, word: u32) -> Bucket {
        match self.by_word.get_mut(word as usize) {
            Some(b) => std::mem::take(b),
            None => Bucket::default(),
        }
    }

    /// Restores the still-blocked entries of a bucket after a wake sweep.
    fn put_bucket(&mut self, word: u32, bucket: Bucket) {
        let i = word as usize;
        debug_assert!(self.by_word[i].is_empty(), "bucket repopulated during wake sweep");
        self.by_word[i] = bucket;
    }

    /// Takes the waiter out of `slot` if it still matches `seq`; the caller
    /// either wakes it (then `release`) or restores it via `restore`.
    fn take_slot(&mut self, slot: u32, seq: u64) -> Option<Waiter> {
        let entry = self.slots.get_mut(slot as usize)?;
        match entry {
            Some((s, _)) if *s == seq => {
                let (_, w) = entry.take().expect("checked above");
                Some(w)
            }
            _ => None,
        }
    }

    /// Puts a still-unsatisfied waiter back into its slot (same seq, so its
    /// other index entries stay valid).
    fn restore(&mut self, slot: u32, seq: u64, w: Waiter) {
        debug_assert!(self.slots[slot as usize].is_none());
        self.slots[slot as usize] = Some((seq, w));
    }

    /// Frees a woken waiter's slot for reuse and drops it from the spinner
    /// sets of its lines.
    fn release(&mut self, slot: u32, w: &Waiter) {
        debug_assert!(self.slots[slot as usize].is_none());
        for &a in w.addrs() {
            set::remove(self.spinners.get_mut((a >> self.line_shift) as usize), w.tid);
        }
        self.free.push(slot as usize);
    }

    /// All blocked waiters in registration order (diagnostics snapshots).
    fn in_order(&self) -> Vec<&Waiter> {
        let mut v: Vec<(u64, &Waiter)> =
            self.slots.iter().flatten().map(|(s, w)| (*s, w)).collect();
        v.sort_unstable_by_key(|&(s, _)| s);
        v.into_iter().map(|(_, w)| w).collect()
    }

    /// Drains every waiter in registration order (abort tear-down).
    fn drain_in_order(&mut self) -> Vec<Waiter> {
        let mut v: Vec<(u64, Waiter)> = self.slots.drain(..).flatten().collect();
        v.sort_unstable_by_key(|&(s, _)| s);
        self.free.clear();
        self.by_word.clear();
        self.spinners.clear();
        v.into_iter().map(|(_, w)| w).collect()
    }
}

/// One word's `(seq, slot)` registrations in seq order. The first sits
/// inline in the word's index entry, so a word watched by one waiter at a
/// time (a DIS or tournament flag) is registered and swept without
/// touching the heap; later ones spill to a `Vec` that keeps its capacity
/// across sweeps. The entry is 40 bytes where a bare `Vec` was 24; boxing
/// the spill `Vec` to keep 24 cost the many-waiter words (a contended
/// lock word) a pointer chase per entry.
struct Bucket {
    /// The first registration; `seq == EMPTY` when the bucket is empty.
    first: (u64, u32),
    more: Vec<(u64, u32)>,
}

impl Default for Bucket {
    fn default() -> Self {
        Self { first: (Self::EMPTY, 0), more: Vec::new() }
    }
}

impl Bucket {
    /// The `seq` of an empty bucket's `first`; no registration reaches it.
    const EMPTY: u64 = u64::MAX;

    fn len(&self) -> usize {
        match self.first.0 {
            Self::EMPTY => 0,
            _ => 1 + self.more.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.first.0 == Self::EMPTY
    }

    /// Appends `e`, unless it already ends the bucket (a waiter that
    /// lists a word twice).
    fn push(&mut self, e: (u64, u32)) {
        if self.is_empty() {
            self.first = e;
        } else if *self.more.last().unwrap_or(&self.first) != e {
            self.more.push(e);
        }
    }

    fn get(&self, i: usize) -> (u64, u32) {
        if i == 0 {
            self.first
        } else {
            self.more[i - 1]
        }
    }

    fn set(&mut self, i: usize, e: (u64, u32)) {
        if i == 0 {
            self.first = e;
        } else {
            self.more[i - 1] = e;
        }
    }

    /// Keeps the first `n` registrations.
    fn truncate(&mut self, n: usize) {
        if n == 0 {
            self.first.0 = Self::EMPTY;
        }
        self.more.truncate(n.saturating_sub(1));
    }
}

/// Per-thread lock-free reply mailbox. The engine (always the lock holder)
/// writes the reply and then bumps `seq` with release ordering; the owning
/// worker observes the bump with acquire ordering and takes the reply
/// without touching the lock. Alignment keeps cells on distinct cache lines
/// so spinning workers do not false-share.
#[repr(align(128))]
struct ReplyCell {
    seq: AtomicU32,
    reply: UnsafeCell<Option<Reply>>,
}

// SAFETY: the cell is a single-producer single-consumer mailbox. Only the
// engine (serialized by the state mutex) writes `reply`, and only while the
// owning worker is provably blocked awaiting it; the owner reads only after
// observing the `seq` bump that the write precedes (release/acquire pair).
unsafe impl Sync for ReplyCell {}

impl ReplyCell {
    fn new() -> Self {
        Self { seq: AtomicU32::new(0), reply: UnsafeCell::new(None) }
    }
}

struct Slot {
    pending: Option<OpReq>,
    finished: bool,
}

/// What the stall-run re-post needs of a thread's stalled op, recorded
/// when `step` files it in the stall queue. A stalled op cannot change, so
/// the record stays valid while the op waits there.
#[derive(Debug, Clone, Copy)]
struct StalledOp {
    /// The op's line key, or [`StalledOp::NO_LINE`] for a multi-address
    /// wait (ops that touch no memory never stall).
    line: u32,
    /// `op_tag` of the op.
    tag: u8,
    /// Whether the stall counts as a write stall.
    write: bool,
}

impl StalledOp {
    /// Above every line key: a line key is an address shifted right by at
    /// least two bits.
    const NO_LINE: u32 = u32::MAX;
    const EMPTY: Self = Self { line: Self::NO_LINE, tag: 0, write: false };
}

struct Waiter {
    tid: usize,
    watch: Watch,
    /// The condition; an `AllGe` waiter is a batched (MLP-overlapped) wait.
    kind: WaitKind,
}

/// The words a blocked waiter watches: an `Eq`/`Ge` wait's one word kept
/// inline, so blocking allocates nothing, or a batched wait's list, handed
/// back to the thread when it wakes.
enum Watch {
    One(Addr),
    Batch(Vec<Addr>),
}

impl Waiter {
    fn addrs(&self) -> &[Addr] {
        match &self.watch {
            Watch::One(a) => std::slice::from_ref(a),
            Watch::Batch(addrs) => addrs,
        }
    }
}

/// The complete mutable episode state, engine tables included. Everything
/// lives behind one mutex so the worker that holds it can both post its
/// operation and run the engine to quiescence.
struct State {
    slots: Vec<Slot>,
    /// The ready/stall/running scheduler of default (heap-order) mode;
    /// empty and unused in policy mode.
    sched: Sched,
    /// Posted-but-unprocessed operations in policy mode, kept sorted by
    /// `(time, tid)` as they are posted — the slice the installed
    /// [`SchedulePolicy`] picks from.
    ready_list: Vec<ReadyOp>,
    /// Policy mode's running set: whether each thread is executing user
    /// code, and how many are. A policy decides only when nobody runs, so
    /// nothing asks for the earliest running key.
    running: Vec<bool>,
    nrunning: usize,
    /// Per-run schedule policy; `None` = default heap order. Taken out of
    /// the state for the duration of a policy engine pass, so routing must
    /// consult `policy_mode`, not this option.
    policy: Option<Box<dyn SchedulePolicy>>,
    /// Whether this run was configured with a policy (stable across the
    /// take/restore in `run_engine_policy`).
    policy_mode: bool,
    /// Blocked spin-waiters, indexed by watched word and line.
    waiters: WaiterTable,
    time: Vec<f64>,
    /// Each thread's last stalled op, read by `repost_run` in place of the
    /// op itself.
    stalled: Vec<StalledOp>,
    /// Each thread's busy-line stall counters; [`RunStats::set_stalls`]
    /// copies them into the coherence counters when anything reads those
    /// (`collect`, `OpReq::Counters`).
    stall_counts: Vec<StallCounters>,
    /// Dense per-line directory headers, indexed `addr >> line_shift`.
    lines: Vec<Line>,
    /// The lines' sharer sets, run-width, indexed like `lines`.
    sharers: SetTable,
    /// Dense word values, indexed `addr >> 2`.
    values: Vec<u32>,
    stats: RunStats,
    rng: SplitMix64,
    ops: u64,
    op_budget: u64,
    /// Machine-wide interconnect serialization point: each remote transfer
    /// occupies the network for `noc_ns`, so all-to-all communication
    /// phases (dissemination) queue here while O(log P)-message tree phases
    /// barely notice.
    noc_available_at: f64,
    /// Threads whose replies were published during the current engine pass.
    /// Their `unpark` is deferred until after the state lock is released, so
    /// a woken worker never immediately blocks on the held mutex (which
    /// would double the context switches per operation).
    wake_list: Vec<usize>,
    finished: usize,
    panics: Vec<(usize, String)>,
    /// Waiter snapshot taken when a body panic tears the run down; attached
    /// to the resulting `ThreadPanic` diagnostic.
    panic_waiters: Vec<DeadlockWaiter>,
    aborted: bool,
    outcome: Option<Result<(), SimError>>,
    /// Bounded ARMv8-style weak-memory state. `Some` only in policy mode —
    /// the default heap engine never buffers or stales, so default runs are
    /// byte-identical to the pre-weak engine. With a policy installed but a
    /// zero reordering budget every decision resolves to
    /// [`WeakDecision::Strong`] and the buffers stay empty, reproducing
    /// sequentially consistent execution exactly.
    weak: Option<WeakMem>,
}

/// Per-thread weak-memory machinery (see `DESIGN.md` §15).
struct WeakMem {
    /// FIFO store buffers: relaxed stores a policy chose to defer, not yet
    /// committed to the coherence state. Drained by release stores, RMWs,
    /// fences, spins watching a buffered address, and the quiescence drain.
    buffers: Vec<std::collections::VecDeque<(Addr, u32)>>,
    /// Stale-value caches: the last value each thread observed per address.
    /// A relaxed load may (policy permitting) be satisfied from here,
    /// modeling a read that completes before an invalidation arrives.
    /// Cleared by acquire loads, RMWs, fences, and spin entries.
    last_seen: Vec<SeenList>,
}

/// The values one thread last observed, by address. A thread observes few
/// words between two clears, so a short list scanned in place beats
/// hashing, and it keeps its capacity across clears: after warm-up it
/// allocates nothing.
#[derive(Default)]
struct SeenList(Vec<(Addr, u32)>);

impl SeenList {
    fn get(&self, addr: Addr) -> Option<u32> {
        self.0.iter().find(|(a, _)| *a == addr).map(|&(_, v)| v)
    }

    fn insert(&mut self, addr: Addr, v: u32) {
        match self.0.iter_mut().find(|(a, _)| *a == addr) {
            Some(seen) => seen.1 = v,
            None => self.0.push((addr, v)),
        }
    }

    fn clear(&mut self) {
        self.0.clear();
    }
}

impl WeakMem {
    fn new(nthreads: usize) -> Self {
        Self {
            buffers: (0..nthreads).map(|_| std::collections::VecDeque::new()).collect(),
            last_seen: (0..nthreads).map(|_| SeenList::default()).collect(),
        }
    }

    /// Youngest buffered value this thread holds for `addr`, if any —
    /// store-to-load forwarding reads from here unconditionally, keeping
    /// each thread's own program order intact.
    fn forwarded(&self, tid: usize, addr: Addr) -> Option<u32> {
        self.buffers[tid].iter().rev().find(|(a, _)| *a == addr).map(|&(_, v)| v)
    }
}

impl State {
    fn new(
        nthreads: usize,
        seed: u64,
        op_budget: u64,
        reserve_bytes: usize,
        line_shift: u32,
        policy: Option<Box<dyn SchedulePolicy>>,
    ) -> Self {
        let policy_mode = policy.is_some();
        Self {
            slots: (0..nthreads).map(|_| Slot { pending: None, finished: false }).collect(),
            // Policy runs keep their own ready list and running flags.
            sched: Sched::new(if policy_mode { 0 } else { nthreads }),
            ready_list: if policy_mode { Vec::with_capacity(nthreads) } else { Vec::new() },
            running: if policy_mode { vec![true; nthreads] } else { Vec::new() },
            nrunning: if policy_mode { nthreads } else { 0 },
            policy,
            policy_mode,
            waiters: WaiterTable::new(nthreads, line_shift),
            time: vec![0.0; nthreads],
            stalled: vec![StalledOp::EMPTY; nthreads],
            stall_counts: vec![StallCounters::default(); nthreads],
            lines: vec![Line::COLD; reserve_bytes.div_ceil(1usize << line_shift)],
            sharers: SetTable::new(nthreads, reserve_bytes.div_ceil(1usize << line_shift)),
            values: vec![0; reserve_bytes.div_ceil(4)],
            stats: RunStats::new(nthreads),
            rng: SplitMix64::new(seed),
            ops: 0,
            op_budget,
            noc_available_at: 0.0,
            wake_list: Vec::with_capacity(nthreads),
            finished: 0,
            panics: Vec::new(),
            panic_waiters: Vec::new(),
            aborted: false,
            outcome: None,
            weak: policy_mode.then(|| WeakMem::new(nthreads)),
        }
    }

    /// Posts the running thread `tid`'s pending operation at its current
    /// time into whichever ready structure this run's scheduling mode uses.
    #[inline]
    fn post(&mut self, tid: usize) {
        let time = self.time[tid];
        if self.policy_mode {
            let was_running = self.stop_running(tid);
            debug_assert!(was_running, "posting thread must be in the running set");
            self.offer((TimeKey(time), tid));
        } else {
            self.sched.post(tid, time);
        }
    }

    /// Re-posts an operation that stalled on a busy line.
    #[inline]
    fn post_stall(&mut self, key: SchedKey) {
        if self.policy_mode {
            self.offer(key);
        } else {
            self.sched.stall(key);
        }
    }

    /// Describes the pending op of `key`'s thread for the policy and files
    /// it in the ready list.
    fn offer(&mut self, (TimeKey(time_ns), tid): SchedKey) {
        let (kind, addr) = self.slots[tid]
            .pending
            .as_ref()
            .map(describe_op)
            .expect("ready thread has no pending op");
        self.insert_ready(ReadyOp { tid, time_ns, kind, addr });
    }

    /// Inserts `op` into the policy's ready list at its sorted position.
    fn insert_ready(&mut self, op: ReadyOp) {
        let at = self.ready_list.partition_point(|r| ready_order(r, &op).is_lt());
        self.ready_list.insert(at, op);
    }

    /// Enters `tid`, which resumes user code at its current time, into the
    /// running set.
    #[inline]
    fn start_running(&mut self, tid: usize) {
        if self.policy_mode {
            debug_assert!(!self.running[tid], "thread already running");
            self.running[tid] = true;
            self.nrunning += 1;
        } else {
            self.sched.resume(tid, self.time[tid]);
        }
    }

    /// Takes `tid` out of the running set; `false` if it was not in it.
    #[inline]
    fn stop_running(&mut self, tid: usize) -> bool {
        if self.policy_mode {
            let was = std::mem::replace(&mut self.running[tid], false);
            self.nrunning -= usize::from(was);
            was
        } else {
            self.sched.leave(tid)
        }
    }

    /// Parks the thread of a processed spin-wait that is not yet satisfied.
    fn block(&mut self, w: Waiter) {
        if !self.policy_mode {
            self.sched.leave(w.tid);
        }
        self.waiters.register(w);
    }

    /// Whether no thread is executing user code.
    #[inline]
    fn nobody_running(&self) -> bool {
        if self.policy_mode {
            self.nrunning == 0
        } else {
            self.sched.running_is_empty()
        }
    }
}

/// Everything one episode's threads share: the state mutex, the reply cells,
/// the worker park handles, and the immutable machine model.
pub(crate) struct Shared {
    mx: Mutex<State>,
    done_cv: Condvar,
    cells: Vec<ReplyCell>,
    /// Park/unpark handles, registered by each worker at episode entry
    /// (before it can post, and therefore before anything can address it).
    handles: Vec<std::sync::OnceLock<std::thread::Thread>>,
    topo: Arc<Topology>,
    line_shift: u32,
}

/// Wake-list slots a thread starts with. A pass wakes each thread at most
/// once, so in runs of up to this many threads no swap ever leaves the
/// engine a list that must grow; wider runs grow their lists on demand
/// instead of holding P slots per thread (P² words at kilocore scale).
const WAKES_RESERVE: usize = 16;

/// Handle through which a simulated thread performs memory operations.
///
/// Thread `tid` is pinned to core `tid` of the modeled machine, mirroring
/// the paper's methodology ("each thread is pinned to a distinct physical
/// core").
pub struct SimThread {
    shared: Arc<Shared>,
    tid: usize,
    nthreads: usize,
    /// Fiber transport: when the episode runs on the single-threaded fiber
    /// runtime, wakes are enqueued with the scheduler and blocking yields
    /// the fiber instead of parking the OS thread. `None` = OS transport.
    /// (Makes `SimThread` `!Send`, which is fine — a handle never leaves
    /// the thread it was created on in either transport.)
    fiber: Option<std::ptr::NonNull<crate::fiber::FiberRt>>,
    /// Locally accumulated `compute_ns` time `(total ns, op count)` not yet
    /// applied to the engine clock. A compute touches no line, draws no
    /// jitter and occupies no interconnect — its only effect is to raise
    /// this thread's own scheduling key — so it needs no handoff: the
    /// accumulator is folded into the clock at the next real operation (or
    /// at thread finish). Other threads' operations gate on this thread's
    /// key exactly as they would have gated on the posted compute op, so
    /// results are bit-identical; only the context switches disappear.
    deferred: std::cell::Cell<(f64, u64)>,
    /// Buffers that travel to the engine and back, so a handoff allocates
    /// nothing in the steady state: the wake list swapped out of the state
    /// by each post, and the address list of a batched wait. The wake list
    /// starts with [`WAKES_RESERVE`] slots.
    wakes: std::cell::Cell<Vec<usize>>,
    watch: std::cell::Cell<Vec<Addr>>,
}

impl SimThread {
    /// Must be called on the worker thread itself. `fiber` names the
    /// runtime of the fiber transport, which resumes blocked threads; an OS
    /// worker (`None`) registers its park handle so reply deliveries can
    /// wake it.
    pub(crate) fn new(
        shared: Arc<Shared>,
        tid: usize,
        nthreads: usize,
        fiber: Option<std::ptr::NonNull<crate::fiber::FiberRt>>,
    ) -> Self {
        if fiber.is_none() {
            shared.handles[tid]
                .set(std::thread::current())
                .expect("worker registered twice for one episode");
        }
        let wakes = std::cell::Cell::new(Vec::with_capacity(nthreads.min(WAKES_RESERVE)));
        let (deferred, watch) = Default::default();
        Self { shared, tid, nthreads, fiber, deferred, wakes, watch }
    }

    /// Takes the not-yet-applied compute accumulator (for the finish path).
    pub(crate) fn take_deferred(&self) -> (f64, u64) {
        self.deferred.replace((0.0, 0))
    }

    /// This thread's id (= its core id).
    #[inline]
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Number of threads participating in the simulation.
    #[inline]
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    fn call(&self, op: OpReq) -> Reply {
        let cell = &self.shared.cells[self.tid];
        // Our own sequence number only advances when the engine replies to
        // us, and we have consumed every previous reply; read it before
        // posting so the bump cannot be missed.
        let my_seq = cell.seq.load(Ordering::Acquire);
        let mut wakes = self.wakes.take();
        {
            let mut g = self.shared.mx.lock();
            if g.aborted {
                drop(g);
                std::panic::panic_any(AbortSignal);
            }
            debug_assert!(g.slots[self.tid].pending.is_none(), "op already pending");
            let (def_ns, def_count) = self.deferred.replace((0.0, 0));
            if def_count > 0 {
                g.time[self.tid] += def_ns;
                g.ops += def_count;
                g.stats.count_ops(OpKind::Compute, def_count);
            }
            g.slots[self.tid].pending = Some(op);
            g.post(self.tid);
            self.shared.run_engine(&mut g);
            std::mem::swap(&mut wakes, &mut g.wake_list);
        }
        // Fast path: when our own op was processable (the common case for
        // serial phases), the inline engine run above already delivered the
        // reply — no context switch, no further synchronization (both
        // transports). Otherwise block: a fiber yields to its scheduler
        // (the deliverer enqueues it runnable); an OS worker parks (the
        // deliverer's deferred `unpark` cannot be lost — a token posted
        // before we park makes the park return immediately, and a stale
        // token merely costs one extra loop iteration).
        match self.fiber {
            Some(rt) => {
                // SAFETY: the runtime outlives every fiber it drives, and
                // all fibers run on its OS thread (no concurrent access).
                let rt = unsafe { rt.as_ref() };
                rt.enqueue_wakes(&wakes, self.tid);
                while cell.seq.load(Ordering::Acquire) == my_seq {
                    rt.suspend();
                }
            }
            None => {
                self.shared.unpark(&wakes, self.tid);
                let mut spins = 0u32;
                while cell.seq.load(Ordering::Acquire) == my_seq {
                    if spin_replies() && spins < REPLY_SPIN_LIMIT {
                        spins += 1;
                        std::hint::spin_loop();
                        continue;
                    }
                    std::thread::park();
                }
            }
        }
        wakes.clear();
        self.wakes.set(wakes);
        // SAFETY: the seq bump (release) happens after the engine published
        // our reply, and the engine will not touch the cell again until our
        // next post.
        let r = unsafe { (*cell.reply.get()).take() }.expect("reply published without a value");
        if matches!(r, Reply::Abort) {
            std::panic::panic_any(AbortSignal);
        }
        r
    }

    fn call_value(&self, op: OpReq) -> u32 {
        match self.call(op) {
            Reply::Value(v) => v,
            _ => unreachable!("engine sent a non-value reply to a value op"),
        }
    }

    /// Load-acquire of the 32-bit word at `addr` (`ldar`), paying `ε` on a
    /// local hit or `L_i` (plus contention) on a remote transfer. Always
    /// reads the committed coherence state, even under weak mode.
    pub fn load(&self, addr: Addr) -> u32 {
        self.call_value(OpReq::Load(addr, LoadOrder::Acquire))
    }

    /// Relaxed load (`ldr`): under weak mode a schedule policy may satisfy
    /// it from this thread's stale-value cache instead of the committed
    /// state. Identical to [`SimThread::load`] in default mode.
    pub fn load_relaxed(&self, addr: Addr) -> u32 {
        self.call_value(OpReq::Load(addr, LoadOrder::Relaxed))
    }

    /// Store-release to the word at `addr` (`stlr`), acquiring line
    /// ownership and paying the RFO fan-out to current sharers. Under weak
    /// mode it first drains this thread's store buffer, so every earlier
    /// store is visible before this one.
    pub fn store(&self, addr: Addr, value: u32) {
        self.call_value(OpReq::Store(addr, value, StoreOrder::Release));
    }

    /// Relaxed store (`str`): under weak mode a schedule policy may defer
    /// its commit past later operations of this thread. Identical to
    /// [`SimThread::store`] in default mode.
    pub fn store_relaxed(&self, addr: Addr, value: u32) {
        self.call_value(OpReq::Store(addr, value, StoreOrder::Relaxed));
    }

    /// Full memory barrier (`dmb ish`): drains this thread's store buffer
    /// and discards its stale-value cache. Free outside weak mode (charged
    /// `ε` like a local op either way).
    pub fn fence(&self) {
        self.call_value(OpReq::Fence);
    }

    /// Atomic wrapping fetch-add; returns the previous value. Serializes
    /// with other writes/RMWs on the same line.
    pub fn fetch_add(&self, addr: Addr, delta: u32) -> u32 {
        self.call_value(OpReq::FetchAdd(addr, delta))
    }

    /// Atomic compare-exchange: stores `new` iff the word equals `current`
    /// and returns the previous value either way (success iff it equals
    /// `current`). Charged like any RMW — an ARMv8.1 `CAS` takes the line
    /// exclusively whether or not the comparison succeeds — but the
    /// success and failure paths may carry different surcharges
    /// (`RmwCosts::cas_ok` vs `RmwCosts::cas_fail`).
    pub fn compare_exchange(&self, addr: Addr, current: u32, new: u32) -> u32 {
        self.call_value(OpReq::CmpXchg(addr, current, new))
    }

    /// Atomic exchange (ARMv8.1 `SWP`): unconditionally stores `new` and
    /// returns the previous value. Serializes with other writes/RMWs on
    /// the same line; charged with the platform's `RmwCosts::swap` entry.
    pub fn swap(&self, addr: Addr, new: u32) -> u32 {
        self.call_value(OpReq::Swap(addr, new))
    }

    /// Spins until the words at `addrs` satisfy `kind`; returns the
    /// satisfying value of an `Eq`/`Ge` wait (which watches one word) or the
    /// epoch of an `AllGe` wait. While blocked, this thread holds a read
    /// copy of each watched line, so every intervening write pays
    /// invalidation costs to it — exactly the crowd effect of hardware
    /// spin-waiting. The engine re-evaluates the condition only when a
    /// write changes a watched word, which is exact because a [`WaitKind`]
    /// is a pure function of the words.
    ///
    /// The variant picks the cost path: `Eq`/`Ge` is a single-word wait,
    /// `AllGe` a batched one even over one word. A batched poll keeps
    /// several line fetches in flight at once (memory-level parallelism),
    /// so on satisfaction the thread pays the *slowest* outstanding fetch
    /// plus a small pipelining charge per extra line — not the sum of all
    /// fetches. This is how a tournament winner with one-flag-per-line
    /// children observes all arrivals in roughly one transfer time.
    pub fn spin_until(&self, addrs: &[Addr], kind: WaitKind) -> u32 {
        match kind {
            WaitKind::AllGe(epoch) if addrs.is_empty() => epoch,
            WaitKind::AllGe(epoch) => {
                let mut list = self.watch.take();
                list.clear();
                list.extend_from_slice(addrs);
                match self.call(OpReq::SpinUntilAllGe(list, epoch)) {
                    Reply::Watch(list) => self.watch.set(list),
                    _ => unreachable!("engine sent a non-list reply to a batched wait"),
                }
                epoch
            }
            WaitKind::Eq(_) | WaitKind::Ge(_) => {
                self.call_value(OpReq::SpinUntil(kind.word(addrs), kind))
            }
        }
    }

    /// Spins until the word at `addr` equals `value`; returns it.
    pub fn spin_until_eq(&self, addr: Addr, value: u32) -> u32 {
        self.spin_until(&[addr], WaitKind::Eq(value))
    }

    /// Spins until the word at `addr` is ≥ `value` (monotonic epochs);
    /// returns the satisfying value.
    pub fn spin_until_ge(&self, addr: Addr, value: u32) -> u32 {
        self.spin_until(&[addr], WaitKind::Ge(value))
    }

    /// Spins until every word in `addrs` is ≥ `value` (a batched wait).
    pub fn spin_until_all_ge(&self, addrs: &[Addr], value: u32) {
        self.spin_until(addrs, WaitKind::AllGe(value));
    }

    /// Advances this thread's clock by `ns` of pure local computation.
    ///
    /// Free of any engine handoff: the time is accumulated locally and
    /// folded into the clock at the next real operation. A long compute-only
    /// stretch still posts a heartbeat every `DEFERRED_COMPUTE_FLUSH` ops
    /// so the live-lock budget keeps counting.
    pub fn compute_ns(&self, ns: f64) {
        assert!(ns >= 0.0 && ns.is_finite(), "bad compute duration {ns}");
        let (acc, count) = self.deferred.get();
        self.deferred.set((acc + ns, count + 1));
        if count + 1 >= DEFERRED_COMPUTE_FLUSH {
            self.call(OpReq::Now); // flushes the accumulator as a side effect
        }
    }

    /// Records a timestamp with a user label (see `RunStats::marks`).
    pub fn mark(&self, label: u32) {
        self.call_value(OpReq::Mark(label));
    }

    /// This thread's current virtual time in ns.
    pub fn now_ns(&self) -> f64 {
        match self.call(OpReq::Now) {
            Reply::TimeNs(t) => t,
            _ => unreachable!(),
        }
    }

    /// Machine-wide coherence-op counters accumulated so far, summed over
    /// all threads. Free: advances no virtual time and touches no lines, so
    /// instrumented and uninstrumented runs report identical latencies.
    ///
    /// Because threads progress at different virtual times, a snapshot taken
    /// right after a barrier episode may include a few operations of threads
    /// that already raced into the next episode; per-episode deltas are
    /// therefore attributions, exact only at full-run granularity.
    pub fn coherence_counters(&self) -> CoherenceCounters {
        match self.call(OpReq::Counters) {
            Reply::Counters(c) => *c,
            _ => unreachable!("engine sent a non-counter reply to a counter op"),
        }
    }
}

/// Largest machine the simulator accepts: the kilocore presets' width.
const MAX_CORES: usize = 1024;

/// Configures and launches simulations.
pub struct SimBuilder {
    pub(crate) topo: Arc<Topology>,
    pub(crate) nthreads: usize,
    pub(crate) seed: u64,
    pub(crate) op_budget: u64,
    pub(crate) reserve_bytes: usize,
    pub(crate) policy: Option<Box<dyn SchedulePolicy>>,
}

impl SimBuilder {
    /// Prepares a simulation of `nthreads` threads on `topo` (thread `i`
    /// pinned to core `i`).
    ///
    /// # Panics
    /// Panics when `nthreads` is zero or exceeds the core count.
    pub fn new(topo: Arc<Topology>, nthreads: usize) -> Self {
        assert!(nthreads >= 1, "need at least one thread");
        assert!(
            nthreads <= topo.num_cores(),
            "{} threads exceed the {} cores of {}",
            nthreads,
            topo.num_cores(),
            topo.name()
        );
        assert!(topo.num_cores() <= MAX_CORES, "simulator supports at most {MAX_CORES} cores");
        Self {
            topo,
            nthreads,
            seed: 0x5EED,
            op_budget: 200_000_000,
            reserve_bytes: 0,
            policy: None,
        }
    }

    /// Installs a [`SchedulePolicy`] controlling which ready operation the
    /// engine processes next. Without one (the default) the engine keeps its
    /// virtual-time heap order, byte-identical to previous releases; with
    /// one, interleavings follow the policy and latency figures lose their
    /// meaning — policy runs are for conformance checking, not measurement.
    pub fn schedule_policy(mut self, policy: impl SchedulePolicy + 'static) -> Self {
        self.policy = Some(Box::new(policy));
        self
    }

    /// Sets the jitter seed (default `0x5EED`). Runs with equal seeds are
    /// bit-identical.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the operation budget guarding against live-lock (default 2·10⁸).
    pub fn op_budget(mut self, ops: u64) -> Self {
        assert!(ops > 0);
        self.op_budget = ops;
        self
    }

    /// Pre-sizes the engine's dense value/directory tables to cover every
    /// address `arena` has handed out, eliminating growth reallocation
    /// during the run. Purely a performance hint — results are identical
    /// with or without it (the tables grow on demand).
    pub fn reserve_for(mut self, arena: &Arena) -> Self {
        self.reserve_bytes = arena.len();
        self
    }

    pub(crate) fn into_shared(self) -> Shared {
        let line_bytes = self.topo.cacheline_bytes();
        debug_assert!(line_bytes.is_power_of_two(), "topology validates the line size");
        let line_shift = line_bytes.trailing_zeros();
        Shared {
            mx: Mutex::new(State::new(
                self.nthreads,
                self.seed,
                self.op_budget,
                self.reserve_bytes,
                line_shift,
                self.policy,
            )),
            done_cv: Condvar::new(),
            cells: (0..self.nthreads).map(|_| ReplyCell::new()).collect(),
            handles: (0..self.nthreads).map(|_| std::sync::OnceLock::new()).collect(),
            topo: self.topo,
            line_shift,
        }
    }

    /// Runs `body` on every simulated thread to completion and returns the
    /// run statistics, or an error on deadlock / live-lock / panic.
    ///
    /// Episodes execute on a per-host-thread ambient [`crate::SimTeam`]
    /// whose workers are reused across calls.
    pub fn run(
        self,
        body: impl Fn(&SimThread) + Send + Sync + 'static,
    ) -> Result<RunStats, SimError> {
        crate::team::run_with_ambient_team(self, Arc::new(body))
    }
}

/// Installs (once per process) a panic hook that suppresses the default
/// stderr report for [`AbortSignal`] tear-down panics — they are an internal
/// control-flow mechanism, not failures — while delegating everything else
/// to the previous hook.
pub(crate) fn silence_abort_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<AbortSignal>() {
                prev(info);
            }
        }));
    });
}

pub(crate) fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

impl Shared {
    /// Marks `tid` finished (recording its panic message, if any) and lets
    /// the engine drain anything its departure unblocked. Returns the wake
    /// list and whether every participant is now finished; the transport
    /// wrapper decides how to deliver the wakes.
    pub(crate) fn finish_thread_core(
        &self,
        tid: usize,
        panic_msg: Option<String>,
        deferred: (f64, u64),
    ) -> (Vec<usize>, bool) {
        let mut g = self.mx.lock();
        g.stop_running(tid); // may already be gone after an abort
        let (def_ns, def_count) = deferred;
        if def_count > 0 && !g.aborted {
            // Trailing computes never followed by a real op: fold them
            // in now so per-thread times include them.
            g.time[tid] += def_ns;
            g.ops += def_count;
            g.stats.count_ops(OpKind::Compute, def_count);
        }
        if let Some(m) = panic_msg {
            g.panics.push((tid, m));
        }
        debug_assert!(!g.slots[tid].finished, "thread finished twice");
        g.slots[tid].finished = true;
        g.finished += 1;
        self.run_engine(&mut g);
        (std::mem::take(&mut g.wake_list), g.finished == g.slots.len())
    }

    /// OS-transport finish: processes the departure, unparks the woken
    /// workers, and notifies the collecting driver.
    pub(crate) fn finish_thread(
        &self,
        tid: usize,
        panic_msg: Option<String>,
        deferred: (f64, u64),
    ) {
        let (wakes, all_done) = self.finish_thread_core(tid, panic_msg, deferred);
        self.unpark(&wakes, tid);
        if all_done {
            self.done_cv.notify_all();
        }
    }

    /// Issues the deferred wakeups of an engine pass (self excluded: the
    /// caller checks its own reply cell directly, and skipping it avoids a
    /// stale park token).
    fn unpark(&self, tids: &[usize], me: usize) {
        for &t in tids {
            if t != me {
                self.handles[t].get().expect("woken thread never registered").unpark();
            }
        }
    }

    /// Driver side: blocks until every participant has passed its finish
    /// point, then converts the episode outcome into the public result.
    pub(crate) fn collect(&self) -> Result<RunStats, SimError> {
        let mut g = self.mx.lock();
        let n = g.slots.len();
        while g.finished < n {
            self.done_cv.wait(&mut g);
        }
        // A body panic takes precedence over the (sentinel-Ok) outcome.
        if !g.panics.is_empty() {
            let (tid, message) = g.panics.remove(0);
            let waiters = std::mem::take(&mut g.panic_waiters);
            return Err(SimError::ThreadPanic { tid, message, waiters });
        }
        match g.outcome.take().expect("all threads finished without an outcome") {
            Err(e) => Err(e),
            Ok(()) => {
                let mut stats = std::mem::replace(&mut g.stats, RunStats::new(0));
                stats.set_stalls(&g.stall_counts);
                for tid in 0..n {
                    stats.set_thread_time(tid, g.time[tid]);
                }
                Ok(stats)
            }
        }
    }

    /// Processes ready operations until none is processable, then applies
    /// the terminal checks. Called with the state lock held, from whichever
    /// thread last changed the schedule.
    fn run_engine(&self, g: &mut State) {
        if g.policy_mode {
            self.run_engine_policy(g);
            return;
        }
        while g.outcome.is_none() && g.panics.is_empty() {
            // `pop_next` yields the globally minimal ready key unless it is
            // gated by a running thread that will post an earlier one.
            let Some((key, from_stall)) = g.sched.pop_next() else { break };
            g.ops += 1;
            if g.ops > g.op_budget {
                g.outcome =
                    Some(Err(SimError::OpBudgetExhausted { ops: g.ops, budget: g.op_budget }));
                self.abort(g);
                return;
            }
            let tid = key.1;
            let op = g.slots[tid].pending.take().expect("ready thread has no pending op");
            g.stats.mix_schedule(u64::from(op_tag(&op)), tid as u64);
            self.step(g, tid, op, WeakDecision::Strong);
            if from_stall && g.slots[tid].pending.is_some() {
                self.repost_run(g, key.0, tid);
            }
        }
        self.terminal_check(g);
    }

    /// Re-posts the rest of a stall run in one pass once its first loser
    /// `first` (popped at time `t`) re-stalled (DESIGN.md §13). The run's
    /// next entries would each be popped next, charged one op, mixed into
    /// the hash, found busy until the same `available_at` (nothing writes
    /// in between) and pushed behind `first` in ascending tid order. This
    /// does the same accounting in the same order and moves the stretch as
    /// one block. The stretch ends at the first entry that a heap or
    /// running key sorts below (neither changes here: a re-stalled op
    /// neither replies nor posts), that the op budget cannot pay for, or
    /// whose op is not a single-address op on `first`'s line. The ops are
    /// read from their stall records, never decoded again.
    fn repost_run(&self, g: &mut State, t: TimeKey, first: usize) {
        let line = g.stalled[first].line;
        if line == StalledOp::NO_LINE {
            return;
        }
        // The run's keys are `(t, tid)`, so the bound is a tid limit. The
        // stall head was popped below the root and nothing has moved the
        // root since, so the root never sorts below `t`.
        let bound = g.sched.outside_min();
        debug_assert!(bound.is_none_or(|b| b > (t, first)), "stall head popped above the root");
        let limit = match bound {
            Some((bt, btid)) if bt == t => btid,
            _ => usize::MAX,
        };
        let until = g.time[first];
        let room = g.op_budget - g.ops;
        let State { sched, stalled, stall_counts, stats, time, .. } = g;
        let Some(run) = sched.stalls.head_run(t) else { return };
        // The loop's floor is the hash's dependent chain, so the running
        // hash stays in a local, and the tables are slices whose pointers
        // stay in registers.
        let (stalled, stall_counts, time) = (&stalled[..], &mut stall_counts[..], &mut time[..]);
        let mut hash = stats.schedule_hash();
        let mut n = 0;
        for &tid in run {
            let op = stalled[tid];
            if n == room || tid > limit || op.line != line {
                break;
            }
            debug_assert!(until > time[tid], "a batched op must stall");
            hash = fold_schedule(hash, u64::from(op.tag), tid as u64);
            stall_counts[tid].record(op.write, until - time[tid]);
            time[tid] = until;
            n += 1;
        }
        stats.set_schedule_hash(hash);
        g.ops += n;
        g.sched.stalls.splice_head(n as usize, TimeKey(until));
    }

    /// Policy-mode engine pass: at every decision point, offer the ready
    /// list to the installed [`SchedulePolicy`] and act on its pick. The
    /// policy is moved out of the state for the pass (it and the state
    /// cannot be borrowed simultaneously), so all posting paths route on
    /// `policy_mode` instead of `policy.is_some()`.
    ///
    /// Determinism: the policy is consulted only at *settlement points* —
    /// when no thread is executing user code, so every live thread has
    /// either posted its next op or parked in a spin-wait. The ready set at
    /// such a point is a pure function of simulation history (host posting
    /// order cannot change it), and the list is kept sorted by
    /// `(time, tid)`, so the indices the policy sees are canonical. This
    /// lock-step discipline still reaches every sequentially consistent
    /// interleaving: at each step any posted op may be chosen.
    fn run_engine_policy(&self, g: &mut State) {
        let mut policy = g.policy.take().expect("policy mode without a policy");
        'pass: loop {
            while g.outcome.is_none()
                && g.panics.is_empty()
                && !g.ready_list.is_empty()
                && g.nobody_running()
            {
                let n = g.ready_list.len();
                let pick = match policy.pick(&g.ready_list) {
                    ScheduleDecision::Run(i) if i < n => i,
                    ScheduleDecision::Delay { index, ns }
                        if index < n && ns.is_finite() && ns >= 0.0 =>
                    {
                        // A delay consumes budget (so delay storms cannot
                        // live-lock the run) and advances the thread's clock;
                        // the op stays posted and is offered again.
                        if self.charge_op(g) {
                            break;
                        }
                        let mut op = g.ready_list.remove(index);
                        g.time[op.tid] += ns;
                        op.time_ns = g.time[op.tid];
                        g.insert_ready(op);
                        g.stats.mix_schedule(0xDE1A, (op.tid as u64) ^ ns.to_bits());
                        continue;
                    }
                    // Misbehaving policy (bad index or bad delay): fall back
                    // to the oldest ready op rather than wedging the engine.
                    _ => oldest_index(&g.ready_list),
                };
                if self.charge_op(g) {
                    break;
                }
                let tid = g.ready_list.remove(pick).tid;
                let op = g.slots[tid].pending.take().expect("ready thread has no pending op");
                g.stats.mix_schedule(u64::from(op_tag(&op)), tid as u64);
                let weak = match self.weak_offer(g, tid, &op) {
                    Some(wop) => policy.weak(&wop),
                    None => WeakDecision::Strong,
                };
                self.step(g, tid, op, weak);
            }
            // Quiescence drain: nobody ready or running, threads still
            // blocked, buffered stores pending — not a deadlock yet. ARMv8
            // store buffers drain in finite time, so every buffered store
            // commits (lowest tid first, FIFO within a thread) before the
            // terminal check may call this state stuck. Infinite deferral is
            // not an ARMv8 behavior.
            if g.outcome.is_none()
                && g.panics.is_empty()
                && g.ready_list.is_empty()
                && g.nobody_running()
                && g.finished < g.slots.len()
                && self.weak_drain_one(g)
            {
                continue 'pass;
            }
            break;
        }
        debug_assert!(g.policy.is_none(), "policy restored twice");
        g.policy = Some(policy);
        self.terminal_check(g);
    }

    /// Counts one scheduling action against the op budget; on exhaustion
    /// records the error, aborts the episode, and returns `true`.
    fn charge_op(&self, g: &mut State) -> bool {
        g.ops += 1;
        if g.ops > g.op_budget {
            g.outcome = Some(Err(SimError::OpBudgetExhausted { ops: g.ops, budget: g.op_budget }));
            self.abort(g);
            true
        } else {
            false
        }
    }

    /// Detects episode completion, deadlock, and body panics once the
    /// engine has quiesced.
    fn terminal_check(&self, g: &mut State) {
        if g.outcome.is_some() {
            return;
        }
        if !g.panics.is_empty() {
            // A body panicked (surfaced by the caller as ThreadPanic, with
            // the blocked peers attached). Tear everyone else down — parked
            // waiters AND threads still running or mid-handoff — so the
            // driver can hand the workers back.
            g.panic_waiters = self.waiter_info(g);
            g.outcome = Some(Ok(())); // sentinel; collect() reports the panic
            self.abort(g);
        } else if g.finished == g.slots.len() {
            g.outcome = Some(Ok(()));
        } else if g.sched.ready_is_empty() && g.ready_list.is_empty() && g.nobody_running() {
            // Everyone alive is parked in a spin-wait: deadlock. (This also
            // catches stragglers still spinning after every peer finished.)
            let waiters = self.waiter_info(g);
            g.outcome = Some(Err(SimError::Deadlock { waiters }));
            self.abort(g);
        }
    }

    /// Snapshot of every blocked thread for diagnostics. For batched waits,
    /// points at the first flag still below the epoch — that is the arrival
    /// the waiter never observed.
    fn waiter_info(&self, g: &State) -> Vec<DeadlockWaiter> {
        g.waiters
            .in_order()
            .into_iter()
            .map(|w| {
                let addrs = w.addrs();
                let addr = w.kind.probe(addrs, |a| self.value(g, a)).err().unwrap_or(addrs[0]);
                let committed = self.value(g, addr);
                // The waiter's own view: its buffered store (youngest) wins,
                // then its stale cache, then the committed value. Reported
                // so weak-mode reproducers never show a "last seen" value
                // that no fence ordering could explain.
                let view = g
                    .weak
                    .as_ref()
                    .and_then(|wm| {
                        wm.forwarded(w.tid, addr).or_else(|| wm.last_seen[w.tid].get(addr))
                    })
                    .unwrap_or(committed);
                DeadlockWaiter { tid: w.tid, addr, kind: w.kind, last_value: committed, view }
            })
            .collect()
    }

    /// Tears the episode down: every thread blocked in a handoff (posted
    /// or spin-waiting) receives `Reply::Abort`; running threads observe the
    /// `aborted` flag at their next call. Does not block — the driver waits
    /// for the workers in `collect`.
    fn abort(&self, g: &mut State) {
        g.aborted = true;
        g.sched.clear();
        g.ready_list.clear();
        g.running.fill(false);
        g.nrunning = 0;
        for tid in 0..g.slots.len() {
            if g.slots[tid].pending.take().is_some() {
                self.deliver(g, tid, Reply::Abort);
            }
        }
        let blocked: Vec<usize> = g.waiters.drain_in_order().into_iter().map(|w| w.tid).collect();
        for tid in blocked {
            self.deliver(g, tid, Reply::Abort);
        }
    }

    /// Publishes a reply to a blocked thread's cell and queues its wakeup
    /// (issued by the engine-pass caller after the lock drops).
    ///
    /// Only call for threads provably blocked in [`SimThread::call`] — a
    /// running thread may still be draining its previous reply, and writing
    /// its cell would race with that lock-free read.
    fn deliver(&self, g: &mut State, tid: usize, r: Reply) {
        // SAFETY: see ReplyCell — the owner is blocked awaiting this reply,
        // and we hold the state lock, serializing all writers.
        unsafe {
            *self.cells[tid].reply.get() = Some(r);
        }
        // Only the engine writes `seq`, under the state lock, so it needs no
        // locked RMW; the release store pairs with the owner's acquire load.
        let seq = &self.cells[tid].seq;
        seq.store(seq.load(Ordering::Relaxed).wrapping_add(1), Ordering::Release);
        g.wake_list.push(tid);
    }

    /// Replies to a processed operation: the thread resumes user code, so it
    /// re-enters the running set at its (new) virtual time.
    fn reply(&self, g: &mut State, tid: usize, r: Reply) {
        g.start_running(tid);
        self.deliver(g, tid, r);
    }

    #[inline]
    fn line_key(&self, addr: Addr) -> u32 {
        addr >> self.line_shift
    }

    /// Read-only directory lookup: the line's header and its sharers;
    /// unbacked lines read as cold and unshared.
    #[inline]
    fn line_at<'a>(&self, g: &'a State, key: u32) -> (Line, &'a [u64]) {
        let i = key as usize;
        (g.lines.get(i).copied().unwrap_or(Line::COLD), g.sharers.get(i))
    }

    /// Mutable directory lookup, growing the dense tables on demand.
    #[inline]
    fn line_mut<'a>(&self, g: &'a mut State, key: u32) -> (&'a mut Line, &'a mut [u64]) {
        let i = key as usize;
        if i >= g.lines.len() {
            g.lines.resize(i + 1, Line::COLD);
        }
        (&mut g.lines[i], g.sharers.get_mut(i))
    }

    #[inline]
    fn value(&self, g: &State, addr: Addr) -> u32 {
        g.values.get((addr >> 2) as usize).copied().unwrap_or(0)
    }

    #[inline]
    fn set_value(&self, g: &mut State, addr: Addr, v: u32) {
        let i = (addr >> 2) as usize;
        if i >= g.values.len() {
            g.values.resize(i + 1, 0);
        }
        g.values[i] = v;
    }

    /// The non-local layers joining `t` to `sharers`' members, as a bitmask
    /// over `L_i` indices ([`Topology::layers_of`]).
    #[inline]
    fn layers_of(&self, t: CoreId, sharers: &[u64]) -> u64 {
        self.topo.layers_of(t, sharers)
    }

    /// Smallest transfer latency from `t` to any member of a non-empty
    /// `set` (`ε` when `t` itself is one).
    fn nearest_latency(&self, t: CoreId, sharers: &[u64]) -> f64 {
        let local = if set::contains(sharers, t) { self.topo.epsilon_ns() } else { f64::INFINITY };
        layer_ids(self.layers_of(t, sharers))
            .map(|l| self.topo.layer_latency_ns(l))
            .fold(local, f64::min)
    }

    /// A read miss by `t` on line `key`: `t` joins the sharers and the
    /// readers since the last write. Returns the transfer (from the owner,
    /// else the nearest sharer, else memory) plus the reader-contention
    /// term, and whether other readers contended.
    fn read_miss(&self, g: &mut State, t: CoreId, key: u32) -> (f64, bool) {
        let (line, sharers) = self.line_at(g, key);
        let src = if let Some(o) = line.owner() {
            self.topo.latency_ns(t, o)
        } else if !set::is_empty(sharers) {
            self.nearest_latency(t, sharers)
        } else {
            self.topo.max_latency_ns()
        };
        let (line, sharers) = self.line_mut(g, key);
        line.readers_since_write += 1;
        set::insert(sharers, t);
        let readers = line.readers_since_write;
        let contention = self.topo.coherence().read_contention_ns * (readers - 1) as f64;
        (src + contention, readers > 1)
    }

    /// Cost of acquiring ownership for a write by `t`, and whether it was
    /// remote. Does not include the RFO fan-out.
    fn write_transfer(&self, t: CoreId, line: &Line, sharers: &[u64]) -> (f64, bool) {
        match line.owner() {
            Some(o) if o == t => (self.topo.epsilon_ns(), false),
            Some(o) => (self.topo.latency_ns(t, o), true),
            None if set::is_empty(sharers) => (self.topo.epsilon_ns(), false),
            None => (self.nearest_latency(t, sharers), true),
        }
    }

    /// RFO fan-out cost for a write whose line has `n_other` sharers besides
    /// the writer, joined to it over the layers in `present`: the farthest
    /// invalidation `α_i·L_i` plus the per-extra-sharer serialization charge
    /// at the network controller.
    fn rfo_cost(&self, present: u64, n_other: usize) -> f64 {
        if n_other == 0 {
            return 0.0;
        }
        let worst = layer_ids(present)
            .map(|l| self.topo.alpha(l) * self.topo.layer_latency_ns(l))
            .fold(0.0f64, f64::max);
        worst + self.topo.coherence().inv_ns * (n_other - 1).min(INV_FANOUT_CAP) as f64
    }

    /// Latency to the farthest core currently holding a copy (owner or
    /// sharer), excluding `t` itself; `present` holds the layers joining
    /// `t` to the sharers. An exclusive-ownership acquisition cannot commit
    /// before the farthest holder has acknowledged, so this bounds the
    /// transfer term of a write from below — it is what makes a write to a
    /// line whose *spinning reader* sits across the machine cost the
    /// paper's `W_R = (1+α)·L_far` even when the previous writer was
    /// nearby.
    fn farthest_holder_latency(&self, t: CoreId, line: &Line, present: u64) -> f64 {
        let owner = match line.owner() {
            Some(o) if o != t => self.topo.latency_ns(t, o),
            _ => 0.0,
        };
        layer_ids(present).map(|l| self.topo.layer_latency_ns(l)).fold(owner, f64::max)
    }

    fn jitter(&self, g: &mut State) -> f64 {
        let amp = self.topo.coherence().jitter;
        g.rng.jitter_factor(amp)
    }

    /// Charges one remote transaction to the shared interconnect starting
    /// no earlier than `start`; returns the queueing delay incurred.
    fn noc_queue(&self, g: &mut State, start: f64) -> f64 {
        let nu = self.topo.coherence().noc_ns;
        if nu == 0.0 {
            return 0.0;
        }
        let begin = g.noc_available_at.max(start);
        g.noc_available_at = begin + nu;
        begin - start
    }

    /// Describes the weak-memory decision point `op` offers, if any: a
    /// relaxed store (always deferrable), or a relaxed load for which the
    /// thread holds a stale value and no forwardable buffered store (own
    /// buffered stores take precedence — program order within a thread is
    /// never weakened). `None` outside weak mode and for every ordered op,
    /// so the policy's `weak` hook is never consulted — and its rng never
    /// drawn — unless an actual weakening is on offer.
    fn weak_offer(&self, g: &State, tid: usize, op: &OpReq) -> Option<WeakOp> {
        let w = g.weak.as_ref()?;
        match op {
            OpReq::Store(a, _, StoreOrder::Relaxed) => {
                Some(WeakOp { tid, addr: *a, kind: WeakOpKind::RelaxedStore })
            }
            OpReq::Load(a, LoadOrder::Relaxed)
                if w.forwarded(tid, *a).is_none() && w.last_seen[tid].get(*a).is_some() =>
            {
                Some(WeakOp { tid, addr: *a, kind: WeakOpKind::RelaxedLoad })
            }
            _ => None,
        }
    }

    /// Drains `tid`'s store buffer in FIFO order, committing each entry to
    /// the coherence state (paying full write costs now) and waking any spin
    /// waiters the commits satisfy.
    fn weak_flush(&self, g: &mut State, tid: usize) {
        while let Some((addr, v)) = g.weak.as_mut().and_then(|w| w.buffers[tid].pop_front()) {
            self.commit_write(g, tid, addr, v, None);
        }
    }

    /// Commits (oldest first) every buffered store of `tid` to an address in
    /// `watched`: a thread about to spin must not block waiting for a value
    /// it is itself hiding in its own store buffer.
    fn weak_commit_watched(&self, g: &mut State, tid: usize, watched: &[Addr]) {
        loop {
            let Some(pos) = g
                .weak
                .as_ref()
                .and_then(|w| w.buffers[tid].iter().position(|(a, _)| watched.contains(a)))
            else {
                return;
            };
            let (addr, v) = g.weak.as_mut().unwrap().buffers[tid].remove(pos).unwrap();
            self.commit_write(g, tid, addr, v, None);
        }
    }

    /// Acquire obligation of a satisfied spin: the successful load of the
    /// loop orders everything after it, so the stale cache is discarded and
    /// reseeded with the value the spin observed.
    fn weak_spin_success(&self, g: &mut State, tid: usize, addr: Addr, v: u32) {
        if let Some(w) = g.weak.as_mut() {
            w.last_seen[tid].clear();
            w.last_seen[tid].insert(addr, v);
        }
    }

    /// Commits the oldest buffered store of the lowest-tid thread holding
    /// one; returns `false` when every buffer is empty. The deterministic
    /// unit of the quiescence drain.
    fn weak_drain_one(&self, g: &mut State) -> bool {
        let Some(tid) =
            g.weak.as_ref().and_then(|w| (0..w.buffers.len()).find(|&t| !w.buffers[t].is_empty()))
        else {
            return false;
        };
        let (addr, v) = g.weak.as_mut().unwrap().buffers[tid].pop_front().unwrap();
        g.stats.mix_schedule(0xD5A1, (tid as u64) ^ u64::from(addr));
        self.commit_write(g, tid, addr, v, None);
        true
    }

    /// Weak-mode front end for one operation (`DESIGN.md` §15). Returns
    /// `None` when the op was fully satisfied from per-thread weak state
    /// (deferred store, forwarded or stale load) without touching the
    /// coherence machinery; otherwise applies the op's drain/invalidate
    /// obligations and hands the op back for strong execution.
    fn weak_pre(&self, g: &mut State, tid: usize, op: OpReq, weak: WeakDecision) -> Option<OpReq> {
        let eps = self.topo.epsilon_ns();
        match &op {
            OpReq::Store(addr, v, StoreOrder::Relaxed) => {
                let (addr, v) = (*addr, *v);
                if weak == WeakDecision::Weak {
                    // Defer: the store sits in this thread's buffer until
                    // the next drain point (or the quiescence drain). ε —
                    // a store-buffer entry costs no coherence traffic.
                    g.weak.as_mut().unwrap().buffers[tid].push_back((addr, v));
                    g.time[tid] += eps;
                    g.stats.mix_schedule(0xB0FD, (tid as u64) ^ u64::from(addr));
                    self.reply(g, tid, Reply::Value(0));
                    return None;
                }
                // Committing now: coalesce away older buffered stores to the
                // same address (committing them after this one would invert
                // per-location order; a zero-length visibility window for
                // the overwritten values is ARMv8-legal write coalescing).
                g.weak.as_mut().unwrap().buffers[tid].retain(|&(a, _)| a != addr);
                Some(op)
            }
            // A release store publishes everything before it: drain the
            // buffer, then commit this store through the normal write path.
            OpReq::Store(_, _, StoreOrder::Release) => {
                self.weak_flush(g, tid);
                Some(op)
            }
            OpReq::Load(addr, order) => {
                let addr = *addr;
                if *order == LoadOrder::Acquire {
                    // Acquire discards local stale state; it must observe
                    // the committed coherence value.
                    g.weak.as_mut().unwrap().last_seen[tid].clear();
                }
                if let Some(v) = g.weak.as_ref().unwrap().forwarded(tid, addr) {
                    // Store-to-load forwarding from the thread's own buffer.
                    g.time[tid] += eps;
                    g.stats.record_read(tid, self.line_key(addr), true, false);
                    self.reply(g, tid, Reply::Value(v));
                    return None;
                }
                if *order == LoadOrder::Relaxed && weak == WeakDecision::Weak {
                    if let Some(v) = g.weak.as_ref().unwrap().last_seen[tid].get(addr) {
                        // Stale read: satisfied from the thread's local copy
                        // before the invalidation arrives. Touches no line
                        // state — the copy is already local.
                        g.time[tid] += eps;
                        g.stats.record_read(tid, self.line_key(addr), true, false);
                        g.stats.mix_schedule(0x57A1, (tid as u64) ^ u64::from(addr));
                        self.reply(g, tid, Reply::Value(v));
                        return None;
                    }
                }
                Some(op)
            }
            // RMWs are acquire+release: drain the buffer and discard stale
            // state, then run the committed read-modify-write.
            OpReq::FetchAdd(..) | OpReq::CmpXchg(..) | OpReq::Swap(..) | OpReq::Fence => {
                self.weak_flush(g, tid);
                g.weak.as_mut().unwrap().last_seen[tid].clear();
                Some(op)
            }
            // Spin entries evaluate the committed state (and their wakeups
            // deliver committed values). The acquire obligation — clearing
            // the stale cache — lands at spin *success* (the final load of
            // the loop is the one that orders subsequent accesses), so a
            // still-blocked waiter keeps its pre-spin view for diagnostics.
            // The self-hiding rule applies at entry: a thread must not block
            // waiting for a value sitting in its own store buffer.
            OpReq::SpinUntil(a, _) => {
                self.weak_commit_watched(g, tid, std::slice::from_ref(a));
                Some(op)
            }
            OpReq::SpinUntilAllGe(addrs, _) => {
                self.weak_commit_watched(g, tid, addrs);
                Some(op)
            }
            OpReq::Mark(_) | OpReq::Now | OpReq::Counters => Some(op),
        }
    }

    fn step(&self, g: &mut State, tid: usize, op: OpReq, weak: WeakDecision) {
        let op = if g.weak.is_some() {
            match self.weak_pre(g, tid, op, weak) {
                Some(op) => op,
                // Satisfied from weak per-thread state; no coherence traffic.
                None => return,
            }
        } else {
            op
        };
        // Memory ops that hit a busy line (a write in flight) do not jump
        // the queue: the thread's clock advances to the line's availability
        // point and the op is re-posted. This interleaves spin-loop
        // registrations with queued RMWs in true time order — without it,
        // all arrivals of a centralized barrier would be serviced before
        // any spinner subscribes to the line, and the invalidation-crowd
        // cost that dominates SENSE on many-cores would vanish.
        let addr = single_addr(&op);
        let free_at = |a| self.line_at(g, self.line_key(a)).0.available_at;
        let busy_until = match &op {
            OpReq::SpinUntilAllGe(addrs, _) => {
                addrs.iter().copied().map(free_at).fold(0.0, f64::max)
            }
            _ => addr.map_or(0.0, free_at),
        };
        if busy_until > g.time[tid] {
            let write = is_write(&op);
            g.stall_counts[tid].record(write, busy_until - g.time[tid]);
            let line = addr.map_or(StalledOp::NO_LINE, |a| self.line_key(a));
            g.stalled[tid] = StalledOp { line, tag: op_tag(&op), write };
            g.time[tid] = busy_until;
            g.slots[tid].pending = Some(op);
            g.post_stall((TimeKey(busy_until), tid));
            return;
        }

        match op {
            OpReq::Load(addr, _) => {
                let v = self.value(g, addr);
                self.do_read(g, tid, addr);
                if let Some(w) = g.weak.as_mut() {
                    // Remember the observed value: a later relaxed load may
                    // (policy permitting) be satisfied from this stale copy.
                    w.last_seen[tid].insert(addr, v);
                }
                self.reply(g, tid, Reply::Value(v));
            }
            OpReq::Store(addr, v, _) => {
                self.commit_write(g, tid, addr, v, None);
                self.reply(g, tid, Reply::Value(0));
            }
            OpReq::FetchAdd(addr, d) => {
                let old = self.value(g, addr);
                self.commit_write(g, tid, addr, old.wrapping_add(d), Some(RmwOp::FetchAdd));
                self.reply(g, tid, Reply::Value(old));
            }
            OpReq::CmpXchg(addr, current, new) => {
                // ARMv8.1 LSE `CAS` issues the RMW regardless of the
                // comparison outcome — a failed exchange still takes the
                // line exclusively — so both branches perform the RMW write
                // (the failure rewrites the unchanged value). Only the
                // *surcharge* differs: the platform's `RmwCosts` may price
                // the failed compare below the successful exchange.
                let old = self.value(g, addr);
                let (stored, kind) = if old == current {
                    (new, RmwOp::CmpXchgOk)
                } else {
                    (old, RmwOp::CmpXchgFail)
                };
                self.commit_write(g, tid, addr, stored, Some(kind));
                self.reply(g, tid, Reply::Value(old));
            }
            OpReq::Swap(addr, new) => {
                let old = self.value(g, addr);
                self.commit_write(g, tid, addr, new, Some(RmwOp::Swap));
                self.reply(g, tid, Reply::Value(old));
            }
            OpReq::SpinUntil(addr, kind) => {
                let v = self.value(g, addr);
                self.do_read(g, tid, addr);
                if kind.holds(v) {
                    self.weak_spin_success(g, tid, addr, v);
                    self.reply(g, tid, Reply::Value(v));
                } else {
                    g.block(Waiter { tid, watch: Watch::One(addr), kind });
                }
            }
            OpReq::SpinUntilAllGe(addrs, epoch) => {
                self.do_batched_probe(g, tid, &addrs);
                let kind = WaitKind::AllGe(epoch);
                if kind.probe(&addrs, |a| self.value(g, a)).is_ok() {
                    let seen = self.value(g, addrs[0]);
                    self.weak_spin_success(g, tid, addrs[0], seen);
                    self.reply(g, tid, Reply::Watch(addrs));
                } else {
                    g.block(Waiter { tid, watch: Watch::Batch(addrs), kind });
                }
            }
            OpReq::Mark(label) => {
                g.stats.push_mark(Mark { tid, label, time_ns: g.time[tid] });
                self.reply(g, tid, Reply::Value(0));
            }
            OpReq::Now => {
                let t = g.time[tid];
                self.reply(g, tid, Reply::TimeNs(t));
            }
            OpReq::Counters => {
                g.stats.set_stalls(&g.stall_counts);
                let total = g.stats.coherence().total();
                self.reply(g, tid, Reply::Counters(Box::new(total)));
            }
            OpReq::Fence => {
                // Drain/invalidate obligations ran in `weak_pre`; outside
                // weak mode a fence only costs its issue slot.
                g.time[tid] += self.topo.epsilon_ns();
                self.reply(g, tid, Reply::Value(0));
            }
        }
    }

    fn do_read(&self, g: &mut State, tid: usize, addr: Addr) {
        let now = g.time[tid];
        let eps = self.topo.epsilon_ns();
        let key = self.line_key(addr);
        let (line, sharers) = self.line_at(g, key);
        if set::contains(sharers, tid) {
            g.time[tid] = now + eps;
            g.stats.record_read(tid, key, true, false);
        } else {
            let start = now.max(line.available_at);
            let queue = self.noc_queue(g, start);
            let (fetch, contended) = self.read_miss(g, tid, key);
            let jf = self.jitter(g);
            g.time[tid] = start + queue + fetch * jf;
            g.stats.record_read(tid, key, false, contended);
        }
    }

    /// Initial probe of a batched wait: fetch every line the thread does
    /// not already share, overlapping the misses — pay the slowest fetch in
    /// full and a pipelining fraction of the rest.
    fn do_batched_probe(&self, g: &mut State, tid: usize, addrs: &[Addr]) {
        /// Fraction of each additional overlapped miss that still shows up
        /// on the critical path (finite load-queue bandwidth).
        const MLP_OVERLAP: f64 = 0.3;
        let now = g.time[tid];
        let mut max_l = 0.0f64;
        let mut sum_l = 0.0f64;
        let mut fetched = 0usize;
        for &a in addrs {
            let key = self.line_key(a);
            if set::contains(self.line_at(g, key).1, tid) {
                continue;
            }
            let queue = self.noc_queue(g, now);
            let (fetch, contended) = self.read_miss(g, tid, key);
            max_l = max_l.max(fetch + queue);
            sum_l += fetch + queue;
            fetched += 1;
            g.stats.record_read(tid, key, false, contended);
        }
        let jf = self.jitter(g);
        let cost = if fetched == 0 {
            self.topo.epsilon_ns()
        } else {
            max_l + MLP_OVERLAP * (sum_l - max_l)
        };
        g.time[tid] = now + cost * jf;
    }

    /// Commits a store or RMW of `new_value` to `addr` and runs the wake
    /// sweep it triggers.
    fn commit_write(
        &self,
        g: &mut State,
        tid: usize,
        addr: Addr,
        new_value: u32,
        rmw: Option<RmwOp>,
    ) {
        let changed = self.value(g, addr) != new_value;
        self.do_write(g, tid, addr, new_value, rmw);
        self.wake_waiters(g, addr, tid, changed);
    }

    fn do_write(&self, g: &mut State, tid: usize, addr: Addr, new_value: u32, rmw: Option<RmwOp>) {
        let now = g.time[tid];
        let key = self.line_key(addr);
        let (line, sharers) = self.line_at(g, key);
        let start = now.max(line.available_at);
        let present = self.layers_of(tid, sharers);
        let invalidated = set::len(sharers) - usize::from(set::contains(sharers, tid));
        let (near_transfer, remote) = self.write_transfer(tid, &line, sharers);
        let transfer = near_transfer.max(self.farthest_holder_latency(tid, &line, present));
        let rfo = self.rfo_cost(present, invalidated);
        // Atomic RMWs carry a surcharge beyond a plain store: on ARMv8 the
        // far-atomic / exclusive-monitor handshake adds another partial
        // round trip. This is the cost the paper credits static tournament
        // schemes for avoiding ("no overhead introduced by atomic
        // instructions of a dynamic scheme", Section V-A). The surcharge is
        // per-op-kind (DESIGN.md §17): LSE parts price FAA/SWP below CAS,
        // LL/SC parts the reverse, and a failed CAS has its own entry.
        // Under `RmwCosts::legacy` this is bit-identical to the pre-split
        // `ε + 0.5·transfer`.
        let rmw_alu = match rmw {
            Some(op) => self.topo.rmw_costs().surcharge_ns(op, self.topo.epsilon_ns(), transfer),
            None => 0.0,
        };
        // Remote transfers occupy the shared interconnect; local writes to
        // an exclusively-held line do not.
        let queue = if remote || invalidated > 0 { self.noc_queue(g, start) } else { 0.0 };
        let jf = self.jitter(g);
        let end = start + queue + (transfer + rfo + rmw_alu) * jf;

        let (line, sharers) = self.line_mut(g, key);
        line.owner = tid as u32;
        line.available_at = end;
        line.readers_since_write = 0;
        sharers.fill(0);
        set::insert(sharers, tid);

        self.set_value(g, addr, new_value);
        if let Some(w) = g.weak.as_mut() {
            // CoWR: the writer's own stale copy is superseded by its write —
            // a later relaxed load of this thread must never read backward
            // past it (other threads' copies stay stale; that is the model).
            w.last_seen[tid].insert(addr, new_value);
        }
        g.time[tid] = end;
        g.stats.record_write(tid, key, remote, invalidated);
    }

    /// After a write to `addr`'s line completes: every waiter spinning on
    /// the line immediately re-fetches it, rejoining the sharer set so that
    /// future writes keep paying invalidation costs to it; waiters whose
    /// predicate is now satisfied wake (paying the transfer from the writer
    /// plus the staggered reader-contention term).
    ///
    /// A blocked waiter is unsatisfied at the current values, so only a
    /// write that `changed` a word can wake anyone, and only a waiter
    /// watching that word. The re-fetch of the others touches nothing the
    /// sweep reads, so it is applied to the whole line at once.
    fn wake_waiters(&self, g: &mut State, addr: Addr, writer: usize, changed: bool) {
        let key = self.line_key(addr);
        let spinners = g.waiters.spinners.get(key as usize);
        if set::is_empty(spinners) {
            return;
        }
        // `do_write` just backed the line.
        set::union(g.sharers.get_mut(key as usize), spinners);
        g.lines[key as usize].readers_since_write += set::len(spinners) as u32;
        if !changed {
            return;
        }
        // Entries are `(seq, slot)` in registration order, so the wake
        // order (and therefore every staggered wake time and jitter draw)
        // is the registration order of the satisfied waiters.
        let word = addr >> 2;
        let mut bucket = g.waiters.take_bucket(word);
        if bucket.is_empty() {
            return;
        }
        let end = g.time[writer];
        let read_c = self.topo.coherence().read_contention_ns;

        let mut woken = 0usize;
        let mut kept = 0;
        for i in 0..bucket.len() {
            let (seq, slot) = bucket.get(i);
            // A stale entry (multi-word waiter already woken via another of
            // its words) no longer matches its slot's seq; drop it.
            let Some(w) = g.waiters.take_slot(slot, seq) else { continue };
            let Ok(reply_value) = w.kind.probe(w.addrs(), |a| self.value(g, a)) else {
                g.waiters.restore(slot, seq, w);
                bucket.set(kept, (seq, slot));
                kept += 1;
                continue;
            };
            let lat = self.topo.latency_ns(w.tid, writer);
            // A batched waiter re-fetched every other flag line as its
            // writers dirtied it; those (pipelined) refetches are paid
            // now, as the overlap fraction of each line's pull from its
            // current owner. Without this, a flat 64-way group would
            // observe 63 arrivals for the price of one.
            let mlp_extra: f64 = match &w.watch {
                Watch::One(_) => 0.0,
                Watch::Batch(addrs) => addrs
                    .iter()
                    .filter(|&&a| self.line_key(a) != key)
                    .map(|&a| {
                        self.line_at(g, self.line_key(a))
                            .0
                            .owner()
                            .map_or(0.0, |o| 0.3 * self.topo.latency_ns(w.tid, o))
                    })
                    .sum(),
            };
            let jf = self.jitter(g);
            g.time[w.tid] = end + (lat + mlp_extra + read_c * woken as f64) * jf;
            woken += 1;
            let first = w.addrs()[0];
            let seen = self.value(g, first);
            self.weak_spin_success(g, w.tid, first, seen);
            g.stats.record_spin_wakeup(w.tid);
            g.waiters.release(slot, &w);
            let reply = match w.watch {
                Watch::Batch(addrs) => Reply::Watch(addrs),
                Watch::One(_) => Reply::Value(reply_value),
            };
            self.reply(g, w.tid, reply);
        }
        bucket.truncate(kept);
        g.waiters.put_bucket(word, bucket);
    }
}

/// The layer ids whose bits are set in a [`Shared::layers_of`] mask.
fn layer_ids(mut present: u64) -> impl Iterator<Item = LayerId> {
    std::iter::from_fn(move || {
        let i = present.checked_ilog2()?;
        present &= !(1 << i);
        Some(LayerId(i as u8))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Arena;
    use armbar_topology::TopologyBuilder;

    #[test]
    fn waiter_bucket_keeps_seq_order_and_one_inline_entry() {
        assert_eq!(std::mem::size_of::<Bucket>(), 40);
        let mut b = Bucket::default();
        assert_eq!((b.is_empty(), b.len()), (true, 0));
        // seq 0 is a real registration, not the empty mark.
        b.push((0, 7));
        b.push((0, 7)); // the same waiter listing the word twice
        assert!(b.more.is_empty() && b.len() == 1 && b.get(0) == (0, 7));
        b.push((1, 3));
        b.push((2, 5));
        b.push((2, 5));
        assert_eq!((0..b.len()).map(|i| b.get(i)).collect::<Vec<_>>(), [(0, 7), (1, 3), (2, 5)]);
        // A sweep keeps the still-blocked entries in order.
        b.set(0, (1, 3));
        b.truncate(1);
        assert_eq!((b.len(), b.get(0)), (1, (1, 3)));
        b.truncate(0);
        assert!(b.is_empty() && b.more.is_empty() && b.more.capacity() >= 2);
        b.push((4, 1));
        assert_eq!((b.len(), b.get(0)), (1, (4, 1)));
    }

    /// 8 cores, clusters of 4; zero jitter, known constants:
    /// ε = 1, L0 = 10 (α .5), L1 = 40 (α .5), inv = 2, read contention = 3.
    fn topo() -> Arc<Topology> {
        Arc::new(
            TopologyBuilder::new("test8", 8)
                .epsilon_ns(1.0)
                .layer("near", 10.0, 0.5)
                .layer("far", 40.0, 0.5)
                .hierarchy(&[4])
                .coherence(2.0, 3.0, 0.0)
                .build(),
        )
    }

    #[test]
    fn single_thread_local_costs() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        let stats = SimBuilder::new(topo(), 1)
            .run(move |ctx| {
                ctx.store(a, 7); // cold line, local: ε = 1
                assert_eq!(ctx.load(a), 7); // local hit: ε = 1
                ctx.compute_ns(5.0);
            })
            .unwrap();
        assert_eq!(stats.max_time_ns(), 7.0);
        assert_eq!(stats.ops(OpKind::LocalWrite), 1);
        assert_eq!(stats.ops(OpKind::LocalRead), 1);
    }

    #[test]
    fn remote_read_pays_layer_latency() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        // Thread 0 writes (owner), thread 1 (same cluster) then reads.
        let stats = SimBuilder::new(topo(), 2)
            .run(move |ctx| {
                if ctx.tid() == 0 {
                    // Compute first so t1 parks before the store happens.
                    ctx.compute_ns(100.0);
                    ctx.store(a, 1);
                } else {
                    ctx.spin_until_eq(a, 1);
                    // After waking, the next read is a local hit.
                    let t0 = ctx.now_ns();
                    ctx.load(a);
                    assert_eq!(ctx.now_ns() - t0, 1.0);
                }
            })
            .unwrap();
        // t1's initial read of the cold line makes it a sharer. t0's store
        // at t=100 then transfers from that sharer (L0 = 10) and pays RFO to
        // it (α·L0 = 5), ending at 115. t1 wakes at 115 + L0 = 125 and its
        // local re-read adds ε → 126.
        assert_eq!(stats.per_thread_time_ns()[1], 126.0);
        assert_eq!(stats.ops(OpKind::SpinWakeup), 1);
    }

    #[test]
    fn cross_cluster_read_costs_more() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        let stats = SimBuilder::new(topo(), 5)
            .run(move |ctx| match ctx.tid() {
                0 => ctx.store(a, 1),
                4 => {
                    // Core 4 is in the other cluster: wake pays L1 = 40.
                    ctx.spin_until_eq(a, 1);
                }
                _ => {}
            })
            .unwrap();
        assert_eq!(stats.per_thread_time_ns()[4], 1.0 + 40.0);
    }

    #[test]
    fn writes_to_one_line_serialize() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        // Both threads fetch_add the same counter at t=0. The winner (t0)
        // runs first (tie broken by tid): cold local write ε + RMW
        // surcharge (ε + 0.5·ε) = 2.5. t1 must wait for available_at=2.5,
        // then pays L0 transfer (10) + RFO to t0's copy (α·L0 = 5) + RMW
        // surcharge (ε + 0.5·10 = 6) = 21 → ends at 23.5.
        let stats = SimBuilder::new(topo(), 2)
            .run(move |ctx| {
                ctx.fetch_add(a, 1);
            })
            .unwrap();
        assert_eq!(stats.per_thread_time_ns()[0], 2.5);
        assert_eq!(stats.per_thread_time_ns()[1], 23.5);
        assert_eq!(stats.ops(OpKind::RemoteWrite), 1);
    }

    #[test]
    fn fetch_add_returns_old_and_accumulates() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        let stats = SimBuilder::new(topo(), 4)
            .run(move |ctx| {
                let old = ctx.fetch_add(a, 1);
                assert!(old < 4);
                if old == 3 {
                    // Last arriver observes the full count.
                    assert_eq!(ctx.load(a), 4);
                }
            })
            .unwrap();
        assert!(stats.total_mem_ops() >= 4);
    }

    #[test]
    fn compare_exchange_arbitrates_one_winner() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        // All four threads CAS 0 -> tid+1 on the same word: exactly one
        // succeeds and every loser observes a non-zero previous value.
        let winners = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        SimBuilder::new(topo(), 4)
            .run({
                let winners = std::sync::Arc::clone(&winners);
                move |ctx| {
                    let old = ctx.compare_exchange(a, 0, ctx.tid() as u32 + 1);
                    if old == 0 {
                        winners.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                    let settled = ctx.load(a);
                    assert!((1..=4).contains(&settled), "some CAS must have landed");
                }
            })
            .unwrap();
        assert_eq!(winners.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn compare_exchange_success_and_failure_report_previous() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        SimBuilder::new(topo(), 1)
            .run(move |ctx| {
                assert_eq!(ctx.compare_exchange(a, 0, 7), 0); // success
                assert_eq!(ctx.load(a), 7);
                assert_eq!(ctx.compare_exchange(a, 3, 9), 7); // failure
                assert_eq!(ctx.load(a), 7, "failed CAS must not store");
                assert_eq!(ctx.compare_exchange(a, 7, 9), 7); // success again
                assert_eq!(ctx.load(a), 9);
            })
            .unwrap();
    }

    #[test]
    fn swap_returns_old_stores_new_and_wakes_spinners() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        SimBuilder::new(topo(), 2)
            .run(move |ctx| {
                if ctx.tid() == 0 {
                    ctx.compute_ns(100.0); // let t1 park first
                    assert_eq!(ctx.swap(a, 5), 0);
                    assert_eq!(ctx.swap(a, 9), 5);
                    assert_eq!(ctx.load(a), 9);
                } else {
                    // Both exchanges wake the spinner chain.
                    assert_eq!(ctx.spin_until_eq(a, 5), 5);
                    assert_eq!(ctx.spin_until_eq(a, 9), 9);
                }
            })
            .unwrap();
    }

    #[test]
    fn failed_cas_charged_below_successful_under_split_costs() {
        use armbar_topology::{RmwCost, RmwCosts};
        // A part that prices a failed compare below a successful exchange
        // (both LSE and LL/SC shapes do). Jitter off → exact durations.
        let costs = RmwCosts {
            fetch_add: RmwCost::new(1.0, 0.5),
            swap: RmwCost::new(1.0, 0.5),
            cas_ok: RmwCost::new(1.0, 0.5),
            cas_fail: RmwCost::new(0.5, 0.2),
        };
        let topo = std::sync::Arc::new(
            TopologyBuilder::new("split8", 8)
                .epsilon_ns(1.0)
                .layer("near", 10.0, 0.5)
                .layer("far", 40.0, 0.5)
                .hierarchy(&[4])
                .coherence(2.0, 3.0, 0.0)
                .rmw_costs(costs)
                .build(),
        );
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        SimBuilder::new(topo, 1)
            .run(move |ctx| {
                ctx.store(a, 5); // own the line: both RMWs below are local
                let t0 = ctx.now_ns();
                assert_eq!(ctx.compare_exchange(a, 5, 6), 5); // success
                let ok_dt = ctx.now_ns() - t0;
                let t1 = ctx.now_ns();
                assert_eq!(ctx.compare_exchange(a, 9, 7), 6); // failure
                let fail_dt = ctx.now_ns() - t1;
                // Local exclusive write: transfer = ε = 1, no RFO. Success
                // pays 1 + (1.0·1 + 0.5·1) = 2.5; failure 1 + (0.5·1 +
                // 0.2·1) = 1.7.
                assert!((ok_dt - 2.5).abs() < 1e-9, "ok_dt = {ok_dt}");
                assert!((fail_dt - 1.7).abs() < 1e-9, "fail_dt = {fail_dt}");
                assert!(fail_dt < ok_dt);
            })
            .unwrap();
    }

    #[test]
    fn legacy_costs_charge_every_rmw_kind_alike() {
        // Under the default (legacy) table, FAA, SWP, successful CAS and
        // failed CAS on an owned line all cost ε + (ε + 0.5·ε) = 2.5 —
        // the pre-split engine's single surcharge.
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        SimBuilder::new(topo(), 1)
            .run(move |ctx| {
                ctx.store(a, 0);
                let mut durations = Vec::new();
                let t = ctx.now_ns();
                ctx.fetch_add(a, 1);
                durations.push(ctx.now_ns() - t);
                let t = ctx.now_ns();
                ctx.swap(a, 3);
                durations.push(ctx.now_ns() - t);
                let t = ctx.now_ns();
                ctx.compare_exchange(a, 3, 4); // success
                durations.push(ctx.now_ns() - t);
                let t = ctx.now_ns();
                ctx.compare_exchange(a, 0, 9); // failure
                durations.push(ctx.now_ns() - t);
                for d in durations {
                    assert_eq!(d, 2.5);
                }
            })
            .unwrap();
    }

    #[test]
    fn compare_exchange_wakes_spinners_on_success() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        SimBuilder::new(topo(), 2)
            .run(move |ctx| {
                if ctx.tid() == 0 {
                    ctx.compute_ns(100.0); // let t1 park first
                    assert_eq!(ctx.compare_exchange(a, 0, 5), 0);
                } else {
                    assert_eq!(ctx.spin_until_eq(a, 5), 5);
                }
            })
            .unwrap();
    }

    #[test]
    fn spinner_false_sharing_charges_writer() {
        let mut arena = Arena::new();
        let base = arena.alloc_u32_array(2); // two words, same line
        let w0 = base;
        let w1 = base + 4;
        // t1 spins on word 1. t0 writes word 0 (same line): must pay RFO to
        // the spinning t1 even though the value t1 wants never changes.
        let stats = SimBuilder::new(topo(), 3)
            .run(move |ctx| match ctx.tid() {
                0 => {
                    ctx.compute_ns(100.0); // let t1 get parked first
                    let t0 = ctx.now_ns();
                    ctx.store(w0, 9);
                    let dt = ctx.now_ns() - t0;
                    // Ownership transfer: t1 read the cold line and became a
                    // sharer (no owner); transfer = L0 (10, remote) + RFO to
                    // t1 (α·L0 = 5) = 15.
                    assert_eq!(dt, 15.0);
                    ctx.store(w1, 1); // release the spinner
                }
                1 => {
                    ctx.spin_until_eq(w1, 1);
                }
                _ => {}
            })
            .unwrap();
        assert!(stats.max_time_ns() > 100.0);
    }

    #[test]
    fn deadlock_is_detected() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        let err = SimBuilder::new(topo(), 2)
            .run(move |ctx| {
                // Nobody ever writes 1: both threads block forever.
                ctx.spin_until_eq(a, 1);
            })
            .unwrap_err();
        match err {
            SimError::Deadlock { waiters } => {
                assert_eq!(waiters.len(), 2);
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn straggler_spinner_is_a_deadlock() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        // t0 finishes immediately; t1 spins forever.
        let err = SimBuilder::new(topo(), 2)
            .run(move |ctx| {
                if ctx.tid() == 1 {
                    ctx.spin_until_eq(a, 1);
                }
            })
            .unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
    }

    #[test]
    fn deadlock_reports_wait_kind_and_target() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        let b = arena.alloc_padded_u32(64);
        let err = SimBuilder::new(topo(), 2)
            .run(move |ctx| {
                if ctx.tid() == 0 {
                    ctx.spin_until_eq(a, 3);
                } else {
                    ctx.spin_until_ge(b, 7);
                }
            })
            .unwrap_err();
        match err {
            SimError::Deadlock { waiters } => {
                let w0 = waiters.iter().find(|w| w.tid == 0).unwrap();
                assert_eq!((w0.addr, w0.kind, w0.last_value), (a, WaitKind::Eq(3), 0));
                let w1 = waiters.iter().find(|w| w.tid == 1).unwrap();
                assert_eq!((w1.addr, w1.kind), (b, WaitKind::Ge(7)));
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn batched_deadlock_points_at_the_missing_flag() {
        let mut arena = Arena::new();
        let a = arena.alloc_padded_u32(64);
        let b = arena.alloc_padded_u32(64);
        let err = SimBuilder::new(topo(), 1)
            .run(move |ctx| {
                ctx.store(a, 1); // a satisfied, b never written
                ctx.spin_until_all_ge(&[a, b], 1);
            })
            .unwrap_err();
        match err {
            SimError::Deadlock { waiters } => {
                assert_eq!(waiters.len(), 1);
                assert_eq!(waiters[0].addr, b, "must name the flag still unsatisfied");
                assert_eq!(waiters[0].kind, WaitKind::AllGe(1));
                assert_eq!(waiters[0].last_value, 0);
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn op_budget_catches_livelock() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        let err = SimBuilder::new(topo(), 1)
            .op_budget(1000)
            .run(move |ctx| loop {
                ctx.store(a, 1);
            })
            .unwrap_err();
        match err {
            SimError::OpBudgetExhausted { ops, budget } => {
                assert_eq!(budget, 1000, "error must carry the configured budget");
                assert!(ops > budget);
            }
            other => panic!("expected budget error, got {other}"),
        }
    }

    #[test]
    fn thread_panic_is_reported() {
        let err = SimBuilder::new(topo(), 2)
            .run(move |ctx| {
                if ctx.tid() == 1 {
                    panic!("intentional test failure");
                }
            })
            .unwrap_err();
        match err {
            SimError::ThreadPanic { tid, message, waiters } => {
                assert_eq!(tid, 1);
                assert!(message.contains("intentional"));
                assert!(waiters.is_empty(), "no thread was blocked here");
            }
            other => panic!("expected panic error, got {other}"),
        }
    }

    #[test]
    fn thread_panic_attaches_blocked_peer_snapshot() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        // t0 parks on a flag t1 was supposed to release; t1 dies first. The
        // diagnostic must name the orphaned waiter and its target.
        let err = SimBuilder::new(topo(), 2)
            .run(move |ctx| {
                if ctx.tid() == 0 {
                    ctx.spin_until_ge(a, 1);
                } else {
                    // A real engine op: its reply is gated behind t0's
                    // wait registration, so the snapshot is deterministic.
                    ctx.now_ns();
                    panic!("writer died before releasing");
                }
            })
            .unwrap_err();
        match err {
            SimError::ThreadPanic { tid, message, waiters } => {
                assert_eq!(tid, 1);
                assert!(message.contains("before releasing"));
                assert_eq!(waiters.len(), 1, "the parked spinner must be snapshotted");
                assert_eq!(waiters[0].tid, 0);
                assert_eq!(waiters[0].addr, a);
                assert_eq!(waiters[0].kind, WaitKind::Ge(1));
                assert_eq!(waiters[0].last_value, 0);
            }
            other => panic!("expected panic error, got {other}"),
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let jittery = Arc::new(
            TopologyBuilder::new("jitter8", 8)
                .epsilon_ns(1.0)
                .layer("near", 10.0, 0.5)
                .layer("far", 40.0, 0.5)
                .hierarchy(&[4])
                .coherence(2.0, 3.0, 0.2)
                .build(),
        );
        let run = |seed: u64| {
            let mut arena = Arena::new();
            let a = arena.alloc_u32();
            SimBuilder::new(Arc::clone(&jittery), 8)
                .seed(seed)
                .run(move |ctx| {
                    for _ in 0..50 {
                        ctx.fetch_add(a, 1);
                        ctx.compute_ns(3.0);
                    }
                })
                .unwrap()
                .max_time_ns()
        };
        assert_eq!(run(1), run(1));
        assert_eq!(run(2), run(2));
        assert_ne!(run(1), run(3), "different seeds should jitter differently");
    }

    #[test]
    fn arena_reservation_changes_nothing() {
        // reserve_for is a pure pre-sizing hint: identical results with it.
        let body = |a: Addr| {
            move |ctx: &SimThread| {
                let prev = ctx.fetch_add(a, 1);
                if prev + 1 < ctx.nthreads() as u32 {
                    ctx.spin_until_ge(a, ctx.nthreads() as u32);
                }
            }
        };
        let mut arena = Arena::new();
        let a = arena.alloc_padded_u32(64);
        let plain = SimBuilder::new(topo(), 4).run(body(a)).unwrap();
        let mut arena2 = Arena::new();
        let a2 = arena2.alloc_padded_u32(64);
        let reserved = SimBuilder::new(topo(), 4).reserve_for(&arena2).run(body(a2)).unwrap();
        assert_eq!(plain.max_time_ns(), reserved.max_time_ns());
        assert_eq!(plain.per_thread_time_ns(), reserved.per_thread_time_ns());
        assert_eq!(plain.total_mem_ops(), reserved.total_mem_ops());
    }

    #[test]
    fn marks_are_recorded_in_time() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        let stats = SimBuilder::new(topo(), 2)
            .run(move |ctx| {
                ctx.mark(1);
                if ctx.tid() == 0 {
                    ctx.store(a, 1);
                } else {
                    ctx.spin_until_eq(a, 1);
                }
                ctx.mark(2);
            })
            .unwrap();
        let m1 = stats.last_mark_time(1).unwrap();
        let m2 = stats.last_mark_time(2).unwrap();
        assert_eq!(m1, 0.0);
        assert!(m2 > 0.0);
    }

    #[test]
    fn many_threads_complete() {
        let t = Arc::new(
            TopologyBuilder::new("wide", 64)
                .epsilon_ns(1.0)
                .layer("near", 10.0, 0.5)
                .layer("far", 40.0, 0.5)
                .hierarchy(&[8])
                .coherence(2.0, 1.0, 0.0)
                .build(),
        );
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        let g = arena.alloc_padded_u32(64);
        let stats = SimBuilder::new(t, 64)
            .run(move |ctx| {
                // A hand-rolled centralized barrier episode.
                let prev = ctx.fetch_add(a, 1);
                if prev == 63 {
                    ctx.store(g, 1);
                } else {
                    ctx.spin_until_eq(g, 1);
                }
            })
            .unwrap();
        assert_eq!(stats.ops(OpKind::SpinWakeup), 63);
        assert!(stats.max_time_ns() > 0.0);
    }

    #[test]
    fn coherence_counters_capture_rfo_and_stalls() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        let g64 = arena.alloc_padded_u32(64);
        // Four threads hammer one counter, then meet on a flag: the
        // RMWs serialize (write stalls), the flag write invalidates the
        // spinners' copies (RFO fan-out), and the spinners wake remotely.
        let stats = SimBuilder::new(topo(), 4)
            .run(move |ctx| {
                let prev = ctx.fetch_add(a, 1);
                if prev == 3 {
                    ctx.store(g64, 1);
                } else {
                    ctx.spin_until_eq(g64, 1);
                }
            })
            .unwrap();
        let total = stats.coherence().total();
        // Aggregate counters must agree with the legacy op-kind counts.
        assert_eq!(total.local_reads, stats.ops(OpKind::LocalRead));
        assert_eq!(total.remote_reads, stats.ops(OpKind::RemoteRead));
        assert_eq!(
            total.local_writes + total.remote_writes,
            stats.ops(OpKind::LocalWrite) + stats.ops(OpKind::RemoteWrite)
        );
        assert_eq!(total.spin_wakeups, 3);
        // Three of the four RMWs found the counter line busy.
        assert!(total.write_stalls >= 3, "stalls: {total:?}");
        assert!(total.write_stall_ns > 0.0);
        // The release store invalidated the three spinners' copies.
        assert!(total.rfo_invalidations >= 3, "fan-out: {total:?}");
        // Per-thread view: the thread that never owned the counter line
        // first must have paid a remote write.
        assert!(stats.coherence().per_thread().iter().any(|c| c.remote_writes > 0));
    }

    #[test]
    fn live_counter_snapshot_is_free_and_monotone() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        let stats = SimBuilder::new(topo(), 1)
            .run(move |ctx| {
                let before = ctx.coherence_counters();
                let t0 = ctx.now_ns();
                let mid = ctx.coherence_counters();
                assert_eq!(ctx.now_ns(), t0, "snapshot must cost no virtual time");
                ctx.store(a, 1);
                ctx.load(a);
                let after = ctx.coherence_counters();
                let d = after.delta_since(&mid);
                assert_eq!(d.local_writes, 1);
                assert_eq!(d.local_reads, 1);
                assert_eq!(before.total_mem_ops(), 0);
            })
            .unwrap();
        assert_eq!(stats.coherence().total().total_mem_ops(), 2);
    }

    #[test]
    fn reader_contention_staggers_wakeups() {
        let mut arena = Arena::new();
        let g = arena.alloc_padded_u32(64);
        let stats = SimBuilder::new(topo(), 5)
            .run(move |ctx| {
                if ctx.tid() == 0 {
                    ctx.compute_ns(50.0);
                    ctx.store(g, 1);
                } else {
                    ctx.spin_until_eq(g, 1);
                }
            })
            .unwrap();
        // Waiters 1..4 wake at end + L + c·j; with L identical within the
        // cluster the wake times must be strictly increasing for same-layer
        // waiters and all distinct here.
        let mut times: Vec<f64> = stats.per_thread_time_ns()[1..].to_vec();
        let orig = times.clone();
        times.sort_by(f64::total_cmp);
        times.dedup();
        assert_eq!(times.len(), 4, "staggered wakeups must differ: {orig:?}");
    }

    /// Min-time scheduling (deterministic interleaving by virtual time) that
    /// takes every weak behavior on offer — the maximally weak execution.
    struct AlwaysWeak;

    impl SchedulePolicy for AlwaysWeak {
        fn pick(&mut self, ready: &[ReadyOp]) -> ScheduleDecision {
            MinTimePolicy.pick(ready)
        }

        fn weak(&mut self, _op: &WeakOp) -> WeakDecision {
            WeakDecision::Weak
        }
    }

    use crate::schedule::MinTimePolicy;

    #[test]
    fn buffered_store_forwards_to_own_loads() {
        let mut arena = Arena::new();
        let a = arena.alloc_u32();
        SimBuilder::new(topo(), 1)
            .schedule_policy(AlwaysWeak)
            .run(move |ctx| {
                ctx.store_relaxed(a, 9); // deferred into the store buffer
                assert_eq!(ctx.load_relaxed(a), 9, "relaxed load must forward");
                assert_eq!(ctx.load(a), 9, "acquire load must forward");
                ctx.fence(); // drains the buffer
                assert_eq!(ctx.load(a), 9, "committed after the fence");
            })
            .unwrap();
    }

    #[test]
    fn release_store_publishes_buffered_stores_first() {
        // Message passing: the data store is relaxed and deferred, but the
        // release flag store must flush it, so the reader can never observe
        // flag == 1 with stale data.
        let mut arena = Arena::new();
        let data = arena.alloc_padded_u32(64);
        let flag = arena.alloc_padded_u32(64);
        SimBuilder::new(topo(), 2)
            .schedule_policy(AlwaysWeak)
            .run(move |ctx| {
                if ctx.tid() == 0 {
                    ctx.store_relaxed(data, 42);
                    ctx.store(flag, 1); // release: flushes data first
                } else {
                    ctx.spin_until_eq(flag, 1);
                    assert_eq!(ctx.load(data), 42);
                }
            })
            .unwrap();
    }

    #[test]
    fn quiescence_drain_commits_buffered_stores_instead_of_deadlocking() {
        // The writer's only store stays in its buffer when it finishes; the
        // spinner must still be released (ARMv8 buffers drain in finite
        // time), so this run completes instead of reporting a deadlock.
        let mut arena = Arena::new();
        let flag = arena.alloc_padded_u32(64);
        SimBuilder::new(topo(), 2)
            .schedule_policy(AlwaysWeak)
            .run(move |ctx| {
                if ctx.tid() == 0 {
                    ctx.store_relaxed(flag, 1);
                } else {
                    ctx.spin_until_eq(flag, 1);
                }
            })
            .unwrap();
    }

    #[test]
    fn relaxed_load_may_return_stale_value_until_acquire() {
        // t0 observes a == 0, then t1 commits a = 7 (virtual-time ordered);
        // t0's later relaxed load is served the stale 0, and its acquire
        // load discards the stale copy and sees the committed 7.
        let mut arena = Arena::new();
        let a = arena.alloc_padded_u32(64);
        SimBuilder::new(topo(), 2)
            .schedule_policy(AlwaysWeak)
            .run(move |ctx| {
                if ctx.tid() == 0 {
                    assert_eq!(ctx.load(a), 0); // caches 0
                    ctx.compute_ns(1000.0); // let t1's store land
                    assert_eq!(ctx.load_relaxed(a), 0, "stale read");
                    assert_eq!(ctx.load(a), 7, "acquire reads committed state");
                    assert_eq!(ctx.load_relaxed(a), 7, "stale cache was refreshed");
                } else {
                    ctx.compute_ns(100.0);
                    ctx.store(a, 7);
                }
            })
            .unwrap();
    }

    #[test]
    fn same_address_relaxed_stores_coalesce_in_order() {
        // Per-location order: two buffered stores to one address drain FIFO,
        // so the final committed value is the program-order-last one.
        let mut arena = Arena::new();
        let a = arena.alloc_padded_u32(64);
        SimBuilder::new(topo(), 2)
            .schedule_policy(AlwaysWeak)
            .run(move |ctx| {
                if ctx.tid() == 0 {
                    ctx.store_relaxed(a, 1);
                    ctx.store_relaxed(a, 2);
                    ctx.fence();
                    assert_eq!(ctx.load(a), 2);
                } else {
                    ctx.spin_until_ge(a, 2);
                    assert_eq!(ctx.load(a), 2);
                }
            })
            .unwrap();
    }

    #[test]
    fn weak_mode_with_strong_decisions_matches_default_engine() {
        // Budget-0 byte-identity: a policy that keeps every relaxed op
        // strong must reproduce the default heap engine's results exactly,
        // even for programs using the relaxed/fence API.
        let body = |ctx: &SimThread, a: Addr, flag: Addr| {
            if ctx.tid() == 0 {
                ctx.store_relaxed(a, 5);
                ctx.store(flag, 1);
            } else {
                ctx.spin_until_eq(flag, 1);
                assert_eq!(ctx.load_relaxed(a), 5);
            }
        };
        let run = |policy: bool| {
            let mut arena = Arena::new();
            let a = arena.alloc_padded_u32(64);
            let flag = arena.alloc_padded_u32(64);
            let mut b = SimBuilder::new(topo(), 2).seed(7);
            if policy {
                b = b.schedule_policy(MinTimePolicy);
            }
            let stats = b.run(move |ctx| body(ctx, a, flag)).unwrap();
            (stats.per_thread_time_ns().to_vec(), stats.schedule_hash())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn deadlock_report_carries_divergent_thread_view() {
        // t1 cached a == 0 before spinning for a value that never comes;
        // the committed word reaches 2. The report must show both: the
        // committed 2 and the 0 the thread itself last observed.
        let mut arena = Arena::new();
        let a = arena.alloc_padded_u32(64);
        let err = SimBuilder::new(topo(), 2)
            .schedule_policy(AlwaysWeak)
            .run(move |ctx| {
                if ctx.tid() == 0 {
                    ctx.compute_ns(500.0);
                    ctx.store(a, 2);
                } else {
                    assert_eq!(ctx.load(a), 0); // caches 0
                    ctx.spin_until_eq(a, 3); // never satisfied
                }
            })
            .unwrap_err();
        let SimError::Deadlock { waiters } = err else { panic!("expected deadlock: {err}") };
        assert_eq!(waiters.len(), 1);
        assert_eq!(waiters[0].last_value, 2);
        assert_eq!(waiters[0].view, 0);
        assert!(waiters[0].to_string().contains("saw 2, thread view 0"), "{}", waiters[0]);
    }

    #[test]
    fn cowr_own_committed_store_not_read_backward() {
        let mut arena = Arena::new();
        let a = arena.alloc_padded_u32(64);
        SimBuilder::new(topo(), 1)
            .schedule_policy(AlwaysWeak)
            .run(move |ctx| {
                assert_eq!(ctx.load(a), 0); // caches 0
                ctx.store(a, 5); // release store, committed
                assert_eq!(
                    ctx.load_relaxed(a),
                    5,
                    "CoWR: relaxed load after own committed store must not go backward"
                );
            })
            .unwrap();
    }

    /// A random set over cores `0..p`, run-width, of one of five densities
    /// (empty, one core, sparse, half, full), so the zero-word skip, the
    /// partial last word and the early exit all get exercised.
    fn random_sharers(rng: &mut SplitMix64, p: usize) -> Vec<u64> {
        let mut sharers = vec![0u64; p.div_ceil(64)];
        let density = [0.0, 0.0, 0.02, 0.5, 1.0][(rng.next_u64() % 5) as usize];
        for c in 0..p {
            if rng.next_f64() < density {
                set::insert(&mut sharers, c);
            }
        }
        if density == 0.0 && rng.next_u64() % 2 == 1 {
            set::insert(&mut sharers, (rng.next_u64() % p as u64) as usize);
        }
        sharers
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 16, ..Default::default() })]
        /// The layer-mask reductions over a sharer set equal the per-member
        /// folds of `topo.layer(t, s)` they stand for, on every preset, at
        /// run widths on both sides of the 64-core word boundaries.
        #[test]
        fn sharer_reductions_match_per_member_folds(seed in 0u64..u64::MAX) {
            let mut rng = SplitMix64::new(seed);
            for platform in armbar_topology::Platform::EVERY {
                let topo = Arc::new(Topology::preset(platform));
                let widths = [1, 63, 64, 65, 256, 1024];
                for p in widths.into_iter().filter(|&p| p <= topo.num_cores()) {
                    let shared = SimBuilder::new(Arc::clone(&topo), p).into_shared();
                    let at = |t| format!("{} P={p} t={t}", topo.name());
                    for _ in 0..16 {
                        let sharers = random_sharers(&mut rng, p);
                        let t = (rng.next_u64() % p as u64) as usize;
                        let owner = match rng.next_u64() % (p as u64 + 1) {
                            o if o == p as u64 => Line::NO_OWNER,
                            o => o as u32,
                        };
                        let line = Line { owner, ..Line::COLD };
                        let members: Vec<usize> =
                            (0..p).filter(|&c| set::contains(&sharers, c)).collect();
                        let others = members.iter().filter(|&&s| s != t);
                        let layers = others.clone().fold(0u64, |m, &s| m | 1 << topo.layer(t, s).0);
                        let present = shared.layers_of(t, &sharers);
                        assert_eq!(present, layers, "{}", at(t));
                        if !members.is_empty() {
                            let nearest = members
                                .iter()
                                .map(|&s| topo.latency_ns(t, s))
                                .fold(f64::INFINITY, f64::min);
                            assert_eq!(shared.nearest_latency(t, &sharers), nearest, "{}", at(t));
                        }
                        let owner_ns =
                            line.owner().filter(|&o| o != t).map_or(0.0, |o| topo.latency_ns(t, o));
                        let farthest =
                            others.map(|&s| topo.latency_ns(t, s)).fold(owner_ns, f64::max);
                        let got = shared.farthest_holder_latency(t, &line, present);
                        assert_eq!(got, farthest, "{}", at(t));
                    }
                }
            }
        }
    }
}
