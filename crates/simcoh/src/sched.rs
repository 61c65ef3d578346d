//! The default-mode scheduler: which posted operation the engine
//! processes next (`DESIGN.md` §13).
//!
//! The rule is *process the minimal ready key `(time, tid)` iff it is ≤
//! every running key*: a running thread posts its next operation at its
//! current engine-known time, so nothing it does can sort below its key.
//! [`Sched`] keeps the running and ready threads in one indexed heap and
//! busy-line re-posts in the [`StallQueue`].

use std::collections::VecDeque;

/// Total order on virtual times for the scheduler's keys. `total_cmp`
/// matches the tie-breaking of the original `min_by` scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TimeKey(pub(crate) f64);

impl Eq for TimeKey {}

impl PartialOrd for TimeKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimeKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Scheduler key: `(virtual time, tid)`. Unique per thread (a thread holds
/// one key, in the heap or in the stall queue), so comparisons are never
/// ambiguous.
pub(crate) type SchedKey = (TimeKey, usize);

/// Ops re-posted after stalling on a busy line, grouped into runs that
/// share one re-post time (the line's `available_at`). A write storm on
/// one line re-posts every queued op at the same time, in ascending tid
/// order, so most pushes append to an existing run and most pops take the
/// front of the earliest one — O(1) each, where a heap pays a sift both
/// ways.
#[derive(Default)]
pub(crate) struct StallQueue {
    /// Runs ordered by time, *latest first*: the head run is the last one.
    /// Each run's tids are ascending.
    runs: Vec<(TimeKey, VecDeque<usize>)>,
    /// Emptied run deques kept for reuse, so a one-off stall allocates
    /// nothing.
    pool: Vec<VecDeque<usize>>,
}

impl StallQueue {
    pub(crate) fn push(&mut self, (t, tid): SchedKey) {
        // Descending order: a run later than `t` sorts before it.
        match self.runs.binary_search_by(|(rt, _)| t.cmp(rt)) {
            Ok(i) => {
                let run = &mut self.runs[i].1;
                if run.back().is_none_or(|&b| b < tid) {
                    run.push_back(tid);
                } else {
                    let at = run.binary_search(&tid).expect_err("tid stalled twice");
                    run.insert(at, tid);
                }
            }
            Err(i) => {
                let mut run = self.pool.pop().unwrap_or_default();
                run.push_back(tid);
                self.runs.insert(i, (t, run));
            }
        }
    }

    pub(crate) fn peek(&self) -> Option<SchedKey> {
        self.runs.last().map(|(t, run)| (*t, run[0]))
    }

    pub(crate) fn pop(&mut self) {
        let (_, run) = self.runs.last_mut().expect("pop from an empty stall queue");
        run.pop_front();
        if run.is_empty() {
            let (_, run) = self.runs.pop().expect("checked above");
            self.pool.push(run);
        }
    }

    /// The head run, if its time is `t`.
    pub(crate) fn head_run(&self, t: TimeKey) -> Option<&VecDeque<usize>> {
        self.runs.last().filter(|(rt, _)| *rt == t).map(|(_, run)| run)
    }

    /// Moves the first `n` tids of the head run into the existing, later
    /// run at `to`, leaving it as `n` pushes one by one would: appended
    /// when they all sort after its tids, inserted one by one otherwise.
    pub(crate) fn splice_head(&mut self, n: usize, to: TimeKey) {
        if n == 0 {
            return;
        }
        let last = self.runs.len() - 1;
        let at = self.runs.binary_search_by(|(rt, _)| to.cmp(rt)).expect("no run at `to`");
        let (rest, head) = self.runs.split_at_mut(last);
        let (dst, src) = (&mut rest[at].1, &mut head[0].1);
        if dst.back().is_some_and(|&b| b > src[0]) {
            for tid in src.drain(..n) {
                let i = dst.binary_search(&tid).expect_err("tid stalled twice");
                dst.insert(i, tid);
            }
        } else if n < src.len() {
            dst.extend(src.drain(..n));
        } else {
            // The whole run moves. In a storm the destination holds only
            // the first loser, so keep the run's deque and put the
            // destination's tids in front of it.
            std::mem::swap(dst, src);
            while let Some(tid) = src.pop_back() {
                dst.push_front(tid);
            }
        }
        if src.is_empty() {
            let (_, run) = self.runs.pop().expect("checked above");
            self.pool.push(run);
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    pub(crate) fn clear(&mut self) {
        for (_, mut run) in self.runs.drain(..) {
            run.clear();
            self.pool.push(run);
        }
    }
}

/// Packs a scheduler key into one integer, `(time bits << 32) | tid`. For
/// non-negative times the bit pattern orders exactly as `total_cmp` does,
/// so packed keys compare like [`SchedKey`]s.
#[inline]
fn pack(time: f64, tid: usize) -> u128 {
    debug_assert!(time.is_sign_positive(), "negative virtual time {time}");
    (u128::from(time.to_bits()) << 32) | tid as u128
}

/// The tid of a packed key.
#[inline]
fn key_tid(k: u128) -> usize {
    k as u32 as usize
}

fn unpack(k: u128) -> SchedKey {
    (TimeKey(f64::from_bits((k >> 32) as u64)), key_tid(k))
}

/// Where a thread stands in [`Sched`]'s heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Not in the heap: stalled, blocked in a spin, finished or torn down.
    Out,
    /// Executing user code, keyed at the time it will post at.
    Running,
    /// Posted and waiting for `pop_next`.
    Ready,
    /// Popped and being processed; its reply rekeys it in place.
    InFlight,
}

/// The default-mode scheduler (DESIGN.md §13): one indexed binary heap of
/// the running and ready threads, keyed `(time, tid)`, and the
/// [`StallQueue`] for busy-line re-posts. `pop_next` implements the rule
/// "process the minimal ready key iff it is ≤ every running key": keys are
/// unique per thread, so that is "the heap's root is ready", unless the
/// stall queue's head sorts below the root.
///
/// A thread stays in the heap for as long as it runs, posts and is
/// processed: posting and replying rekey it in place with one sift-down
/// (virtual time never runs backward). Only a thread that stalls, blocks in
/// a spin or finishes leaves the heap.
pub(crate) struct Sched {
    /// Binary min-heap of packed keys ([`pack`]).
    heap: Vec<u128>,
    /// Each thread's index in `heap`; meaningless while it is `Out`.
    pos: Vec<u32>,
    mode: Vec<Mode>,
    nrunning: usize,
    nready: usize,
    /// Posted-but-unprocessed operations re-posted after a line stall.
    pub(crate) stalls: StallQueue,
}

impl Sched {
    /// Every thread starts running at time 0; ascending keys are a heap.
    pub(crate) fn new(nthreads: usize) -> Self {
        Self {
            heap: (0..nthreads).map(|t| pack(0.0, t)).collect(),
            pos: (0..nthreads as u32).collect(),
            mode: vec![Mode::Running; nthreads],
            nrunning: nthreads,
            nready: 0,
            stalls: StallQueue::default(),
        }
    }

    /// Posts the running thread `tid`'s operation at `time`.
    pub(crate) fn post(&mut self, tid: usize, time: f64) {
        debug_assert_eq!(self.mode[tid], Mode::Running, "posting thread must be running");
        self.mode[tid] = Mode::Ready;
        self.nrunning -= 1;
        self.nready += 1;
        self.rekey(tid, time);
    }

    /// Re-posts `tid`'s operation after a line stall.
    pub(crate) fn stall(&mut self, key: SchedKey) {
        self.leave(key.1);
        self.stalls.push(key);
    }

    /// `tid` resumes user code at `time`: an in-flight thread is rekeyed in
    /// place, a woken or re-stalled one enters the heap.
    pub(crate) fn resume(&mut self, tid: usize, time: f64) {
        match self.mode[tid] {
            Mode::InFlight => self.rekey(tid, time),
            Mode::Out => {
                self.pos[tid] = self.heap.len() as u32;
                self.heap.push(pack(time, tid));
                self.sift_up(self.heap.len() - 1);
            }
            m => unreachable!("thread {tid} resumed while {m:?}"),
        }
        self.mode[tid] = Mode::Running;
        self.nrunning += 1;
    }

    /// Takes `tid` out of the heap, if it is in it; whether it was running.
    pub(crate) fn leave(&mut self, tid: usize) -> bool {
        let mode = std::mem::replace(&mut self.mode[tid], Mode::Out);
        match mode {
            Mode::Out => return false,
            Mode::Running => self.nrunning -= 1,
            Mode::Ready => self.nready -= 1,
            Mode::InFlight => {}
        }
        let i = self.pos[tid] as usize;
        let last = self.heap.pop().expect("a thread in the heap");
        if i < self.heap.len() {
            self.heap[i] = last;
            if i > 0 && last < self.heap[(i - 1) / 2] {
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
        }
        mode == Mode::Running
    }

    pub(crate) fn running_is_empty(&self) -> bool {
        self.nrunning == 0
    }

    pub(crate) fn ready_is_empty(&self) -> bool {
        self.nready == 0 && self.stalls.is_empty()
    }

    pub(crate) fn clear(&mut self) {
        self.heap.clear();
        self.mode.fill(Mode::Out);
        self.nrunning = 0;
        self.nready = 0;
        self.stalls.clear();
    }

    /// Pops the next processable operation: the stall queue's head when it
    /// sorts below the heap's root, else a ready root, which stays in place
    /// as in flight; and whether it came from the stall queue. Returns
    /// `None` when the pass must end (no ready op, or the root is a running
    /// thread that will post an earlier key).
    pub(crate) fn pop_next(&mut self) -> Option<(SchedKey, bool)> {
        let root = self.heap.first().copied();
        if let Some(s) = self.stalls.peek() {
            if root.is_none_or(|r| pack(s.0 .0, s.1) < r) {
                self.stalls.pop();
                return Some((s, true));
            }
        }
        let root = root?;
        let tid = key_tid(root);
        debug_assert_ne!(self.mode[tid], Mode::InFlight, "popped while an op is in flight");
        if self.mode[tid] != Mode::Ready {
            return None;
        }
        self.mode[tid] = Mode::InFlight;
        self.nready -= 1;
        Some((unpack(root), false))
    }

    /// The smallest key outside the stall queue (the heap's root): a stall
    /// key below it is what `pop_next` returns next.
    pub(crate) fn outside_min(&self) -> Option<SchedKey> {
        self.heap.first().map(|&k| unpack(k))
    }

    /// Moves `tid` to its later key `time` (sift-down only).
    fn rekey(&mut self, tid: usize, time: f64) {
        let i = self.pos[tid] as usize;
        let k = pack(time, tid);
        debug_assert!(k >= self.heap[i], "thread {tid} rekeyed backward in time");
        // Unchanged when a thread posts at the time it resumed at.
        if k != self.heap[i] {
            self.heap[i] = k;
            self.sift_down(i);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let k = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let pk = self.heap[parent];
            if pk < k {
                break;
            }
            self.heap[i] = pk;
            self.pos[key_tid(pk)] = i as u32;
            i = parent;
        }
        self.heap[i] = k;
        self.pos[key_tid(k)] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize) {
        let k = self.heap[i];
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            // The smaller child, without a branch the predictor would miss.
            let c = if l + 1 < n { l + usize::from(self.heap[l + 1] < self.heap[l]) } else { l };
            let ck = self.heap[c];
            if k < ck {
                break;
            }
            self.heap[i] = ck;
            self.pos[key_tid(ck)] = i as u32;
            i = c;
        }
        self.heap[i] = k;
        self.pos[key_tid(k)] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::{BTreeSet, BinaryHeap};

    use proptest::prelude::*;

    use super::*;
    use crate::rng::SplitMix64;

    /// The scheduling rule spelled out with the structures the indexed heap
    /// replaced: a ready heap and a running set beside the stall queue.
    struct Model {
        ready: BinaryHeap<Reverse<SchedKey>>,
        running: BTreeSet<SchedKey>,
        stalls: StallQueue,
    }

    impl Model {
        fn new(nthreads: usize) -> Self {
            Self {
                ready: BinaryHeap::new(),
                running: (0..nthreads).map(|t| (TimeKey(0.0), t)).collect(),
                stalls: StallQueue::default(),
            }
        }

        fn pop_next(&mut self) -> Option<(SchedKey, bool)> {
            let heap = self.ready.peek().map(|&Reverse(k)| k);
            let (head, from_stall) = match (heap, self.stalls.peek()) {
                (Some(h), Some(s)) if s < h => (s, true),
                (Some(h), _) => (h, false),
                (None, Some(s)) => (s, true),
                (None, None) => return None,
            };
            if self.running.first().is_some_and(|&r| r < head) {
                return None;
            }
            if from_stall {
                self.stalls.pop();
            } else {
                self.ready.pop();
            }
            Some((head, from_stall))
        }

        fn outside_min(&self) -> Option<SchedKey> {
            let heap = self.ready.peek().map(|&Reverse(k)| k);
            match (heap, self.running.first().copied()) {
                (Some(h), Some(r)) => Some(h.min(r)),
                (h, r) => h.or(r),
            }
        }
    }

    /// Where the driver has put each thread, with its time.
    #[derive(Clone, Copy, PartialEq)]
    enum At {
        Running(f64),
        Ready,
        Stalled,
        Blocked(f64),
        Finished,
    }

    /// Drives one random post / pop / stall / reply / block / wake / finish
    /// / abort sequence through `Sched` and the model, as the engine does:
    /// a popped op is resolved (reply, re-stall or block) before the next
    /// pop, and a write may wake blocked threads meanwhile. Times come from
    /// a coarse grid so that equal times (tid-ordered ties) are common.
    fn check(seed: u64, nthreads: usize) {
        let mut rng = SplitMix64::new(seed);
        let mut draw = |n: u64| (rng.next_u64() % n) as usize;
        let mut sched = Sched::new(nthreads);
        let mut model = Model::new(nthreads);
        let mut at = vec![At::Running(0.0); nthreads];
        let pick = |at: &[At], want: fn(&At) -> bool, r: usize| {
            let tids: Vec<usize> = (0..at.len()).filter(|&t| want(&at[t])).collect();
            (!tids.is_empty()).then(|| tids[r % tids.len()])
        };
        for step in 0..400 {
            let ctx = format!("seed {seed}, {nthreads} threads, step {step}");
            match draw(16) {
                0..=5 => {
                    let Some(tid) = pick(&at, |a| matches!(a, At::Running(_)), draw(64)) else {
                        continue;
                    };
                    let At::Running(t) = at[tid] else { unreachable!() };
                    let posted = t + draw(3) as f64;
                    sched.post(tid, posted);
                    assert!(model.running.remove(&(TimeKey(t), tid)), "{ctx}");
                    model.ready.push(Reverse((TimeKey(posted), tid)));
                    at[tid] = At::Ready;
                }
                6..=11 => {
                    let got = sched.pop_next();
                    assert_eq!(got, model.pop_next(), "pop, {ctx}");
                    let Some(((TimeKey(t), tid), _)) = got else { continue };
                    // Replies to blocked threads the op's write satisfied.
                    while draw(3) == 0 {
                        let Some(w) = pick(&at, |a| matches!(a, At::Blocked(_)), draw(64)) else {
                            break;
                        };
                        let At::Blocked(wt) = at[w] else { unreachable!() };
                        let woke = wt.max(t) + draw(4) as f64;
                        sched.resume(w, woke);
                        model.running.insert((TimeKey(woke), w));
                        at[w] = At::Running(woke);
                    }
                    match draw(4) {
                        0 => {
                            let until = t + 1.0 + draw(3) as f64;
                            sched.stall((TimeKey(until), tid));
                            model.stalls.push((TimeKey(until), tid));
                            at[tid] = At::Stalled;
                        }
                        1 => {
                            sched.leave(tid);
                            at[tid] = At::Blocked(t);
                        }
                        _ => {
                            let done = t + draw(3) as f64;
                            sched.resume(tid, done);
                            model.running.insert((TimeKey(done), tid));
                            at[tid] = At::Running(done);
                        }
                    }
                }
                12..=13 => {
                    let Some(w) = pick(&at, |a| matches!(a, At::Blocked(_)), draw(64)) else {
                        continue;
                    };
                    let At::Blocked(wt) = at[w] else { unreachable!() };
                    let woke = wt + draw(4) as f64;
                    sched.resume(w, woke);
                    model.running.insert((TimeKey(woke), w));
                    at[w] = At::Running(woke);
                }
                14 => {
                    let Some(tid) = pick(&at, |a| matches!(a, At::Running(_)), draw(64)) else {
                        continue;
                    };
                    let At::Running(t) = at[tid] else { unreachable!() };
                    assert!(sched.leave(tid), "{ctx}");
                    assert!(model.running.remove(&(TimeKey(t), tid)), "{ctx}");
                    at[tid] = At::Finished;
                }
                _ => {
                    if draw(8) != 0 {
                        continue;
                    }
                    // Abort: everything is torn down; a finishing thread is
                    // no longer running.
                    sched.clear();
                    assert!(sched.ready_is_empty() && sched.running_is_empty(), "{ctx}");
                    assert!((0..nthreads).all(|t| !sched.leave(t)), "{ctx}");
                    assert_eq!(sched.pop_next(), None, "{ctx}");
                    assert_eq!(sched.outside_min(), None, "{ctx}");
                    return;
                }
            }
            assert_eq!(sched.outside_min(), model.outside_min(), "outside_min, {ctx}");
            assert_eq!(sched.running_is_empty(), model.running.is_empty(), "running, {ctx}");
            assert_eq!(
                sched.ready_is_empty(),
                model.ready.is_empty() && model.stalls.is_empty(),
                "ready, {ctx}"
            );
        }
    }

    proptest! {
        /// The indexed heap pops what today's rule pops, in the same order,
        /// and bounds a stall run where the rule does.
        #[test]
        fn indexed_heap_matches_the_ready_heap_and_running_set_rule(
            seed in 0u64..u64::MAX,
            nthreads in 1usize..24,
        ) {
            check(seed, nthreads);
        }
    }

    #[test]
    fn packed_keys_order_like_time_then_tid() {
        let times = [0.0, 1e-300, 0.5, 1.0, 1.0 + f64::EPSILON, 3.0e9, f64::INFINITY];
        for &a in &times {
            for &b in &times {
                for (ta, tb) in [(0usize, 0usize), (0, 1), (1, 0), (7, 1023)] {
                    let want = (TimeKey(a), ta).cmp(&(TimeKey(b), tb));
                    assert_eq!(pack(a, ta).cmp(&pack(b, tb)), want, "({a}, {ta}) vs ({b}, {tb})");
                    assert_eq!(unpack(pack(a, ta)), (TimeKey(a), ta));
                }
            }
        }
    }
}
