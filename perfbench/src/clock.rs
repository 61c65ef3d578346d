//! The benchmark's clock: host time scaled to a reference host speed.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by
//! 1.3–1.7× over seconds to minutes, with no steal time recorded: the vCPU
//! keeps running, but on a physical core it shares with other guests. Wall
//! time then measures the neighbours as much as the program. This clock
//! advances at wall-clock rate times `(REF_KERNEL_NS / k)^BETA`, where `k`
//! is the median of the last few timings of a fixed calibration kernel,
//! re-run every `INTERVAL` of wall time. The kernel is the benchmark's own
//! code, independent of the code under test, and its state is brought
//! into cache before it is timed, so what the program leaves in the caches
//! does not move it: a slower program still reads slower by the same
//! factor, while a slower host slows the kernel as well and is divided
//! out. Calibration runs inside `now()` with the clock stopped, so no
//! interval the clock reports includes a calibration.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Wall time between calibrations.
const INTERVAL: Duration = Duration::from_millis(25);
/// Kernel timings the speed estimate is the median of.
const WINDOW: usize = 7;
/// The kernel's time on the reference host (a 2-vCPU Sapphire Rapids KVM
/// guest at its median speed), ns: at that speed the clock reads wall time.
const REF_KERNEL_NS: f64 = 420_000.0;
/// How much more strongly the workloads respond to the host's speed than
/// the kernel does. Over ten runs of each workload on the reference host,
/// log wall time against log kernel time had slopes of 1.2 (sim-kilocore),
/// 1.3 (sim-paper), 1.4 (serve-zipf) and 2.2 (explore, over a narrow range
/// of host speeds); with a slope of 1 the clock divided out only part of
/// the drift.
const BETA: f64 = 1.4;
/// Events per kernel run, and the entities of the event loop (256 KiB of
/// state and a heap of `ENTITIES` pending events, resident in L2).
const EVENTS: usize = 4096;
const ENTITIES: usize = 4096;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The calibration work: a small discrete-event loop over a binary heap
/// of pending events (branchy, cache-resident, the shape of the
/// simulator's scheduler), allocation-free after set-up. Of the kernels
/// tried on the reference host (pointer chasing, random read-modify-write,
/// dependent integer chains, B-tree inserts, hash-map upserts into 3k- to
/// 300k-key tables, string formatting and sorting, event loops), its
/// timings followed the workloads' slow and fast stretches most closely,
/// though it still moves less than they do: in a fast stretch where the
/// workloads took 0.7–0.75 of their usual time, it took 0.8.
struct Kernel {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    state: Vec<[u64; 8]>,
    /// Pseudo-random stream, carried from run to run.
    x: u64,
}

impl Kernel {
    fn new() -> Self {
        Kernel {
            heap: (0..ENTITIES as u32).map(|i| Reverse((u64::from(i), i))).collect(),
            state: vec![[1; 8]; ENTITIES],
            x: 0,
        }
    }

    /// Reads all of the kernel's state, bringing it into cache.
    fn touch(&self) -> u64 {
        let state = self.state.iter().fold(0, |a, s| a ^ s[0] ^ s[7]);
        self.heap.iter().fold(state, |a, Reverse((t, _))| a ^ t)
    }

    fn run(&mut self) -> u64 {
        let mut acc = 0;
        for _ in 0..EVENTS {
            let Reverse((t, id)) = self.heap.pop().expect("the heap never empties");
            self.x = mix(self.x.wrapping_add(u64::from(id)));
            let target = (self.x % ENTITIES as u64) as usize;
            let s = &mut self.state[target];
            let k = (self.x >> 61) as usize;
            s[k] = s[k].wrapping_add(self.x);
            let delay = if s[k] & 3 == 0 { 1 + (s[(k + 1) & 7] & 63) } else { 10 + (self.x & 255) };
            self.heap.push(Reverse((t + delay, target as u32)));
            acc ^= t;
        }
        acc
    }
}

struct State {
    /// Wall instant and clock reading at the last (re)start.
    anchor: Instant,
    anchor_ns: f64,
    /// Clock ns per wall ns.
    rate: f64,
    last_cal: Instant,
    recent: [u64; WINDOW],
    next: usize,
    /// Every kernel timing so far, ns.
    kernel_ns: Vec<u64>,
    kernel: Kernel,
}

static STATE: Mutex<Option<State>> = Mutex::new(None);

impl State {
    fn new() -> Self {
        let now = Instant::now();
        let mut s = State {
            anchor: now,
            anchor_ns: 0.0,
            rate: 1.0,
            last_cal: now,
            recent: [0; WINDOW],
            next: 0,
            kernel_ns: Vec::new(),
            kernel: Kernel::new(),
        };
        for _ in 0..WINDOW {
            s.calibrate();
        }
        s
    }

    fn read(&self, at: Instant) -> f64 {
        self.anchor_ns + (at - self.anchor).as_nanos() as f64 * self.rate
    }

    /// Times the kernel with the clock stopped and updates the rate.
    fn calibrate(&mut self) {
        let stopped_at = self.read(Instant::now());
        black_box(self.kernel.touch());
        let t = Instant::now();
        black_box(self.kernel.run());
        let ns = t.elapsed().as_nanos() as u64;
        self.kernel_ns.push(ns);
        self.recent[self.next % WINDOW] = ns;
        self.next += 1;
        let filled = self.next.min(WINDOW);
        let mut r = self.recent[..filled].to_vec();
        r.sort_unstable();
        self.rate = (REF_KERNEL_NS / r[filled / 2] as f64).powf(BETA);
        self.anchor = Instant::now();
        self.last_cal = self.anchor;
        self.anchor_ns = stopped_at;
    }
}

fn with<R>(f: impl FnOnce(&mut State) -> R) -> R {
    let mut guard = STATE.lock().expect("clock lock poisoned");
    f(guard.get_or_insert_with(State::new))
}

/// The clock's reading, ns since its first use; calibrates first when
/// `INTERVAL` has passed since the last calibration.
pub fn now() -> u64 {
    with(|s| {
        let at = Instant::now();
        if at - s.last_cal >= INTERVAL {
            s.calibrate();
            return s.anchor_ns as u64;
        }
        s.read(at) as u64
    })
}

/// Clock ns since the reading `t0`.
pub fn since(t0: u64) -> u64 {
    now().saturating_sub(t0)
}

/// Clock seconds since the reading `t0`.
pub fn secs_since(t0: u64) -> f64 {
    since(t0) as f64 / 1e9
}

/// Runs `f` with the clock stopped, so that no interval the clock reports
/// includes it: work a pass does for the next pass, outside what it
/// measures. `f` must not read the clock.
pub fn untimed<R>(f: impl FnOnce() -> R) -> R {
    let stopped_at = now();
    let r = f();
    with(|s| {
        s.anchor = Instant::now();
        s.anchor_ns = stopped_at as f64;
    });
    r
}

/// Recalibrates now, whatever the time since the last calibration (before
/// a short timed step whose own interval may not reach `INTERVAL`).
pub fn calibrate() {
    with(State::calibrate)
}

/// Kernel timings so far, µs (the host's speed over the run).
pub fn kernel_us() -> Vec<f64> {
    with(|s| s.kernel_ns.iter().map(|&ns| ns as f64 / 1e3).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic_and_excludes_calibration() {
        let a = now();
        calibrate();
        let b = now();
        assert!(b >= a);
        // A calibration takes about REF_KERNEL_NS of wall time; none of it
        // shows between two readings that bracket only a calibration.
        assert!(b - a < (REF_KERNEL_NS / 4.0) as u64, "{} ns", b - a);
        assert!(!kernel_us().is_empty());
    }

    #[test]
    fn untimed_work_does_not_advance_the_clock() {
        let a = now();
        untimed(|| std::thread::sleep(Duration::from_millis(30)));
        // Without the pause the clock would have moved by ~30 ms (more than
        // INTERVAL, so a calibration may also run, which is excluded too).
        assert!(now() - a < 5_000_000);
    }

    #[test]
    fn kernel_does_the_same_work_in_every_process() {
        let (mut k1, mut k2) = (Kernel::new(), Kernel::new());
        for _ in 0..3 {
            assert_eq!(k1.run(), k2.run());
        }
        assert_eq!(k1.state, k2.state);
        assert_eq!(k1.heap.len(), ENTITIES);
    }
}
