//! # armbar-bench — the BENCH file writers
//!
//! Four binaries write the committed BENCH files through the one
//! [`report`] writer, each timing its workload with [`best_pass`] and
//! reading its command line with [`Args`]:
//!
//! * `bench_sim` — `BENCH_sim.json`: simulator engine throughput on the
//!   default heap path and on the schedule-policy path (the blocking
//!   `engine_ops_per_sec_*` gate) and the quick-suite wall time;
//! * `bench_churn` — `BENCH_churn.json`: phaser episode throughput under
//!   membership churn;
//! * `bench_serve` — `BENCH_serve.json`: the multi-tenant serve load;
//! * `bench_host` — `BENCH_host.json`: barrier overhead on real host
//!   atomics, by the EPCC method.

pub mod report;

use std::time::Instant;

/// A BENCH writer's command line, parsed strictly against its usage line:
/// `[--flag]` declares a switch and `[--flag VALUE]` a flag taking one
/// value. An unknown flag or a missing value prints the usage line and
/// exits 2, as `all_experiments` does, so a typo never runs a different
/// (or an ungated) bench and exits 0.
#[derive(Debug)]
pub struct Args {
    usage: &'static str,
    given: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses the process arguments against `usage`
    /// (e.g. `"bench_host [--out PATH] [--summary PATH]"`).
    pub fn from_env(usage: &'static str) -> Args {
        Self::parse(usage, std::env::args().skip(1)).unwrap_or_else(|e| usage_exit(usage, &e))
    }

    fn parse(usage: &'static str, args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        // Each `[...]` group of the usage line: the flag, then whether a
        // value placeholder follows it.
        let declared: Vec<(&str, bool)> = usage
            .split('[')
            .skip(1)
            .filter_map(|group| {
                let mut words = group.split(']').next()?.split_whitespace();
                Some((words.next()?, words.next().is_some()))
            })
            .collect();
        let mut args = args.into_iter();
        let mut given = Vec::new();
        while let Some(flag) = args.next() {
            let value = match declared.iter().find(|(name, _)| *name == flag) {
                None => return Err(format!("unknown flag {flag:?}")),
                Some((_, false)) => None,
                Some((_, true)) => Some(args.next().ok_or(format!("{flag} needs a value"))?),
            };
            given.push((flag, value));
        }
        Ok(Args { usage, given })
    }

    /// Whether switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(name, _)| name == flag)
    }

    /// The value of `flag` (the last one, if repeated).
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.given.iter().rev().find(|(name, _)| name == flag).and_then(|(_, v)| v.as_deref())
    }

    /// Reports a bad flag value: prints `error` and the usage line, exits 2.
    pub fn fail(&self, error: &str) -> ! {
        usage_exit(self.usage, error)
    }
}

fn usage_exit(usage: &str, error: &str) -> ! {
    eprintln!("error: {error}");
    eprintln!("usage: {usage}");
    std::process::exit(2);
}

/// The measurement loop every BENCH writer shares. `rep(r)` runs seeded
/// repetition `r` and returns its outcome. One untimed warm-up repetition
/// (`r = reps`, outside the timed seeds) spawns the simulator team and
/// thread pools; then `attempts` timed passes each run repetitions
/// `0..reps` back to back, and `rate(outcomes, wall_secs)` scores each
/// pass. Returns the best score and that pass's outcomes.
///
/// The hosts these run on are shared VMs whose wall clocks swing ±40%
/// with neighbour load, so the best of a few attempts estimates
/// capability far more stably than any single draw.
pub fn best_pass<T>(
    attempts: u32,
    reps: u64,
    mut rep: impl FnMut(u64) -> T,
    rate: impl Fn(&[T], f64) -> f64,
) -> (f64, Vec<T>) {
    assert!(attempts >= 1 && reps >= 1, "need at least one timed repetition");
    rep(reps);
    let mut best: Option<(f64, Vec<T>)> = None;
    for _ in 0..attempts {
        let t0 = Instant::now();
        let outcomes: Vec<T> = (0..reps).map(&mut rep).collect();
        let score = rate(&outcomes, t0.elapsed().as_secs_f64());
        if best.as_ref().is_none_or(|(b, _)| score > *b) {
            best = Some((score, outcomes));
        }
    }
    best.expect("at least one attempt")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(
            "bench_serve [--quick] [--out PATH] [--summary PATH]",
            args.iter().map(|a| a.to_string()),
        )
    }

    #[test]
    fn args_refuse_unknown_flags_and_missing_values() {
        assert_eq!(parse(&["--ouut", "x.json"]).unwrap_err(), "unknown flag \"--ouut\"");
        assert_eq!(parse(&["--quick", "--out"]).unwrap_err(), "--out needs a value");
        let args = parse(&["--quick", "--out", "x.json"]).unwrap();
        assert!(args.has("--quick"));
        assert_eq!(args.value("--out"), Some("x.json"));
        assert_eq!(args.value("--summary"), None);
    }

    #[test]
    fn best_pass_warms_up_once_and_keeps_the_best_attempt() {
        let mut seen = Vec::new();
        let score = std::cell::Cell::new(0.0);
        let (best, outcomes) = best_pass(
            3,
            2,
            |r| {
                seen.push(r);
                r
            },
            |_, _| {
                score.set(score.get() + 1.0);
                score.get()
            },
        );
        assert_eq!(seen, [2, 0, 1, 0, 1, 0, 1]);
        assert_eq!((best, outcomes), (3.0, vec![0, 1]));
    }
}
