//! The sharded team registry and the per-shard batched wakeup path.
//!
//! ## Shard ownership
//!
//! Teams are owned by `shards` independent shards, selected by an FNV-1a
//! hash of the team name — registration and lookup lock only the owning
//! shard's map, so tenant churn never serializes globally. The shard also
//! owns the *wakeup* state its teams share: one mutex + condvar pair that
//! every parked waiter of every co-shard team sleeps on.
//!
//! ## Batched, backpressure-aware wakeups
//!
//! A boundary commit does not notify its waiters directly. It bumps the
//! team's release clock and calls [`ShardWake::flush`], which:
//!
//! * **elides** the flush entirely when nobody in the shard is parked
//!   (the common case under a load driver that self-releases teams) —
//!   zero syscalls on the fast path;
//! * **coalesces** with an in-flight flush: if another commit already
//!   holds the flush ticket, its broadcast is ordered after this one's
//!   release store, so this commit skips the syscall — releases for
//!   co-shard teams merge into one condvar broadcast;
//! * otherwise takes the shard lock and broadcasts once; every parked
//!   waiter re-checks its own team's release clock.
//!
//! The elision is a store→load handshake: the committer stores a release
//! and reads `parked`, a waiter bumps `parked` and reads the release. The
//! committer's read is a read-only `fetch_add`, so the two RMWs on
//! `parked` are totally ordered: if the waiter's comes first the committer
//! sees it and broadcasts; if the committer's comes first the waiter's
//! acquires it, and with it the release. Coalescing works the same way
//! through the swaps on `pending` (DESIGN.md §16). Timed park slices bound
//! any window the argument misses.
//!
//! ## Counting the flushes
//!
//! Only the slow paths count: a broadcast bumps `flushes` and a skipped
//! one `coalesced`. An elided flush — the fast path, once per commit while
//! nobody is parked — pays nothing beyond its `parked` read:
//! [`Registry::wake_stats`] derives `elided` as the shard's commits minus
//! the other two. A shard's commits are its teams' committed boundaries
//! plus those of the teams `sweep_retired` reclaimed, folded in under the
//! shard lock. A poison broadcast wakes waiters but commits nothing, so
//! it counts in neither.

use std::collections::HashMap;
use std::sync::atomic::{
    AtomicU32, AtomicU64, Ordering::Acquire, Ordering::Release, Ordering::SeqCst,
};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::team::{Team, TeamConfig};

/// FNV-1a, the workspace's stable name hash: deterministic across runs,
/// platforms, and toolchains (a seeded `HashMap` hasher is none of those,
/// and shard placement must be reproducible for the balance metrics).
pub fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Aggregated wakeup-path counters across all shards. Every boundary
/// commit is exactly one of the three.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WakeStats {
    /// Condvar broadcasts issued for commits (poison broadcasts excluded).
    pub flushes: u64,
    /// Flushes skipped because no waiter was parked on the shard (derived:
    /// commits minus `flushes` minus `coalesced`).
    pub elided: u64,
    /// Flushes merged into another commit's in-flight broadcast.
    pub coalesced: u64,
}

/// Per-shard wakeup state shared by every team the shard owns, with the
/// patience knobs its teams wait by.
pub struct ShardWake {
    pub(crate) cfg: TeamConfig,
    /// Index of the shard this is the wakeup path of.
    pub(crate) shard: usize,
    mx: Mutex<()>,
    cv: Condvar,
    parked: AtomicU32,
    /// Flush ticket: set while a broadcast is pending; a second committer
    /// seeing it set may skip its own (coalescing).
    pending: AtomicU32,
    /// Commit broadcasts and coalesced commits. Release bumps, Acquire
    /// reads: each bump follows its commit, so commits read after a count
    /// cover it (see [`Registry::wake_stats`]).
    flushes: AtomicU64,
    coalesced: AtomicU64,
}

impl ShardWake {
    fn new(cfg: TeamConfig, shard: usize) -> Self {
        Self {
            cfg,
            shard,
            mx: Mutex::new(()),
            cv: Condvar::new(),
            parked: AtomicU32::new(0),
            pending: AtomicU32::new(0),
            flushes: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// The batched wakeup: one broadcast covers every release that landed
    /// since the last flush, and no broadcast happens at all when nobody
    /// is parked. Call *after* storing the release the waiters poll.
    pub(crate) fn flush(&self) {
        // A read-only RMW, not a load: see the module docs. An elided flush
        // counts nothing; `Registry::wake_stats` derives it.
        if self.parked.fetch_add(0, SeqCst) == 0 {
            return;
        }
        if self.pending.swap(1, SeqCst) != 0 {
            // An in-flight flusher clears the ticket *before* broadcasting,
            // so its broadcast is ordered after our release store.
            self.coalesced.fetch_add(1, Release);
            return;
        }
        self.flush_now();
        self.flushes.fetch_add(1, Release);
    }

    /// Unconditional, uncounted broadcast (the poison path, and the tail
    /// of `flush`, which counts it).
    pub(crate) fn flush_now(&self) {
        let g = self.mx.lock();
        // A swap, not a store: it acquires the release of every commit that
        // coalesced into this flush, so the broadcast follows their stores.
        self.pending.swap(0, SeqCst);
        drop(g);
        self.cv.notify_all();
    }

    /// One timed park: sleeps up to `slice` unless `pred` already holds
    /// (checked under the shard lock, so a concurrent flush cannot slip
    /// between the check and the sleep). Callers loop.
    pub(crate) fn park(&self, slice: Duration, pred: impl Fn() -> bool) {
        self.parked.fetch_add(1, SeqCst);
        let mut g = self.mx.lock();
        if !pred() {
            let _ = self.cv.wait_for(&mut g, slice);
        }
        drop(g);
        self.parked.fetch_sub(1, SeqCst);
    }
}

/// A shard's teams, and the boundaries committed by those it reclaimed.
#[derive(Default)]
struct Teams {
    live: HashMap<Box<str>, Arc<Team>>,
    swept_commits: u64,
}

struct Shard {
    teams: Mutex<Teams>,
    wake: Arc<ShardWake>,
}

/// The boundaries `team` has committed, read off its membership word: the
/// boundary stores the word before the release and before its flush, and
/// a retired team's word never changes again.
fn commits(team: &Team) -> u64 {
    u64::from(team.epoch() - 1)
}

/// The name-sharded team registry: the server's front door.
pub struct Registry {
    shards: Box<[Shard]>,
}

impl Registry {
    /// A registry of `shards` independent shards; `cfg` is stamped onto
    /// every team registered through it.
    pub fn new(shards: usize, cfg: TeamConfig) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let shards = (0..shards)
            .map(|shard| Shard {
                teams: Mutex::new(Teams::default()),
                wake: Arc::new(ShardWake::new(cfg.clone(), shard)),
            })
            .collect();
        Self { shards }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `name`.
    pub fn shard_of(&self, name: &str) -> usize {
        (fnv1a(name) % self.shards.len() as u64) as usize
    }

    /// Registers (or re-joins) the named team. Registering an existing
    /// name with the same member count returns the existing team — that
    /// is how late members find their group; a different member count is
    /// a configuration clash and errors.
    pub fn register(&self, name: &str, members: usize) -> Result<Arc<Team>, String> {
        let shard = self.shard_of(name);
        let teams = &mut self.shards[shard].teams.lock().live;
        match teams.get(name) {
            Some(t) if t.capacity() == members => Ok(Arc::clone(t)),
            Some(t) => Err(format!(
                "team {name:?} already registered with {} members (asked for {members})",
                t.capacity()
            )),
            None => {
                let wake = Arc::clone(&self.shards[shard].wake);
                let team = Team::new(name.into(), members, wake);
                teams.insert(name.into(), Arc::clone(&team));
                Ok(team)
            }
        }
    }

    /// Looks up a registered team.
    pub fn get(&self, name: &str) -> Option<Arc<Team>> {
        let shard = self.shard_of(name);
        self.shards[shard].teams.lock().live.get(name).cloned()
    }

    /// Removes retired teams (membership drained to zero); returns how
    /// many were reclaimed. Their commits stay in the shard's count.
    pub fn sweep_retired(&self) -> usize {
        let mut swept = 0;
        for shard in self.shards.iter() {
            let teams = &mut *shard.teams.lock();
            let before = teams.live.len();
            teams.live.retain(|_, t| {
                let retired = t.retired();
                if retired {
                    teams.swept_commits += commits(t);
                }
                !retired
            });
            swept += before - teams.live.len();
        }
        swept
    }

    /// Registered teams per shard (the balance the hash is meant to buy).
    pub fn teams_per_shard(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.teams.lock().live.len()).collect()
    }

    /// Every registered team, sorted by name (a stable iteration order
    /// for metrics rendering, independent of shard count).
    pub fn teams_sorted(&self) -> Vec<Arc<Team>> {
        let mut all: Vec<Arc<Team>> = self
            .shards
            .iter()
            .flat_map(|s| s.teams.lock().live.values().cloned().collect::<Vec<_>>())
            .collect();
        all.sort_by(|a, b| a.name().cmp(b.name()));
        all
    }

    /// Wakeup-path counters summed over all shards. `elided` is each
    /// shard's commits minus its counted flushes: the counts are read
    /// first, and every flush they count follows its commit's membership
    /// store, so the commits read after cover them and the difference
    /// cannot underflow mid-run.
    pub fn wake_stats(&self) -> WakeStats {
        let mut total = WakeStats::default();
        for s in self.shards.iter() {
            let teams = s.teams.lock();
            let flushes = s.wake.flushes.load(Acquire);
            let coalesced = s.wake.coalesced.load(Acquire);
            let commits =
                teams.swept_commits + teams.live.values().map(|t| commits(t)).sum::<u64>();
            total.flushes += flushes;
            total.elided += commits - flushes - coalesced;
            total.coalesced += coalesced;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::team::Conn;
    use armbar_core::robust::BarrierError;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors; shard placement (and hence
        // the bench balance metric) depends on these never changing.
        assert_eq!(fnv1a(""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a("a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a("foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn register_is_get_or_create_and_rejects_clashes() {
        let reg = Registry::new(4, TeamConfig::default());
        let a = reg.register("alpha", 3).unwrap();
        let again = reg.register("alpha", 3).unwrap();
        assert!(Arc::ptr_eq(&a, &again), "same name + members rejoins");
        assert!(reg.register("alpha", 5).is_err(), "member-count clash");
        assert!(reg.get("alpha").is_some());
        assert!(reg.get("beta").is_none());
    }

    #[test]
    fn shard_of_is_stable_and_teams_land_on_their_shard() {
        let reg = Registry::new(8, TeamConfig::default());
        for name in ["a", "b", "team-00042", "zz-top"] {
            let t = reg.register(name, 2).unwrap();
            assert_eq!(t.shard(), reg.shard_of(name));
            assert_eq!(reg.shard_of(name), (fnv1a(name) % 8) as usize);
        }
        assert_eq!(reg.teams_per_shard().iter().sum::<usize>(), 4);
    }

    #[test]
    fn teams_sorted_is_name_ordered_across_shard_counts() {
        let names = ["delta", "alpha", "charlie", "bravo"];
        for shards in [1, 3, 8] {
            let reg = Registry::new(shards, TeamConfig::default());
            for n in names {
                reg.register(n, 2).unwrap();
            }
            let sorted: Vec<String> =
                reg.teams_sorted().iter().map(|t| t.name().to_string()).collect();
            assert_eq!(sorted, ["alpha", "bravo", "charlie", "delta"]);
        }
    }

    #[test]
    fn sweep_reclaims_only_retired_teams() {
        let reg = Registry::new(2, TeamConfig::default());
        let live = reg.register("live", 2).unwrap();
        let done = reg.register("done", 1).unwrap();
        done.connect().unwrap().close(); // drains membership to zero
        assert!(done.retired());
        assert_eq!(reg.sweep_retired(), 1);
        assert!(reg.get("done").is_none());
        assert!(reg.get("live").is_some());
        drop(live);
    }

    #[test]
    fn flush_with_nobody_parked_is_elided() {
        let reg = Registry::new(1, TeamConfig::default());
        let team = reg.register("solo", 1).unwrap();
        let conn = team.connect().unwrap();
        for _ in 0..2 {
            conn.arrive_and_wait().unwrap();
        }
        let stats = reg.wake_stats();
        assert_eq!((stats.flushes, stats.elided, stats.coalesced), (0, 2, 0));
    }

    #[test]
    fn park_wakes_on_flush() {
        let wake = Arc::new(ShardWake::new(TeamConfig::default(), 0));
        let released = Arc::new(AtomicU32::new(0));
        let (w, r) = (Arc::clone(&wake), Arc::clone(&released));
        let h = std::thread::spawn(move || {
            while r.load(SeqCst) == 0 {
                w.park(Duration::from_millis(50), || r.load(SeqCst) != 0);
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        released.store(1, SeqCst);
        wake.flush();
        h.join().unwrap();
        // Either the flush broadcast or a timed slice woke it; both fine —
        // one flusher broadcasts at most once and never coalesces.
        assert!(wake.flushes.load(SeqCst) <= 1);
        assert_eq!(wake.coalesced.load(SeqCst), 0);
    }

    #[test]
    fn every_commit_is_a_flush_an_elision_or_a_coalesced_flush() {
        // One shard, so every team shares the wakeup path.
        let cfg = TeamConfig { deadline: Duration::from_millis(50), ..TeamConfig::default() };
        let reg = Registry::new(1, cfg);
        let wake = Arc::clone(&reg.shards[0].wake);
        let episode = |conns: &[&Conn]| {
            let e = conns[0].team().epoch();
            conns.iter().for_each(|c| assert_eq!(c.arrive().unwrap(), e));
            conns.iter().for_each(|c| c.wait(e).unwrap());
        };

        // Swept: two episodes, the first with a waiter held parked so its
        // commit broadcasts, then both members close (the drain commit)
        // and the sweep reclaims the team. 3 commits, 1 broadcast.
        let swept = reg.register("swept", 2).unwrap();
        let (a, b) = (swept.connect().unwrap(), swept.connect().unwrap());
        wake.parked.fetch_add(1, SeqCst);
        episode(&[&a, &b]);
        wake.parked.fetch_sub(1, SeqCst);
        episode(&[&a, &b]);
        a.close();
        b.close();
        assert_eq!(reg.sweep_retired(), 1);

        // Poisoned: the sole member waits on an epoch it never arrived
        // for; its poison broadcast commits nothing. Dropping it then
        // drains the team. 1 commit.
        let poisoned = reg.register("poisoned", 1).unwrap();
        let p = poisoned.connect().unwrap();
        assert!(matches!(p.wait(1), Err(BarrierError::Timeout { .. })));
        drop(p);
        assert_eq!((poisoned.status(), poisoned.retired()), ("poisoned", true));

        // Live: three episodes. 3 commits.
        let live = reg.register("live", 2).unwrap();
        let (c, d) = (live.connect().unwrap(), live.connect().unwrap());
        (0..3).for_each(|_| episode(&[&c, &d]));

        let stats = reg.wake_stats();
        assert_eq!(stats.flushes + stats.elided + stats.coalesced, 3 + 1 + 3, "{stats:?}");
        assert_eq!((stats.flushes, stats.elided, stats.coalesced), (1, 6, 0));
    }
}
