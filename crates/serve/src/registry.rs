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

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed, Ordering::SeqCst};
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

/// Aggregated wakeup-path counters across all shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WakeStats {
    /// Condvar broadcasts actually issued.
    pub flushes: u64,
    /// Flushes skipped because no waiter was parked on the shard.
    pub elided: u64,
    /// Flushes merged into another commit's in-flight broadcast.
    pub coalesced: u64,
}

/// Per-shard wakeup state shared by every team the shard owns, with the
/// patience knobs its teams wait by.
pub struct ShardWake {
    pub(crate) cfg: TeamConfig,
    mx: Mutex<()>,
    cv: Condvar,
    parked: AtomicU32,
    /// Flush ticket: set while a broadcast is pending; a second committer
    /// seeing it set may skip its own (coalescing).
    pending: AtomicU32,
    flushes: AtomicU64,
    elided: AtomicU64,
    coalesced: AtomicU64,
}

impl ShardWake {
    fn new(cfg: TeamConfig) -> Self {
        Self {
            cfg,
            mx: Mutex::new(()),
            cv: Condvar::new(),
            parked: AtomicU32::new(0),
            pending: AtomicU32::new(0),
            flushes: AtomicU64::new(0),
            elided: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// The batched wakeup: one broadcast covers every release that landed
    /// since the last flush, and no broadcast happens at all when nobody
    /// is parked. Call *after* storing the release the waiters poll.
    pub(crate) fn flush(&self) {
        // A read-only RMW, not a load: see the module docs.
        if self.parked.fetch_add(0, SeqCst) == 0 {
            self.elided.fetch_add(1, Relaxed);
            return;
        }
        if self.pending.swap(1, SeqCst) != 0 {
            // An in-flight flusher clears the ticket *before* broadcasting,
            // so its broadcast is ordered after our release store.
            self.coalesced.fetch_add(1, Relaxed);
            return;
        }
        self.flush_now();
    }

    /// Unconditional broadcast (poison path, and the tail of `flush`).
    pub(crate) fn flush_now(&self) {
        let g = self.mx.lock();
        // A swap, not a store: it acquires the release of every commit that
        // coalesced into this flush, so the broadcast follows their stores.
        self.pending.swap(0, SeqCst);
        drop(g);
        self.cv.notify_all();
        self.flushes.fetch_add(1, Relaxed);
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

    fn stats(&self) -> WakeStats {
        WakeStats {
            flushes: self.flushes.load(Relaxed),
            elided: self.elided.load(Relaxed),
            coalesced: self.coalesced.load(Relaxed),
        }
    }
}

struct Shard {
    teams: Mutex<HashMap<String, Arc<Team>>>,
    wake: Arc<ShardWake>,
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
            .map(|_| Shard {
                teams: Mutex::new(HashMap::new()),
                wake: Arc::new(ShardWake::new(cfg.clone())),
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
        let mut teams = self.shards[shard].teams.lock();
        match teams.get(name) {
            Some(t) if t.capacity() == members => Ok(Arc::clone(t)),
            Some(t) => Err(format!(
                "team {name:?} already registered with {} members (asked for {members})",
                t.capacity()
            )),
            None => {
                let wake = Arc::clone(&self.shards[shard].wake);
                let team = Arc::new(Team::new(name, members, shard, wake));
                teams.insert(name.to_string(), Arc::clone(&team));
                Ok(team)
            }
        }
    }

    /// Looks up a registered team.
    pub fn get(&self, name: &str) -> Option<Arc<Team>> {
        let shard = self.shard_of(name);
        self.shards[shard].teams.lock().get(name).cloned()
    }

    /// Removes retired teams (membership drained to zero); returns how
    /// many were reclaimed.
    pub fn sweep_retired(&self) -> usize {
        let mut swept = 0;
        for shard in self.shards.iter() {
            let mut teams = shard.teams.lock();
            let before = teams.len();
            teams.retain(|_, t| !t.retired());
            swept += before - teams.len();
        }
        swept
    }

    /// Registered teams per shard (the balance the hash is meant to buy).
    pub fn teams_per_shard(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.teams.lock().len()).collect()
    }

    /// Every registered team, sorted by name (a stable iteration order
    /// for metrics rendering, independent of shard count).
    pub fn teams_sorted(&self) -> Vec<Arc<Team>> {
        let mut all: Vec<Arc<Team>> = self
            .shards
            .iter()
            .flat_map(|s| s.teams.lock().values().cloned().collect::<Vec<_>>())
            .collect();
        all.sort_by(|a, b| a.name().cmp(b.name()));
        all
    }

    /// Wakeup-path counters summed over all shards.
    pub fn wake_stats(&self) -> WakeStats {
        let mut total = WakeStats::default();
        for s in self.shards.iter() {
            let w = s.wake.stats();
            total.flushes += w.flushes;
            total.elided += w.elided;
            total.coalesced += w.coalesced;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let wake = ShardWake::new(TeamConfig::default());
        wake.flush();
        wake.flush();
        let stats = wake.stats();
        assert_eq!(stats.elided, 2);
        assert_eq!(stats.flushes, 0);
    }

    #[test]
    fn park_wakes_on_flush() {
        let wake = Arc::new(ShardWake::new(TeamConfig::default()));
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
        // the counters just have to account for every flush call.
        let stats = wake.stats();
        assert_eq!(stats.flushes + stats.elided + stats.coalesced, 1);
    }
}
