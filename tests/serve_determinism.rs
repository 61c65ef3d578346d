//! The coordination server's sharding and worker fan-out are invisible in
//! its per-tenant outcomes: a seeded load run renders a byte-identical
//! episode-outcome table at any `--shards`/`--jobs`, and a connection
//! dropped mid-episode lands the team `degraded` without hanging or
//! poisoning the survivors (the convention of `sweep_determinism.rs`,
//! extended to the serve crate).

use std::sync::atomic::{AtomicU32, Ordering::SeqCst};
use std::time::Duration;

use armbar_serve::{outcome_csv, outcome_json, run_load, LoadConfig, Registry, TeamConfig};

fn seeded() -> LoadConfig {
    LoadConfig {
        teams: 120,
        members: 4,
        episodes: 6_000,
        drop_frac: 0.1,
        seed: 0xD15C0,
        ..LoadConfig::default()
    }
}

#[test]
fn outcome_csv_is_byte_identical_across_shard_counts() {
    let one = outcome_csv(&run_load(&LoadConfig { shards: 1, ..seeded() }));
    let four = outcome_csv(&run_load(&LoadConfig { shards: 4, ..seeded() }));
    assert!(!one.is_empty());
    assert_eq!(one, four, "shard count leaked into the tenant table");
}

#[test]
fn outcome_csv_is_byte_identical_across_worker_counts() {
    let serial = run_load(&LoadConfig { workers: 1, ..seeded() });
    let parallel = run_load(&LoadConfig { workers: 4, ..seeded() });
    assert_eq!(outcome_csv(&serial), outcome_csv(&parallel), "worker count leaked");
    assert_eq!(outcome_json(&serial), outcome_json(&parallel));
    // The dropped tenants are plan-determined, so both runs agree exactly.
    let degraded = outcome_csv(&serial).matches(",degraded").count();
    assert!(degraded > 0, "10% drop fraction must degrade some tenants");
}

#[test]
fn connection_drop_mid_episode_degrades_without_hanging_survivors() {
    // Three members arrive over threads; one drops its connection between
    // arriving for epoch 1 and epoch 2. The survivors must finish every
    // episode (the drop is proxied, never timed out), the team must end
    // `degraded`, and nobody may see a poison error.
    let reg = Registry::new(2, TeamConfig { deadline: Duration::from_secs(20) });
    let team = reg.register("drops-mid-episode", 3).unwrap();
    let epochs: u32 = 12;
    let failures = AtomicU32::new(0);
    std::thread::scope(|s| {
        for member in 0..3 {
            let conn = team.connect().unwrap();
            let failures = &failures;
            s.spawn(move || {
                if member == 2 {
                    conn.arrive_and_wait().unwrap(); // completes epoch 1...
                    drop(conn); // ...then the connection dies abruptly
                    return;
                }
                for _ in 0..epochs {
                    if conn.arrive_and_wait().is_err() {
                        failures.fetch_add(1, SeqCst);
                        return;
                    }
                }
                conn.close();
            });
        }
    });
    assert_eq!(failures.load(SeqCst), 0, "survivors must not time out or poison");
    assert_eq!(team.status(), "degraded", "an abrupt drop must mark the team");
    let m = team.metrics();
    assert_eq!(m.episodes, u64::from(epochs), "every episode completed");
    assert_eq!(m.drops, 1);
    assert_eq!(team.members(), 0, "survivors closed; team drained");
    assert!(team.retired());
    assert_eq!(reg.sweep_retired(), 1);
}
