//! Litmus-style checks of the bounded weak-memory mode (DESIGN.md §15).
//!
//! Each test runs a classic two-to-four-thread litmus shape over many
//! seeded trials under the [`ExplorerPolicy`] and collects the set of
//! observed outcomes, then asserts **reachability** of outcomes ARMv8
//! permits for relaxed accesses (message passing with an unordered flag,
//! store buffering) and **unreachability** of outcomes the
//! acquire/release annotations must forbid (the same shapes with ordered
//! accesses, coherence-order violations, IRIW disagreement under acquire
//! loads).
//!
//! The model is a deliberate *under*-approximation of ARMv8: it has store
//! buffering (W→W and W→R reordering of relaxed stores) and stale reads
//! (R→R reordering of relaxed loads against remote commits), but no load
//! buffering — a load can never observe a store that has not yet
//! committed or been buffered by its own thread. The load-buffering test
//! pins that boundary so a future engine change that accidentally crosses
//! it fails loudly.

#![cfg(test)]

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use armbar_core::{MemCtx, MemLayer};
use armbar_simcoh::{Addr, Arena, SimBuilder, SimThread};
use armbar_topology::{Platform, Topology};

use crate::explorer::{ExplorerConfig, ExplorerPolicy};
use crate::search::trial_seed;

/// Bounded poll count for flag-waiting litmus readers. A bound (instead
/// of a spin) keeps every trial terminating even when the signalling
/// store stays buffered for the whole run.
const POLLS: usize = 64;

/// Exploration config with the weak-memory search on: high reorder
/// probability so small seed sets cover the interesting choices.
fn weak_cfg() -> ExplorerConfig {
    ExplorerConfig { reorder_prob: 0.8, ..ExplorerConfig::default() }.with_reorder_budget(8)
}

/// The same interleaving search with the weak-memory search off.
fn sc_cfg() -> ExplorerConfig {
    weak_cfg().with_reorder_budget(0)
}

/// One thread's observations, tagged with its tid.
type Observation = (usize, Vec<u32>);

/// Runs `body` on every thread of `seeds` seeded trials; each thread
/// returns its observation vector, and one trial's outcome is the
/// concatenation of all threads' observations in tid order. Returns the
/// set of distinct outcomes.
fn outcomes<F>(
    seeds: u32,
    cfg: ExplorerConfig,
    threads: usize,
    nvars: usize,
    body: F,
) -> BTreeSet<Vec<u32>>
where
    F: Fn(&dyn MemCtx, &[Addr]) -> Vec<u32> + Send + Sync + Clone + 'static,
{
    let topo = Arc::new(Topology::preset(Platform::Kunpeng920));
    let mut set = BTreeSet::new();
    for i in 0..seeds {
        let seed = trial_seed(0x117_0005, i);
        let mut arena = Arena::new();
        let line = topo.cacheline_bytes();
        let vars: Arc<Vec<Addr>> =
            Arc::new((0..nvars).map(|_| arena.alloc_padded_u32(line)).collect());
        let obs: Arc<Mutex<Vec<Observation>>> = Arc::new(Mutex::new(Vec::new()));
        let body = body.clone();
        let (vars, obs2) = (Arc::clone(&vars), Arc::clone(&obs));
        SimBuilder::new(Arc::clone(&topo), threads)
            .seed(seed)
            .reserve_for(&arena)
            .schedule_policy(ExplorerPolicy::new(seed, cfg))
            .run(move |sim: &SimThread| {
                let o = body(sim, &vars);
                obs2.lock().unwrap().push((MemCtx::tid(sim), o));
            })
            .expect("litmus bodies are bounded and must not fault");
        let mut per = obs.lock().unwrap().clone();
        per.sort();
        set.insert(per.into_iter().flat_map(|(_, v)| v).collect());
    }
    set
}

/// Reader half of message passing: bounded-polls `flag` with an acquire
/// load, then acquire-loads `data`. Returns `[saw_flag, data]`.
fn mp_reader_acquire(ctx: &dyn MemCtx, flag: Addr, data: Addr) -> Vec<u32> {
    for _ in 0..POLLS {
        if ctx.load(flag) == 1 {
            return vec![1, ctx.load(data)];
        }
    }
    vec![0, 0]
}

#[test]
fn mp_relaxed_flag_reaches_the_stale_data_outcome() {
    // MP with an unordered (str/ldr) flag: ARMv8 permits the reader to
    // see the flag before the data — here via W→W reordering, the writer's
    // data store deferred into its buffer while the flag commits.
    let set = outcomes(300, weak_cfg(), 2, 2, |ctx, v| {
        let (data, flag) = (v[0], v[1]);
        match ctx.tid() {
            0 => {
                ctx.store_relaxed(data, 1);
                ctx.store_relaxed(flag, 1);
                vec![]
            }
            _ => mp_reader_acquire(ctx, flag, data),
        }
    });
    assert!(
        set.contains(&vec![1, 0]),
        "flag-before-data must be reachable with a relaxed flag store; saw {set:?}"
    );
}

#[test]
fn mp_release_flag_forbids_the_stale_data_outcome() {
    // The same shape with a release (stlr) flag store: the release
    // flushes the writer's buffer, so flag=1 implies data=1.
    for cfg in [weak_cfg(), sc_cfg()] {
        let set = outcomes(300, cfg, 2, 2, |ctx, v| {
            let (data, flag) = (v[0], v[1]);
            match ctx.tid() {
                0 => {
                    ctx.store_relaxed(data, 1);
                    ctx.store(flag, 1);
                    vec![]
                }
                _ => mp_reader_acquire(ctx, flag, data),
            }
        });
        assert!(
            !set.contains(&vec![1, 0]),
            "release flag + acquire reads must forbid flag-before-data; saw {set:?}"
        );
    }
}

#[test]
fn mp_relaxed_read_reaches_the_stale_cache_outcome() {
    // Fully ordered writer, but the reader re-reads the data relaxed
    // after having observed the old value: ARMv8 permits the second read
    // to be satisfied early (R→R reordering) — here from the stale cache.
    let set = outcomes(300, weak_cfg(), 2, 2, |ctx, v| {
        let (data, flag) = (v[0], v[1]);
        match ctx.tid() {
            0 => {
                ctx.store(data, 1);
                ctx.store(flag, 1);
                vec![]
            }
            _ => {
                ctx.load_relaxed(data); // warm the stale cache with 0 (or 1)
                for _ in 0..POLLS {
                    if ctx.load_relaxed(flag) == 1 {
                        return vec![1, ctx.load_relaxed(data)];
                    }
                }
                vec![0, 0]
            }
        }
    });
    assert!(
        set.contains(&vec![1, 0]),
        "a relaxed re-read after the flag must be servable stale; saw {set:?}"
    );
}

#[test]
fn mp_acquire_read_forbids_the_stale_cache_outcome() {
    // The reader's final load is acquire: it invalidates the stale cache
    // and must observe the committed data the release chain published.
    let set = outcomes(300, weak_cfg(), 2, 2, |ctx, v| {
        let (data, flag) = (v[0], v[1]);
        match ctx.tid() {
            0 => {
                ctx.store(data, 1);
                ctx.store(flag, 1);
                vec![]
            }
            _ => {
                ctx.load_relaxed(data);
                for _ in 0..POLLS {
                    if ctx.load_relaxed(flag) == 1 {
                        return vec![1, ctx.load(data)];
                    }
                }
                vec![0, 0]
            }
        }
    });
    assert!(
        !set.contains(&vec![1, 0]),
        "an acquire read after the flag must see the published data; saw {set:?}"
    );
}

#[test]
fn sb_relaxed_reaches_both_zero() {
    // Store buffering: with relaxed stores, both threads may defer their
    // store and read the other's variable as 0 — the signature ARMv8
    // (and even x86-TSO) weak outcome.
    let set = outcomes(300, weak_cfg(), 2, 2, |ctx, v| {
        let (x, y) = (v[0], v[1]);
        match ctx.tid() {
            0 => {
                ctx.store_relaxed(x, 1);
                vec![ctx.load(y)]
            }
            _ => {
                ctx.store_relaxed(y, 1);
                vec![ctx.load(x)]
            }
        }
    });
    assert!(set.contains(&vec![0, 0]), "SB both-zero must be reachable; saw {set:?}");
}

#[test]
fn sb_fenced_forbids_both_zero() {
    // A full fence between the store and the load drains the buffer, so
    // at least one thread must see the other's store — and so must the
    // relaxed version when the reordering search is off.
    let fenced = outcomes(300, weak_cfg(), 2, 2, |ctx, v| {
        let (x, y) = (v[0], v[1]);
        match ctx.tid() {
            0 => {
                ctx.store_relaxed(x, 1);
                ctx.fence();
                vec![ctx.load(y)]
            }
            _ => {
                ctx.store_relaxed(y, 1);
                ctx.fence();
                vec![ctx.load(x)]
            }
        }
    });
    assert!(!fenced.contains(&vec![0, 0]), "fenced SB must forbid both-zero; saw {fenced:?}");
    let sc = outcomes(100, sc_cfg(), 2, 2, |ctx, v| {
        let (x, y) = (v[0], v[1]);
        match ctx.tid() {
            0 => {
                ctx.store_relaxed(x, 1);
                vec![ctx.load(y)]
            }
            _ => {
                ctx.store_relaxed(y, 1);
                vec![ctx.load(x)]
            }
        }
    });
    assert!(!sc.contains(&vec![0, 0]), "reorder budget 0 must forbid both-zero; saw {sc:?}");
}

#[test]
fn lb_both_one_is_unreachable() {
    // Load buffering (each thread reads the other's yet-unwritten
    // variable as 1) is ARMv8-permitted for relaxed accesses but
    // deliberately outside this model: loads never observe uncommitted
    // remote stores. Pin the boundary.
    let set = outcomes(300, weak_cfg(), 2, 2, |ctx, v| {
        let (x, y) = (v[0], v[1]);
        match ctx.tid() {
            0 => {
                let r = ctx.load_relaxed(y);
                ctx.store_relaxed(x, 1);
                vec![r]
            }
            _ => {
                let r = ctx.load_relaxed(x);
                ctx.store_relaxed(y, 1);
                vec![r]
            }
        }
    });
    assert!(
        !set.contains(&vec![1, 1]),
        "the model must not exhibit load buffering (documented under-approximation); saw {set:?}"
    );
}

/// IRIW body: tids 0/1 write `x`/`y`; tids 2/3 warm both caches then read
/// the two variables in opposite orders, acquire or relaxed.
fn iriw_body(ctx: &dyn MemCtx, v: &[Addr], acquire: bool) -> Vec<u32> {
    let (x, y) = (v[0], v[1]);
    let rd = |a: Addr| if acquire { ctx.load(a) } else { ctx.load_relaxed(a) };
    match ctx.tid() {
        0 => {
            ctx.store(x, 1);
            vec![]
        }
        1 => {
            ctx.store(y, 1);
            vec![]
        }
        t => {
            ctx.load_relaxed(x);
            ctx.load_relaxed(y);
            let (first, second) = if t == 2 { (x, y) } else { (y, x) };
            for _ in 0..POLLS {
                if rd(first) == 1 {
                    return vec![1, rd(second)];
                }
            }
            vec![0, 0]
        }
    }
}

#[test]
fn iriw_acquire_readers_agree_on_commit_order() {
    // With acquire reads the commit order is a single global order:
    // reader 2 seeing x-then-not-y AND reader 3 seeing y-then-not-x
    // would require contradictory commit orders.
    let set = outcomes(300, weak_cfg(), 4, 2, |ctx, v| iriw_body(ctx, v, true));
    assert!(
        !set.contains(&vec![1, 0, 1, 0]),
        "acquire IRIW readers must agree on the write order; saw {set:?}"
    );
}

#[test]
fn iriw_relaxed_readers_may_disagree() {
    // With relaxed reads each reader may satisfy its second read from
    // its own stale cache, so the two may disagree on the write order —
    // permitted on ARMv8 for unordered loads (no dependency, no
    // barrier).
    let set = outcomes(600, weak_cfg(), 4, 2, |ctx, v| iriw_body(ctx, v, false));
    assert!(
        set.contains(&vec![1, 0, 1, 0]),
        "relaxed IRIW readers must be able to disagree; saw {set:?}"
    );
}

#[test]
fn corr_same_location_reads_never_go_backward() {
    // Coherence (CoRR): two relaxed reads of the same location must not
    // observe values in an order contradicting coherence order — a stale
    // serve returns the *last observed* value, never an older one.
    let set = outcomes(300, weak_cfg(), 2, 1, |ctx, v| {
        let x = v[0];
        match ctx.tid() {
            0 => {
                ctx.store(x, 1);
                vec![]
            }
            _ => {
                let mut prev = 0;
                let mut went_backward = 0;
                for _ in 0..POLLS {
                    let r = ctx.load_relaxed(x);
                    if r < prev {
                        went_backward = 1;
                    }
                    prev = r;
                }
                vec![went_backward]
            }
        }
    });
    assert!(
        !set.contains(&vec![1]),
        "same-location relaxed reads must respect coherence order; saw {set:?}"
    );
}

/// A layer that overrides nothing: every operation must reach the wrapped
/// context exactly as issued.
struct Through<'a>(&'a dyn MemCtx);

impl MemLayer for Through<'_> {
    fn inner(&self) -> &dyn MemCtx {
        self.0
    }
}

#[test]
fn forwarding_layer_keeps_every_weak_outcome() {
    // Each shape's outcome set depends on one weak primitive reaching the
    // engine as issued: store buffering on `store_relaxed`, the fenced
    // variant on `fence`, the stale re-read on `load_relaxed`. A forwarding
    // default that fell back to the `MemCtx` default (relaxed → ordered,
    // fence → no-op) changes that shape's set.
    type Shape = fn(&dyn MemCtx, &[Addr]) -> Vec<u32>;
    let sb: Shape = |ctx, v| {
        let (mine, theirs) = if ctx.tid() == 0 { (v[0], v[1]) } else { (v[1], v[0]) };
        ctx.store_relaxed(mine, 1);
        vec![ctx.load_relaxed(theirs)]
    };
    let sb_fenced: Shape = |ctx, v| {
        let (mine, theirs) = if ctx.tid() == 0 { (v[0], v[1]) } else { (v[1], v[0]) };
        ctx.store_relaxed(mine, 1);
        ctx.fence();
        vec![ctx.load_relaxed(theirs)]
    };
    let mp_stale: Shape = |ctx, v| {
        let (data, flag) = (v[0], v[1]);
        if ctx.tid() == 0 {
            ctx.store(data, 1);
            ctx.store(flag, 1);
            return vec![];
        }
        ctx.load_relaxed(data);
        for _ in 0..POLLS {
            if ctx.load_relaxed(flag) == 1 {
                return vec![1, ctx.load_relaxed(data)];
            }
        }
        vec![0, 0]
    };
    for (name, shape) in [("sb", sb), ("sb-fenced", sb_fenced), ("mp-stale", mp_stale)] {
        let bare = outcomes(200, weak_cfg(), 2, 2, shape);
        let layered = outcomes(200, weak_cfg(), 2, 2, move |ctx, v| shape(&Through(ctx), v));
        assert_eq!(bare, layered, "{name}: the identity layer changed the outcome set");
    }
}
