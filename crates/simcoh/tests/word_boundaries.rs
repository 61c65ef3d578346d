//! Pins at the 64-core word boundaries of the sharer sets. The golden
//! fixtures run P ∈ {16, 64, 256, 1024}, where every set fills whole 64-bit
//! words; here SENSE (one line that every thread reads, then invalidates)
//! and STOUR (a tree of flag lines) run at P ∈ {63, 65, 127, 129} on
//! MemPool-256, where a set's last word is one core short of full or holds
//! a single core. Each run pins its schedule hash, a digest of every
//! thread's coherence counters and the bits of its EPCC overhead. The
//! values were taken from the engine before the sharer sets were sized to
//! the run, when every set was a fixed 1024-core bitset.

use std::sync::Arc;

use armbar_core::env::Barrier;
use armbar_core::registry::AlgorithmId;
use armbar_simcoh::{Arena, CoherenceCounters, SimBuilder};
use armbar_topology::{Platform, Topology};

/// FNV-1a over every field of every thread's counters, stall times as raw
/// `f64` bits, in tid order.
fn counters_digest(per_thread: &[CoherenceCounters]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for c in per_thread {
        for word in [
            c.local_reads,
            c.remote_reads,
            c.reader_contention_events,
            c.local_writes,
            c.remote_writes,
            c.rfo_invalidations,
            c.write_stalls,
            c.write_stall_ns.to_bits(),
            c.read_stalls,
            c.read_stall_ns.to_bits(),
            c.spin_wakeups,
        ] {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    h
}

/// One EPCC simulation (a warm-up and a measured episode, 100 ns of work
/// each, seed `0x5EED`): `(schedule hash, counters digest, overhead bits)`.
fn pin(id: AlgorithmId, p: usize) -> (u64, u64, u64) {
    const DELAY_NS: f64 = 100.0;
    let topo = Arc::new(Topology::preset(Platform::MemPool256));
    let barrier: Arc<dyn Barrier> = Arc::from(id.build(&mut Arena::new(), p, &topo));
    let stats = SimBuilder::new(topo, p)
        .seed(0x5EED)
        .run(move |ctx| {
            ctx.compute_ns(DELAY_NS);
            barrier.wait(ctx);
            ctx.mark(1);
            ctx.compute_ns(DELAY_NS);
            barrier.wait(ctx);
            ctx.mark(2);
        })
        .unwrap_or_else(|e| panic!("{} P={p}: {e}", id.label()));
    let t0 = stats.last_mark_time(1).expect("warm-up mark");
    let t1 = stats.last_mark_time(2).expect("end mark");
    let overhead = (t1 - t0 - DELAY_NS).max(0.0);
    (stats.schedule_hash(), counters_digest(stats.coherence().per_thread()), overhead.to_bits())
}

#[test]
fn sense_and_stour_runs_across_word_boundaries_match_their_pins() {
    #[rustfmt::skip]
    let pins: [(AlgorithmId, usize, (u64, u64, u64)); 8] = [
        (AlgorithmId::Sense, 63, (0x1bfa561bd0198ba5, 0x196708b7e9c8d9f0, 0x40a41989d44b5f7e)),
        (AlgorithmId::Sense, 65, (0xa07a987a73eceabf, 0xf2125636c3c3061d, 0x40a52aaa3b6098e9)),
        (AlgorithmId::Sense, 127, (0x7f943eef4b460b00, 0xeda825542e3e70a2, 0x40bb126aaa3576e8)),
        (AlgorithmId::Sense, 129, (0x6bf9ca6ff8c3d7d7, 0x178b09f90069473c, 0x40bb9911fe3a1b17)),
        (AlgorithmId::Stour, 63, (0x0df48ed29fd4d966, 0x7b986ff69c9433fd, 0x40728d0b1e43a8dc)),
        (AlgorithmId::Stour, 65, (0x42ed68064ef362a2, 0x887e80c9549753d5, 0x407840aeec13cbfa)),
        (AlgorithmId::Stour, 127, (0x4aed2977a4be5c56, 0xceb02cf55065b8ce, 0x40813fbb438854d6)),
        (AlgorithmId::Stour, 129, (0x2d5af55bcc5ec29d, 0x053274c1b3dffcb0, 0x4081abb24424d6db)),
    ];
    for (id, p, want) in pins {
        assert_eq!(
            pin(id, p),
            want,
            "{} P={p}: (hash, counters digest, overhead bits)",
            id.label()
        );
    }
}
