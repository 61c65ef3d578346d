//! The core-to-core communication micro-benchmark of Section III-A.
//!
//! "One thread places the data, and the other thread accesses the data":
//! the placer writes a batch of cache lines (becoming their owner), then
//! the reader pulls each line once; the mean per-line pull time is the
//! cache-to-cache transfer latency of the core pair — `ε` when reading own
//! lines, `L_i` otherwise. Running it over representative core pairs
//! regenerates Tables I–III.

use std::sync::Arc;

use armbar_simcoh::{arena::padded_elem, Arena, SimBuilder};
use armbar_topology::{LayerId, Topology};

/// Lines pulled per measurement (more lines → tighter mean).
const BATCH: usize = 32;

/// Marks bracketing the reader's timed section.
const MARK_START: u32 = 10;
const MARK_END: u32 = 11;

/// Measures the data-access latency (ns) observed by core `reader` pulling
/// lines placed by core `placer` on the simulated `topo`. `reader ==
/// placer` measures `ε`.
pub fn measure_latency_ns(topo: &Arc<Topology>, placer: usize, reader: usize) -> f64 {
    let n = topo.num_cores();
    assert!(placer < n && reader < n);
    let mut arena = Arena::new();
    let line = topo.cacheline_bytes();
    let lines = arena.alloc_padded_u32_array(BATCH, line);
    let ready = arena.alloc_padded_u32(line);
    // Threads are pinned to cores by id: spin up enough threads to cover
    // both cores; bystanders exit immediately.
    let nthreads = placer.max(reader) + 1;

    let stats = SimBuilder::new(Arc::clone(topo), nthreads)
        .run(move |ctx| {
            let me = ctx.tid();
            if me == placer {
                for i in 0..BATCH {
                    ctx.store(padded_elem(lines, i, line), (i + 1) as u32);
                }
                ctx.store(ready, 1);
            }
            if me == reader {
                ctx.spin_until_eq(ready, 1);
                if placer == reader {
                    // Local case: the lines are already ours; re-read them.
                }
                ctx.mark(MARK_START);
                for i in 0..BATCH {
                    ctx.load(padded_elem(lines, i, line));
                }
                ctx.mark(MARK_END);
            }
        })
        .expect("ping-pong simulation failed");

    let t0 = stats.last_mark_time(MARK_START).unwrap();
    let t1 = stats.last_mark_time(MARK_END).unwrap();
    (t1 - t0) / BATCH as f64
}

/// One row of a regenerated latency table.
#[derive(Debug, Clone)]
pub struct LatencyRow {
    /// Layer this row describes (`LayerId::LOCAL` for `ε`).
    pub layer: LayerId,
    /// The layer's descriptive name from the topology.
    pub name: String,
    /// The paper's measured value (the topology's configured latency).
    pub expected_ns: f64,
    /// The value measured by the micro-benchmark on the simulator.
    pub measured_ns: f64,
    /// The core pair used for the measurement.
    pub pair: (usize, usize),
}

/// Regenerates the machine's latency table (Tables I–III): one row for `ε`
/// plus one per layer, each measured on the first core pair found in that
/// layer.
pub fn latency_table(topo: &Arc<Topology>) -> Vec<LatencyRow> {
    let n = topo.num_cores();
    let mut rows = vec![LatencyRow {
        layer: LayerId::LOCAL,
        name: "local".into(),
        expected_ns: topo.epsilon_ns(),
        measured_ns: measure_latency_ns(topo, 0, 0),
        pair: (0, 0),
    }];
    for (i, layer) in topo.layers().iter().enumerate() {
        let id = LayerId(i as u8);
        // Prefer pairs involving core 0 (the paper measures from core 0);
        // fall back to any pair in the layer.
        let pair =
            (1..n).map(|b| (0usize, b)).find(|&(a, b)| topo.layer(a, b) == id).or_else(|| {
                (0..n)
                    .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
                    .find(|&(a, b)| topo.layer(a, b) == id)
            });
        if let Some((a, b)) = pair {
            rows.push(LatencyRow {
                layer: id,
                name: layer.name.clone(),
                expected_ns: layer.latency_ns,
                measured_ns: measure_latency_ns(topo, a, b),
                pair: (a, b),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use armbar_topology::Platform;

    fn topo(p: Platform) -> Arc<Topology> {
        Arc::new(Topology::preset(p))
    }

    #[test]
    fn local_measurement_recovers_epsilon() {
        let t = topo(Platform::ThunderX2);
        let eps = measure_latency_ns(&t, 5, 5);
        assert!((eps - t.epsilon_ns()).abs() / t.epsilon_ns() < 0.1, "ε = {eps}");
    }

    #[test]
    fn remote_measurement_recovers_layer_latency() {
        let t = topo(Platform::ThunderX2);
        let within = measure_latency_ns(&t, 0, 7);
        let across = measure_latency_ns(&t, 0, 40);
        assert!((within - 24.0).abs() / 24.0 < 0.1, "L0 = {within}");
        assert!((across - 140.7).abs() / 140.7 < 0.1, "L1 = {across}");
    }

    #[test]
    fn table_regeneration_matches_configuration_on_all_platforms() {
        for p in Platform::ALL {
            let t = topo(p);
            for row in latency_table(&t) {
                let rel = (row.measured_ns - row.expected_ns).abs() / row.expected_ns;
                assert!(
                    rel < 0.12,
                    "{p}: layer {} expected {} measured {}",
                    row.layer,
                    row.expected_ns,
                    row.measured_ns
                );
            }
        }
    }

    #[test]
    fn phytium_table_has_all_nine_layers() {
        let rows = latency_table(&topo(Platform::Phytium2000Plus));
        // ε + L0..L8.
        assert_eq!(rows.len(), 10);
        assert!(rows[0].layer.is_local());
    }

    #[test]
    fn measurement_is_symmetric_enough() {
        let t = topo(Platform::Kunpeng920);
        let ab = measure_latency_ns(&t, 3, 60);
        let ba = measure_latency_ns(&t, 60, 3);
        assert!((ab - ba).abs() / ab < 0.25, "{ab} vs {ba}");
    }
}
