//! Builder for custom machine models.
//!
//! The presets in [`crate::platforms`] cover the paper's machines; this
//! builder lets downstream users describe their own part (or a hypothetical
//! one — e.g. "what if ThunderX2 had 4 sockets?") and run every experiment
//! in the workspace against it. See `examples/custom_topology.rs`.

use crate::atomics::RmwCosts;
use crate::layer::{Layer, LayerId};
use crate::machine::{CoherenceParams, CoreId, Topology};

/// Incremental construction of a [`Topology`].
///
/// Layers are registered with [`TopologyBuilder::layer`]; the core-pair →
/// layer mapping is then either derived from a *hierarchy* of nested
/// cluster sizes ([`TopologyBuilder::hierarchy`]) or given explicitly per
/// pair ([`TopologyBuilder::pair_layer_fn`]).
///
/// ```
/// use armbar_topology::TopologyBuilder;
///
/// // A toy 16-core part: clusters of 4, two latency layers.
/// let topo = TopologyBuilder::new("toy16", 16)
///     .cacheline_bytes(64)
///     .epsilon_ns(1.0)
///     .layer("within cluster", 10.0, 0.5)
///     .layer("across clusters", 50.0, 0.8)
///     .n_c(4)
///     .hierarchy(&[4])
///     .coherence(2.0, 1.0, 0.0)
///     .build();
/// assert_eq!(topo.latency_ns(0, 1), 10.0);
/// assert_eq!(topo.latency_ns(0, 15), 50.0);
/// ```
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    name: String,
    num_cores: usize,
    cacheline_bytes: usize,
    epsilon_ns: f64,
    layers: Vec<Layer>,
    n_c: Option<usize>,
    pair_layer: Option<Vec<LayerId>>,
    coherence: CoherenceParams,
    rmw_costs: RmwCosts,
}

impl TopologyBuilder {
    /// Starts a builder for a machine with `num_cores` cores.
    ///
    /// # Panics
    /// Panics if `num_cores` is zero.
    pub fn new(name: impl Into<String>, num_cores: usize) -> Self {
        assert!(num_cores > 0, "a machine needs at least one core");
        Self {
            name: name.into(),
            num_cores,
            cacheline_bytes: 64,
            epsilon_ns: 1.0,
            layers: Vec::new(),
            n_c: None,
            pair_layer: None,
            coherence: CoherenceParams::new(0.0, 0.0, 0.0),
            rmw_costs: RmwCosts::legacy(),
        }
    }

    /// Sets the cache-line size in bytes (default 64). Must be a power of
    /// two ≥ 4.
    pub fn cacheline_bytes(mut self, bytes: usize) -> Self {
        assert!(bytes >= 4 && bytes.is_power_of_two(), "bad cache-line size {bytes}");
        self.cacheline_bytes = bytes;
        self
    }

    /// Sets the local-cache latency `ε` in ns (default 1.0).
    pub fn epsilon_ns(mut self, ns: f64) -> Self {
        assert!(ns.is_finite() && ns > 0.0);
        self.epsilon_ns = ns;
        self
    }

    /// Appends latency layer `L_i` (layers are indexed in registration
    /// order, innermost first). Returns the builder for chaining.
    pub fn layer(mut self, name: &str, latency_ns: f64, alpha: f64) -> Self {
        self.layers.push(Layer::new(name, latency_ns, alpha));
        self
    }

    /// Sets the logical cluster size `N_c`. Defaults to the innermost
    /// hierarchy level (or the whole machine when no hierarchy is given).
    pub fn n_c(mut self, n_c: usize) -> Self {
        assert!(n_c >= 1);
        self.n_c = Some(n_c);
        self
    }

    /// Derives the pair→layer map from nested cluster sizes, innermost
    /// first. `&[4, 8]` means: cores sharing a 4-core cluster communicate
    /// over `L_0`; cores sharing an 8-core cluster (but not a 4-core one)
    /// over `L_1`; all remaining pairs over `L_2`.
    ///
    /// Requires exactly `sizes.len() + 1` layers to have been registered.
    ///
    /// # Panics
    /// Panics if the sizes are not strictly increasing or don't divide
    /// evenly into each other.
    pub fn hierarchy(mut self, sizes: &[usize]) -> Self {
        for w in sizes.windows(2) {
            assert!(w[0] < w[1], "hierarchy sizes must be strictly increasing");
            assert_eq!(w[1] % w[0], 0, "hierarchy sizes must nest evenly");
        }
        // Each row starts as the outermost layer; then each nested
        // cluster's block of it is filled from the outside in, so an inner
        // block overwrites the cluster around it.
        let n = self.num_cores;
        let mut m = vec![LayerId(sizes.len() as u8); n * n];
        for (a, row) in m.chunks_exact_mut(n).enumerate() {
            for (i, &s) in sizes.iter().enumerate().rev() {
                let start = a / s * s;
                row[start..start + s.min(n - start)].fill(LayerId(i as u8));
            }
            row[a] = LayerId::LOCAL;
        }
        self.pair_layer = Some(m);
        if self.n_c.is_none() {
            self.n_c = sizes.first().copied();
        }
        self
    }

    /// Sets the pair→layer map from an arbitrary function. The function is
    /// only consulted for `a != b`; it must be symmetric.
    pub fn pair_layer_fn(mut self, f: impl Fn(CoreId, CoreId) -> LayerId) -> Self {
        let n = self.num_cores;
        let mut m = vec![LayerId::LOCAL; n * n];
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    m[a * n + b] = f(a, b);
                }
            }
        }
        self.pair_layer = Some(m);
        self
    }

    /// Sets the simulator contention parameters
    /// (see [`CoherenceParams`]).
    pub fn coherence(mut self, inv_ns: f64, read_contention_ns: f64, jitter: f64) -> Self {
        let noc = self.coherence.noc_ns;
        self.coherence = CoherenceParams::new(inv_ns, read_contention_ns, jitter).with_noc_ns(noc);
        self
    }

    /// Sets the on-chip network service interval
    /// (see [`CoherenceParams::noc_ns`]).
    pub fn noc_ns(mut self, noc_ns: f64) -> Self {
        self.coherence = self.coherence.clone().with_noc_ns(noc_ns);
        self
    }

    /// Sets the per-op-kind atomic RMW surcharge table (default
    /// [`RmwCosts::legacy`], i.e. the pre-split `ε + 0.5·transfer` for
    /// every kind).
    pub fn rmw_costs(mut self, costs: RmwCosts) -> Self {
        self.rmw_costs = costs;
        self
    }

    /// Finishes construction, validating the model.
    ///
    /// # Panics
    /// Panics when no layers were registered, no pair map was provided, or
    /// validation fails (asymmetric map, dangling layer ids, …).
    pub fn build(self) -> Topology {
        assert!(!self.layers.is_empty(), "register at least one layer");
        let pair_layer =
            self.pair_layer.expect("provide a pair→layer map via hierarchy() or pair_layer_fn()");
        let latency_by_layer = std::iter::once(self.epsilon_ns)
            .chain(self.layers.iter().map(|l| l.latency_ns))
            .collect();
        let mut topo = Topology {
            name: self.name,
            num_cores: self.num_cores,
            cacheline_bytes: self.cacheline_bytes,
            epsilon_ns: self.epsilon_ns,
            layers: self.layers,
            pair_layer,
            latency_by_layer,
            layer_masks: Vec::new(),
            n_c: self.n_c.unwrap_or(self.num_cores),
            coherence: self.coherence,
            rmw_costs: self.rmw_costs,
        };
        topo.validate();
        topo.compute_layer_masks();
        topo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Topology {
        TopologyBuilder::new("toy", 8)
            .epsilon_ns(1.0)
            .layer("near", 10.0, 0.4)
            .layer("far", 40.0, 0.8)
            .hierarchy(&[4])
            .coherence(1.0, 0.5, 0.0)
            .build()
    }

    #[test]
    fn hierarchy_assigns_layers() {
        let t = toy();
        assert_eq!(t.layer(0, 1), LayerId(0));
        assert_eq!(t.layer(0, 3), LayerId(0));
        assert_eq!(t.layer(0, 4), LayerId(1));
        assert_eq!(t.layer(3, 7), LayerId(1));
        assert_eq!(t.n_c(), 4);
    }

    #[test]
    fn default_n_c_without_hierarchy_is_whole_machine() {
        let t = TopologyBuilder::new("flat", 6)
            .layer("any", 5.0, 0.2)
            .pair_layer_fn(|_, _| LayerId(0))
            .build();
        assert_eq!(t.n_c(), 6);
        assert_eq!(t.num_clusters(), 1);
    }

    #[test]
    fn explicit_n_c_overrides_hierarchy() {
        let t = TopologyBuilder::new("toy", 8)
            .layer("near", 10.0, 0.4)
            .layer("far", 40.0, 0.8)
            .n_c(2)
            .hierarchy(&[4])
            .build();
        assert_eq!(t.n_c(), 2);
    }

    #[test]
    fn pair_layer_fn_works() {
        let t = TopologyBuilder::new("fn", 4)
            .layer("even-odd", 7.0, 0.1)
            .layer("other", 9.0, 0.2)
            .pair_layer_fn(|a, b| if a % 2 == b % 2 { LayerId(0) } else { LayerId(1) })
            .build();
        assert_eq!(t.latency_ns(0, 2), 7.0);
        assert_eq!(t.latency_ns(0, 1), 9.0);
    }

    #[test]
    fn rmw_costs_default_legacy_and_override() {
        let t = toy();
        assert!(t.rmw_costs().is_legacy());
        let t2 = TopologyBuilder::new("toy", 8)
            .layer("near", 10.0, 0.4)
            .hierarchy(&[])
            .rmw_costs(RmwCosts::lse(0.7, 1.0))
            .build();
        assert!(!t2.rmw_costs().is_legacy());
        // with_rmw_costs swaps the table without touching latencies.
        let back = t2.clone().with_rmw_costs(RmwCosts::legacy());
        assert!(back.rmw_costs().is_legacy());
        assert_eq!(back.latency_ns(0, 5), t2.latency_ns(0, 5));
    }

    #[test]
    #[should_panic(expected = "register at least one layer")]
    fn build_requires_layers() {
        let _ = TopologyBuilder::new("x", 4).pair_layer_fn(|_, _| LayerId(0)).build();
    }

    #[test]
    #[should_panic(expected = "provide a pair")]
    fn build_requires_pair_map() {
        let _ = TopologyBuilder::new("x", 4).layer("l", 1.0, 0.0).build();
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn hierarchy_rejects_nonincreasing() {
        let _ = TopologyBuilder::new("x", 8).layer("a", 1.0, 0.0).hierarchy(&[4, 4]);
    }

    #[test]
    #[should_panic(expected = "at most 64 latency layers")]
    fn build_rejects_more_than_64_layers() {
        let b =
            (0..65).fold(TopologyBuilder::new("x", 2), |b, i| b.layer(&format!("L{i}"), 1.0, 0.0));
        let _ = b.pair_layer_fn(|_, _| LayerId(0)).build();
    }

    #[test]
    #[should_panic(expected = "layer L1 out of range")]
    fn build_rejects_dangling_layer() {
        let _ = TopologyBuilder::new("x", 4)
            .layer("only", 1.0, 0.0)
            .pair_layer_fn(|_, _| LayerId(1))
            .build();
    }
}
