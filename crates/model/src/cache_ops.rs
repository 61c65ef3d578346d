//! The four memory-operation costs of Section III-B.
//!
//! With `ε` the local-cache latency, `L_i` the layer latency, `α_i` the RFO
//! weight and `n` the number of shared copies held by other cores:
//!
//! * `O(R_L) = ε` — local read;
//! * `O(R_R) = L_i` — remote read;
//! * `O(W_L) = n·α_i·L_i` — local write (RFO to each copy);
//! * `O(W_R) = (1 + n·α_i)·L_i` — remote write (transfer + RFO).
//!
//! PR 10 adds the per-op-kind atomic RMW surcharges (DESIGN.md §17),
//! mirroring the simulator's split of the old shared `ε + 0.5·transfer`:
//!
//! * `O(RMW_L, k) = O(W_L) + alu_k·ε + frac_k·ε` — the transfer of a
//!   locally-owned line is `ε`;
//! * `O(RMW_R, k) = O(W_R) + alu_k·ε + frac_k·L_i`;
//!
//! with `(alu_k, frac_k)` the platform's [`RmwCosts`](armbar_topology::RmwCosts) entry for kind `k`.

use armbar_topology::{LayerId, RmwOp, Topology};

/// Cost calculator for one (machine, layer) pair.
#[derive(Debug, Clone, Copy)]
pub struct CacheOps<'a> {
    topo: &'a Topology,
    layer: LayerId,
}

impl<'a> CacheOps<'a> {
    /// Costs for operations crossing `layer` of `topo`.
    pub fn new(topo: &'a Topology, layer: LayerId) -> Self {
        Self { topo, layer }
    }

    /// Costs for the layer joining two specific cores.
    pub fn between(topo: &'a Topology, a: usize, b: usize) -> Self {
        Self { topo, layer: topo.layer(a, b) }
    }

    /// `L_i` for this layer (or `ε` for the local layer).
    pub fn layer_latency_ns(&self) -> f64 {
        self.topo.layer_latency_ns(self.layer)
    }

    /// `O(R_L) = ε`.
    pub fn local_read_ns(&self) -> f64 {
        self.topo.epsilon_ns()
    }

    /// `O(R_R) = L_i`.
    pub fn remote_read_ns(&self) -> f64 {
        self.layer_latency_ns()
    }

    /// `O(W_L) = n·α_i·L_i`: a write hitting a locally-owned line that `n`
    /// other cores still share.
    pub fn local_write_ns(&self, n_copies: usize) -> f64 {
        let l = self.layer_latency_ns();
        n_copies as f64 * self.topo.alpha(self.layer) * l
    }

    /// `O(W_R) = (1 + n·α_i)·L_i`: a write that must first fetch the line
    /// across the layer.
    pub fn remote_write_ns(&self, n_copies: usize) -> f64 {
        let l = self.layer_latency_ns();
        (1.0 + n_copies as f64 * self.topo.alpha(self.layer)) * l
    }

    /// The per-kind RMW surcharge for an op whose ownership transfer
    /// crosses this layer: `alu_k·ε + frac_k·L_i` (the simulator's
    /// `RmwCosts::surcharge_ns` with `transfer = L_i`).
    pub fn rmw_surcharge_ns(&self, op: RmwOp) -> f64 {
        self.topo.rmw_costs().surcharge_ns(op, self.topo.epsilon_ns(), self.layer_latency_ns())
    }

    /// `O(RMW_L, k)`: an atomic RMW of kind `k` hitting a locally-owned
    /// line that `n` other cores share. The transfer leg of an owned line
    /// is `ε`, so the surcharge uses `transfer = ε`.
    pub fn local_rmw_ns(&self, op: RmwOp, n_copies: usize) -> f64 {
        let eps = self.topo.epsilon_ns();
        self.local_write_ns(n_copies) + self.topo.rmw_costs().surcharge_ns(op, eps, eps)
    }

    /// `O(RMW_R, k) = O(W_R) + alu_k·ε + frac_k·L_i`: an atomic RMW of
    /// kind `k` that must first fetch the line across the layer.
    pub fn remote_rmw_ns(&self, op: RmwOp, n_copies: usize) -> f64 {
        self.remote_write_ns(n_copies) + self.rmw_surcharge_ns(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armbar_topology::{Platform, Topology};

    #[test]
    fn formulas_match_section_3b() {
        let t = Topology::preset(Platform::ThunderX2);
        let ops = CacheOps::new(&t, LayerId(0)); // L0 = 24 ns, α = 0.9
        assert_eq!(ops.local_read_ns(), 1.2);
        assert_eq!(ops.remote_read_ns(), 24.0);
        assert!((ops.local_write_ns(1) - 0.9 * 24.0).abs() < 1e-12);
        assert!((ops.remote_write_ns(1) - (1.0 + 0.9) * 24.0).abs() < 1e-12);
        // No copies elsewhere → free local write, plain transfer remote.
        assert_eq!(ops.local_write_ns(0), 0.0);
        assert_eq!(ops.remote_write_ns(0), 24.0);
    }

    #[test]
    fn write_cost_scales_linearly_in_copies() {
        let t = Topology::preset(Platform::Kunpeng920);
        let ops = CacheOps::new(&t, LayerId(1));
        let w1 = ops.local_write_ns(1);
        let w4 = ops.local_write_ns(4);
        assert!((w4 - 4.0 * w1).abs() < 1e-9);
    }

    #[test]
    fn between_uses_the_pair_layer() {
        let t = Topology::preset(Platform::Phytium2000Plus);
        let near = CacheOps::between(&t, 0, 1); // same core group
        let far = CacheOps::between(&t, 0, 63); // panel 0 → 7
        assert_eq!(near.remote_read_ns(), 9.1);
        assert_eq!(far.remote_read_ns(), 84.5);
    }

    #[test]
    fn remote_write_exceeds_remote_read() {
        let t = Topology::preset(Platform::ThunderX2);
        for layer in [LayerId(0), LayerId(1)] {
            let ops = CacheOps::new(&t, layer);
            assert!(ops.remote_write_ns(1) > ops.remote_read_ns());
        }
    }

    /// Hand-computed Section III-B costs from the paper's Tables I–III
    /// parameters, one pin per machine.
    #[test]
    fn table_parameter_pins() {
        // Kunpeng 920 (Table III), SCCL layer L1 = 44.2 ns, α = 0.5:
        //   W_R(3) = (1 + 3·0.5)·44.2 = 110.5;  W_L(7) = 7·0.5·44.2 = 154.7.
        let k = Topology::preset(Platform::Kunpeng920);
        let sccl = CacheOps::new(&k, LayerId(1));
        assert!((sccl.remote_write_ns(3) - 110.5).abs() < 1e-9);
        assert!((sccl.local_write_ns(7) - 154.7).abs() < 1e-9);
        assert_eq!(sccl.local_read_ns(), 1.15); // ε, Table III

        // Phytium 2000+ (Table I), panel 0 → 7: L = 84.5 ns, α = 0.55:
        //   W_R(1) = 1.55·84.5 = 130.975.
        let ph = Topology::preset(Platform::Phytium2000Plus);
        let far = CacheOps::between(&ph, 0, 63);
        assert!((far.remote_write_ns(1) - 130.975).abs() < 1e-9);

        // ThunderX2 (Table II), cross-socket L1 = 140.7 ns, α = 0.9:
        //   W_L(31) = 31·0.9·140.7 = 3925.53 — the hot-spot release cost
        //   that motivates tree wake-up on this machine.
        let tx = Topology::preset(Platform::ThunderX2);
        let cross = CacheOps::new(&tx, LayerId(1));
        assert!((cross.local_write_ns(31) - 3925.53).abs() < 1e-9);
    }

    /// Hand-computed per-op-kind RMW costs from the platform presets'
    /// `RmwCosts` tables, Tables I–III style (DESIGN.md §17).
    #[test]
    fn rmw_cost_pins_per_platform() {
        use armbar_topology::RmwOp;

        // ThunderX2 — LSE shape lse(0.6, 1.1): FAA/SWP (0.6, 0.35),
        // CAS-ok (1.1, 0.5), CAS-fail (0.825, 0.35). Socket layer
        // L0 = 24 ns, ε = 1.2, α = 0.9.
        //   surcharge(FAA)     = 0.6·1.2  + 0.35·24 = 0.72 + 8.4  = 9.12
        //   surcharge(CAS-ok)  = 1.1·1.2  + 0.5·24  = 1.32 + 12   = 13.32
        //   surcharge(CAS-no)  = 0.825·1.2 + 0.35·24 = 0.99 + 8.4 = 9.39
        //   RMW_R(FAA, 1 copy) = (1 + 0.9)·24 + 9.12 = 54.72.
        let tx = Topology::preset(Platform::ThunderX2);
        let ops = CacheOps::new(&tx, LayerId(0));
        assert!((ops.rmw_surcharge_ns(RmwOp::FetchAdd) - 9.12).abs() < 1e-9);
        assert!((ops.rmw_surcharge_ns(RmwOp::CmpXchgOk) - 13.32).abs() < 1e-9);
        assert!((ops.rmw_surcharge_ns(RmwOp::CmpXchgFail) - 9.39).abs() < 1e-9);
        assert_eq!(ops.rmw_surcharge_ns(RmwOp::Swap), ops.rmw_surcharge_ns(RmwOp::FetchAdd));
        assert!((ops.remote_rmw_ns(RmwOp::FetchAdd, 1) - 54.72).abs() < 1e-9);

        // Phytium 2000+ — LL/SC shape llsc(1.6, 1.2): FAA/SWP (1.6, 1.2),
        // CAS-ok (1.6, 0.5), CAS-fail (0.8, 0.2). Core-group layer
        // L0 = 9.1 ns, ε = 1.8.
        //   surcharge(FAA)    = 1.6·1.8 + 1.2·9.1 = 2.88 + 10.92 = 13.8
        //   surcharge(CAS-ok) = 1.6·1.8 + 0.5·9.1 = 2.88 + 4.55  = 7.43
        //   surcharge(CAS-no) = 0.8·1.8 + 0.2·9.1 = 1.44 + 1.82  = 3.26
        // The LL/SC inversion: contended FAA above CAS, unlike LSE parts.
        let ph = Topology::preset(Platform::Phytium2000Plus);
        let grp = CacheOps::new(&ph, LayerId(0));
        assert!((grp.rmw_surcharge_ns(RmwOp::FetchAdd) - 13.8).abs() < 1e-9);
        assert!((grp.rmw_surcharge_ns(RmwOp::CmpXchgOk) - 7.43).abs() < 1e-9);
        assert!((grp.rmw_surcharge_ns(RmwOp::CmpXchgFail) - 3.26).abs() < 1e-9);
        assert!(grp.rmw_surcharge_ns(RmwOp::FetchAdd) > grp.rmw_surcharge_ns(RmwOp::CmpXchgOk));

        // Kunpeng 920 — LSE shape lse(0.7, 1.2): FAA (0.7, 0.35),
        // CAS-ok (1.2, 0.5), CAS-fail (0.9, 0.35). CCL layer L0 = 14.2,
        // ε = 1.15.
        //   surcharge(FAA)      = 0.7·1.15 + 0.35·14.2 = 0.805 + 4.97 = 5.775
        //   RMW_L(FAA, 3 copies) = 3·0.5·14.2 + (0.7·1.15 + 0.35·1.15)
        //                        = 21.3 + 1.2075 = 22.5075.
        let k = Topology::preset(Platform::Kunpeng920);
        let ccl = CacheOps::new(&k, LayerId(0));
        assert!((ccl.rmw_surcharge_ns(RmwOp::FetchAdd) - 5.775).abs() < 1e-9);
        assert!((ccl.local_rmw_ns(RmwOp::FetchAdd, 3) - 22.5075).abs() < 1e-9);

        // Legacy identity: under a legacy table every kind's remote RMW is
        // the old W_R + ε + 0.5·L.
        let legacy = Topology::preset(Platform::XeonGold);
        let xo = CacheOps::new(&legacy, LayerId(0));
        for op in RmwOp::ALL {
            assert_eq!(xo.remote_rmw_ns(op, 1), xo.remote_write_ns(1) + 1.0 + 0.5 * 20.0);
        }
    }
}
