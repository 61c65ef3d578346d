//! Figure 12: Notification-Phase comparison — global sense versus binary
//! tree versus the paper's NUMA-aware tree wake-up, on the padded 4-way
//! arrival base.
//!
//! Expected (Section VI-B): the three curves coincide at small thread
//! counts (within one cluster the NUMA tree *is* the binary tree, and a
//! global flip among a handful of threads is as cheap as a tree hop);
//! at scale, tree wake-ups win on Phytium 2000+ and ThunderX2 while the
//! global flip wins on Kunpeng 920; the NUMA-aware tree is the most
//! scalable tree variant on the clustered machines.

use armbar_core::prelude::*;
use armbar_sweep::SweepPool;
use armbar_topology::Platform;

use crate::report::{us, Report};
use crate::runner::{curve, topo, Scale};

/// The three wake-up policies on the padded 4-way arrival base.
pub fn configs() -> [(&'static str, FwayConfig); 3] {
    let base = FwayConfig {
        fanin: Fanin::Fixed(4),
        padded_flags: true,
        dynamic: false,
        wakeup: WakeupKind::Global,
    };
    [
        ("global", base),
        ("binary tree", FwayConfig { wakeup: WakeupKind::BinaryTree, ..base }),
        ("NUMA-aware tree", FwayConfig { wakeup: WakeupKind::NumaTree, ..base }),
    ]
}

/// Runs Figure 12(a)–(c), one report per ARMv8 platform.
pub fn run(scale: &Scale) -> Vec<Report> {
    let pool = SweepPool::ambient();
    ["a", "b", "c"]
        .into_iter()
        .zip(Platform::ARM)
        .map(|(panel, platform)| {
            let t = topo(platform);
            let mut r = Report::new(
                format!("Figure 12({panel}) — wake-up methods on {} (us)", t.name()),
                &["threads", "global", "binary tree", "NUMA-aware tree"],
            );
            let curves: Vec<Vec<(usize, f64)>> =
                configs().iter().map(|(_, c)| curve(&pool, &t, c, scale)).collect();
            for i in 0..curves[0].len() {
                let mut row = vec![curves[0][i].0.to_string()];
                row.extend(curves.iter().map(|c| us(c[i].1)));
                r.row(row);
            }
            r.note("paper: tree wake-ups win on Phytium 2000+/ThunderX2, global on");
            r.note("Kunpeng920; curves coincide while the thread count stays within N_c.");
            r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::overhead_ns;

    #[test]
    fn tree_wakeup_wins_on_phytium_and_thunderx2() {
        let scale = Scale::quick();
        let pool = SweepPool::ambient();
        let cfgs = configs();
        for platform in [Platform::Phytium2000Plus, Platform::ThunderX2] {
            let t = topo(platform);
            let global = overhead_ns(&pool, &t, 64, &cfgs[0].1, &scale);
            let numa = overhead_ns(&pool, &t, 64, &cfgs[2].1, &scale);
            assert!(numa < global, "{platform:?}: numa {numa} vs global {global}");
        }
    }

    #[test]
    fn global_wakeup_wins_on_kunpeng() {
        let scale = Scale::quick();
        let pool = SweepPool::ambient();
        let cfgs = configs();
        let t = topo(Platform::Kunpeng920);
        let global = overhead_ns(&pool, &t, 64, &cfgs[0].1, &scale);
        let binary = overhead_ns(&pool, &t, 64, &cfgs[1].1, &scale);
        assert!(global < binary, "global {global} vs binary {binary}");
    }

    #[test]
    fn numa_tree_beats_binary_tree_at_scale_on_thunderx2() {
        let scale = Scale::quick();
        let pool = SweepPool::ambient();
        let cfgs = configs();
        let t = topo(Platform::ThunderX2);
        let binary = overhead_ns(&pool, &t, 64, &cfgs[1].1, &scale);
        let numa = overhead_ns(&pool, &t, 64, &cfgs[2].1, &scale);
        assert!(numa < binary, "numa {numa} vs binary {binary}");
    }

    #[test]
    fn policies_coincide_within_one_cluster() {
        // On ThunderX2 (N_c = 32) a 16-thread barrier never leaves the
        // socket: the NUMA tree equals the binary tree by construction.
        let scale = Scale::quick();
        let pool = SweepPool::ambient();
        let cfgs = configs();
        let t = topo(Platform::ThunderX2);
        let binary = overhead_ns(&pool, &t, 16, &cfgs[1].1, &scale);
        let numa = overhead_ns(&pool, &t, 16, &cfgs[2].1, &scale);
        let rel = (binary - numa).abs() / binary.max(numa);
        assert!(rel < 0.05, "binary {binary} vs numa {numa} should coincide");
    }
}
