//! Tree shapes used by arrival and notification phases.
//!
//! Pure index arithmetic, independent of any backend: binary wake-up trees,
//! the paper's NUMA-aware wake-up tree (Section V-C, Eq. 5), and the
//! balanced fan-in schedule of the static/dynamic f-way tournament
//! (Section II-B).

/// Children of node `n` in the classic binary wake-up tree over `p` nodes:
/// `2n+1` and `2n+2` where in range.
pub fn binary_children(n: usize, p: usize) -> impl Iterator<Item = usize> {
    [2 * n + 1, 2 * n + 2].into_iter().filter(move |&k| k < p)
}

/// Children of node `n` in the NUMA-aware wake-up tree over `p` nodes with
/// logical cluster size `n_c` (Eq. 5 of the paper).
///
/// Nodes are split into *masters* (the first thread of each cluster, i.e.
/// `n % n_c == 0`) and *slaves*. Masters form a binary tree **across
/// clusters** (master of cluster `k` wakes the masters of clusters `2k+1`
/// and `2k+2`) and additionally start their cluster's **local** binary tree
/// (waking local slaves 1 and 2); slaves continue the local binary tree.
/// A master therefore has up to four children — two remote masters, two
/// local slaves — and every cross-cluster edge of the whole tree is a
/// master→master edge, minimizing remote (`L_i`, `i > 0`) accesses while
/// keeping the level count of the binary tree.
///
/// When `p ≤ n_c` there is a single cluster and the tree degenerates to the
/// plain binary tree, matching the paper's observation that the two wake-up
/// schemes coincide for small thread counts.
pub fn numa_children(n: usize, p: usize, n_c: usize) -> impl Iterator<Item = usize> {
    assert!(n_c >= 1);
    let clusters = p.div_ceil(n_c);
    let k = n / n_c;
    // Master: wake the masters of clusters 2k+1 and 2k+2 (every cluster
    // below `clusters` has its master below `p`) …
    let master = n.is_multiple_of(n_c);
    let masters = [2 * k + 1, 2 * k + 2].into_iter().filter(move |&kc| master && kc < clusters);
    // … and everyone continues the local binary tree within the cluster.
    let base = k * n_c;
    let local = n - base;
    let local_size = n_c.min(p - base);
    let locals = [2 * local + 1, 2 * local + 2].into_iter().filter(move |&lc| lc < local_size);
    masters.map(move |kc| kc * n_c).chain(locals.map(move |lc| base + lc))
}

/// A wake-up tree rooted at node 0, its child lists stored back to back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WakeTree {
    /// `children[first[n]..first[n + 1]]` lists the nodes `n` wakes, in
    /// wake order.
    first: Vec<usize>,
    children: Vec<usize>,
}

impl WakeTree {
    fn from_fn<I: Iterator<Item = usize>>(p: usize, children_of: impl Fn(usize) -> I) -> Self {
        let mut first = Vec::with_capacity(p + 1);
        let mut children = Vec::with_capacity(p.saturating_sub(1));
        for n in 0..p {
            first.push(children.len());
            children.extend(children_of(n));
        }
        first.push(children.len());
        Self { first, children }
    }

    /// Binary tree over `p` nodes rooted at 0.
    pub fn binary(p: usize) -> Self {
        Self::from_fn(p, |n| binary_children(n, p))
    }

    /// NUMA-aware tree over `p` nodes with cluster size `n_c`, rooted at 0.
    pub fn numa(p: usize, n_c: usize) -> Self {
        Self::from_fn(p, |n| numa_children(n, p, n_c))
    }

    /// The nodes `n` wakes, in wake order.
    pub fn children(&self, n: usize) -> &[usize] {
        &self.children[self.first[n]..self.first[n + 1]]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.first.len() - 1
    }

    /// True when the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Depth of the tree (number of edges on the longest root→leaf path).
    pub fn depth(&self) -> usize {
        fn rec(t: &WakeTree, n: usize) -> usize {
            t.children(n).iter().map(|&c| 1 + rec(t, c)).max().unwrap_or(0)
        }
        if self.is_empty() {
            0
        } else {
            rec(self, 0)
        }
    }

    /// Number of edges whose endpoints lie in different clusters of size
    /// `n_c` — the "remote accesses with `L_i` (i > 0)" the paper's Figure
    /// 10 counts.
    pub fn cross_cluster_edges(&self, n_c: usize) -> usize {
        (0..self.len())
            .flat_map(|n| self.children(n).iter().map(move |&c| (n, c)))
            .filter(|&(a, b)| a / n_c != b / n_c)
            .count()
    }

    /// Verifies the tree is a spanning tree rooted at 0: every node except
    /// the root has exactly one parent and is reachable from the root.
    /// Returns an error description on violation (used by tests).
    pub fn check_spanning(&self) -> Result<(), String> {
        let p = self.len();
        let mut parent_count = vec![0usize; p];
        for n in 0..p {
            for &c in self.children(n) {
                if c >= p {
                    return Err(format!("node {n} has out-of-range child {c}"));
                }
                if c == n {
                    return Err(format!("node {n} is its own child"));
                }
                parent_count[c] += 1;
            }
        }
        if p > 0 && parent_count[0] != 0 {
            return Err("root has a parent".into());
        }
        for (n, &k) in parent_count.iter().enumerate().skip(1) {
            if k != 1 {
                return Err(format!("node {n} has {k} parents, expected 1"));
            }
        }
        // Reachability.
        let mut seen = vec![false; p];
        let mut stack = vec![0usize];
        let mut visited = 0;
        while let Some(n) = stack.pop() {
            if seen[n] {
                return Err(format!("cycle through node {n}"));
            }
            seen[n] = true;
            visited += 1;
            stack.extend(self.children(n).iter().copied());
        }
        if visited != p {
            return Err(format!("only {visited} of {p} nodes reachable from root"));
        }
        Ok(())
    }
}

/// Fan-in schedule of an f-way tournament: the group size used at each
/// round, bottom-up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaninPlan {
    /// Group size per round; `rounds().len()` is the tree height.
    fanins: Vec<usize>,
}

impl FaninPlan {
    /// The *balanced* schedule of the original static f-way tournament
    /// (Grunwald & Vajracharya): pick the smallest number of rounds
    /// achievable with groups of at most `max_fanin` (8 in the original,
    /// whose packed 32-bit flags allow fan-ins of 2..8), then size each
    /// round as evenly as possible (`f_l ≈ m^(1/levels_left)`).
    pub fn balanced(p: usize, max_fanin: usize) -> Self {
        assert!(p >= 1);
        assert!(max_fanin >= 2);
        if p == 1 {
            return Self { fanins: Vec::new() };
        }
        let mut rounds = 1usize;
        while pow_at_least(max_fanin, rounds) < p {
            rounds += 1;
        }
        let mut fanins = Vec::with_capacity(rounds);
        let mut m = p;
        for l in 0..rounds {
            let left = rounds - l;
            let f = int_root_ceil(m, left).clamp(2, max_fanin);
            fanins.push(f);
            m = m.div_ceil(f);
        }
        debug_assert_eq!(m, 1, "balanced plan must reduce to one champion");
        Self { fanins }
    }

    /// A fixed fan-in schedule: every round uses groups of exactly `f`
    /// (the paper's optimization recommends `f = 4`).
    pub fn fixed(p: usize, f: usize) -> Self {
        assert!(p >= 1);
        assert!(f >= 2);
        let mut fanins = Vec::new();
        let mut m = p;
        while m > 1 {
            fanins.push(f);
            m = m.div_ceil(f);
        }
        Self { fanins }
    }

    /// Group sizes per round, bottom-up.
    pub fn rounds(&self) -> &[usize] {
        &self.fanins
    }

    /// Number of contestants entering round `l` for an initial field of
    /// `p`: `p` reduced by the preceding fan-ins.
    pub fn contestants(&self, p: usize, l: usize) -> usize {
        let mut m = p;
        for &f in &self.fanins[..l] {
            m = m.div_ceil(f);
        }
        m
    }
}

/// `f^rounds`, saturating, for plan sizing.
fn pow_at_least(f: usize, rounds: usize) -> usize {
    let mut x = 1usize;
    for _ in 0..rounds {
        x = x.saturating_mul(f);
    }
    x
}

/// Smallest `f` with `f^k ≥ m` (integer `k`-th root, rounded up).
fn int_root_ceil(m: usize, k: usize) -> usize {
    if m <= 1 {
        return 1;
    }
    let mut f = 1usize;
    while pow_at_least(f, k) < m {
        f += 1;
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_tree_is_spanning_for_all_sizes() {
        for p in 1..=130 {
            WakeTree::binary(p).check_spanning().unwrap();
        }
    }

    #[test]
    fn numa_tree_is_spanning_for_many_shapes() {
        for n_c in [1, 2, 4, 8, 16, 32] {
            for p in 1..=96 {
                let t = WakeTree::numa(p, n_c);
                t.check_spanning().unwrap_or_else(|e| panic!("p={p} n_c={n_c}: {e}"));
            }
        }
    }

    #[test]
    fn numa_tree_degenerates_to_binary_within_one_cluster() {
        // When p ≤ n_c the NUMA tree *is* the binary tree (paper: the two
        // wake-up methods coincide for small thread counts).
        for p in 1..=32 {
            assert_eq!(WakeTree::numa(p, 32), WakeTree::binary(p), "p={p}");
        }
    }

    #[test]
    fn numa_tree_minimizes_cross_cluster_edges_on_thunderx2_shape() {
        // ThunderX2: 64 threads, two 32-core sockets. The paper's Figure 10:
        // the binary tree sends ~half its edges across the socket link; the
        // NUMA-aware tree sends exactly one (master 0 → master 32).
        let bin = WakeTree::binary(64);
        let numa = WakeTree::numa(64, 32);
        assert!(bin.cross_cluster_edges(32) >= 16);
        assert_eq!(numa.cross_cluster_edges(32), 1);
    }

    #[test]
    fn numa_tree_cross_edges_equal_clusters_minus_one() {
        // Every cluster's master is woken by exactly one cross edge.
        for (p, n_c) in [(64, 4), (64, 8), (48, 4), (40, 8), (64, 32)] {
            let t = WakeTree::numa(p, n_c);
            let clusters = p.div_ceil(n_c);
            assert_eq!(t.cross_cluster_edges(n_c), clusters - 1, "p={p} n_c={n_c}");
        }
    }

    #[test]
    fn numa_master_has_at_most_four_children() {
        let t = WakeTree::numa(64, 4);
        for n in 0..t.len() {
            let cs = t.children(n);
            let bound = if n % 4 == 0 { 4 } else { 2 };
            assert!(cs.len() <= bound, "node {n} has {} children", cs.len());
        }
    }

    #[test]
    fn numa_depth_stays_close_to_binary_depth() {
        // The paper keeps "the number of levels of the tree unchanged".
        for (p, n_c) in [(64, 32), (64, 4), (64, 8)] {
            let bin = WakeTree::binary(p).depth();
            let numa = WakeTree::numa(p, n_c).depth();
            assert!(numa <= bin + 1, "p={p} n_c={n_c}: numa depth {numa} vs binary {bin}");
        }
    }

    #[test]
    fn binary_depth_is_logarithmic() {
        assert_eq!(WakeTree::binary(1).depth(), 0);
        assert_eq!(WakeTree::binary(3).depth(), 1);
        assert_eq!(WakeTree::binary(7).depth(), 2);
        // 64 nodes: the deepest chain is 0→1→3→7→15→31→63.
        assert_eq!(WakeTree::binary(64).depth(), 6);
    }

    #[test]
    fn balanced_plan_matches_paper_examples() {
        // Paper Figure 9(a): 9 threads balanced → fan-in 3, two rounds.
        assert_eq!(FaninPlan::balanced(9, 8).rounds(), &[3, 3]);
        // 64 threads with max fan-in 8 → two rounds of 8.
        assert_eq!(FaninPlan::balanced(64, 8).rounds(), &[8, 8]);
        // 20 threads → 5 then 4 (Figure 4 uses 20 threads).
        assert_eq!(FaninPlan::balanced(20, 8).rounds(), &[5, 4]);
    }

    #[test]
    fn balanced_plan_reduces_to_champion() {
        for p in 1..=130 {
            let plan = FaninPlan::balanced(p, 8);
            assert_eq!(plan.contestants(p, plan.rounds().len()), 1, "p={p}");
        }
    }

    #[test]
    fn fixed_plan_reduces_to_champion() {
        for f in [2, 4, 8, 16] {
            for p in 1..=130 {
                let plan = FaninPlan::fixed(p, f);
                assert_eq!(plan.contestants(p, plan.rounds().len()), 1, "p={p} f={f}");
            }
        }
    }

    #[test]
    fn fixed_plan_round_count_is_log_f() {
        assert_eq!(FaninPlan::fixed(64, 4).rounds().len(), 3);
        assert_eq!(FaninPlan::fixed(64, 2).rounds().len(), 6);
        assert_eq!(FaninPlan::fixed(64, 8).rounds().len(), 2);
        assert_eq!(FaninPlan::fixed(64, 64).rounds().len(), 1);
        assert_eq!(FaninPlan::fixed(1, 4).rounds().len(), 0);
    }

    #[test]
    fn contestants_shrink_monotonically() {
        let plan = FaninPlan::balanced(100, 8);
        let mut prev = 100;
        for l in 1..=plan.rounds().len() {
            let c = plan.contestants(100, l);
            assert!(c < prev);
            prev = c;
        }
    }
}
