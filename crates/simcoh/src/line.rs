//! Per-cache-line coherence directory state, sized to the run.
//!
//! A line's header is 16 bytes; its sharer set lives beside it in a
//! [`SetTable`], `⌈nthreads/64⌉` words per line. Thread `i` runs on core
//! `i`, so no core at or past the run's thread count ever joins a set, and
//! a P ≤ 64 run keeps one word per line however wide the machine is.

use armbar_topology::CoreId;

/// Directory header for one cache line.
///
/// `owner` is the core whose cache holds the authoritative (most recently
/// written) copy, or [`Line::NO_OWNER`]; the owner is always a sharer of
/// its own line. `available_at` is the virtual time at which the line next
/// becomes free for an ownership transfer — writes and RMWs to one line
/// serialize on it, producing hot-spot queueing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Line {
    /// Core owning the authoritative copy (last writer).
    pub(crate) owner: u32,
    /// Readers that piled onto the line since its last write — used for the
    /// paper's `c·(j−1)` reader-contention term (Eq. 3).
    pub(crate) readers_since_write: u32,
    /// Virtual time when the line is next available for a write/RMW.
    pub(crate) available_at: f64,
}

impl Line {
    /// `owner` of a line nobody has written.
    pub(crate) const NO_OWNER: u32 = u32::MAX;

    /// A line nobody has touched.
    pub(crate) const COLD: Line =
        Line { owner: Self::NO_OWNER, readers_since_write: 0, available_at: 0.0 };

    /// The owning core, if any.
    #[inline]
    pub(crate) fn owner(&self) -> Option<CoreId> {
        (self.owner != Self::NO_OWNER).then_some(self.owner as CoreId)
    }
}

/// One core set per entry (a line's sharers, or the blocked waiters
/// watching it), `words` 64-bit words each, in one dense `Vec`: bit `c % 64`
/// of an entry's word `c / 64` stands for core `c`. An entry past the end
/// reads as the empty slice; [`SetTable::get_mut`] backs it on demand.
pub(crate) struct SetTable {
    bits: Vec<u64>,
    words: usize,
}

impl SetTable {
    /// A table for cores `0..ncores`, with `entries` entries backed.
    pub(crate) fn new(ncores: usize, entries: usize) -> Self {
        let words = ncores.div_ceil(64);
        Self { bits: vec![0; entries * words], words }
    }

    /// Entry `i`'s words; empty when the entry is unbacked.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> &[u64] {
        self.bits.get(i * self.words..(i + 1) * self.words).unwrap_or(&[])
    }

    /// Entry `i`'s words, growing the table to back it.
    #[inline]
    pub(crate) fn get_mut(&mut self, i: usize) -> &mut [u64] {
        let end = (i + 1) * self.words;
        if end > self.bits.len() {
            self.bits.resize(end, 0);
        }
        &mut self.bits[end - self.words..end]
    }

    /// Empties every entry and releases the backing.
    pub(crate) fn clear(&mut self) {
        self.bits.clear();
    }
}

/// Operations on one [`SetTable`] entry. Each touches only the entry's
/// words; an unbacked (empty) entry holds no core.
pub(crate) mod set {
    use armbar_topology::CoreId;

    /// Membership test.
    #[inline]
    pub(crate) fn contains(set: &[u64], c: CoreId) -> bool {
        set.get(c / 64).is_some_and(|w| w & (1 << (c % 64)) != 0)
    }

    /// Inserts a core.
    #[inline]
    pub(crate) fn insert(set: &mut [u64], c: CoreId) {
        set[c / 64] |= 1 << (c % 64);
    }

    /// Removes a core.
    #[inline]
    pub(crate) fn remove(set: &mut [u64], c: CoreId) {
        set[c / 64] &= !(1 << (c % 64));
    }

    /// Number of cores in the set.
    #[inline]
    pub(crate) fn len(set: &[u64]) -> usize {
        set.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when empty.
    #[inline]
    pub(crate) fn is_empty(set: &[u64]) -> bool {
        set.iter().all(|&w| w == 0)
    }

    /// Adds every member of `other`, an entry of the same width.
    #[inline]
    pub(crate) fn union(set: &mut [u64], other: &[u64]) {
        for (a, b) in set.iter_mut().zip(other) {
            *a |= b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_ops_touch_only_the_entry() {
        let mut t = SetTable::new(129, 2);
        assert_eq!(t.get(0).len(), 3, "⌈129/64⌉ words");
        for c in [0, 63, 64, 128] {
            set::insert(t.get_mut(1), c);
        }
        assert!(set::is_empty(t.get(0)), "a neighbour entry stays empty");
        let s = t.get(1);
        assert_eq!(set::len(s), 4);
        assert!([0, 63, 64, 128].iter().all(|&c| set::contains(s, c)));
        assert!(!set::contains(s, 1) && !set::contains(s, 127));
        set::remove(t.get_mut(1), 63);
        assert!(!set::contains(t.get(1), 63));
        assert_eq!(set::len(t.get(1)), 3);
    }

    #[test]
    fn unbacked_entries_read_empty_and_grow_on_demand() {
        let mut t = SetTable::new(1024, 0);
        assert!(t.get(7).is_empty() && !set::contains(t.get(7), 1023));
        set::insert(t.get_mut(7), 1023);
        assert_eq!(t.get(7).len(), 16);
        assert!(set::contains(t.get(7), 1023) && set::is_empty(t.get(6)));
        t.clear();
        assert!(t.get(7).is_empty());
    }

    #[test]
    fn union_adds_every_member() {
        let mut t = SetTable::new(128, 2);
        set::insert(t.get_mut(0), 1);
        set::insert(t.get_mut(0), 70);
        set::insert(t.get_mut(1), 2);
        set::insert(t.get_mut(1), 70);
        let a = t.get(0).to_vec();
        set::union(t.get_mut(1), &a);
        let members: Vec<usize> = (0..128).filter(|&c| set::contains(t.get(1), c)).collect();
        assert_eq!(members, [1, 2, 70]);
    }

    #[test]
    fn a_cold_line_has_no_owner() {
        assert_eq!(Line::COLD.owner(), None);
        assert_eq!(Line { owner: 3, ..Line::COLD }.owner(), Some(3));
        assert_eq!(std::mem::size_of::<Line>(), 16);
    }
}
