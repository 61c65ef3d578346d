//! Per-cache-line coherence directory state.

use armbar_topology::CoreId;

/// A set of cores holding a valid copy of a line. The simulator supports up
/// to [`CoreSet::CAPACITY`] cores (sixteen 64-bit words), which covers the
/// paper's machines and the 1024-core kilocore presets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreSet {
    bits: [u64; Self::WORDS],
}

impl CoreSet {
    /// Bitset width in 64-bit words.
    const WORDS: usize = 16;

    /// Largest supported core count.
    pub const CAPACITY: usize = Self::WORDS * 64;

    /// The empty set.
    pub const EMPTY: CoreSet = CoreSet { bits: [0; Self::WORDS] };

    /// Inserts a core.
    #[inline]
    pub fn insert(&mut self, c: CoreId) {
        debug_assert!(c < Self::CAPACITY);
        self.bits[c / 64] |= 1u64 << (c % 64);
    }

    /// Removes a core.
    #[inline]
    pub fn remove(&mut self, c: CoreId) {
        debug_assert!(c < Self::CAPACITY);
        self.bits[c / 64] &= !(1u64 << (c % 64));
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, c: CoreId) -> bool {
        debug_assert!(c < Self::CAPACITY);
        self.bits[c / 64] & (1u64 << (c % 64)) != 0
    }

    /// Number of cores in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits == [0; Self::WORDS]
    }

    /// Clears the set.
    #[inline]
    pub fn clear(&mut self) {
        self.bits = [0; Self::WORDS];
    }

    /// Whether the set shares a member with `mask`, a bitset in the same
    /// word layout (e.g. a `Topology::layer_mask`); words past the end of
    /// `mask` count as empty.
    #[inline]
    pub fn intersects(&self, mask: &[u64]) -> bool {
        self.bits.iter().zip(mask).any(|(a, b)| a & b != 0)
    }

    /// Adds every member of `other`.
    #[inline]
    pub fn union_with(&mut self, other: &CoreSet) {
        for (a, b) in self.bits.iter_mut().zip(other.bits) {
            *a |= b;
        }
    }

    /// Iterates over member core ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = CoreId> + '_ {
        (0..Self::WORDS).flat_map(move |w| {
            let mut word = self.bits[w];
            std::iter::from_fn(move || {
                if word == 0 {
                    None
                } else {
                    let b = word.trailing_zeros() as usize;
                    word &= word - 1;
                    Some(w * 64 + b)
                }
            })
        })
    }
}

impl FromIterator<CoreId> for CoreSet {
    fn from_iter<T: IntoIterator<Item = CoreId>>(iter: T) -> Self {
        let mut s = CoreSet::EMPTY;
        for c in iter {
            s.insert(c);
        }
        s
    }
}

/// Directory entry for one cache line.
///
/// `owner` is the core whose cache holds the authoritative (most recently
/// written) copy; `sharers` are cores holding valid read copies (the owner
/// is always a sharer of its own line). `available_at` is the virtual time
/// at which the line next becomes free for an ownership transfer — writes
/// and RMWs to one line serialize on it, producing hot-spot queueing.
#[derive(Debug, Clone, Copy)]
pub struct Line {
    /// Core owning the authoritative copy (last writer), if any.
    pub owner: Option<CoreId>,
    /// Cores with a valid copy.
    pub sharers: CoreSet,
    /// Virtual time when the line is next available for a write/RMW.
    pub available_at: f64,
    /// Readers that piled onto the line since its last write — used for the
    /// paper's `c·(j−1)` reader-contention term (Eq. 3).
    pub readers_since_write: u32,
}

impl Default for Line {
    fn default() -> Self {
        Self { owner: None, sharers: CoreSet::EMPTY, available_at: 0.0, readers_since_write: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coreset_basic_ops() {
        let mut s = CoreSet::EMPTY;
        assert!(s.is_empty());
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(127);
        assert_eq!(s.len(), 4);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(127));
        assert!(!s.contains(1));
        s.remove(63);
        assert!(!s.contains(63));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn coreset_iter_ascending() {
        let s: CoreSet = [5usize, 1, 64, 99].into_iter().collect();
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![1, 5, 64, 99]);
    }

    #[test]
    fn coreset_insert_idempotent() {
        let mut s = CoreSet::EMPTY;
        s.insert(7);
        s.insert(7);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn coreset_clear() {
        let mut s: CoreSet = (0..100).collect();
        assert_eq!(s.len(), 100);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn coreset_covers_kilocore_range() {
        let mut s = CoreSet::EMPTY;
        s.insert(128);
        s.insert(512);
        s.insert(CoreSet::CAPACITY - 1);
        assert_eq!(s.len(), 3);
        assert!(s.contains(128) && s.contains(512) && s.contains(1023));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![128, 512, 1023]);
        s.remove(512);
        assert_eq!(s.len(), 2);
        let full: CoreSet = (0..CoreSet::CAPACITY).collect();
        assert_eq!(full.len(), 1024);
    }

    #[test]
    fn coreset_intersects_and_unions() {
        let a: CoreSet = [1usize, 70].into_iter().collect();
        assert!(a.intersects(&[0, 1 << 6]));
        assert!(a.intersects(&[1 << 1]));
        assert!(!a.intersects(&[1 << 2, 1 << 7]));
        assert!(!a.intersects(&[0]), "words past the mask are empty");
        let mut b: CoreSet = [2usize, 70].into_iter().collect();
        b.union_with(&a);
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![1, 2, 70]);
    }

    #[test]
    fn line_default_is_cold() {
        let l = Line::default();
        assert!(l.owner.is_none());
        assert!(l.sharers.is_empty());
        assert_eq!(l.available_at, 0.0);
    }
}
