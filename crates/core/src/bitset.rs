//! Packed `u64`-word bit sets for the engines' node masks.
//!
//! The in-memory engines spend most of their time scanning boolean node
//! masks: *is this neighbor a leader / white / needy?* As `Vec<bool>`,
//! those masks cost one byte per node; packed into `u64` words they are
//! 8× denser, whole-mask operations (`any`, `count`) run 64 nodes per
//! instruction, and the hot coverage scans touch an eighth of the cache
//! lines. The engines are serial, so a set is plain data with no
//! sharing discipline.

use ftclust_graphs::Graph;

/// Bits per storage word.
const WORD_BITS: usize = 64;

/// A fixed-length set of node indices, packed 64 per `u64` word.
///
/// Bits past `len` (the tail of the last word) are always zero — every
/// mutating method maintains that invariant, so whole-word operations
/// like [`BitSet::count`] need no masking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An all-zero set over `len` indices.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Packs a boolean mask.
    pub fn from_bools(bools: &[bool]) -> Self {
        let mut set = BitSet::new(bools.len());
        for (i, &b) in bools.iter().enumerate() {
            if b {
                set.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
            }
        }
        set
    }

    /// Builds a set of `len` indices from a predicate, one word at a
    /// time.
    pub fn from_fn(len: usize, pred: impl Fn(usize) -> bool) -> Self {
        let mut set = BitSet::new(len);
        for (wi, w) in set.words.iter_mut().enumerate() {
            let base = wi * WORD_BITS;
            for b in 0..WORD_BITS.min(len - base) {
                *w |= u64::from(pred(base + b)) << b;
            }
        }
        set
    }

    /// Number of indices the set ranges over (not the popcount).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the set ranges over zero indices.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tests index `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS] >> (i % WORD_BITS) & 1 != 0
    }

    /// Inserts index `i`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }

    /// Removes index `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
    }

    /// Number of set indices (popcount over whole words).
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if any index is set.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// `true` if `self` has any index that `other` lacks (`self & !other
    /// ≠ ∅`) — the engines' progress test, without materializing the
    /// difference.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn any_outside(&self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "bit set length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .any(|(a, b)| a & !b != 0)
    }

    /// The set indices, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(wi * WORD_BITS + bit)
            })
        })
    }

    /// Unpacks into a boolean mask (for `Vec<bool>` API boundaries such
    /// as [`crate::DominatingSet::from_members`]).
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// The backing words, read-only.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Per-node count of `members` in each closed neighborhood — the
/// coverage-repair engine's k-coverage scan.
///
/// # Panics
///
/// Panics if the mask length mismatches the graph.
pub fn coverage_counts(g: &Graph, members: &BitSet) -> Vec<u32> {
    assert_eq!(members.len(), g.node_count(), "membership mask mismatch");
    g.nodes()
        .map(|v| {
            g.closed_neighbors(v)
                .filter(|w| members.get(w.index()))
                .count() as u32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclust_graphs::{generators, NodeId};

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = BitSet::new(130); // straddles three words
        assert!(!s.any());
        assert_eq!(s.len(), 130);
        for i in [0usize, 63, 64, 127, 128, 129] {
            assert!(!s.get(i));
            s.insert(i);
            assert!(s.get(i));
        }
        assert_eq!(s.count(), 6);
        s.remove(64);
        assert!(!s.get(64));
        assert_eq!(s.count(), 5);
        assert_eq!(
            s.iter_ones().collect::<Vec<_>>(),
            vec![0, 63, 127, 128, 129]
        );
    }

    #[test]
    fn from_bools_and_back() {
        for n in [0usize, 1, 63, 64, 65, 200] {
            let bools: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let s = BitSet::from_bools(&bools);
            assert_eq!(s.to_bools(), bools);
            assert_eq!(s.count(), bools.iter().filter(|&&b| b).count());
        }
    }

    #[test]
    fn from_fn_matches_from_bools_across_word_boundaries() {
        let pred = |i: usize| i.is_multiple_of(7) || i % 11 == 3;
        for n in [0usize, 1, 63, 64, 65, 128, 129, 1000] {
            let bools: Vec<bool> = (0..n).map(pred).collect();
            assert_eq!(
                BitSet::from_fn(n, pred),
                BitSet::from_bools(&bools),
                "n={n}"
            );
        }
    }

    #[test]
    fn word_ops() {
        let a = BitSet::from_bools(&[true, false, true, false]);
        let b = BitSet::from_bools(&[true, true, false, false]);
        let and = BitSet::from_bools(&[true, false, false, false]);
        assert!(a.any_outside(&b)); // index 2
        assert!(!and.any_outside(&a));
        assert!(!BitSet::new(9).any_outside(&BitSet::new(9)));
    }

    #[test]
    fn tail_bits_stay_zero() {
        let mut s = BitSet::new(70);
        for i in 0..70 {
            s.insert(i);
        }
        assert_eq!(s.count(), 70);
        assert_eq!(s.words()[1], (1u64 << 6) - 1);
        let t = BitSet::from_fn(70, |_| true);
        assert_eq!(t.words()[1], (1u64 << 6) - 1);
    }

    #[test]
    fn coverage_counts_matches_scalar_scan() {
        let g = generators::gnp(150, 0.08, 9);
        let members = BitSet::from_fn(g.node_count(), |i| i % 4 == 1);
        let got = coverage_counts(&g, &members);
        for (i, &got) in got.iter().enumerate() {
            let want = g
                .closed_neighbors(NodeId::new(i as u32))
                .filter(|w| w.index() % 4 == 1)
                .count() as u32;
            assert_eq!(got, want, "node {i}");
        }
    }
}
