//! Dense bit sets and bit matrices.
//!
//! These back the hot inner loops of the analyses: reachability frontiers,
//! the wave-order dataflow of the sequenceability analysis (one [`BitSet`]
//! column per node, each updated 64 nodes per word with intersections and
//! unions), the finish-before-start relation (an `N×N`
//! [`BitMatrix`] closed with row-OR operations, built only where it is
//! read), and the co-executability table. Words are `u64`; all operations
//! are branch-light and allocation is up-front.

/// A fixed-capacity dense set of `usize` values `0..len`.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

const WORD_BITS: usize = 64;

impl BitSet {
    /// An empty set over the universe `0..len`.
    #[must_use]
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// A set containing every value in `0..len`.
    #[must_use]
    pub fn full(len: usize) -> Self {
        let mut s = BitSet::new(len);
        for i in 0..len {
            s.insert(i);
        }
        s
    }

    /// Size of the universe (not the cardinality; see [`BitSet::count`]).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no bit is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Insert `i`; returns `true` if it was newly inserted.
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit {i} out of range {}", self.len);
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        let mask = 1u64 << b;
        let newly = self.words[w] & mask == 0;
        self.words[w] |= mask;
        newly
    }

    /// Remove `i`; returns `true` if it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        let mask = 1u64 << b;
        let present = self.words[w] & mask != 0;
        self.words[w] &= !mask;
        present
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        self.words[w] & (1u64 << b) != 0
    }

    /// Number of elements in the set.
    #[must_use]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Remove all elements.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// `self = other`, reusing `self`'s storage.
    ///
    /// Panics if the universes differ.
    pub fn copy_from(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset universe mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// `self ∪= other`; returns `true` if `self` changed.
    ///
    /// Panics if the universes differ.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "bitset universe mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let before = *a;
            *a |= b;
            changed |= *a != before;
        }
        changed
    }

    /// `self ∩= other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self −= other`.
    pub fn difference_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Iterate over set elements in increasing order.
    pub fn iter(&self) -> IterOnes<'_> {
        self.iter_ones()
    }

    /// Iterate over set elements in increasing order (named iterator).
    ///
    /// The one sanctioned way to walk a bitset — sweeps should use this
    /// instead of hand-rolling word/trailing-zeros loops.
    #[must_use]
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Collect the elements into a `Vec` (ascending).
    #[must_use]
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a set sized to the maximum element + 1.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let len = items.iter().copied().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(len);
        for i in items {
            s.insert(i);
        }
        s
    }
}

/// Iterator over the set bits of a [`BitSet`], ascending.
///
/// Produced by [`BitSet::iter_ones`].
#[derive(Clone, Debug)]
pub struct IterOnes<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let b = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * WORD_BITS + b)
    }
}

struct BitIter {
    word: u64,
}

impl Iterator for BitIter {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let b = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(b)
    }
}

/// A dense `rows × cols` boolean matrix, each row stored as bit words.
///
/// Used for binary relations over sync-graph nodes: `precedes`,
/// reachability closures, co-executability.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitMatrix {
    words_per_row: usize,
    words: Vec<u64>,
    rows: usize,
    cols: usize,
}

impl BitMatrix {
    /// An all-zero matrix.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        let wpr = cols.div_ceil(WORD_BITS);
        BitMatrix {
            words_per_row: wpr,
            words: vec![0; wpr * rows],
            rows,
            cols,
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Set `(r, c)`; returns `true` if newly set.
    pub fn set(&mut self, r: usize, c: usize) -> bool {
        debug_assert!(r < self.rows && c < self.cols);
        let idx = r * self.words_per_row + c / WORD_BITS;
        let mask = 1u64 << (c % WORD_BITS);
        let newly = self.words[idx] & mask == 0;
        self.words[idx] |= mask;
        newly
    }

    /// Clear `(r, c)`.
    pub fn unset(&mut self, r: usize, c: usize) {
        debug_assert!(r < self.rows && c < self.cols);
        let idx = r * self.words_per_row + c / WORD_BITS;
        self.words[idx] &= !(1u64 << (c % WORD_BITS));
    }

    /// Test `(r, c)`.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> bool {
        debug_assert!(r < self.rows && c < self.cols);
        let idx = r * self.words_per_row + c / WORD_BITS;
        self.words[idx] & (1u64 << (c % WORD_BITS)) != 0
    }

    /// OR row `src` into row `dst`; returns `true` if `dst` changed.
    ///
    /// This is the workhorse of the transitive-closure and dataflow loops.
    pub fn or_row_into(&mut self, src: usize, dst: usize) -> bool {
        debug_assert!(src < self.rows && dst < self.rows);
        if src == dst {
            return false;
        }
        let wpr = self.words_per_row;
        let (s, d) = (src * wpr, dst * wpr);
        let mut changed = false;
        // Split borrow: rows never overlap because src != dst.
        let (lo, hi, flip) = if s < d { (s, d, false) } else { (d, s, true) };
        let (head, tail) = self.words.split_at_mut(hi);
        let (a, b): (&mut [u64], &mut [u64]) =
            (&mut head[lo..lo + wpr], &mut tail[..wpr]);
        let (src_row, dst_row) = if flip { (b, a) } else { (a, b) };
        for (dw, sw) in dst_row.iter_mut().zip(src_row.iter()) {
            let before = *dw;
            *dw |= *sw;
            changed |= *dw != before;
        }
        changed
    }

    /// Iterate the set columns of row `r` in increasing order.
    pub fn row_iter(&self, r: usize) -> impl Iterator<Item = usize> + '_ {
        let wpr = self.words_per_row;
        let row = &self.words[r * wpr..(r + 1) * wpr];
        row.iter().enumerate().flat_map(|(wi, &w)| {
            BitIter { word: w }.map(move |b| wi * WORD_BITS + b)
        })
    }

    /// Copy row `r` out as a [`BitSet`].
    #[must_use]
    pub fn row(&self, r: usize) -> BitSet {
        let wpr = self.words_per_row;
        BitSet {
            words: self.words[r * wpr..(r + 1) * wpr].to_vec(),
            len: self.cols,
        }
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64));
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert!(!s.contains(1000));
        assert_eq!(s.count(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.to_vec(), vec![0, 129]);
    }

    #[test]
    fn set_algebra() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.insert(1);
        a.insert(70);
        b.insert(70);
        b.insert(99);
        let mut u = a.clone();
        assert!(u.union_with(&b));
        assert!(!u.union_with(&b));
        assert_eq!(u.to_vec(), vec![1, 70, 99]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.to_vec(), vec![70]);
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.to_vec(), vec![1]);
    }

    #[test]
    fn full_and_clear() {
        let mut s = BitSet::full(67);
        assert_eq!(s.count(), 67);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn copy_from_overwrites_in_place() {
        let mut a = BitSet::new(130);
        a.insert(3);
        let mut b = BitSet::new(130);
        b.insert(64);
        b.insert(129);
        a.copy_from(&b);
        assert_eq!(a, b);
    }

    #[test]
    fn iter_ones_matches_contents() {
        let mut s = BitSet::new(200);
        for i in [0usize, 1, 63, 64, 65, 127, 128, 199] {
            s.insert(i);
        }
        assert_eq!(
            s.iter_ones().collect::<Vec<_>>(),
            vec![0, 1, 63, 64, 65, 127, 128, 199]
        );
        assert_eq!(BitSet::new(0).iter_ones().count(), 0);
        assert_eq!(BitSet::new(100).iter_ones().count(), 0);
    }

    #[test]
    fn from_iterator_sizes_universe() {
        let s: BitSet = [3usize, 9, 4].into_iter().collect();
        assert_eq!(s.len(), 10);
        assert_eq!(s.to_vec(), vec![3, 4, 9]);
    }

    #[test]
    fn matrix_set_get_or() {
        let mut m = BitMatrix::new(4, 130);
        m.set(0, 129);
        m.set(1, 0);
        m.set(1, 64);
        assert!(m.get(0, 129));
        assert!(!m.get(0, 0));
        assert!(m.or_row_into(1, 0));
        assert!(!m.or_row_into(1, 0));
        assert_eq!(m.row_iter(0).collect::<Vec<_>>(), vec![0, 64, 129]);
        m.unset(0, 64);
        assert!(!m.get(0, 64));
        assert_eq!(m.row(1).to_vec(), vec![0, 64]);
    }

    #[test]
    fn or_row_into_works_in_both_directions() {
        let mut m = BitMatrix::new(3, 10);
        m.set(2, 5);
        assert!(m.or_row_into(2, 0)); // src index above dst
        assert!(m.get(0, 5));
        m.set(0, 7);
        assert!(m.or_row_into(0, 2)); // src index below dst
        assert!(m.get(2, 7));
        assert!(!m.or_row_into(1, 1)); // self-OR is a no-op
    }
}
