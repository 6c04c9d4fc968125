//! Fixed-width bitsets used for example-coverage computations.
//!
//! Coverage sets (`Cov(C)` in Definition 2) are manipulated heavily inside
//! the greedy cover search, so they are plain `u64` blocks rather than hash
//! sets.

/// A fixed-length set of example indices.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    blocks: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set over a universe of `len` elements.
    pub fn new(len: usize) -> Self {
        BitSet {
            blocks: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// A full set over a universe of `len` elements.
    pub fn full(len: usize) -> Self {
        let mut s = Self::new(len);
        for i in 0..len {
            s.insert(i);
        }
        s
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|b| *b == 0)
    }

    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.blocks[i / 64] |= 1 << (i % 64);
    }

    pub fn contains(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        self.blocks[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= b;
        }
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// `|self ∩ other|` without allocating.
    pub fn intersection_count(&self, other: &BitSet) -> usize {
        self.blocks
            .iter()
            .zip(&other.blocks)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Indices of all set bits, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(|i| self.contains(*i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_operations() {
        let mut s = BitSet::new(130);
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0));
        assert!(s.contains(64));
        assert!(s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn full_and_empty() {
        assert_eq!(BitSet::full(100).count(), 100);
        assert!(BitSet::new(100).is_empty());
        assert!(!BitSet::full(1).is_empty());
    }

    #[test]
    fn set_algebra() {
        let mut a = BitSet::new(10);
        let mut b = BitSet::new(10);
        for i in [1, 3, 5] {
            a.insert(i);
        }
        for i in [3, 5, 7] {
            b.insert(i);
        }
        assert_eq!(a.intersection_count(&b), 2);
        a.intersect_with(&b);
        assert_eq!(a.count(), 2);
    }

    proptest! {
        #[test]
        fn intersection_counts_agree_with_naive(
            xs in proptest::collection::vec(0usize..200, 0..60),
            ys in proptest::collection::vec(0usize..200, 0..60),
        ) {
            let mut a = BitSet::new(200);
            let mut b = BitSet::new(200);
            for x in &xs { a.insert(*x); }
            for y in &ys { b.insert(*y); }
            let sa: std::collections::BTreeSet<_> = xs.iter().collect();
            let sb: std::collections::BTreeSet<_> = ys.iter().collect();
            prop_assert_eq!(a.intersection_count(&b), sa.intersection(&sb).count());
            prop_assert_eq!(a.count(), sa.len());
        }

        #[test]
        fn iter_roundtrip(xs in proptest::collection::vec(0usize..128, 0..40)) {
            let mut a = BitSet::new(128);
            for x in &xs { a.insert(*x); }
            let collected: Vec<usize> = a.iter().collect();
            let expected: Vec<usize> = {
                let s: std::collections::BTreeSet<_> = xs.into_iter().collect();
                s.into_iter().collect()
            };
            prop_assert_eq!(collected, expected);
        }
    }
}
