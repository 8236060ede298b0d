//! Compact match sets.
//!
//! A rule's matched windows were stored as `Vec<usize>` — 8 bytes per match,
//! `O(K)` to intersect or union. The engine's coverage bookkeeping and the
//! ensemble's stop condition only ever ask set questions (union, cardinality,
//! membership), so a u64 bitset answers them in `O(N/64)` words: one bit per
//! training window, 64 windows per word.

/// A fixed-length set of window indices, one bit per window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchBitset {
    words: Vec<u64>,
    len: usize,
}

impl MatchBitset {
    /// Empty set over a universe of `len` windows.
    pub fn new(len: usize) -> MatchBitset {
        MatchBitset {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Build from explicit member indices.
    ///
    /// # Panics
    /// Panics when an index is out of bounds.
    #[cfg(test)]
    fn from_indices(len: usize, indices: &[usize]) -> MatchBitset {
        let mut set = MatchBitset::new(len);
        for &i in indices {
            set.set(i);
        }
        set
    }

    /// Universe size (number of windows, not members).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the universe itself is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert window `i`.
    ///
    /// # Panics
    /// Panics when `i` is out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of members — `O(N/64)` popcounts.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when every window in the universe is a member.
    pub fn all_set(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Union `other` into `self` — `O(N/64)`.
    ///
    /// # Panics
    /// Panics when the universes differ.
    pub fn union_with(&mut self, other: &MatchBitset) {
        assert_eq!(self.len, other.len, "bitset universe mismatch");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Remove every member — `O(N/64)`, no allocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Make every window a member (tail bits past the universe stay zero).
    pub fn fill_all(&mut self) {
        self.words.fill(u64::MAX);
        if let Some(last) = self.words.last_mut() {
            let tail = self.len % 64;
            if tail != 0 {
                *last = (1u64 << tail) - 1;
            }
        }
    }

    /// Overwrite `self` with `other`'s members, reusing the existing word
    /// buffer (unlike `clone`, no allocation).
    ///
    /// # Panics
    /// Panics when the universes differ.
    pub fn copy_from(&mut self, other: &MatchBitset) {
        assert_eq!(self.len, other.len, "bitset universe mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// Intersect `other` into `self` — `O(N/64)` word ANDs. Returns `false`
    /// when the intersection came out empty, so multi-way ANDs (per-gene
    /// match sets, most selective first) can stop as soon as the running
    /// result dies.
    ///
    /// # Panics
    /// Panics when the universes differ.
    pub fn intersect_with(&mut self, other: &MatchBitset) -> bool {
        assert_eq!(self.len, other.len, "bitset universe mismatch");
        let mut any = 0u64;
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
            any |= *w;
        }
        any != 0
    }

    /// True when every member of `self` is a member of `other` — `O(N/64)`.
    ///
    /// # Panics
    /// Panics when the universes differ.
    pub fn is_subset_of(&self, other: &MatchBitset) -> bool {
        assert_eq!(self.len, other.len, "bitset universe mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(s, o)| s & !o == 0)
    }

    /// Iterate the members in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        ones_in_words(&self.words, 0)
    }

    /// Materialize the members as a sorted index list.
    pub fn to_indices(&self) -> Vec<usize> {
        self.iter_ones().collect()
    }

    /// For every window *not yet* a member, evaluate `pred` and insert on
    /// `true`. Windows already present are never re-tested — this is the
    /// predictor-side coverage sweep, where each window only needs one
    /// matching rule across the whole rule set.
    pub(crate) fn set_where_unset(&mut self, mut pred: impl FnMut(usize) -> bool) {
        for wi in 0..self.words.len() {
            let base = wi * 64;
            let valid = if base + 64 <= self.len {
                u64::MAX
            } else {
                (1u64 << (self.len - base)) - 1
            };
            let mut zeros = !self.words[wi] & valid;
            while zeros != 0 {
                let bit = zeros.trailing_zeros() as usize;
                if pred(base + bit) {
                    self.words[wi] |= 1u64 << bit;
                }
                zeros &= zeros - 1;
            }
        }
    }

    /// Raw word view — the chunked accumulation kernel and checkpoint
    /// serialization ([`crate::checkpoint::EnsembleCheckpoint::covered_words`])
    /// read the universe as packed `u64`s.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable raw word view (for the columnar gene-bitset fill).
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }
}

/// Members encoded by `words`, ascending, where `words[0]` is word
/// `first_word` of the universe — one chunk's slice of [`MatchBitset::words`].
pub(crate) fn ones_in_words(words: &[u64], first_word: usize) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(move |(wi, &word)| {
        let base = (first_word + wi) * 64;
        std::iter::successors((word != 0).then_some(word), |w| {
            let next = w & (w - 1); // clear lowest set bit
            (next != 0).then_some(next)
        })
        .map(move |w| base + w.trailing_zeros() as usize)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_and_basic_membership() {
        let mut s = MatchBitset::new(130);
        assert_eq!(s.len(), 130);
        assert!(!s.is_empty());
        assert_eq!(s.count_ones(), 0);
        assert!(!s.contains(0));
        s.set(0);
        s.set(64);
        s.set(129);
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1) && !s.contains(63) && !s.contains(128));
        assert_eq!(s.count_ones(), 3);
        assert_eq!(s.to_indices(), vec![0, 64, 129]);
        assert!(MatchBitset::new(0).is_empty());
    }

    #[test]
    fn out_of_range_contains_is_false() {
        let s = MatchBitset::from_indices(10, &[9]);
        assert!(!s.contains(10));
        assert!(!s.contains(usize::MAX));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        MatchBitset::new(10).set(10);
    }

    #[test]
    fn union_and_subset() {
        let a = MatchBitset::from_indices(200, &[1, 65, 150]);
        let b = MatchBitset::from_indices(200, &[1, 70]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.to_indices(), vec![1, 65, 70, 150]);
        assert!(a.is_subset_of(&u));
        assert!(b.is_subset_of(&u));
        assert!(!u.is_subset_of(&a));
        assert!(MatchBitset::new(200).is_subset_of(&a));
    }

    #[test]
    fn clear_copy_and_fill_all() {
        let mut s = MatchBitset::from_indices(130, &[0, 64, 129]);
        s.clear();
        assert_eq!(s.count_ones(), 0);
        s.fill_all();
        assert!(s.all_set());
        assert_eq!(s.count_ones(), 130);
        let src = MatchBitset::from_indices(130, &[5, 70]);
        s.copy_from(&src);
        assert_eq!(s, src);
        // Word-aligned universe: fill_all must not overshoot.
        let mut t = MatchBitset::new(128);
        t.fill_all();
        assert_eq!(t.count_ones(), 128);
    }

    #[test]
    fn intersect_with_reports_emptiness() {
        let mut a = MatchBitset::from_indices(200, &[1, 65, 150]);
        let b = MatchBitset::from_indices(200, &[65, 150, 199]);
        assert!(a.intersect_with(&b));
        assert_eq!(a.to_indices(), vec![65, 150]);
        let disjoint = MatchBitset::from_indices(200, &[0, 2]);
        assert!(!a.intersect_with(&disjoint));
        assert_eq!(a.count_ones(), 0);
    }

    #[test]
    fn all_set_detects_full_universe() {
        let mut s = MatchBitset::new(70);
        assert!(!s.all_set());
        for i in 0..70 {
            s.set(i);
        }
        assert!(s.all_set());
        assert_eq!(s.count_ones(), 70);
    }

    #[test]
    fn set_where_unset_skips_members() {
        let mut s = MatchBitset::from_indices(100, &[3, 64]);
        let mut tested = Vec::new();
        s.set_where_unset(|i| {
            tested.push(i);
            i % 10 == 0
        });
        assert!(!tested.contains(&3), "member 3 must not be re-tested");
        assert!(!tested.contains(&64), "member 64 must not be re-tested");
        assert_eq!(tested.len(), 98);
        assert_eq!(
            s.to_indices(),
            vec![0, 3, 10, 20, 30, 40, 50, 60, 64, 70, 80, 90]
        );
    }

    #[test]
    fn set_where_unset_respects_partial_last_word() {
        let mut s = MatchBitset::new(5);
        let mut tested = Vec::new();
        s.set_where_unset(|i| {
            tested.push(i);
            true
        });
        assert_eq!(tested, vec![0, 1, 2, 3, 4]);
        assert!(s.all_set());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn agrees_with_index_vector_model(
            len in 1usize..300,
            picks in proptest::collection::vec(0usize..300, 0..40),
        ) {
            let members: Vec<usize> = {
                let mut m: Vec<usize> = picks.iter().map(|&p| p % len).collect();
                m.sort_unstable();
                m.dedup();
                m
            };
            let s = MatchBitset::from_indices(len, &members);
            prop_assert_eq!(s.count_ones(), members.len());
            prop_assert_eq!(s.to_indices(), members.clone());
            for i in 0..len {
                prop_assert_eq!(s.contains(i), members.binary_search(&i).is_ok());
            }
            prop_assert_eq!(s.all_set(), members.len() == len);
        }
    }
}
