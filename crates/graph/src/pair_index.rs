//! A pair → row index with one run of entries per `lo` user.

use seeker_trace::{merge_sorted_by_key, UserId, UserPair};

/// Maps the pairs of a pair list to rows.
///
/// The entries are sorted by pair, so the pairs sharing a `lo` user form
/// one run, and `offsets[u]..offsets[u + 1]` is the run of user `u`. A
/// lookup binary-searches one user's run (14 entries on average over the
/// 3k-user benchmark world's 42k candidate pairs), not the whole list.
///
/// ```
/// use seeker_graph::PairIndex;
/// use seeker_trace::{UserId, UserPair};
///
/// let pair = |a, b| UserPair::new(UserId::new(a), UserId::new(b));
/// let index = PairIndex::new(&[pair(2, 5), pair(0, 1), pair(0, 4)]);
/// assert_eq!(index.get(pair(0, 4)), Some(2));
/// assert_eq!(index.get(pair(1, 4)), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairIndex {
    /// `(pair, row)`, sorted by pair.
    entries: Vec<(UserPair, usize)>,
    /// `offsets[u]` is the first entry whose `lo` is at least `u`, for
    /// every `u` up to one past the largest `lo`.
    offsets: Vec<usize>,
}

impl PairIndex {
    /// Indexes `pairs`: `pairs[i]` maps to row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` holds a pair twice.
    pub fn new(pairs: &[UserPair]) -> PairIndex {
        PairIndex::from_entries(pairs.iter().copied().zip(0..).collect())
    }

    /// Indexes `(pair, row)` entries in any order. Sorting is linear on
    /// entries already sorted by pair.
    ///
    /// # Panics
    ///
    /// Panics if two entries share a pair.
    pub fn from_entries(mut entries: Vec<(UserPair, usize)>) -> PairIndex {
        entries.sort_unstable();
        for w in entries.windows(2) {
            assert!(w[0].0 != w[1].0, "duplicate pair {} in pair index", w[1].0);
        }
        let runs = entries.last().map_or(0, |(p, _)| p.lo().index() + 1);
        let mut offsets = vec![0usize; runs + 1];
        for (p, _) in &entries {
            offsets[p.lo().index() + 1] += 1;
        }
        for u in 0..runs {
            offsets[u + 1] += offsets[u];
        }
        PairIndex { entries, offsets }
    }

    /// Adds `(pair, row)` entries in place. `new` must be sorted by pair
    /// and hold no pair the index holds. The entries merge in from the back,
    /// so only the entries after the first new pair move, and only the run
    /// offsets after its `lo` user change.
    ///
    /// # Panics
    ///
    /// Panics if `new` is not sorted by pair or shares a pair with the
    /// index.
    pub fn insert(&mut self, new: &[(UserPair, usize)]) {
        let Some(&(first, _)) = new.first() else { return };
        assert!(new.is_sorted_by(|a, b| a.0 < b.0), "inserted pairs must be sorted");
        for &(pair, _) in new {
            assert!(self.get(pair).is_none(), "duplicate pair {pair} in pair index");
        }
        let old_len = self.entries.len();
        merge_sorted_by_key(&mut self.entries, new, |&(pair, _)| pair);
        // Runs past the old last one start at the old end; every offset
        // after `first`'s run moves by the new entries before it.
        let runs = self.entries.last().map_or(0, |(p, _)| p.lo().index() + 1);
        self.offsets.resize(runs + 1, old_len);
        let mut before = new.iter().peekable();
        let mut moved = 0usize;
        for u in first.lo().index() + 1..=runs {
            while before.next_if(|(p, _)| p.lo().index() < u).is_some() {
                moved += 1;
            }
            self.offsets[u] += moved;
        }
    }

    /// The row of `pair`, if it is indexed.
    #[inline]
    pub fn get(&self, pair: UserPair) -> Option<usize> {
        let run = self.run(pair.lo());
        run.binary_search_by_key(&pair.hi(), |(p, _)| p.hi()).ok().map(|i| run[i].1)
    }

    /// The entries whose pair has `lo` user `u`, sorted by pair.
    #[inline]
    pub fn run(&self, u: UserId) -> &[(UserPair, usize)] {
        match (self.offsets.get(u.index()), self.offsets.get(u.index() + 1)) {
            (Some(&start), Some(&end)) => &self.entries[start..end],
            _ => &[],
        }
    }

    /// Every `(pair, row)` entry, sorted by pair.
    pub fn entries(&self) -> &[(UserPair, usize)] {
        &self.entries
    }

    /// Number of indexed pairs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no pair is indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pair(a: u32, b: u32) -> UserPair {
        UserPair::new(UserId::new(a), UserId::new(b))
    }

    /// The row a linear search over the pair list finds.
    fn linear(pairs: &[UserPair], p: UserPair) -> Option<usize> {
        pairs.iter().position(|&q| q == p)
    }

    #[test]
    fn lookups_match_a_linear_search() {
        // Unsorted, with empty runs for users 0, 2 and 4..6 and the last
        // run at user 7.
        let pairs = vec![pair(3, 9), pair(1, 2), pair(7, 8), pair(3, 4), pair(1, 9), pair(3, 5)];
        let index = PairIndex::new(&pairs);
        assert_eq!(index.len(), pairs.len());
        for &p in &pairs {
            assert_eq!(index.get(p), linear(&pairs, p), "{p}");
        }
        // Absent pairs whose `lo` lies before the first run, in an empty
        // run, inside a run (the last one too), and past the last run.
        let absent = [(0, 1), (0, 9), (2, 3), (1, 3), (3, 6), (3, 10), (7, 9), (8, 9), (20, 30)];
        for (a, b) in absent {
            assert_eq!(index.get(pair(a, b)), None, "{}", pair(a, b));
        }
    }

    #[test]
    fn entries_are_sorted_and_keep_their_rows() {
        let pairs = vec![pair(3, 9), pair(1, 2), pair(0, 5)];
        let index = PairIndex::new(&pairs);
        assert_eq!(index.entries(), &[(pair(0, 5), 2), (pair(1, 2), 1), (pair(3, 9), 0)]);
        let rebuilt = PairIndex::from_entries(index.entries().to_vec());
        assert_eq!(rebuilt, index);
    }

    #[test]
    fn empty_index_finds_nothing() {
        let index = PairIndex::new(&[]);
        assert!(index.is_empty());
        assert_eq!(index.get(pair(0, 1)), None);
    }

    #[test]
    fn runs_hold_each_lo_users_entries() {
        let index = PairIndex::new(&[pair(3, 9), pair(1, 2), pair(3, 4)]);
        assert_eq!(index.run(UserId::new(3)), &[(pair(3, 4), 2), (pair(3, 9), 0)]);
        for u in [0, 2, 4, 100] {
            assert!(index.run(UserId::new(u)).is_empty(), "u{u}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Inserting in place equals indexing the union, lookups and runs
        /// included, whether the new pairs land before, inside or past the
        /// old runs.
        #[test]
        fn insert_equals_rebuild(
            raw in proptest::collection::vec((0u32..12, 0u32..12), 0..40),
            split in proptest::collection::vec(any::<bool>(), 40),
        ) {
            let pairs: Vec<UserPair> = raw
                .into_iter()
                .filter(|(a, b)| a != b)
                .map(|(a, b)| pair(a, b))
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            let (mut old, mut new) = (Vec::new(), Vec::new());
            for (row, (&p, &late)) in pairs.iter().zip(&split).enumerate() {
                if late { new.push((p, row)) } else { old.push((p, row)) }
            }
            let mut index = PairIndex::from_entries(old.clone());
            index.insert(&new);
            old.extend_from_slice(&new);
            prop_assert_eq!(&index, &PairIndex::from_entries(old));
        }
    }

    #[test]
    #[should_panic(expected = "duplicate pair")]
    fn insert_rejects_an_indexed_pair() {
        let mut index = PairIndex::new(&[pair(0, 1), pair(2, 3)]);
        index.insert(&[(pair(1, 2), 2), (pair(2, 3), 3)]);
    }

    #[test]
    #[should_panic(expected = "duplicate pair")]
    fn duplicates_are_rejected() {
        let _ = PairIndex::new(&[pair(0, 1), pair(2, 3), pair(1, 0)]);
    }
}
