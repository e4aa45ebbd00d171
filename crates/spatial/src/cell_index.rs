//! Inverted STD cell index and co-occurrence candidate-pair generation.
//!
//! The inference stage of the attack must decide every user pair of the
//! target dataset (Definition 7), but materializing and scoring all
//! `n·(n−1)/2` pairs is a hard wall long before production scale. The
//! empirical studies behind the attack (walk2friends; the co-location
//! modeling literature) show that pairs who never share a spatial-temporal
//! cell carry essentially no direct co-occurrence signal: their JOC has
//! `n_ab = 0` in every cell. [`CellIndex`] inverts the STD — cell → the
//! sorted set of users checking in there — so the pairs sharing at least
//! one cell (the *candidate pairs*) can be enumerated in time proportional
//! to the co-occupancy structure instead of the pair universe. The
//! complement (the *residue class*) is counted, never materialized; the
//! attack layer scores it once through a cached zero-feature prediction so
//! no pair is silently dropped.

use std::collections::{BTreeMap, BTreeSet};

use seeker_trace::{CheckIn, Dataset, UserId, UserPair};

use crate::std_division::SpatialTemporalDivision;

/// An inverted index over the STD: for every occupied cell, the sorted set
/// of users with at least one check-in mapping to it.
///
/// Only occupied cells are stored — the index is sized by the data, not by
/// `I × J`.
///
/// ```
/// use seeker_spatial::{CellIndex, SpatialTemporalDivision};
/// use seeker_trace::synth::{generate, SyntheticConfig};
///
/// let ds = generate(&SyntheticConfig::small(1))?.dataset;
/// let std = SpatialTemporalDivision::build(&ds, 40, 7.0)?;
/// let index = CellIndex::build(&ds, &std);
/// let candidates = index.candidate_pairs();
/// assert!(!candidates.is_empty());
/// assert!(candidates.len() < ds.n_users() * (ds.n_users() - 1) / 2);
/// # Ok::<(), seeker_trace::TraceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CellIndex {
    /// `(flat cell index, sorted distinct users)`, sorted by cell.
    cells: Vec<(usize, Vec<UserId>)>,
}

impl CellIndex {
    /// Builds the inverted index of `ds` over `division`.
    ///
    /// Check-ins falling outside the division (possible when a target
    /// dataset is cast into a division built on training data, or after
    /// obfuscation) are skipped — exactly as JOC construction skips them.
    pub fn build(ds: &Dataset, division: &SpatialTemporalDivision) -> Self {
        let _span = seeker_obs::span!("spatial.cell_index.build");
        let mut map: BTreeMap<usize, BTreeSet<UserId>> = BTreeMap::new();
        for c in ds.checkins() {
            if let Some((grid, slot)) = division.cell_of(c) {
                map.entry(division.flat_index(grid, slot)).or_default().insert(c.user);
            }
        }
        let cells: Vec<(usize, Vec<UserId>)> =
            map.into_iter().map(|(cell, users)| (cell, users.into_iter().collect())).collect();
        seeker_obs::counter!("spatial.cell_index.cells", cells.len() as u64);
        CellIndex { cells }
    }

    /// Applies a batch of appended check-ins to the index, in place.
    ///
    /// After `apply`, the index equals [`CellIndex::build`] over the
    /// appended dataset: each in-division check-in inserts its `(cell,
    /// user)` incidence, keeping cells and per-cell user lists sorted and
    /// distinct. Out-of-division check-ins are skipped, exactly as at build
    /// time.
    ///
    /// Returns the pairs newly co-located in a dirtied cell, sorted and
    /// deduplicated: for every user newly entering a cell, that user paired
    /// with every user already (or simultaneously) present there. This is a
    /// *superset* of the pairs genuinely new to the candidate universe — a
    /// returned pair may already share some other cell — so callers
    /// maintaining a candidate list filter against it.
    pub fn apply(
        &mut self,
        division: &SpatialTemporalDivision,
        batch: &[CheckIn],
    ) -> Vec<UserPair> {
        let _span = seeker_obs::span!("spatial.cell_index.apply");
        let mut fresh = Vec::new();
        for c in batch {
            let Some((grid, slot)) = division.cell_of(c) else { continue };
            let flat = division.flat_index(grid, slot);
            let cell_pos = match self.cells.binary_search_by_key(&flat, |&(f, _)| f) {
                Ok(i) => i,
                Err(i) => {
                    // Runs once per *newly occupied* cell, not per check-in;
                    // steady-state batches hit the binary-search Ok arm and
                    // never allocate here.
                    // lint:allow(hot-alloc) -- amortized: once per new cell
                    self.cells.insert(i, (flat, Vec::new()));
                    i
                }
            };
            let users = &mut self.cells[cell_pos].1;
            if let Err(user_pos) = users.binary_search(&c.user) {
                for &other in users.iter() {
                    fresh.push(UserPair::new(other, c.user));
                }
                users.insert(user_pos, c.user);
            }
        }
        fresh.sort_unstable();
        fresh.dedup();
        seeker_obs::counter!("spatial.cell_index.applied_pairs", fresh.len() as u64);
        fresh
    }

    /// Number of occupied cells in the index.
    pub fn n_cells(&self) -> usize {
        self.cells.len()
    }

    /// The sorted users of a flat cell index (empty when unoccupied).
    pub fn users_in(&self, flat_cell: usize) -> &[UserId] {
        self.cells
            .binary_search_by_key(&flat_cell, |&(c, _)| c)
            .map(|i| self.cells[i].1.as_slice())
            .unwrap_or(&[])
    }

    /// Iterator over `(flat cell index, sorted users)` in cell order.
    pub fn cells(&self) -> impl Iterator<Item = (usize, &[UserId])> {
        self.cells.iter().map(|(c, users)| (*c, users.as_slice()))
    }

    /// All user pairs sharing at least one cell, in canonical order without
    /// duplicates — the co-occurrence candidate universe.
    ///
    /// Per-cell pair enumeration fans out across the `seeker-par` workers
    /// (each cell's pair list depends only on that cell); the merge is a
    /// deterministic sort + dedup, so the output is identical for any
    /// worker count.
    pub fn candidate_pairs(&self) -> Vec<UserPair> {
        let _span = seeker_obs::span!("spatial.cell_index.candidates");
        let per_cell: Vec<Vec<UserPair>> =
            seeker_par::par_map_cost(&self.cells, seeker_par::Cost::Medium, |(_, users)| {
                let mut out = Vec::with_capacity(users.len().saturating_sub(1) * users.len() / 2);
                for (i, &a) in users.iter().enumerate() {
                    for &b in &users[i + 1..] {
                        out.push(UserPair::new(a, b));
                    }
                }
                out
            });
        let mut pairs: Vec<UserPair> = per_cell.into_iter().flatten().collect();
        pairs.sort_unstable();
        pairs.dedup();
        seeker_obs::counter!("spatial.cell_index.candidate_pairs", pairs.len() as u64);
        pairs
    }

    /// [`CellIndex::candidate_pairs`] computed shard-by-shard over a range
    /// partition of the occupied-cell list, without ever materializing the
    /// duplicated per-cell pair lists.
    ///
    /// Each pair sharing ≥ 1 cell is *owned* by exactly one cell — the first
    /// common entry of the two users' sorted occupied-cell lists — and a
    /// shard emits a pair only from its owning cell. The shard outputs are
    /// therefore disjoint, their union is exactly the sharing pairs, and one
    /// deterministic sort of the concatenation reproduces the reference
    /// output for **any** shard count and worker count. Peak memory is the
    /// candidate set itself plus the `O(incidences)` per-user transpose,
    /// instead of the reference's duplicated per-cell enumeration.
    pub fn candidate_pairs_sharded(&self, n_shards: usize) -> Vec<UserPair> {
        let _span = seeker_obs::span!("spatial.shard.candidates");
        // Transpose: user → ascending positions into `self.cells`. Scanning
        // cells in position order pushes positions in ascending order.
        let n_users = self
            .cells
            .iter()
            .flat_map(|(_, users)| users.iter())
            .map(|u| u.index() + 1)
            .max()
            .unwrap_or(0);
        let mut positions: Vec<Vec<u32>> = vec![Vec::new(); n_users];
        for (pos, (_, users)) in self.cells.iter().enumerate() {
            for u in users {
                positions[u.index()].push(pos as u32);
            }
        }
        // First common element of two ascending position lists == `c`?
        // Both lists contain `c`, so the merge always terminates by `c`.
        let owns = |pa: &[u32], pb: &[u32], c: u32| -> bool {
            let (mut i, mut j) = (0usize, 0usize);
            loop {
                let (a, b) = (pa[i], pb[j]);
                if a == b {
                    return a == c;
                }
                if a < b {
                    i += 1;
                } else {
                    j += 1;
                }
            }
        };
        let ranges = crate::shard_ranges(self.cells.len(), n_shards);
        seeker_obs::gauge!("spatial.shard.count", ranges.len());
        let per_shard: Vec<Vec<UserPair>> =
            seeker_par::par_map_cost(&ranges, seeker_par::Cost::Heavy, |range| {
                let mut out = Vec::new();
                for c in range.clone() {
                    let users = &self.cells[c].1;
                    for (i, &a) in users.iter().enumerate() {
                        for &b in &users[i + 1..] {
                            if owns(&positions[a.index()], &positions[b.index()], c as u32) {
                                out.push(UserPair::new(a, b));
                            }
                        }
                    }
                }
                out
            });
        let mut pairs: Vec<UserPair> = per_shard.into_iter().flatten().collect();
        pairs.sort_unstable();
        debug_assert!(
            pairs.windows(2).all(|w| w[0] < w[1]),
            "cell ownership must emit every pair exactly once"
        );
        seeker_obs::counter!("spatial.shard.candidate_pairs", pairs.len() as u64);
        pairs
    }
}

/// The pairs of users of `ds` sharing at least one cell of `division` — the
/// co-occurrence candidate universe, in canonical order without duplicates.
///
/// Every pair *not* in the returned list has `n_ab = 0` in every cell of
/// its JOC (the two trajectories never co-occupy a cell).
pub fn candidate_pairs(ds: &Dataset, division: &SpatialTemporalDivision) -> Vec<UserPair> {
    CellIndex::build(ds, division).candidate_pairs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seeker_trace::synth::{generate, SyntheticConfig};
    use seeker_trace::{DatasetBuilder, GeoPoint, Timestamp};

    fn fixture() -> (Dataset, SpatialTemporalDivision) {
        let ds = generate(&SyntheticConfig::small(17)).unwrap().dataset;
        let std = SpatialTemporalDivision::build(&ds, 40, 7.0).unwrap();
        (ds, std)
    }

    /// Ground truth by definition: the per-user sets of occupied cells.
    fn user_cells(ds: &Dataset, division: &SpatialTemporalDivision) -> Vec<BTreeSet<usize>> {
        let mut cells = vec![BTreeSet::new(); ds.n_users()];
        for c in ds.checkins() {
            if let Some((g, s)) = division.cell_of(c) {
                cells[c.user.index()].insert(division.flat_index(g, s));
            }
        }
        cells
    }

    #[test]
    fn index_matches_per_user_cells() {
        let (ds, std) = fixture();
        let index = CellIndex::build(&ds, &std);
        let cells = user_cells(&ds, &std);
        for (flat, users) in index.cells() {
            assert!(users.windows(2).all(|w| w[0] < w[1]), "users sorted and distinct");
            for &u in users {
                assert!(cells[u.index()].contains(&flat));
            }
        }
        // Every (user, cell) incidence is indexed.
        for (u, set) in cells.iter().enumerate() {
            for &flat in set {
                assert!(
                    index
                        .users_in(flat)
                        .binary_search(&seeker_trace::UserId::new(u as u32))
                        .is_ok(),
                    "user {u} missing from cell {flat}"
                );
            }
        }
        assert_eq!(index.users_in(usize::MAX), &[] as &[UserId]);
    }

    #[test]
    fn candidates_are_exactly_the_cell_sharing_pairs() {
        let (ds, std) = fixture();
        let candidates = candidate_pairs(&ds, &std);
        assert!(candidates.windows(2).all(|w| w[0] < w[1]), "sorted, no dupes");
        let cells = user_cells(&ds, &std);
        let candidate_set: BTreeSet<UserPair> = candidates.iter().copied().collect();
        let n = ds.n_users() as u32;
        for a in 0..n {
            for b in (a + 1)..n {
                let share = cells[a as usize].intersection(&cells[b as usize]).next().is_some();
                let pair = UserPair::new(UserId::new(a), UserId::new(b));
                assert_eq!(candidate_set.contains(&pair), share, "pair {pair}");
            }
        }
    }

    #[test]
    fn candidates_prune_the_universe() {
        let (ds, std) = fixture();
        let candidates = candidate_pairs(&ds, &std);
        let n = ds.n_users();
        assert!(!candidates.is_empty());
        assert!(candidates.len() < n * (n - 1) / 2, "co-occurrence must prune something");
    }

    #[test]
    fn sharded_candidates_match_reference_for_all_shard_counts() {
        let (ds, std) = fixture();
        let index = CellIndex::build(&ds, &std);
        let reference = index.candidate_pairs();
        for n_shards in [1usize, 2, 7, 64, 1000] {
            let sharded = index.candidate_pairs_sharded(n_shards);
            assert_eq!(sharded, reference, "shard count {n_shards}");
        }
    }

    #[test]
    fn apply_equals_rebuild() {
        let (ds, std) = fixture();
        // Split the check-ins: index the prefix, apply the suffix as a batch.
        let all = ds.checkins().to_vec();
        for split in [0usize, 1, all.len() / 3, all.len() - 1, all.len()] {
            let prefix = ds.with_checkins(all[..split].to_vec()).unwrap();
            let mut index = CellIndex::build(&prefix, &std);
            let before: BTreeSet<UserPair> = index.candidate_pairs().into_iter().collect();
            let fresh = index.apply(&std, &all[split..]);
            let full = CellIndex::build(&ds, &std);
            assert_eq!(index.n_cells(), full.n_cells(), "split {split}");
            for ((ca, ua), (cb, ub)) in index.cells().zip(full.cells()) {
                assert_eq!((ca, ua), (cb, ub), "split {split}");
            }
            // Fresh pairs are sorted, distinct, and cover every pair that is
            // a candidate after but not before.
            assert!(fresh.windows(2).all(|w| w[0] < w[1]), "split {split}");
            let after: BTreeSet<UserPair> = index.candidate_pairs().into_iter().collect();
            let fresh_set: BTreeSet<UserPair> = fresh.iter().copied().collect();
            for pair in after.difference(&before) {
                assert!(fresh_set.contains(pair), "split {split}: {pair} missed");
            }
            // And every fresh pair is a candidate afterwards.
            assert!(fresh_set.is_subset(&after), "split {split}");
        }
    }

    #[test]
    fn apply_skips_out_of_division_checkins() {
        let (ds, std) = fixture();
        let mut index = CellIndex::build(&ds, &std);
        let n_before = index.n_cells();
        let late = Timestamp::from_secs(std.slots().end().as_secs() + 86_400);
        let c = ds.checkins()[0];
        let fresh = index.apply(&std, &[seeker_trace::CheckIn::new(c.user, c.poi, late)]);
        assert!(fresh.is_empty());
        assert_eq!(index.n_cells(), n_before);
    }

    #[test]
    fn empty_dataset_has_no_candidates() {
        // A division needs data, so borrow one from a real dataset and
        // index a user-disjoint empty-ish dataset against it.
        let (ds, std) = fixture();
        let mut b = DatasetBuilder::new("lonely");
        let p = b.add_poi(GeoPoint::new(0.0, 0.0), 1.0);
        b.add_checkin(7, p, Timestamp::from_secs(10));
        b.add_checkin(7, p, Timestamp::from_secs(20));
        let lonely = b.build().unwrap();
        let index = CellIndex::build(&lonely, &std);
        assert!(index.candidate_pairs().is_empty(), "one user cannot form a pair");
        drop(ds);
    }

    #[test]
    fn two_users_one_shared_cell() {
        let mut b = DatasetBuilder::new("pairworld");
        let p0 = b.add_poi(GeoPoint::new(0.0, 0.0), 1.0);
        let p1 = b.add_poi(GeoPoint::new(10.0, 10.0), 1.0);
        // Users 0 and 1 share p0 at the same time; user 2 is far away.
        b.add_checkin(0, p0, Timestamp::from_secs(100));
        b.add_checkin(0, p0, Timestamp::from_secs(200));
        b.add_checkin(1, p0, Timestamp::from_secs(150));
        b.add_checkin(1, p0, Timestamp::from_secs(250));
        b.add_checkin(2, p1, Timestamp::from_secs(100));
        b.add_checkin(2, p1, Timestamp::from_secs(200));
        let ds = b.build().unwrap();
        let std = SpatialTemporalDivision::build(&ds, 1, 7.0).unwrap();
        let candidates = candidate_pairs(&ds, &std);
        assert_eq!(candidates, vec![UserPair::new(UserId::new(0), UserId::new(1))]);
    }
}
