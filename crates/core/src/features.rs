//! Social-proximity feature extraction (§III-C-2).
//!
//! For a pair `(a, b)` and the current social graph, the k-hop reachable
//! subgraph is embedded as follows: every edge `e = (i, j)` on a collected
//! path carries the presence-proximity feature `h_(i,j)` learned in phase 1;
//! the edge vectors of all paths of the same length are summed into one
//! `d`-block, and the blocks of lengths `2..=k` are concatenated. The
//! composite feature `v = h_(a,b) ⊕ s_(a,b)` is what classifier `C'` sees.

use seeker_graph::{EdgeRows, KHopSubgraph, PairIndex, PathWalker, SocialGraph};
use seeker_nn::Matrix;
use seeker_trace::{Dataset, UserId, UserPair};

use crate::phase1::{Phase1Model, ENCODE_BLOCK};

/// Precomputed presence-proximity features for a pair universe.
///
/// Phase 2 needs `h` for every edge that can appear on a path, and every
/// such edge is a member of the pair universe the graph was predicted from,
/// so one encoding pass per inference serves `G⁰` and every iteration.
/// The rows are kept as the [`Phase1Model`]'s encoding blocks of at most
/// 16,384 rows each, not as one universe-sized matrix.
///
/// Rows are addressed by *slot*: a built store's slot `i` is the `i`-th
/// pair it was built over, and a pair an incremental session adds later
/// (`FeatureStore::update`) takes the next free slot, so no row ever
/// moves. Refinement numbers its rows by slot. The store keeps no slot →
/// pair list: its caller already holds one (the pairs it was built over,
/// or a session's slot list).
#[derive(Debug, Clone)]
pub struct FeatureStore {
    // Pair → slot. A lookup searches the run of the pair's `lo` user, not
    // the whole universe. A hash index would iterate in a nondeterministic
    // order (no-hash-iter). The frozen scorer resolves each graph edge's
    // row through it once per scored graph (`EdgeRows`), not once per path
    // edge.
    index: PairIndex,
    // Row `r` is row `r % ENCODE_BLOCK` of block `r / ENCODE_BLOCK`; every
    // block but the last is full.
    blocks: Vec<Matrix>,
}

impl FeatureStore {
    /// Encodes all `pairs` on `ds` through the phase-1 encoder; slot `i`
    /// is `pairs[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty or contains duplicates.
    pub fn build(model: &Phase1Model, ds: &Dataset, pairs: &[UserPair]) -> Self {
        let _span = seeker_obs::span!("core.features.build");
        FeatureStore { index: PairIndex::new(pairs), blocks: model.feature_blocks(ds, pairs) }
    }

    /// A store over at most [`ENCODE_BLOCK`] distinct `pairs` whose row `i`
    /// is row `i` of `rows`, for tests that need no trained encoder.
    #[cfg(test)]
    pub(crate) fn from_rows(pairs: &[UserPair], rows: Matrix) -> FeatureStore {
        assert!(pairs.len() == rows.rows() && pairs.len() <= ENCODE_BLOCK);
        FeatureStore { index: PairIndex::new(pairs), blocks: vec![rows] }
    }

    /// The feature dimension `d`.
    pub fn dim(&self) -> usize {
        self.blocks.first().map_or(0, Matrix::cols)
    }

    /// Number of stored pairs.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store is empty (never true for a built store).
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The presence feature of `pair`, if it is part of the universe.
    pub fn get(&self, pair: UserPair) -> Option<&[f32]> {
        self.index.get(pair).map(|r| self.row(r))
    }

    /// Row `r` of the store.
    pub(crate) fn row(&self, r: usize) -> &[f32] {
        self.blocks[r / ENCODE_BLOCK].row(r % ENCODE_BLOCK)
    }

    /// The pair → slot index of the store.
    pub(crate) fn index(&self) -> &PairIndex {
        &self.index
    }

    /// Classifier `C`'s friend probability of every row, in slot order,
    /// classified block by block from the stored rows: for a built store,
    /// the [`Phase1Model::predict_proba`] of its pairs, with no pair
    /// encoded twice.
    pub(crate) fn predict_proba(&self, model: &Phase1Model) -> Vec<f64> {
        let _span = seeker_obs::span!("phase1.classify");
        let mut out = Vec::with_capacity(self.len());
        for block in &self.blocks {
            out.extend(model.predict_proba_encoded(block));
        }
        out
    }

    /// Brings the store up to date with a grown dataset `ds`, in place.
    /// `slots` is the slot → pair list of the grown store: the stored
    /// pairs, then the pairs to add (sorted, none stored yet), which take
    /// the next free slots. The `dirty` rows (sorted slots, every added one
    /// among them) are re-encoded and overwritten. Returns classifier `C`'s
    /// friend probability of each `dirty` row, classified from its fresh
    /// encoding.
    ///
    /// A row the update does not touch keeps its bits; a touched one gets
    /// exactly what [`FeatureStore::build`] would encode, because `h` is a
    /// pure per-pair function of the model and dataset and encoding a row
    /// does not depend on its batch.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is shorter than the store, if its added pairs are
    /// unsorted or hold a stored pair, or if `dirty` is empty or names a
    /// slot past `slots`.
    pub(crate) fn update(
        &mut self,
        model: &Phase1Model,
        ds: &Dataset,
        slots: &[UserPair],
        dirty: &[usize],
    ) -> Vec<f64> {
        let first = self.len();
        let added: Vec<(UserPair, usize)> = slots[first..].iter().copied().zip(first..).collect();
        self.index.insert(&added);
        let dirty_pairs: Vec<UserPair> = dirty.iter().map(|&r| slots[r]).collect();
        let fresh = {
            let _span = seeker_obs::span!("core.features.build");
            model.feature_blocks(ds, &dirty_pairs)
        };
        let fresh_rows = fresh.iter().flat_map(|block| (0..block.rows()).map(|i| block.row(i)));
        for (&r, row) in dirty.iter().zip(fresh_rows) {
            if r < first {
                self.blocks[r / ENCODE_BLOCK].row_mut(r % ENCODE_BLOCK).copy_from_slice(row);
            } else {
                debug_assert_eq!(r, self.blocks.iter().map(Matrix::rows).sum::<usize>());
                match self.blocks.last_mut() {
                    Some(block) if block.rows() < ENCODE_BLOCK => block.append_rows(row),
                    _ => self.blocks.push(Matrix::from_vec(1, row.len(), row.to_vec())),
                }
            }
        }
        let _span = seeker_obs::span!("phase1.classify");
        let mut proba = Vec::with_capacity(dirty.len());
        for block in &fresh {
            proba.extend(model.predict_proba_encoded(block));
        }
        proba
    }
}

/// Embeds a k-hop reachable subgraph into the social-proximity feature
/// `s ∈ R^{(k−1)·d}`: per path length `l ∈ [2, k]`, the sum of the presence
/// features of all edges on all length-`l` paths.
///
/// Edges missing from `store` contribute nothing (they cannot occur when the
/// graph was built from the store's pair universe, but obfuscated or foreign
/// graphs are tolerated).
pub fn social_proximity_feature(sub: &KHopSubgraph, k: usize, store: &FeatureStore) -> Vec<f32> {
    let d = store.dim();
    let mut out = vec![0.0f32; (k - 1) * d];
    for (l, paths) in sub.groups() {
        debug_assert!(l >= 2 && l <= k);
        let block = &mut out[(l - 2) * d..(l - 1) * d];
        for path in paths {
            add_path_rows(block, path, store);
        }
    }
    out
}

/// Adds the presence feature of every edge of `path` into `block`, edge by
/// edge in path order; an edge missing from `store` adds nothing.
fn add_path_rows(block: &mut [f32], path: &[UserId], store: &FeatureStore) {
    for w in path.windows(2) {
        if let Some(f) = store.get(UserPair::new(w[0], w[1])) {
            for (o, &x) in block.iter_mut().zip(f.iter()) {
                *o += x;
            }
        }
    }
}

/// Adds the store row of every entry of `rows`, in order, into `block`; an
/// [`EdgeRows::MISSING`] slot adds nothing.
fn add_edge_rows(block: &mut [f32], rows: &[u32], store: &FeatureStore) {
    for &r in rows {
        if r == EdgeRows::MISSING {
            continue;
        }
        if let Ok(r) = usize::try_from(r) {
            for (o, &x) in block.iter_mut().zip(store.row(r)) {
                *o += x;
            }
        }
    }
}

/// The composite feature `v = h ⊕ s` for one pair given the current graph,
/// equal bit for bit to its row of the frozen scorer's block writer,
/// `composite_rows`; each path edge's presence row is looked up in the
/// store.
///
/// # Panics
///
/// Panics if `pair` is outside the universe the [`FeatureStore`] was built
/// over — the store and the candidate pairs always come from the same
/// enumeration in phase 1/2, so this indicates a caller bug.
pub fn composite_feature(
    graph: &SocialGraph,
    pair: UserPair,
    k: usize,
    store: &FeatureStore,
) -> Vec<f32> {
    let d = store.dim();
    let mut v = vec![0.0f32; k * d];
    let (h, s) = v.split_at_mut(d);
    // lint:allow(no-panic) -- documented contract, see above
    h.copy_from_slice(store.get(pair).expect("pair must belong to the feature store universe"));
    PathWalker::new().visit_khop_paths(graph, pair, k, |l, path| {
        add_path_rows(&mut s[(l - 2) * d..(l - 1) * d], path, store);
    });
    v
}

/// Writes the composite feature of the `r`-th pair of `pairs` into row `r`
/// of `block`, a row-major block of `k · d`-float rows, walking every
/// pair's k-hop paths over the graph of `rows` with one [`PathWalker`]. `rows`
/// holds the store row of every edge of that graph (`EdgeRows::new` over
/// [`FeatureStore`]'s pair index), so each path's presence rows are added
/// straight into its length's `d`-block of the row with no lookup, and no
/// path or row is allocated.
///
/// Row `r` is bit-identical to `h ⊕` [`social_proximity_feature`] of
/// [`KHopSubgraph::extract`]: every element sums its paths in the
/// walker's order, which is the order `extract` stores them in, and each
/// path's edges in path order, starting from `0.0`.
///
/// # Panics
///
/// Panics if `block` does not hold exactly one row per pair, or if a pair
/// is outside the store's universe (see [`composite_feature`]).
pub(crate) fn composite_rows(
    rows: &EdgeRows<'_>,
    pairs: impl ExactSizeIterator<Item = UserPair>,
    k: usize,
    store: &FeatureStore,
    block: &mut [f32],
) {
    let d = store.dim();
    assert_eq!(block.len(), pairs.len() * k * d, "one composite row per pair");
    let mut walker = PathWalker::new();
    for (pair, row) in pairs.zip(block.chunks_exact_mut(k * d)) {
        let (h, s) = row.split_at_mut(d);
        // lint:allow(no-panic) -- documented contract, see `composite_feature`
        h.copy_from_slice(store.get(pair).expect("pair must belong to the feature store universe"));
        s.fill(0.0);
        walker.visit_khop_rows(rows, pair, k, |l, path_rows| {
            add_edge_rows(&mut s[(l - 2) * d..(l - 1) * d], path_rows, store);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FriendSeekerConfig;
    use crate::pairs::all_pairs;
    use crate::phase1::train_phase1;
    use seeker_trace::synth::{generate, SyntheticConfig};
    use seeker_trace::UserId;

    fn setup() -> &'static (Dataset, Phase1Model, Vec<UserPair>) {
        use std::sync::OnceLock;
        static CELL: OnceLock<(Dataset, Phase1Model, Vec<UserPair>)> = OnceLock::new();
        CELL.get_or_init(|| {
            let ds = generate(&SyntheticConfig::small(41)).unwrap().dataset;
            let cfg = FriendSeekerConfig::fast();
            let training = train_phase1(&cfg, &ds).unwrap();
            let pairs = all_pairs(&ds).unwrap();
            (ds, training.model, pairs)
        })
    }

    #[test]
    fn store_roundtrips_features() {
        let (ds, model, pairs) = setup();
        let store = FeatureStore::build(model, ds, pairs);
        assert_eq!(store.len(), pairs.len());
        assert!(!store.is_empty());
        assert_eq!(store.dim(), model.feature_dim());
        let direct = model.feature_of(ds, pairs[0]);
        assert_eq!(store.get(pairs[0]).unwrap(), direct.as_slice());
        // A pair outside the universe is absent.
        let n = ds.n_users() as u32;
        assert!(store.get(UserPair::new(UserId::new(0), UserId::new(n - 1))).is_some());
    }

    #[test]
    fn social_feature_zero_without_paths() {
        let (ds, model, pairs) = setup();
        let store = FeatureStore::build(model, ds, pairs);
        let empty_graph = SocialGraph::new(ds.n_users());
        let sub = KHopSubgraph::extract(&empty_graph, pairs[0], 3);
        let s = social_proximity_feature(&sub, 3, &store);
        assert_eq!(s.len(), 2 * store.dim());
        assert!(s.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn social_feature_sums_edge_vectors() {
        let (ds, model, pairs) = setup();
        let store = FeatureStore::build(model, ds, pairs);
        // Build a wedge a-c-b so the length-2 block equals h(a,c) + h(c,b).
        let (a, b, c) = (UserId::new(0), UserId::new(1), UserId::new(2));
        let mut g = SocialGraph::new(ds.n_users());
        g.add_edge(UserPair::new(a, c));
        g.add_edge(UserPair::new(c, b));
        let sub = KHopSubgraph::extract(&g, UserPair::new(a, b), 3);
        let s = social_proximity_feature(&sub, 3, &store);
        let d = store.dim();
        let ha = store.get(UserPair::new(a, c)).unwrap();
        let hb = store.get(UserPair::new(c, b)).unwrap();
        for i in 0..d {
            assert!((s[i] - (ha[i] + hb[i])).abs() < 1e-5, "dim {i}");
        }
        // No length-3 paths -> second block zero.
        assert!(s[d..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn composite_feature_concatenates() {
        let (ds, model, pairs) = setup();
        let store = FeatureStore::build(model, ds, pairs);
        let g = SocialGraph::new(ds.n_users());
        let v = composite_feature(&g, pairs[0], 3, &store);
        let d = store.dim();
        assert_eq!(v.len(), 3 * d);
        assert_eq!(&v[..d], store.get(pairs[0]).unwrap());
    }

    /// `base` updated in place: the `added` pairs (sorted) take the next
    /// slots, and `stale` old slots plus every added one are re-encoded.
    fn updated(
        model: &Phase1Model,
        ds: &Dataset,
        base: &[UserPair],
        added: &[UserPair],
        stale: &[usize],
    ) -> (FeatureStore, Vec<usize>, Vec<f64>) {
        let mut store = FeatureStore::build(model, ds, base);
        let slots: Vec<UserPair> = base.iter().chain(added).copied().collect();
        let dirty: Vec<usize> = stale.iter().copied().chain(base.len()..slots.len()).collect();
        let proba = store.update(model, ds, &slots, &dirty);
        (store, dirty, proba)
    }

    #[test]
    fn updated_store_equals_a_build_over_its_slots() {
        let (ds, model, pairs) = setup();
        let sub = &pairs[..200];
        // Old pairs before, between and after the added ones.
        let base: Vec<UserPair> = sub.iter().copied().step_by(3).collect();
        let added: Vec<UserPair> = sub.iter().copied().filter(|p| !base.contains(p)).collect();
        let (store, dirty, proba) = updated(model, ds, &base, &added, &[0, 7, 30]);
        let slots: Vec<UserPair> = base.iter().chain(&added).copied().collect();
        let full = FeatureStore::build(model, ds, &slots);
        assert_eq!(store.len(), slots.len());
        assert_eq!(store.index(), full.index());
        assert_eq!(store.dim(), full.dim());
        for (r, &p) in slots.iter().enumerate() {
            assert_eq!(store.row(r), full.row(r), "{p}");
            assert_eq!(store.get(p), full.get(p), "{p}");
        }
        let dirty_pairs: Vec<UserPair> = dirty.iter().map(|&r| slots[r]).collect();
        let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&proba), bits(&model.predict_proba(ds, &dirty_pairs)));
        // An update that adds nothing only overwrites.
        let mut again = store.clone();
        let proba = again.update(model, ds, &slots, &[1, 2]);
        assert_eq!(proba.len(), 2);
        assert_eq!(again.index(), store.index());
        assert_eq!(again.row(2), store.row(2));
    }

    /// Checks `store.get` against a linear search of `pairs`, whose
    /// features are the rows of `rows`, for every pair of `pairs` and for
    /// every other pair over the first `n` users: those absent from the
    /// store have a `lo` before its first run, inside a run, or past its
    /// last run.
    fn assert_get_matches_linear_search(
        store: &FeatureStore,
        pairs: &[UserPair],
        rows: &Matrix,
        n: u32,
    ) {
        assert_eq!(store.len(), pairs.len());
        for a in 0..n {
            for b in a + 1..n {
                let p = UserPair::new(UserId::new(a), UserId::new(b));
                let linear = pairs.iter().position(|&q| q == p).map(|i| rows.row(i));
                assert_eq!(store.get(p), linear, "{p}");
            }
        }
    }

    #[test]
    fn get_matches_a_linear_search_on_built_and_updated_stores() {
        let (ds, model, pairs) = setup();
        // Users 3..12, every other pair, in reverse: runs start after user
        // 0, leave holes inside, and end before the last user looked up.
        let mut sub: Vec<UserPair> = pairs
            .iter()
            .copied()
            .filter(|p| (3..12).contains(&p.lo().raw()) && p.hi().raw() < 20)
            .step_by(2)
            .collect();
        sub.reverse();
        assert!(sub.len() > 40);
        let rows = model.features(ds, &sub);
        let built = FeatureStore::build(model, ds, &sub);
        assert_get_matches_linear_search(&built, &sub, &rows, 24);
        // Added pairs land before, inside and past the old runs.
        let (head, tail) = sub.split_at(sub.len() / 2);
        let mut added = head.to_vec();
        added.sort_unstable();
        let slots: Vec<UserPair> = tail.iter().chain(&added).copied().collect();
        let (store, _, _) = updated(model, ds, tail, &added, &[1]);
        assert_get_matches_linear_search(&store, &slots, &model.features(ds, &slots), 24);
    }

    #[test]
    fn stores_past_one_block_keep_every_row() {
        let (_, model, _) = setup();
        let mut world = SyntheticConfig::small(42);
        world.n_users = 200;
        let ds = &generate(&world).unwrap().dataset;
        let n = ENCODE_BLOCK + 100;
        let sub = &all_pairs(ds).unwrap()[..n];
        let rows = model.features(ds, sub);
        let built = FeatureStore::build(model, ds, sub);
        // Appends fill the head's last block and open a second one.
        let (updated, _, _) = updated(model, ds, &sub[..n / 2], &sub[n / 2..], &[3]);
        for store in [&built, &updated] {
            assert_eq!(store.blocks.len(), 2);
            assert_eq!(store.index(), &PairIndex::new(sub));
            for (i, &p) in sub.iter().enumerate() {
                assert_eq!(store.get(p), Some(rows.row(i)), "{p}");
            }
        }
        let proba = model.predict_proba(ds, sub);
        let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&built.predict_proba(model)), bits(&proba));
        assert_eq!(bits(&updated.predict_proba(model)), bits(&proba));
    }

    #[test]
    #[should_panic(expected = "duplicate pair")]
    fn duplicate_pairs_rejected() {
        let (ds, model, pairs) = setup();
        let dup = vec![pairs[0], pairs[0]];
        let _ = FeatureStore::build(model, ds, &dup);
    }
}
