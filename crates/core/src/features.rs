//! Social-proximity feature extraction (§III-C-2).
//!
//! For a pair `(a, b)` and the current social graph, the k-hop reachable
//! subgraph is embedded as follows: every edge `e = (i, j)` on a collected
//! path carries the presence-proximity feature `h_(i,j)` learned in phase 1;
//! the edge vectors of all paths of the same length are summed into one
//! `d`-block, and the blocks of lengths `2..=k` are concatenated. The
//! composite feature `v = h_(a,b) ⊕ s_(a,b)` is what classifier `C'` sees.

use seeker_graph::{KHopSubgraph, PairIndex, SocialGraph};
use seeker_nn::Matrix;
use seeker_trace::{Dataset, UserPair};

use crate::phase1::Phase1Model;

/// Precomputed presence-proximity features for a fixed pair universe.
///
/// Phase 2 needs `h` for every edge that can appear on a path, and every
/// such edge is a member of the pair universe the graph was predicted from —
/// so one batched encoding pass up front serves all iterations.
#[derive(Debug, Clone)]
pub struct FeatureStore {
    // Pair → feature row. A lookup searches the run of the pair's `lo`
    // user, not the whole universe. A hash index would iterate in a
    // nondeterministic order (no-hash-iter). Lookup is on the phase-2 hot
    // path, once per edge of every collected path.
    index: PairIndex,
    features: Matrix,
}

impl FeatureStore {
    /// Encodes all `pairs` on `ds` through the phase-1 encoder.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty or contains duplicates.
    pub fn build(model: &Phase1Model, ds: &Dataset, pairs: &[UserPair]) -> Self {
        let _span = seeker_obs::span!("core.features.build");
        let index = PairIndex::new(pairs);
        FeatureStore { index, features: model.features(ds, pairs) }
    }

    /// The feature dimension `d`.
    pub fn dim(&self) -> usize {
        self.features.cols()
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
        self.index.get(pair).map(|row| self.features.row(row))
    }

    /// Merges two stores built from the same model and dataset into one
    /// lookup universe (the shard-by-shard inference path joins a per-chunk
    /// store with the current graph's edge store).
    ///
    /// A pair present in both keeps `self`'s row — the rows are identical by
    /// construction, because `h` is a pure per-pair function of the model
    /// and dataset and encoding a row does not depend on its batch.
    ///
    /// # Panics
    ///
    /// Panics if the two stores disagree on the feature dimension.
    pub fn merged(&self, other: &FeatureStore) -> FeatureStore {
        assert_eq!(self.dim(), other.dim(), "feature stores must share one dimension");
        let d = self.dim();
        let mut index: Vec<(UserPair, usize)> = Vec::with_capacity(self.len() + other.len());
        let mut data: Vec<f32> = Vec::with_capacity((self.len() + other.len()) * d);
        let mut push = |pair: UserPair, row: &[f32]| {
            index.push((pair, index.len()));
            data.extend_from_slice(row);
        };
        let (ours, theirs) = (self.index.entries(), other.index.entries());
        let (mut i, mut j) = (0usize, 0usize);
        while i < ours.len() || j < theirs.len() {
            match (ours.get(i), theirs.get(j)) {
                (Some(&(pa, ra)), Some(&(pb, _))) if pa < pb => {
                    push(pa, self.features.row(ra));
                    i += 1;
                }
                (Some(&(pa, ra)), Some(&(pb, _))) if pa == pb => {
                    push(pa, self.features.row(ra));
                    i += 1;
                    j += 1;
                }
                (_, Some(&(pb, rb))) => {
                    push(pb, other.features.row(rb));
                    j += 1;
                }
                (Some(&(pa, ra)), None) => {
                    push(pa, self.features.row(ra));
                    i += 1;
                }
                (None, None) => unreachable!("loop condition"),
            }
        }
        let rows = index.len();
        FeatureStore {
            index: PairIndex::from_entries(index),
            features: Matrix::from_vec(rows, d, data),
        }
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
            for w in path.windows(2) {
                if let Some(f) = store.get(UserPair::new(w[0], w[1])) {
                    for (o, &x) in block.iter_mut().zip(f.iter()) {
                        *o += x;
                    }
                }
            }
        }
    }
    out
}

/// The composite feature `v = h ⊕ s` for one pair given the current graph.
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
    // lint:allow(no-panic) -- documented contract, see above
    let h = store.get(pair).expect("pair must belong to the feature store universe");
    let sub = KHopSubgraph::extract(graph, pair, k);
    let s = social_proximity_feature(&sub, k, store);
    let mut v = Vec::with_capacity(h.len() + s.len());
    v.extend_from_slice(h);
    v.extend(s);
    v
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

    #[test]
    fn merged_store_is_a_sorted_union() {
        let (ds, model, pairs) = setup();
        let sub = &pairs[..200];
        let full = FeatureStore::build(model, ds, sub);
        // Overlapping halves: the union must dedup and keep bit-identical rows.
        let a = FeatureStore::build(model, ds, &sub[..120]);
        let b = FeatureStore::build(model, ds, &sub[80..]);
        let merged = a.merged(&b);
        assert_eq!(merged.len(), sub.len());
        assert_eq!(merged.dim(), full.dim());
        for &p in sub {
            assert_eq!(merged.get(p).unwrap(), full.get(p).unwrap());
        }
        // Disjoint merge commutes on lookups.
        let c = FeatureStore::build(model, ds, &sub[..100]);
        let d = FeatureStore::build(model, ds, &sub[100..]);
        let cd = c.merged(&d);
        let dc = d.merged(&c);
        assert_eq!(cd.len(), sub.len());
        for &p in sub {
            assert_eq!(cd.get(p).unwrap(), dc.get(p).unwrap());
        }
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
    fn get_matches_a_linear_search_on_built_and_merged_stores() {
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
        // Overlapping and disjoint merges hold the same rows.
        let (head, tail) = (&sub[..sub.len() / 2 + 5], &sub[sub.len() / 2 - 5..]);
        let a = FeatureStore::build(model, ds, head);
        let b = FeatureStore::build(model, ds, tail);
        assert_get_matches_linear_search(&a.merged(&b), &sub, &rows, 24);
        assert_get_matches_linear_search(&b.merged(&a), &sub, &rows, 24);
        let (c, d) = sub.split_at(sub.len() / 3);
        let merged = FeatureStore::build(model, ds, d).merged(&FeatureStore::build(model, ds, c));
        assert_get_matches_linear_search(&merged, &sub, &rows, 24);
    }

    #[test]
    #[should_panic(expected = "duplicate pair")]
    fn duplicate_pairs_rejected() {
        let (ds, model, pairs) = setup();
        let dup = vec![pairs[0], pairs[0]];
        let _ = FeatureStore::build(model, ds, &dup);
    }
}
