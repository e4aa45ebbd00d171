//! Property-based tests of the incremental-refinement contract: a
//! delta-refreshed [`crate::phase2::FeatureCache`] must stay bit-identical
//! to a full recompute across arbitrary graph/diff sequences, and
//! [`crate::phase2::dirty_rows`] must mark every row a change can reach.

use std::collections::VecDeque;

use proptest::prelude::*;
use seeker_graph::{KHopSubgraph, PairIndex, SocialGraph};
use seeker_trace::{UserId, UserPair};

use crate::phase2::{dirty_rows, path_count_profile, FeatureCache};

/// A structure-reading feature standing in for the composite feature: it
/// depends on exactly the pair's k-hop subgraph (path counts per length),
/// so any unsound reuse in the cache shows up as a mismatch.
fn path_feature(k: usize) -> impl Fn(&SocialGraph, UserPair) -> Vec<f32> + Sync {
    move |g, p| path_count_profile(g, p, k).iter().map(|&c| c as f32).collect()
}

fn all_pairs_of(n: usize) -> Vec<UserPair> {
    let mut out = Vec::new();
    for a in 0..n as u32 {
        for b in (a + 1)..n as u32 {
            out.push(UserPair::new(UserId::new(a), UserId::new(b)));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Incremental refresh == full recompute over a random sequence of
    /// graph mutations, for every pair and every k in the paper's range.
    #[test]
    fn feature_cache_refresh_matches_full(
        n in 3usize..10,
        k in 2usize..5,
        init_edges in proptest::collection::vec((0u32..10, 0u32..10), 0..20),
        steps in proptest::collection::vec(
            proptest::collection::vec((0u32..10, 0u32..10), 1..5),
            1..5,
        ),
    ) {
        let compute = path_feature(k);
        let mut graph = SocialGraph::new(n);
        for (a, b) in init_edges {
            let (a, b) = (a % n as u32, b % n as u32);
            if a != b {
                graph.add_edge(UserPair::new(UserId::new(a), UserId::new(b)));
            }
        }
        let pairs = all_pairs_of(n);
        let mut cache = FeatureCache::full(&graph, &pairs, &compute);
        for flips in steps {
            // Mutate: toggle a handful of edges (diffs of the kind the
            // refinement loop produces, including no-op steps).
            for (a, b) in flips {
                let (a, b) = (a % n as u32, b % n as u32);
                if a == b {
                    continue;
                }
                let e = UserPair::new(UserId::new(a), UserId::new(b));
                if !graph.add_edge(e) {
                    graph.remove_edge(e);
                }
            }
            let dirty = cache.refresh(&graph, &pairs, k, &compute);
            prop_assert!(dirty.windows(2).all(|w| w[0] < w[1]), "dirty indices sorted");
            let full = FeatureCache::full(&graph, &pairs, &compute);
            prop_assert_eq!(
                cache.features(),
                full.features(),
                "incremental refresh diverged from full recompute"
            );
        }
    }
}

/// Random graphs where up to three hub vertices are joined to roughly half
/// of all vertices, so short paths run through shared vertices, plus a
/// random set of edge flips and dirty users over the same vertices.
fn arb_change(max_n: usize) -> impl Strategy<Value = (SocialGraph, SocialGraph, Vec<UserId>)> {
    (4..max_n).prop_flat_map(|n| {
        let v = 0..n as u32;
        let edges = proptest::collection::vec((v.clone(), v.clone()), 0..n * 2);
        let hubs = proptest::collection::vec((v.clone(), any::<u64>()), 0..4);
        let flips = proptest::collection::vec((v.clone(), v.clone()), 1..6);
        let dirty = proptest::collection::vec(v, 0..3);
        (edges, hubs, flips, dirty).prop_map(move |(edges, hubs, flips, mut dirty)| {
            let edge = |a: u32, b: u32| UserPair::new(UserId::new(a), UserId::new(b));
            let mut prev = SocialGraph::new(n);
            for (a, b) in edges.into_iter().filter(|(a, b)| a != b) {
                prev.add_edge(edge(a, b));
            }
            for (h, mask) in hubs {
                for v in (0..n as u32).filter(|&v| v != h && mask >> (v % 64) & 1 == 1) {
                    prev.add_edge(edge(h, v));
                }
            }
            let mut next = prev.clone();
            for (a, b) in flips.into_iter().filter(|(a, b)| a != b) {
                if !next.add_edge(edge(a, b)) {
                    next.remove_edge(edge(a, b));
                }
            }
            dirty.sort_unstable();
            dirty.dedup();
            (prev, next, dirty.into_iter().map(UserId::new).collect())
        })
    })
}

/// The rule before the path-length budget: both endpoints within BFS depth
/// `k − 1`, over the union adjacency, of a changed-edge endpoint or a dirty
/// user, plus the force rows.
fn both_endpoints_in_ball(
    prev: &SocialGraph,
    next: &SocialGraph,
    pairs: &[UserPair],
    k: usize,
    dirty: &[UserId],
    force_rows: &[usize],
) -> Vec<usize> {
    let diff = seeker_graph::changed_edges(prev, next);
    let radius = k - 1;
    let mut depth: Vec<Option<usize>> = vec![None; prev.n_vertices()];
    let mut queue = VecDeque::new();
    for u in diff.iter().flat_map(|p| [p.lo(), p.hi()]).chain(dirty.iter().copied()) {
        if depth[u.index()].is_none() {
            depth[u.index()] = Some(0);
            queue.push_back(u);
        }
    }
    while let Some(u) = queue.pop_front() {
        let d = depth[u.index()].unwrap_or(0);
        if d == radius {
            continue;
        }
        for &v in prev.neighbors(u).iter().chain(next.neighbors(u)) {
            if depth[v.index()].is_none() {
                depth[v.index()] = Some(d + 1);
                queue.push_back(v);
            }
        }
    }
    let reached = |u: UserId| depth[u.index()].is_some();
    let mut rows: Vec<usize> = (0..pairs.len())
        .filter(|&i| reached(pairs[i].lo()) && reached(pairs[i].hi()))
        .chain(force_rows.iter().copied())
        .collect();
    rows.sort_unstable();
    rows.dedup();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `dirty_rows` is sound under both rules, and each is no larger than
    /// the one before it. Per source (an unbounded work limit) and by
    /// multi-source depths (a limit of 0), it marks every pair whose k-hop
    /// subgraph differs between the two graphs or passes through a dirty
    /// user in either. The per-source rows are a subset of the
    /// multi-source rows, and those mark only pairs whose endpoints both
    /// lie in the two-ball rule's ball. Force rows are the pairs with a
    /// dirty endpoint, as `IncrementalAttack::ingest` passes them.
    #[test]
    fn dirty_rows_reach_every_changed_subgraph(
        (prev, next, dirty) in arb_change(16),
        k in 2usize..5,
    ) {
        let pairs = all_pairs_of(prev.n_vertices());
        let index = PairIndex::new(&pairs);
        let force_rows: Vec<usize> = (0..pairs.len())
            .filter(|&i| dirty.contains(&pairs[i].lo()) || dirty.contains(&pairs[i].hi()))
            .collect();
        let per_source = dirty_rows(&prev, &next, &index, k, &dirty, &force_rows, usize::MAX);
        let multi_source = dirty_rows(&prev, &next, &index, k, &dirty, &force_rows, 0);
        for rows in [&per_source, &multi_source] {
            prop_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows sorted and unique");
        }
        for (i, &pair) in pairs.iter().enumerate() {
            let before = KHopSubgraph::extract(&prev, pair, k);
            let after = KHopSubgraph::extract(&next, pair, k);
            let through_dirty = [&before, &after].iter().any(|sub| {
                sub.groups().any(|(_, paths)| paths.iter().flatten().any(|v| dirty.contains(v)))
            });
            if before != after || through_dirty {
                for (rule, rows) in [("per-source", &per_source), ("multi-source", &multi_source)] {
                    prop_assert!(
                        rows.binary_search(&i).is_ok(),
                        "{} missed by the {} rule: subgraph changed {}, through a dirty user {}",
                        pair,
                        rule,
                        before != after,
                        through_dirty
                    );
                }
            }
        }
        for i in &per_source {
            prop_assert!(multi_source.binary_search(i).is_ok(), "{} outside multi-source", pairs[*i]);
        }
        let ball = both_endpoints_in_ball(&prev, &next, &pairs, k, &dirty, &force_rows);
        for i in &multi_source {
            prop_assert!(ball.binary_search(i).is_ok(), "{} outside the old rule", pairs[*i]);
        }
    }
}
