//! # seeker-graph
//!
//! Graph substrate for the FriendSeeker reproduction: undirected social
//! graphs over dense user ids, the paper's *k-hop reachable subgraph*
//! (§III-C-1, Theorem 1) and the classic link-prediction heuristics used by
//! baselines and ablations.
//!
//! ```
//! use seeker_graph::{KHopSubgraph, SocialGraph};
//! use seeker_trace::{UserId, UserPair};
//!
//! let pair = |a, b| UserPair::new(UserId::new(a), UserId::new(b));
//! let g = SocialGraph::from_edges(4, [pair(0, 2), pair(2, 1), pair(0, 3), pair(3, 1)]);
//! let sub = KHopSubgraph::extract(&g, pair(0, 1), 3);
//! assert_eq!(sub.n_paths_of_len(2), 2); // 0-2-1 and 0-3-1
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

/// Degree/component/path statistics over social graphs.
pub mod analysis;
mod delta;
mod graph;
/// Classic link-prediction scores (CN, Jaccard, AA, RA).
pub mod heuristics;
mod khop;
mod pair_index;

/// Edge-set diffs and the pairs a change can reach, for incremental refinement.
pub use delta::{changed_edges, reachable_rows, ReachableRows, REACH_WORK_PER_PAIR};
/// Undirected friendship graph with O(1) edge tests.
pub use graph::SocialGraph;
/// k-hop reachable subgraphs (Definition 6, Theorem 1).
pub use khop::{all_paths_of_length, count_paths_of_length, KHopSubgraph};
/// Pair → row lookup with one run per `lo` user.
pub use pair_index::PairIndex;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use seeker_trace::{UserId, UserPair};
    use std::collections::BTreeSet;

    fn arb_graph(max_n: usize) -> impl Strategy<Value = SocialGraph> {
        (2..max_n).prop_flat_map(|n| {
            let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..n * 3);
            edges.prop_map(move |raw| {
                let mut g = SocialGraph::new(n);
                for (a, b) in raw {
                    if a != b {
                        g.add_edge(UserPair::new(UserId::new(a), UserId::new(b)));
                    }
                }
                g
            })
        })
    }

    /// Every vertex's BFS distance from the nearest of `seeds` over the
    /// union adjacency of `a` and `b`; `usize::MAX` if unreachable.
    fn union_distances(a: &SocialGraph, b: &SocialGraph, seeds: &[UserId]) -> Vec<usize> {
        let mut dist = vec![usize::MAX; a.n_vertices()];
        let mut frontier: Vec<UserId> = seeds.to_vec();
        for s in seeds {
            dist[s.index()] = 0;
        }
        for d in 1.. {
            let mut next = Vec::new();
            for u in frontier {
                for &v in a.neighbors(u).iter().chain(b.neighbors(u)) {
                    if dist[v.index()] == usize::MAX {
                        dist[v.index()] = d;
                        next.push(v);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        dist
    }

    proptest! {
        /// Both branches of `reachable_rows` mark exactly the rows of
        /// their rule, checked against whole-graph BFS distances: per
        /// source (an unbounded work limit) and by multi-source depths (a
        /// limit of 0).
        #[test]
        fn reachable_rows_follow_their_rules(
            old in arb_graph(14),
            flips in proptest::collection::vec((0u32..14, 0u32..14), 0..5),
            dirty in proptest::collection::vec(0u32..14, 0..3),
            k in 2usize..5,
        ) {
            let n = old.n_vertices() as u32;
            let mut new = old.clone();
            for (a, b) in flips.into_iter().map(|(a, b)| (a % n, b % n)).filter(|(a, b)| a != b) {
                let e = UserPair::new(UserId::new(a), UserId::new(b));
                if !new.add_edge(e) {
                    new.remove_edge(e);
                }
            }
            let dirty: Vec<UserId> = dirty.into_iter().map(|w| UserId::new(w % n)).collect();
            let pairs: Vec<UserPair> = (0..n)
                .flat_map(|a| (a + 1..n).map(move |b| UserPair::new(UserId::new(a), UserId::new(b))))
                .collect();
            let index = PairIndex::new(&pairs);
            let changed = changed_edges(&old, &new);
            let from = |s: UserId| union_distances(&old, &new, &[s]);
            let sum = |x: usize, y: usize| x.saturating_add(y);
            let edge_balls: Vec<(Vec<usize>, Vec<usize>)> =
                changed.iter().map(|e| (from(e.lo()), from(e.hi()))).collect();
            let user_balls: Vec<Vec<usize>> = dirty.iter().map(|&w| from(w)).collect();
            let ends: Vec<UserId> = changed.iter().flat_map(|e| [e.lo(), e.hi()]).collect();
            let (d_edge, d_user) = (union_distances(&old, &new, &ends), union_distances(&old, &new, &dirty));
            for (work_per_pair, multi) in [(usize::MAX, false), (0, true)] {
                let rows = reachable_rows(&old, &new, &index, k, &dirty, work_per_pair);
                let (mut expected, mut by_edges, mut by_vertices) = (Vec::new(), 0, 0);
                for (i, p) in pairs.iter().enumerate() {
                    let (a, b) = (p.lo().index(), p.hi().index());
                    let by_edge = if multi {
                        sum(d_edge[a], d_edge[b]) < k
                    } else {
                        edge_balls.iter().any(|(du, dv)| sum(du[a], dv[b]).min(sum(dv[a], du[b])) < k)
                    };
                    let by_vertex = if multi {
                        sum(d_user[a], d_user[b]) <= k
                    } else {
                        user_balls.iter().any(|dw| sum(dw[a], dw[b]) <= k)
                    };
                    by_edges += usize::from(by_edge);
                    by_vertices += usize::from(by_vertex);
                    if by_edge || by_vertex {
                        expected.push(i);
                    }
                }
                prop_assert_eq!(&rows.rows, &expected, "multi-source {}", multi);
                prop_assert_eq!((rows.by_edges, rows.by_vertices), (by_edges, by_vertices));
                prop_assert_eq!(rows.multi_source, multi && (!changed.is_empty() || !dirty.is_empty()));
            }
        }

        #[test]
        fn degree_sum_is_twice_edges(g in arb_graph(24)) {
            let sum: usize = g.vertices().map(|v| g.degree(v)).sum();
            prop_assert_eq!(sum, 2 * g.n_edges());
        }

        #[test]
        fn khop_theorem1_invariants(g in arb_graph(16), k in 2usize..5) {
            // For every pair: edges are length-disjoint and every path is a
            // valid simple path of the original graph.
            let n = g.n_vertices() as u32;
            for a in 0..n {
                for b in (a + 1)..n {
                    let pair = UserPair::new(UserId::new(a), UserId::new(b));
                    let sub = KHopSubgraph::extract(&g, pair, k);
                    let mut seen_edges: BTreeSet<UserPair> = BTreeSet::new();
                    let mut seen_mids: BTreeSet<UserId> = BTreeSet::new();
                    for (l, paths) in sub.groups() {
                        prop_assert!(l >= 2 && l <= k);
                        let mut level_edges = BTreeSet::new();
                        let mut level_mids = BTreeSet::new();
                        for p in paths {
                            prop_assert_eq!(p.len(), l + 1);
                            prop_assert_eq!(p[0].index() as u32, a);
                            prop_assert_eq!(p.last().unwrap().index() as u32, b);
                            let uniq: BTreeSet<_> = p.iter().collect();
                            prop_assert_eq!(uniq.len(), p.len(), "non-simple path");
                            for w in p.windows(2) {
                                prop_assert!(g.has_edge(UserPair::new(w[0], w[1])));
                                level_edges.insert(UserPair::new(w[0], w[1]));
                            }
                            level_mids.extend(p[1..p.len() - 1].iter().copied());
                        }
                        prop_assert!(seen_edges.intersection(&level_edges).next().is_none(),
                            "edge shared between path lengths");
                        prop_assert!(seen_mids.intersection(&level_mids).next().is_none(),
                            "intermediate shared between path lengths");
                        seen_edges.extend(level_edges);
                        seen_mids.extend(level_mids);
                    }
                }
            }
        }

        #[test]
        fn jaccard_in_unit_interval(g in arb_graph(20)) {
            let n = g.n_vertices() as u32;
            for a in 0..n {
                for b in (a + 1)..n {
                    let j = heuristics::jaccard(&g, UserPair::new(UserId::new(a), UserId::new(b)));
                    prop_assert!((0.0..=1.0).contains(&j));
                }
            }
        }

        #[test]
        fn bulk_build_matches_add_edge(g in arb_graph(24)) {
            // `arb_graph` builds edge by edge; rebuild its edges in bulk,
            // reversed and each given twice.
            let edges: Vec<UserPair> = g.edges().collect();
            let twice = edges.iter().rev().chain(&edges).copied();
            prop_assert_eq!(SocialGraph::from_edges(g.n_vertices(), twice), g);
        }

        #[test]
        fn change_ratio_zero_iff_equal(g in arb_graph(16)) {
            prop_assert_eq!(g.change_ratio(&g), 0.0);
        }
    }
}
