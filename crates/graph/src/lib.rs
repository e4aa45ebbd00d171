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

/// Edge-set diffs and the pairs a change can reach, for incremental refinement.
pub use delta::{changed_edges, reachable_rows, ReachableRows};
/// Undirected friendship graph with O(1) edge tests.
pub use graph::SocialGraph;
/// k-hop reachable subgraphs (Definition 6, Theorem 1).
pub use khop::{all_paths_of_length, count_paths_of_length, KHopSubgraph};

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

    proptest! {
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
        fn change_ratio_zero_iff_equal(g in arb_graph(16)) {
            prop_assert_eq!(g.change_ratio(&g), 0.0);
        }
    }
}
