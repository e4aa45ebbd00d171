//! Edge-set deltas and the pairs a change can reach.
//!
//! These are the graph-side primitives behind incremental phase-2
//! refinement. A pair's social feature (paper §III-C, Theorem 1) reads
//! only the simple `a–b` paths of length `2..=k`: the k-hop extraction's
//! shortest-first consumption and its depth-first order are both functions
//! of that path set, because a chord of such a path lies on a shorter one.
//! So between two consecutive refinement graphs the feature of `(a, b)` can
//! change only if a changed edge lies on one of those paths in either
//! graph, and it can read a changed presence row only if a dirty vertex
//! does. [`reachable_rows`] bounds both with path-length budgets over BFS
//! depths in the union graph; the rows it marks are a superset of the rows
//! whose features actually change.

use std::collections::VecDeque;

use seeker_trace::{UserId, UserPair};

use crate::graph::SocialGraph;

/// The symmetric difference of two graphs' edge sets, in sorted order.
///
/// # Panics
///
/// Panics if the graphs have different vertex counts.
pub fn changed_edges(a: &SocialGraph, b: &SocialGraph) -> Vec<UserPair> {
    assert_eq!(
        a.n_vertices(),
        b.n_vertices(),
        "edge diff requires graphs over the same vertex set"
    );
    // Both edge iterators are in canonical sorted order, so a linear merge
    // yields the symmetric difference already sorted.
    let mut out = Vec::new();
    let mut ia = a.edges().peekable();
    let mut ib = b.edges().peekable();
    loop {
        match (ia.peek(), ib.peek()) {
            (Some(&ea), Some(&eb)) => match ea.cmp(&eb) {
                std::cmp::Ordering::Less => {
                    out.push(ea);
                    ia.next();
                }
                std::cmp::Ordering::Greater => {
                    out.push(eb);
                    ib.next();
                }
                std::cmp::Ordering::Equal => {
                    ia.next();
                    ib.next();
                }
            },
            (Some(&ea), None) => {
                out.push(ea);
                ia.next();
            }
            (None, Some(&eb)) => {
                out.push(eb);
                ib.next();
            }
            (None, None) => break,
        }
    }
    out
}

/// The rows of a pair list that a change between two graphs can reach,
/// with the number of rows each term of the path-length budget marks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReachableRows {
    /// Sorted indices into the pair list of every marked row.
    pub rows: Vec<usize>,
    /// Rows marked by the changed-edge term, `dE(a) + dE(b) ≤ k − 1`.
    pub by_edges: usize,
    /// Rows marked by the dirty-vertex term, `dW(a) + dW(b) ≤ k`.
    pub by_vertices: usize,
}

/// Marks every pair of `pairs` whose simple paths of length `2..=k`, in
/// `old` or in `new`, can pass through an edge of `old Δ new` or through a
/// `dirty` vertex.
///
/// Two multi-source BFS passes run over the *union* adjacency of `old` and
/// `new`: `dE` from the endpoints of the changed edges, to radius `k − 1`,
/// and `dW` from the `dirty` vertices, to radius `k`. A pair `(a, b)` is
/// marked iff `dE(a) + dE(b) ≤ k − 1` or `dW(a) + dW(b) ≤ k`.
///
/// Soundness: a changed edge `{u, v}` on a simple a–b path of length at
/// most `k` in either graph splits it into an `a…u` part, the edge, and a
/// `v…b` part, so `d(a, u) + 1 + d(v, b) ≤ k` there; a dirty vertex `w` on
/// such a path gives `d(a, w) + d(w, b) ≤ k`. Union-graph distances are at
/// most the distances in either graph, and the multi-source depths are at
/// most the distances to any one seed, so both sums hold for the depths.
/// A pair no changed edge can reach has the same path set in both graphs.
///
/// # Panics
///
/// Panics if the graphs have different vertex counts, or if a pair or a
/// dirty vertex lies outside them.
pub fn reachable_rows(
    old: &SocialGraph,
    new: &SocialGraph,
    pairs: &[UserPair],
    k: usize,
    dirty: &[UserId],
) -> ReachableRows {
    assert_eq!(
        old.n_vertices(),
        new.n_vertices(),
        "reachable rows require graphs over the same vertex set"
    );
    let edge_budget = k.saturating_sub(1);
    // The endpoints of the changed edges are the vertices whose neighbour
    // lists differ between the two graphs.
    let n = old.n_vertices() as u32;
    let touched = (0..n).map(UserId::new).filter(|&u| old.neighbors(u) != new.neighbors(u));
    let d_edge = union_depths(old, new, touched, edge_budget);
    let d_dirty = union_depths(old, new, dirty.iter().copied(), k);
    let mut out = ReachableRows::default();
    for (i, p) in pairs.iter().enumerate() {
        let (a, b) = (p.lo().index(), p.hi().index());
        let by_edge = d_edge[a] + d_edge[b] <= edge_budget;
        let by_vertex = d_dirty[a] + d_dirty[b] <= k;
        out.by_edges += usize::from(by_edge);
        out.by_vertices += usize::from(by_vertex);
        if by_edge || by_vertex {
            out.rows.push(i);
        }
    }
    out
}

/// The BFS depth of every vertex from the nearest of `seeds` over the
/// union adjacency of `old` and `new`, explored to `radius`. Vertices
/// beyond it read `radius + 1`, so any depth sum that includes one exceeds
/// a budget of at most `radius`.
fn union_depths(
    old: &SocialGraph,
    new: &SocialGraph,
    seeds: impl Iterator<Item = UserId>,
    radius: usize,
) -> Vec<usize> {
    let unreached = radius + 1;
    let mut depth = vec![unreached; old.n_vertices()];
    let mut queue = VecDeque::new();
    for u in seeds {
        if depth[u.index()] == unreached {
            depth[u.index()] = 0;
            queue.push_back(u);
        }
    }
    while let Some(u) = queue.pop_front() {
        let d = depth[u.index()];
        if d == radius {
            continue;
        }
        for &v in old.neighbors(u).iter().chain(new.neighbors(u)) {
            if depth[v.index()] == unreached {
                depth[v.index()] = d + 1;
                queue.push_back(v);
            }
        }
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(a: u32, b: u32) -> UserPair {
        UserPair::new(UserId::new(a), UserId::new(b))
    }

    /// Every pair over `n` vertices, in canonical order.
    fn all_pairs(n: u32) -> Vec<UserPair> {
        (0..n).flat_map(|a| (a + 1..n).map(move |b| pair(a, b))).collect()
    }

    /// The marked pairs of [`reachable_rows`], as pairs.
    fn reached(
        old: &SocialGraph,
        new: &SocialGraph,
        k: usize,
        dirty: &[u32],
    ) -> (Vec<UserPair>, ReachableRows) {
        let pairs = all_pairs(old.n_vertices() as u32);
        let dirty: Vec<UserId> = dirty.iter().map(|&w| UserId::new(w)).collect();
        let rows = reachable_rows(old, new, &pairs, k, &dirty);
        (rows.rows.iter().map(|&i| pairs[i]).collect(), rows)
    }

    fn path6() -> SocialGraph {
        SocialGraph::from_edges(6, [pair(0, 1), pair(1, 2), pair(2, 3), pair(3, 4), pair(4, 5)])
    }

    #[test]
    fn changed_edges_is_symmetric_difference() {
        let a = SocialGraph::from_edges(4, [pair(0, 1), pair(1, 2)]);
        let b = SocialGraph::from_edges(4, [pair(1, 2), pair(2, 3)]);
        assert_eq!(changed_edges(&a, &b), vec![pair(0, 1), pair(2, 3)]);
        assert_eq!(changed_edges(&a, &a), Vec::new());
    }

    #[test]
    fn edge_term_spends_the_budget_across_both_endpoints() {
        // Path 0-1-2-3-4-5; edge (2,3) flips. With k = 3 a pair's depths
        // must sum to at most 2: (1,4) reads 1 + 1, (0,4) reads 2 + 1.
        let old = path6();
        let mut new = old.clone();
        new.remove_edge(pair(2, 3));
        let (marked, rows) = reached(&old, &new, 3, &[]);
        for p in [pair(1, 2), pair(1, 3), pair(1, 4), pair(2, 3), pair(2, 4), pair(3, 4)] {
            assert!(marked.contains(&p), "{p} must be marked");
        }
        for p in [pair(0, 4), pair(1, 5), pair(0, 5), pair(0, 1), pair(4, 5)] {
            assert!(!marked.contains(&p), "{p} is out of budget");
        }
        // (0,2) reads 2 + 0: within budget though no 0-2 path uses the edge.
        assert!(marked.contains(&pair(0, 2)));
        assert_eq!(rows.by_edges, marked.len());
        assert_eq!(rows.by_vertices, 0);
    }

    #[test]
    fn vertex_term_has_budget_k() {
        // Path 0-1-2-3-4-5, no edge change, vertex 2 dirty, k = 2: the only
        // length-2 paths through 2 are 1-2-3, so (1,3) and the pairs with
        // an endpoint at depth 0 and the other within depth 2 are marked.
        let g = path6();
        let (marked, rows) = reached(&g, &g, 2, &[2]);
        let expected = vec![pair(0, 2), pair(1, 2), pair(1, 3), pair(2, 3), pair(2, 4)];
        assert_eq!(marked, expected);
        assert_eq!((rows.by_edges, rows.by_vertices), (0, expected.len()));
    }

    #[test]
    fn depths_use_union_adjacency() {
        // Edge (1,2) exists in one graph only and vertex 0 is dirty, k = 2:
        // the dirty-vertex depths reach 2 through it in either direction.
        let one = SocialGraph::from_edges(3, [pair(0, 1), pair(1, 2)]);
        let other = SocialGraph::from_edges(3, [pair(0, 1)]);
        for (old, new) in [(&one, &other), (&other, &one)] {
            let (_, rows) = reached(old, new, 2, &[0]);
            assert_eq!(rows.by_vertices, 2, "(0,1), and (0,2) over the path 0-1-2");
        }
    }

    #[test]
    fn no_change_marks_nothing() {
        let g = path6();
        let (marked, rows) = reached(&g, &g, 4, &[]);
        assert!(marked.is_empty());
        assert_eq!(rows, ReachableRows::default());
    }

    #[test]
    fn terms_are_counted_separately() {
        // Edge (0,1) flips and vertex 5 is dirty on the path 0-1-2-3-4-5,
        // k = 2: the terms mark opposite ends of the path.
        let old = path6();
        let mut new = old.clone();
        new.remove_edge(pair(0, 1));
        let (marked, rows) = reached(&old, &new, 2, &[5]);
        assert_eq!(rows.by_edges, 3); // (0,1), (0,2), (1,2)
        assert_eq!(rows.by_vertices, 2); // (3,5), (4,5)
        assert_eq!(marked.len(), 5);
    }
}
