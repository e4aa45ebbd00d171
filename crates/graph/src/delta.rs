//! Edge-set deltas and dirty-vertex influence sets.
//!
//! These are the graph-side primitives behind incremental phase-2
//! refinement: given two consecutive refinement graphs `Gⁱ⁻¹` and `Gⁱ`, a
//! pair's composite feature can only change if its k-hop reachable subgraph
//! can see a changed edge. Every vertex of a length-≤k simple path between
//! `a` and `b` lies within distance `k - 1` of `a` (and of `b`), so the set
//! of pairs whose features may differ is exactly the pairs with *both*
//! endpoints within BFS depth `k - 1` of some changed-edge endpoint —
//! measured in the union graph, since a path may exist in either version.

use std::collections::VecDeque;

use seeker_trace::UserPair;

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

/// Marks every vertex within BFS depth `radius` of a changed-edge endpoint.
///
/// The BFS runs over the *union* adjacency of `old` and `new`: a pair's
/// k-hop subgraph in either graph can only reach vertices adjacent in that
/// graph, so the union dominates both. Returns a dense `Vec<bool>` indexed
/// by vertex; `seeds` are marked even with `radius == 0`.
///
/// # Panics
///
/// Panics if the graphs have different vertex counts.
pub fn influence_set(
    old: &SocialGraph,
    new: &SocialGraph,
    seeds: &[UserPair],
    radius: usize,
) -> Vec<bool> {
    influence_set_seeded(old, new, seeds, &[], radius)
}

/// [`influence_set`] with additional vertex seeds at depth 0.
///
/// Incremental ingestion dirties pairs two ways: edges that changed between
/// the previous run's final graph and the new `G⁰`, and users whose own
/// check-ins changed (their presence rows feed every composite feature that
/// reads an incident edge). Both kinds of dirt propagate the same way —
/// BFS over the union adjacency — so this variant seeds the frontier with
/// the changed-edge endpoints *and* the data-dirty vertices.
///
/// # Panics
///
/// Panics if the graphs have different vertex counts, or if a vertex seed
/// is out of range.
pub fn influence_set_seeded(
    old: &SocialGraph,
    new: &SocialGraph,
    edge_seeds: &[UserPair],
    vertex_seeds: &[seeker_trace::UserId],
    radius: usize,
) -> Vec<bool> {
    assert_eq!(
        old.n_vertices(),
        new.n_vertices(),
        "influence set requires graphs over the same vertex set"
    );
    let n = old.n_vertices();
    let mut depth: Vec<Option<usize>> = vec![None; n];
    let mut queue = VecDeque::new();
    let edge_endpoints = edge_seeds.iter().flat_map(|p| [p.lo(), p.hi()]);
    for u in edge_endpoints.chain(vertex_seeds.iter().copied()) {
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
        for &v in old.neighbors(u).iter().chain(new.neighbors(u)) {
            if depth[v.index()].is_none() {
                depth[v.index()] = Some(d + 1);
                queue.push_back(v);
            }
        }
    }
    depth.into_iter().map(|d| d.is_some()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seeker_trace::UserId;

    fn pair(a: u32, b: u32) -> UserPair {
        UserPair::new(UserId::new(a), UserId::new(b))
    }

    #[test]
    fn changed_edges_is_symmetric_difference() {
        let a = SocialGraph::from_edges(4, [pair(0, 1), pair(1, 2)]);
        let b = SocialGraph::from_edges(4, [pair(1, 2), pair(2, 3)]);
        assert_eq!(changed_edges(&a, &b), vec![pair(0, 1), pair(2, 3)]);
        assert_eq!(changed_edges(&a, &a), Vec::new());
    }

    #[test]
    fn influence_set_respects_radius() {
        // Path 0-1-2-3-4-5; change edge (0,1).
        let g = SocialGraph::from_edges(
            6,
            [pair(0, 1), pair(1, 2), pair(2, 3), pair(3, 4), pair(4, 5)],
        );
        let seeds = [pair(0, 1)];
        let r0 = influence_set(&g, &g, &seeds, 0);
        assert_eq!(r0, vec![true, true, false, false, false, false]);
        let r1 = influence_set(&g, &g, &seeds, 1);
        assert_eq!(r1, vec![true, true, true, false, false, false]);
        let r2 = influence_set(&g, &g, &seeds, 2);
        assert_eq!(r2, vec![true, true, true, true, false, false]);
    }

    #[test]
    fn influence_set_uses_union_adjacency() {
        // Edge (1,2) exists only in `new`; BFS from seed 0-1 must cross it.
        let old = SocialGraph::from_edges(3, [pair(0, 1)]);
        let new = SocialGraph::from_edges(3, [pair(0, 1), pair(1, 2)]);
        let reach = influence_set(&old, &new, &[pair(0, 1)], 1);
        assert_eq!(reach, vec![true, true, true]);
        // And symmetrically when the edge only exists in `old`.
        let reach = influence_set(&new, &old, &[pair(0, 1)], 1);
        assert_eq!(reach, vec![true, true, true]);
    }

    #[test]
    fn empty_seeds_mark_nothing() {
        let g = SocialGraph::from_edges(3, [pair(0, 1)]);
        assert_eq!(influence_set(&g, &g, &[], 5), vec![false; 3]);
    }

    #[test]
    fn vertex_seeds_join_the_frontier() {
        // Path 0-1-2-3-4-5; no changed edges, vertex 3 is data-dirty.
        let g = SocialGraph::from_edges(
            6,
            [pair(0, 1), pair(1, 2), pair(2, 3), pair(3, 4), pair(4, 5)],
        );
        let r0 = influence_set_seeded(&g, &g, &[], &[UserId::new(3)], 0);
        assert_eq!(r0, vec![false, false, false, true, false, false]);
        let r1 = influence_set_seeded(&g, &g, &[], &[UserId::new(3)], 1);
        assert_eq!(r1, vec![false, false, true, true, true, false]);
        // Edge and vertex seeds combine into one frontier.
        let both = influence_set_seeded(&g, &g, &[pair(0, 1)], &[UserId::new(5)], 1);
        assert_eq!(both, vec![true, true, true, false, true, true]);
    }

    #[test]
    fn seeded_matches_unseeded_without_vertex_seeds() {
        let g = SocialGraph::from_edges(4, [pair(0, 1), pair(1, 2), pair(2, 3)]);
        let seeds = [pair(1, 2)];
        for radius in 0..3 {
            assert_eq!(
                influence_set_seeded(&g, &g, &seeds, &[], radius),
                influence_set(&g, &g, &seeds, radius)
            );
        }
    }
}
