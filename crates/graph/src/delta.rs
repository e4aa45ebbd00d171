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

use seeker_trace::{UserId, UserPair};

use crate::graph::SocialGraph;
use crate::pair_index::PairIndex;

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

/// Candidate pairs the per-source enumeration of [`reachable_rows`] may
/// visit per indexed pair before the multi-source depths decide instead.
///
/// The per-source rule marks fewer rows, but it visits every pair of two
/// balls, while the multi-source rule costs one scan of the index. The
/// visits are known from the balls' layer sizes before any lookup. On the
/// serve-ingest-3k benchmark (seed 201, all 372 frames) the diffs of a
/// 20-check-in flush visit 0.21 times the pair count in the median, 7.6
/// times it at p99 and 20.9 at most. A cold inference's G⁰ → G¹ diff,
/// where nearly every co-located user changes, would visit 169 times it
/// when that session opens and 363 times it on the batch-10k world. The
/// limit sits between the two groups.
pub const REACH_WORK_PER_PAIR: usize = 64;

/// The rows of a pair list that a change between two graphs can reach,
/// with the number of rows each term of the path-length budget marks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReachableRows {
    /// Sorted indices into the pair list of every marked row.
    pub rows: Vec<usize>,
    /// Rows marked by the changed-edge term.
    pub by_edges: usize,
    /// Rows marked by the dirty-vertex term.
    pub by_vertices: usize,
    /// Whether the multi-source depths decided, because the per-source
    /// enumeration would have passed its work limit.
    pub multi_source: bool,
}

/// Marks every row of `index` whose pair's simple paths of length `2..=k`,
/// in `old` or in `new`, can pass through an edge of `old Δ new` or through
/// a `dirty` vertex.
///
/// Depths are BFS depths over the *union* adjacency of `old` and `new`:
/// `d_s(x)` from one seed `s`, explored to radius `k − 1` around a
/// changed-edge endpoint and to `k` around a dirty vertex. A pair `(a, b)`
/// is marked iff one changed edge `{u, v}` gives
/// `d_u(a) + d_v(b) ≤ k − 1` (in either orientation), or one dirty vertex
/// `w` gives `d_w(a) + d_w(b) ≤ k`. The candidates are enumerated from each
/// seed's BFS layers and looked up in `index`.
///
/// That enumeration visits the sum of the layer-size products of the
/// balls it pairs up. When the sum exceeds `work_per_pair` times the
/// number of indexed pairs, the multi-source depths decide instead:
/// `dE` from all changed-edge endpoints and `dW` from all dirty vertices,
/// marking `(a, b)` iff `dE(a) + dE(b) ≤ k − 1` or `dW(a) + dW(b) ≤ k`.
/// A multi-source depth is at most every single-seed depth, so that rule
/// marks a superset of the per-source one.
///
/// Soundness: a changed edge `{u, v}` on a simple a–b path of length at
/// most `k` in either graph splits it into an `a…u` part, the edge, and a
/// `v…b` part, so `d(a, u) + 1 + d(v, b) ≤ k` there; a dirty vertex `w` on
/// such a path gives `d(a, w) + d(w, b) ≤ k`. Union-graph distances are at
/// most the distances in either graph, so both sums hold for the depths.
/// A pair no changed edge can reach has the same path set in both graphs.
///
/// # Panics
///
/// Panics if the graphs have different vertex counts, or if an indexed
/// pair or a dirty vertex lies outside them.
pub fn reachable_rows(
    old: &SocialGraph,
    new: &SocialGraph,
    index: &PairIndex,
    k: usize,
    dirty: &[UserId],
    work_per_pair: usize,
) -> ReachableRows {
    assert_eq!(
        old.n_vertices(),
        new.n_vertices(),
        "reachable rows require graphs over the same vertex set"
    );
    let changed = changed_edges(old, new);
    let mut seen = vec![false; old.n_vertices()];
    let limit = work_per_pair.saturating_mul(index.len());
    if !within_work_limit(old, new, &changed, dirty, k, limit, &mut seen) {
        return multi_source(old, new, index, &changed, k, dirty, &mut seen);
    }
    let edge_budget = k.saturating_sub(1);
    let mut flags = vec![0u8; index.len()];
    let mut out = ReachableRows::default();
    let mut mark = |x: UserId, y: UserId, term: u8| {
        let Some(row) = index.get(UserPair::new(x, y)) else { return };
        let flag = &mut flags[row];
        if *flag & term != 0 {
            return;
        }
        if *flag == 0 {
            out.rows.push(row);
        }
        *flag |= term;
        if term == BY_EDGE {
            out.by_edges += 1;
        } else {
            out.by_vertices += 1;
        }
    };
    let (mut near_lo, mut near_hi) = (Ball::default(), Ball::default());
    for (i, e) in changed.iter().enumerate() {
        if i == 0 || changed[i - 1].lo() != e.lo() {
            near_lo.grow(old, new, [e.lo()], edge_budget, &mut seen);
        }
        near_hi.grow(old, new, [e.hi()], edge_budget, &mut seen);
        for d in 0..=edge_budget {
            for &x in near_lo.layer(d) {
                for &y in near_hi.within(edge_budget - d) {
                    if x != y {
                        mark(x, y, BY_EDGE);
                    }
                }
            }
        }
    }
    let ball = &mut near_lo;
    for &w in dirty {
        ball.grow(old, new, [w], k, &mut seen);
        // Each unordered pair once: `x` at BFS position p, `y` after it.
        for d in 0..=k / 2 {
            let reach = ball.within(k - d);
            for p in ball.starts[d]..ball.starts[d + 1] {
                for &y in &reach[p + 1..] {
                    mark(reach[p], y, BY_VERTEX);
                }
            }
        }
    }
    out.rows.sort_unstable();
    out
}

/// The [`reachable_rows`] flag of a row marked by a changed edge.
const BY_EDGE: u8 = 1;
/// The [`reachable_rows`] flag of a row marked by a dirty vertex.
const BY_VERTEX: u8 = 2;

/// Whether the per-source enumeration of [`reachable_rows`] visits at most
/// `limit` candidate pairs, counted as the sum of its layer-size products.
/// Each endpoint's ball is grown once, and only while the sum stays within
/// the limit, so a dense diff stops early.
fn within_work_limit(
    old: &SocialGraph,
    new: &SocialGraph,
    changed: &[UserPair],
    dirty: &[UserId],
    k: usize,
    limit: usize,
    seen: &mut [bool],
) -> bool {
    let edge_budget = k.saturating_sub(1);
    let layers = edge_budget + 1;
    // `sizes[slot[u]..][..layers]` are the layer sizes of endpoint u's ball.
    let mut slot = vec![usize::MAX; old.n_vertices()];
    let mut sizes: Vec<usize> = Vec::new();
    let mut ball = Ball::default();
    let mut work = 0usize;
    for e in changed {
        let [su, sv] = [e.lo(), e.hi()].map(|u| {
            if slot[u.index()] == usize::MAX {
                ball.grow(old, new, [u], edge_budget, seen);
                slot[u.index()] = sizes.len();
                sizes.extend((0..layers).map(|d| ball.layer(d).len()));
            }
            slot[u.index()]
        });
        for d in 0..layers {
            let pairs_with = sizes[sv..sv + layers - d].iter().sum::<usize>();
            work = work.saturating_add(sizes[su + d].saturating_mul(pairs_with));
        }
        if work > limit {
            return false;
        }
    }
    for &w in dirty {
        ball.grow(old, new, [w], k, seen);
        for d in 0..=k / 2 {
            let pairs_with = (d..=k - d).map(|e| ball.layer(e).len()).sum::<usize>();
            work = work.saturating_add(ball.layer(d).len().saturating_mul(pairs_with));
        }
        if work > limit {
            return false;
        }
    }
    true
}

/// [`reachable_rows`] by multi-source depths: `dE` from every endpoint of
/// `changed` and `dW` from every `dirty` vertex, one scan of the index.
fn multi_source(
    old: &SocialGraph,
    new: &SocialGraph,
    index: &PairIndex,
    changed: &[UserPair],
    k: usize,
    dirty: &[UserId],
    seen: &mut [bool],
) -> ReachableRows {
    let edge_budget = k.saturating_sub(1);
    let mut ball = Ball::default();
    ball.grow(old, new, changed.iter().flat_map(|e| [e.lo(), e.hi()]), edge_budget, seen);
    let d_edge = ball.depths(old.n_vertices());
    ball.grow(old, new, dirty.iter().copied(), k, seen);
    let d_dirty = ball.depths(old.n_vertices());
    let mut out = ReachableRows { multi_source: true, ..ReachableRows::default() };
    for &(p, row) in index.entries() {
        let (a, b) = (p.lo().index(), p.hi().index());
        let by_edge = d_edge[a] + d_edge[b] <= edge_budget;
        let by_vertex = d_dirty[a] + d_dirty[b] <= k;
        out.by_edges += usize::from(by_edge);
        out.by_vertices += usize::from(by_vertex);
        if by_edge || by_vertex {
            out.rows.push(row);
        }
    }
    out.rows.sort_unstable();
    out
}

/// A BFS ball over the union adjacency of two graphs, its vertices in BFS
/// order, so each layer is a contiguous run.
#[derive(Default)]
struct Ball {
    verts: Vec<UserId>,
    /// `starts[d]` is where layer `d` starts; the last entry is the end.
    starts: Vec<usize>,
}

impl Ball {
    /// Regrows the ball around `seeds` to `radius`: layer 0 holds the
    /// seeds, and layer `d` the vertices at depth `d` from the nearest one.
    /// `seen` must be all `false`, and is again on return.
    fn grow(
        &mut self,
        old: &SocialGraph,
        new: &SocialGraph,
        seeds: impl IntoIterator<Item = UserId>,
        radius: usize,
        seen: &mut [bool],
    ) {
        self.verts.clear();
        self.starts.clear();
        self.starts.push(0);
        for s in seeds {
            if !seen[s.index()] {
                seen[s.index()] = true;
                self.verts.push(s);
            }
        }
        for _ in 0..radius {
            let (from, to) = (self.starts[self.starts.len() - 1], self.verts.len());
            self.starts.push(to);
            for i in from..to {
                let u = self.verts[i];
                for &v in old.neighbors(u).iter().chain(new.neighbors(u)) {
                    if !seen[v.index()] {
                        seen[v.index()] = true;
                        self.verts.push(v);
                    }
                }
            }
        }
        self.starts.push(self.verts.len());
        for v in &self.verts {
            seen[v.index()] = false;
        }
    }

    /// The vertices at depth `d`.
    fn layer(&self, d: usize) -> &[UserId] {
        &self.verts[self.starts[d]..self.starts[d + 1]]
    }

    /// The vertices at depth at most `d`.
    fn within(&self, d: usize) -> &[UserId] {
        &self.verts[..self.starts[d + 1]]
    }

    /// The depth of each of `n` vertices. Vertices outside the ball read
    /// its radius plus one, so any depth sum that includes one exceeds a
    /// budget of at most the radius.
    fn depths(&self, n: usize) -> Vec<usize> {
        let radius = self.starts.len() - 2;
        let mut depth = vec![radius + 1; n];
        for d in 0..=radius {
            for v in self.layer(d) {
                depth[v.index()] = d;
            }
        }
        depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `work_per_pair` under which [`reachable_rows`] always enumerates
    /// per source, and the one under which it always uses multi-source
    /// depths.
    const PER_SOURCE: usize = usize::MAX;
    const MULTI_SOURCE: usize = 0;

    fn pair(a: u32, b: u32) -> UserPair {
        UserPair::new(UserId::new(a), UserId::new(b))
    }

    /// Every pair over `n` vertices, in canonical order.
    fn all_pairs(n: u32) -> Vec<UserPair> {
        (0..n).flat_map(|a| (a + 1..n).map(move |b| pair(a, b))).collect()
    }

    /// The marked pairs of [`reachable_rows`] over every pair, as pairs.
    fn reached(
        old: &SocialGraph,
        new: &SocialGraph,
        k: usize,
        dirty: &[u32],
        work_per_pair: usize,
    ) -> (Vec<UserPair>, ReachableRows) {
        let pairs = all_pairs(old.n_vertices() as u32);
        let index = PairIndex::new(&pairs);
        let dirty: Vec<UserId> = dirty.iter().map(|&w| UserId::new(w)).collect();
        let rows = reachable_rows(old, new, &index, k, &dirty, work_per_pair);
        assert!(work_per_pair == MULTI_SOURCE || !rows.multi_source);
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
        // Path 0-1-2-3-4-5; edge (2,3) flips. With k = 3 a pair needs
        // d_2(a) + d_3(b) ≤ 2 in one orientation: (0,3) reads 2 + 0 and
        // (1,4) reads 1 + 1, each over a path through the edge.
        let old = path6();
        let mut new = old.clone();
        new.remove_edge(pair(2, 3));
        let (marked, rows) = reached(&old, &new, 3, &[], PER_SOURCE);
        let expected = vec![
            pair(0, 3),
            pair(1, 2),
            pair(1, 3),
            pair(1, 4),
            pair(2, 3),
            pair(2, 4),
            pair(2, 5),
            pair(3, 4),
        ];
        assert_eq!(marked, expected);
        assert_eq!((rows.by_edges, rows.by_vertices), (expected.len(), 0));
        // (0,2) reads d_2(0) + d_3(2) = 2 + 1 and d_3(0) > 2: both of its
        // endpoints lie near vertex 2, and no 0-2 path uses the edge. The
        // multi-source depths read 2 + 0 and mark it, and (3,5) likewise.
        let (multi, _) = reached(&old, &new, 3, &[], MULTI_SOURCE);
        let extra: Vec<UserPair> = multi.into_iter().filter(|p| !marked.contains(p)).collect();
        assert_eq!(extra, vec![pair(0, 2), pair(3, 5)]);
    }

    #[test]
    fn multi_source_pairs_ends_of_different_edges() {
        // Path 0-1-2-3-4-5; edges (0,1) and (4,5) flip, k = 3. Vertex 1
        // touches one changed edge and vertex 4 the other, so the
        // multi-source depths read 0 + 0 for (1,4). Per source, 4 lies
        // beyond depth 2 of both 0 and 1, and 1 beyond depth 2 of both 4
        // and 5; the one 1-4 path, 1-2-3-4, uses neither edge.
        let old = path6();
        let mut new = old.clone();
        new.remove_edge(pair(0, 1));
        new.remove_edge(pair(4, 5));
        let (multi, _) = reached(&old, &new, 3, &[], MULTI_SOURCE);
        let (per_source, _) = reached(&old, &new, 3, &[], PER_SOURCE);
        assert!(multi.contains(&pair(1, 4)));
        assert!(!per_source.contains(&pair(1, 4)));
        assert!(per_source.iter().all(|p| multi.contains(p)), "per-source within multi-source");
    }

    #[test]
    fn vertex_term_has_budget_k() {
        // Path 0-1-2-3-4-5, no edge change, vertex 2 dirty, k = 2: the only
        // length-2 paths through 2 are 1-2-3, so (1,3) and the pairs with
        // an endpoint at depth 0 and the other within depth 2 are marked.
        // One seed has one depth, so both rules agree.
        let g = path6();
        let expected = vec![pair(0, 2), pair(1, 2), pair(1, 3), pair(2, 3), pair(2, 4)];
        for limit in [PER_SOURCE, MULTI_SOURCE] {
            let (marked, rows) = reached(&g, &g, 2, &[2], limit);
            assert_eq!(marked, expected);
            assert_eq!((rows.by_edges, rows.by_vertices), (0, expected.len()));
        }
    }

    #[test]
    fn depths_use_union_adjacency() {
        // Edge (1,2) exists in one graph only and vertex 0 is dirty, k = 2:
        // the dirty-vertex depths reach 2 through it in either direction.
        let one = SocialGraph::from_edges(3, [pair(0, 1), pair(1, 2)]);
        let other = SocialGraph::from_edges(3, [pair(0, 1)]);
        for (old, new) in [(&one, &other), (&other, &one)] {
            for limit in [PER_SOURCE, MULTI_SOURCE] {
                let (_, rows) = reached(old, new, 2, &[0], limit);
                assert_eq!(rows.by_vertices, 2, "(0,1), and (0,2) over the path 0-1-2");
            }
        }
    }

    #[test]
    fn no_change_marks_nothing() {
        let g = path6();
        for limit in [PER_SOURCE, MULTI_SOURCE] {
            let (marked, rows) = reached(&g, &g, 4, &[], limit);
            assert!(marked.is_empty());
            assert_eq!(rows, ReachableRows::default());
        }
    }

    #[test]
    fn terms_are_counted_separately() {
        // Edge (0,1) flips and vertex 5 is dirty on the path 0-1-2-3-4-5,
        // k = 2: the terms mark opposite ends of the path.
        let old = path6();
        let mut new = old.clone();
        new.remove_edge(pair(0, 1));
        let (marked, rows) = reached(&old, &new, 2, &[5], PER_SOURCE);
        assert_eq!(rows.by_edges, 2); // (0,1), (0,2)
        assert_eq!(rows.by_vertices, 2); // (3,5), (4,5)
        assert_eq!(marked.len(), 4);
        // The multi-source depths also mark (1,2): both endpoints sit at
        // depth 0 or 1 from the edge's two ends.
        let (marked, rows) = reached(&old, &new, 2, &[5], MULTI_SOURCE);
        assert_eq!((rows.by_edges, rows.by_vertices, marked.len()), (3, 2, 5));
    }

    #[test]
    fn the_work_limit_picks_the_rule() {
        let pairs = all_pairs(16);
        let index = PairIndex::new(&pairs);
        // One flipped edge on a path visits a handful of pairs.
        let old = path6();
        let mut new = old.clone();
        new.remove_edge(pair(2, 3));
        let six = PairIndex::new(&all_pairs(6));
        assert!(!reachable_rows(&old, &new, &six, 3, &[], REACH_WORK_PER_PAIR).multi_source);
        // Rewiring a whole 16-clique visits 256 candidates per pair: every
        // edge pairs a ball of layers 1 and 15 with another.
        let clique = SocialGraph::from_edges(16, pairs.iter().copied());
        let empty = SocialGraph::new(16);
        let rows = reachable_rows(&clique, &empty, &index, 3, &[], REACH_WORK_PER_PAIR);
        assert!(rows.multi_source);
        assert_eq!(rows.rows, (0..pairs.len()).collect::<Vec<_>>());
        let per_source = reachable_rows(&clique, &empty, &index, 3, &[], PER_SOURCE);
        assert!(!per_source.multi_source);
        assert_eq!(per_source.rows, rows.rows);
    }
}
