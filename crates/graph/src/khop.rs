//! k-hop reachable subgraph extraction (§III-C-1 of the paper).
//!
//! For a user pair `(a, b)` the k-hop reachable subgraph collects all paths
//! of length 2..=k between them, *shortest lengths first*, removing the
//! intermediate vertices of already-collected paths from the working graph
//! before looking for longer paths. Theorem 1 of the paper follows from this
//! construction: every retained path is an induced path, and paths of
//! different lengths share no edges (or intermediate vertices).

use std::collections::BTreeMap;

use seeker_trace::{UserId, UserPair};

use crate::graph::SocialGraph;

/// The k-hop reachable subgraph between a pair of users.
///
/// Stored as the collected paths grouped by length; each path is the full
/// vertex sequence `a, v₁, …, b`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KHopSubgraph {
    pair: UserPair,
    k: usize,
    paths_by_len: BTreeMap<usize, Vec<Vec<UserId>>>,
}

impl KHopSubgraph {
    /// Extracts the k-hop reachable subgraph of `pair` from `graph`.
    ///
    /// Follows the paper's three-step procedure:
    /// 1. start with path length `l = 2` and an empty subgraph;
    /// 2. find **all** length-`l` paths between the endpoints in the working
    ///    graph, add them to the subgraph, then delete every intermediate
    ///    vertex of the found paths (with incident edges) from the working
    ///    graph;
    /// 3. increment `l` and repeat while `l ≤ k`.
    ///
    /// The direct edge `a–b` (a length-1 path), if present, is *not* part of
    /// the subgraph — the feature describes indirect reachability. The
    /// paths are the ones [`PathWalker::visit_khop_paths`] visits, in its
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint of `pair` is outside `graph`'s vertex space, or
    /// if `k < 2`.
    pub fn extract(graph: &SocialGraph, pair: UserPair, k: usize) -> Self {
        let mut paths_by_len: BTreeMap<usize, Vec<Vec<UserId>>> = BTreeMap::new();
        PathWalker::new().visit_khop_paths(graph, pair, k, |l, path| {
            // The subgraph owns its paths: this copy is the output.
            // lint:allow(hot-alloc)
            paths_by_len.entry(l).or_default().push(path.to_vec());
        });
        #[cfg(debug_assertions)]
        {
            // Theorem 1: interior vertices consumed at length l are disabled
            // for every longer length, so batches of different lengths are
            // internally vertex-disjoint.
            let mut earlier = std::collections::BTreeSet::new();
            for paths in paths_by_len.values() {
                let batch: std::collections::BTreeSet<UserId> = paths
                    .iter()
                    .flat_map(|p| p[1..p.len() - 1].iter().copied())
                    // Debug-assertions-only check. lint:allow(hot-alloc)
                    .collect();
                debug_assert!(
                    batch.is_disjoint(&earlier),
                    "Theorem 1 violated: interior vertex reused across path lengths for {pair}"
                );
                earlier.extend(batch);
            }
        }
        KHopSubgraph { pair, k, paths_by_len }
    }

    /// The pair this subgraph connects.
    pub fn pair(&self) -> UserPair {
        self.pair
    }

    /// The `k` used during extraction.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Whether no connecting path of length ≤ k exists.
    pub fn is_empty(&self) -> bool {
        self.paths_by_len.is_empty()
    }

    /// All collected paths of length `l` (vertex sequences, endpoints
    /// included). Empty slice when none were found.
    pub fn paths_of_len(&self, l: usize) -> &[Vec<UserId>] {
        self.paths_by_len.get(&l).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of collected paths of length `l`.
    pub fn n_paths_of_len(&self, l: usize) -> usize {
        self.paths_of_len(l).len()
    }

    /// Total number of collected paths.
    pub fn n_paths(&self) -> usize {
        self.paths_by_len.values().map(Vec::len).sum()
    }

    /// Iterator over `(length, paths)` groups in increasing length order.
    pub fn groups(&self) -> impl Iterator<Item = (usize, &[Vec<UserId>])> {
        self.paths_by_len.iter().map(|(&l, ps)| (l, ps.as_slice()))
    }

    /// All edges of the subgraph, as canonical pairs, without duplicates
    /// across paths of the same length (paths of different lengths cannot
    /// share edges by construction).
    pub fn edges(&self) -> Vec<UserPair> {
        let mut out: Vec<UserPair> = Vec::new();
        for paths in self.paths_by_len.values() {
            for path in paths {
                for w in path.windows(2) {
                    out.push(UserPair::new(w[0], w[1]));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Counts length-`l` paths between `a` and `b` in `graph` without building a
/// subgraph — the raw statistic behind Fig. 5 of the paper.
pub fn count_paths_of_length(graph: &SocialGraph, a: UserId, b: UserId, l: usize) -> usize {
    let mut n = 0usize;
    PathWalker::new().visit_paths_of_length(graph, a, b, l, |_| n += 1);
    n
}

/// Enumerates **all** simple paths of exactly `l` edges between `a` and `b`,
/// without the shortest-first consumption of Theorem 1. This is the naive
/// alternative the k-hop construction improves on; exposed for the ablation
/// benches.
pub fn all_paths_of_length(
    graph: &SocialGraph,
    a: UserId,
    b: UserId,
    l: usize,
) -> Vec<Vec<UserId>> {
    let mut out = Vec::new();
    PathWalker::new().visit_paths_of_length(graph, a, b, l, |path| out.push(path.to_vec()));
    out
}

/// The one depth-first path enumerator behind every path query of this
/// module. It hands each path it finds to a callback as a borrowed vertex
/// sequence, endpoints included, and keeps its buffers between calls, so a
/// caller that walks many pairs with one walker allocates nothing per pair
/// or per path once the buffers have grown.
///
/// The walk keeps no per-vertex state: the path prefix (at most `l + 1`
/// vertices) answers "on the path", and the last two hops are resolved as
/// one sorted merge of `N(current)` and `N(b)`, which visits the middle
/// vertices in the order a per-neighbor scan would. Paths of one length
/// come in depth-first order over the sorted adjacency lists.
#[derive(Debug, Default)]
pub struct PathWalker {
    /// The current path prefix, source first.
    prefix: Vec<UserId>,
    /// Sorted interior vertices of the paths visited at shorter lengths:
    /// the working graph of the k-hop walk is the input graph minus these,
    /// O(paths found) rather than O(users).
    consumed: Vec<UserId>,
    /// Interior vertices of the current length's paths, merged into
    /// `consumed` once that length is done.
    found: Vec<UserId>,
}

impl PathWalker {
    /// A walker with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Visits the k-hop reachable subgraph of `pair`: calls `visit(l, path)`
    /// for every path of [`KHopSubgraph::extract`], lengths in increasing
    /// order and each length's paths in depth-first order. A length's paths
    /// are all visited before its interior vertices leave the working
    /// graph. Returns the number of paths visited, and adds one to the
    /// `graph.khop.extractions` counter and that number to
    /// `graph.khop.paths`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint of `pair` is outside `graph`'s vertex space, or
    /// if `k < 2`.
    pub fn visit_khop_paths(
        &mut self,
        graph: &SocialGraph,
        pair: UserPair,
        k: usize,
        mut visit: impl FnMut(usize, &[UserId]),
    ) -> usize {
        seeker_obs::counter!("graph.khop.extractions", 1);
        assert!(k >= 2, "k-hop subgraphs require k >= 2, got {k}");
        assert!(
            pair.hi().index() < graph.n_vertices(),
            "pair endpoint {} outside graph",
            pair.hi()
        );
        let (a, b) = pair.as_tuple();
        self.consumed.clear();
        let mut n_paths = 0usize;
        for l in 2..=k {
            self.found.clear();
            let found = &mut self.found;
            self.prefix.clear();
            self.prefix.push(a);
            extend_prefix(graph, &self.consumed, b, l, &mut self.prefix, &mut |path| {
                found.extend_from_slice(&path[1..path.len() - 1]);
                n_paths += 1;
                visit(l, path);
            });
            if !self.found.is_empty() {
                self.consumed.extend_from_slice(&self.found);
                self.consumed.sort_unstable();
                self.consumed.dedup();
            }
        }
        // The composite feature reads one presence row per edge of these.
        seeker_obs::counter!("graph.khop.paths", n_paths as u64);
        n_paths
    }

    /// Calls `visit(path)` for every simple path of exactly `l` edges from
    /// `a` to `b`, in depth-first order, with no vertex consumed.
    fn visit_paths_of_length(
        &mut self,
        graph: &SocialGraph,
        a: UserId,
        b: UserId,
        l: usize,
        mut visit: impl FnMut(&[UserId]),
    ) {
        self.prefix.clear();
        self.prefix.push(a);
        extend_prefix(graph, &[], b, l, &mut self.prefix, &mut visit);
    }
}

/// Calls `visit` with every length-`l` path to `target` that extends the
/// path prefix on `stack` and whose interior avoids the sorted `consumed`
/// vertices.
fn extend_prefix<F: FnMut(&[UserId])>(
    graph: &SocialGraph,
    consumed: &[UserId],
    target: UserId,
    l: usize,
    stack: &mut Vec<UserId>,
    visit: &mut F,
) {
    // Callers seed the stack with the source vertex; an empty stack means
    // there is no path prefix to extend.
    let Some(&current) = stack.last() else { return };
    match l + 1 - stack.len() {
        0 => {
            if current == target {
                visit(stack);
            }
        }
        1 => {
            if !stack.contains(&target) && graph.neighbors(current).binary_search(&target).is_ok() {
                stack.push(target);
                visit(stack);
                stack.pop();
            }
        }
        2 => {
            if stack.contains(&target) {
                return;
            }
            // current → x → target for every x adjacent to both.
            let (near, far) = (graph.neighbors(current), graph.neighbors(target));
            let (mut i, mut j) = (0usize, 0usize);
            while let (Some(&x), Some(&y)) = (near.get(i), far.get(j)) {
                if x < y {
                    i += 1;
                } else if y < x {
                    j += 1;
                } else {
                    if !stack.contains(&x) && consumed.binary_search(&x).is_err() {
                        stack.extend([x, target]);
                        visit(stack);
                        stack.truncate(stack.len() - 2);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        _ => {
            // The endpoint can only appear as the final vertex, and
            // intermediate vertices must not be consumed by shorter paths.
            for &next in graph.neighbors(current) {
                if next == target || stack.contains(&next) || consumed.binary_search(&next).is_ok()
                {
                    continue;
                }
                stack.push(next);
                extend_prefix(graph, consumed, target, l, stack, visit);
                stack.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn pair(a: u32, b: u32) -> UserPair {
        UserPair::new(UserId::new(a), UserId::new(b))
    }

    /// The reference kernel: a DFS over an `alive` mask of every vertex, a
    /// fresh `on_path` mask per call, and a scan of every neighbor on the
    /// last hop. The stack-and-merge kernel must emit the same paths in the
    /// same order.
    mod reference {
        use super::*;

        pub(super) fn extract(graph: &SocialGraph, pair: UserPair, k: usize) -> KHopSubgraph {
            let (a, b) = pair.as_tuple();
            let mut alive = vec![true; graph.n_vertices()];
            let mut paths_by_len = BTreeMap::new();
            for l in 2..=k {
                let found = paths_of_length(graph, &alive, a, b, l);
                if found.is_empty() {
                    continue;
                }
                for path in &found {
                    for v in &path[1..path.len() - 1] {
                        alive[v.index()] = false;
                    }
                }
                paths_by_len.insert(l, found);
            }
            KHopSubgraph { pair, k, paths_by_len }
        }

        pub(super) fn all_paths(
            graph: &SocialGraph,
            a: UserId,
            b: UserId,
            l: usize,
        ) -> Vec<Vec<UserId>> {
            paths_of_length(graph, &vec![true; graph.n_vertices()], a, b, l)
        }

        fn paths_of_length(
            graph: &SocialGraph,
            alive: &[bool],
            a: UserId,
            b: UserId,
            l: usize,
        ) -> Vec<Vec<UserId>> {
            let mut out = Vec::new();
            let mut stack = vec![a];
            let mut on_path = vec![false; graph.n_vertices()];
            on_path[a.index()] = true;
            dfs(graph, alive, b, l, &mut stack, &mut on_path, &mut out);
            out
        }

        fn dfs(
            graph: &SocialGraph,
            alive: &[bool],
            target: UserId,
            l: usize,
            stack: &mut Vec<UserId>,
            on_path: &mut [bool],
            out: &mut Vec<Vec<UserId>>,
        ) {
            let current = *stack.last().unwrap();
            let remaining = l + 1 - stack.len();
            if remaining == 0 {
                if current == target {
                    out.push(stack.clone());
                }
                return;
            }
            for &next in graph.neighbors(current) {
                if on_path[next.index()] {
                    continue;
                }
                if next == target {
                    if remaining == 1 {
                        stack.push(next);
                        out.push(stack.clone());
                        stack.pop();
                    }
                    continue;
                }
                if !alive[next.index()] || remaining == 1 {
                    continue;
                }
                stack.push(next);
                on_path[next.index()] = true;
                dfs(graph, alive, target, l, stack, on_path, out);
                on_path[next.index()] = false;
                stack.pop();
            }
        }
    }

    /// Random graphs where up to three hub vertices are joined to roughly
    /// half of all vertices, so merges meet long adjacency lists.
    fn arb_hub_graph(max_n: usize) -> impl Strategy<Value = SocialGraph> {
        (3..max_n).prop_flat_map(|n| {
            let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..n * 2);
            let hubs = proptest::collection::vec((0..n as u32, any::<u64>()), 0..4);
            (edges, hubs).prop_map(move |(raw, hubs)| {
                let mut g = SocialGraph::new(n);
                for (a, b) in raw {
                    if a != b {
                        g.add_edge(pair(a, b));
                    }
                }
                for (h, mask) in hubs {
                    for v in (0..n as u32).filter(|&v| v != h && mask >> (v % 64) & 1 == 1) {
                        g.add_edge(pair(h, v));
                    }
                }
                g
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn kernel_matches_mask_dfs_reference(g in arb_hub_graph(18), k in 2usize..5) {
            let n = g.n_vertices() as u32;
            for a in 0..n {
                for b in 0..n {
                    if a < b {
                        let p = pair(a, b);
                        prop_assert_eq!(KHopSubgraph::extract(&g, p, k), reference::extract(&g, p, k));
                    }
                    // Both directions, and a == b, for the path queries.
                    let (x, y) = (UserId::new(a), UserId::new(b));
                    for l in 0..=k {
                        let expected = reference::all_paths(&g, x, y, l);
                        prop_assert_eq!(count_paths_of_length(&g, x, y, l), expected.len());
                        prop_assert_eq!(all_paths_of_length(&g, x, y, l), expected);
                    }
                }
            }
        }

        /// One walker reused over every pair, in a scrambled pair order so
        /// a buffer left over from a longer walk would show, visits exactly
        /// the reference's paths, grouped by length and in its order.
        #[test]
        fn walker_visits_the_reference_paths_in_order(g in arb_hub_graph(18), k in 2usize..5) {
            let n = g.n_vertices() as u32;
            let mut walker = PathWalker::new();
            for a in (0..n).rev() {
                for b in 0..a {
                    let p = pair(a, b);
                    let mut visited: Vec<(usize, Vec<UserId>)> = Vec::new();
                    let n_paths =
                        walker.visit_khop_paths(&g, p, k, |l, path| visited.push((l, path.to_vec())));
                    let expected: Vec<(usize, Vec<UserId>)> = reference::extract(&g, p, k)
                        .groups()
                        .flat_map(|(l, paths)| paths.iter().map(move |path| (l, path.clone())))
                        .collect();
                    prop_assert_eq!(n_paths, expected.len());
                    prop_assert_eq!(visited, expected);
                }
            }
        }
    }

    #[test]
    fn path_lengths_zero_and_one_are_exact() {
        let g = fig4();
        let (a, b, c) = (UserId::new(0), UserId::new(1), UserId::new(2));
        // Length 0 joins a vertex to itself only, never two distinct users.
        assert!(all_paths_of_length(&g, a, b, 0).is_empty());
        assert_eq!(count_paths_of_length(&g, a, b, 0), 0);
        // Length 1 is the direct edge, in either direction, if present.
        assert_eq!(all_paths_of_length(&g, a, c, 1), vec![vec![a, c]]);
        assert_eq!(all_paths_of_length(&g, c, a, 1), vec![vec![c, a]]);
        assert_eq!(count_paths_of_length(&g, a, b, 1), 0);
        for (x, y) in [(a, b), (a, c), (c, b)] {
            for l in 0..=1 {
                assert_eq!(all_paths_of_length(&g, x, y, l), reference::all_paths(&g, x, y, l));
            }
        }
    }

    /// The Fig. 4 example graph of the paper: vertices a=0, b=1, c=2, d=3,
    /// e=4, f=5, g=6, h=7.
    /// Edges: a-c, c-b (len-2 path a-c-b), c-e, e-b, a-f, f-h, h-b, f-g, g-h,
    /// a-d, d-e.
    fn fig4() -> SocialGraph {
        SocialGraph::from_edges(
            8,
            [
                pair(0, 2), // a-c
                pair(2, 1), // c-b
                pair(2, 4), // c-e
                pair(4, 1), // e-b
                pair(0, 5), // a-f
                pair(5, 7), // f-h
                pair(7, 1), // h-b
                pair(5, 6), // f-g
                pair(6, 7), // g-h
                pair(0, 3), // a-d
                pair(3, 4), // d-e
            ],
        )
    }

    #[test]
    fn fig4_example_matches_paper() {
        let g = fig4();
        let sub = KHopSubgraph::extract(&g, pair(0, 1), 3);
        // Length 2: a-c-b. Consumes c.
        let l2: Vec<_> = sub.paths_of_len(2).to_vec();
        assert_eq!(l2.len(), 1);
        assert_eq!(l2[0], vec![UserId::new(0), UserId::new(2), UserId::new(1)]);
        // Length 3: with c consumed, a-c-e-b is gone; a-f-h-b and a-d-e-b
        // remain.
        let l3: BTreeSet<Vec<u32>> =
            sub.paths_of_len(3).iter().map(|p| p.iter().map(|u| u.raw()).collect()).collect();
        let expected: BTreeSet<Vec<u32>> =
            [vec![0, 5, 7, 1], vec![0, 3, 4, 1]].into_iter().collect();
        assert_eq!(l3, expected);
        // The paper notes a-f-g-h-b (length 4) is pruned during G³ anyway.
        assert_eq!(sub.n_paths(), 3);
    }

    #[test]
    fn direct_edge_is_not_a_path() {
        let g = SocialGraph::from_edges(2, [pair(0, 1)]);
        let sub = KHopSubgraph::extract(&g, pair(0, 1), 3);
        assert!(sub.is_empty());
    }

    #[test]
    fn disconnected_pair_yields_empty_subgraph() {
        let g = SocialGraph::from_edges(4, [pair(0, 1), pair(2, 3)]);
        let sub = KHopSubgraph::extract(&g, pair(0, 2), 4);
        assert!(sub.is_empty());
        assert_eq!(sub.n_paths(), 0);
        assert!(sub.edges().is_empty());
    }

    #[test]
    fn shorter_paths_consume_vertices_of_longer_candidates() {
        // a-x-b and a-x-y-b share x; after the length-2 round consumes x,
        // the length-3 candidate must disappear.
        let g = SocialGraph::from_edges(4, [pair(0, 2), pair(2, 1), pair(2, 3), pair(3, 1)]);
        let sub = KHopSubgraph::extract(&g, pair(0, 1), 3);
        assert_eq!(sub.n_paths_of_len(2), 1);
        assert_eq!(sub.n_paths_of_len(3), 0);
    }

    #[test]
    fn paths_of_different_lengths_share_no_edges() {
        let g = fig4();
        let sub = KHopSubgraph::extract(&g, pair(0, 1), 4);
        let mut seen: BTreeSet<UserPair> = BTreeSet::new();
        for (_, paths) in sub.groups() {
            let mut this_len: BTreeSet<UserPair> = BTreeSet::new();
            for p in paths {
                for w in p.windows(2) {
                    this_len.insert(UserPair::new(w[0], w[1]));
                }
            }
            assert!(seen.intersection(&this_len).next().is_none(), "edge reuse across lengths");
            seen.extend(this_len);
        }
    }

    #[test]
    fn all_paths_exist_in_original_graph() {
        let g = fig4();
        let sub = KHopSubgraph::extract(&g, pair(0, 1), 4);
        for (l, paths) in sub.groups() {
            for p in paths {
                assert_eq!(p.len(), l + 1);
                assert_eq!(p[0], UserId::new(0));
                assert_eq!(*p.last().unwrap(), UserId::new(1));
                for w in p.windows(2) {
                    assert!(g.has_edge(UserPair::new(w[0], w[1])), "missing edge {w:?}");
                }
            }
        }
    }

    #[test]
    fn count_paths_matches_enumeration() {
        let g = fig4();
        assert_eq!(count_paths_of_length(&g, UserId::new(0), UserId::new(1), 2), 1);
        // Without consumption: a-c-e-b, a-d-e-b, a-f-h-b.
        assert_eq!(count_paths_of_length(&g, UserId::new(0), UserId::new(1), 3), 3);
        // a-f-g-h-b and a-d-e-c-b.
        assert_eq!(count_paths_of_length(&g, UserId::new(0), UserId::new(1), 4), 2);
    }

    #[test]
    #[should_panic(expected = "k >= 2")]
    fn rejects_k_below_two() {
        let g = SocialGraph::new(3);
        let _ = KHopSubgraph::extract(&g, pair(0, 1), 1);
    }

    #[test]
    fn paths_are_simple() {
        // A dense-ish graph to stress the DFS.
        let mut g = SocialGraph::new(7);
        for i in 0..7u32 {
            for j in (i + 1)..7 {
                if (i + j) % 2 == 0 || j == i + 1 {
                    g.add_edge(pair(i, j));
                }
            }
        }
        let sub = KHopSubgraph::extract(&g, pair(0, 6), 4);
        for (_, paths) in sub.groups() {
            for p in paths {
                let set: BTreeSet<_> = p.iter().collect();
                assert_eq!(set.len(), p.len(), "path revisits a vertex: {p:?}");
            }
        }
    }

    #[test]
    fn intermediates_unique_across_lengths() {
        let g = fig4();
        let sub = KHopSubgraph::extract(&g, pair(0, 1), 4);
        let mut seen: BTreeSet<UserId> = BTreeSet::new();
        for (_, paths) in sub.groups() {
            let mut this: BTreeSet<UserId> = BTreeSet::new();
            for p in paths {
                this.extend(p[1..p.len() - 1].iter().copied());
            }
            assert!(
                seen.intersection(&this).next().is_none(),
                "intermediate vertex reused across lengths"
            );
            seen.extend(this);
        }
    }
}
