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
use crate::pair_index::PairIndex;

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

/// The row of every adjacency slot of one graph in a pair-indexed store,
/// laid out like the adjacency lists: slot `s` of vertex `u` holds the row
/// of the pair `{u, N(u)[s]}`, or [`EdgeRows::MISSING`] when the index
/// lacks that pair. A walk that steps from `u` to its `s`-th neighbour
/// reads the edge's row here instead of searching a [`PairIndex`].
#[derive(Debug, Clone)]
pub struct EdgeRows<'g> {
    graph: &'g SocialGraph,
    /// `offsets[u]..offsets[u + 1]` are the slots of vertex `u`.
    offsets: Vec<usize>,
    rows: Vec<u32>,
}

impl<'g> EdgeRows<'g> {
    /// The row of a slot whose pair the index does not hold.
    pub const MISSING: u32 = u32::MAX;

    /// Looks every edge of `graph` up in `index`, once from each endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `index` maps an edge of `graph` to a row of
    /// [`EdgeRows::MISSING`] or more.
    pub fn new(graph: &'g SocialGraph, index: &PairIndex) -> Self {
        let mut offsets = Vec::with_capacity(graph.n_vertices() + 1);
        let mut rows = Vec::with_capacity(2 * graph.n_edges());
        offsets.push(0);
        for u in graph.vertices() {
            rows.extend(graph.neighbors(u).iter().map(|&v| match index.get(UserPair::new(u, v)) {
                Some(r) => {
                    assert!(r < Self::MISSING as usize, "row {r} does not fit an edge-row slot");
                    r as u32
                }
                None => Self::MISSING,
            }));
            offsets.push(rows.len());
        }
        EdgeRows { graph, offsets, rows }
    }

    /// The rows of `u`'s slots, in the order of `graph.neighbors(u)`.
    fn of(&self, u: UserId) -> &[u32] {
        &self.rows[self.offsets[u.index()]..self.offsets[u.index() + 1]]
    }
}

/// Whether the k-hop walk of `pair` enumerates its paths of length 3 and
/// more from `b` rather than from `a`: whether `b`'s two-hop sum
/// `Σ_{x ∈ N(b)} deg x` is below `a`'s. A length-`l ≥ 3` walk from `a`
/// merges `N(v)` with `N(b)` at every `v` it reaches one hop short of the
/// last two, so at `l = 3` it reads up to `Σ_{v ∈ N(a)} deg v +
/// deg a · deg b` entries, and from `b` the mirror image; the products
/// cancel. Ties go to `a`.
fn walks_from_b(graph: &SocialGraph, pair: UserPair, k: usize) -> bool {
    let two_hop_sum =
        |u: UserId| -> usize { graph.neighbors(u).iter().map(|&v| graph.degree(v)).sum() };
    k >= 3 && two_hop_sum(pair.hi()) < two_hop_sum(pair.lo())
}

/// The one depth-first path enumerator behind every path query of this
/// module. It hands each path it finds to a callback as a borrowed vertex
/// sequence, endpoints included, or as the sequence of its edges' rows in
/// an [`EdgeRows`] table, and keeps its buffers between calls, so a caller
/// that walks many pairs with one walker allocates nothing per pair or per
/// path once the buffers have grown.
///
/// The walk keeps no per-vertex state: the path prefix (at most `l + 1`
/// vertices) answers "on the path", and the last two hops are resolved as
/// one sorted merge of `N(current)` with the target's neighbours that a
/// path may end through, which visits the middle vertices in the order a
/// per-neighbor scan would. Paths of one length come in depth-first order
/// over the sorted adjacency lists, which is the lexicographic order of
/// their vertex sequences.
#[derive(Debug, Default)]
pub struct PathWalker {
    /// The current path prefix, source first.
    prefix: Vec<UserId>,
    /// The rows of the prefix's edges when the walk reads an [`EdgeRows`]
    /// table (one fewer than `prefix`), else empty.
    prefix_rows: Vec<u32>,
    /// Sorted interior vertices of the paths visited at shorter lengths:
    /// the working graph of the k-hop walk is the input graph minus these,
    /// O(paths found) rather than O(users).
    consumed: Vec<UserId>,
    /// Interior vertices of the current length's paths, merged into
    /// `consumed` once that length is done, unless it is the last.
    found: Vec<UserId>,
    /// The target's neighbours a path of the current length can end
    /// through ([`Walk::last`]), and the rows of their edges to it.
    last: Vec<UserId>,
    last_rows: Vec<u32>,
    /// The paths of a length walked from `b`, each turned to run from `a`:
    /// `l + 1` vertices per path.
    mirrored: Vec<UserId>,
    /// Their edge rows, `l` per path, in the same `a`-to-`b` order (empty
    /// without a table).
    mirrored_rows: Vec<u32>,
    /// The order the mirrored paths are visited in: each path's first two
    /// interior vertices as one key, and its index in `mirrored`.
    order: Vec<(u64, u32)>,
}

/// What the walk of one length reads and never changes.
struct Walk<'a> {
    graph: &'a SocialGraph,
    table: Option<&'a EdgeRows<'a>>,
    /// Sorted interior vertices of shorter lengths' paths.
    consumed: &'a [UserId],
    target: UserId,
    l: usize,
    /// `N(target)` less the source and the `consumed` vertices, ascending:
    /// every vertex a path can visit just before `target`.
    last: &'a [UserId],
    /// The row of each `last` vertex's edge to `target` (empty without a
    /// table).
    last_rows: &'a [u32],
}

/// Fills `last` and `last_rows` for a walk from `source` to `target` (see
/// [`Walk::last`]), with one cursor into the sorted `consumed` vertices.
fn fill_last_hops(
    graph: &SocialGraph,
    table: Option<&EdgeRows<'_>>,
    consumed: &[UserId],
    (source, target): (UserId, UserId),
    last: &mut Vec<UserId>,
    last_rows: &mut Vec<u32>,
) {
    last.clear();
    last_rows.clear();
    let rows = table.map(|t| t.of(target));
    let mut unconsumed = consumed.iter().peekable();
    for (j, &y) in graph.neighbors(target).iter().enumerate() {
        while unconsumed.next_if(|&&c| c < y).is_some() {}
        if y != source && unconsumed.peek() != Some(&&y) {
            last.push(y);
            last_rows.extend(rows.map(|rows| rows[j]));
        }
    }
}

impl PathWalker {
    /// A walker with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Visits the k-hop reachable subgraph of `pair`: calls `visit(l, path)`
    /// for every path of [`KHopSubgraph::extract`], lengths in increasing
    /// order and each length's paths in depth-first order from `a`. A
    /// length's paths are all visited before its interior vertices leave
    /// the working graph. Returns the number of paths visited, and adds one
    /// to the `graph.khop.extractions` counter, that number to
    /// `graph.khop.paths`, and one to `graph.khop.mirrored` when the paths
    /// of length 3 and more were walked from `b`.
    ///
    /// Every length from 3 on is walked from the endpoint with the smaller
    /// two-hop sum. Walked from `b`, a length's paths are collected, sorted
    /// by their interior vertices as seen from `a` and visited turned round:
    /// the simple paths of one length that avoid the consumed vertices are
    /// the same set from either end, and a walk from `a` emits that set in
    /// lexicographic order of its interiors, so the visits are the same.
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
        self.walk_khop(graph, None, pair, k, &mut |l, path, _| visit(l, path))
    }

    /// [`PathWalker::visit_khop_paths`] over the graph of `rows`, handing
    /// each path to `visit(l, path_rows)` as the rows of its edges in
    /// `rows`, in path order from `a`: one slot read per edge, no index
    /// search.
    ///
    /// # Panics
    ///
    /// As [`PathWalker::visit_khop_paths`].
    pub fn visit_khop_rows(
        &mut self,
        rows: &EdgeRows<'_>,
        pair: UserPair,
        k: usize,
        mut visit: impl FnMut(usize, &[u32]),
    ) -> usize {
        self.walk_khop(rows.graph, Some(rows), pair, k, &mut |l, _, path_rows| visit(l, path_rows))
    }

    /// The k-hop walk behind both visitors: `visit(l, path, path_rows)`,
    /// `path_rows` empty without a `table`.
    fn walk_khop<F: FnMut(usize, &[UserId], &[u32])>(
        &mut self,
        graph: &SocialGraph,
        table: Option<&EdgeRows<'_>>,
        pair: UserPair,
        k: usize,
        visit: &mut F,
    ) -> usize {
        seeker_obs::counter!("graph.khop.extractions", 1);
        assert!(k >= 2, "k-hop subgraphs require k >= 2, got {k}");
        assert!(
            pair.hi().index() < graph.n_vertices(),
            "pair endpoint {} outside graph",
            pair.hi()
        );
        let (a, b) = pair.as_tuple();
        let from_b = walks_from_b(graph, pair, k);
        if from_b {
            seeker_obs::counter!("graph.khop.mirrored", 1);
        }
        let PathWalker {
            prefix,
            prefix_rows,
            consumed,
            found,
            last,
            last_rows,
            mirrored,
            mirrored_rows,
            order,
        } = self;
        consumed.clear();
        let mut n_paths = 0usize;
        for l in 2..=k {
            // Nothing reads the consumed set after the last length.
            let last_length = l == k;
            let (source, target) = if from_b && l >= 3 { (b, a) } else { (a, b) };
            fill_last_hops(graph, table, consumed, (source, target), last, last_rows);
            let walk = Walk { graph, table, consumed, target, l, last, last_rows };
            found.clear();
            prefix.clear();
            prefix.push(source);
            prefix_rows.clear();
            if source == b {
                mirrored.clear();
                mirrored_rows.clear();
                extend_prefix(&walk, prefix, prefix_rows, &mut |path, rows| {
                    mirrored.extend(path.iter().rev());
                    mirrored_rows.extend(rows.iter().rev());
                    if !last_length {
                        found.extend_from_slice(&path[1..l]);
                    }
                });
                // Back into the walk from `a`'s order: lexicographic in the
                // interior, whose first two vertices make one key and whose
                // rest (from length 4 on) breaks ties.
                let stride = l + 1;
                order.clear();
                order.extend(mirrored.chunks_exact(stride).zip(0u32..).map(|(path, i)| {
                    let key = match path {
                        [_, x, y, ..] => u64::from(x.raw()) << 32 | u64::from(y.raw()),
                        _ => 0,
                    };
                    (key, i)
                }));
                let rest =
                    |i: u32| &mirrored[i as usize * stride + 3..(i as usize + 1) * stride - 1];
                order.sort_unstable_by(|p, q| p.0.cmp(&q.0).then_with(|| rest(p.1).cmp(rest(q.1))));
                for &(_, i) in order.iter() {
                    let i = i as usize;
                    let rows = mirrored_rows.get(i * l..(i + 1) * l).unwrap_or(&[]);
                    visit(l, &mirrored[i * stride..(i + 1) * stride], rows);
                }
                n_paths += order.len();
            } else {
                extend_prefix(&walk, prefix, prefix_rows, &mut |path, rows| {
                    if !last_length {
                        found.extend_from_slice(&path[1..l]);
                    }
                    n_paths += 1;
                    visit(l, path, rows);
                });
            }
            if !found.is_empty() {
                consumed.extend_from_slice(found);
                consumed.sort_unstable();
                consumed.dedup();
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
        fill_last_hops(graph, None, &[], (a, b), &mut self.last, &mut self.last_rows);
        let walk = Walk {
            graph,
            table: None,
            consumed: &[],
            target: b,
            l,
            last: &self.last,
            last_rows: &self.last_rows,
        };
        self.prefix.clear();
        self.prefix.push(a);
        self.prefix_rows.clear();
        extend_prefix(&walk, &mut self.prefix, &mut self.prefix_rows, &mut |path, _| visit(path));
    }
}

/// Calls `visit(path, rows)` with every length-`walk.l` path to
/// `walk.target` that extends the path prefix on `stack` and whose interior
/// avoids the consumed vertices. `rows` are the path's edge rows in the
/// walk's table, in path order, and `stack_rows` holds the prefix's; both
/// stay empty without a table.
fn extend_prefix<F: FnMut(&[UserId], &[u32])>(
    walk: &Walk<'_>,
    stack: &mut Vec<UserId>,
    stack_rows: &mut Vec<u32>,
    visit: &mut F,
) {
    // Callers seed the stack with the source vertex; an empty stack means
    // there is no path prefix to extend.
    let Some(&current) = stack.last() else { return };
    let target = walk.target;
    match walk.l + 1 - stack.len() {
        0 => {
            if current == target {
                visit(stack, stack_rows);
            }
        }
        1 => {
            if stack.contains(&target) {
                return;
            }
            if let Ok(s) = walk.graph.neighbors(current).binary_search(&target) {
                stack.push(target);
                stack_rows.extend(walk.table.map(|t| t.of(current)[s]));
                visit(stack, stack_rows);
                stack.pop();
                stack_rows.truncate(stack.len() - 1);
            }
        }
        2 => last_two_hops(walk, stack, stack_rows, visit),
        remaining => {
            // The endpoint can only appear as the final vertex, and
            // intermediate vertices must not be consumed by shorter paths.
            let slot_rows = walk.table.map(|t| t.of(current));
            // Both lists ascend, so one cursor into `consumed` answers
            // "consumed" for every neighbour.
            let mut unconsumed = walk.consumed.iter().peekable();
            for (s, &next) in walk.graph.neighbors(current).iter().enumerate() {
                while unconsumed.next_if(|&&c| c < next).is_some() {}
                if next == target || unconsumed.peek() == Some(&&next) || stack.contains(&next) {
                    continue;
                }
                stack.push(next);
                stack_rows.extend(slot_rows.map(|rows| rows[s]));
                if remaining == 3 {
                    last_two_hops(walk, stack, stack_rows, visit);
                } else {
                    extend_prefix(walk, stack, stack_rows, visit);
                }
                stack.pop();
                stack_rows.truncate(stack.len() - 1);
            }
        }
    }
}

/// The last two hops of [`extend_prefix`]: `current → x → target` for every
/// `x` of `N(current)` among [`Walk::last`] that is not on the path, in
/// ascending order, found by one sorted merge of the two lists.
#[inline]
fn last_two_hops<F: FnMut(&[UserId], &[u32])>(
    walk: &Walk<'_>,
    stack: &mut Vec<UserId>,
    stack_rows: &mut Vec<u32>,
    visit: &mut F,
) {
    let Some(&current) = stack.last() else { return };
    if stack.contains(&walk.target) {
        return;
    }
    let (near, far) = (walk.graph.neighbors(current), walk.last);
    let near_rows = walk.table.map(|t| t.of(current));
    let (mut i, mut j) = (0usize, 0usize);
    while let (Some(&x), Some(&y)) = (near.get(i), far.get(j)) {
        if x < y {
            i += 1;
        } else if y < x {
            j += 1;
        } else {
            if !stack.contains(&x) {
                stack.extend([x, walk.target]);
                if let Some(rows) = near_rows {
                    stack_rows.extend([rows[i], walk.last_rows[j]]);
                }
                visit(stack, stack_rows);
                stack.truncate(stack.len() - 2);
                stack_rows.truncate(stack.len() - 1);
            }
            i += 1;
            j += 1;
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
    /// half of all vertices, so merges meet long adjacency lists. The hubs
    /// sit among the lowest or the highest third of the ids, so across
    /// cases the costlier endpoint of a pair is its `a` or its `b`, and
    /// walks run from either end.
    fn arb_hub_graph(max_n: usize) -> impl Strategy<Value = SocialGraph> {
        (3..max_n).prop_flat_map(|n| {
            let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..n * 2);
            let hubs = proptest::collection::vec((0..n as u32, any::<u64>()), 0..4);
            (edges, hubs, any::<bool>()).prop_map(move |(raw, hubs, high)| {
                let mut g = SocialGraph::new(n);
                for (a, b) in raw {
                    if a != b {
                        g.add_edge(pair(a, b));
                    }
                }
                for (h, mask) in hubs {
                    let h = if high { n as u32 - 1 - h / 3 } else { h / 3 };
                    for v in (0..n as u32).filter(|&v| v != h && mask >> (v % 64) & 1 == 1) {
                        g.add_edge(pair(h, v));
                    }
                }
                g
            })
        })
    }

    /// A pair index over every edge of `g`, rows numbered in reverse edge
    /// order so that no row equals its edge's rank.
    fn edge_index(g: &SocialGraph) -> PairIndex {
        let edges: Vec<UserPair> = g.edges().collect();
        let n = edges.len();
        PairIndex::from_entries(
            edges.into_iter().enumerate().map(|(i, e)| (e, n - 1 - i)).collect(),
        )
    }

    /// The rows `index` gives the edges of `path`, in path order.
    fn path_rows(index: &PairIndex, path: &[UserId]) -> Vec<u32> {
        path.windows(2)
            .map(|w| index.get(UserPair::new(w[0], w[1])).map_or(EdgeRows::MISSING, |r| r as u32))
            .collect()
    }

    /// The reference's paths of `p` as `(length, path)`, lengths ascending.
    fn reference_paths(g: &SocialGraph, p: UserPair, k: usize) -> Vec<(usize, Vec<UserId>)> {
        reference::extract(g, p, k)
            .groups()
            .flat_map(|(l, paths)| paths.iter().map(move |path| (l, path.clone())))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn kernel_matches_mask_dfs_reference(g in arb_hub_graph(18), k in 2usize..6) {
            let n = g.n_vertices() as u32;
            let index = edge_index(&g);
            let table = EdgeRows::new(&g, &index);
            // One walker for every pair, by paths and by rows.
            let mut walker = PathWalker::new();
            for a in 0..n {
                for b in 0..n {
                    if a < b {
                        let p = pair(a, b);
                        prop_assert_eq!(KHopSubgraph::extract(&g, p, k), reference::extract(&g, p, k));
                        let expected = reference_paths(&g, p, k);
                        let mut visited = Vec::new();
                        walker.visit_khop_paths(&g, p, k, |l, path| visited.push((l, path.to_vec())));
                        prop_assert_eq!(&visited, &expected);
                        let mut rows = Vec::new();
                        let n_paths = walker.visit_khop_rows(&table, p, k, |l, r| rows.push((l, r.to_vec())));
                        let expected_rows: Vec<(usize, Vec<u32>)> =
                            expected.iter().map(|(l, path)| (*l, path_rows(&index, path))).collect();
                        prop_assert_eq!(n_paths, expected.len());
                        prop_assert_eq!(rows, expected_rows);
                    }
                    // Both directions, and a == b, for the path queries.
                    let (x, y) = (UserId::new(a), UserId::new(b));
                    for l in 0..=k.min(4) {
                        let expected = reference::all_paths(&g, x, y, l);
                        prop_assert_eq!(count_paths_of_length(&g, x, y, l), expected.len());
                        prop_assert_eq!(all_paths_of_length(&g, x, y, l), expected);
                    }
                }
            }
        }

        /// One walker reused over every pair, in a scrambled pair order so
        /// a buffer left over from a longer walk would show, visits exactly
        /// the reference's paths, grouped by length and in its order, and
        /// hands out each path's rows in path order.
        #[test]
        fn walker_visits_the_reference_paths_in_order(g in arb_hub_graph(18), k in 2usize..6) {
            let n = g.n_vertices() as u32;
            let index = edge_index(&g);
            let table = EdgeRows::new(&g, &index);
            let mut walker = PathWalker::new();
            let (mut from_a, mut from_b) = (0usize, 0usize);
            for a in (0..n).rev() {
                for b in 0..a {
                    let p = pair(a, b);
                    let expected = reference_paths(&g, p, k);
                    if walks_from_b(&g, p, k) {
                        from_b += 1;
                    } else {
                        from_a += 1;
                    }
                    let mut rows = Vec::new();
                    let n_rows = walker.visit_khop_rows(&table, p, k, |l, r| rows.push((l, r.to_vec())));
                    let mut visited: Vec<(usize, Vec<UserId>)> = Vec::new();
                    let n_paths =
                        walker.visit_khop_paths(&g, p, k, |l, path| visited.push((l, path.to_vec())));
                    let expected_rows: Vec<(usize, Vec<u32>)> =
                        expected.iter().map(|(l, path)| (*l, path_rows(&index, path))).collect();
                    prop_assert_eq!(n_paths, expected.len());
                    prop_assert_eq!(n_rows, expected.len());
                    prop_assert_eq!(visited, expected);
                    prop_assert_eq!(rows, expected_rows);
                }
            }
            // Walks from `b` happen only from k = 3 on.
            prop_assert!(k >= 3 || from_b == 0, "{from_b} walks from b at k = 2");
            prop_assert_eq!(from_a + from_b, (n as usize) * (n as usize - 1) / 2);
        }
    }

    /// A pair whose `b` side is cheaper is walked from `b`, a tie from `a`,
    /// and both give the walk from `a`'s paths, rows and order.
    #[test]
    fn walks_from_the_cheaper_endpoint() {
        // a = 0 reaches hub 2 (degree 10); b = 1's neighbours 3, 4, 13 and
        // 16 have degree 2 or 3, so b's two-hop sum is 11 against a's 16.
        // From b, the length-3 interiors (9, 4) and (2, 13) come out of
        // a's order; 0-14-15-16-1 is left for length 4.
        let hub = [3, 4, 5, 6, 7, 8, 10, 11, 13].map(|v| (2, v));
        let rest = [(0, 2), (0, 9), (9, 4), (0, 12), (12, 13), (3, 7), (0, 14), (14, 15), (15, 16)];
        let edges = hub
            .into_iter()
            .chain(rest)
            .chain([(1, 3), (1, 4), (1, 13), (1, 16)])
            .map(|(x, y)| pair(x, y));
        let g = SocialGraph::from_edges(17, edges);
        let index = edge_index(&g);
        let table = EdgeRows::new(&g, &index);
        let p = pair(0, 1);
        assert!(walks_from_b(&g, p, 3), "b's two-hop sum is the smaller");
        assert!(!walks_from_b(&g, p, 2), "k = 2 walks from a");
        for k in 2..=5 {
            let expected = reference_paths(&g, p, k);
            assert_eq!(expected.iter().any(|(l, _)| *l == 3), k >= 3);
            let mut walker = PathWalker::new();
            let mut visited = Vec::new();
            walker.visit_khop_paths(&g, p, k, |l, path| visited.push((l, path.to_vec())));
            assert_eq!(visited, expected, "k = {k}");
            let mut rows = Vec::new();
            walker.visit_khop_rows(&table, p, k, |l, r| rows.push((l, r.to_vec())));
            let expected: Vec<_> =
                expected.iter().map(|(l, path)| (*l, path_rows(&index, path))).collect();
            assert_eq!(rows, expected, "k = {k}");
        }
        // Equal two-hop sums: the walk stays at `a`.
        let square = SocialGraph::from_edges(4, [pair(0, 2), pair(2, 3), pair(3, 1)]);
        assert!(!walks_from_b(&square, p, 3));
    }

    #[test]
    fn edge_rows_mark_pairs_the_index_lacks() {
        let g = fig4();
        // Index every other edge, plus a pair that is no edge.
        let edges: Vec<UserPair> = g.edges().collect();
        let mut entries: Vec<(UserPair, usize)> =
            edges.iter().step_by(2).enumerate().map(|(i, &e)| (e, 10 * i + 3)).collect();
        entries.push((pair(0, 7), 99));
        let index = PairIndex::from_entries(entries);
        let table = EdgeRows::new(&g, &index);
        assert!(std::ptr::eq(table.graph, &g));
        for u in g.vertices() {
            let expected: Vec<u32> = g
                .neighbors(u)
                .iter()
                .map(|&v| index.get(UserPair::new(u, v)).map_or(EdgeRows::MISSING, |r| r as u32))
                .collect();
            assert_eq!(table.of(u), expected.as_slice(), "{u}");
        }
        assert!(table.of(UserId::new(0)).contains(&EdgeRows::MISSING));
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
