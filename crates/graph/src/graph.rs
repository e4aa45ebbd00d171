//! An undirected social graph over a dense user-id space (Definition 5).

use std::collections::BTreeSet;

use seeker_trace::{Dataset, UserId, UserPair};

/// An undirected, simple graph whose vertices are users `0..n`.
///
/// Backed by sorted adjacency vectors for cache-friendly neighbor scans plus
/// an edge set for O(log m) membership tests.
///
/// ```
/// use seeker_graph::SocialGraph;
/// use seeker_trace::{UserId, UserPair};
///
/// let mut g = SocialGraph::new(4);
/// g.add_edge(UserPair::new(UserId::new(0), UserId::new(1)));
/// g.add_edge(UserPair::new(UserId::new(1), UserId::new(2)));
/// assert_eq!(g.n_edges(), 2);
/// assert_eq!(g.degree(UserId::new(1)), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocialGraph {
    n: usize,
    adj: Vec<Vec<UserId>>,
    edges: BTreeSet<UserPair>,
}

impl SocialGraph {
    /// Creates an empty graph over `n` vertices.
    pub fn new(n: usize) -> Self {
        SocialGraph { n, adj: vec![Vec::new(); n], edges: BTreeSet::new() }
    }

    /// Builds a graph over `n` vertices from an edge iterator, in bulk: the
    /// edges are sorted once, so the edge set is built from sorted input and
    /// every adjacency list fills in order.
    ///
    /// Duplicate edges are collapsed.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is ≥ `n`.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = UserPair>) -> Self {
        let mut sorted: Vec<UserPair> = edges
            .into_iter()
            .inspect(|e| assert!(e.hi().index() < n, "edge endpoint {} out of range", e.hi()))
            .collect();
        sorted.sort_unstable();
        sorted.dedup();
        // In (lo, hi) order, u's lower neighbours arrive (as `lo` of an edge
        // ending at u) before its upper ones, each group ascending.
        let mut adj = vec![Vec::new(); n];
        for e in &sorted {
            adj[e.lo().index()].push(e.hi());
            adj[e.hi().index()].push(e.lo());
        }
        SocialGraph { n, adj, edges: sorted.into_iter().collect() }
    }

    /// Builds the ground-truth graph of a dataset.
    pub fn from_dataset(ds: &Dataset) -> Self {
        Self::from_edges(ds.n_users(), ds.friendships())
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Whether the edge is present.
    pub fn has_edge(&self, pair: UserPair) -> bool {
        self.edges.contains(&pair)
    }

    /// Inserts an edge; returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn add_edge(&mut self, pair: UserPair) -> bool {
        assert!(pair.hi().index() < self.n, "edge endpoint {} out of range", pair.hi());
        if !self.edges.insert(pair) {
            return false;
        }
        insert_sorted(&mut self.adj[pair.lo().index()], pair.hi());
        insert_sorted(&mut self.adj[pair.hi().index()], pair.lo());
        true
    }

    /// Removes an edge; returns `true` if it was present.
    pub fn remove_edge(&mut self, pair: UserPair) -> bool {
        if !self.edges.remove(&pair) {
            return false;
        }
        remove_sorted(&mut self.adj[pair.lo().index()], pair.hi());
        remove_sorted(&mut self.adj[pair.hi().index()], pair.lo());
        true
    }

    /// Sorted neighbors of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn neighbors(&self, u: UserId) -> &[UserId] {
        &self.adj[u.index()]
    }

    /// Degree of `u`.
    pub fn degree(&self, u: UserId) -> usize {
        self.adj[u.index()].len()
    }

    /// Iterator over all edges in canonical order.
    pub fn edges(&self) -> impl Iterator<Item = UserPair> + '_ {
        self.edges.iter().copied()
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = UserId> {
        (0..self.n as u32).map(UserId::new)
    }

    /// Number of edges present in exactly one of the two graphs.
    ///
    /// # Panics
    ///
    /// Panics if the graphs have different vertex counts.
    pub fn edge_difference(&self, other: &SocialGraph) -> usize {
        assert_eq!(self.n, other.n, "graphs must share a vertex space");
        self.edges.symmetric_difference(&other.edges).count()
    }

    /// The paper's convergence measure: the edge difference relative to
    /// `max(|G ∪ G'|, 1)` (the refinement loop stops below 1 %).
    ///
    /// Dividing by the union rather than by `|G|` keeps the ratio finite —
    /// and in `[0, 1]` — when this graph is empty, so a refinement starting
    /// from an empty `G⁰` can still converge. Identical graphs (including
    /// two empty ones) give `0.0`; disjoint edge sets give `1.0`.
    ///
    /// # Panics
    ///
    /// Panics if the graphs have different vertex counts.
    pub fn change_ratio(&self, other: &SocialGraph) -> f64 {
        let diff = self.edge_difference(other);
        let union = self.edges.union(&other.edges).count();
        diff as f64 / union.max(1) as f64
    }
}

fn insert_sorted(v: &mut Vec<UserId>, x: UserId) {
    if let Err(pos) = v.binary_search(&x) {
        v.insert(pos, x);
    }
}

fn remove_sorted(v: &mut Vec<UserId>, x: UserId) {
    if let Ok(pos) = v.binary_search(&x) {
        v.remove(pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(a: u32, b: u32) -> UserPair {
        UserPair::new(UserId::new(a), UserId::new(b))
    }

    #[test]
    fn add_remove_roundtrip() {
        let mut g = SocialGraph::new(5);
        assert!(g.add_edge(pair(0, 1)));
        assert!(!g.add_edge(pair(1, 0)), "duplicate (symmetric) edge");
        assert!(g.has_edge(pair(0, 1)));
        assert_eq!(g.n_edges(), 1);
        assert!(g.remove_edge(pair(0, 1)));
        assert!(!g.remove_edge(pair(0, 1)));
        assert_eq!(g.n_edges(), 0);
        assert_eq!(g.degree(UserId::new(0)), 0);
    }

    #[test]
    fn neighbors_are_sorted() {
        let mut g = SocialGraph::new(6);
        for b in [5, 2, 4, 1] {
            g.add_edge(pair(0, b));
        }
        let ns: Vec<u32> = g.neighbors(UserId::new(0)).iter().map(|u| u.raw()).collect();
        assert_eq!(ns, vec![1, 2, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "edge endpoint u5 out of range")]
    fn add_edge_rejects_out_of_range() {
        let mut g = SocialGraph::new(2);
        g.add_edge(pair(0, 5));
    }

    /// The reference build: one `add_edge` per edge.
    fn edge_by_edge(n: usize, edges: &[UserPair]) -> SocialGraph {
        let mut g = SocialGraph::new(n);
        for &e in edges {
            g.add_edge(e);
        }
        g
    }

    #[test]
    fn bulk_build_equals_edge_by_edge() {
        // Unsorted, with a duplicate given in both orientations.
        let edges = [pair(4, 1), pair(0, 3), pair(2, 1), pair(1, 4), pair(0, 1), pair(3, 2)];
        let bulk = SocialGraph::from_edges(6, edges);
        assert_eq!(bulk, edge_by_edge(6, &edges));
        assert_eq!(bulk.n_edges(), 5);
        for u in bulk.vertices() {
            assert!(bulk.neighbors(u).is_sorted(), "adjacency of {u} sorted");
        }
        let ns: Vec<u32> = bulk.neighbors(UserId::new(1)).iter().map(|u| u.raw()).collect();
        assert_eq!(ns, vec![0, 2, 4]);
        assert_eq!(SocialGraph::from_edges(3, []), SocialGraph::new(3));
    }

    #[test]
    #[should_panic(expected = "edge endpoint u5 out of range")]
    fn bulk_build_rejects_out_of_range() {
        let _ = SocialGraph::from_edges(3, [pair(0, 1), pair(2, 5)]);
    }

    #[test]
    fn edge_difference_and_change_ratio() {
        let g1 = SocialGraph::from_edges(4, [pair(0, 1), pair(1, 2)]);
        let g2 = SocialGraph::from_edges(4, [pair(0, 1), pair(2, 3)]);
        assert_eq!(g1.edge_difference(&g2), 2);
        // diff 2 over |union| 3.
        assert!((g1.change_ratio(&g2) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(g1.change_ratio(&g1), 0.0);
        let disjoint = SocialGraph::from_edges(4, [pair(0, 3)]);
        assert_eq!(g1.change_ratio(&disjoint), 1.0);
    }

    #[test]
    fn change_ratio_from_empty_graph_is_finite() {
        // Regression: the old `diff / |self|` formula returned INFINITY
        // whenever `self` was empty, so a refinement starting from an empty
        // G⁰ could never satisfy `change < threshold` on its first step.
        let empty = SocialGraph::new(4);
        let g1 = SocialGraph::from_edges(4, [pair(0, 1), pair(1, 2)]);
        assert_eq!(empty.change_ratio(&empty), 0.0);
        assert_eq!(empty.change_ratio(&g1), 1.0);
        assert_eq!(g1.change_ratio(&empty), 1.0);
    }

    #[test]
    fn from_dataset_mirrors_ground_truth() {
        use seeker_trace::synth::{generate, SyntheticConfig};
        let ds = generate(&SyntheticConfig::small(2)).unwrap().dataset;
        let g = SocialGraph::from_dataset(&ds);
        assert_eq!(g.n_edges(), ds.n_links());
        assert_eq!(g.n_vertices(), ds.n_users());
        for e in g.edges() {
            assert!(ds.are_friends(e.lo(), e.hi()));
        }
    }

    #[test]
    fn vertices_iterates_all() {
        let g = SocialGraph::new(3);
        assert_eq!(g.vertices().count(), 3);
    }
}
