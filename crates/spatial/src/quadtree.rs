//! Adaptive quadtree over POIs — the spatial half of the paper's
//! spatial-temporal division (Definition 8).
//!
//! The paper divides the region of interest recursively into four equal
//! grids until every grid contains at most σ POIs, so dense downtown areas
//! get fine grids while the countryside stays coarse.

use seeker_trace::{BoundingBox, GeoPoint, Poi, PoiId};

/// Node payload: either four children or a leaf grid.
#[derive(Debug, Clone)]
enum NodeKind {
    /// Indices of the four child nodes (SW, SE, NW, NE).
    Internal([usize; 4]),
    /// Leaf: the grid index assigned to this cell.
    Leaf(usize),
}

#[derive(Debug, Clone)]
struct Node {
    bbox: BoundingBox,
    kind: NodeKind,
}

/// An adaptive quadtree whose leaves are the spatial grids of an STD.
///
/// Grids are numbered `0..n_grids()` in construction (depth-first) order.
///
/// ```
/// use seeker_spatial::Quadtree;
/// use seeker_trace::{BoundingBox, GeoPoint, Poi, PoiId};
///
/// let pois: Vec<Poi> = (0..40)
///     .map(|i| Poi::new(PoiId::new(i), GeoPoint::new(i as f64 * 0.01, 0.0), 10.0))
///     .collect();
/// let qt = Quadtree::build(&pois, 10);
/// assert!(qt.n_grids() > 1); // 40 POIs with sigma=10 must split
/// let g = qt.locate(GeoPoint::new(0.05, 0.0));
/// assert!(g.is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Quadtree {
    nodes: Vec<Node>,
    n_grids: usize,
    bbox: BoundingBox,
    /// Number of POIs in each leaf grid.
    grid_poi_counts: Vec<usize>,
    /// Bounding box of each leaf grid.
    grid_bboxes: Vec<BoundingBox>,
}

/// Hard recursion limit: 2^-16 of the region extent is far below POI radius,
/// so deeper splits would only chase exactly-coincident POIs.
const MAX_DEPTH: usize = 16;

/// The deepest uniform grid [`Quadtree::build_uniform`] accepts (`4^8` cells).
pub(crate) const MAX_UNIFORM_DEPTH: usize = 8;

impl Quadtree {
    /// Builds a quadtree over `pois`, splitting until every grid holds at
    /// most `sigma` POIs (or the depth cap is reached for pathological,
    /// exactly-coincident inputs).
    ///
    /// # Panics
    ///
    /// Panics if `sigma == 0` or `pois` is empty.
    pub fn build(pois: &[Poi], sigma: usize) -> Self {
        let _span = seeker_obs::span!("spatial.quadtree.build");
        assert!(sigma > 0, "sigma must be positive");
        assert!(!pois.is_empty(), "cannot build a quadtree over zero POIs");
        let mut bbox = BoundingBox {
            min_lat: f64::INFINITY,
            min_lon: f64::INFINITY,
            max_lat: f64::NEG_INFINITY,
            max_lon: f64::NEG_INFINITY,
        };
        for p in pois {
            bbox.min_lat = bbox.min_lat.min(p.center.lat);
            bbox.min_lon = bbox.min_lon.min(p.center.lon);
            bbox.max_lat = bbox.max_lat.max(p.center.lat);
            bbox.max_lon = bbox.max_lon.max(p.center.lon);
        }
        // Half-open cells: inflate the top edge slightly so max-coordinate
        // POIs land inside.
        let bbox = bbox.inflated(1e-9);
        Self::build_in(pois, sigma, bbox)
    }

    /// Builds a **uniform** grid of depth `depth` (i.e. `4^depth` equal
    /// cells), ignoring POI density — the paper's strawman alternative to
    /// the adaptive division ("one simple division of space is to uniformly
    /// partition the space into equal size grids, which is however
    /// inflexible and inefficient").
    ///
    /// # Panics
    ///
    /// Panics if `pois` is empty or `depth > 8` (65 536 cells are already
    /// far beyond anything useful here).
    pub fn build_uniform(pois: &[Poi], depth: usize) -> Self {
        let _span = seeker_obs::span!("spatial.quadtree.build");
        assert!(!pois.is_empty(), "cannot build a quadtree over zero POIs");
        assert!(depth <= MAX_UNIFORM_DEPTH, "uniform depth {depth} is unreasonably deep");
        let mut bbox = BoundingBox {
            min_lat: f64::INFINITY,
            min_lon: f64::INFINITY,
            max_lat: f64::NEG_INFINITY,
            max_lon: f64::NEG_INFINITY,
        };
        for p in pois {
            bbox.min_lat = bbox.min_lat.min(p.center.lat);
            bbox.min_lon = bbox.min_lon.min(p.center.lon);
            bbox.max_lat = bbox.max_lat.max(p.center.lat);
            bbox.max_lon = bbox.max_lon.max(p.center.lon);
        }
        let bbox = bbox.inflated(1e-9);
        let mut tree = Quadtree {
            nodes: Vec::new(),
            n_grids: 0,
            bbox,
            grid_poi_counts: Vec::new(),
            grid_bboxes: Vec::new(),
        };
        let all: Vec<usize> = (0..pois.len()).collect();
        tree.split_uniform(pois, &all, bbox, depth);
        tree
    }

    fn split_uniform(
        &mut self,
        pois: &[Poi],
        members: &[usize],
        bbox: BoundingBox,
        depth: usize,
    ) -> usize {
        if depth == 0 {
            let grid = self.n_grids;
            self.n_grids += 1;
            self.grid_poi_counts.push(members.len());
            self.grid_bboxes.push(bbox);
            let idx = self.nodes.len();
            self.nodes.push(Node { bbox, kind: NodeKind::Leaf(grid) });
            return idx;
        }
        let mid_lat = (bbox.min_lat + bbox.max_lat) / 2.0;
        let mid_lon = (bbox.min_lon + bbox.max_lon) / 2.0;
        let quadrant_bbox = |q: usize| -> BoundingBox {
            match q {
                0 => BoundingBox {
                    min_lat: bbox.min_lat,
                    min_lon: bbox.min_lon,
                    max_lat: mid_lat,
                    max_lon: mid_lon,
                },
                1 => BoundingBox {
                    min_lat: bbox.min_lat,
                    min_lon: mid_lon,
                    max_lat: mid_lat,
                    max_lon: bbox.max_lon,
                },
                2 => BoundingBox {
                    min_lat: mid_lat,
                    min_lon: bbox.min_lon,
                    max_lat: bbox.max_lat,
                    max_lon: mid_lon,
                },
                _ => BoundingBox {
                    min_lat: mid_lat,
                    min_lon: mid_lon,
                    max_lat: bbox.max_lat,
                    max_lon: bbox.max_lon,
                },
            }
        };
        let mut buckets: [Vec<usize>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        for &m in members {
            let p = pois[m].center;
            let q = (usize::from(p.lat >= mid_lat) << 1) | usize::from(p.lon >= mid_lon);
            buckets[q].push(m);
        }
        let idx = self.nodes.len();
        self.nodes.push(Node { bbox, kind: NodeKind::Leaf(usize::MAX) });
        let mut children = [0usize; 4];
        for (q, bucket) in buckets.iter().enumerate() {
            children[q] = self.split_uniform(pois, bucket, quadrant_bbox(q), depth - 1);
        }
        self.nodes[idx].kind = NodeKind::Internal(children);
        idx
    }

    /// Builds a quadtree with an explicit outer bounding box (must contain
    /// all POIs).
    ///
    /// # Panics
    ///
    /// Panics if `sigma == 0`, `pois` is empty, or some POI lies outside
    /// `bbox`.
    pub fn build_in(pois: &[Poi], sigma: usize, bbox: BoundingBox) -> Self {
        assert!(sigma > 0, "sigma must be positive");
        assert!(!pois.is_empty(), "cannot build a quadtree over zero POIs");
        for p in pois {
            assert!(bbox.contains(p.center), "poi {} outside the region of interest", p.id);
        }
        let mut tree = Quadtree {
            nodes: Vec::new(),
            n_grids: 0,
            bbox,
            grid_poi_counts: Vec::new(),
            grid_bboxes: Vec::new(),
        };
        let all: Vec<usize> = (0..pois.len()).collect();
        tree.split(pois, &all, bbox, sigma, 0);
        debug_assert_eq!(
            tree.grid_poi_counts.iter().sum::<usize>(),
            pois.len(),
            "every POI must land in exactly one leaf grid"
        );
        tree
    }

    fn split(
        &mut self,
        pois: &[Poi],
        members: &[usize],
        bbox: BoundingBox,
        sigma: usize,
        depth: usize,
    ) -> usize {
        if members.len() <= sigma || depth >= MAX_DEPTH {
            // σ-capacity invariant (§IV-A): an over-capacity leaf is only
            // permitted when the depth cap stopped recursion on co-located
            // points.
            debug_assert!(
                members.len() <= sigma || depth == MAX_DEPTH,
                "quadtree recursed past the depth cap"
            );
            let grid = self.n_grids;
            self.n_grids += 1;
            self.grid_poi_counts.push(members.len());
            self.grid_bboxes.push(bbox);
            let idx = self.nodes.len();
            self.nodes.push(Node { bbox, kind: NodeKind::Leaf(grid) });
            return idx;
        }
        let mid_lat = (bbox.min_lat + bbox.max_lat) / 2.0;
        let mid_lon = (bbox.min_lon + bbox.max_lon) / 2.0;
        let quadrant_bbox = |q: usize| -> BoundingBox {
            match q {
                0 => BoundingBox {
                    min_lat: bbox.min_lat,
                    min_lon: bbox.min_lon,
                    max_lat: mid_lat,
                    max_lon: mid_lon,
                },
                1 => BoundingBox {
                    min_lat: bbox.min_lat,
                    min_lon: mid_lon,
                    max_lat: mid_lat,
                    max_lon: bbox.max_lon,
                },
                2 => BoundingBox {
                    min_lat: mid_lat,
                    min_lon: bbox.min_lon,
                    max_lat: bbox.max_lat,
                    max_lon: mid_lon,
                },
                _ => BoundingBox {
                    min_lat: mid_lat,
                    min_lon: mid_lon,
                    max_lat: bbox.max_lat,
                    max_lon: bbox.max_lon,
                },
            }
        };
        let quadrant_of = |p: GeoPoint| -> usize {
            (usize::from(p.lat >= mid_lat) << 1) | usize::from(p.lon >= mid_lon)
        };
        let mut buckets: [Vec<usize>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        for &m in members {
            buckets[quadrant_of(pois[m].center)].push(m);
        }
        // Reserve our slot first so children stay contiguous after us.
        let idx = self.nodes.len();
        self.nodes.push(Node { bbox, kind: NodeKind::Leaf(usize::MAX) });
        let mut children = [0usize; 4];
        for (q, bucket) in buckets.iter().enumerate() {
            children[q] = self.split(pois, bucket, quadrant_bbox(q), sigma, depth + 1);
        }
        self.nodes[idx].kind = NodeKind::Internal(children);
        idx
    }

    /// Number of leaf grids (the `I` of the STD).
    pub fn n_grids(&self) -> usize {
        self.n_grids
    }

    /// The outer bounding box of the tree.
    pub fn bbox(&self) -> BoundingBox {
        self.bbox
    }

    /// Number of POIs stored in grid `g` at build time.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn grid_poi_count(&self, g: usize) -> usize {
        self.grid_poi_counts[g]
    }

    /// The bounding box of leaf grid `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn grid_bbox(&self, g: usize) -> BoundingBox {
        self.grid_bboxes[g]
    }

    /// Groups POIs by their leaf grid: `result[g]` lists the ids of the POIs
    /// inside grid `g` (POIs outside the region are omitted).
    pub fn grid_members(&self, pois: &[Poi]) -> Vec<Vec<PoiId>> {
        let mut out = vec![Vec::new(); self.n_grids];
        for p in pois {
            if let Some(g) = self.locate(p.center) {
                out[g].push(p.id);
            }
        }
        out
    }

    /// Maps a point to its leaf grid index, or `None` if outside the region.
    pub fn locate(&self, p: GeoPoint) -> Option<usize> {
        if self.nodes.is_empty() || !self.bbox.contains(p) {
            return None;
        }
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx].kind {
                NodeKind::Leaf(grid) => return Some(*grid),
                NodeKind::Internal(children) => {
                    let bb = self.nodes[idx].bbox;
                    let mid_lat = (bb.min_lat + bb.max_lat) / 2.0;
                    let mid_lon = (bb.min_lon + bb.max_lon) / 2.0;
                    let q = (usize::from(p.lat >= mid_lat) << 1) | usize::from(p.lon >= mid_lon);
                    idx = children[q];
                }
            }
        }
    }

    /// Maps a POI id to its grid via the POI table used at lookup time.
    pub fn locate_poi(&self, pois: &[Poi], id: PoiId) -> Option<usize> {
        self.locate(pois[id.index()].center)
    }

    /// Precomputes the grid of every POI in `pois` (index = `PoiId::index`).
    ///
    /// POIs outside the region map to `None`.
    pub fn poi_grids(&self, pois: &[Poi]) -> Vec<Option<usize>> {
        pois.iter().map(|p| self.locate(p.center)).collect()
    }

    /// Maximum depth actually reached (root = 0).
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[Node], idx: usize) -> usize {
            match &nodes[idx].kind {
                NodeKind::Leaf(_) => 0,
                NodeKind::Internal(children) => {
                    1 + children.iter().map(|&c| rec(nodes, c)).max().unwrap_or(0)
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            rec(&self.nodes, 0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_pois(n: u32, spacing: f64) -> Vec<Poi> {
        // n×n lattice of POIs.
        (0..n * n)
            .map(|i| {
                let (r, c) = (i / n, i % n);
                Poi::new(PoiId::new(i), GeoPoint::new(r as f64 * spacing, c as f64 * spacing), 10.0)
            })
            .collect()
    }

    #[test]
    fn single_leaf_when_sigma_large() {
        let pois = grid_pois(4, 0.1);
        let qt = Quadtree::build(&pois, 100);
        assert_eq!(qt.n_grids(), 1);
        assert_eq!(qt.depth(), 0);
        assert_eq!(qt.grid_poi_count(0), 16);
    }

    #[test]
    fn splits_until_sigma_respected() {
        let pois = grid_pois(8, 0.1);
        let qt = Quadtree::build(&pois, 5);
        assert!(qt.n_grids() > 1);
        for g in 0..qt.n_grids() {
            assert!(qt.grid_poi_count(g) <= 5, "grid {g} exceeds sigma");
        }
        // Counts partition the POI set.
        let total: usize = (0..qt.n_grids()).map(|g| qt.grid_poi_count(g)).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn smaller_sigma_means_more_grids() {
        let pois = grid_pois(10, 0.05);
        let coarse = Quadtree::build(&pois, 50);
        let fine = Quadtree::build(&pois, 5);
        assert!(fine.n_grids() > coarse.n_grids());
    }

    #[test]
    fn every_poi_locates_to_its_build_grid_partition() {
        let pois = grid_pois(9, 0.07);
        let qt = Quadtree::build(&pois, 7);
        // Re-locating all POIs reproduces the build-time counts.
        let mut counts = vec![0usize; qt.n_grids()];
        for p in &pois {
            counts[qt.locate(p.center).expect("inside region")] += 1;
        }
        let built: Vec<usize> = (0..qt.n_grids()).map(|g| qt.grid_poi_count(g)).collect();
        assert_eq!(counts, built);
    }

    #[test]
    fn locate_outside_region_is_none() {
        let pois = grid_pois(3, 0.1);
        let qt = Quadtree::build(&pois, 2);
        assert_eq!(qt.locate(GeoPoint::new(-5.0, 0.0)), None);
        assert_eq!(qt.locate(GeoPoint::new(0.0, 99.0)), None);
    }

    #[test]
    fn coincident_pois_hit_depth_cap_without_panicking() {
        let pois: Vec<Poi> =
            (0..10).map(|i| Poi::new(PoiId::new(i), GeoPoint::new(1.0, 1.0), 10.0)).collect();
        let qt = Quadtree::build(&pois, 3);
        // All POIs coincide: splitting can never separate them, the depth cap
        // must end the recursion.
        assert!(qt.depth() <= MAX_DEPTH);
        assert!(qt.locate(GeoPoint::new(1.0, 1.0)).is_some());
    }

    #[test]
    fn poi_grids_precomputation_matches_locate() {
        let pois = grid_pois(6, 0.09);
        let qt = Quadtree::build(&pois, 4);
        let grids = qt.poi_grids(&pois);
        for (i, p) in pois.iter().enumerate() {
            assert_eq!(grids[i], qt.locate(p.center));
            assert_eq!(grids[i], qt.locate_poi(&pois, PoiId::new(i as u32)));
        }
    }

    #[test]
    fn uniform_grid_has_exact_cell_count() {
        let pois = grid_pois(6, 0.1);
        for depth in [1usize, 2, 3] {
            let qt = Quadtree::build_uniform(&pois, depth);
            assert_eq!(qt.n_grids(), 4usize.pow(depth as u32));
            assert_eq!(qt.depth(), depth);
            // All POIs still locate, and counts partition the set.
            let total: usize = (0..qt.n_grids()).map(|g| qt.grid_poi_count(g)).sum();
            assert_eq!(total, pois.len());
        }
    }

    #[test]
    fn uniform_grid_cells_are_equal_size() {
        let pois = grid_pois(5, 0.13);
        let qt = Quadtree::build_uniform(&pois, 2);
        let first = qt.grid_bbox(0);
        let (h, w) = (first.max_lat - first.min_lat, first.max_lon - first.min_lon);
        for g in 1..qt.n_grids() {
            let bb = qt.grid_bbox(g);
            assert!((bb.max_lat - bb.min_lat - h).abs() < 1e-9);
            assert!((bb.max_lon - bb.min_lon - w).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "unreasonably deep")]
    fn uniform_grid_depth_capped() {
        let pois = grid_pois(2, 0.1);
        let _ = Quadtree::build_uniform(&pois, 9);
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn rejects_zero_sigma() {
        let pois = grid_pois(2, 0.1);
        let _ = Quadtree::build(&pois, 0);
    }

    #[test]
    #[should_panic(expected = "zero POIs")]
    fn rejects_empty_pois() {
        let _ = Quadtree::build(&[], 5);
    }

    #[test]
    #[should_panic(expected = "outside the region")]
    fn build_in_rejects_poi_outside_bbox() {
        let pois = grid_pois(2, 0.1);
        let bbox = BoundingBox { min_lat: 10.0, min_lon: 10.0, max_lat: 11.0, max_lon: 11.0 };
        let _ = Quadtree::build_in(&pois, 5, bbox);
    }
}
