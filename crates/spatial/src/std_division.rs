//! The spatial-temporal division (STD, Definition 8): an adaptive quadtree
//! over space crossed with uniform time slots.

use seeker_trace::{CheckIn, Dataset, Timestamp};

use crate::quadtree::{Quadtree, MAX_UNIFORM_DEPTH};
use crate::timeslot::TimeSlots;

/// How the spatial half of a division is built — the adaptive quadtree of
/// the paper or the uniform-grid ablation variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpatialParam {
    /// Recursive split until ≤ `sigma` POIs per grid (Definition 8).
    Adaptive {
        /// The σ threshold.
        sigma: usize,
    },
    /// A fixed `4^depth`-cell uniform grid.
    Uniform {
        /// The recursion depth.
        depth: usize,
    },
}

/// A spatial-temporal division of size `I × J`: `I` quadtree grids crossed
/// with `J` time slots. The finest granularity for presence-proximity
/// features.
///
/// ```
/// use seeker_spatial::SpatialTemporalDivision;
/// use seeker_trace::synth::{generate, SyntheticConfig};
///
/// let ds = generate(&SyntheticConfig::small(1))?.dataset;
/// let std = SpatialTemporalDivision::build(&ds, 40, 7.0)?;
/// assert!(std.n_grids() >= 1 && std.n_slots() >= 1);
/// # Ok::<(), seeker_trace::TraceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SpatialTemporalDivision {
    quadtree: Quadtree,
    slots: TimeSlots,
    /// Grid of every POI in the dataset (index = `PoiId::index`).
    poi_grids: Vec<Option<usize>>,
}

impl SpatialTemporalDivision {
    /// Builds an STD for `dataset` with at most `sigma` POIs per grid and
    /// time slots of `tau_days` days.
    ///
    /// # Errors
    ///
    /// Returns [`seeker_trace::TraceError::Invalid`] if the dataset has no
    /// POIs or no check-ins (an STD over nothing is meaningless).
    pub fn build(dataset: &Dataset, sigma: usize, tau_days: f64) -> seeker_trace::Result<Self> {
        let _span = seeker_obs::span!("spatial.std.build");
        if dataset.n_pois() == 0 {
            return Err(seeker_trace::TraceError::Invalid("no POIs to divide".into()));
        }
        let (t_lo, t_hi) = dataset
            .time_range()
            .ok_or_else(|| seeker_trace::TraceError::Invalid("no check-ins to slot".into()))?;
        let quadtree = Quadtree::build(dataset.pois(), sigma);
        let slots = TimeSlots::new(t_lo, t_hi, tau_days);
        let poi_grids = quadtree.poi_grids(dataset.pois());
        seeker_obs::gauge!("spatial.std.grids", quadtree.n_grids());
        seeker_obs::gauge!("spatial.std.slots", slots.n_slots());
        Ok(SpatialTemporalDivision { quadtree, slots, poi_grids })
    }

    /// Reconstructs a division from its primitive components (model
    /// persistence): the POI table, the spatial parameter and the covered
    /// time range. Deterministic — rebuilding with the same inputs yields a
    /// cell-for-cell identical division.
    ///
    /// # Errors
    ///
    /// Returns [`seeker_trace::TraceError::Invalid`] if `pois` is empty or
    /// holds a coordinate outside `[-90, 90] × [-180, 180]`, the time range
    /// is inverted or wider than an `i64` of seconds, `tau_days` is not
    /// positive and finite, `sigma` is 0 or a uniform `depth` exceeds 8, or
    /// the flattened JOC length `cells × 3` overflows `usize`. The inputs
    /// come from persisted bytes, so each condition that would panic while
    /// building is an error here.
    pub fn from_components(
        pois: &[seeker_trace::Poi],
        spatial: SpatialParam,
        t_lo: Timestamp,
        t_hi: Timestamp,
        tau_days: f64,
    ) -> seeker_trace::Result<Self> {
        if pois.is_empty() {
            return Err(seeker_trace::TraceError::Invalid("no POIs to divide".into()));
        }
        if t_hi < t_lo {
            return Err(seeker_trace::TraceError::Invalid("inverted time range".into()));
        }
        let invalid = |m: &str| Err(seeker_trace::TraceError::Invalid(m.into()));
        let on_earth = |p: &seeker_trace::Poi| {
            (-90.0..=90.0).contains(&p.center.lat) && (-180.0..=180.0).contains(&p.center.lon)
        };
        if !pois.iter().all(on_earth) {
            return invalid("poi coordinates out of range");
        }
        if !(tau_days.is_finite() && tau_days > 0.0) {
            return invalid("tau must be positive and finite");
        }
        if t_hi.as_secs().checked_sub(t_lo.as_secs()).is_none() {
            return invalid("time range overflows");
        }
        let quadtree = match spatial {
            SpatialParam::Adaptive { sigma: 0 } => return invalid("sigma must be positive"),
            SpatialParam::Adaptive { sigma } => Quadtree::build(pois, sigma),
            SpatialParam::Uniform { depth } if depth > MAX_UNIFORM_DEPTH => {
                return invalid("uniform depth is too deep");
            }
            SpatialParam::Uniform { depth } => Quadtree::build_uniform(pois, depth),
        };
        let slots = TimeSlots::new(t_lo, t_hi, tau_days);
        let n_cells = quadtree.n_grids().checked_mul(slots.n_slots());
        if n_cells.and_then(|n| n.checked_mul(crate::Joc::CHANNELS)).is_none() {
            return invalid("too many cells to flatten");
        }
        let poi_grids = quadtree.poi_grids(pois);
        Ok(SpatialTemporalDivision { quadtree, slots, poi_grids })
    }

    /// Builds an STD over a **uniform** spatial grid of `4^depth` equal
    /// cells instead of the adaptive quadtree (the ablation strawman).
    ///
    /// # Errors
    ///
    /// Same conditions as [`SpatialTemporalDivision::build`].
    pub fn build_uniform(
        dataset: &Dataset,
        depth: usize,
        tau_days: f64,
    ) -> seeker_trace::Result<Self> {
        if dataset.n_pois() == 0 {
            return Err(seeker_trace::TraceError::Invalid("no POIs to divide".into()));
        }
        let (t_lo, t_hi) = dataset
            .time_range()
            .ok_or_else(|| seeker_trace::TraceError::Invalid("no check-ins to slot".into()))?;
        let quadtree = Quadtree::build_uniform(dataset.pois(), depth);
        let slots = TimeSlots::new(t_lo, t_hi, tau_days);
        let poi_grids = quadtree.poi_grids(dataset.pois());
        Ok(SpatialTemporalDivision { quadtree, slots, poi_grids })
    }

    /// Number of spatial grids `I`.
    pub fn n_grids(&self) -> usize {
        self.quadtree.n_grids()
    }

    /// Number of time slots `J`.
    pub fn n_slots(&self) -> usize {
        self.slots.n_slots()
    }

    /// Total number of STD cells `I × J`.
    pub fn n_cells(&self) -> usize {
        self.n_grids() * self.n_slots()
    }

    /// The underlying quadtree.
    pub fn quadtree(&self) -> &Quadtree {
        &self.quadtree
    }

    /// The underlying time slotting.
    pub fn slots(&self) -> &TimeSlots {
        &self.slots
    }

    /// The cell `(grid, slot)` of a check-in, or `None` if it falls outside
    /// the division (possible after obfuscation perturbs the data).
    pub fn cell_of(&self, c: &CheckIn) -> Option<(usize, usize)> {
        let grid = self.poi_grids.get(c.poi.index()).copied().flatten()?;
        let slot = self.slots.slot_of(c.time)?;
        Some((grid, slot))
    }

    /// Flat index of cell `(grid, slot)`, row-major over grids.
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is out of range.
    pub fn flat_index(&self, grid: usize, slot: usize) -> usize {
        assert!(
            grid < self.n_grids() && slot < self.n_slots(),
            "cell ({grid},{slot}) out of range"
        );
        grid * self.n_slots() + slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seeker_trace::synth::{generate, SyntheticConfig};
    use seeker_trace::{DatasetBuilder, GeoPoint};

    fn synth() -> Dataset {
        generate(&SyntheticConfig::small(3)).unwrap().dataset
    }

    #[test]
    fn build_produces_consistent_dimensions() {
        let ds = synth();
        let std = SpatialTemporalDivision::build(&ds, 30, 7.0).unwrap();
        assert_eq!(std.n_cells(), std.n_grids() * std.n_slots());
        assert!(std.n_grids() >= 1);
        assert!(std.n_slots() >= 1);
    }

    #[test]
    fn every_checkin_maps_to_a_cell() {
        let ds = synth();
        let std = SpatialTemporalDivision::build(&ds, 30, 7.0).unwrap();
        for c in ds.checkins() {
            let (g, s) = std.cell_of(c).expect("in-range check-in");
            assert!(g < std.n_grids());
            assert!(s < std.n_slots());
            let f = std.flat_index(g, s);
            assert!(f < std.n_cells());
        }
    }

    #[test]
    fn sigma_controls_grid_count() {
        let ds = synth();
        let fine = SpatialTemporalDivision::build(&ds, 10, 7.0).unwrap();
        let coarse = SpatialTemporalDivision::build(&ds, 500, 7.0).unwrap();
        assert!(fine.n_grids() > coarse.n_grids());
    }

    #[test]
    fn tau_controls_slot_count() {
        let ds = synth();
        let fine = SpatialTemporalDivision::build(&ds, 50, 1.0).unwrap();
        let coarse = SpatialTemporalDivision::build(&ds, 50, 28.0).unwrap();
        assert!(fine.n_slots() > coarse.n_slots());
    }

    #[test]
    fn empty_dataset_is_an_error() {
        let ds = DatasetBuilder::new("e").build().unwrap();
        assert!(SpatialTemporalDivision::build(&ds, 10, 7.0).is_err());
        // POIs but no check-ins is also an error.
        let mut b = DatasetBuilder::new("p");
        b.add_poi(GeoPoint::new(0.0, 0.0), 1.0);
        let ds = b.build().unwrap();
        assert!(SpatialTemporalDivision::build(&ds, 10, 7.0).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flat_index_bounds_checked() {
        let ds = synth();
        let std = SpatialTemporalDivision::build(&ds, 30, 7.0).unwrap();
        let _ = std.flat_index(std.n_grids(), 0);
    }
}
