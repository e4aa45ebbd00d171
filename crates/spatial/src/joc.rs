//! Joint occurrence cuboids (JOC, Definition 9): per-pair spatial-temporal
//! presence counts over an STD.
//!
//! For each STD cell a JOC records `(n_a, n_b, n_ab)` — the check-in counts
//! of each user and the number of POIs visited by *both* users within the
//! cell. JOCs are highly sparse, so they are stored as a cell map and
//! flattened (raw or `log1p`-scaled) only at the model boundary.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use seeker_trace::{CheckIn, PoiId};

use crate::std_division::SpatialTemporalDivision;

/// The three indicators of one occupied JOC cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JocCell {
    /// Check-ins of the first user in this cell.
    pub n_a: u32,
    /// Check-ins of the second user in this cell.
    pub n_b: u32,
    /// Distinct POIs visited by both users in this cell.
    pub n_ab: u32,
}

/// A joint occurrence cuboid for one user pair.
///
/// The number of channels per cell (3) is exposed as [`Joc::CHANNELS`]; the
/// flattened layout is `flat_cell * 3 + channel` with cells row-major over
/// grids then slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Joc {
    n_grids: usize,
    n_slots: usize,
    cells: BTreeMap<(u32, u32), JocCell>,
}

impl Joc {
    /// Number of indicator channels per cell.
    pub const CHANNELS: usize = 3;

    /// Builds the JOC of a pair of trajectories over `division`.
    ///
    /// Check-ins that fall outside the division (possible after obfuscation)
    /// are skipped, exactly as an attacker would have to skip them.
    pub fn build(
        division: &SpatialTemporalDivision,
        traj_a: &[CheckIn],
        traj_b: &[CheckIn],
    ) -> Joc {
        // Per-cell count and POI set for one user.
        fn accumulate(
            division: &SpatialTemporalDivision,
            traj: &[CheckIn],
        ) -> BTreeMap<(u32, u32), (u32, BTreeSet<PoiId>)> {
            let mut m: BTreeMap<(u32, u32), (u32, BTreeSet<PoiId>)> = BTreeMap::new();
            for c in traj {
                if let Some((g, s)) = division.cell_of(c) {
                    let e = m.entry((g as u32, s as u32)).or_default();
                    e.0 += 1;
                    e.1.insert(c.poi);
                }
            }
            m
        }
        let ma = accumulate(division, traj_a);
        let mb = accumulate(division, traj_b);
        let mut cells: BTreeMap<(u32, u32), JocCell> = BTreeMap::new();
        for (&cell, &(n_a, ref pois_a)) in &ma {
            let entry = cells.entry(cell).or_default();
            entry.n_a = n_a;
            if let Some((_, pois_b)) = mb.get(&cell) {
                entry.n_ab = pois_a.intersection(pois_b).count() as u32;
            }
        }
        for (&cell, &(n_b, _)) in &mb {
            match cells.entry(cell) {
                Entry::Occupied(mut e) => e.get_mut().n_b = n_b,
                Entry::Vacant(v) => {
                    v.insert(JocCell { n_a: 0, n_b, n_ab: 0 });
                }
            }
        }
        // Definition 4 invariant: joint occurrences are bounded by each
        // user's own activity in the cell (`n_ab` counts distinct shared
        // POIs, which cannot exceed either side's check-in count).
        debug_assert!(
            cells.values().all(|c| c.n_ab <= c.n_a.min(c.n_b)),
            "JOC invariant violated: n_ab > min(n_a, n_b)"
        );
        seeker_obs::counter!("spatial.joc.builds", 1);
        seeker_obs::counter!("spatial.joc.cells", cells.len() as u64);
        Joc { n_grids: division.n_grids(), n_slots: division.n_slots(), cells }
    }

    /// Number of spatial grids `I`.
    pub fn n_grids(&self) -> usize {
        self.n_grids
    }

    /// Number of time slots `J`.
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }

    /// Dimension of the flattened vector: `I × J × 3`.
    pub fn input_dim(&self) -> usize {
        self.n_grids * self.n_slots * Self::CHANNELS
    }

    /// Number of occupied cells.
    pub fn nnz_cells(&self) -> usize {
        self.cells.len()
    }

    /// The cell at `(grid, slot)` (all-zero if unoccupied).
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn cell(&self, grid: usize, slot: usize) -> JocCell {
        assert!(grid < self.n_grids && slot < self.n_slots, "cell ({grid},{slot}) out of range");
        self.cells.get(&(grid as u32, slot as u32)).copied().unwrap_or_default()
    }

    /// Iterator over occupied cells as `((grid, slot), cell)`.
    pub fn iter(&self) -> impl Iterator<Item = ((usize, usize), JocCell)> + '_ {
        self.cells.iter().map(|(&(g, s), &c)| ((g as usize, s as usize), c))
    }

    /// Sums of the three channels over all cells.
    pub fn totals(&self) -> JocCell {
        let mut t = JocCell::default();
        for c in self.cells.values() {
            t.n_a += c.n_a;
            t.n_b += c.n_b;
            t.n_ab += c.n_ab;
        }
        t
    }

    /// Flattened dense vector of raw counts (`f32`), length
    /// [`Joc::input_dim`].
    pub fn to_dense(&self) -> Vec<f32> {
        let mut v = vec![0.0f32; self.input_dim()];
        for (&(g, s), c) in &self.cells {
            let base = (g as usize * self.n_slots + s as usize) * Self::CHANNELS;
            v[base] = c.n_a as f32;
            v[base + 1] = c.n_b as f32;
            v[base + 2] = c.n_ab as f32;
        }
        v
    }

    /// Sparse `log1p`-scaled entries `(flat_index, ln(1 + count))` — the
    /// representation fed to the autoencoder (bounded magnitudes, zero cells
    /// stay exactly zero).
    pub fn sparse_log1p(&self) -> Vec<(usize, f32)> {
        let mut out = Vec::with_capacity(self.cells.len() * Self::CHANNELS);
        for (&(g, s), c) in &self.cells {
            let base = (g as usize * self.n_slots + s as usize) * Self::CHANNELS;
            for (off, count) in [(0usize, c.n_a), (1, c.n_b), (2, c.n_ab)] {
                if count > 0 {
                    out.push((base + off, (1.0 + count as f32).ln()));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seeker_trace::synth::{generate, SyntheticConfig};
    use seeker_trace::{Dataset, UserId};

    fn setup() -> (Dataset, SpatialTemporalDivision) {
        let ds = generate(&SyntheticConfig::small(5)).unwrap().dataset;
        let std = SpatialTemporalDivision::build(&ds, 30, 7.0).unwrap();
        (ds, std)
    }

    #[test]
    fn totals_match_trajectory_lengths() {
        let (ds, std) = setup();
        let (a, b) = (UserId::new(0), UserId::new(1));
        let joc = Joc::build(&std, ds.trajectory(a), ds.trajectory(b));
        let t = joc.totals();
        assert_eq!(t.n_a as usize, ds.checkin_count(a));
        assert_eq!(t.n_b as usize, ds.checkin_count(b));
    }

    #[test]
    fn dense_and_sparse_agree() {
        let (ds, std) = setup();
        let joc = Joc::build(&std, ds.trajectory(UserId::new(2)), ds.trajectory(UserId::new(3)));
        let dense = joc.to_dense();
        assert_eq!(dense.len(), joc.input_dim());
        let mut from_sparse = vec![0.0f32; joc.input_dim()];
        for (i, v) in joc.sparse_log1p() {
            from_sparse[i] = v;
        }
        for (i, (&d, &s)) in dense.iter().zip(from_sparse.iter()).enumerate() {
            let expect = (1.0 + d).ln();
            if d > 0.0 {
                assert!((s - expect).abs() < 1e-6, "index {i}: {s} vs {expect}");
            } else {
                assert_eq!(s, 0.0, "index {i} should be empty");
            }
        }
    }

    #[test]
    fn joc_is_symmetric_up_to_channel_swap() {
        let (ds, std) = setup();
        let (a, b) = (UserId::new(4), UserId::new(5));
        let ab = Joc::build(&std, ds.trajectory(a), ds.trajectory(b));
        let ba = Joc::build(&std, ds.trajectory(b), ds.trajectory(a));
        assert_eq!(ab.nnz_cells(), ba.nnz_cells());
        for ((g, s), c) in ab.iter() {
            let r = ba.cell(g, s);
            assert_eq!(c.n_a, r.n_b);
            assert_eq!(c.n_b, r.n_a);
            assert_eq!(c.n_ab, r.n_ab);
        }
    }

    #[test]
    fn n_ab_counts_shared_pois_in_same_cell() {
        let (ds, std) = setup();
        // Use a pair and verify n_ab by brute force.
        let (a, b) = (UserId::new(0), UserId::new(6));
        let joc = Joc::build(&std, ds.trajectory(a), ds.trajectory(b));
        for ((g, s), c) in joc.iter() {
            let pois_in_cell = |u: UserId| -> BTreeSet<PoiId> {
                ds.trajectory(u)
                    .iter()
                    .filter(|ci| std.cell_of(ci) == Some((g, s)))
                    .map(|ci| ci.poi)
                    .collect()
            };
            let expected = pois_in_cell(a).intersection(&pois_in_cell(b)).count() as u32;
            assert_eq!(c.n_ab, expected, "cell ({g},{s})");
        }
    }

    #[test]
    fn empty_trajectories_give_empty_joc() {
        let (_ds, std) = setup();
        let joc = Joc::build(&std, &[], &[]);
        assert_eq!(joc.nnz_cells(), 0);
        assert!(joc.sparse_log1p().is_empty());
        assert!(joc.to_dense().iter().all(|&v| v == 0.0));
        let t = joc.totals();
        assert_eq!((t.n_a, t.n_b, t.n_ab), (0, 0, 0));
    }

    #[test]
    fn unoccupied_cell_reads_zero() {
        let (ds, std) = setup();
        let joc = Joc::build(&std, ds.trajectory(UserId::new(0)), &[]);
        // Find any unoccupied cell.
        let occupied: BTreeSet<(usize, usize)> = joc.iter().map(|(c, _)| c).collect();
        'outer: for g in 0..joc.n_grids() {
            for s in 0..joc.n_slots() {
                if !occupied.contains(&(g, s)) {
                    assert_eq!(joc.cell(g, s), JocCell::default());
                    break 'outer;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cell_access_is_bounds_checked() {
        let (ds, std) = setup();
        let joc = Joc::build(&std, ds.trajectory(UserId::new(0)), &[]);
        let _ = joc.cell(joc.n_grids(), 0);
    }

    #[test]
    fn sparsity_holds_for_real_pairs() {
        let (ds, std) = setup();
        let joc = Joc::build(&std, ds.trajectory(UserId::new(0)), ds.trajectory(UserId::new(1)));
        // The paper's premise: JOCs are highly sparse.
        assert!(joc.nnz_cells() * 4 < std.n_cells() * 3, "expected sparse JOC");
    }
}
