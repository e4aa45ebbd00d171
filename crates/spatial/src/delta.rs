//! Data deltas: which users a batch of appended check-ins touches.
//!
//! The incremental-ingestion machinery needs to know, for a batch of new
//! check-ins, whose in-division trajectories grew: only their presence rows
//! can change. [`DataDelta`] computes that once per batch.

use seeker_trace::{CheckIn, UserId};

use crate::std_division::SpatialTemporalDivision;

/// The STD footprint of a batch of appended check-ins: the users whose
/// in-division trajectories changed.
///
/// Check-ins that fall outside the division (no grid for their POI, or a
/// timestamp outside the trained slot span) touch nobody — they are
/// invisible to every consumer of the division (JOC construction, the cell
/// index, presence features), exactly as at full-rebuild time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataDelta {
    /// Sorted distinct users with at least one in-division check-in.
    users: Vec<UserId>,
}

impl DataDelta {
    /// Computes the delta of `batch` over `division`.
    pub fn compute(division: &SpatialTemporalDivision, batch: &[CheckIn]) -> DataDelta {
        let mut users: Vec<UserId> =
            batch.iter().filter(|c| division.cell_of(c).is_some()).map(|c| c.user).collect();
        users.sort_unstable();
        users.dedup();
        DataDelta { users }
    }

    /// Sorted distinct users whose in-division trajectory changed.
    pub fn users(&self) -> &[UserId] {
        &self.users
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seeker_trace::synth::{generate, SyntheticConfig};
    use seeker_trace::{Dataset, Timestamp};

    fn fixture() -> (Dataset, SpatialTemporalDivision) {
        let ds = generate(&SyntheticConfig::small(11)).unwrap().dataset;
        let std = SpatialTemporalDivision::build(&ds, 40, 7.0).unwrap();
        (ds, std)
    }

    #[test]
    fn delta_matches_per_checkin_cells() {
        let (ds, std) = fixture();
        let batch: Vec<CheckIn> = ds.checkins().iter().take(50).copied().collect();
        let delta = DataDelta::compute(&std, &batch);
        assert!(delta.users().windows(2).all(|w| w[0] < w[1]), "users sorted distinct");
        for c in &batch {
            if std.cell_of(c).is_some() {
                assert!(delta.users().contains(&c.user));
            }
        }
        for &u in delta.users() {
            assert!(batch.iter().any(|c| c.user == u && std.cell_of(c).is_some()));
        }
    }

    #[test]
    fn out_of_division_checkins_dirty_nothing() {
        let (ds, std) = fixture();
        // A timestamp far past the trained span maps to no slot.
        let late = Timestamp::from_secs(std.slots().end().as_secs() + 86_400);
        let user = ds.checkins()[0].user;
        let poi = ds.checkins()[0].poi;
        let delta = DataDelta::compute(&std, &[CheckIn::new(user, poi, late)]);
        assert!(delta.users().is_empty());
        assert!(!delta.users().contains(&user));
    }

    #[test]
    fn empty_batch_is_empty_delta() {
        let (_ds, std) = fixture();
        assert!(DataDelta::compute(&std, &[]).users().is_empty());
    }
}
