//! Co-occurrence candidate generation for the inference pair universe.
//!
//! The paper's attack must decide *every* pair of the target dataset, but a
//! pair that never shares a spatial-temporal cell produces a JOC with no
//! joint-occurrence mass — the signal phase 1 feeds on. Enumerating the
//! quadratic universe just to score those pairs is the dominant cost on
//! sparse data, where co-location is rare by definition (§II-C).
//!
//! [`candidate_universe`] therefore splits the universe into the pairs that
//! share ≥ 1 STD cell (from the [`seeker_spatial::CellIndex`] inverted
//! index) and the *residue* of never-co-located pairs. The residue is not
//! silently dropped: it is counted, logged through the `attack.candidates.*`
//! metrics, and scored **once** by classifier `C`'s cached prediction for
//! the all-zero JOC. If that prediction calls the sparsest possible input a
//! friend, pruning would flip real decisions, so the caller falls back to
//! the full universe (see [`crate::TrainedAttack::infer`]).
//!
//! One honest caveat: residue pairs share *no joint* occurrences, but their
//! JOCs still carry each user's own `n_a`/`n_b` channels, so the zero-JOC
//! score is a proxy rather than each residue pair's exact probability. The
//! fallback makes the approximation conservative — pruning only happens
//! when `C` rejects even the sparsest input — and the fixed-seed contract
//! test pins candidate-mode output to the full-universe path.

use seeker_trace::{Dataset, UserPair};

use crate::error::Result;
use crate::pairs::pair_universe_size;
use crate::phase1::Phase1Model;

/// The split of a target's pair universe into co-location candidates and
/// the never-co-located residue.
#[derive(Debug, Clone)]
pub struct CandidateUniverse {
    /// Pairs sharing at least one STD cell, in canonical order.
    pub pairs: Vec<UserPair>,
    /// Size of the full pair universe `n·(n−1)/2`.
    pub n_total: u64,
    /// Number of never-co-located pairs (`n_total − pairs.len()`).
    pub n_residue: u64,
    /// Classifier `C`'s friend probability for the all-zero JOC — the one
    /// cached prediction standing in for every residue pair.
    pub residue_probability: f64,
    /// Whether that probability clears the phase-1 decision threshold. If
    /// so, pruning is unsound and callers must use the full universe.
    pub residue_predicted_friend: bool,
}

impl CandidateUniverse {
    /// Fraction of the universe the candidate list retains (1.0 when the
    /// universe is empty).
    pub fn retained_fraction(&self) -> f64 {
        if self.n_total == 0 {
            return 1.0;
        }
        self.pairs.len() as f64 / self.n_total as f64
    }
}

/// Splits the target's pair universe using the trained phase-1 division.
///
/// # Errors
///
/// Returns [`crate::AttackError::PairUniverse`] if the universe size does
/// not fit the platform.
pub fn candidate_universe(phase1: &Phase1Model, target: &Dataset) -> Result<CandidateUniverse> {
    split_universe(phase1, target, || seeker_spatial::candidate_pairs(target, phase1.division()))
}

/// [`candidate_universe`] computed shard-by-shard: the [`seeker_spatial`]
/// cell index enumerates co-located pairs over `n_shards` contiguous cell
/// ranges (each pair owned by exactly one shard) instead of materializing
/// per-cell pair lists for the whole index at once.
///
/// The result is bit-identical to [`candidate_universe`] — the shard
/// contract tests pin this for shard counts {1, 2, 7, 64} — so the two are
/// interchangeable; the sharded form caps transient memory on large worlds.
///
/// # Errors
///
/// Returns [`crate::AttackError::PairUniverse`] if the universe size does
/// not fit the platform.
pub fn candidate_universe_sharded(
    phase1: &Phase1Model,
    target: &Dataset,
    n_shards: usize,
) -> Result<CandidateUniverse> {
    split_universe(phase1, target, || {
        seeker_spatial::CellIndex::build(target, phase1.division())
            .candidate_pairs_sharded(n_shards)
    })
}

/// The universe split around a candidate enumeration: residue counting,
/// the zero-JOC score, and the `attack.candidates.*` metrics.
fn split_universe(
    phase1: &Phase1Model,
    target: &Dataset,
    enumerate: impl FnOnce() -> Vec<UserPair>,
) -> Result<CandidateUniverse> {
    let _span = seeker_obs::span!("attack.candidates");
    let n_total = pair_universe_size(target.n_users())? as u64;
    let pairs = enumerate();
    let n_residue = n_total - pairs.len() as u64;
    let residue_probability = phase1.zero_joc_proba();
    let residue_predicted_friend = residue_probability >= phase1.threshold();
    seeker_obs::counter!("attack.candidates.pairs", pairs.len() as u64);
    seeker_obs::counter!("attack.candidates.residue", n_residue);
    seeker_obs::gauge!("attack.candidates.zero_joc_proba", residue_probability);
    Ok(CandidateUniverse {
        pairs,
        n_total,
        n_residue,
        residue_probability,
        residue_predicted_friend,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FriendSeekerConfig;
    use crate::pairs::all_pairs;
    use crate::phase1::train_phase1;
    use seeker_trace::synth::{generate, SyntheticConfig};

    #[test]
    fn universe_partition_is_counted_exactly() {
        let train = generate(&SyntheticConfig::small(61)).unwrap().dataset;
        let target = generate(&SyntheticConfig::small(62)).unwrap().dataset;
        let cfg = FriendSeekerConfig::fast();
        let p1 = train_phase1(&cfg, &train).unwrap();
        let u = candidate_universe(&p1.model, &target).unwrap();
        let n = target.n_users() as u64;
        assert_eq!(u.n_total, n * (n - 1) / 2);
        assert_eq!(u.pairs.len() as u64 + u.n_residue, u.n_total);
        assert!((0.0..=1.0).contains(&u.residue_probability));
        assert!((0.0..=1.0).contains(&u.retained_fraction()));
        // Candidates are canonical and unique.
        assert!(u.pairs.windows(2).all(|w| w[0] < w[1]));
        // Every candidate is a member of the full universe.
        let all = all_pairs(&target).unwrap();
        let set: std::collections::BTreeSet<_> = all.iter().collect();
        assert!(u.pairs.iter().all(|p| set.contains(p)));
    }

    #[test]
    fn sharded_universe_matches_reference() {
        let train = generate(&SyntheticConfig::small(61)).unwrap().dataset;
        let target = generate(&SyntheticConfig::small(62)).unwrap().dataset;
        let cfg = FriendSeekerConfig::fast();
        let p1 = train_phase1(&cfg, &train).unwrap();
        let reference = candidate_universe(&p1.model, &target).unwrap();
        for n_shards in [1usize, 2, 7, 64] {
            let sharded = candidate_universe_sharded(&p1.model, &target, n_shards).unwrap();
            assert_eq!(sharded.pairs, reference.pairs, "{n_shards} shards");
            assert_eq!(sharded.n_total, reference.n_total);
            assert_eq!(sharded.n_residue, reference.n_residue);
            assert_eq!(
                sharded.residue_probability.to_bits(),
                reference.residue_probability.to_bits()
            );
            assert_eq!(sharded.residue_predicted_friend, reference.residue_predicted_friend);
        }
    }
}
