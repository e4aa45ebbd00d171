//! A long-lived incremental attack session: streaming check-in ingestion
//! with delta-driven re-inference.
//!
//! [`IncrementalAttack`] owns a trained attack and a growing target
//! dataset. Each [`IncrementalAttack::ingest`] call appends a check-in
//! batch and brings the inference result up to date by recomputing only
//! what the batch could have changed:
//!
//! 1. the batch's STD footprint ([`seeker_spatial::DataDelta`]) names the
//!    dirtied cells and users;
//! 2. the inverted cell index absorbs the batch in place
//!    ([`seeker_spatial::CellIndex::apply`]) and surfaces the pairs that
//!    newly co-locate — the only way the candidate universe can grow
//!    (check-ins are only ever added, so co-location is monotone);
//! 3. presence features are re-encoded, once, for exactly the pairs with
//!    a dirtied endpoint, and classifier `C` re-scores those rows from
//!    their encoded features — per-pair purity of the encoder and of `C`
//!    makes the partial batch bitwise equal to a full re-encode — and `G⁰`
//!    is re-thresholded from the cached probabilities;
//! 4. phase-2 refinement resumes the previous run iteration by iteration
//!    (the [`crate::phase2`] warm-resume path): the session's last result
//!    is the resume state, and iteration `t` starts from that run's
//!    predictions on its own `Gᵗ`. Every resumed iteration rescores the
//!    rows its graph diff reaches, the rows near a dirty user, and the
//!    rows step 3 re-encoded; past the previous run's last iteration the
//!    run goes on from its own previous one.
//!
//! The contract — pinned by the `serve_contract` append==rebuild proptest —
//! is that after any sequence of ingests the session's result is
//! **bit-identical** to rerunning [`TrainedAttack::infer`] on the
//! equivalent rebuilt dataset.

use seeker_spatial::{CellIndex, DataDelta};
use seeker_trace::{CheckIn, Dataset, UserId, UserPair};

use crate::attack::{InferenceResult, TrainedAttack};
use crate::candidates::CandidateUniverse;
use crate::error::{AttackError, Result};
use crate::features::FeatureStore;
use crate::pairs::{all_pairs, pair_universe_size};
use crate::phase2::graph_from_predictions;

/// Construction options for an [`IncrementalAttack`] session.
#[derive(Debug, Clone, Default)]
pub struct IncrementalOptions {
    /// Route the initial candidate enumeration through the sharded cell
    /// index (`CellIndex::candidate_pairs_sharded`) with this many shards,
    /// capping transient memory on large worlds. Output is bit-identical
    /// either way (shard contract).
    pub n_shards: Option<usize>,
}

/// A friendship verdict for one queried pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairVerdict {
    /// Whether the final refined graph contains the pair.
    pub friend: bool,
    /// Classifier `C`'s friend probability for the pair: the cached
    /// per-pair score for co-location candidates, or the zero-JOC stand-in
    /// for the never-co-located residue. Always `Some`; the `Option` stays
    /// until the wire format drops it.
    pub probability: Option<f64>,
}

/// A long-lived attack session over a growing target dataset.
///
/// See the [module docs](crate::incremental) for the delta pipeline and the
/// append==rebuild contract.
pub struct IncrementalAttack {
    attack: TrainedAttack,
    opts: IncrementalOptions,
    dataset: Dataset,
    /// Inverted STD cell index of `dataset` (kept in sync by
    /// `CellIndex::apply`).
    index: CellIndex,
    /// Co-location candidate pairs, canonical order — the universe record.
    candidates: Vec<UserPair>,
    /// The pair list actually classified (`candidates`, or the quadratic
    /// universe under the zero-JOC fallback, `residue_predicted_friend`).
    pairs: Vec<UserPair>,
    /// Classifier `C`'s cached friend probability per pair, aligned with
    /// `pairs` — thresholding reproduces `Phase1Model::predict_graph`
    /// bit-for-bit.
    p1_proba: Vec<f64>,
    /// Presence features for `pairs` (None while the universe is empty).
    store: Option<FeatureStore>,
    n_total: u64,
    residue_probability: f64,
    residue_predicted_friend: bool,
    /// The current result, which reads answer from; its trace is what the
    /// next refinement resumes.
    last: InferenceResult,
}

impl IncrementalAttack {
    /// Opens a session: runs one reference-equivalent inference over
    /// `initial` and retains every intermediate needed to absorb future
    /// batches incrementally.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::PairUniverse`] if the universe size does not
    /// fit the platform.
    pub fn new(
        attack: TrainedAttack,
        initial: Dataset,
        opts: IncrementalOptions,
    ) -> Result<IncrementalAttack> {
        let _span = seeker_obs::span!("incremental.open");
        let n_total = pair_universe_size(initial.n_users())? as u64;
        let residue_probability = attack.phase1().zero_joc_proba();
        let residue_predicted_friend = residue_probability >= attack.phase1().threshold();
        let index = CellIndex::build(&initial, attack.phase1().division());
        let candidates = match opts.n_shards {
            Some(n) => index.candidate_pairs_sharded(n),
            None => index.candidate_pairs(),
        };
        let pairs =
            if residue_predicted_friend { all_pairs(&initial)? } else { candidates.clone() };
        let mut session = IncrementalAttack {
            attack,
            opts,
            dataset: initial,
            index,
            candidates,
            pairs,
            p1_proba: Vec::new(),
            store: None,
            n_total,
            residue_probability,
            residue_predicted_friend,
            last: InferenceResult::empty(0),
        };
        let every: Vec<usize> = (0..session.pairs.len()).collect();
        session.refresh_phase1(&every);
        session.run_refinement(&[], &[]);
        Ok(session)
    }

    /// Appends a check-in batch and brings the inference result up to date.
    ///
    /// Validation is atomic: a batch containing any check-in with an
    /// unknown user, an unknown POI, or a timestamp outside the trained
    /// observation span `[origin, end]` is rejected with
    /// [`AttackError::Ingest`] before anything mutates — rejected check-ins
    /// are never silently dropped or aliased into the nearest slot.
    ///
    /// # Errors
    ///
    /// [`AttackError::Ingest`] on validation failure (state unchanged).
    pub fn ingest(&mut self, batch: &[CheckIn]) -> Result<&InferenceResult> {
        let _span = seeker_obs::span!("incremental.ingest");
        self.validate_batch(batch)?;
        if batch.is_empty() {
            return Ok(&self.last);
        }
        seeker_obs::counter!("incremental.ingest.batches", 1);
        seeker_obs::counter!("incremental.ingest.checkins", batch.len() as u64);
        let delta = DataDelta::compute(self.attack.phase1().division(), batch);
        self.dataset = self.dataset.append_batch(batch)?;
        // Superset of the genuinely new co-location pairs; the splice
        // filters against the existing sorted universe.
        let fresh = self.index.apply(self.attack.phase1().division(), batch);
        let cand_inserted = splice_sorted(&mut self.candidates, &fresh);
        let inserted = if self.residue_predicted_friend {
            Vec::new() // the quadratic universe is fixed
        } else {
            debug_assert_eq!(self.candidates.len(), self.pairs.len() + cand_inserted.len());
            let _ = std::mem::replace(&mut self.pairs, self.candidates.clone());
            cand_inserted
        };
        for &pos in &inserted {
            self.p1_proba.insert(pos, 0.0);
        }
        // Pairs whose presence feature the batch dirtied: every pair when
        // the universe was empty before this batch, else a freshly inserted
        // pair or one with an endpoint among the delta's users.
        let was_empty = self.store.is_none();
        let dirty_rows: Vec<usize> = (0..self.pairs.len())
            .filter(|&i| {
                let p = self.pairs[i];
                was_empty
                    || inserted.binary_search(&i).is_ok()
                    || delta.touches_user(p.lo())
                    || delta.touches_user(p.hi())
            })
            .collect();
        seeker_obs::counter!("incremental.ingest.dirty_pairs", dirty_rows.len() as u64);
        self.refresh_phase1(&dirty_rows);
        self.run_refinement(delta.users(), &dirty_rows);
        Ok(&self.last)
    }

    /// The last inference result (reference-equivalent at every point).
    pub fn result(&self) -> &InferenceResult {
        &self.last
    }

    /// The current (post-append) target dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The trained attack backing the session.
    pub fn attack(&self) -> &TrainedAttack {
        &self.attack
    }

    /// The options this session was opened with.
    pub fn options(&self) -> &IncrementalOptions {
        &self.opts
    }

    /// Friendship verdict for one user pair against the current result.
    ///
    /// # Errors
    ///
    /// [`AttackError::Ingest`] if either id is unknown or the two are equal.
    pub fn query_pair(&self, a: UserId, b: UserId) -> Result<PairVerdict> {
        let n = self.dataset.n_users();
        if a.index() >= n || b.index() >= n {
            return Err(AttackError::Ingest(format!(
                "query for unknown user (ids {} and {}, world has {n})",
                a.raw(),
                b.raw()
            )));
        }
        if a == b {
            return Err(AttackError::Ingest(format!("query for self-pair of user {}", a.raw())));
        }
        let pair = UserPair::new(a, b);
        let friend = self.last.final_graph().has_edge(pair);
        Ok(PairVerdict { friend, probability: Some(self.probability(pair)) })
    }

    /// The `k` predicted friendships ranked by classifier `C`'s probability
    /// (descending, ties broken by canonical pair order).
    pub fn top_k(&self, k: usize) -> Vec<(UserPair, f64)> {
        let mut scored: Vec<(UserPair, f64)> =
            self.last.final_graph().edges().map(|e| (e, self.probability(e))).collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        scored.truncate(k);
        scored
    }

    /// Classifier `C`'s cached friend probability for `pair`; for the
    /// never-co-located residue, the zero-JOC stand-in, exactly what
    /// candidate pruning scored it as.
    fn probability(&self, pair: UserPair) -> f64 {
        match self.pairs.binary_search(&pair) {
            Ok(i) => self.p1_proba[i],
            Err(_) => self.residue_probability,
        }
    }

    /// Rejects any batch member the trained division cannot place in time,
    /// or that names an unknown user or POI. [`IncrementalAttack::ingest`]
    /// runs this before mutating anything; front-ends that coalesce batches
    /// from several clients call it per client batch so one bad batch
    /// cannot poison a staged flush.
    ///
    /// # Errors
    ///
    /// [`AttackError::Ingest`] naming the first offending check-in.
    pub fn validate_batch(&self, batch: &[CheckIn]) -> Result<()> {
        let slots = self.attack.phase1().division().slots();
        let (n_users, n_pois) = (self.dataset.n_users(), self.dataset.n_pois());
        for c in batch {
            if c.user.index() >= n_users {
                return Err(AttackError::Ingest(format!(
                    "check-in names unknown user {} (world has {n_users})",
                    c.user.raw()
                )));
            }
            if c.poi.index() >= n_pois {
                return Err(AttackError::Ingest(format!(
                    "check-in names unknown poi {} (world has {n_pois})",
                    c.poi.raw()
                )));
            }
            if slots.slot_of(c.time).is_none() {
                return Err(AttackError::Ingest(format!(
                    "check-in at t={}s lies outside the trained observation span [{}s, {}s]",
                    c.time.as_secs(),
                    slots.origin().as_secs(),
                    slots.end().as_secs()
                )));
            }
        }
        Ok(())
    }

    /// Re-encodes presence features for the given rows (indices into
    /// `pairs`), re-scores classifier `C` from the encoded rows, and merges
    /// both over the retained state. Per-pair purity of both makes the
    /// result bitwise equal to a full rebuild over the current dataset.
    fn refresh_phase1(&mut self, dirty_rows: &[usize]) {
        if self.pairs.is_empty() {
            self.store = None;
            self.p1_proba.clear();
            return;
        }
        if dirty_rows.is_empty() {
            return;
        }
        let dirty_pairs: Vec<UserPair> = dirty_rows.iter().map(|&i| self.pairs[i]).collect();
        let fresh_store = FeatureStore::build(self.attack.phase1(), &self.dataset, &dirty_pairs);
        let fresh_proba = fresh_store.predict_proba(self.attack.phase1());
        self.store = Some(match self.store.take() {
            Some(old) => fresh_store.merged(&old),
            None => fresh_store,
        });
        if self.p1_proba.len() != self.pairs.len() {
            self.p1_proba = vec![0.0; self.pairs.len()];
        }
        for (&i, p) in dirty_rows.iter().zip(fresh_proba) {
            self.p1_proba[i] = p;
        }
    }

    /// Runs phase-2 refinement resumed from the last result's trace and
    /// stores the new reference-equivalent [`InferenceResult`].
    /// `dirty_users` and `force_rows` are the users and rows whose presence
    /// features the batch changed.
    fn run_refinement(&mut self, dirty_users: &[UserId], force_rows: &[usize]) {
        if self.pairs.is_empty() {
            // Reference behavior for an empty candidate universe: the
            // answer is the empty graph, no classifier run needed.
            self.last = InferenceResult {
                candidates: Some(self.universe_record()),
                ..InferenceResult::empty(self.dataset.n_users())
            };
            return;
        }
        let _span = seeker_obs::span!("attack.infer");
        // G⁰ from the cached probabilities, thresholded as a cold
        // inference thresholds its store's probabilities.
        let threshold = self.attack.phase1().threshold();
        let friends: Vec<bool> = self.p1_proba.iter().map(|&p| p >= threshold).collect();
        let g0 = graph_from_predictions(self.dataset.n_users(), &self.pairs, &friends);
        // Structural invariant: `refresh_phase1` built the store for any
        // non-empty pair list before this runs.
        let store = self.store.as_ref().expect("store exists for a non-empty universe"); // lint:allow(no-panic)
        let trace = self.attack.phase2().infer_warm(
            self.attack.config(),
            store,
            &self.pairs,
            g0,
            &self.last.trace,
            dirty_users,
            force_rows,
        );
        self.last = InferenceResult {
            pairs: self.pairs.clone(),
            trace,
            candidates: Some(self.universe_record()),
        };
    }

    /// The current universe split, mirroring what a reference
    /// [`TrainedAttack::infer`] run would record.
    fn universe_record(&self) -> CandidateUniverse {
        CandidateUniverse {
            pairs: self.candidates.clone(),
            n_total: self.n_total,
            n_residue: self.n_total - self.candidates.len() as u64,
            residue_probability: self.residue_probability,
            residue_predicted_friend: self.residue_predicted_friend,
        }
    }
}

/// Merges the sorted unique `fresh` list into the sorted unique `base`,
/// skipping members already present, and returns the positions of the
/// inserted elements in the merged list (ascending).
fn splice_sorted(base: &mut Vec<UserPair>, fresh: &[UserPair]) -> Vec<usize> {
    let new_items: Vec<UserPair> =
        fresh.iter().copied().filter(|p| base.binary_search(p).is_err()).collect();
    if new_items.is_empty() {
        return Vec::new();
    }
    let mut merged = Vec::with_capacity(base.len() + new_items.len());
    let mut positions = Vec::with_capacity(new_items.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < base.len() || j < new_items.len() {
        let take_new = match (base.get(i), new_items.get(j)) {
            (Some(b), Some(n)) => n < b,
            (None, Some(_)) => true,
            _ => false,
        };
        if take_new {
            positions.push(merged.len());
            merged.push(new_items[j]);
            j += 1;
        } else {
            merged.push(base[i]);
            i += 1;
        }
    }
    *base = merged;
    positions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::FriendSeeker;
    use crate::config::FriendSeekerConfig;
    use seeker_trace::synth::{generate, SyntheticConfig};
    use seeker_trace::{PoiId, Timestamp};

    /// One trained attack + one target world, split 70/30 into an initial
    /// dataset and an append tail. Shared across tests (deterministic).
    fn setup() -> &'static (TrainedAttack, Dataset, Dataset, Vec<CheckIn>) {
        use std::sync::OnceLock;
        static CELL: OnceLock<(TrainedAttack, Dataset, Dataset, Vec<CheckIn>)> = OnceLock::new();
        CELL.get_or_init(|| {
            let train = generate(&SyntheticConfig::small(81)).unwrap().dataset;
            let target = generate(&SyntheticConfig::small(82)).unwrap().dataset;
            let trained = FriendSeeker::new(FriendSeekerConfig::fast()).train(&train).unwrap();
            let cut = target.n_checkins() * 7 / 10;
            let initial = target.with_checkins(target.checkins()[..cut].to_vec()).unwrap();
            let tail = target.checkins()[cut..].to_vec();
            (trained, target, initial, tail)
        })
    }

    fn assert_same_result(a: &InferenceResult, b: &InferenceResult) {
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.trace.graphs.len(), b.trace.graphs.len());
        for (ga, gb) in a.trace.graphs.iter().zip(&b.trace.graphs) {
            let ea: Vec<UserPair> = ga.edges().collect();
            let eb: Vec<UserPair> = gb.edges().collect();
            assert_eq!(ea, eb);
        }
        assert_eq!(a.trace.converged, b.trace.converged);
        for (ra, rb) in a.trace.change_ratios.iter().zip(&b.trace.change_ratios) {
            assert_eq!(ra.to_bits(), rb.to_bits());
        }
    }

    #[test]
    fn ingest_matches_rebuild_bitwise() {
        let (trained, target, initial, tail) = setup();
        let mut session =
            IncrementalAttack::new(trained.clone(), initial.clone(), IncrementalOptions::default())
                .unwrap();
        // Two batches, then compare against one cold reference run.
        let mid = tail.len() / 2;
        session.ingest(&tail[..mid]).unwrap();
        session.ingest(&tail[mid..]).unwrap();
        let reference = trained.infer(target).unwrap();
        assert_same_result(session.result(), &reference);
    }

    /// Warm resume past iteration 0. The shared fixture refines for one
    /// iteration only, so this forces an eight-iteration budget on a
    /// 1000-user world, where runs take four or five iterations. The
    /// session opens without every tenth in-span check-in and then takes
    /// twelve 80-check-in batches of them in time order. After every batch
    /// the session must equal a cold inference bit for bit, and one run
    /// must outlast the run it resumes, so its last iteration falls back to
    /// the run's own previous one.
    #[test]
    fn warm_resume_matches_rebuild_past_iteration_zero_on_1k_world() {
        use crate::phase2::Phase2Model;
        let train = generate(&SyntheticConfig::small(61)).unwrap().dataset;
        let target = generate(&SyntheticConfig::scale(1000, 8201)).unwrap().dataset;
        let mut cfg = FriendSeekerConfig::fast();
        cfg.zero_joc_negatives = 64;
        let trained = FriendSeeker::new(cfg).train(&train).unwrap();
        let mut cfg = trained.config().clone();
        cfg.max_iterations = 8;
        let p2 = trained.phase2();
        let model = Phase2Model::from_parts(
            p2.scaler().clone(),
            p2.svm().clone(),
            p2.svm_config().clone(),
            cfg.max_iterations,
        );
        let attack = TrainedAttack::from_parts(cfg, trained.phase1().clone(), model);
        let slots = attack.phase1().division().slots();
        let (mut kept, mut withheld): (Vec<CheckIn>, Vec<CheckIn>) = (Vec::new(), Vec::new());
        for (i, c) in target.checkins().iter().enumerate() {
            if i % 10 == 0 && slots.slot_of(c.time).is_some() {
                withheld.push(*c);
            } else {
                kept.push(*c);
            }
        }
        withheld.sort_by_key(|c| c.time);
        let initial = target.with_checkins(kept).unwrap();
        let mut session =
            IncrementalAttack::new(attack.clone(), initial, IncrementalOptions::default()).unwrap();
        let mut iterations = vec![session.result().trace.n_iterations()];
        for batch in withheld.chunks(80).take(12) {
            session.ingest(batch).unwrap();
            let reference = attack.infer(session.dataset()).unwrap();
            assert_same_result(session.result(), &reference);
            iterations.push(session.result().trace.n_iterations());
        }
        assert!(iterations.iter().all(|&n| n >= 3), "every run passes iteration 2: {iterations:?}");
        assert!(
            iterations.windows(2).any(|w| w[0] < w[1]),
            "no run outlasted the run it resumed: {iterations:?}"
        );
    }

    #[test]
    fn out_of_span_boundary_is_exact() {
        let (trained, _, initial, _) = setup();
        let mut session =
            IncrementalAttack::new(trained.clone(), initial.clone(), IncrementalOptions::default())
                .unwrap();
        let end = trained.phase1().division().slots().end();
        // Exactly `end` is the closed right edge of the trained span.
        let at_end = CheckIn::new(UserId::new(0), PoiId::new(0), end);
        session.ingest(&[at_end]).unwrap();
        // One second past `end` must be rejected atomically, not aliased
        // into the final slot or silently dropped.
        let past =
            CheckIn::new(UserId::new(1), PoiId::new(0), Timestamp::from_secs(end.as_secs() + 1));
        let n_before = session.dataset().n_checkins();
        let err = session.ingest(&[at_end.clone(), past]).unwrap_err();
        assert!(matches!(err, AttackError::Ingest(_)), "got {err}");
        assert!(err.to_string().contains("observation span"));
        assert_eq!(session.dataset().n_checkins(), n_before, "rejected batch must not mutate");
        // Unknown ids are rejected with the same typed error.
        let n = session.dataset().n_users() as u32;
        let ghost = CheckIn::new(UserId::new(n), PoiId::new(0), end);
        assert!(matches!(session.ingest(&[ghost]).unwrap_err(), AttackError::Ingest(_)));
        let ghost_poi =
            CheckIn::new(UserId::new(0), PoiId::new(session.dataset().n_pois() as u32), end);
        assert!(matches!(session.ingest(&[ghost_poi]).unwrap_err(), AttackError::Ingest(_)));
    }

    #[test]
    fn queries_follow_the_result() {
        let (trained, _, initial, tail) = setup();
        let mut session =
            IncrementalAttack::new(trained.clone(), initial.clone(), IncrementalOptions::default())
                .unwrap();
        session.ingest(tail).unwrap();
        let g = session.result().final_graph().clone();
        for pair in g.edges().take(5) {
            let v = session.query_pair(pair.lo(), pair.hi()).unwrap();
            assert!(v.friend);
            assert!(v.probability.is_some());
        }
        let top = session.top_k(5);
        assert!(top.len() <= 5);
        for w in top.windows(2) {
            assert!(w[0].1 >= w[1].1, "top-k must be sorted by probability");
        }
        for (pair, _) in &top {
            assert!(g.has_edge(*pair));
        }
        // Self-pairs and unknown users are typed errors, not panics.
        assert!(session.query_pair(UserId::new(0), UserId::new(0)).is_err());
        let n = session.dataset().n_users() as u32;
        assert!(session.query_pair(UserId::new(0), UserId::new(n)).is_err());
    }

    #[test]
    fn stale_feature_cache_is_invalidated_by_data_dirt() {
        // Regression for the FeatureCache-only-sees-graph-deltas bug: the
        // cache must also refresh pairs whose *data* changed. Appending
        // co-visits for a pair must flip its refreshed state to exactly
        // what a cold rebuild computes — a stale cache would keep serving
        // the old feature row.
        let (trained, _, initial, tail) = setup();
        let mut session =
            IncrementalAttack::new(trained.clone(), initial.clone(), IncrementalOptions::default())
                .unwrap();
        session.ingest(tail).unwrap();
        // Pick a non-friend candidate pair and hammer it with co-visits at
        // one POI across many slots — maximal joint-occurrence mass.
        let g = session.result().final_graph().clone();
        let Some(&pair) = session.pairs.iter().find(|p| !g.has_edge(**p)) else {
            return; // degenerate world: everything already predicted friend
        };
        let slots = trained.phase1().division().slots();
        let mut covisits = Vec::new();
        for j in 0..slots.n_slots() {
            let t = slots.slot_start(j);
            covisits.push(CheckIn::new(pair.lo(), PoiId::new(0), t));
            covisits.push(CheckIn::new(pair.hi(), PoiId::new(0), t));
        }
        let before = session.query_pair(pair.lo(), pair.hi()).unwrap();
        session.ingest(&covisits).unwrap();
        let after = session.query_pair(pair.lo(), pair.hi()).unwrap();
        // The refreshed probability must match a cold rebuild bit-for-bit…
        let rebuilt = trained.infer(session.dataset()).unwrap();
        assert_same_result(session.result(), &rebuilt);
        // …and must have actually moved: the co-visit mass changes the
        // pair's JOC, so a stale cached row cannot survive.
        let (pb, pa) = (before.probability.unwrap(), after.probability.unwrap());
        assert_ne!(pb.to_bits(), pa.to_bits(), "probability must react to appended co-visits");
        assert!(pa > pb, "joint-occurrence mass must raise the friend probability");
    }
}
