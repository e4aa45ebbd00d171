//! A long-lived incremental attack session: streaming check-in ingestion
//! with delta-driven re-inference.
//!
//! [`IncrementalAttack`] owns a trained attack and a growing target
//! dataset. Each [`IncrementalAttack::ingest`] call appends a check-in
//! batch and brings the inference result up to date by recomputing only
//! what the batch could have changed, in place, at a cost that follows the
//! batch rather than the session:
//!
//! 1. the batch's STD footprint ([`seeker_spatial::DataDelta`]) names the
//!    dirtied cells and users, and the dataset merges the batch in place
//!    ([`seeker_trace::Dataset::append`]);
//! 2. the inverted cell index absorbs the batch in place
//!    ([`seeker_spatial::CellIndex::apply`]) and surfaces the pairs that
//!    newly co-locate — the only way the candidate universe can grow
//!    (check-ins are only ever added, so co-location is monotone); they
//!    are spliced into the result's sorted pair lists, and the dirty rows
//!    are read off each touched user's universe partners;
//! 3. presence features are re-encoded, once, for exactly the pairs with
//!    a dirtied endpoint, overwriting their rows in the presence store (a
//!    new pair takes the next free slot, so no row moves), and classifier
//!    `C` re-scores those rows from their encoded features — per-pair
//!    purity of the encoder and of `C` makes the partial batch bitwise
//!    equal to a full re-encode — and `G⁰` is patched with the decisions
//!    those rows flipped;
//! 4. phase-2 refinement resumes the previous run iteration by iteration
//!    (the [`crate::phase2`] warm-resume path): the session's last result
//!    is the resume state, and iteration `t` patches the rows it rescores
//!    into the graph that run's iteration `t` scored. Every resumed
//!    iteration rescores the rows its graph diff reaches, the rows near a
//!    dirty user, and the rows step 3 re-encoded; past the previous run's
//!    last iteration the run goes on from its own previous one.
//!
//! The contract — pinned by the `serve_contract` append==rebuild proptest —
//! is that after any sequence of ingests the session's result is
//! **bit-identical** to rerunning [`TrainedAttack::infer`] on the
//! equivalent rebuilt dataset, and the session's state (dataset, universe,
//! cached rows and probabilities, `G⁰`) equals a session opened on it.

use seeker_graph::SocialGraph;
use seeker_spatial::{CellIndex, DataDelta};
use seeker_trace::{merge_sorted_by_key, CheckIn, Dataset, UserId, UserPair};

use crate::attack::{InferenceResult, TrainedAttack};
use crate::candidates::CandidateUniverse;
use crate::error::{AttackError, Result};
use crate::features::FeatureStore;
use crate::pairs::{all_pairs, pair_universe_size};
use crate::phase2::{graph_from_predictions, IterationTrace};

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
    /// Presence rows of the classified pairs, by slot (None while there
    /// are none).
    store: Option<FeatureStore>,
    /// Slot → pair of the store: the classified pairs in the order they
    /// joined the session. A cold inference's slots are its sorted pairs;
    /// a session appends each flush's new pairs, so only here does slot
    /// order differ from sorted order.
    slots: Vec<UserPair>,
    /// Classifier `C`'s cached friend probability per store slot —
    /// thresholding reproduces `Phase1Model::predict_graph` bit-for-bit.
    p1_proba: Vec<f64>,
    /// Per user `u`, the slots of the classified pairs whose `hi` is `u`;
    /// with the store index's run of `u` (the pairs whose `lo` is `u`),
    /// `u`'s universe partners.
    hi_slots: Vec<Vec<usize>>,
    /// Classifier `C`'s probability of the zero JOC, which the
    /// never-co-located residue is scored as.
    residue_probability: f64,
    /// The current result, which reads answer from. It holds the session's
    /// one copy of the universe: the classified pairs (`pairs`) and the
    /// co-location candidates (`candidates`), both sorted and spliced in
    /// place. Its trace is what the next refinement resumes.
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
        let universe = CandidateUniverse {
            n_residue: n_total - candidates.len() as u64,
            pairs: candidates,
            n_total,
            residue_probability,
            residue_predicted_friend,
        };
        let last = InferenceResult {
            candidates: Some(universe),
            ..InferenceResult::empty(initial.n_users())
        };
        let mut session = IncrementalAttack {
            attack,
            opts,
            hi_slots: vec![Vec::new(); initial.n_users()],
            residue_probability,
            dataset: initial,
            index,
            store: None,
            slots: Vec::new(),
            p1_proba: Vec::new(),
            last,
        };
        let every: Vec<usize> = (0..pairs.len()).collect();
        let g0 = session.refresh_phase1(&pairs, &every);
        session.last.pairs = pairs;
        session.run_refinement(g0, &[], &[]);
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
        {
            let _span = seeker_obs::span!("incremental.append");
            self.dataset.append(batch)?;
        }
        // Superset of the genuinely new co-location pairs; the splice
        // filters against the existing sorted universe.
        let fresh = self.index.apply(self.attack.phase1().division(), batch);
        let (added, dirty) = {
            let _span = seeker_obs::span!("incremental.universe");
            let added = self.splice_universe(&fresh);
            let dirty = self.dirty_slots(delta.users(), added.len());
            (added, dirty)
        };
        seeker_obs::counter!("incremental.ingest.dirty_pairs", dirty.len() as u64);
        let g0 = self.refresh_phase1(&added, &dirty);
        self.run_refinement(g0, delta.users(), &dirty);
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
        match self.store.as_ref().and_then(|s| s.index().get(pair)) {
            Some(slot) => self.p1_proba[slot],
            None => self.residue_probability,
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

    /// Splices the `fresh` co-located pairs that are new to the universe
    /// into the result's sorted lists, in place, and returns the ones new
    /// to the classified pairs (sorted): all of them, or none under the
    /// zero-JOC fallback, whose quadratic universe is fixed.
    // lint:allow(panic-reach) -- `new` records the universe and no step clears it
    fn splice_universe(&mut self, fresh: &[UserPair]) -> Vec<UserPair> {
        let last = &mut self.last;
        // Structural invariant: `new` records the universe in the result.
        let universe = last.candidates.as_mut().expect("a session result records its universe"); // lint:allow(no-panic)
        let new: Vec<UserPair> =
            fresh.iter().copied().filter(|p| universe.pairs.binary_search(p).is_err()).collect();
        merge_sorted_by_key(&mut universe.pairs, &new, |&p| p);
        universe.n_residue = universe.n_total - universe.pairs.len() as u64;
        if universe.residue_predicted_friend {
            return Vec::new();
        }
        merge_sorted_by_key(&mut last.pairs, &new, |&p| p);
        new
    }

    /// The sorted store slots whose presence row the batch dirtied: every
    /// universe partner of a touched user, and the `n_added` slots the
    /// classified pairs are about to grow by. Reads the slots of the pairs
    /// classified before the batch; before any, every slot is new.
    fn dirty_slots(&self, touched: &[UserId], n_added: usize) -> Vec<usize> {
        let Some(store) = &self.store else { return (0..n_added).collect() };
        let n_old = store.len();
        let mut dirty: Vec<usize> = (n_old..n_old + n_added).collect();
        for &u in touched {
            dirty.extend(store.index().run(u).iter().map(|&(_, slot)| slot));
            dirty.extend_from_slice(&self.hi_slots[u.index()]);
        }
        dirty.sort_unstable();
        dirty.dedup();
        dirty
    }

    /// Adds the `added` pairs (sorted, new to the classified pairs) as the
    /// next store slots, re-encodes the `dirty` slots (every added one
    /// among them) and re-scores classifier `C` from their rows, in place,
    /// and returns the new `G⁰`. Per-pair purity of both makes the store
    /// and the probabilities bitwise equal to a full rebuild over the
    /// current dataset.
    fn refresh_phase1(&mut self, added: &[UserPair], dirty: &[usize]) -> SocialGraph {
        let _span = seeker_obs::span!("incremental.phase1");
        let n_users = self.dataset.n_users();
        let model = self.attack.phase1();
        if dirty.is_empty() {
            return self.last.trace.graphs[0].clone();
        }
        let first = self.slots.len();
        self.slots.extend_from_slice(added);
        let proba = match &mut self.store {
            Some(store) => store.update(model, &self.dataset, &self.slots, dirty),
            None => {
                let store = self.store.insert(FeatureStore::build(model, &self.dataset, added));
                store.predict_proba(model)
            }
        };
        for (pair, slot) in added.iter().zip(first..) {
            self.hi_slots[pair.hi().index()].push(slot);
        }
        self.p1_proba.resize(self.slots.len(), 0.0);
        for (&slot, p) in dirty.iter().zip(proba) {
            self.p1_proba[slot] = p;
        }
        // G⁰ thresholds the cached probabilities, as a cold inference
        // thresholds its store's: in bulk when every row changed, else by
        // flipping the changed rows' edges in the previous G⁰.
        let threshold = model.threshold();
        let pairs = &self.slots;
        if dirty.len() == pairs.len() {
            let friends: Vec<bool> = self.p1_proba.iter().map(|&p| p >= threshold).collect();
            return graph_from_predictions(n_users, pairs, &friends);
        }
        let mut g0 = self.last.trace.graphs[0].clone();
        for &slot in dirty {
            if self.p1_proba[slot] >= threshold {
                g0.add_edge(pairs[slot]);
            } else {
                g0.remove_edge(pairs[slot]);
            }
        }
        g0
    }

    /// Runs phase-2 refinement from `g0`, resumed from the last result's
    /// trace, which it consumes, and stores the new reference-equivalent
    /// trace. `dirty_users` and `force_rows` are the users and slots whose
    /// presence features the batch changed.
    fn run_refinement(&mut self, g0: SocialGraph, dirty_users: &[UserId], force_rows: &[usize]) {
        let Some(store) = &self.store else {
            // Reference behavior for an empty candidate universe: the
            // answer is the empty graph, no classifier run needed.
            return;
        };
        let _span = seeker_obs::span!("attack.infer");
        let consumed =
            IterationTrace { graphs: Vec::new(), change_ratios: Vec::new(), converged: false };
        let prev = std::mem::replace(&mut self.last.trace, consumed);
        self.last.trace = self.attack.phase2().infer_warm(
            self.attack.config(),
            store,
            &self.slots,
            g0,
            prev,
            dirty_users,
            force_rows,
        );
    }
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

    impl IncrementalAttack {
        /// The universe split the session's result records.
        fn universe(&self) -> &CandidateUniverse {
            self.last.candidates.as_ref().expect("a session result records its universe")
        }
    }

    /// Bit patterns of a row, so `-0.0`/`0.0` and NaN payloads count.
    fn bits32(row: Option<&[f32]>) -> Option<Vec<u32>> {
        row.map(|r| r.iter().map(|x| x.to_bits()).collect())
    }

    /// The session's state equals a session opened on its dataset: the
    /// result, the universe record, `G⁰`, and, per pair, the cached
    /// presence row and probability by bits, with its slot indexed and its
    /// `hi` user listing it.
    fn assert_same_state(session: &IncrementalAttack, attack: &TrainedAttack) {
        let fresh = IncrementalAttack::new(
            attack.clone(),
            session.dataset().clone(),
            IncrementalOptions::default(),
        )
        .unwrap();
        assert_same_result(session.result(), fresh.result());
        assert_eq!(session.last.trace.graphs[0], fresh.last.trace.graphs[0], "G⁰");
        let (u, v) = (session.universe(), fresh.universe());
        assert_eq!(u.pairs, v.pairs, "candidates");
        assert_eq!((u.n_total, u.n_residue), (v.n_total, v.n_residue));
        assert_eq!(u.residue_probability.to_bits(), v.residue_probability.to_bits());
        assert_eq!(u.residue_predicted_friend, v.residue_predicted_friend);
        let (Some(a), Some(b)) = (&session.store, &fresh.store) else {
            assert!(session.store.is_none() && fresh.store.is_none(), "one store is missing");
            return;
        };
        assert_eq!(
            (a.len(), session.slots.len(), session.p1_proba.len()),
            (b.len(), fresh.slots.len(), fresh.p1_proba.len())
        );
        for &p in &session.last.pairs {
            assert_eq!(bits32(a.get(p)), bits32(b.get(p)), "presence row of {p}");
            assert_eq!(session.probability(p).to_bits(), fresh.probability(p).to_bits(), "{p}");
        }
        for (slot, &p) in session.slots.iter().enumerate() {
            assert_eq!(a.index().get(p), Some(slot), "slot of {p}");
            assert!(session.hi_slots[p.hi().index()].contains(&slot), "{p} listed by its hi");
        }
        let listed: usize = session.hi_slots.iter().map(Vec::len).sum();
        assert_eq!(listed, a.len(), "every slot listed once");
    }

    /// Streams the fixture's tail in uneven batches — one touching user 0
    /// and the last user, one of duplicated check-ins, one empty, and
    /// several that insert universe pairs — and after every flush compares
    /// the session's whole state with a session opened on the grown
    /// dataset, which must equal the rebuilt one as a value. A stale row
    /// that flips no decision passes the result contract but not this.
    #[test]
    fn session_state_equals_a_fresh_session_after_every_flush() {
        let (trained, _, initial, tail) = setup();
        let mut session =
            IncrementalAttack::new(trained.clone(), initial.clone(), IncrementalOptions::default())
                .unwrap();
        let last_user = UserId::new(initial.n_users() as u32 - 1);
        let edges: Vec<CheckIn> = tail[..6]
            .iter()
            .enumerate()
            .map(|(i, c)| CheckIn {
                user: if i % 2 == 0 { UserId::new(0) } else { last_user },
                ..*c
            })
            .collect();
        let dup: Vec<CheckIn> =
            initial.checkins()[..5].iter().chain(&tail[6..9]).chain(&tail[6..9]).copied().collect();
        let mut batches: Vec<Vec<CheckIn>> = vec![edges, dup, Vec::new()];
        let mut at = 9;
        for len in [1, 13, 40, 97, 5, 160] {
            batches.push(tail[at..at + len].to_vec());
            at += len;
        }
        batches.push(tail[at..].to_vec());
        let mut inserting = 0;
        for batch in &batches {
            let before = session.dataset().clone();
            let n_pairs = session.universe().pairs.len();
            session.ingest(batch).unwrap();
            let mut all = before.checkins().to_vec();
            all.extend_from_slice(batch);
            assert_eq!(session.dataset(), &before.with_checkins(all).unwrap());
            inserting += usize::from(session.universe().pairs.len() > n_pairs);
            assert_same_state(&session, trained);
        }
        assert!(inserting >= 3, "only {inserting} batches grew the universe");
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
        let Some(&pair) = session.last.pairs.iter().find(|p| !g.has_edge(**p)) else {
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
