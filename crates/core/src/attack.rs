//! The end-to-end FriendSeeker attack: train on a labeled dataset, infer
//! hidden friendships on a target dataset (§II-B attack model).

use seeker_graph::SocialGraph;
use seeker_ml::BinaryMetrics;
use seeker_trace::{Dataset, UserPair};

use crate::candidates::{candidate_universe, candidate_universe_sharded, CandidateUniverse};
use crate::config::FriendSeekerConfig;
use crate::error::Result;
use crate::pairs::{all_pairs, ground_truth_labels};
use crate::phase1::{train_phase1, Phase1Model};
use crate::phase2::{train_phase2, IterationTrace, Phase2Model, Rows};

/// The FriendSeeker attack, parameterized by a configuration.
///
/// ```no_run
/// use friendseeker::{FriendSeeker, FriendSeekerConfig};
/// use seeker_trace::synth::{generate, SyntheticConfig};
///
/// let train = generate(&SyntheticConfig::synth_gowalla(1))?.dataset;
/// let target = generate(&SyntheticConfig::synth_gowalla(2))?.dataset;
/// let attack = FriendSeeker::new(FriendSeekerConfig::default());
/// let trained = attack.train(&train)?;
/// let result = trained.infer(&target)?;
/// println!("predicted {} friendships", result.final_graph().n_edges());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct FriendSeeker {
    cfg: FriendSeekerConfig,
}

impl FriendSeeker {
    /// Creates the attack with the given configuration.
    pub fn new(cfg: FriendSeekerConfig) -> Self {
        FriendSeeker { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &FriendSeekerConfig {
        &self.cfg
    }

    /// Trains both phases on a labeled dataset (check-ins + ground-truth
    /// friendships).
    ///
    /// # Errors
    ///
    /// Propagates configuration and data errors from the two phases.
    pub fn train(&self, train: &Dataset) -> Result<TrainedAttack> {
        let _span = seeker_obs::span!("attack.train");
        let p1 = train_phase1(&self.cfg, train)?;
        let (p2, train_trace) =
            train_phase2(&self.cfg, &p1.model, train, &p1.train_pairs, &p1.holdout)?;
        Ok(TrainedAttack {
            cfg: self.cfg.clone(),
            phase1: p1.model,
            phase2: p2,
            train_trace: Some(train_trace),
        })
    }
}

/// A fully trained attack, ready to run against unlabeled targets.
#[derive(Debug, Clone)]
pub struct TrainedAttack {
    cfg: FriendSeekerConfig,
    phase1: Phase1Model,
    phase2: Phase2Model,
    /// `None` for an attack reassembled from persistence: the training
    /// trace is not persisted, and fabricating a stand-in (the old code
    /// used a 0-vertex graph) silently hands callers a graph from the
    /// wrong universe.
    train_trace: Option<IterationTrace>,
}

impl TrainedAttack {
    /// Reassembles a trained attack from persisted parts. The training
    /// trace is not persisted; a loaded attack reports none.
    pub(crate) fn from_parts(
        cfg: FriendSeekerConfig,
        phase1: Phase1Model,
        phase2: Phase2Model,
    ) -> TrainedAttack {
        TrainedAttack { cfg, phase1, phase2, train_trace: None }
    }

    /// The configuration used for training.
    pub fn config(&self) -> &FriendSeekerConfig {
        &self.cfg
    }

    /// The phase-1 model (STD + encoder + `C`).
    pub fn phase1(&self) -> &Phase1Model {
        &self.phase1
    }

    /// The phase-2 model (`C'`).
    pub fn phase2(&self) -> &Phase2Model {
        &self.phase2
    }

    /// The refinement trace observed during training (convergence studies),
    /// or `None` for an attack loaded from persistence — the trace is not
    /// part of the persisted payload.
    pub fn train_trace(&self) -> Option<&IterationTrace> {
        self.train_trace.as_ref()
    }

    /// Runs the attack over the target dataset's pair universe.
    ///
    /// By default the quadratic universe is pruned to co-occurrence
    /// candidates (pairs sharing ≥ 1 STD cell); the never-co-located
    /// residue is counted and covered by classifier `C`'s cached all-zero
    /// JOC prediction (see [`crate::candidates`]). If that prediction
    /// clears the decision threshold, pruning would flip real decisions,
    /// so the run logs the event and falls back to the full universe.
    /// [`TrainedAttack::infer_full`] is the quadratic reference and
    /// [`TrainedAttack::infer_sharded`] the shard-by-shard form; both give
    /// the same output.
    ///
    /// # Errors
    ///
    /// Returns [`crate::AttackError::PairUniverse`] if the universe size
    /// does not fit the platform.
    pub fn infer(&self, target: &Dataset) -> Result<InferenceResult> {
        let universe = candidate_universe(&self.phase1, target)?;
        self.infer_universe(target, universe, None)
    }

    /// Runs the attack shard-by-shard: candidate enumeration processes
    /// `n_shards` cell ranges at a time and phase-2 scoring at least
    /// `n_shards` chunks per iteration, so neither the per-cell pair lists
    /// nor a universe-wide composite-feature matrix or SVM batch is ever
    /// materialized. The one universe-sized structure is the presence
    /// store, `d` floats per candidate pair (~80 B with its index entry),
    /// so peak memory is `O(users + candidate pairs)`.
    ///
    /// The output is bit-identical to [`TrainedAttack::infer`] on the same
    /// target (pinned by the shard contract tests); the universe split,
    /// residue accounting, and unsound-pruning fallback behave identically.
    ///
    /// # Errors
    ///
    /// Returns [`crate::AttackError::PairUniverse`] if the universe size
    /// does not fit the platform.
    pub fn infer_sharded(&self, target: &Dataset, n_shards: usize) -> Result<InferenceResult> {
        let universe = candidate_universe_sharded(&self.phase1, target, n_shards)?;
        self.infer_universe(target, universe, Some(n_shards))
    }

    /// The tail [`TrainedAttack::infer`] and [`TrainedAttack::infer_sharded`]
    /// share: the unsound-pruning fallback, the empty universe, and the
    /// run over the candidates (sharded when `n_shards` is given).
    fn infer_universe(
        &self,
        target: &Dataset,
        universe: CandidateUniverse,
        n_shards: Option<usize>,
    ) -> Result<InferenceResult> {
        let mut result = if universe.residue_predicted_friend {
            seeker_obs::counter!("attack.candidates.fallback_full", 1);
            seeker_obs::info!(
                "attack.candidates: zero-JOC probability {:.4} >= threshold {:.4}; residue pruning unsound, using full universe",
                universe.residue_probability,
                self.phase1.threshold()
            );
            self.infer_pairs(target, all_pairs(target)?)
        } else if universe.pairs.is_empty() {
            // No pair ever co-occupies a cell and the zero-JOC prediction
            // is "not friends": the answer is the empty graph, no classifier
            // run needed.
            InferenceResult::empty(target.n_users())
        } else {
            let pairs = universe.pairs.clone();
            match n_shards {
                None => self.infer_pairs(target, pairs),
                Some(n) => self.classify(pairs, |p| {
                    self.phase2.infer_sharded(&self.cfg, &self.phase1, target, p, n)
                }),
            }
        };
        result.candidates = Some(universe);
        Ok(result)
    }

    /// Runs the attack over the **full** quadratic universe with full
    /// per-iteration recomputation — the reference path the candidate +
    /// incremental mode is contract-tested against.
    ///
    /// # Errors
    ///
    /// Returns [`crate::AttackError::PairUniverse`] if the universe size
    /// does not fit the platform.
    pub fn infer_full(&self, target: &Dataset) -> Result<InferenceResult> {
        Ok(self.infer_pairs_full(target, all_pairs(target)?))
    }

    /// Runs the attack over an explicit candidate pair list, reusing clean
    /// pair predictions across refinement iterations.
    pub fn infer_pairs(&self, target: &Dataset, pairs: Vec<UserPair>) -> InferenceResult {
        self.classify(pairs, |p| self.phase2.infer(&self.cfg, &self.phase1, target, p))
    }

    /// Runs the attack over an explicit pair list with full per-iteration
    /// recomputation (no reuse) — the incremental path's reference.
    pub fn infer_pairs_full(&self, target: &Dataset, pairs: Vec<UserPair>) -> InferenceResult {
        self.classify(pairs, |p| {
            self.phase2.infer_impl(&self.cfg, &self.phase1, target, p, Rows::All, 1)
        })
    }

    /// Refines `pairs` with `refine` under the `attack.infer` span.
    fn classify(
        &self,
        pairs: Vec<UserPair>,
        refine: impl FnOnce(&[UserPair]) -> IterationTrace,
    ) -> InferenceResult {
        let _span = seeker_obs::span!("attack.infer");
        let trace = refine(&pairs);
        InferenceResult { pairs, trace, candidates: None }
    }
}

/// The outcome of one attack run on a target dataset.
#[derive(Debug, Clone)]
pub struct InferenceResult {
    /// The candidate pairs that were classified.
    pub pairs: Vec<UserPair>,
    /// The graph sequence `G⁰ … Gᶠⁱⁿᵃˡ`.
    pub trace: IterationTrace,
    /// The universe split behind a candidate-mode run ([`TrainedAttack::infer`]);
    /// `None` when the caller supplied the pair list explicitly.
    pub candidates: Option<CandidateUniverse>,
}

impl InferenceResult {
    /// The result over an empty pair universe: the empty graph on
    /// `n_users` vertices, with nothing to refine.
    pub(crate) fn empty(n_users: usize) -> InferenceResult {
        let trace = IterationTrace {
            graphs: vec![SocialGraph::new(n_users)],
            change_ratios: Vec::new(),
            converged: true,
        };
        InferenceResult { pairs: Vec::new(), trace, candidates: None }
    }

    /// The final predicted social graph.
    pub fn final_graph(&self) -> &SocialGraph {
        self.trace.final_graph()
    }

    /// Binary predictions for the candidate pairs against a given graph of
    /// the sequence (index 0 = `G⁰`).
    ///
    /// # Panics
    ///
    /// Panics if `iteration` is out of range.
    pub fn predictions_at(&self, iteration: usize) -> Vec<bool> {
        let g = &self.trace.graphs[iteration];
        self.pairs.iter().map(|&p| g.has_edge(p)).collect()
    }

    /// Final-iteration predictions for the candidate pairs.
    pub fn predictions(&self) -> Vec<bool> {
        self.predictions_at(self.trace.graphs.len() - 1)
    }

    /// Evaluates the final graph against the target's ground truth over the
    /// candidate pairs.
    pub fn evaluate(&self, target: &Dataset) -> BinaryMetrics {
        let labels = ground_truth_labels(target, &self.pairs);
        BinaryMetrics::from_predictions(&self.predictions(), &labels)
    }

    /// Evaluates every iteration (Fig. 10: accuracy vs iterations).
    pub fn evaluate_iterations(&self, target: &Dataset) -> Vec<BinaryMetrics> {
        let labels = ground_truth_labels(target, &self.pairs);
        (0..self.trace.graphs.len())
            .map(|i| BinaryMetrics::from_predictions(&self.predictions_at(i), &labels))
            .collect()
    }

    /// Evaluates the final graph over an arbitrary labeled pair subset
    /// (used by the co-location / check-in bucketed experiments).
    pub fn evaluate_subset(&self, pairs: &[UserPair], labels: &[bool]) -> BinaryMetrics {
        let g = self.final_graph();
        let preds: Vec<bool> = pairs.iter().map(|&p| g.has_edge(p)).collect();
        BinaryMetrics::from_predictions(&preds, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs::labeled_pairs;
    use seeker_trace::synth::{generate, SyntheticConfig};
    use seeker_trace::UserId;

    /// Train on one small world, attack a *different* small world
    /// (user-disjoint by construction) — the paper's §II-B setting.
    /// Computed once and shared across tests (the pipeline is deterministic).
    fn end_to_end() -> &'static (Dataset, InferenceResult) {
        use std::sync::OnceLock;
        static CELL: OnceLock<(Dataset, InferenceResult)> = OnceLock::new();
        CELL.get_or_init(|| {
            let train = generate(&SyntheticConfig::small(61)).unwrap().dataset;
            let target = generate(&SyntheticConfig::small(62)).unwrap().dataset;
            let attack = FriendSeeker::new(FriendSeekerConfig::fast());
            let trained = attack.train(&train).unwrap();
            // Balanced candidate list keeps the test fast and the F1 readable.
            let lp = labeled_pairs(&target, 1.0, 777);
            let result = trained.infer_pairs(&target, lp.pairs);
            (target, result)
        })
    }

    #[test]
    fn attack_beats_chance_on_unseen_world() {
        let (target, result) = end_to_end();
        let m = result.evaluate(target);
        // A balanced pair set means chance F1 ≈ 0.5 for a coin flip and
        // ≈ 0.67 for always-friend; demand clearly better than coin flip.
        assert!(m.f1() > 0.55, "cross-world F1 {}", m.f1());
    }

    #[test]
    fn iteration_metrics_cover_every_graph() {
        let (target, result) = end_to_end();
        let per_iter = result.evaluate_iterations(target);
        assert_eq!(per_iter.len(), result.trace.graphs.len());
        let final_f1 = per_iter.last().unwrap().f1();
        assert!((final_f1 - result.evaluate(target).f1()).abs() < 1e-12);
    }

    #[test]
    fn predictions_align_with_final_graph() {
        let (_, result) = end_to_end();
        let preds = result.predictions();
        for (&pair, &p) in result.pairs.iter().zip(preds.iter()) {
            assert_eq!(p, result.final_graph().has_edge(pair));
        }
    }

    #[test]
    fn evaluate_subset_consistency() {
        let (target, result) = end_to_end();
        let labels = ground_truth_labels(target, &result.pairs);
        let m1 = result.evaluate(target);
        let m2 = result.evaluate_subset(&result.pairs, &labels);
        assert_eq!(m1, m2);
    }

    #[test]
    fn trained_attack_exposes_internals() {
        let train = generate(&SyntheticConfig::small(63)).unwrap().dataset;
        let attack = FriendSeeker::new(FriendSeekerConfig::fast());
        assert_eq!(attack.config().k_hop, 3);
        let trained = attack.train(&train).unwrap();
        assert_eq!(trained.config().k_hop, 3);
        assert!(trained.phase1().feature_dim() > 0);
        assert!(trained.phase2().svm().n_support_vectors() > 0);
        let trace = trained.train_trace().expect("freshly trained attack keeps its trace");
        assert!(trace.n_iterations() >= 1);
    }

    #[test]
    fn infer_full_has_quadratic_universe() {
        let train = generate(&SyntheticConfig::small(64)).unwrap().dataset;
        let attack = FriendSeeker::new(FriendSeekerConfig::fast());
        let trained = attack.train(&train).unwrap();
        let target = generate(&SyntheticConfig::small(65)).unwrap().dataset;
        let full = trained.infer_full(&target).unwrap();
        let n = target.n_users();
        assert_eq!(full.pairs.len(), n * (n - 1) / 2);
        // Sanity: every predicted edge is a valid user pair.
        for e in full.final_graph().edges() {
            assert!(e.hi().index() < n);
            assert_ne!(e.lo(), UserId::new(e.hi().raw()));
        }
        // Candidate mode accounts for every pair of the same universe:
        // scored candidates plus the counted zero-JOC residue — or, when
        // the zero-JOC prediction is "friend" (pruning would flip real
        // decisions), the documented fallback to the full universe.
        let result = trained.infer(&target).unwrap();
        let u = result.candidates.as_ref().expect("infer records its universe split");
        assert_eq!(u.n_total, (n * (n - 1) / 2) as u64);
        assert_eq!(u.pairs.len() as u64 + u.n_residue, u.n_total);
        if u.residue_predicted_friend {
            assert_eq!(result.pairs.len() as u64, u.n_total, "fallback must cover the universe");
        } else {
            assert_eq!(result.pairs.len() as u64 + u.n_residue, u.n_total);
        }
    }
}
