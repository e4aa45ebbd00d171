//! Phase 1 — real-world friends inference (§III-B).
//!
//! Builds the spatial-temporal division, casts every candidate pair's
//! trajectories into a joint occurrence cuboid, trains the supervised
//! autoencoder (Algorithm 1) on labeled pairs, and predicts an initial
//! social graph `G⁰` of physical friends.

use seeker_graph::SocialGraph;
use seeker_ml::KnnClassifier;
use seeker_nn::{
    Matrix, SparseRow, SupervisedAutoencoder, SupervisedAutoencoderConfig, TrainReport,
};
use seeker_spatial::{Joc, SpatialTemporalDivision};
use seeker_trace::{Dataset, UserPair};

use crate::config::{ClassifierKind, FriendSeekerConfig};
use crate::error::{AttackError, Result};
use crate::pairs::{labeled_pairs, LabeledPairs};

/// Pairs whose sparse JOC rows and encoder activations are held at once.
/// The encoder and classifier `C` are row-pure, so encoding block by block
/// is bit-identical to one batch (the property sharded inference relies
/// on). Each block pays its own pool hand-offs, so the block stays well
/// above the per-shard chunks of a sharded 10k-user inference (~5k pairs).
const ENCODE_BLOCK: usize = 16_384;

/// The trained phase-1 model: STD + encoder + classifier `C`.
#[derive(Debug, Clone)]
pub struct Phase1Model {
    division: SpatialTemporalDivision,
    autoencoder: SupervisedAutoencoder,
    knn: Option<KnnClassifier>,
    forest: Option<seeker_ml::RandomForest>,
    /// Decision threshold of `C`, calibrated on the held-out pairs (0.5
    /// when no holdout is available). Raw classifier probabilities are
    /// rarely calibrated; picking the F1-maximizing threshold on the
    /// attacker's own labeled holdout costs nothing and fixes that.
    threshold: f64,
}

/// Output of [`train_phase1`]: the model plus its training telemetry.
#[derive(Debug, Clone)]
pub struct Phase1Training {
    /// The trained model.
    pub model: Phase1Model,
    /// Autoencoder loss history.
    pub report: TrainReport,
    /// All labeled pairs (phase 2 builds its graph universe from these).
    pub train_pairs: LabeledPairs,
    /// Indices into `train_pairs` that were **held out** from autoencoder
    /// training — phase 2 fits `C'` on these out-of-fold pairs so it sees
    /// realistically noisy graph features (see `FriendSeekerConfig::oof_fraction`).
    pub holdout: Vec<usize>,
}

/// Trains phase 1 on a labeled dataset.
///
/// # Errors
///
/// Returns [`AttackError::Config`] for invalid configurations,
/// [`AttackError::Data`] if the dataset has no friend pairs to learn from,
/// and propagates STD construction failures.
pub fn train_phase1(cfg: &FriendSeekerConfig, train: &Dataset) -> Result<Phase1Training> {
    let _span = seeker_obs::span!("phase1.train");
    cfg.validate().map_err(AttackError::Config)?;
    let division = match cfg.uniform_grid_depth {
        None => SpatialTemporalDivision::build(train, cfg.sigma, cfg.tau_days)?,
        Some(depth) => SpatialTemporalDivision::build_uniform(train, depth, cfg.tau_days)?,
    };
    let train_pairs = labeled_pairs(train, cfg.negative_ratio, cfg.seed);
    if train_pairs.n_positive() == 0 {
        return Err(AttackError::Data("training dataset has no friend pairs".into()));
    }
    if train_pairs.n_positive() == train_pairs.len() {
        return Err(AttackError::Data("no non-friend pairs could be sampled".into()));
    }
    let (fit_idx, holdout) =
        seeker_ml::stratified_split(&train_pairs.labels, cfg.oof_fraction, cfg.seed ^ 0x00f);
    let mut xs: Vec<SparseRow> = {
        let _span = seeker_obs::span!("phase1.joc");
        fit_idx.iter().map(|&i| joc_row(&division, train, train_pairs.pairs[i])).collect()
    };
    let mut ys: Vec<f32> =
        fit_idx.iter().map(|&i| if train_pairs.labels[i] { 1.0 } else { 0.0 }).collect();
    // Sampled pairs always carry solo presence counts, so the all-zero row
    // that later stands in for the never-co-located residue is out of
    // distribution unless trained explicitly (see
    // `FriendSeekerConfig::zero_joc_negatives`).
    xs.extend(std::iter::repeat_with(SparseRow::new).take(cfg.zero_joc_negatives));
    ys.extend(std::iter::repeat(0.0).take(cfg.zero_joc_negatives));

    let mut ae_cfg =
        SupervisedAutoencoderConfig::new(division.n_cells() * Joc::CHANNELS, cfg.feature_dim);
    ae_cfg.alpha = cfg.alpha;
    ae_cfg.max_hidden = cfg.max_hidden;
    ae_cfg.optimizer = cfg.optimizer;
    ae_cfg.epochs = cfg.epochs;
    ae_cfg.batch_size = cfg.batch_size;
    ae_cfg.seed = cfg.seed;
    let mut autoencoder = SupervisedAutoencoder::new(ae_cfg);
    let report = autoencoder.fit(&xs, &ys);

    let mut knn = None;
    let mut forest = None;
    match cfg.classifier {
        ClassifierKind::MlpHead => {}
        ClassifierKind::Knn { k } => {
            let encoded = autoencoder.encode(&xs);
            let rows: Vec<Vec<f32>> =
                (0..encoded.rows()).map(|r| encoded.row(r).to_vec()).collect();
            let labels: Vec<bool> = fit_labels(&fit_idx, &train_pairs, cfg.zero_joc_negatives);
            knn = Some(KnnClassifier::fit(k, rows, labels));
        }
        ClassifierKind::RandomForest { n_trees } => {
            let encoded = autoencoder.encode(&xs);
            let rows: Vec<Vec<f32>> =
                (0..encoded.rows()).map(|r| encoded.row(r).to_vec()).collect();
            let labels: Vec<bool> = fit_labels(&fit_idx, &train_pairs, cfg.zero_joc_negatives);
            let fcfg = seeker_ml::ForestConfig { n_trees, seed: cfg.seed, ..Default::default() };
            forest = Some(seeker_ml::RandomForest::fit(&fcfg, &rows, &labels));
        }
    }

    let mut model = Phase1Model { division, autoencoder, knn, forest, threshold: 0.5 };
    if holdout.len() >= 20 {
        let h_pairs: Vec<UserPair> = holdout.iter().map(|&i| train_pairs.pairs[i]).collect();
        let h_labels: Vec<bool> = holdout.iter().map(|&i| train_pairs.labels[i]).collect();
        let probs = model.predict_proba(train, &h_pairs);
        model.threshold = best_threshold(&probs, &h_labels);
    }

    Ok(Phase1Training { model, report, train_pairs, holdout })
}

/// Boolean fit-set labels: the sampled pairs' labels followed by the
/// synthetic zero-JOC negatives (matching the row order of `xs`).
fn fit_labels(fit_idx: &[usize], train_pairs: &LabeledPairs, n_zero: usize) -> Vec<bool> {
    let mut labels: Vec<bool> = fit_idx.iter().map(|&i| train_pairs.labels[i]).collect();
    labels.extend(std::iter::repeat(false).take(n_zero));
    labels
}

/// The F1-maximizing decision threshold over scored labels (ties grouped).
fn best_threshold(scores: &[f64], labels: &[bool]) -> f64 {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
    let total_pos = labels.iter().filter(|&&y| y).count();
    let mut tp = 0usize;
    let mut best = (0.5f64, -1.0f64);
    let mut k = 0usize;
    while k < order.len() {
        let score = scores[order[k]];
        while k < order.len() && scores[order[k]] == score {
            if labels[order[k]] {
                tp += 1;
            }
            k += 1;
        }
        let fp = k - tp;
        let fn_ = total_pos - tp;
        let f1 = if tp == 0 {
            0.0
        } else {
            2.0 * tp as f64 / (2.0 * tp as f64 + fp as f64 + fn_ as f64)
        };
        if f1 > best.1 {
            best = (score, f1);
        }
    }
    best.0
}

/// Flattened sparse JOC of one pair over a division.
pub fn joc_row(division: &SpatialTemporalDivision, ds: &Dataset, pair: UserPair) -> SparseRow {
    Joc::build(division, ds.trajectory(pair.lo()), ds.trajectory(pair.hi())).sparse_log1p()
}

impl Phase1Model {
    /// The spatial-temporal division the model was trained on. Target
    /// datasets are cast into this same division.
    pub fn division(&self) -> &SpatialTemporalDivision {
        &self.division
    }

    /// The presence-feature dimension `d`.
    pub fn feature_dim(&self) -> usize {
        self.autoencoder.feature_dim()
    }

    /// Presence-proximity features (`n × d`) of the given pairs on `ds`.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty.
    pub fn features(&self, ds: &Dataset, pairs: &[UserPair]) -> Matrix {
        assert!(!pairs.is_empty(), "no pairs to featurize");
        let _span = seeker_obs::span!("phase1.joc");
        seeker_obs::counter!("core.pairs_evaluated", pairs.len() as u64);
        let mut data = Vec::with_capacity(pairs.len() * self.feature_dim());
        for block in pairs.chunks(ENCODE_BLOCK) {
            data.extend_from_slice(self.autoencoder.encode(&self.joc_rows(ds, block)).as_slice());
        }
        Matrix::from_vec(pairs.len(), self.feature_dim(), data)
    }

    /// The presence feature of a single pair.
    pub fn feature_of(&self, ds: &Dataset, pair: UserPair) -> Vec<f32> {
        self.autoencoder.encode_one(&joc_row(&self.division, ds, pair))
    }

    /// Friend probability of each pair under classifier `C`.
    pub fn predict_proba(&self, ds: &Dataset, pairs: &[UserPair]) -> Vec<f64> {
        let _span = seeker_obs::span!("phase1.joc");
        seeker_obs::counter!("core.pairs_evaluated", pairs.len() as u64);
        let mut out = Vec::with_capacity(pairs.len());
        for block in pairs.chunks(ENCODE_BLOCK) {
            let xs = self.joc_rows(ds, block);
            if let Some(knn) = &self.knn {
                let encoded = self.autoencoder.encode(&xs);
                out.extend((0..encoded.rows()).map(|r| knn.predict_proba_one(encoded.row(r))));
            } else if let Some(forest) = &self.forest {
                let encoded = self.autoencoder.encode(&xs);
                out.extend((0..encoded.rows()).map(|r| forest.predict_proba_one(encoded.row(r))));
            } else {
                out.extend(self.autoencoder.predict_proba(&xs).into_iter().map(f64::from));
            }
        }
        out
    }

    /// The sparse JOC rows of `pairs`. Per-pair JOC construction is the
    /// quadratic front half of phase 1; each cuboid only reads the (shared)
    /// division and trajectories.
    fn joc_rows(&self, ds: &Dataset, pairs: &[UserPair]) -> Vec<SparseRow> {
        seeker_par::par_map_cost(pairs, seeker_par::Cost::Heavy, |&p| {
            joc_row(&self.division, ds, p)
        })
    }

    /// Binary friendship predictions at the calibrated threshold.
    pub fn predict(&self, ds: &Dataset, pairs: &[UserPair]) -> Vec<bool> {
        self.predict_proba(ds, pairs).into_iter().map(|p| p >= self.threshold).collect()
    }

    /// Friend probability classifier `C` assigns to the **all-zero** JOC —
    /// the presence input of a pair with no check-ins inside the division.
    ///
    /// Candidate-mode inference scores the never-co-located residue with a
    /// single cached prediction; this is that prediction, computed through
    /// whichever classifier variant the model carries.
    pub fn zero_joc_proba(&self) -> f64 {
        let zero: SparseRow = Vec::new();
        if let Some(knn) = &self.knn {
            return knn.predict_proba_one(&self.autoencoder.encode_one(&zero));
        }
        if let Some(forest) = &self.forest {
            return forest.predict_proba_one(&self.autoencoder.encode_one(&zero));
        }
        self.autoencoder
            .predict_proba(std::slice::from_ref(&zero))
            .first()
            .copied()
            .map(f64::from)
            .unwrap_or(0.0)
    }

    /// The calibrated decision threshold of classifier `C`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The trained supervised autoencoder (persistence).
    pub fn autoencoder(&self) -> &SupervisedAutoencoder {
        &self.autoencoder
    }

    /// Reassembles a phase-1 model from persisted parts. Only the MLP-head
    /// classifier variant is reconstructible this way.
    pub(crate) fn from_parts(
        division: SpatialTemporalDivision,
        autoencoder: SupervisedAutoencoder,
        threshold: f64,
    ) -> Phase1Model {
        Phase1Model { division, autoencoder, knn: None, forest: None, threshold }
    }

    /// The initial social graph `G⁰`: an edge for every pair predicted as
    /// friends.
    pub fn predict_graph(&self, ds: &Dataset, pairs: &[UserPair]) -> SocialGraph {
        crate::phase2::graph_from_predictions(ds.n_users(), pairs, &self.predict(ds, pairs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seeker_ml::BinaryMetrics;
    use seeker_trace::synth::{generate, SyntheticConfig};

    fn setup() -> &'static (Dataset, Phase1Training) {
        use std::sync::OnceLock;
        static CELL: OnceLock<(Dataset, Phase1Training)> = OnceLock::new();
        CELL.get_or_init(|| {
            let ds = generate(&SyntheticConfig::small(31)).unwrap().dataset;
            let cfg = FriendSeekerConfig::fast();
            let training = train_phase1(&cfg, &ds).unwrap();
            (ds, training)
        })
    }

    #[test]
    fn training_produces_discriminative_model() {
        let (ds, training) = setup();
        // Evaluate on the training pairs themselves: the model must beat
        // chance clearly on data it has seen.
        let preds = training.model.predict(ds, &training.train_pairs.pairs);
        let m = BinaryMetrics::from_predictions(&preds, &training.train_pairs.labels);
        assert!(m.f1() > 0.6, "train F1 {}", m.f1());
    }

    #[test]
    fn report_shows_loss_decrease() {
        let (_, training) = setup();
        let first = training.report.epochs.first().unwrap();
        let last = training.report.final_losses().unwrap();
        assert!(last.classification <= first.classification);
    }

    #[test]
    fn features_have_configured_dimension() {
        let (ds, training) = setup();
        let pairs = &training.train_pairs.pairs[..4];
        let f = training.model.features(ds, pairs);
        assert_eq!(f.rows(), 4);
        assert_eq!(f.cols(), FriendSeekerConfig::fast().feature_dim);
        let single = training.model.feature_of(ds, pairs[0]);
        assert_eq!(single, f.row(0).to_vec());
    }

    #[test]
    fn predicted_graph_matches_predictions() {
        let (ds, training) = setup();
        let pairs = &training.train_pairs.pairs;
        let preds = training.model.predict(ds, pairs);
        let g = training.model.predict_graph(ds, pairs);
        for (&pair, &p) in pairs.iter().zip(preds.iter()) {
            assert_eq!(g.has_edge(pair), p);
        }
        assert_eq!(g.n_vertices(), ds.n_users());
    }

    #[test]
    fn knn_classifier_variant_works() {
        let ds = generate(&SyntheticConfig::small(33)).unwrap().dataset;
        let mut cfg = FriendSeekerConfig::fast();
        cfg.classifier = ClassifierKind::Knn { k: 5 };
        let training = train_phase1(&cfg, &ds).unwrap();
        let preds = training.model.predict(&ds, &training.train_pairs.pairs);
        let m = BinaryMetrics::from_predictions(&preds, &training.train_pairs.labels);
        // KNN on seen data with k=5 should also beat chance.
        assert!(m.f1() > 0.6, "knn train F1 {}", m.f1());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let ds = generate(&SyntheticConfig::small(34)).unwrap().dataset;
        let mut cfg = FriendSeekerConfig::fast();
        cfg.k_hop = 0;
        assert!(matches!(train_phase1(&cfg, &ds), Err(AttackError::Config(_))));
    }

    #[test]
    fn probabilities_are_probabilities() {
        let (ds, training) = setup();
        for p in training.model.predict_proba(ds, &training.train_pairs.pairs[..8]) {
            assert!((0.0..=1.0).contains(&p));
        }
    }
}
