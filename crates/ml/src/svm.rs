//! Soft-margin SVM trained with simplified SMO — the paper's classifier `C'`
//! ("we use … SVM as the classifier C'. We use RBF as the kernel function").
//!
//! The solver is Platt's SMO in its simplified form (two-alpha working set,
//! random second choice): exact enough for the few-thousand-sample training
//! sets of this reproduction and entirely dependency-free.

use rand::prelude::*;
use rand::rngs::StdRng;

/// SVM kernel functions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// Inner product.
    Linear,
    /// Radial basis function `exp(-γ ||x − y||²)` — the paper's choice.
    Rbf {
        /// The γ bandwidth parameter.
        gamma: f32,
    },
}

impl Kernel {
    /// Evaluates the kernel on two feature vectors.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn eval(self, a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "kernel operand length mismatch");
        match self {
            Kernel::Linear => a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum(),
            Kernel::Rbf { gamma } => {
                let mut d2 = 0.0f32;
                for (&x, &y) in a.iter().zip(b.iter()) {
                    let d = x - y;
                    d2 += d * d;
                }
                (-gamma * d2).exp()
            }
        }
    }
}

/// Hyper-parameters of [`Svm::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct SvmConfig {
    /// Soft-margin penalty C.
    pub c: f32,
    /// Kernel function.
    pub kernel: Kernel,
    /// KKT-violation tolerance.
    pub tol: f32,
    /// Stop after this many consecutive passes without any alpha change.
    pub max_passes: usize,
    /// Hard cap on total optimization passes.
    pub max_iters: usize,
    /// Seed for the second-alpha random choice.
    pub seed: u64,
}

impl Default for SvmConfig {
    fn default() -> Self {
        SvmConfig {
            c: 1.0,
            kernel: Kernel::Rbf { gamma: 0.05 },
            tol: 1e-3,
            max_passes: 5,
            max_iters: 200,
            seed: 42,
        }
    }
}

/// Memory budget for the SMO kernel-row cache: enough to hold the full
/// Gram matrix for the few-thousand-sample training sets of this
/// reproduction, while capping resident kernel rows at Gowalla scale
/// (100k samples would need 40 GB for a full Gram).
const ROW_CACHE_BUDGET_BYTES: usize = 64 << 20;

/// The least-recently-used slot index sentinel.
const NO_SLOT: usize = usize::MAX;

/// Lazy LRU cache of kernel (Gram) rows for the SMO loop.
///
/// PR 1's solver materialized the full `n × n` Gram matrix up front —
/// `O(n²)` memory and `n(n+1)/2` kernel evaluations even when SMO touches a
/// small working set. This cache computes rows on demand and evicts by
/// recency under a fixed byte budget.
///
/// Bit-exactness: a recomputed row is identical to the old symmetric Gram
/// fill because `Kernel::eval(a, b) == Kernel::eval(b, a)` **bitwise** —
/// RBF squares `(x − y)` where IEEE negation is exact and the per-dimension
/// accumulation order is the same either way; Linear multiplies, and IEEE
/// multiplication is commutative at the bit level. Training trajectories
/// therefore do not depend on the cache capacity (pinned by the
/// `tiny_row_cache_reproduces_default_training_bitwise` test).
struct KernelRowCache<'a> {
    kernel: Kernel,
    xs: &'a [Vec<f32>],
    n: usize,
    cap: usize,
    /// Resident rows, grown lazily up to `cap` slots of `n` values.
    rows: Vec<Vec<f32>>,
    /// slot → resident sample index (or `NO_SLOT`).
    row_of_slot: Vec<usize>,
    /// sample index → slot (or `NO_SLOT`).
    slot_of_row: Vec<usize>,
    /// slot → last-touch tick, for LRU eviction.
    stamp: Vec<u64>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<'a> KernelRowCache<'a> {
    fn new(kernel: Kernel, xs: &'a [Vec<f32>], cap: usize) -> Self {
        let n = xs.len();
        // At least 2 slots so an (i, j) working pair is always resident.
        let cap = cap.clamp(2, n.max(2));
        KernelRowCache {
            kernel,
            xs,
            n,
            cap,
            rows: Vec::new(),
            row_of_slot: Vec::new(),
            slot_of_row: vec![NO_SLOT; n],
            stamp: Vec::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn touch(&mut self, slot: usize) {
        self.tick += 1;
        self.stamp[slot] = self.tick;
    }

    /// Makes row `r` resident and returns its slot, never evicting
    /// `pinned` (the other half of the working pair).
    fn ensure(&mut self, r: usize, pinned: usize) -> usize {
        let cached = self.slot_of_row[r];
        if cached != NO_SLOT {
            self.hits += 1;
            self.touch(cached);
            return cached;
        }
        self.misses += 1;
        let slot = if self.rows.len() < self.cap {
            self.rows.push(vec![0.0f32; self.n]);
            self.row_of_slot.push(NO_SLOT);
            self.stamp.push(0);
            self.rows.len() - 1
        } else {
            let mut victim = NO_SLOT;
            for s in 0..self.rows.len() {
                if s != pinned && (victim == NO_SLOT || self.stamp[s] < self.stamp[victim]) {
                    victim = s;
                }
            }
            self.evictions += 1;
            let old = self.row_of_slot[victim];
            if old != NO_SLOT {
                self.slot_of_row[old] = NO_SLOT;
            }
            victim
        };
        let xr = &self.xs[r];
        let row = &mut self.rows[slot];
        for (p, sample) in self.xs.iter().enumerate() {
            row[p] = self.kernel.eval(xr, sample);
        }
        self.row_of_slot[slot] = r;
        self.slot_of_row[r] = slot;
        self.touch(slot);
        slot
    }

    /// Both Gram rows of the SMO working pair, resident simultaneously.
    fn pair(&mut self, i: usize, j: usize) -> (&[f32], &[f32]) {
        let si = self.ensure(i, NO_SLOT);
        let sj = self.ensure(j, si);
        (&self.rows[si], &self.rows[sj])
    }
}

/// A trained support-vector machine (binary).
#[derive(Debug, Clone)]
pub struct Svm {
    kernel: Kernel,
    support_x: Vec<Vec<f32>>,
    /// `alpha_i * y_i` for each support vector.
    coeffs: Vec<f32>,
    bias: f32,
    dim: usize,
    /// The support vectors in tiles of [`SV_LANES`]: tile `t` is entries
    /// `t·dim .. (t + 1)·dim`, entry `d` holding dimension `d` of support
    /// vectors `t·SV_LANES ..`, one per lane. The last tile's lanes past the
    /// final support vector are zero.
    sv_tiles: Vec<[f32; SV_LANES]>,
}

/// Lays support vectors out in the zero-padded lane tiles of
/// [`Svm::sv_tiles`].
fn tile_svs(support_x: &[Vec<f32>], dim: usize) -> Vec<[f32; SV_LANES]> {
    let mut tiles = vec![[0.0f32; SV_LANES]; support_x.len().div_ceil(SV_LANES) * dim];
    for (s, sv) in support_x.iter().enumerate() {
        let tile = &mut tiles[s / SV_LANES * dim..][..dim];
        for (lanes, &v) in tile.iter_mut().zip(sv.iter()) {
            lanes[s % SV_LANES] = v;
        }
    }
    tiles
}

/// Support vectors evaluated per tile by the decision kernel. Each lane is
/// one support vector's own sequential sum over dimensions, so a tile's
/// fixed-width lane loop vectorizes without reordering any sum; zero
/// padding fills the last tile, and its padded lanes are never read back.
const SV_LANES: usize = 8;

impl Svm {
    /// Trains an SVM on `xs` with boolean labels (`true` = friend).
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty/mismatched/ragged, or `c <= 0`.
    pub fn fit(cfg: &SvmConfig, xs: &[Vec<f32>], labels: &[bool]) -> Self {
        let cache_rows = ROW_CACHE_BUDGET_BYTES / (4 * xs.len().max(1));
        Self::fit_impl(cfg, xs, labels, cache_rows)
    }

    /// [`Svm::fit`] with an explicit kernel-row cache capacity. Training is
    /// bitwise independent of the capacity (see [`KernelRowCache`]); the
    /// knob exists so tests can force heavy eviction.
    fn fit_impl(cfg: &SvmConfig, xs: &[Vec<f32>], labels: &[bool], cache_rows: usize) -> Self {
        let _span = seeker_obs::span!("ml.svm.fit");
        assert_eq!(xs.len(), labels.len(), "sample/label count mismatch");
        assert!(!xs.is_empty(), "cannot train on an empty set");
        assert!(cfg.c > 0.0, "C must be positive");
        let n = xs.len();
        let dim = xs[0].len();
        assert!(xs.iter().all(|r| r.len() == dim), "inconsistent feature dimensions");
        let ys: Vec<f32> = labels.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();

        // Diagonal up front (always hot: every eta and bias update reads
        // it); full rows come from the LRU cache on demand.
        let diag: Vec<f32> = xs.iter().map(|x| cfg.kernel.eval(x, x)).collect();
        let mut cache = KernelRowCache::new(cfg.kernel, xs, cache_rows);

        let mut alphas = vec![0.0f32; n];
        let mut b = 0.0f32;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // Error cache: E[p] = f(p) − y(p). With all alphas zero, f ≡ 0.
        let mut errs: Vec<f32> = ys.iter().map(|&y| -y).collect();

        let mut passes = 0usize;
        let mut iters = 0usize;
        while passes < cfg.max_passes && iters < cfg.max_iters {
            iters += 1;
            let mut changed = 0usize;
            for i in 0..n {
                let ei = errs[i];
                let violates = (ys[i] * ei < -cfg.tol && alphas[i] < cfg.c)
                    || (ys[i] * ei > cfg.tol && alphas[i] > 0.0);
                if !violates {
                    continue;
                }
                let mut j = rng.gen_range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                let ej = errs[j];
                let (ai_old, aj_old) = (alphas[i], alphas[j]);
                let (lo, hi) = if ys[i] != ys[j] {
                    ((aj_old - ai_old).max(0.0), (cfg.c + aj_old - ai_old).min(cfg.c))
                } else {
                    ((ai_old + aj_old - cfg.c).max(0.0), (ai_old + aj_old).min(cfg.c))
                };
                if lo >= hi - 1e-12 {
                    continue;
                }
                let (row_i, row_j) = cache.pair(i, j);
                let eta = 2.0 * row_i[j] - diag[i] - diag[j];
                if eta >= 0.0 {
                    continue;
                }
                let mut aj = aj_old - ys[j] * (ei - ej) / eta;
                aj = aj.clamp(lo, hi);
                if (aj - aj_old).abs() < 1e-5 {
                    continue;
                }
                let ai = ai_old + ys[i] * ys[j] * (aj_old - aj);
                alphas[i] = ai;
                alphas[j] = aj;
                let b1 =
                    b - ei - ys[i] * (ai - ai_old) * diag[i] - ys[j] * (aj - aj_old) * row_i[j];
                let b2 =
                    b - ej - ys[i] * (ai - ai_old) * row_i[j] - ys[j] * (aj - aj_old) * diag[j];
                let b_old = b;
                b = if ai > 0.0 && ai < cfg.c {
                    b1
                } else if aj > 0.0 && aj < cfg.c {
                    b2
                } else {
                    (b1 + b2) / 2.0
                };
                // Incremental error-cache maintenance: only the two changed
                // alphas and the bias shift contribute.
                let di = ys[i] * (ai - ai_old);
                let dj = ys[j] * (aj - aj_old);
                let db = b - b_old;
                for (p, e) in errs.iter_mut().enumerate() {
                    *e += di * row_i[p] + dj * row_j[p] + db;
                }
                changed += 1;
            }
            if changed == 0 {
                passes += 1;
            } else {
                passes = 0;
            }
        }

        // One hoisted add per fit: the diagonal pass plus `n` evaluations
        // per cache miss (each miss fills a full row).
        seeker_obs::counter!("ml.svm.kernel_evals", cache.misses * n as u64 + n as u64);
        seeker_obs::counter!("ml.svm.row_cache.hits", cache.hits);
        seeker_obs::counter!("ml.svm.row_cache.misses", cache.misses);
        seeker_obs::counter!("ml.svm.row_cache.evictions", cache.evictions);

        // Keep only support vectors.
        let mut support_x = Vec::new();
        let mut coeffs = Vec::new();
        for i in 0..n {
            if alphas[i] > 1e-8 {
                // The retained support vectors are the fitted model itself,
                // copied once per fit. lint:allow(hot-alloc)
                support_x.push(xs[i].clone());
                coeffs.push(alphas[i] * ys[i]);
            }
        }
        let sv_tiles = tile_svs(&support_x, dim);
        Svm { kernel: cfg.kernel, support_x, coeffs, bias: b, dim, sv_tiles }
    }

    /// Number of support vectors retained.
    pub fn n_support_vectors(&self) -> usize {
        self.support_x.len()
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The decision kernel every decision entry point runs: evaluates the
    /// support vectors tile by tile over [`Svm::sv_tiles`], each tile's
    /// [`SV_LANES`] lanes at once, then folds the real lanes into the
    /// accumulator.
    ///
    /// Bit-identical to the per-row formula `bias + Σ cᵢ K(xᵢ, x)`: each
    /// lane accumulates its own support vector's distance/dot sequentially
    /// over dimensions (the same single chain as `Kernel::eval`, with
    /// `(x−y)² == (y−x)²` and `x·y == y·x` exact in IEEE), and the real
    /// lanes fold into the accumulator in support-vector order.
    fn decision_uncounted(&self, x: &[f32]) -> f32 {
        assert_eq!(x.len(), self.dim, "query dimension mismatch");
        let mut acc = self.bias;
        for (t, coeffs) in self.coeffs.chunks(SV_LANES).enumerate() {
            let tile = &self.sv_tiles[t * self.dim..(t + 1) * self.dim];
            let mut lane = [0.0f32; SV_LANES];
            match self.kernel {
                Kernel::Rbf { gamma } => {
                    for (&xd, svs) in x.iter().zip(tile) {
                        for (acc_l, &sv) in lane.iter_mut().zip(svs) {
                            let diff = xd - sv;
                            *acc_l += diff * diff;
                        }
                    }
                    for (&c, &d2) in coeffs.iter().zip(&lane) {
                        acc += c * (-gamma * d2).exp();
                    }
                }
                Kernel::Linear => {
                    for (&xd, svs) in x.iter().zip(tile) {
                        for (acc_l, &sv) in lane.iter_mut().zip(svs) {
                            *acc_l += xd * sv;
                        }
                    }
                    for (&c, &dot) in coeffs.iter().zip(&lane) {
                        acc += c * dot;
                    }
                }
            }
        }
        acc
    }

    /// Signed decision value `Σ αᵢyᵢ K(xᵢ, x) + b`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    pub fn decision_one(&self, x: &[f32]) -> f32 {
        seeker_obs::counter!("ml.svm.kernel_evals", self.coeffs.len() as u64);
        self.decision_uncounted(x)
    }

    /// Class prediction (`true` = friend).
    pub fn predict_one(&self, x: &[f32]) -> bool {
        self.decision_one(x) >= 0.0
    }

    /// Batch predictions. Rows are scored independently across the
    /// `seeker_par` workers; the output order (and every bit of it) matches
    /// the serial evaluation.
    pub fn predict(&self, xs: &[Vec<f32>]) -> Vec<bool> {
        self.decision(xs).iter().map(|&d| d >= 0.0).collect()
    }

    /// Batch decision values, parallelized like [`Svm::predict`]. The
    /// kernel-evaluation counter is bumped **once per batch** (a relaxed
    /// `fetch_add` per row inside the hot loop was measurable in
    /// `svm_batch_predict`).
    pub fn decision(&self, xs: &[Vec<f32>]) -> Vec<f32> {
        seeker_obs::counter!("ml.svm.kernel_evals", (xs.len() * self.coeffs.len()) as u64);
        seeker_par::par_map_cost(xs, seeker_par::Cost::Medium, |x| self.decision_uncounted(x))
    }

    /// Decision values of the rows of `rows`, a row-major block of
    /// [`Svm::dim`]-float rows, scored serially in row order on the caller
    /// (callers fan blocks out). Each value is bit-identical to
    /// [`Svm::decision_one`] of its row; the kernel-evaluation counter is
    /// bumped once per call.
    ///
    /// # Panics
    ///
    /// Panics if `dim()` is 0 or `rows.len()` is not a multiple of it.
    pub fn decision_rows(&self, rows: &[f32]) -> Vec<f32> {
        assert!(
            self.dim > 0 && rows.len().is_multiple_of(self.dim),
            "row block of {} floats is not whole rows of {}",
            rows.len(),
            self.dim
        );
        let n_rows = rows.len() / self.dim;
        seeker_obs::counter!("ml.svm.kernel_evals", (n_rows * self.coeffs.len()) as u64);
        rows.chunks_exact(self.dim).map(|x| self.decision_uncounted(x)).collect()
    }

    /// Decomposes the model into `(kernel, support vectors, coefficients
    /// αᵢyᵢ, bias)` for persistence.
    pub fn to_parts(&self) -> (Kernel, &[Vec<f32>], &[f32], f32) {
        (self.kernel, &self.support_x, &self.coeffs, self.bias)
    }

    /// Reconstructs a model from persisted parts.
    ///
    /// # Errors
    ///
    /// Returns a message if the vector counts mismatch or dimensions are
    /// inconsistent.
    pub fn from_parts(
        kernel: Kernel,
        support_x: Vec<Vec<f32>>,
        coeffs: Vec<f32>,
        bias: f32,
        dim: usize,
    ) -> Result<Self, String> {
        if support_x.len() != coeffs.len() {
            return Err(format!(
                "support vector count {} != coefficient count {}",
                support_x.len(),
                coeffs.len()
            ));
        }
        if support_x.iter().any(|v| v.len() != dim) {
            return Err("support vector dimension mismatch".into());
        }
        let sv_tiles = tile_svs(&support_x, dim);
        Ok(Svm { kernel, support_x, coeffs, bias, dim, sv_tiles })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linearly_separable(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let pos = rng.gen::<bool>();
            let cx = if pos { 2.0 } else { -2.0 };
            xs.push(vec![cx + rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)]);
            ys.push(pos);
        }
        (xs, ys)
    }

    /// XOR-style data only an RBF kernel can separate.
    fn xor_data(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let (qx, qy) = (rng.gen::<bool>(), rng.gen::<bool>());
            let x = (if qx { 1.0 } else { -1.0 }) + rng.gen_range(-0.3..0.3);
            let y = (if qy { 1.0 } else { -1.0 }) + rng.gen_range(-0.3..0.3);
            xs.push(vec![x, y]);
            ys.push(qx == qy);
        }
        (xs, ys)
    }

    fn accuracy(svm: &Svm, xs: &[Vec<f32>], ys: &[bool]) -> f64 {
        let correct = svm.predict(xs).iter().zip(ys.iter()).filter(|(p, y)| p == y).count();
        correct as f64 / ys.len() as f64
    }

    #[test]
    fn linear_kernel_separates_linear_data() {
        let (xs, ys) = linearly_separable(120, 5);
        let cfg = SvmConfig { kernel: Kernel::Linear, ..Default::default() };
        let svm = Svm::fit(&cfg, &xs, &ys);
        assert!(accuracy(&svm, &xs, &ys) > 0.95);
        assert!(svm.n_support_vectors() > 0);
        assert!(svm.n_support_vectors() < xs.len(), "solution should be sparse");
    }

    #[test]
    fn rbf_kernel_separates_xor() {
        let (xs, ys) = xor_data(160, 7);
        let cfg = SvmConfig { kernel: Kernel::Rbf { gamma: 1.0 }, c: 5.0, ..Default::default() };
        let svm = Svm::fit(&cfg, &xs, &ys);
        assert!(accuracy(&svm, &xs, &ys) > 0.95, "xor accuracy {}", accuracy(&svm, &xs, &ys));
        // A linear kernel can get at most ~3 of the 4 XOR quadrants right
        // (one quadrant is always on the wrong side of any hyperplane).
        let lin = Svm::fit(&SvmConfig { kernel: Kernel::Linear, ..Default::default() }, &xs, &ys);
        let lin_acc = accuracy(&lin, &xs, &ys);
        assert!(lin_acc < 0.9, "linear should not solve xor, got {lin_acc}");
        assert!(accuracy(&svm, &xs, &ys) > lin_acc, "rbf must beat linear on xor");
    }

    #[test]
    fn generalizes_to_held_out_data() {
        let (xtr, ytr) = xor_data(200, 11);
        let (xte, yte) = xor_data(80, 13);
        let cfg = SvmConfig { kernel: Kernel::Rbf { gamma: 1.0 }, c: 5.0, ..Default::default() };
        let svm = Svm::fit(&cfg, &xtr, &ytr);
        assert!(accuracy(&svm, &xte, &yte) > 0.9);
    }

    #[test]
    fn training_is_deterministic() {
        let (xs, ys) = linearly_separable(60, 3);
        let cfg = SvmConfig::default();
        let a = Svm::fit(&cfg, &xs, &ys);
        let b = Svm::fit(&cfg, &xs, &ys);
        let probe = vec![0.3f32, -0.7];
        assert_eq!(a.decision_one(&probe), b.decision_one(&probe));
    }

    #[test]
    fn decision_sign_matches_prediction() {
        let (xs, ys) = linearly_separable(60, 9);
        let svm = Svm::fit(&SvmConfig::default(), &xs, &ys);
        for x in &xs {
            assert_eq!(svm.predict_one(x), svm.decision_one(x) >= 0.0);
        }
    }

    #[test]
    fn kernel_values() {
        assert_eq!(Kernel::Linear.eval(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        let r = Kernel::Rbf { gamma: 0.5 }.eval(&[0.0], &[2.0]);
        assert!((r - (-2.0f32).exp()).abs() < 1e-6);
        assert_eq!(Kernel::Rbf { gamma: 1.0 }.eval(&[1.0, 1.0], &[1.0, 1.0]), 1.0);
    }

    #[test]
    fn single_class_degenerates_gracefully() {
        let xs = vec![vec![0.0], vec![1.0], vec![2.0]];
        let ys = vec![true, true, true];
        let svm = Svm::fit(&SvmConfig::default(), &xs, &ys);
        // Everything should be classified positive.
        assert!(svm.predict(&xs).iter().all(|&p| p));
    }

    /// The tiled lane kernel must reproduce the naive per-support-vector
    /// formula bit for bit through every decision entry point, for both
    /// kernels: on fitted models, and on models of 1..=17 support vectors
    /// (below, at and across the lane width, so padded lanes are present
    /// and absent).
    #[test]
    fn blocked_decision_matches_naive_reference_bitwise() {
        let kernels = [Kernel::Linear, Kernel::Rbf { gamma: 1.0 }, Kernel::Rbf { gamma: 0.05 }];
        let (xs, ys) = xor_data(150, 23);
        let mut models: Vec<Svm> = Vec::new();
        for kernel in kernels {
            models.push(Svm::fit(&SvmConfig { kernel, c: 5.0, ..Default::default() }, &xs, &ys));
            let (svs, _) = xor_data(17, 29);
            // Three features, a row stride other than the fitted models' two.
            let svs: Vec<Vec<f32>> = svs.iter().map(|v| vec![v[0], v[1], v[0] * v[1]]).collect();
            for n_sv in 1..=svs.len() {
                let coeffs: Vec<f32> = (0..n_sv)
                    .map(|i| if i % 3 == 0 { -0.7 } else { 0.4 + i as f32 / 9.0 })
                    .collect();
                models
                    .push(Svm::from_parts(kernel, svs[..n_sv].to_vec(), coeffs, 0.25, 3).unwrap());
            }
        }
        for svm in &models {
            let (kernel, svs, coeffs, bias) = svm.to_parts();
            let queries: Vec<Vec<f32>> = xs
                .iter()
                .map(|x| if svm.dim() == 2 { x.clone() } else { vec![x[0], x[1], x[1] - x[0]] })
                .collect();
            let naive: Vec<u32> = queries
                .iter()
                .map(|x| {
                    let mut acc = bias;
                    for (sv, &c) in svs.iter().zip(coeffs.iter()) {
                        acc += c * kernel.eval(sv, x);
                    }
                    acc.to_bits()
                })
                .collect();
            let bits = |v: &[f32]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
            let one: Vec<f32> = queries.iter().map(|x| svm.decision_one(x)).collect();
            let flat: Vec<f32> = queries.concat();
            let what = format!("{kernel:?}, {} support vectors", svs.len());
            assert_eq!(bits(&one), naive, "decision_one diverges: {what}");
            assert_eq!(bits(&svm.decision(&queries)), naive, "decision diverges: {what}");
            assert_eq!(bits(&svm.decision_rows(&flat)), naive, "decision_rows diverges: {what}");
        }
    }

    /// Training must be bitwise independent of the kernel-row cache
    /// capacity: a 2-slot cache (maximal eviction pressure) reproduces the
    /// default (no-eviction) model exactly.
    #[test]
    fn tiny_row_cache_reproduces_default_training_bitwise() {
        let (xs, ys) = xor_data(120, 17);
        let cfg = SvmConfig { kernel: Kernel::Rbf { gamma: 1.0 }, c: 5.0, ..Default::default() };
        let full = Svm::fit(&cfg, &xs, &ys);
        let tiny = Svm::fit_impl(&cfg, &xs, &ys, 2);
        let (_, sv_f, co_f, b_f) = full.to_parts();
        let (_, sv_t, co_t, b_t) = tiny.to_parts();
        assert_eq!(sv_f, sv_t, "support vectors must match");
        assert!(
            co_f.iter().zip(co_t.iter()).all(|(a, b)| a.to_bits() == b.to_bits()),
            "coefficients must be bit-identical"
        );
        assert_eq!(b_f.to_bits(), b_t.to_bits(), "bias must be bit-identical");
        for x in &xs {
            assert_eq!(full.decision_one(x).to_bits(), tiny.decision_one(x).to_bits());
        }
    }

    #[test]
    fn from_parts_rebuilds_the_blocked_layout() {
        let (xs, ys) = linearly_separable(60, 31);
        let svm = Svm::fit(&SvmConfig::default(), &xs, &ys);
        let (kernel, svs, coeffs, bias) = svm.to_parts();
        let rebuilt =
            Svm::from_parts(kernel, svs.to_vec(), coeffs.to_vec(), bias, svm.dim()).unwrap();
        for x in &xs {
            assert_eq!(svm.decision_one(x).to_bits(), rebuilt.decision_one(x).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "C must be positive")]
    fn rejects_non_positive_c() {
        let cfg = SvmConfig { c: 0.0, ..Default::default() };
        let _ = Svm::fit(&cfg, &[vec![0.0]], &[true]);
    }

    #[test]
    #[should_panic(expected = "count mismatch")]
    fn rejects_mismatched_inputs() {
        let _ = Svm::fit(&SvmConfig::default(), &[vec![0.0]], &[true, false]);
    }
}
