//! A minimal dense `f32` matrix with the operations the network stack needs.
//!
//! Row-major storage. The products run over fixed-size row bands, in
//! parallel through `seeker-par` when the multiply is large enough to
//! amortize a dispatch. Two of them share one row kernel,
//! `sweep_row`: an output row accumulates `Σ v · src[off + j]` over a list
//! of `(off, v)` terms in fixed-width column tiles — 32 wide, then 8, then
//! 1 — each tile's sums held in accumulators across the whole list. Its
//! inner loop reads contiguous memory with no data-dependent branch, so the
//! auto-vectorizer turns it into packed multiplies and adds.
//!
//! - [`Matrix::matmul`] (`A·B`, every forward pass) gathers each row's
//!   nonzero `(k, a[i][k])` pairs once, branch-free, into a list the band
//!   allocates once at `k` entries, then sweeps that list over `B`'s rows.
//! - [`Matrix::matmul_transpose_other`] (`A·Bᵀ`, input gradients) packs
//!   `Bᵀ` one panel at a time, at most 256 `k` × 32 columns (32 KB per
//!   band), and sweeps each band row's dense `a[i][k0..k0 + 256]` over it.
//! - [`Matrix::matmul_transpose_self`] (`Aᵀ·B`, weight gradients) streams
//!   both operands top to bottom, adding one scaled `B` row per nonzero
//!   `a[k][i]`; its branch costs one test per whole output row.
//!
//! ## Bit-exactness
//!
//! Every output element is one sequential `f32` sum over ascending `k`,
//! starting from `0.0`: the chain of the naive triple loops.
//!
//! - The forward and weight-gradient chains skip exact zeros of `A`
//!   (`-0.0` too). A row's nonzero list holds exactly the terms that skip
//!   keeps, in ascending `k`, so each element adds the same products in
//!   the same order. The skip is part of the chain: it hides a `±∞` or
//!   NaN of `B` behind a zero of `A`.
//! - The input-gradient chain is a plain dot product with no skip, and its
//!   kernel keeps none: skipping would turn `0·∞` or `0·NaN`, which is
//!   NaN, into nothing. Between `k`-panels each partial sum is stored in
//!   the output and reloaded, which is exact in `f32`.
//! - The vector lanes round as the scalar chain does: each lane does one
//!   multiply, then one add, and Rust never contracts `a * b + c` into a
//!   fused multiply-add.
//! - Tiling changes which elements are computed together, never the order
//!   within one element's sum, and the row-band split is a fixed 64-row
//!   partition independent of the worker count, so serial and parallel
//!   products are bit-identical (asserted by `tests/par_determinism.rs`).

use std::fmt;

/// Width of the wide column tile of `sweep_row`.
const WIDE: usize = 32;
/// Width of the narrow column tile that covers what wide tiles leave.
const NARROW: usize = 8;
/// `k` depth of one packed `Bᵀ` panel of `matmul_transpose_other`:
/// 256 × `WIDE` floats, 32 KB.
const K_PANEL: usize = 256;
/// Rows per parallel band. Fixed — never derived from the worker count —
/// so the band partition (and therefore every float) is identical for any
/// number of workers.
const BAND_ROWS: usize = 64;
/// Multiply-accumulate count below which a product stays serial: small
/// multiplies finish before a pool dispatch would even wake a worker.
const PAR_MADD_CUTOFF: usize = 1 << 21;

/// Runs `band_fn(lo, hi, dst)` over fixed 64-row bands of an
/// `out_rows × out_cols` product, in parallel when `total_madds` is large
/// enough. `band_fn` must fill `dst` (zero-initialized, `(hi-lo)*out_cols`
/// values) using only row-local reads, so the band split cannot change any
/// output bit.
fn banded_rows(
    out_rows: usize,
    out_cols: usize,
    total_madds: usize,
    band_fn: impl Fn(usize, usize, &mut [f32]) + Sync,
) -> Vec<f32> {
    let n_bands = out_rows.div_ceil(BAND_ROWS);
    if total_madds < PAR_MADD_CUTOFF || n_bands < 2 {
        let mut data = vec![0.0f32; out_rows * out_cols];
        band_fn(0, out_rows, &mut data);
        return data;
    }
    let bands = seeker_par::par_map_indexed_cost(n_bands, seeker_par::Cost::Heavy, |bi| {
        let lo = bi * BAND_ROWS;
        let hi = ((bi + 1) * BAND_ROWS).min(out_rows);
        // One buffer per band — amortized over BAND_ROWS * out_cols
        // outputs. lint:allow(hot-alloc)
        let mut buf = vec![0.0f32; (hi - lo) * out_cols];
        band_fn(lo, hi, &mut buf);
        buf
    });
    let mut data = Vec::with_capacity(out_rows * out_cols);
    for mut band in bands {
        data.append(&mut band);
    }
    data
}

/// Adds `Σ v · src[off + j]` over `terms`, in order, onto each `out[j]`:
/// `WIDE`-column tiles, then `NARROW`, then single columns.
fn sweep_row<T>(out: &mut [f32], src: &[f32], terms: T)
where
    T: Iterator<Item = (usize, f32)> + Clone,
{
    let mut j = 0;
    while j < out.len() {
        // Copies an iterator over borrowed terms; allocates nothing.
        // lint:allow(hot-alloc)
        let terms = terms.clone();
        j = match out.len() - j {
            left if left >= WIDE => add_tile::<WIDE>(out, src, j, terms),
            left if left >= NARROW => add_tile::<NARROW>(out, src, j, terms),
            _ => add_tile::<1>(out, src, j, terms),
        };
    }
}

/// The `W`-column tile of [`sweep_row`] at column `j`; returns `j + W`.
/// The `W` sums stay in accumulators while every term adds
/// `v · src[off + j..off + j + W]`.
#[inline]
fn add_tile<const W: usize>(
    out: &mut [f32],
    src: &[f32],
    j: usize,
    terms: impl Iterator<Item = (usize, f32)>,
) -> usize {
    let out = &mut out[j..j + W];
    let mut acc = [0.0f32; W];
    acc.copy_from_slice(out);
    for (off, v) in terms {
        for (sum, &x) in acc.iter_mut().zip(&src[off + j..off + j + W]) {
            *sum += v * x;
        }
    }
    out.copy_from_slice(&acc);
    j + W
}

/// A dense row-major `f32` matrix.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive ({rows}x{cols})");
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or either dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive ({rows}x{cols})");
        assert_eq!(data.len(), rows * cols, "data length must match dimensions");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of range");
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of range");
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of range");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Appends `rows`, whole row-major rows of [`Matrix::cols`] floats,
    /// below the last row.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of `cols()`.
    pub fn append_rows(&mut self, rows: &[f32]) {
        assert!(rows.len().is_multiple_of(self.cols), "appended data must be whole rows");
        self.data.extend_from_slice(rows);
        self.rows += rows.len() / self.cols;
    }

    /// The raw row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The raw row-major buffer, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// `self @ other` (`rows×k` times `k×cols`): each row's nonzero terms
    /// swept over `other`'s rows in column tiles, over parallel row bands,
    /// bit-identical to the naive `i-k-j` product with its exact-zero skip
    /// (module docs).
    ///
    /// # Panics
    ///
    /// Panics on an inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let (m, kk, n) = (self.rows, self.cols, other.cols);
        let a = &self.data;
        let b = &other.data;
        let data = banded_rows(m, n, m * kk * n, |lo, hi, dst| {
            // The row's nonzero terms `(offset of b's row k, a[i][k])`; one
            // list per band, at its final size. lint:allow(hot-alloc)
            let mut terms = vec![(0usize, 0.0f32); kk];
            for (i, out) in (lo..hi).zip(dst.chunks_exact_mut(n)) {
                let mut len = 0;
                for (k, &v) in a[i * kk..(i + 1) * kk].iter().enumerate() {
                    terms[len] = (k * n, v);
                    // Branch-free exact-zero skip: a zero's slot is reused.
                    // lint:allow(float-eq) -- the naive chain skips exact zeros
                    len += usize::from(v != 0.0);
                }
                sweep_row(out, b, terms[..len].iter().copied());
            }
        });
        Matrix { rows: m, cols: n, data }
    }

    /// `selfᵀ @ other` (`k×rows`ᵀ times `k×cols`), without materializing the
    /// transpose. Used for weight gradients `Xᵀ @ dZ`.
    ///
    /// # Panics
    ///
    /// Panics if the row counts disagree.
    pub fn matmul_transpose_self(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "row counts must agree for AᵀB");
        let (kk, ca, n) = (self.rows, self.cols, other.cols);
        let a = &self.data;
        let b = &other.data;
        // Output rows are A's columns; each band streams both operands
        // top-to-bottom (k ascending) and touches only its own output rows.
        let data = banded_rows(ca, n, kk * ca * n, |lo, hi, dst| {
            for k in 0..kk {
                let a_row = &a[k * ca..(k + 1) * ca];
                let b_row = &b[k * n..(k + 1) * n];
                for i in lo..hi {
                    let aki = a_row[i];
                    // lint:allow(float-eq) -- exact-zero sparsity skip in the GEMM inner loop
                    if aki == 0.0 {
                        continue;
                    }
                    let o_row = &mut dst[(i - lo) * n..(i - lo + 1) * n];
                    for (o, &bv) in o_row.iter_mut().zip(b_row.iter()) {
                        *o += aki * bv;
                    }
                }
            }
        });
        Matrix { rows: ca, cols: n, data }
    }

    /// `self @ otherᵀ` (`rows×k` times `cols×k`ᵀ), packing `otherᵀ` one
    /// 256 × 32 panel at a time. Used for input gradients `dZ @ Wᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if the column counts disagree.
    pub fn matmul_transpose_other(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "column counts must agree for ABᵀ");
        let (m, kk, n) = (self.rows, self.cols, other.rows);
        let a = &self.data;
        let b = &other.data;
        let data = banded_rows(m, n, m * kk * n, |lo, hi, dst| {
            // `otherᵀ[k0..k0 + kb][j0..j0 + w]`, row-major; one panel per
            // band, at its final size. lint:allow(hot-alloc)
            let mut panel = vec![0.0f32; K_PANEL.min(kk) * WIDE.min(n)];
            for j0 in (0..n).step_by(WIDE) {
                let w = WIDE.min(n - j0);
                for k0 in (0..kk).step_by(K_PANEL) {
                    let kb = K_PANEL.min(kk - k0);
                    for (jj, b_row) in b[j0 * kk..(j0 + w) * kk].chunks_exact(kk).enumerate() {
                        for (kl, &x) in b_row[k0..k0 + kb].iter().enumerate() {
                            panel[kl * w + jj] = x;
                        }
                    }
                    // Each row resumes its sums from `dst` (zero before the
                    // first panel): an f32 store and reload is exact.
                    for (i, out) in (lo..hi).zip(dst.chunks_exact_mut(n)) {
                        let a_panel = &a[i * kk + k0..i * kk + k0 + kb];
                        let terms = a_panel.iter().enumerate().map(|(kl, &v)| (kl * w, v));
                        sweep_row(&mut out[j0..j0 + w], &panel[..kb * w], terms);
                    }
                }
            }
        });
        Matrix { rows: m, cols: n, data }
    }

    /// Adds `vec` to every row in place (bias addition).
    ///
    /// # Panics
    ///
    /// Panics if `vec.len() != cols`.
    pub fn add_row_vector(&mut self, vec: &[f32]) {
        assert_eq!(vec.len(), self.cols, "bias length must equal column count");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (x, &b) in row.iter_mut().zip(vec.iter()) {
                *x += b;
            }
        }
    }

    /// Column sums (used for bias gradients).
    pub fn column_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (o, &x) in out.iter_mut().zip(row.iter()) {
                *o += x;
            }
        }
        out
    }

    /// Element-wise `self += scale * other`.
    ///
    /// # Panics
    ///
    /// Panics on a shape mismatch.
    pub fn add_scaled(&mut self, other: &Matrix, scale: f32) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += scale * b;
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_small_known() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn appended_rows_follow_the_last_row() {
        let mut a = m(1, 2, &[1.0, 2.0]);
        a.append_rows(&[3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.rows(), 3);
        assert_eq!(a.row(2), &[5.0, 6.0]);
        a.append_rows(&[]);
        assert_eq!(a.as_slice(), m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).as_slice());
    }

    #[test]
    #[should_panic(expected = "whole rows")]
    fn appending_a_partial_row_panics() {
        m(1, 2, &[1.0, 2.0]).append_rows(&[3.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = m(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i).as_slice(), a.as_slice());
        assert_eq!(i.matmul(&a).as_slice(), a.as_slice());
    }

    #[test]
    fn transpose_variants_agree_with_explicit_transpose() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 4, &(1..=12).map(|x| x as f32).collect::<Vec<_>>());
        // aᵀ @ b == transpose(a) @ b
        let at = m(2, 3, &[1.0, 3.0, 5.0, 2.0, 4.0, 6.0]);
        assert_eq!(a.matmul_transpose_self(&b).as_slice(), at.matmul(&b).as_slice());
        // c @ bᵀ == c @ transpose(b)
        let c = m(2, 4, &(1..=8).map(|x| x as f32).collect::<Vec<_>>());
        let bt = {
            let mut t = Matrix::zeros(4, 3);
            for r in 0..3 {
                for col in 0..4 {
                    t.set(col, r, b.get(r, col));
                }
            }
            t
        };
        assert_eq!(c.matmul_transpose_other(&b).as_slice(), c.matmul(&bt).as_slice());
    }

    #[test]
    fn add_row_vector_and_column_sums() {
        let mut a = Matrix::zeros(3, 2);
        a.add_row_vector(&[1.0, -2.0]);
        assert_eq!(a.as_slice(), &[1.0, -2.0, 1.0, -2.0, 1.0, -2.0]);
        assert_eq!(a.column_sums(), vec![3.0, -6.0]);
    }

    #[test]
    fn add_scaled_and_map() {
        let mut a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 2, &[1.0, 1.0, 1.0, 1.0]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.as_slice(), &[1.5, 2.5, 3.5, 4.5]);
        a.map_inplace(|x| x * 2.0);
        assert_eq!(a.as_slice(), &[3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn frobenius_norm_known() {
        let a = m(1, 2, &[3.0, 4.0]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn rows_and_accessors() {
        let mut a = Matrix::zeros(2, 3);
        a.set(1, 2, 7.0);
        assert_eq!(a.get(1, 2), 7.0);
        assert_eq!(a.row(1), &[0.0, 0.0, 7.0]);
        a.row_mut(0)[0] = 5.0;
        assert_eq!(a.get(0, 0), 5.0);
    }

    /// Deterministic pseudo-random matrix with exact zeros sprinkled in, to
    /// exercise the sparsity skip.
    fn synth(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let data: Vec<f32> = (0..rows * cols)
            .map(|_| {
                let s = xorshift(&mut state);
                if s % 7 == 0 {
                    0.0
                } else {
                    uniform(s)
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// A finite value in `(-6, 2)` from the high bits of `s`.
    fn uniform(s: u64) -> f32 {
        ((s >> 16) as i32 % 1000) as f32 / 250.0 - 2.0
    }

    /// An `a` operand whose entries are exact zeros with probability
    /// `zero_pct`%, `+0.0` and `-0.0` alike. Between the extremes, row
    /// `rows / 2` and column `cols / 2` are zero throughout.
    fn zero_heavy(rows: usize, cols: usize, zero_pct: u64, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut a = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                let s = xorshift(&mut state);
                let blank = 0 < zero_pct && zero_pct < 100 && (r == rows / 2 || c == cols / 2);
                let v = if blank || s % 100 < zero_pct { 0.0 } else { uniform(s) };
                a.set(r, c, if s & (1 << 40) == 0 { v } else { -v });
            }
        }
        a
    }

    /// A finite `b` operand with `+∞`, NaN and `-∞` in row `rows / 2` —
    /// behind `zero_heavy`'s zero column — and NaN in its last row.
    fn with_specials(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut b = synth(rows, cols, seed);
        b.set(rows / 2, 0, f32::INFINITY);
        b.set(rows / 2, cols / 2, f32::NAN);
        b.set(rows / 2, cols - 1, f32::NEG_INFINITY);
        b.set(rows - 1, cols / 3, f32::NAN);
        b
    }

    fn transpose(x: &Matrix) -> Matrix {
        let mut t = Matrix::zeros(x.cols(), x.rows());
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                t.set(c, r, x.get(r, c));
            }
        }
        t
    }

    /// Bit equality, with every NaN equal to every other: Rust leaves a
    /// NaN result's sign and payload unspecified, so only NaN-ness is part
    /// of the chain.
    fn same_bits(x: &[f32], y: &[f32]) -> bool {
        x.len() == y.len()
            && x.iter()
                .zip(y)
                .all(|(p, q)| p.to_bits() == q.to_bits() || (p.is_nan() && q.is_nan()))
    }

    /// The naive reference products with the documented accumulation chain
    /// (single sequential sum over ascending k, exact-zero skip) — what
    /// the pre-blocking kernels computed.
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Vec<f32> {
        let (m, kk, n) = (a.rows(), a.cols(), b.cols());
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for k in 0..kk {
                    let aik = a.get(i, k);
                    // lint:allow(float-eq) -- mirrors the kernel's sparsity skip
                    if aik == 0.0 {
                        continue;
                    }
                    acc += aik * b.get(k, j);
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    /// Checks all three products of `a` (`m×k`) and `b` (`k×n`) against
    /// their naive chains, bit for bit. Returns how many outputs meet a
    /// non-finite `b` entry only behind zeros of `a`: those must stay
    /// finite where the chain skips zeros and be NaN where it does not.
    fn check_against_naive(a: &Matrix, b: &Matrix) -> usize {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let naive = naive_matmul(a, b);
        let blocked = a.matmul(b);
        assert!(same_bits(&naive, blocked.as_slice()), "matmul {m}x{k}x{n} diverges");

        // AᵀB of the explicit transpose: (Aᵀ)ᵀ B = A @ B, same skip.
        let tself = transpose(a).matmul_transpose_self(b);
        assert!(same_bits(&naive, tself.as_slice()), "matmul_transpose_self {m}x{k}x{n} diverges");

        // ABᵀ of the explicit transpose against its own dot-product chain,
        // which has no zero skip.
        let bt = transpose(b);
        let tother = a.matmul_transpose_other(&bt);
        let mut naive_dot = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kx in 0..k {
                    acc += a.get(i, kx) * bt.get(j, kx);
                }
                naive_dot[i * n + j] = acc;
            }
        }
        assert!(
            same_bits(&naive_dot, tother.as_slice()),
            "matmul_transpose_other {m}x{k}x{n} diverges"
        );

        let mut hidden = 0;
        for i in 0..m {
            for j in 0..n {
                let meets = |zero: bool| {
                    (0..k).any(|kx| (a.get(i, kx) == 0.0) == zero && !b.get(kx, j).is_finite())
                };
                if meets(true) && !meets(false) {
                    assert!(
                        blocked.get(i, j).is_finite(),
                        "matmul exposed a non-finite behind a zero"
                    );
                    assert!(tother.get(i, j).is_nan(), "matmul_transpose_other hid 0·∞ or 0·NaN");
                    hidden += 1;
                }
            }
        }
        hidden
    }

    /// The kernels must be bitwise identical to the naive chains on shapes
    /// that cross every tile and block edge: `n` around the 8- and 32-wide
    /// column tiles, `k` past one 256-deep panel, `m` past 8 rows and past
    /// one 64-row band. `a` runs from no zeros to all zeros (`±0.0`, whole
    /// zero rows and columns); `b` carries `±∞` and NaN.
    #[test]
    fn blocked_kernels_match_naive_reference_bitwise() {
        for &(m, k, n) in
            &[(1usize, 1usize, 1usize), (4, 8, 8), (5, 7, 9), (67, 33, 13), (130, 17, 70)]
        {
            check_against_naive(
                &synth(m, k, 1 + (m * 31 + n) as u64),
                &synth(k, n, 2 + (k * 17 + n) as u64),
            );
        }
        let mut hidden = 0;
        for (m, k) in [(1usize, 1usize), (9, 13), (70, 300), (130, 257)] {
            for n in [1usize, 7, 8, 9, 31, 32, 33, 65] {
                for zero_pct in [0u64, 50, 100] {
                    let seed = (m * 1_000_003 + k * 1_009 + n) as u64 + zero_pct;
                    let a = zero_heavy(m, k, zero_pct, seed);
                    hidden += check_against_naive(&a, &with_specials(k, n, seed + 1));
                }
            }
        }
        assert!(hidden > 0, "no non-finite entry of b was hidden behind a zero of a");
    }

    /// The parallel band path must produce the serial bits — driven above
    /// the dispatch cutoff explicitly.
    #[test]
    fn parallel_bands_match_serial_bitwise() {
        let a = synth(160, 96, 3);
        let b = synth(96, 160, 4);
        let serial = seeker_par::with_threads(1, || a.matmul(&b));
        let parallel = seeker_par::with_threads(4, || a.matmul(&b));
        assert!(
            serial
                .as_slice()
                .iter()
                .zip(parallel.as_slice().iter())
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "parallel matmul bands diverge from serial"
        );
        let tall = synth(256, 96, 7);
        let wide = synth(256, 128, 8);
        let st = seeker_par::with_threads(1, || tall.matmul_transpose_self(&wide));
        let pt = seeker_par::with_threads(4, || tall.matmul_transpose_self(&wide));
        assert_eq!(st.as_slice(), pt.as_slice());
        let c = synth(160, 96, 5);
        let so = seeker_par::with_threads(1, || a.matmul_transpose_other(&c));
        let po = seeker_par::with_threads(4, || a.matmul_transpose_other(&c));
        assert_eq!(so.as_slice(), po.as_slice());
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_rejected() {
        let _ = Matrix::zeros(0, 3);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_length_checked() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }
}
