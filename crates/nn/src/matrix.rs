//! Minimal row-major dense matrix used by every layer.
//!
//! The three matmul variants share one cache-blocked microkernel: the
//! right-hand operand is packed once per call into column panels of
//! `NR` contiguous floats per k-step, and an `MR`×`NR` register
//! tile accumulates fixed-size `[f32; NR]` rows so LLVM's
//! autovectorizer emits SIMD for the inner loop. Packing pays for
//! itself after a single pass over the panels and turns the transposed
//! variants (`matmul_at`, `matmul_bt`) into the same unit-stride kernel
//! as the plain product.
//!
//! **FP-order contract**: every output element is produced by a single
//! `f32` accumulator that walks `kk` in ascending order — exactly the
//! naive triple loop's order. Tile and panel boundaries only change
//! *which registers* hold an accumulator, never the order terms are
//! added, so results are bit-identical to the scalar reference for all
//! finite inputs and for every tile size. The products are sequential
//! leaf kernels: callers that want threads split *rows* above them
//! (`model::for_each_chunk`), which the contract makes invisible in the bits.

use std::fmt;

/// Register-tile height: output rows accumulated per microkernel call.
const MR: usize = 4;

/// Register-tile width: output columns per packed panel. `MR * NR`
/// accumulators fit the SSE/AVX register file without spilling.
const NR: usize = 16;

/// Packs `b` (k×n, row-major) into `⌈n/NR⌉` column panels. Panel `p`
/// stores `b[kk][p*NR + c]` at `p*k*NR + kk*NR + c`, zero-padded past
/// column `n`, so the microkernel reads one contiguous `[f32; NR]` row
/// per k-step.
fn pack_row_panels(b: &Matrix) -> Vec<f32> {
    let (k, n) = (b.rows, b.cols);
    let np = n.div_ceil(NR);
    let mut packed = vec![0.0f32; np * k * NR];
    for (p, panel) in packed.chunks_exact_mut(k * NR).enumerate() {
        let j0 = p * NR;
        let jw = NR.min(n - j0);
        for kk in 0..k {
            let src = &b.data[kk * n + j0..kk * n + j0 + jw];
            panel[kk * NR..kk * NR + jw].copy_from_slice(src);
        }
    }
    packed
}

/// Packs `b` (n×k, row-major) as if it were transposed to k×n: panel
/// layout is identical to [`pack_row_panels`] of `bᵀ`, gathered with a
/// strided read. Lets `matmul_bt` reuse the plain-product kernel.
fn pack_col_panels(b: &Matrix) -> Vec<f32> {
    let (n, k) = (b.rows, b.cols);
    let np = n.div_ceil(NR);
    let mut packed = vec![0.0f32; np * k * NR];
    for (p, panel) in packed.chunks_exact_mut(k * NR).enumerate() {
        let j0 = p * NR;
        let jw = NR.min(n - j0);
        for c in 0..jw {
            let row = &b.data[(j0 + c) * k..(j0 + c + 1) * k];
            for (kk, &v) in row.iter().enumerate() {
                panel[kk * NR + c] = v;
            }
        }
    }
    packed
}

/// `mr`×[`NR`] register tile: `out[r][c] = Σ_kk a[r*k + kk] ·
/// panel[kk*NR + c]` with `k = panel.len()/NR`. Accumulators are
/// fixed-size `[f32; NR]` rows so the `c` loop vectorizes; `kk` ascends
/// with one accumulator per element, preserving the naive FP order.
#[inline]
fn microkernel(a: &[f32], mr: usize, panel: &[f32], out: &mut [f32], out_stride: usize, jw: usize) {
    debug_assert!((1..=MR).contains(&mr) && (1..=NR).contains(&jw));
    let k = panel.len() / NR;
    let mut acc = [[0.0f32; NR]; MR];
    for (kk, bvals) in panel.chunks_exact(NR).enumerate() {
        for (r, accr) in acc.iter_mut().enumerate().take(mr) {
            let av = a[r * k + kk];
            for (c, &bv) in bvals.iter().enumerate() {
                accr[c] += av * bv;
            }
        }
    }
    for (r, accr) in acc.iter().enumerate().take(mr) {
        out[r * out_stride..r * out_stride + jw].copy_from_slice(&accr[..jw]);
    }
}

/// Multiplies `rows` rows of `a` (row-major, stride `k`, starting at
/// `a[0]`) against pre-packed panels of the k×n right operand, writing
/// the `rows`×`n` result into `out`.
fn gemm_packed(a: &[f32], rows: usize, k: usize, packed: &[f32], n: usize, out: &mut [f32]) {
    let np = n.div_ceil(NR);
    let mut ri = 0;
    while ri < rows {
        let mr = MR.min(rows - ri);
        let a_tile = &a[ri * k..];
        for p in 0..np {
            let j0 = p * NR;
            let jw = NR.min(n - j0);
            let panel = &packed[p * k * NR..(p + 1) * k * NR];
            microkernel(a_tile, mr, panel, &mut out[ri * n + j0..], n, jw);
        }
        ri += mr;
    }
}

/// Row-major dense `f32` matrix.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch: {}x{} vs {}", rows, cols, data.len());
        Self { rows, cols, data }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self @ other` — (m×k) · (k×n) → (m×n).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul inner-dim mismatch");
        let (m, n) = (self.rows, other.cols);
        let k = self.cols;
        let packed = pack_row_panels(other);
        let mut out = Matrix::zeros(m, n);
        gemm_packed(&self.data, m, k, &packed, n, &mut out.data);
        out
    }

    /// `selfᵀ @ other` — (k×m)ᵀ·(k×n) → (m×n), without materialising the
    /// transpose. Used for weight gradients (`xᵀ · dy`).
    pub fn matmul_at(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_at outer-dim mismatch");
        let (k, m, n) = (self.rows, self.cols, other.cols);
        let packed = pack_row_panels(other);
        let mut out = Matrix::zeros(m, n);
        // Gather the MR-row Aᵀ tile into contiguous scratch so the
        // microkernel reads both operands at unit stride.
        let mut tile = vec![0.0f32; MR * k];
        let mut ri = 0;
        while ri < m {
            let mr = MR.min(m - ri);
            for kk in 0..k {
                let src = &self.data[kk * m + ri..kk * m + ri + mr];
                for (r, &v) in src.iter().enumerate() {
                    tile[r * k + kk] = v;
                }
            }
            gemm_packed(&tile, mr, k, &packed, n, &mut out.data[ri * n..]);
            ri += mr;
        }
        out
    }

    /// `self @ otherᵀ` — (m×k)·(n×k)ᵀ → (m×n), without materialising the
    /// transpose. Used for input gradients (`dy · Wᵀ`).
    pub fn matmul_bt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_bt inner-dim mismatch");
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let packed = pack_col_panels(other);
        let mut out = Matrix::zeros(m, n);
        gemm_packed(&self.data, m, k, &packed, n, &mut out.data);
        out
    }

    /// Adds `bias` (length = cols) to every row in place.
    pub fn add_row_bias(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            for (v, &b) in self.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Element-wise `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Element-wise `self *= s`.
    pub fn scale(&mut self, s: f32) {
        self.data.iter_mut().for_each(|v| *v *= s);
    }

    /// In-place ReLU: anything not strictly positive — negatives, `-0.0`
    /// and NaN included — becomes `+0.0`.
    pub fn relu(&mut self) {
        for v in self.data.iter_mut() {
            *v = if *v > 0.0 { *v } else { 0.0 };
        }
    }

    /// ReLU backward, given the ReLU's *output*: zeroes every element
    /// whose `activation` is not positive. An output is positive exactly
    /// where its pre-activation was, so no mask is kept from the forward
    /// pass.
    pub fn zero_where_not_positive(&mut self, activation: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (activation.rows, activation.cols),
            "activation shape mismatch"
        );
        for (v, &a) in self.data.iter_mut().zip(&activation.data) {
            *v = if a > 0.0 { *v } else { 0.0 };
        }
    }

    /// Scalar ijk reference product — one accumulator per output element,
    /// `kk` ascending. The packed kernels are pinned bit-identical to this
    /// by `packed_kernels_match_the_naive_reference_bitwise`.
    pub fn matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul inner-dim mismatch");
        let (m, n, k) = (self.rows, other.cols, self.cols);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += self.data[i * k + kk] * other.data[kk * n + j];
                }
                out.data[i * n + j] = acc;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_small() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let id = m(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&id).data(), a.data());
        assert_eq!(id.matmul(&a).data(), a.data());
    }

    #[test]
    fn matmul_at_equals_explicit_transpose() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]); // 3x2
        let b = m(3, 2, &[0.5, 1.5, 2.5, 3.5, 4.5, 5.5]); // 3x2
        let at = m(2, 3, &[1.0, 3.0, 5.0, 2.0, 4.0, 6.0]);
        let want = at.matmul(&b);
        let got = a.matmul_at(&b);
        assert_eq!(got.data(), want.data());
    }

    #[test]
    fn matmul_bt_equals_explicit_transpose() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]); // 2x3
        let b = m(4, 3, &[1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0]); // 4x3
        let bt = m(3, 4, &[1.0, 0.0, 2.0, 1.0, 0.0, 1.0, 2.0, 1.0, 1.0, 0.0, 2.0, 1.0]);
        let want = a.matmul(&bt);
        let got = a.matmul_bt(&b);
        assert_eq!(got.data(), want.data());
    }

    #[test]
    fn bias_and_scale() {
        let mut a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        a.add_row_bias(&[10.0, 20.0]);
        assert_eq!(a.data(), &[11.0, 22.0, 13.0, 24.0]);
        a.scale(0.5);
        assert_eq!(a.data(), &[5.5, 11.0, 6.5, 12.0]);
    }

    #[test]
    fn relu_then_backward_through_its_output() {
        let mut a = m(1, 4, &[-1.0, 2.0, 0.0, 3.0]);
        a.relu();
        assert_eq!(a.data(), &[0.0, 2.0, 0.0, 3.0]);
        let mut g = m(1, 4, &[5.0, 5.0, 5.0, 5.0]);
        g.zero_where_not_positive(&a);
        assert_eq!(g.data(), &[0.0, 5.0, 0.0, 5.0]);
    }

    /// The mask derived from a ReLU output is the pre-activation test:
    /// `pre > 0.0` ⇔ `relu(pre) > 0.0`, edge values included, and what
    /// does not pass is `+0.0` to the bit.
    #[test]
    fn derived_mask_equals_the_pre_activation_test() {
        let pre = [
            f32::NAN,
            -f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::MIN_POSITIVE / 2.0, // subnormal
            -f32::MIN_POSITIVE / 2.0,
            f32::from_bits(1), // smallest subnormal
            f32::MAX,
            f32::MIN,
            1.5,
            -1.5,
        ];
        let mut act = m(1, pre.len(), &pre);
        act.relu();
        let mut g = m(1, pre.len(), &vec![7.0; pre.len()]);
        g.zero_where_not_positive(&act);
        for (i, &p) in pre.iter().enumerate() {
            let passes = p > 0.0;
            assert_eq!(act.data()[i] > 0.0, passes, "mask of {p:?}");
            let want_act = if passes { p } else { 0.0 };
            assert_eq!(act.data()[i].to_bits(), want_act.to_bits(), "relu({p:?})");
            assert_eq!(g.data()[i], if passes { 7.0 } else { 0.0 }, "gradient at {p:?}");
        }
    }

    #[test]
    #[should_panic(expected = "matmul inner-dim mismatch")]
    fn matmul_shape_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 2);
        let _ = a.matmul(&b);
    }

    fn pattern(rows: usize, cols: usize, mul: usize, md: usize, s: f32) -> Matrix {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|i| ((i * mul) % md) as f32 * s).collect(),
        )
    }

    #[test]
    fn packed_kernels_match_the_naive_reference_bitwise() {
        // Ragged shapes: tiles narrower than MR/NR, prime dims, K smaller
        // than a panel row, and one spanning many tiles and panels.
        for &(mm, kk, nn) in
            &[(1, 1, 1), (3, 5, 7), (17, 13, 31), (4, 2, 16), (5, 1, 33), (96, 64, 80)]
        {
            let a = pattern(mm, kk, 7, 23, 0.1);
            let b = pattern(kk, nn, 5, 19, 0.2);
            assert_eq!(
                a.matmul(&b).data(),
                a.matmul_naive(&b).data(),
                "matmul {mm}x{kk}x{nn} diverged from reference"
            );
        }
    }
}
