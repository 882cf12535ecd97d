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
//!
//! **Vector width**: the product body (`gemm_body`) is compiled twice
//! from one source — once for the build's target (128-bit SSE2 on a
//! default x86_64 build) and once with AVX2 enabled — and `gemm_packed`
//! picks one per product by asking the CPU. Width decides how many
//! accumulators one instruction updates, not what enters an accumulator
//! or when (Rust never fuses `a * b + c`, and the body uses no
//! `mul_add`), so the contract above holds on both and they return the
//! same bits; [`kernel`] names the one in use.

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
    for p in 0..np {
        let panel = &mut packed[p * k * NR..(p + 1) * k * NR];
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
    for p in 0..np {
        let panel = &mut packed[p * k * NR..(p + 1) * k * NR];
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
#[inline(always)]
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

/// The left operand of a packed product, as its caller stores it.
#[derive(Clone, Copy)]
enum Lhs<'a> {
    /// m×k row-major: output row `i` reads `a[i*k..(i+1)*k]`.
    Rows(&'a [f32]),
    /// k×m row-major, multiplied as its transpose (`matmul_at`).
    Cols(&'a [f32]),
}

/// Multiplies the m×k left operand against pre-packed panels of the k×n
/// right operand, writing the m×n result into `out`.
///
/// This is the one source of the product. `#[inline(always)]` (here and
/// on [`microkernel`]) is what lets it be compiled once per instruction
/// set: it has no code of its own, only the copies inside
/// [`gemm_packed`] and its AVX2 entry, each vectorized at the width of
/// the function it lands in.
#[inline(always)]
fn gemm_body(lhs: Lhs<'_>, m: usize, k: usize, packed: &[f32], n: usize, out: &mut [f32]) {
    let np = n.div_ceil(NR);
    // A transposed operand is gathered one MR-row tile at a time into
    // contiguous scratch so the microkernel reads both operands at unit
    // stride.
    let mut tile = match lhs {
        Lhs::Rows(_) => Vec::new(),
        Lhs::Cols(_) => vec![0.0f32; MR * k],
    };
    let mut ri = 0;
    while ri < m {
        let mr = MR.min(m - ri);
        let a_tile = match lhs {
            Lhs::Rows(a) => &a[ri * k..],
            Lhs::Cols(a) => {
                for kk in 0..k {
                    let src = &a[kk * m + ri..kk * m + ri + mr];
                    for (r, &v) in src.iter().enumerate() {
                        tile[r * k + kk] = v;
                    }
                }
                &tile[..]
            }
        };
        for p in 0..np {
            let j0 = p * NR;
            let jw = NR.min(n - j0);
            let panel = &packed[p * k * NR..(p + 1) * k * NR];
            microkernel(a_tile, mr, panel, &mut out[ri * n + j0..], n, jw);
        }
        ri += mr;
    }
}

/// Whether the products run the AVX2 copy of [`gemm_body`] on this CPU.
/// The standard library caches the answer after the first `cpuid`.
#[cfg(target_arch = "x86_64")]
fn has_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// The compiled body the three products run on this CPU: `"avx2"`, or
/// `"baseline"` for the build's own target. Both return the same bits;
/// this says which one's speed to expect.
pub fn kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        return "avx2";
    }
    "baseline"
}

/// The single dispatch point under `matmul`, `matmul_at` and
/// `matmul_bt`: one feature test per product, then [`gemm_body`] at the
/// widest width it was compiled for that the CPU has.
#[allow(unsafe_code)]
fn gemm_packed(lhs: Lhs<'_>, m: usize, k: usize, packed: &[f32], n: usize) -> Matrix {
    /// [`gemm_body`] compiled with 256-bit vectors.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn avx2(lhs: Lhs<'_>, m: usize, k: usize, packed: &[f32], n: usize, out: &mut [f32]) {
        gemm_body(lhs, m, k, packed, n, out);
    }

    let mut out = Matrix::zeros(m, n);
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: guarded by the runtime AVX2 check above.
        unsafe { avx2(lhs, m, k, packed, n, &mut out.data) };
        return out;
    }
    gemm_body(lhs, m, k, packed, n, &mut out.data);
    out
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
        let packed = pack_row_panels(other);
        gemm_packed(Lhs::Rows(&self.data), self.rows, self.cols, &packed, other.cols)
    }

    /// `selfᵀ @ other` — (k×m)ᵀ·(k×n) → (m×n), without materialising the
    /// transpose. Used for weight gradients (`xᵀ · dy`).
    pub fn matmul_at(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_at outer-dim mismatch");
        let packed = pack_row_panels(other);
        gemm_packed(Lhs::Cols(&self.data), self.cols, self.rows, &packed, other.cols)
    }

    /// `self @ otherᵀ` — (m×k)·(n×k)ᵀ → (m×n), without materialising the
    /// transpose. Used for input gradients (`dy · Wᵀ`).
    pub fn matmul_bt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_bt inner-dim mismatch");
        let packed = pack_col_panels(other);
        gemm_packed(Lhs::Rows(&self.data), self.rows, self.cols, &packed, other.rows)
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

    fn transpose(a: &Matrix) -> Matrix {
        let mut t = Matrix::zeros(a.cols, a.rows);
        for r in 0..a.rows {
            for c in 0..a.cols {
                t.data[c * a.rows + r] = a.data[r * a.cols + c];
            }
        }
        t
    }

    /// `gemm_body` as this module compiles it — the build's own target,
    /// whatever the CPU — where `gemm_packed` asks the CPU first.
    fn baseline(lhs: Lhs<'_>, m: usize, k: usize, packed: &[f32], n: usize) -> Matrix {
        let mut out = Matrix::zeros(m, n);
        gemm_body(lhs, m, k, packed, n, &mut out.data);
        out
    }

    /// All three products against the scalar reference, and the
    /// baseline-compiled body against the dispatched entry, bit for bit.
    /// On a CPU without AVX2 (or a build whose target already has it)
    /// the two bodies are the same code and the second half is trivially
    /// true; where they differ it is the proof that width cannot change
    /// a bit.
    #[test]
    fn packed_kernels_match_the_naive_reference_bitwise() {
        // Ragged shapes: tiles narrower than MR/NR, prime dims, K smaller
        // than a panel row, and one spanning many tiles and panels; the
        // hot shapes of a fine-tune step and a scan; one narrower than a
        // tile in every dimension.
        for &(mm, kk, nn) in &[
            (1, 1, 1),
            (3, 5, 7),
            (17, 13, 31),
            (4, 2, 16),
            (5, 1, 33),
            (96, 64, 80),
            (32, 48, 96),
            (32, 96, 96),
            (32, 96, 100),
            (256, 96, 96),
            (12, 96, 100),
            (3, 2, 11),
        ] {
            let a = pattern(mm, kk, 7, 23, 0.1);
            let b = pattern(kk, nn, 5, 19, 0.2);
            let (at, bt) = (transpose(&a), transpose(&b));
            let want = a.matmul_naive(&b);
            let shape = format!("{mm}x{kk}x{nn}");
            let (rows, cols) = (pack_row_panels(&b), pack_col_panels(&bt));
            for (product, dispatched, lhs, packed) in [
                ("matmul", a.matmul(&b), Lhs::Rows(&a.data), &rows),
                ("matmul_at", at.matmul_at(&b), Lhs::Cols(&at.data), &rows),
                ("matmul_bt", a.matmul_bt(&bt), Lhs::Rows(&a.data), &cols),
            ] {
                assert_eq!(dispatched, want, "{product} {shape} diverged from reference");
                assert_eq!(
                    baseline(lhs, mm, kk, packed, nn),
                    dispatched,
                    "baseline body of {product} {shape} diverged from the dispatched one"
                );
            }
        }
    }

    /// An empty sum is zero: a product over inner dimension 0 is the
    /// m×n zero matrix, from either body (the packers used to panic on a
    /// zero chunk size).
    #[test]
    fn products_over_an_empty_inner_dimension_are_zero() {
        let (a, b) = (Matrix::zeros(2, 0), Matrix::zeros(0, 3));
        let (at, bt) = (Matrix::zeros(0, 2), Matrix::zeros(3, 0));
        let zero = Matrix::zeros(2, 3);
        assert_eq!(a.matmul(&b), zero);
        assert_eq!(at.matmul_at(&b), zero);
        assert_eq!(a.matmul_bt(&bt), zero);
        assert_eq!(baseline(Lhs::Rows(&a.data), 2, 0, &pack_row_panels(&b), 3), zero);
        assert_eq!(baseline(Lhs::Cols(&at.data), 2, 0, &pack_col_panels(&bt), 3), zero);
    }

    #[test]
    fn kernel_names_what_the_cpu_reports() {
        #[cfg(target_arch = "x86_64")]
        let want = if std::arch::is_x86_feature_detected!("avx2") { "avx2" } else { "baseline" };
        #[cfg(not(target_arch = "x86_64"))]
        let want = "baseline";
        assert_eq!(kernel(), want);
    }
}
