//! Minimal row-major dense matrix used by every layer.
//!
//! The right-hand operand of each of the three matmul variants is packed
//! once per call into column panels of `NR` contiguous floats per
//! k-step, which turns the transposed variants (`matmul_at`,
//! `matmul_bt`) into the same unit-stride read as the plain product. Two
//! bodies multiply against those panels:
//!
//! - the **tile body**, an `MR`×`NR` register tile that accumulates
//!   fixed-size `[f32; NR]` rows, so LLVM's autovectorizer emits SIMD for
//!   the inner loop; every term is multiplied;
//! - the **row body**, which takes one output row at a time, lists the
//!   non-zero entries of the left operand's row (a column for
//!   `matmul_at`) in ascending `kk`, and adds `a · b[kk]` over that list
//!   into register accumulators covering up to `ROW_PANELS` panels of
//!   the row. ReLU leaves about half of every hidden activation, and of
//!   every gradient masked by it, exactly zero; this body skips them.
//!
//! A fixed rule (`pick_body`) picks the body per product from the
//! operands alone: the row body when the output is at least
//! `ROW_MIN_COLS` wide, at least `ROW_MIN_ZERO_PCT` per cent of the left
//! operand is exact zeros, and every right-hand element is finite.
//!
//! **FP-order contract**: every output element is produced by a single
//! `f32` accumulator that starts at `+0.0` and walks `kk` in ascending
//! order — exactly the naive triple loop's order. Tile and panel
//! boundaries only change *which registers* hold an accumulator, never
//! the order terms are added. The row body leaves out the terms whose
//! left entry is `±0.0`; with a finite right entry such a term is `±0.0`,
//! and adding `±0.0` leaves every accumulator unchanged — including one
//! that is `+0.0`, and an accumulator that starts at `+0.0` can never
//! become `-0.0` (an exact sum is `-0.0` only when both addends are). A
//! non-finite right entry would make the term NaN, so the rule never
//! takes the row body then. Both bodies are therefore bit-identical to
//! the scalar reference for every input, NaN and `±∞` included, and for
//! every tile size. The products are sequential leaf kernels: callers
//! that want threads split *rows* above them (`model::for_each_chunk`),
//! which the contract makes invisible in the bits.
//!
//! **Vector width**: the product body (`gemm_body`, both bodies and the
//! rule's scans) is compiled twice from one source — once for the
//! build's target (128-bit SSE2 on a default x86_64 build) and once with
//! AVX2 enabled — and `gemm_packed` picks one per product by asking the CPU.
//! Width decides how many accumulators one instruction updates, not what
//! enters an accumulator or when (Rust never fuses `a * b + c`, and the
//! bodies use no `mul_add`), so the contract above holds on both and
//! they return the same bits; [`kernel`] names the one in use.

use std::fmt;

/// Register-tile height: output rows accumulated per microkernel call.
const MR: usize = 4;

/// Register-tile width: output columns per packed panel. `MR * NR`
/// accumulators fit the SSE/AVX register file without spilling.
const NR: usize = 16;

/// Packs `b` (k×n, row-major) into `⌈n/NR⌉` column panels. Panel `p`
/// stores `b[kk][p*NR + c]` at `p*k*NR + kk*NR + c`, zero-padded past
/// column `n`, so both bodies read one contiguous `[f32; NR]` row of a
/// panel per k-step.
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
/// strided read. Lets `matmul_bt` reuse the plain-product bodies.
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

/// The left operand of a product, as its caller stores it.
#[derive(Clone, Copy)]
enum Lhs<'a> {
    /// m×k row-major: output row `i` reads `a[i*k..(i+1)*k]`.
    Rows(&'a [f32]),
    /// k×m row-major, multiplied as its transpose (`matmul_at`).
    Cols(&'a [f32]),
}

impl<'a> Lhs<'a> {
    fn data(self) -> &'a [f32] {
        match self {
            Lhs::Rows(a) | Lhs::Cols(a) => a,
        }
    }
}

/// The right operand of a product, as its caller stores it.
#[derive(Clone, Copy)]
enum Rhs<'a> {
    /// k×n, multiplied as it is.
    Rows(&'a Matrix),
    /// n×k, multiplied as its transpose (`matmul_bt`).
    Cols(&'a Matrix),
}

impl<'a> Rhs<'a> {
    fn matrix(self) -> &'a Matrix {
        match self {
            Rhs::Rows(b) | Rhs::Cols(b) => b,
        }
    }

    /// Output columns.
    fn n(self) -> usize {
        match self {
            Rhs::Rows(b) => b.cols,
            Rhs::Cols(b) => b.rows,
        }
    }

    /// The panels both bodies read.
    fn pack(self) -> Vec<f32> {
        match self {
            Rhs::Rows(b) => pack_row_panels(b),
            Rhs::Cols(b) => pack_col_panels(b),
        }
    }
}

/// Which body a product runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Body {
    /// [`microkernel`] over `MR`×`NR` tiles: every term is multiplied.
    Panels,
    /// [`row_strip`] per output row: exact-zero left entries are skipped.
    Rows,
}

/// The row body needs an output at least this wide to beat the tiles…
const ROW_MIN_COLS: usize = 80;

/// …and at least this many per cent of the left operand exact zeros.
const ROW_MIN_ZERO_PCT: usize = 30;

/// Panels of `NR` columns the row body accumulates in registers at once.
const ROW_PANELS: usize = 7;

/// The rule that picks the body, from the operands alone: the row body
/// for a wide product whose left operand is sparse (ReLU outputs and the
/// gradients masked by them), the tiles otherwise — and always the tiles
/// when a right-hand element is non-finite, since skipping `0·∞` or
/// `0·NaN` would drop a NaN the reference keeps.
#[inline(always)]
fn pick_body(lhs: &[f32], rhs: &[f32], n: usize) -> Body {
    if n < ROW_MIN_COLS {
        return Body::Panels;
    }
    // Both scans are branch-free folds over `u32` lanes, so they vectorize.
    let zeros: usize = lhs
        .chunks(1 << 20)
        .map(|c| c.iter().map(|&v| u32::from(v == 0.0)).sum::<u32>() as usize)
        .sum();
    let finite = || rhs.iter().fold(0u32, |bad, v| bad | u32::from(!v.is_finite())) == 0;
    if zeros * 100 >= lhs.len() * ROW_MIN_ZERO_PCT && finite() {
        Body::Rows
    } else {
        Body::Panels
    }
}

/// One output row's strip of `W / NR` panels from panel `p0` on: `out[c]
/// = Σ a · b[kk][p0·NR + c]` over the `(kk·NR, a)` terms, which list
/// the row's non-zero left entries in ascending `kk`. The `W`
/// accumulators stay in registers for the whole walk.
#[inline(always)]
fn row_strip<const W: usize>(
    terms: &[(usize, f32)],
    packed: &[f32],
    k: usize,
    p0: usize,
    out: &mut [f32],
) {
    let panels = &packed[p0 * k * NR..(p0 * NR + W) * k];
    let mut acc = [0.0f32; W];
    for &(off, av) in terms {
        for (accp, panel) in acc.chunks_exact_mut(NR).zip(panels.chunks_exact(k * NR)) {
            let b: &[f32; NR] = panel[off..off + NR].try_into().expect("one panel row");
            for (x, &y) in accp.iter_mut().zip(b) {
                *x += av * y;
            }
        }
    }
    out.copy_from_slice(&acc[..out.len()]);
}

/// The row body: for each output row, list the non-zero left entries
/// in ascending `kk`, then run [`row_strip`] over at most
/// [`ROW_PANELS`] panels of the row at a time. It reads the same panels
/// as the tile body.
#[inline(always)]
fn row_body(lhs: Lhs<'_>, m: usize, k: usize, packed: &[f32], n: usize, out: &mut [f32]) {
    let np = n.div_ceil(NR);
    // Every entry is written and only the non-zero ones are kept, with
    // no branch on the data for the zeros to mispredict.
    let mut terms = vec![(0usize, 0.0f32); k];
    for i in 0..m {
        let mut len = 0;
        let mut push = |kk: usize, v: f32| {
            terms[len] = (kk * NR, v);
            len += usize::from(v != 0.0);
        };
        match lhs {
            Lhs::Rows(a) => {
                a[i * k..(i + 1) * k].iter().enumerate().for_each(|(kk, &v)| push(kk, v))
            }
            Lhs::Cols(a) => (0..k).for_each(|kk| push(kk, a[kk * m + i])),
        }
        let terms = &terms[..len];
        let mut p0 = 0;
        while p0 < np {
            let panels = ROW_PANELS.min(np - p0);
            let out = &mut out[i * n + p0 * NR..i * n + n.min((p0 + panels) * NR)];
            match panels {
                1 => row_strip::<NR>(terms, packed, k, p0, out),
                2 => row_strip::<{ 2 * NR }>(terms, packed, k, p0, out),
                3 => row_strip::<{ 3 * NR }>(terms, packed, k, p0, out),
                4 => row_strip::<{ 4 * NR }>(terms, packed, k, p0, out),
                5 => row_strip::<{ 5 * NR }>(terms, packed, k, p0, out),
                6 => row_strip::<{ 6 * NR }>(terms, packed, k, p0, out),
                _ => row_strip::<{ ROW_PANELS * NR }>(terms, packed, k, p0, out),
            }
            p0 += panels;
        }
    }
}

/// The tile body: the m×k left operand against pre-packed panels of the
/// k×n right operand, one `MR`×`NR` [`microkernel`] tile at a time.
#[inline(always)]
fn panel_body(lhs: Lhs<'_>, m: usize, k: usize, packed: &[f32], n: usize, out: &mut [f32]) {
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

/// Multiplies the m×k left operand by pre-packed panels of the right
/// one, writing the m×n result into `out`: runs `body`, or the one
/// [`pick_body`] picks when `None`.
///
/// This is the one source of the product. `#[inline(always)]` (here and
/// on everything it calls) is what lets it be compiled once per
/// instruction set: it has no code of its own, only the copies inside
/// [`gemm_packed`] and its AVX2 entry, each vectorized at the width of the
/// function it lands in — the rule's scans included.
#[inline(always)]
fn gemm_body(
    body: Option<Body>,
    lhs: Lhs<'_>,
    m: usize,
    k: usize,
    rhs: Rhs<'_>,
    packed: &[f32],
    out: &mut [f32],
) {
    let n = rhs.n();
    match body.unwrap_or_else(|| pick_body(lhs.data(), &rhs.matrix().data, n)) {
        Body::Panels => panel_body(lhs, m, k, packed, n, out),
        Body::Rows => row_body(lhs, m, k, packed, n, out),
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
fn gemm_packed(body: Option<Body>, lhs: Lhs<'_>, m: usize, k: usize, rhs: Rhs<'_>) -> Matrix {
    /// [`gemm_body`] compiled with 256-bit vectors.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn avx2(
        body: Option<Body>,
        lhs: Lhs<'_>,
        m: usize,
        k: usize,
        rhs: Rhs<'_>,
        packed: &[f32],
        out: &mut [f32],
    ) {
        gemm_body(body, lhs, m, k, rhs, packed, out);
    }

    let packed = rhs.pack();
    let mut out = Matrix::zeros(m, rhs.n());
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: guarded by the runtime AVX2 check above.
        unsafe { avx2(body, lhs, m, k, rhs, &packed, &mut out.data) };
        return out;
    }
    gemm_body(body, lhs, m, k, rhs, &packed, &mut out.data);
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
        gemm_packed(None, Lhs::Rows(&self.data), self.rows, self.cols, Rhs::Rows(other))
    }

    /// `selfᵀ @ other` — (k×m)ᵀ·(k×n) → (m×n), without materialising the
    /// transpose. Used for weight gradients (`xᵀ · dy`).
    pub fn matmul_at(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_at outer-dim mismatch");
        gemm_packed(None, Lhs::Cols(&self.data), self.cols, self.rows, Rhs::Rows(other))
    }

    /// `self @ otherᵀ` — (m×k)·(n×k)ᵀ → (m×n), without materialising the
    /// transpose. Used for input gradients (`dy · Wᵀ`).
    pub fn matmul_bt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_bt inner-dim mismatch");
        gemm_packed(None, Lhs::Rows(&self.data), self.rows, self.cols, Rhs::Cols(other))
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

    /// A rows×cols operand with no zeros of its own, of both signs, in
    /// which `pct` per cent of the entries (rounded up, spread evenly)
    /// are then made exact zeros, every other one of them `-0.0`.
    fn sparse(rows: usize, cols: usize, pct: usize) -> Matrix {
        let zeros_before = |i: usize| (i * pct).div_ceil(100);
        let data = (0..rows * cols)
            .map(|i| {
                if zeros_before(i + 1) == zeros_before(i) {
                    ((i * 7) % 23 + 1) as f32 * 0.1 - 1.15
                } else if zeros_before(i) % 2 == 0 {
                    0.0
                } else {
                    -0.0
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
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

    /// The bits of every element, so that `-0.0` differs from `0.0` and
    /// a NaN equals the same NaN.
    fn bits(a: &Matrix) -> Vec<u32> {
        a.data.iter().map(|v| v.to_bits()).collect()
    }

    /// `gemm_body` as this module compiles it — the build's own target,
    /// whatever the CPU — where `gemm_packed` asks the CPU first.
    fn baseline(body: Body, lhs: Lhs<'_>, m: usize, k: usize, rhs: Rhs<'_>) -> Matrix {
        let mut out = Matrix::zeros(m, rhs.n());
        gemm_body(Some(body), lhs, m, k, rhs, &rhs.pack(), &mut out.data);
        out
    }

    /// Every (product, body, width) of `a · b` against the scalar
    /// reference, bit for bit: the three public products as the rule
    /// dispatches them, then each product through each body both as
    /// dispatched and as compiled for the build's own target. The row
    /// body runs on whatever `b` holds, so it is left out when `b` has a
    /// non-finite element, where the rule never takes it.
    fn assert_every_body_matches_the_reference(a: &Matrix, b: &Matrix, case: &str) {
        let (mm, kk) = (a.rows, a.cols);
        let (at, bt) = (transpose(a), transpose(b));
        let want = bits(&a.matmul_naive(b));
        let bodies: &[Body] = if b.data.iter().all(|v| v.is_finite()) {
            &[Body::Panels, Body::Rows]
        } else {
            &[Body::Panels]
        };
        for (product, dispatched, lhs, rhs) in [
            ("matmul", a.matmul(b), Lhs::Rows(&a.data), Rhs::Rows(b)),
            ("matmul_at", at.matmul_at(b), Lhs::Cols(&at.data), Rhs::Rows(b)),
            ("matmul_bt", a.matmul_bt(&bt), Lhs::Rows(&a.data), Rhs::Cols(&bt)),
        ] {
            assert_eq!(bits(&dispatched), want, "{product} {case} diverged from reference");
            for &body in bodies {
                let at_width = bits(&gemm_packed(Some(body), lhs, mm, kk, rhs));
                assert_eq!(
                    at_width, want,
                    "{body:?} body of {product} {case} diverged from reference"
                );
                let at_baseline = bits(&baseline(body, lhs, mm, kk, rhs));
                assert_eq!(
                    at_baseline, want,
                    "baseline {body:?} body of {product} {case} diverged"
                );
            }
        }
    }

    /// All three products against the scalar reference through both
    /// bodies, and each body's baseline-compiled copy against the
    /// dispatched one, bit for bit, on left operands from dense to all
    /// zeros (`-0.0` included). On a CPU without AVX2 (or a build whose
    /// target already has it) the two copies are the same code; where
    /// they differ it is the proof that width cannot change a bit. The
    /// rule's pick is pinned on every case: the row body from 80 output
    /// columns and 30 % exact zeros on the left, the tiles below either.
    #[test]
    fn packed_kernels_match_the_naive_reference_bitwise() {
        // Ragged shapes: tiles narrower than MR/NR, prime dims, K smaller
        // than a panel row, and one spanning many tiles and panels; the
        // hot shapes of a fine-tune step (forward, `matmul_at`'s 96×32×96,
        // the head), a scan and a 100-class head; a row wider than the
        // row body's seven panels; the width crossover; one narrower than
        // a tile in every dimension.
        for &(mm, kk, nn) in &[
            (1, 1, 1),
            (3, 5, 7),
            (17, 13, 31),
            (4, 2, 16),
            (5, 1, 33),
            (96, 64, 80),
            (32, 48, 96),
            (32, 96, 96),
            (96, 32, 96),
            (32, 96, 26),
            (32, 96, 100),
            (256, 96, 96),
            (12, 96, 100),
            (8, 40, 150),
            (10, 10, 79),
            (10, 10, 80),
            (3, 2, 11),
        ] {
            let b = pattern(kk, nn, 5, 19, 0.2);
            let dense = pattern(mm, kk, 7, 23, 0.1);
            assert_every_body_matches_the_reference(&dense, &b, &format!("{mm}x{kk}x{nn}"));
            for pct in [0, 29, 30, 50, 70, 100] {
                let a = sparse(mm, kk, pct);
                let case = format!("{mm}x{kk}x{nn} at {pct} % zeros");
                let want = if nn >= 80 && pct >= 30 { Body::Rows } else { Body::Panels };
                assert_eq!(pick_body(&a.data, &b.data, nn), want, "rule on {case}");
                assert_eq!(
                    pick_body(&transpose(&a).data, &b.data, nn),
                    want,
                    "rule on {case}, `at`"
                );
                assert_every_body_matches_the_reference(&a, &b, &case);
            }
        }
    }

    /// `0·∞` and `0·NaN` are NaN, so a zero left entry that meets a
    /// non-finite right one is a term the row body must not skip: the
    /// rule takes the tiles, and every product equals the reference. A
    /// NaN or `∞` on the left is not a zero and enters the row body.
    #[test]
    fn non_finite_operands_match_the_naive_reference_bitwise() {
        let (mm, kk, nn) = (8, 16, 96);
        let mut a = sparse(mm, kk, 50);
        for i in 0..mm {
            a.data[i * kk + 3] = 0.0;
        }
        for poison in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            let mut b = pattern(kk, nn, 5, 19, 0.2);
            b.data[3 * nn + 5] = poison;
            assert_eq!(
                pick_body(&a.data, &b.data, nn),
                Body::Panels,
                "rule with {poison} on the right"
            );
            assert_every_body_matches_the_reference(&a, &b, &format!("{poison} on the right"));
            // Why the rule falls back: the row body skips the zero
            // column of `a` that meets the poison, and loses the NaN.
            let want = a.matmul_naive(&b);
            let rows = baseline(Body::Rows, Lhs::Rows(&a.data), mm, kk, Rhs::Rows(&b));
            assert!(
                want.data[5].is_nan() && !rows.data[5].is_nan(),
                "{poison}: 0·{poison} was not NaN"
            );
        }
        let b = pattern(kk, nn, 5, 19, 0.2);
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut a = a.clone();
            a.data[kk + 7] = poison;
            a.data[4 * kk + 1] = poison;
            assert_eq!(
                pick_body(&a.data, &b.data, nn),
                Body::Rows,
                "rule with {poison} on the left"
            );
            assert_every_body_matches_the_reference(&a, &b, &format!("{poison} on the left"));
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
        for body in [Body::Panels, Body::Rows] {
            assert_eq!(baseline(body, Lhs::Rows(&a.data), 2, 0, Rhs::Rows(&b)), zero);
            assert_eq!(baseline(body, Lhs::Cols(&at.data), 2, 0, Rhs::Cols(&bt)), zero);
        }
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
