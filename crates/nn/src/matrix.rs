//! Minimal row-major dense matrix used by every layer, and the one `f32`
//! product under all of them.
//!
//! Every product multiplies an m×k left operand (as stored, or stored
//! k×m and read as its transpose) by a k×n row-major right operand.
//! `matmul_bt` transposes its right operand once, cache-blocked, and so
//! does a layer's input gradient; nothing else copies an operand into a
//! new layout except the tile body's panels. Two bodies multiply:
//!
//! - the **tile body** packs the right operand into column panels of
//!   `NR` contiguous floats per k-step and runs an `MR`×`NR` register
//!   tile of fixed-size `[f32; NR]` accumulator rows over them, so LLVM's
//!   autovectorizer emits SIMD for the inner loop; every term is
//!   multiplied;
//! - the **row body** takes one output row at a time, lists the non-zero
//!   entries of the left operand's row (a column for `matmul_at`) in
//!   ascending `kk`, and adds `a · b[kk]` over that list into register
//!   accumulators covering up to `ROW_PANELS` panels of the row, reading
//!   each right-hand row where it lies: it packs nothing. ReLU leaves
//!   about half of every hidden activation, and of every gradient masked
//!   by it, exactly zero; this body skips them.
//!
//! A fixed rule (`pick`) picks the body per product: the row body when
//! the output is at least `ROW_MIN_COLS` wide, at least
//! `ROW_MIN_ZERO_PCT` per cent of the left operand is exact zeros, and
//! every right-hand element is finite. The public products scan their
//! operands for it; the model's passes hand in what the `Epilogue` of
//! the product that wrote an operand counted (`Tally`), and scan only
//! what no pass of theirs wrote. The epilogue finishes each output row
//! as soon as its sums are stored: bias, skips, then ReLU or the backward
//! ReLU mask, element by element in the order the unfused passes ran.
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
//! every tile size. The products are sequential kernels on their
//! caller's thread; inference splits *rows* above them
//! (`model::for_each_chunk`), which the contract makes invisible in the
//! bits.
//!
//! **Vector width**: the product body (`gemm_body`, both bodies, the
//! epilogue and the rule's scans) is compiled twice from one source —
//! once for the build's target (128-bit SSE2 on a default x86_64 build)
//! and once with AVX2 enabled — and `gemm` picks one per product by
//! asking the CPU. Width decides how many accumulators one instruction
//! updates, not what enters an accumulator or when (Rust never fuses
//! `a * b + c`, and the bodies use no `mul_add`), so the contract above
//! holds on both and they return the same bits; [`kernel`] names the one
//! in use.

use std::fmt;

/// Register-tile height: output rows accumulated per microkernel call.
const MR: usize = 4;

/// Register-tile width: output columns per panel. `MR * NR`
/// accumulators fit the SSE/AVX register file without spilling.
const NR: usize = 16;

/// Packs the k×n row-major `b` into `⌈n/NR⌉` column panels in `packed`.
/// Panel `p` stores `b[kk][p*NR + c]` at `p*k*NR + kk*NR + c`,
/// zero-padded past column `n`, so a body reads one contiguous
/// `[f32; NR]` row of a panel per k-step.
fn pack_row_panels(b: &[f32], k: usize, n: usize, packed: &mut Vec<f32>) {
    let np = n.div_ceil(NR);
    packed.resize(np * k * NR, 0.0);
    for p in 0..np {
        let panel = &mut packed[p * k * NR..(p + 1) * k * NR];
        let j0 = p * NR;
        let jw = NR.min(n - j0);
        for kk in 0..k {
            panel[kk * NR..kk * NR + jw].copy_from_slice(&b[kk * n + j0..kk * n + j0 + jw]);
        }
        if jw < NR {
            panel.chunks_exact_mut(NR).for_each(|row| row[jw..].fill(0.0));
        }
    }
}

/// Writes the transpose of the rows×cols row-major `a` into `out`
/// (cols×rows), one `TB`×`TB` block at a time: a block is read row by
/// row into registers and written column by column, so both sides move
/// whole `TB`-float runs. The ragged edges go element by element.
pub(crate) fn transpose_into(a: &[f32], rows: usize, cols: usize, out: &mut Vec<f32>) {
    const TB: usize = 4;
    assert_eq!(a.len(), rows * cols, "transpose shape mismatch");
    out.resize(rows * cols, 0.0);
    let (r_end, c_end) = (rows - rows % TB, cols - cols % TB);
    for r0 in (0..r_end).step_by(TB) {
        for c0 in (0..c_end).step_by(TB) {
            let block: [[f32; TB]; TB] = std::array::from_fn(|r| {
                a[(r0 + r) * cols + c0..][..TB].try_into().expect("a block row")
            });
            for c in 0..TB {
                let dst: &mut [f32; TB] =
                    (&mut out[(c0 + c) * rows + r0..][..TB]).try_into().expect("a block column");
                *dst = std::array::from_fn(|r| block[r][c]);
            }
        }
    }
    for r in 0..rows {
        let c_from = if r < r_end { c_end } else { 0 };
        for c in c_from..cols {
            out[c * rows + r] = a[r * cols + c];
        }
    }
}

/// `mr`×[`NR`] register tile: `out[r][c] = Σ a[r*k + kk] ·
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
pub(crate) enum Lhs<'a> {
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

/// Which body a product runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Body {
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

/// The rule that picks the body, for an `n`-column output whose left
/// operand has `lhs_len` elements: the row body for a wide product whose
/// left operand is sparse (ReLU outputs and the gradients masked by
/// them), the tiles otherwise — and always the tiles when a right-hand
/// element is non-finite, since skipping `0·∞` or `0·NaN` would drop a
/// NaN the reference keeps. It asks for the zero count and the
/// finiteness only when it needs them, in that order.
#[inline(always)]
pub(crate) fn pick(
    n: usize,
    lhs_len: usize,
    lhs_zeros: impl FnOnce() -> usize,
    rhs_finite: impl FnOnce() -> bool,
) -> Body {
    if n >= ROW_MIN_COLS && lhs_zeros() * 100 >= lhs_len * ROW_MIN_ZERO_PCT && rhs_finite() {
        Body::Rows
    } else {
        Body::Panels
    }
}

/// Exact zeros (`±0.0`) in `v`: a branch-free fold over `u32` lanes, so
/// it vectorizes.
#[inline(always)]
pub(crate) fn count_zeros(v: &[f32]) -> usize {
    v.chunks(1 << 20).map(|c| c.iter().map(|&v| u32::from(v == 0.0)).sum::<u32>() as usize).sum()
}

/// Whether every element of `v` is finite, by the same kind of fold.
#[inline(always)]
pub(crate) fn all_finite(v: &[f32]) -> bool {
    v.iter().fold(0u32, |bad, v| bad | u32::from(!v.is_finite())) == 0
}

/// What an [`Epilogue`] counted in the output it finished: the two facts
/// [`pick`] asks of an operand, so that a later product reading that
/// output needs no scan. Only an activation (ReLU or a ReLU mask) is
/// counted, since only those feed later products; any other output gets
/// [`Tally::UNKNOWN`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Tally {
    pub zeros: usize,
    pub finite: bool,
}

impl Tally {
    /// Claims no zeros and no finiteness, so that a rule reading it picks
    /// the tiles, which are right for every operand.
    pub(crate) const UNKNOWN: Self = Self { zeros: 0, finite: false };

    /// The tally of `v` by scanning it, for an operand no epilogue wrote.
    pub(crate) fn of(v: &[f32]) -> Self {
        Self { zeros: count_zeros(v), finite: all_finite(v) }
    }

    fn and(self, other: Self) -> Self {
        Self { zeros: self.zeros + other.zeros, finite: self.finite && other.finite }
    }
}

/// The activation an [`Epilogue`] ends with.
#[derive(Clone, Copy, Default)]
pub(crate) enum Act<'a> {
    #[default]
    Identity,
    /// [`Matrix::relu`].
    Relu,
    /// [`Matrix::zero_where_not_positive`] against this activation, laid
    /// out like the output.
    Mask(&'a [f32]),
}

/// What a product does to each output element after its sum, in the
/// order the unfused passes did it: add `bias[j]`, add each skip (an
/// operand laid out like the output), then apply `act`. Each output row
/// is finished as soon as its sums are stored, while it is in L1.
#[derive(Clone, Copy, Default)]
pub(crate) struct Epilogue<'a> {
    pub bias: Option<&'a [f32]>,
    pub skips: [Option<&'a [f32]>; 2],
    pub act: Act<'a>,
}

impl Epilogue<'_> {
    /// Finishes the whole `n`-column output rows in `out`, the first of
    /// which is output row `i0`, and tallies an activation.
    #[inline(always)]
    fn finish(&self, i0: usize, n: usize, out: &mut [f32]) -> Tally {
        let at = i0 * n..i0 * n + out.len();
        if let Some(bias) = self.bias {
            for row in out.chunks_exact_mut(n) {
                for (v, &b) in row.iter_mut().zip(bias) {
                    *v += b;
                }
            }
        }
        for skip in self.skips.iter().flatten() {
            for (v, &s) in out.iter_mut().zip(&skip[at.clone()]) {
                *v += s;
            }
        }
        match self.act {
            Act::Identity => return Tally::UNKNOWN,
            Act::Relu => out.iter_mut().for_each(|v| *v = if *v > 0.0 { *v } else { 0.0 }),
            Act::Mask(act) => {
                for (v, &a) in out.iter_mut().zip(&act[at]) {
                    *v = if a > 0.0 { *v } else { 0.0 };
                }
            }
        }
        Tally::of(out)
    }
}

/// The buffers a product fills before it multiplies — the tile body's
/// panels and gathered tile, the row body's term list — kept by a caller
/// that runs many products, so that none of them allocates.
#[derive(Default)]
pub(crate) struct Scratch {
    packed: Vec<f32>,
    terms: Vec<(u32, f32)>,
    tile: Vec<f32>,
}

/// One strip of an `ldb`-column output row `out`: the `P` panels of
/// `NR` columns from column `base` on, and when `TAIL` also the row's
/// last `NR` columns, `out[c] = Σ a · b[kk][c]` over the `(kk, a)` terms
/// of [`list_terms`] (the row's non-zero left entries, ascending `kk`).
/// Each term reads its right-hand row where it lies: one contiguous,
/// bounds-checked segment for the panels and one for the tail. The tail
/// overlaps the panel before it unless `ldb` is a multiple of `NR`; both
/// then hold the same sums, so the overlap is stored twice with the same
/// bits. Every access to the accumulators is at a constant index, so all
/// of them stay in registers for the whole walk.
#[inline(always)]
fn row_strip<const P: usize, const TAIL: bool>(
    terms: &[(u32, f32)],
    b: &[f32],
    ldb: usize,
    base: usize,
    out: &mut [f32],
) {
    let tail = ldb - NR;
    let mut acc = [[0.0f32; NR]; P];
    let mut last = [0.0f32; NR];
    for &(kk, av) in terms {
        let off = kk as usize * ldb;
        let panels = &b[off + base..off + base + P * NR];
        for (accp, bp) in acc.iter_mut().zip(panels.chunks_exact(NR)) {
            for (x, &y) in accp.iter_mut().zip(bp) {
                *x += av * y;
            }
        }
        if TAIL {
            for (x, &y) in last.iter_mut().zip(&b[off + tail..off + tail + NR]) {
                *x += av * y;
            }
        }
    }
    for (accp, o) in acc.iter().zip(out[base..base + P * NR].chunks_exact_mut(NR)) {
        o.copy_from_slice(accp);
    }
    if TAIL {
        out[tail..tail + NR].copy_from_slice(&last);
    }
}

/// Lists the non-zero entries of one row of a left operand in `terms`,
/// as `(kk, a)` in ascending `kk`, and returns how many there are. Every
/// entry is written and only the non-zero ones are kept, with no branch
/// on the data for the zeros to mispredict; `terms` is a power of two
/// long, so a mask, which never changes an index below the row's length,
/// stands in for the bounds check.
#[inline(always)]
fn list_terms<'a>(row: impl IntoIterator<Item = &'a f32>, terms: &mut [(u32, f32)]) -> usize {
    let mask = terms.len() - 1;
    let mut len = 0;
    for (kk, &v) in (0u32..).zip(row) {
        terms[len & mask] = (kk, v);
        len += usize::from(v != 0.0);
    }
    len
}

/// The row body: for each output row, list the non-zero left entries in
/// ascending `kk`, walk them once per strip of at most [`ROW_PANELS`]
/// panels (the row's ragged last panel, read as its last `NR` columns,
/// counting as one), then finish the row. A right operand at least a
/// panel wide is read where it lies; a narrower one from a copy padded
/// to one panel.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn row_body(
    lhs: Lhs<'_>,
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    epi: &Epilogue<'_>,
    out: &mut [f32],
    scratch: &mut Scratch,
) -> Tally {
    let Scratch { packed, terms, .. } = scratch;
    let (b, ldb) = if n < NR {
        pack_row_panels(b, k, n, packed);
        (&packed[..], NR)
    } else {
        (b, n)
    };
    let ragged = n > NR && !n.is_multiple_of(NR);
    let np = n.div_ceil(NR);
    // `list_terms` counts `kk` in a `u32`.
    u32::try_from(k).expect("an inner dimension below 2³²");
    terms.resize(k.next_power_of_two(), (0, 0.0));
    let mut tally = Tally::of(&[]);
    for i in 0..m {
        let len = match lhs {
            Lhs::Rows(a) => list_terms(&a[i * k..(i + 1) * k], terms),
            Lhs::Cols(a) => list_terms(a.iter().skip(i).step_by(m), terms),
        };
        let terms = &terms[..len];
        let row = &mut out[i * n..(i + 1) * n];
        if n < NR {
            let mut padded = [0.0f32; NR];
            row_strip::<1, false>(terms, b, ldb, 0, &mut padded);
            row.copy_from_slice(&padded[..n]);
        }
        let mut p0 = 0;
        while n >= NR && p0 < np {
            let group = ROW_PANELS.min(np - p0);
            let tail = ragged && p0 + group == np;
            let base = p0 * NR;
            macro_rules! strip {
                ($($p:literal)*) => {
                    match (group - usize::from(tail), tail) {
                        $(($p, false) => row_strip::<$p, false>(terms, b, ldb, base, row),
                          ($p, true) => row_strip::<$p, true>(terms, b, ldb, base, row),)*
                        _ => unreachable!("a strip holds at most ROW_PANELS panels"),
                    }
                };
            }
            strip!(0 1 2 3 4 5 6 7);
            p0 += group;
        }
        tally = tally.and(epi.finish(i, n, row));
    }
    tally
}

/// The tile body: the left operand against panels of the right one, one
/// `MR`×`NR` [`microkernel`] tile at a time, finishing each `MR` rows
/// once all their panels are stored.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn panel_body(
    lhs: Lhs<'_>,
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    epi: &Epilogue<'_>,
    out: &mut [f32],
    scratch: &mut Scratch,
) -> Tally {
    let Scratch { packed, tile, .. } = scratch;
    pack_row_panels(b, k, n, packed);
    let np = n.div_ceil(NR);
    // A transposed operand is gathered one MR-row tile at a time into
    // contiguous scratch so the microkernel reads both operands at unit
    // stride.
    if let Lhs::Cols(_) = lhs {
        tile.resize(MR * k, 0.0);
    }
    let mut tally = Tally::of(&[]);
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
        tally = tally.and(epi.finish(ri, n, &mut out[ri * n..(ri + mr) * n]));
        ri += mr;
    }
    tally
}

/// Multiplies the m×k left operand by the k×n right one into `out`,
/// finishing every row with `epi`: runs `body`, or the one [`pick`]
/// picks by scanning the operands when `None`.
///
/// This is the one source of the product. `#[inline(always)]` (here and
/// on everything it calls) is what lets it be compiled once per
/// instruction set: it has no code of its own, only the copies inside
/// [`gemm`] and its AVX2 entry, each vectorized at the width of the
/// function it lands in — the rule's scans and the epilogue included.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_body(
    body: Option<Body>,
    lhs: Lhs<'_>,
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    epi: &Epilogue<'_>,
    out: &mut [f32],
    scratch: &mut Scratch,
) -> Tally {
    let body = body.unwrap_or_else(|| {
        let a = lhs.data();
        pick(n, a.len(), || count_zeros(a), || all_finite(b))
    });
    match body {
        Body::Panels => panel_body(lhs, m, k, b, n, epi, out, scratch),
        Body::Rows => row_body(lhs, m, k, b, n, epi, out, scratch),
    }
}

/// Whether the products run the AVX2 copy of [`gemm_body`] on this CPU.
/// The standard library caches the answer after the first `cpuid`.
#[cfg(target_arch = "x86_64")]
fn has_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// The compiled body the products run on this CPU: `"avx2"`, or
/// `"baseline"` for the build's own target. Both return the same bits;
/// this says which one's speed to expect.
pub fn kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        return "avx2";
    }
    "baseline"
}

/// The single dispatch point under every product — the public three and
/// the model's fused layer products: one feature test per product, then
/// [`gemm_body`] at the widest width it was compiled for that the CPU
/// has. Returns the tally of the finished output.
///
/// # Panics
/// Panics if an operand or `out` does not have the length its shape
/// asks for.
#[allow(unsafe_code, clippy::too_many_arguments)]
pub(crate) fn gemm(
    body: Option<Body>,
    lhs: Lhs<'_>,
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    epi: &Epilogue<'_>,
    out: &mut [f32],
    scratch: &mut Scratch,
) -> Tally {
    /// [`gemm_body`] compiled with 256-bit vectors.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn avx2(
        body: Option<Body>,
        lhs: Lhs<'_>,
        m: usize,
        k: usize,
        b: &[f32],
        n: usize,
        epi: &Epilogue<'_>,
        out: &mut [f32],
        scratch: &mut Scratch,
    ) -> Tally {
        gemm_body(body, lhs, m, k, b, n, epi, out, scratch)
    }

    assert!(
        lhs.data().len() == m * k && b.len() == k * n && out.len() == m * n,
        "product shape mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: guarded by the runtime AVX2 check above.
        return unsafe { avx2(body, lhs, m, k, b, n, epi, out, scratch) };
    }
    gemm_body(body, lhs, m, k, b, n, epi, out, scratch)
}

/// A public product: the rule scans the operands, nothing finishes the
/// output, and the buffers are the call's own.
fn product(lhs: Lhs<'_>, m: usize, k: usize, b: &[f32], n: usize) -> Matrix {
    let mut out = Matrix::zeros(m, n);
    gemm(None, lhs, m, k, b, n, &Epilogue::default(), &mut out.data, &mut Scratch::default());
    out
}

/// Row-major dense `f32` matrix.
#[derive(Clone, Default, PartialEq)]
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

    /// Reshapes to rows×cols in the buffer it already has, for a product
    /// to overwrite: the elements hold stale values until it does.
    pub(crate) fn reuse(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        (self.rows, self.cols) = (rows, cols);
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
        product(Lhs::Rows(&self.data), self.rows, self.cols, &other.data, other.cols)
    }

    /// `selfᵀ @ other` — (k×m)ᵀ·(k×n) → (m×n), without materialising the
    /// transpose. Used for weight gradients (`xᵀ · dy`).
    pub fn matmul_at(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_at outer-dim mismatch");
        product(Lhs::Cols(&self.data), self.cols, self.rows, &other.data, other.cols)
    }

    /// `self @ otherᵀ` — (m×k)·(n×k)ᵀ → (m×n), transposing `other` once.
    /// Used for input gradients (`dy · Wᵀ`).
    pub fn matmul_bt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_bt inner-dim mismatch");
        let mut bt = Vec::new();
        transpose_into(&other.data, other.rows, other.cols, &mut bt);
        product(Lhs::Rows(&self.data), self.rows, self.cols, &bt, other.rows)
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
    /// `kk` ascending. The products are pinned bit-identical to this by
    /// `packed_kernels_match_the_naive_reference_bitwise`, and a whole
    /// train step by `train_step_and_scan_match_the_unfused_reference_bitwise`.
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

    /// `body` as [`gemm`] dispatches it, at the CPU's widest width.
    fn at_width(body: Body, lhs: Lhs<'_>, m: usize, k: usize, b: &[f32], n: usize) -> Matrix {
        let mut out = Matrix::zeros(m, n);
        let epi = Epilogue::default();
        gemm(Some(body), lhs, m, k, b, n, &epi, &mut out.data, &mut Scratch::default());
        out
    }

    /// `gemm_body` as this module compiles it — the build's own target,
    /// whatever the CPU — where `gemm` asks the CPU first.
    fn baseline(body: Body, lhs: Lhs<'_>, m: usize, k: usize, b: &[f32], n: usize) -> Matrix {
        let mut out = Matrix::zeros(m, n);
        let epi = Epilogue::default();
        gemm_body(Some(body), lhs, m, k, b, n, &epi, &mut out.data, &mut Scratch::default());
        out
    }

    /// The body the rule picks when it scans both operands, as the public
    /// products do.
    fn rule(lhs: &[f32], rhs: &[f32], n: usize) -> Body {
        pick(n, lhs.len(), || count_zeros(lhs), || all_finite(rhs))
    }

    /// Every (product, body, width) of `a · b` against the scalar
    /// reference, bit for bit: the three public products as the rule
    /// dispatches them, then each product through each body both as
    /// dispatched and as compiled for the build's own target (`matmul_bt`
    /// reading `bᵀ` transposed back by `transpose_into`). The row
    /// body runs on whatever `b` holds, so it is left out when `b` has a
    /// non-finite element, where the rule never takes it.
    fn assert_every_body_matches_the_reference(a: &Matrix, b: &Matrix, case: &str) {
        let (mm, kk, nn) = (a.rows, a.cols, b.cols);
        let (at, bt) = (transpose(a), transpose(b));
        let mut b_again = Vec::new();
        transpose_into(&bt.data, nn, kk, &mut b_again);
        let want = bits(&a.matmul_naive(b));
        let bodies: &[Body] = if b.data.iter().all(|v| v.is_finite()) {
            &[Body::Panels, Body::Rows]
        } else {
            &[Body::Panels]
        };
        for (product, dispatched, lhs, rhs) in [
            ("matmul", a.matmul(b), Lhs::Rows(&a.data), &b.data),
            ("matmul_at", at.matmul_at(b), Lhs::Cols(&at.data), &b.data),
            ("matmul_bt", a.matmul_bt(&bt), Lhs::Rows(&a.data), &b_again),
        ] {
            assert_eq!(bits(&dispatched), want, "{product} {case} diverged from reference");
            for &body in bodies {
                let at_width = bits(&at_width(body, lhs, mm, kk, rhs, nn));
                assert_eq!(
                    at_width, want,
                    "{body:?} body of {product} {case} diverged from reference"
                );
                let at_baseline = bits(&baseline(body, lhs, mm, kk, rhs, nn));
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
        // the head), a scan and a 100-class head; the widest output one
        // strip of the row body holds and one column past it, so a second
        // strip; a row wider than seven panels; the width crossover; one
        // narrower than a tile in every dimension.
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
            (32, 96, 112),
            (32, 96, 113),
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
                assert_eq!(rule(&a.data, &b.data, nn), want, "rule on {case}");
                assert_eq!(rule(&transpose(&a).data, &b.data, nn), want, "rule on {case}, `at`");
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
            assert_eq!(rule(&a.data, &b.data, nn), Body::Panels, "rule with {poison} on the right");
            assert_every_body_matches_the_reference(&a, &b, &format!("{poison} on the right"));
            // Why the rule falls back: the row body skips the zero
            // column of `a` that meets the poison, and loses the NaN.
            let want = a.matmul_naive(&b);
            let rows = baseline(Body::Rows, Lhs::Rows(&a.data), mm, kk, &b.data, nn);
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
            assert_eq!(rule(&a.data, &b.data, nn), Body::Rows, "rule with {poison} on the left");
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
            assert_eq!(baseline(body, Lhs::Rows(&a.data), 2, 0, &b.data, 3), zero);
            assert_eq!(baseline(body, Lhs::Cols(&at.data), 2, 0, &b.data, 3), zero);
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
