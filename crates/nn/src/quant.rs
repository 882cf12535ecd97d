//! Int8 inference kernel — measured, not wired into the detector.
//!
//! Weights are quantized **per output row** with symmetric absmax
//! scales (`scale = max|w|/127`, zero-point 0); activations are
//! quantized per batch row the same way at call time. The i8×i8 dot
//! product accumulates in `i32` — exact, since `127·127·in_dim` stays
//! far below `i32::MAX` for every architecture preset — and the result
//! is rescaled to f32 once per output element. ReLU, residual adds,
//! bias, and softmax all stay in f32.
//!
//! Because the integer dot is associative and every f32 op is
//! element-wise, quantized inference is bit-identical across
//! `ENLD_THREADS` settings just like the f32 kernels. It is *not*
//! bit-identical to f32 inference.
//!
//! Not wired into the detector: the benchmark ledger shows no axis the
//! int8 scans win on (DESIGN.md §13). [`QuantizedMlp::from_mlp`],
//! [`QuantizedMlp::proba_and_features`] and
//! [`QuantizedMlp::forward_inference`] stay only because `perf/harness`
//! probes them (`nn.quant_*`); removing them belongs to a benchmark PR
//! that may edit `perf/`.

use crate::arch::Connectivity;
use crate::data::DataRef;
use crate::dense::Dense;
use crate::loss::softmax_inplace;
use crate::matrix::Matrix;
use crate::model::{for_each_chunk, Mlp};

/// Quantizes `values` symmetrically to i8 with an absmax scale.
/// Returns the scale; an all-zero input gets scale 0 and all-zero codes.
///
/// Rounding is ties-to-even: unlike `f32::round` (ties away from zero,
/// which has no single-instruction SIMD lowering on x86), it compiles to
/// a vectorizable rounding op, and activation quantization runs on every
/// layer boundary so this loop is on the inference hot path.
pub fn quantize_row(values: &[f32], out: &mut [i8]) -> f32 {
    debug_assert_eq!(values.len(), out.len());
    let absmax = values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    if absmax == 0.0 {
        out.iter_mut().for_each(|q| *q = 0);
        return 0.0;
    }
    let scale = absmax / 127.0;
    let inv = 127.0 / absmax;
    for (q, &v) in out.iter_mut().zip(values) {
        *q = (v * inv).round_ties_even().clamp(-127.0, 127.0) as i8;
    }
    scale
}

/// Quantizes into widened 16-bit storage. The codes are identical to
/// [`quantize_row`]'s (they never leave ±127); they are stored as `i16`
/// because x86 has a single-instruction 16-bit multiply-accumulate
/// (`pmaddwd`) that LLVM reliably vectorizes the dot-product reduction
/// into, whereas `i8` operands force extra widening shuffles.
fn quantize_row_wide(values: &[f32], out: &mut [i16]) -> f32 {
    debug_assert_eq!(values.len(), out.len());
    let absmax = values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    if absmax == 0.0 {
        out.iter_mut().for_each(|q| *q = 0);
        return 0.0;
    }
    let scale = absmax / 127.0;
    let inv = 127.0 / absmax;
    for (q, &v) in out.iter_mut().zip(values) {
        *q = (v * inv).round_ties_even().clamp(-127.0, 127.0) as i16;
    }
    scale
}

/// A dense layer frozen to int8: transposed weights (`out_dim × in_dim`,
/// so each output's dot product reads one contiguous row) plus per-row
/// scales and the original f32 bias. Codes are int8-valued but stored
/// widened (see `quantize_row_wide`).
///
/// The dot stays in reduction form on purpose: `i32` addition is
/// associative, so LLVM reassociates and vectorizes the loop into
/// multiply-add lanes — the same trick is impossible for f32
/// reductions, which is why the f32 kernel needs packed panels and
/// explicit register tiles instead.
#[derive(Clone)]
pub struct QuantizedDense {
    wt: Vec<i16>,
    w_scales: Vec<f32>,
    b: Vec<f32>,
    in_dim: usize,
    out_dim: usize,
}

impl QuantizedDense {
    /// Quantizes a trained layer. The f32 layer is left untouched.
    pub fn from_dense(d: &Dense) -> Self {
        let (w, b, ..) = d.parts();
        let (in_dim, out_dim) = (d.in_dim(), d.out_dim());
        let mut wt = vec![0i16; out_dim * in_dim];
        let mut w_scales = vec![0.0f32; out_dim];
        let mut col = vec![0.0f32; in_dim];
        for o in 0..out_dim {
            for (i, c) in col.iter_mut().enumerate() {
                *c = w.data()[i * out_dim + o];
            }
            w_scales[o] = quantize_row_wide(&col, &mut wt[o * in_dim..(o + 1) * in_dim]);
        }
        Self { wt, w_scales, b: b.to_vec(), in_dim, out_dim }
    }

    /// `y = quant(x) · Wᵀ_int8`, rescaled to f32 with the bias added.
    /// Activations are quantized per batch row on entry. An all-zero row
    /// quantizes to all-zero codes, so its output is exactly the bias.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.in_dim, "quantized dense input-dim mismatch");
        let (n, k) = (x.rows(), self.in_dim);
        let mut out = Matrix::zeros(n, self.out_dim);
        let od = out.data_mut();
        let mut xq = vec![0i16; k];
        let mut acc = vec![0i32; self.out_dim];
        for r in 0..n {
            let sxr = quantize_row_wide(x.row(r), &mut xq);
            gemv_i16(&xq, &self.wt, k, &mut acc);
            let orow = &mut od[r * self.out_dim..(r + 1) * self.out_dim];
            for (dst, ((&a, &bias), &ws)) in
                orow.iter_mut().zip(acc.iter().zip(&self.b).zip(&self.w_scales))
            {
                *dst = bias + sxr * ws * a as f32;
            }
        }
        out
    }
}

/// `acc[o] = Σ_kk xq[kk]·wt[o·k + kk]` for every output `o`.
///
/// Every product and sum is exact in `i32` (codes are ±127, so even
/// `k = 2^15` keeps the total far from overflow), which means the SIMD
/// and scalar paths below return identical bits no matter how the adds
/// are grouped — runtime dispatch cannot introduce nondeterminism.
#[allow(unsafe_code)]
fn gemv_i16(xq: &[i16], wt: &[i16], k: usize, acc: &mut [i32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: guarded by the runtime AVX2 check above.
        unsafe { gemv_i16_avx2(xq, wt, k, acc) };
        return;
    }
    gemv_i16_scalar(xq, wt, k, acc);
}

fn gemv_i16_scalar(xq: &[i16], wt: &[i16], k: usize, acc: &mut [i32]) {
    for (a, wrow) in acc.iter_mut().zip(wt.chunks_exact(k)) {
        *a = xq.iter().zip(wrow).map(|(&x, &w)| x as i32 * w as i32).sum();
    }
}

/// Four weight rows share each activation load, and `vpmaddwd` retires
/// 16 multiply-adds per instruction — the reason the codes are widened
/// to `i16` at quantization time.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
unsafe fn gemv_i16_avx2(xq: &[i16], wt: &[i16], k: usize, acc: &mut [i32]) {
    use std::arch::x86_64::*;

    let m = acc.len();
    debug_assert_eq!(wt.len(), m * k);
    debug_assert_eq!(xq.len(), k);
    let chunks = k / 16;
    let xp = xq.as_ptr();
    let mut o = 0;
    while o + 4 <= m {
        let rows = [
            wt.as_ptr().add(o * k),
            wt.as_ptr().add((o + 1) * k),
            wt.as_ptr().add((o + 2) * k),
            wt.as_ptr().add((o + 3) * k),
        ];
        let mut lanes = [_mm256_setzero_si256(); 4];
        for c in 0..chunks {
            let xv = _mm256_loadu_si256(xp.add(c * 16).cast());
            for (lane, row) in lanes.iter_mut().zip(rows) {
                let wv = _mm256_loadu_si256(row.add(c * 16).cast());
                *lane = _mm256_add_epi32(*lane, _mm256_madd_epi16(xv, wv));
            }
        }
        // Transposed reduction: two hadd rounds interleave the four
        // accumulators into one vector whose low half holds the four
        // low-lane sums and high half the four high-lane sums; one
        // 128-bit add finishes all four dot products at once.
        let r01 = _mm256_hadd_epi32(lanes[0], lanes[1]);
        let r23 = _mm256_hadd_epi32(lanes[2], lanes[3]);
        let r = _mm256_hadd_epi32(r01, r23);
        let mut sums = [0i32; 4];
        _mm_storeu_si128(
            sums.as_mut_ptr().cast(),
            _mm_add_epi32(_mm256_castsi256_si128(r), _mm256_extracti128_si256(r, 1)),
        );
        for (ri, mut sum) in sums.into_iter().enumerate() {
            for i in chunks * 16..k {
                sum += *xq.get_unchecked(i) as i32 * *rows[ri].add(i) as i32;
            }
            acc[o + ri] = sum;
        }
        o += 4;
    }
    if o < m {
        gemv_i16_scalar(&xq[..k], &wt[o * k..], k, &mut acc[o..]);
    }
}

/// One residual block with both dense layers frozen to int8.
#[derive(Clone)]
struct QuantizedBlock {
    d1: QuantizedDense,
    d2: QuantizedDense,
    uses_global_skip: bool,
}

impl QuantizedBlock {
    fn forward(&self, x: &Matrix, global_skip: Option<&Matrix>) -> Matrix {
        let mut h = self.d1.forward(x);
        h.relu();
        let mut y = self.d2.forward(&h);
        y.add_assign(x);
        if self.uses_global_skip {
            let g = global_skip.expect("dense connectivity requires the embedding output");
            y.add_assign(g);
        }
        y.relu();
        y
    }
}

/// An [`Mlp`] snapshot frozen to int8 for inference. Holds no training
/// state; the source model stays authoritative for checkpoints.
#[derive(Clone)]
pub struct QuantizedMlp {
    classes: usize,
    width: usize,
    embed: QuantizedDense,
    blocks: Vec<QuantizedBlock>,
    head: QuantizedDense,
}

impl QuantizedMlp {
    /// Quantizes every dense layer of a trained model.
    pub fn from_mlp(model: &Mlp) -> Self {
        let config = model.config();
        let uses_global_skip = config.connectivity == Connectivity::DenselyConnected;
        let mut layers = model.layers().iter().map(QuantizedDense::from_dense);
        let mut next = || layers.next().expect("embed, two layers per block, head");
        Self {
            classes: config.classes,
            width: config.width,
            embed: next(),
            blocks: (0..config.blocks)
                .map(|_| QuantizedBlock { d1: next(), d2: next(), uses_global_skip })
                .collect(),
            head: next(),
        }
    }

    /// Inference forward pass: `(features, logits)`, mirroring
    /// [`Mlp::forward_inference`].
    pub fn forward_inference(&self, x: &Matrix) -> (Matrix, Matrix) {
        let mut h = self.embed.forward(x);
        h.relu();
        let embed_out = h.clone();
        for block in &self.blocks {
            h = block.forward(&h, Some(&embed_out));
        }
        let logits = self.head.forward(&h);
        (h, logits)
    }

    /// Confidences and penultimate features in one pass, mirroring
    /// [`Mlp::proba_and_features`].
    pub fn proba_and_features(&self, data: DataRef<'_>) -> (Matrix, Matrix) {
        let mut probs = Matrix::zeros(data.len(), self.classes);
        let mut feats = Matrix::zeros(data.len(), self.width);
        for_each_chunk(
            data,
            |x| self.forward_inference(x),
            |start, (f, mut logits)| {
                softmax_inplace(&mut logits);
                for r in 0..logits.rows() {
                    probs.row_mut(start + r).copy_from_slice(logits.row(r));
                    feats.row_mut(start + r).copy_from_slice(f.row(r));
                }
            },
        );
        (probs, feats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchPreset;
    use crate::model::argmax;

    fn toy_data() -> (Vec<f32>, Vec<u32>) {
        let mut xs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..120 {
            let c = i % 3;
            let base = [c as f32 * 3.0, -(c as f32) * 2.0, 1.0 + c as f32, 0.5];
            let jitter = (i as f32 * 0.37).sin() * 0.1;
            for b in base {
                xs.push(b + jitter);
            }
            labels.push(c as u32);
        }
        (xs, labels)
    }

    #[test]
    fn round_trip_error_is_bounded_by_half_a_step() {
        let values = [0.75f32, -1.5, 0.0, 2.25, -0.001, 1.9999];
        let mut q = [0i8; 6];
        let scale = quantize_row(&values, &mut q);
        let absmax = 2.25f32;
        assert!((scale - absmax / 127.0).abs() < 1e-7);
        for (&v, &code) in values.iter().zip(&q) {
            let back = code as f32 * scale;
            assert!(
                (back - v).abs() <= scale * 0.5 + 1e-6,
                "dequant({code}) = {back} too far from {v}"
            );
        }
    }

    #[test]
    fn zero_rows_quantize_to_zero_scale() {
        let mut q = [7i8; 4];
        assert_eq!(quantize_row(&[0.0; 4], &mut q), 0.0);
        assert_eq!(q, [0; 4]);
    }

    #[test]
    fn quantized_proba_tracks_f32_and_agrees_on_labels() {
        let cfg = ArchPreset::tiny().config(4, 3);
        let model = Mlp::new(&cfg, 11);
        let (xs, labels) = toy_data();
        let data = DataRef::new(&xs, &labels, 4);
        let q = QuantizedMlp::from_mlp(&model);

        let pf = model.predict_proba(data);
        let (pq, _) = q.proba_and_features(data);
        assert_eq!((pq.rows(), pq.cols()), (pf.rows(), pf.cols()));
        for (a, b) in pf.data().iter().zip(pq.data()) {
            assert!((a - b).abs() < 0.05, "proba drifted: {a} vs {b}");
        }
        // On an untrained model ties are decided by tiny margins; labels
        // still have to agree on the overwhelming majority of rows.
        let agree = (0..pf.rows()).filter(|&r| argmax(pf.row(r)) == argmax(pq.row(r))).count();
        assert!(agree * 10 >= pf.rows() * 9, "agreement {agree}/{}", pf.rows());
    }

    /// The dispatcher may pick the AVX2 kernel at runtime; whatever it
    /// chose must return the exact bits of the portable scalar loop
    /// (integer accumulation is associative, so this is an equality
    /// check, not a tolerance check).
    #[test]
    fn gemv_dispatch_matches_scalar_exactly() {
        for (m, k) in [(1, 1), (3, 7), (4, 16), (5, 33), (17, 93), (8, 256)] {
            let xq: Vec<i16> = (0..k).map(|i| ((i * 37 + 11) % 255) as i16 - 127).collect();
            let wt: Vec<i16> = (0..m * k).map(|i| ((i * 53 + 29) % 255) as i16 - 127).collect();
            let mut scalar = vec![0i32; m];
            let mut dispatched = vec![0i32; m];
            gemv_i16_scalar(&xq, &wt, k, &mut scalar);
            gemv_i16(&xq, &wt, k, &mut dispatched);
            assert_eq!(scalar, dispatched, "m={m} k={k}");
        }
    }

    #[test]
    fn quantized_inference_is_bit_identical_across_thread_counts() {
        let cfg = ArchPreset::tiny().config(4, 3);
        let model = Mlp::new(&cfg, 5);
        let (xs, labels) = toy_data();
        let data = DataRef::new(&xs, &labels, 4);
        let q = QuantizedMlp::from_mlp(&model);
        let base = enld_par::with_threads(1, || q.proba_and_features(data));
        for threads in [2, 8] {
            let par = enld_par::with_threads(threads, || q.proba_and_features(data));
            assert_eq!(par.0.data(), base.0.data(), "probs threads={threads}");
            assert_eq!(par.1.data(), base.1.data(), "feats threads={threads}");
        }
    }
}
