//! Order statistics and the verdict hash.

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (need not be
/// sorted). `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median; `0.0` when empty (callers report `n` beside every median).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [u32; 5] = [99, 95, 90, 80, 75];

/// The highest of the fixed tail percentiles that still has at least ten
/// samples beyond it among `n` samples; `None` when even p75 does not —
/// then only the median is reported.
pub fn supported_tail_percentile(n: usize) -> Option<u32> {
    TAIL_PERCENTILES.into_iter().find(|&p| n * (100 - p as usize) >= 10 * 100)
}

/// `(percentile, value)` of the tail [`supported_tail_percentile`] allows.
pub fn tail(values: &[f64]) -> Option<(u32, f64)> {
    let p = supported_tail_percentile(values.len())?;
    Some((p, quantile(values, f64::from(p) / 100.0)?))
}

/// Incremental FNV-1a (64-bit) over the verdicts of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hashes one arrival's verdicts: its index, then the noisy set.
    pub fn write_verdicts(&mut self, arrival: usize, samples: usize, noisy: &[usize]) {
        self.write_u64(arrival as u64);
        self.write_u64(samples as u64);
        self.write_u64(noisy.len() as u64);
        for &i in noisy {
            self.write_u64(i as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond_the_percentile() {
        assert_eq!(supported_tail_percentile(0), None);
        assert_eq!(supported_tail_percentile(39), None);
        assert_eq!(supported_tail_percentile(40), Some(75));
        assert_eq!(supported_tail_percentile(50), Some(80));
        assert_eq!(supported_tail_percentile(99), Some(80));
        assert_eq!(supported_tail_percentile(100), Some(90));
        assert_eq!(supported_tail_percentile(199), Some(90));
        assert_eq!(supported_tail_percentile(200), Some(95));
        assert_eq!(supported_tail_percentile(1000), Some(99));
        // Fewer than 40 samples: median only.
        assert!(tail(&[1.0; 20]).is_none());
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        let (p, x) = tail(&v).unwrap();
        assert_eq!(p, 95);
        assert!((x - 189.05).abs() < 1e-9);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0], 1.0), Some(2.0));
    }

    #[test]
    fn verdict_hash_depends_on_order_and_content() {
        let mut a = Fnv::default();
        a.write_verdicts(0, 10, &[1, 2]);
        let mut b = Fnv::default();
        b.write_verdicts(0, 10, &[2, 1]);
        let mut c = Fnv::default();
        c.write_verdicts(0, 10, &[1, 2]);
        assert_ne!(a, b);
        assert_eq!(a, c);
    }
}
