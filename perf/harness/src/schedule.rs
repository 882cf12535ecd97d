//! The open-loop arrival schedule: when each job is *due*, fixed before
//! the run starts so a slow system cannot slow its own load down.

/// splitmix64 — the harness's only random source, so the schedule does
/// not depend on any crate's RNG.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Due times (seconds from the start of the timed section) of a
/// jittered periodic arrival process: job `j` is due at a seeded uniform
/// point of the `j`-th period of length `1 / rate_hz`. A pure function of
/// its arguments.
///
/// Gaps range from 0 to two periods, so jobs do bunch up and queue, but
/// the number of jobs per run is fixed. A Poisson process at the job
/// counts a 15 s run allows (≈30) varies its count by ±20 % and its
/// queueing far more, which made every serve metric too unsteady to
/// bound.
pub fn jittered_schedule(seed: u64, rate_hz: f64, horizon_s: f64) -> Vec<f64> {
    assert!(rate_hz > 0.0 && horizon_s > 0.0, "rate and horizon must be positive");
    let mut rng = SplitMix(seed ^ 0x5343_4845_4455_4C45);
    let period = 1.0 / rate_hz;
    let jobs = ((horizon_s * rate_hz).floor() as usize).max(1);
    (0..jobs).map(|j| (j as f64 + rng.unit()) * period).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_seed_and_rate() {
        let a = jittered_schedule(7, 5.0, 30.0);
        assert_eq!(a, jittered_schedule(7, 5.0, 30.0));
        assert_ne!(a, jittered_schedule(8, 5.0, 30.0));
        assert_ne!(a, jittered_schedule(7, 6.0, 30.0));
        // The same uniform draws scale with the period.
        let slow = jittered_schedule(7, 2.5, 60.0);
        assert_eq!(slow.len(), a.len());
        assert!(slow.iter().zip(&a).all(|(s, f)| (s - 2.0 * f).abs() < 1e-9));
    }

    #[test]
    fn schedule_is_ordered_bounded_and_holds_one_job_per_period() {
        let due = jittered_schedule(3, 20.0, 100.0);
        assert_eq!(due.len(), 2000);
        assert!(due.windows(2).all(|w| w[0] < w[1]));
        assert!(due
            .iter()
            .enumerate()
            .all(|(j, &t)| t >= j as f64 / 20.0 && t < (j + 1) as f64 / 20.0));
        assert!(due.windows(2).any(|w| w[1] - w[0] < 0.025), "some jobs bunch up");
        assert_eq!(jittered_schedule(1, 0.001, 0.5).len(), 1);
    }
}
