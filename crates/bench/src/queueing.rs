//! Discrete-event queueing simulation of the detection service.
//!
//! The paper motivates ENLD with platforms that "receive a large number of
//! continuous noisy label detection tasks" (§I, challenge 2) and defines
//! *process time* as the waiting time to obtain results (§V-A3). This
//! module turns that motivation into a measurable system property: one
//! detection worker serving Poisson arrivals in FIFO order (an M/G/1
//! queue), fed with the per-dataset service times actually measured for
//! each method. A deployment is *sustainable* at arrival rate λ iff its
//! mean service time keeps utilisation `ρ = λ·E[S] < 1`; past that point
//! the backlog diverges — which is exactly the regime separating ENLD
//! from Topofilter.

use std::cmp::Ordering as CmpOrdering;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of simulating one method under one arrival rate.
#[derive(Debug, Clone)]
pub struct QueueStats {
    /// Arrival rate λ (requests per second).
    pub arrival_rate: f64,
    /// Mean service time `E[S]` of the supplied samples (seconds).
    pub mean_service_secs: f64,
    /// Offered utilisation `ρ = λ·E[S]`.
    pub utilisation: f64,
    /// Mean time from arrival to completion (waiting + service).
    pub mean_sojourn_secs: f64,
    /// 95th-percentile sojourn time.
    pub p95_sojourn_secs: f64,
    /// Largest number of requests in the system at once.
    pub max_queue_len: usize,
    /// Requests still queued when the simulation ended (a diverging
    /// backlog shows up here).
    pub backlog: usize,
    /// Requests completed within the horizon.
    pub completed: usize,
}

impl QueueStats {
    /// Whether the service kept up: sub-critical utilisation and no
    /// residual backlog growth beyond a handful of requests.
    pub fn is_stable(&self) -> bool {
        self.utilisation < 1.0 && self.backlog <= 2 + self.completed / 10
    }
}

/// Simulates a single-worker FIFO queue over `horizon_secs` — the
/// paper's deployment shape.
///
/// * `arrival_rate` — Poisson arrival intensity λ (requests/second);
/// * `service_secs` — empirical per-request service times, cycled through
///   in order (use the measured process times of a detector);
/// * `seed` — for the exponential inter-arrival draws.
///
/// # Panics
/// Panics if `service_secs` is empty or contains a non-positive time.
pub fn simulate_queue(
    arrival_rate: f64,
    service_secs: &[f64],
    horizon_secs: f64,
    seed: u64,
) -> QueueStats {
    assert!(!service_secs.is_empty(), "need at least one service-time sample");
    assert!(service_secs.iter().all(|&s| s > 0.0), "service times must be positive");
    assert!(arrival_rate > 0.0 && horizon_secs > 0.0);
    let mut rng = StdRng::seed_from_u64(seed);

    // Generate arrivals over the horizon.
    let mut arrivals = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / arrival_rate;
        if t > horizon_secs {
            break;
        }
        arrivals.push(t);
    }

    let mut sojourns = Vec::new();
    let mut completions: Vec<f64> = Vec::with_capacity(arrivals.len());
    // Lindley recursion: each job starts when it arrives or when the
    // previous one finishes, whichever is later.
    let mut prev_done = 0.0f64;
    for (i, &arrival) in arrivals.iter().enumerate() {
        let start = arrival.max(prev_done);
        let done = start + service_secs[i % service_secs.len()];
        prev_done = done;
        completions.push(done);
        if done <= horizon_secs {
            sojourns.push(done - arrival);
        }
    }

    let completed = completions.iter().filter(|&&c| c <= horizon_secs).count();
    let backlog = arrivals.len() - completed;

    // Max jobs in system: sweep arrival/completion events.
    let mut events: Vec<(f64, i64)> = arrivals.iter().map(|&a| (a, 1i64)).collect();
    events.extend(completions.iter().filter(|&&c| c <= horizon_secs).map(|&c| (c, -1i64)));
    events.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap_or(CmpOrdering::Equal)
            // Completions before arrivals at identical timestamps.
            .then(a.1.cmp(&b.1))
    });
    let mut queue = 0i64;
    let mut max_queue = 0i64;
    for (_, delta) in events {
        queue += delta;
        max_queue = max_queue.max(queue);
    }

    sojourns.sort_by(|a, b| a.partial_cmp(b).unwrap_or(CmpOrdering::Equal));
    let mean_service = service_secs.iter().sum::<f64>() / service_secs.len() as f64;
    let mean_sojourn = if sojourns.is_empty() {
        0.0
    } else {
        sojourns.iter().sum::<f64>() / sojourns.len() as f64
    };
    let p95 = if sojourns.is_empty() {
        0.0
    } else {
        sojourns[((sojourns.len() as f64 * 0.95) as usize).min(sojourns.len() - 1)]
    };

    QueueStats {
        arrival_rate,
        mean_service_secs: mean_service,
        utilisation: arrival_rate * mean_service,
        mean_sojourn_secs: mean_sojourn,
        p95_sojourn_secs: p95,
        max_queue_len: max_queue as usize,
        backlog,
        completed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subcritical_queue_is_stable() {
        // E[S] = 1s, λ = 0.5/s → ρ = 0.5.
        let stats = simulate_queue(0.5, &[1.0], 2_000.0, 1);
        assert!(stats.utilisation < 0.6);
        assert!(stats.is_stable(), "{stats:?}");
        assert!(stats.mean_sojourn_secs >= 1.0, "sojourn includes service");
        assert!(stats.mean_sojourn_secs < 5.0, "sub-critical queues stay short");
    }

    #[test]
    fn supercritical_queue_diverges() {
        // E[S] = 1s, λ = 2/s → ρ = 2: backlog grows linearly.
        let stats = simulate_queue(2.0, &[1.0], 1_000.0, 2);
        assert!(stats.utilisation > 1.5);
        assert!(!stats.is_stable());
        assert!(
            stats.backlog > stats.completed / 2,
            "supercritical backlog must be large: {stats:?}"
        );
    }

    #[test]
    fn faster_service_sustains_higher_rates() {
        let rates = [0.2, 0.5, 1.0, 2.0, 4.0];
        let max_stable = |service: f64| {
            rates
                .into_iter()
                .rev()
                .find(|&rate| simulate_queue(rate, &[service], 2_000.0, 3).is_stable())
                .expect("stable somewhere")
        };
        let (fast, slow) = (max_stable(0.3), max_stable(1.4));
        assert!(
            fast > slow,
            "a 4.7x faster service must sustain a higher arrival rate ({fast} vs {slow})"
        );
    }

    #[test]
    fn sojourn_grows_with_utilisation() {
        let low = simulate_queue(0.2, &[1.0], 3_000.0, 4);
        let high = simulate_queue(0.9, &[1.0], 3_000.0, 4);
        assert!(
            high.mean_sojourn_secs > low.mean_sojourn_secs,
            "queueing delay must grow with load ({} vs {})",
            high.mean_sojourn_secs,
            low.mean_sojourn_secs
        );
        assert!(high.p95_sojourn_secs >= high.mean_sojourn_secs);
    }

    #[test]
    fn service_times_cycle_through_samples() {
        let stats = simulate_queue(0.1, &[0.5, 1.5], 5_000.0, 5);
        assert!((stats.mean_service_secs - 1.0).abs() < 1e-9);
        assert!(stats.completed > 100);
    }

    #[test]
    #[should_panic(expected = "at least one service-time sample")]
    fn empty_service_times_rejected() {
        let _ = simulate_queue(1.0, &[], 10.0, 1);
    }

    #[test]
    #[should_panic(expected = "service times must be positive")]
    fn nonpositive_service_time_rejected() {
        let _ = simulate_queue(1.0, &[1.0, 0.0], 10.0, 1);
    }

    #[test]
    fn no_arrivals_within_horizon() {
        // λ·T = 1e-6: the first exponential draw lands far past the
        // horizon, so the simulation sees an empty request stream.
        let stats = simulate_queue(1e-6, &[1.0], 1.0, 6);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.backlog, 0);
        assert_eq!(stats.max_queue_len, 0);
        assert_eq!(stats.mean_sojourn_secs, 0.0);
        assert_eq!(stats.p95_sojourn_secs, 0.0);
        assert!(stats.is_stable(), "an idle queue is trivially stable");
    }

    #[test]
    fn single_request_sojourn_includes_full_service() {
        // λ·T = 0.25·8 = 2 expected arrivals; whatever arrives must wait
        // at least one full service time, and the single-sample mean is
        // exact.
        let stats = simulate_queue(0.25, &[2.0], 8.0, 7);
        assert!((stats.mean_service_secs - 2.0).abs() < 1e-12);
        assert!((stats.utilisation - 0.5).abs() < 1e-12);
        if stats.completed > 0 {
            assert!(stats.mean_sojourn_secs >= 2.0, "{stats:?}");
        }
    }

    #[test]
    fn stability_threshold_edges() {
        let base = QueueStats {
            arrival_rate: 1.0,
            mean_service_secs: 0.5,
            utilisation: 0.5,
            mean_sojourn_secs: 1.0,
            p95_sojourn_secs: 2.0,
            max_queue_len: 3,
            backlog: 0,
            completed: 100,
        };
        // Backlog exactly at the allowance (2 + completed/10) is stable …
        let at_allowance = QueueStats { backlog: 12, ..base.clone() };
        assert!(at_allowance.is_stable());
        // … one more request is not.
        let over = QueueStats { backlog: 13, ..base.clone() };
        assert!(!over.is_stable());
        // Critical utilisation (ρ = 1) is unstable even with no backlog.
        let critical = QueueStats { utilisation: 1.0, ..base };
        assert!(!critical.is_stable());
    }
}
