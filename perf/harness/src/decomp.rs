//! Outside-in decomposition of `Enld::detect` wall time.
//!
//! The harness cannot see inside `detect`, but the number of times each
//! layer is called per arrival is fixed by the configuration and by the
//! sizes the `DetectionReport` records. Multiplying each layer's probed
//! cost (the same public call, timed alone at that arrival's shape) by
//! its multiplicity predicts where the wall time went; what is left over
//! is `unattributed` (allocation, voting, ledger, checkpoints, drift).

/// Call multiplicities of one arrival, from its config and report.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalShape {
    /// `w`: warm-up epochs.
    pub warmup: usize,
    /// `t`: fine-grained detection iterations.
    pub iterations: usize,
    /// `s`: fine-tune steps (epochs over `C`) per iteration.
    pub steps: usize,
    /// `|C₀|`: rows of the pre-warm-up contrastive set.
    pub contrast0: usize,
    /// `|C|` prepared at the end of each iteration (`report.history`).
    pub contrast_after: Vec<usize>,
}

impl ArrivalShape {
    /// Rows pushed through `Trainer::fit`: warm-up and iteration 0 train
    /// on `C₀`, iteration `i ≥ 1` on the set prepared by iteration `i−1`.
    pub fn train_rows(&self) -> usize {
        let later: usize = self.contrast_after.iter().take(self.iterations.saturating_sub(1)).sum();
        (self.warmup + self.steps) * self.contrast0 + self.steps * later
    }

    /// Full passes of the model over `D`: the initial ambiguity scan, the
    /// pre-warm-up validation, one validation per warm-up epoch, the
    /// P̃-staleness prediction, one vote pass per step, and one refresh
    /// per iteration.
    pub fn scans_of_d(&self) -> usize {
        self.warmup + self.iterations * self.steps + self.iterations + 3
    }

    /// Contrastive selections: one before warm-up, one per iteration.
    pub fn selections(&self) -> usize {
        self.iterations + 1
    }
}

/// Seconds each layer call costs alone, at this arrival's shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeCosts {
    /// `Trainer::fit` seconds per row of `C` (batch 32, no mixup).
    pub fit_s_per_row: f64,
    /// One `proba_and_features` pass over `D`.
    pub scan_d_s: f64,
    /// One `forward_inference` pass over the gathered `I′`.
    pub scan_inv_s: f64,
    /// One `forward_inference` pass over `H ∩ I′`.
    pub scan_h_s: f64,
    /// Building the neighbour index over `H ∩ I′`.
    pub nbr_build_s: f64,
    /// Querying it for the ambiguous samples.
    pub nbr_query_s: f64,
    /// The round-0 selection reuses a persistent index (hnsw backend), so
    /// it neither re-embeds `H` nor builds.
    pub persistent_round0: bool,
}

/// Predicted seconds per component of one `detect` call.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Components {
    pub train_s: f64,
    pub scan_d_s: f64,
    pub scan_inv_s: f64,
    pub neighbour_s: f64,
    pub wall_s: f64,
}

pub fn components(shape: &ArrivalShape, cost: &ProbeCosts, wall_s: f64) -> Components {
    let t = shape.iterations as f64;
    let round0 = if cost.persistent_round0 { 0.0 } else { 1.0 };
    Components {
        train_s: shape.train_rows() as f64 * cost.fit_s_per_row,
        scan_d_s: shape.scans_of_d() as f64 * cost.scan_d_s,
        scan_inv_s: t * (cost.scan_inv_s + cost.scan_h_s) + round0 * cost.scan_h_s,
        neighbour_s: (t + round0) * cost.nbr_build_s + shape.selections() as f64 * cost.nbr_query_s,
        wall_s,
    }
}

impl Components {
    pub fn add(&mut self, other: &Components) {
        self.train_s += other.train_s;
        self.scan_d_s += other.scan_d_s;
        self.scan_inv_s += other.scan_inv_s;
        self.neighbour_s += other.neighbour_s;
        self.wall_s += other.wall_s;
    }

    /// Shares of the wall time; they sum to 1 by construction.
    pub fn shares(&self) -> Shares {
        if self.wall_s <= 0.0 {
            return Shares::default();
        }
        let train = self.train_s / self.wall_s;
        let scan_d = self.scan_d_s / self.wall_s;
        let scan_inv = self.scan_inv_s / self.wall_s;
        let neighbour = self.neighbour_s / self.wall_s;
        Shares {
            train,
            scan_d,
            scan_inv,
            neighbour,
            unattributed: 1.0 - (train + scan_d + scan_inv + neighbour),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Shares {
    pub train: f64,
    pub scan_d: f64,
    pub scan_inv: f64,
    pub neighbour: f64,
    pub unattributed: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> ArrivalShape {
        // w = 2, t = 3, s = 5, |C₀| = 30, then 40 / 50 / 60 rows.
        ArrivalShape {
            warmup: 2,
            iterations: 3,
            steps: 5,
            contrast0: 30,
            contrast_after: vec![40, 50, 60],
        }
    }

    #[test]
    fn multiplicities_follow_the_algorithm() {
        let s = shape();
        // (2 + 5)·30 + 5·(40 + 50); the set prepared by the last
        // iteration is never trained on.
        assert_eq!(s.train_rows(), 210 + 450);
        assert_eq!(s.scans_of_d(), 2 + 15 + 3 + 3);
        assert_eq!(s.selections(), 4);
    }

    #[test]
    fn shares_sum_to_one_on_a_hand_made_report() {
        let cost = ProbeCosts {
            fit_s_per_row: 0.001,
            scan_d_s: 0.002,
            scan_inv_s: 0.010,
            scan_h_s: 0.004,
            nbr_build_s: 0.003,
            nbr_query_s: 0.001,
            persistent_round0: false,
        };
        let c = components(&shape(), &cost, 1.0);
        assert!((c.train_s - 0.660).abs() < 1e-12);
        assert!((c.scan_d_s - 0.046).abs() < 1e-12);
        assert!((c.scan_inv_s - (3.0 * 0.014 + 0.004)).abs() < 1e-12);
        assert!((c.neighbour_s - (4.0 * 0.003 + 4.0 * 0.001)).abs() < 1e-12);
        let s = c.shares();
        let sum = s.train + s.scan_d + s.scan_inv + s.neighbour + s.unattributed;
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((s.unattributed - (1.0 - 0.660 - 0.046 - 0.046 - 0.016)).abs() < 1e-12);

        // A persistent round-0 index drops one H embedding and one build.
        let warm = components(&shape(), &ProbeCosts { persistent_round0: true, ..cost }, 1.0);
        assert!((c.scan_inv_s - warm.scan_inv_s - 0.004).abs() < 1e-12);
        assert!((c.neighbour_s - warm.neighbour_s - 0.003).abs() < 1e-12);

        let mut total = c;
        total.add(&c);
        assert_eq!(total.shares(), c.shares());
        assert_eq!(Components::default().shares(), Shares::default());
    }
}
