//! The local-threshold algorithm of Censor-Hillel et al. \[10\]
//! (paper §1.1.1) for `C_{2k}`-freeness, `k ∈ {2, 3, 4, 5}`.
//!
//! Each attempt selects one source `s` uniformly at random; the neighbors
//! of `s` colored 0 launch a colored BFS with a *constant* threshold
//! `τ_k`. The key lemma of \[10\] — valid only for `k ≤ 5` — says a
//! constant fraction of sources either lie on a `2k`-cycle or never push
//! any node past `τ_k`, so each attempt costs `O(k·τ_k)` rounds and
//! `O(n^{1-1/k})` attempts suffice. Fraigniaud–Luce–Todinca \[23\] showed
//! the *local* threshold cannot work for `k ≥ 6`; the constructor
//! enforces the `k ≤ 5` restriction accordingly.

use congest_graph::{Graph, NodeId};
use congest_sim::derive_seed;
use even_cycle::{
    random_coloring, Budget, Descriptor, DetectResult, Detector, EvenCall, EvenRun, EvenRunOutcome,
    Model, Target,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The \[10\] local-threshold `C_{2k}` detector, `k ∈ {2,…,5}`.
///
/// ```
/// use congest_graph::generators;
/// use congest_baselines::censor_hillel::LocalThresholdDetector;
/// use even_cycle::Budget;
/// let host = generators::random_tree(40, 3);
/// let (g, _) = generators::plant_cycle(&host, 4, 3);
/// let det = LocalThresholdDetector::new(2);
/// let found = (0..6).any(|seed| det.run(&g, seed, &Budget::classical()).rejected());
/// assert!(found);
/// ```
#[derive(Debug, Clone)]
pub struct LocalThresholdDetector {
    k: usize,
    /// The constant threshold `τ_k`.
    tau: u64,
    /// Cap on the number of attempts (the theory wants
    /// `Θ(n^{1-1/k}·(2k)^{2k})`; experiments scale this).
    attempt_factor: f64,
    max_attempts: u64,
}

impl LocalThresholdDetector {
    /// Creates the detector for `C_{2k}`.
    ///
    /// # Panics
    ///
    /// Panics unless `k ∈ {2, 3, 4, 5}` — the local-threshold lemma of
    /// \[10\] does not hold beyond `k = 5` \[23\].
    pub fn new(k: usize) -> Self {
        assert!(
            (2..=5).contains(&k),
            "the local threshold technique only works for k in 2..=5 [23]"
        );
        LocalThresholdDetector {
            k,
            tau: 16,
            attempt_factor: 8.0,
            max_attempts: 4096,
        }
    }

    /// Overrides the constant threshold `τ_k`.
    pub fn with_tau(mut self, tau: u64) -> Self {
        self.tau = tau.max(1);
        self
    }

    /// Overrides the attempt budget: `factor · n^{1-1/k}` attempts,
    /// capped at `max`.
    pub fn with_attempts(mut self, factor: f64, max: u64) -> Self {
        assert!(factor > 0.0);
        self.attempt_factor = factor;
        self.max_attempts = max.max(1);
        self
    }

    /// The attempt budget of a run on an `n`-vertex graph under
    /// `budget`: `factor · n^{1-1/k}` attempts, capped at the configured
    /// maximum or, since the \[10\] outer loop counts attempts, at the
    /// budget's repetition override.
    pub fn attempts_for(&self, n: usize, budget: &Budget) -> u64 {
        let max = budget
            .repetitions
            .map_or(self.max_attempts, |r| (r as u64).max(1));
        let want = (self.attempt_factor * (n as f64).powf(1.0 - 1.0 / self.k as f64)).ceil() as u64;
        want.clamp(1, max)
    }

    /// Runs the detector on `g` with randomness from `seed`, one
    /// [`EvenRun`] call per attempt, for the budget's attempts
    /// ([`LocalThresholdDetector::attempts_for`]): each call is
    /// simulated on the budget's backend and charged at its bandwidth,
    /// a binding cap stops the attempt loop (flagging the outcome) and a
    /// rejection stops it unless [`Budget::run_to_budget`]. The
    /// outcome's `iterations` counts attempts.
    pub fn run(&self, g: &Graph, seed: u64, budget: &Budget) -> EvenRunOutcome {
        let n = g.node_count();
        let k = self.k;
        let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(seed, 0x10CA1));
        let all = vec![true; n];
        let mut run = EvenRun::new(g, k, budget);
        for attempt in 0..self.attempts_for(n, budget) {
            // One uniformly random source; its neighbors form X.
            let s = NodeId::new(rng.gen_range(0..n as u32));
            let mut x_mask = vec![false; n];
            for &u in g.neighbors(s) {
                x_mask[u.index()] = true;
            }
            let colors = random_coloring(n, 2 * k, derive_seed(seed, 0x5000 + attempt));
            let call = EvenCall {
                iteration: attempt + 1,
                colors: &colors,
                h_mask: &all,
                x_mask: &x_mask,
                activation: None,
                tau: self.tau,
                seed: derive_seed(seed, 0x6000 + attempt),
            };
            if run.visit(&call).is_break() {
                break;
            }
        }
        run.finish()
    }
}

impl Detector for LocalThresholdDetector {
    fn descriptor(&self) -> Descriptor {
        Descriptor {
            name: "local-threshold sampling",
            reference: "[10]",
            model: Model::Classical,
            target: Target::Even { k: self.k },
            exponent: even_cycle::theory::Table1Row::CensorHillelEven.exponent(self.k),
            table1: Some(even_cycle::theory::Table1Row::CensorHillelEven),
        }
    }

    fn detect(&self, g: &Graph, seed: u64, budget: &Budget) -> DetectResult {
        let outcome = self.run(g, seed, budget);
        Ok(budget.enforce(outcome.into_detection(self.descriptor())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;

    #[test]
    fn finds_planted_c4() {
        let host = generators::random_tree(40, 3);
        let (g, _) = generators::plant_cycle(&host, 4, 3);
        let det = LocalThresholdDetector::new(2);
        let found = (0..6).any(|seed| {
            let o = det.run(&g, seed, &Budget::classical());
            if let Some(w) = &o.witness {
                assert_eq!(w.len(), 4);
                assert!(w.is_valid(&g));
            }
            o.rejected()
        });
        assert!(found, "local threshold never found the planted C4");
    }

    #[test]
    fn soundness_on_c4_free() {
        let det = LocalThresholdDetector::new(2);
        let g = generators::polarity_graph(3);
        for seed in 0..4 {
            assert!(!det.run(&g, seed, &Budget::classical()).rejected());
        }
        for seed in 0..4 {
            let t = generators::random_tree(50, seed);
            assert!(!det.run(&t, seed, &Budget::classical()).rejected());
        }
    }

    #[test]
    fn congestion_bounded_by_constant_tau() {
        let det = LocalThresholdDetector::new(2).with_tau(8);
        let g = generators::erdos_renyi(80, 0.06, 2);
        let o = det.run(&g, 1, &Budget::classical());
        // Hello rounds carry 1 word; forwarding ≤ τ words.
        assert!(o.report.congestion.max_words_per_edge_step <= 8);
    }

    #[test]
    fn attempt_budget_scales() {
        let det = LocalThresholdDetector::new(2).with_attempts(2.0, 1 << 30);
        let a = det.attempts_for(100, &Budget::classical());
        let b = det.attempts_for(10_000, &Budget::classical());
        // n^{1/2} scaling: 100x n → 10x attempts.
        assert!(b >= 9 * a && b <= 11 * a, "a = {a}, b = {b}");
    }

    #[test]
    #[should_panic(expected = "only works for k in 2..=5")]
    fn k6_rejected() {
        LocalThresholdDetector::new(6);
    }
}
