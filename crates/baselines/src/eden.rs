//! An Eden-et-al.-style \[16\] detector for `C_{2k}`, `k ≥ 3`.
//!
//! Eden, Fiat, Fischer, Kuhn, Oshman decide `C_{2k}`-freeness in
//! `Õ(n^{1-2/(k²-2k+4)})` rounds (even `k`; `Õ(n^{1-2/(k²-k+2)})` for odd
//! `k`) by splitting vertices at the degree threshold
//! `d_max = n^{2/(k²-2k+4)}` and searching light and heavy cycles with
//! color-BFS whose congestion is balanced at `τ = n^{1-2/(k²-2k+4)}`.
//!
//! **Substitution note** (DESIGN.md §2.6). The full algorithm of \[16\] is
//! a paper of its own; this module implements a faithful *shape* model —
//! the same degree split, the same threshold and repetition balance, on
//! top of our `color-BFS` — plus their exact complexity formulas
//! ([`EdenModel::round_bound`]). Table 1 rows derived from it are
//! labelled "model" by the harness. The crossover experiment
//! (ours beats \[16\] for every `k ≥ 6`) uses the exact formulas of both
//! papers.

use std::ops::ControlFlow;

use congest_graph::Graph;
use congest_sim::derive_seed;
use even_cycle::{
    random_coloring, Budget, Descriptor, DetectResult, Detector, EvenCall, EvenRun, EvenRunOutcome,
    Model, Target,
};

/// The \[16\]-style two-level threshold detector.
#[derive(Debug, Clone)]
pub struct EdenModel {
    k: usize,
    repetitions: usize,
}

impl EdenModel {
    /// Creates the model for `C_{2k}`, `k ≥ 3`.
    ///
    /// # Panics
    ///
    /// Panics if `k < 3` (\[16\] targets `k ≥ 3`; `k = 2` is \[15\]'s
    /// `O(√n)`).
    pub fn new(k: usize) -> Self {
        assert!(k >= 3, "the Eden et al. algorithm targets k ≥ 3");
        EdenModel {
            k,
            repetitions: 256,
        }
    }

    /// Overrides the repetition budget.
    pub fn with_repetitions(mut self, repetitions: usize) -> Self {
        assert!(repetitions >= 1);
        self.repetitions = repetitions;
        self
    }

    /// The \[16\] complexity exponent for this `k`:
    /// `1 - 2/(k²-2k+4)` for even `k`, `1 - 2/(k²-k+2)` for odd `k`.
    pub fn exponent(&self) -> f64 {
        let kf = self.k as f64;
        if self.k.is_multiple_of(2) {
            1.0 - 2.0 / (kf * kf - 2.0 * kf + 4.0)
        } else {
            1.0 - 2.0 / (kf * kf - kf + 2.0)
        }
    }

    /// The degree threshold `d_max = n^{1 - exponent}` separating light
    /// from heavy vertices in \[16\]'s balance.
    pub fn degree_threshold(&self, n: usize) -> f64 {
        (n as f64).powf(1.0 - self.exponent())
    }

    /// The \[16\] round bound `n^{exponent}` (polylog normalized to 1).
    pub fn round_bound(&self, n: usize) -> f64 {
        (n as f64).powf(self.exponent())
    }

    /// Runs the model detector: per repetition, a light-cycle
    /// color-BFS below `d_max` and a full-graph color-BFS thresholded at
    /// `τ = n^{exponent}`, as two [`EvenRun`] calls, for the budget's
    /// repetitions: each call is simulated on the budget's backend and
    /// charged at its bandwidth, a binding cap stops the repetition loop
    /// (flagging the outcome) and a rejection stops it unless
    /// [`Budget::run_to_budget`].
    pub fn run(&self, g: &Graph, seed: u64, budget: &Budget) -> EvenRunOutcome {
        let n = g.node_count();
        let k = self.k;
        let d_max = self.degree_threshold(n);
        let tau = self.round_bound(n).ceil() as u64;
        let light: Vec<bool> = g.nodes().map(|v| (g.degree(v) as f64) <= d_max).collect();
        let all = vec![true; n];
        let mut run = EvenRun::new(g, k, budget);
        let repetitions = budget.repetitions.unwrap_or(self.repetitions) as u64;
        let _ = (0..repetitions).try_for_each(|r| {
            let colors = random_coloring(n, 2 * k, derive_seed(seed, 0xED0 + r));
            let hosts: [&[bool]; 2] = [&light, &all];
            for (ci, mask) in hosts.into_iter().enumerate() {
                run.visit(&EvenCall {
                    iteration: r + 1,
                    colors: &colors,
                    h_mask: mask,
                    x_mask: mask,
                    activation: None,
                    tau,
                    seed: derive_seed(seed, 0xED00 + r * 2 + ci as u64),
                })?;
            }
            ControlFlow::Continue(())
        });
        run.finish()
    }
}

impl Detector for EdenModel {
    fn descriptor(&self) -> Descriptor {
        let row = if self.k.is_multiple_of(2) {
            even_cycle::theory::Table1Row::EdenEvenK
        } else {
            even_cycle::theory::Table1Row::EdenOddK
        };
        Descriptor {
            name: "two-level threshold model",
            reference: "[16]",
            model: Model::Classical,
            target: Target::Even { k: self.k },
            exponent: self.exponent(),
            table1: Some(row),
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
    fn exponents_match_table1() {
        assert!((EdenModel::new(6).exponent() - (1.0 - 2.0 / 28.0)).abs() < 1e-12);
        assert!((EdenModel::new(7).exponent() - (1.0 - 2.0 / 44.0)).abs() < 1e-12);
    }

    #[test]
    fn this_paper_wins_for_k_at_least_6() {
        for k in 6..20 {
            let ours = 1.0 - 1.0 / k as f64;
            assert!(
                EdenModel::new(k).exponent() > ours,
                "k = {k}: [16] must be worse"
            );
        }
        // The gap shrinks toward 1 as k grows but never closes — for
        // k ≥ 6, [16] was simply the best known before this paper.
        let gap6 = EdenModel::new(6).exponent() - (1.0 - 1.0 / 6.0);
        let gap12 = EdenModel::new(12).exponent() - (1.0 - 1.0 / 12.0);
        assert!(gap6 > gap12 && gap12 > 0.0);
    }

    #[test]
    fn finds_planted_c6() {
        let host = generators::random_tree(36, 5);
        let (g, _) = generators::plant_cycle(&host, 6, 5);
        let det = EdenModel::new(3).with_repetitions(512);
        let found = (0..6).any(|seed| {
            let o = det.run(&g, seed, &Budget::classical());
            if let Some(w) = &o.witness {
                assert!(w.is_valid(&g));
            }
            o.rejected()
        });
        assert!(found, "model never found the planted C6");
    }

    #[test]
    fn soundness() {
        let det = EdenModel::new(3).with_repetitions(32);
        for seed in 0..4 {
            let g = generators::random_tree(40, seed);
            assert!(!det.run(&g, seed, &Budget::classical()).rejected());
        }
    }
}
