//! Distributed quantum search (Lemma 8, after Le Gall–Magniez [26]).

use std::collections::HashMap;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::grover::{GroverMode, GroverSearch};

/// The result of a [`DistributedSearch`].
#[derive(Debug, Clone, PartialEq)]
pub struct SearchReport {
    /// A verified element of the search space with `f(x) = 1`, if found.
    pub result: Option<usize>,
    /// CONGEST rounds charged under the Lemma 8 cost model:
    /// `(iterations + verifications) · (T_setup + T_checking)`,
    /// summed over the `⌈log₂(1/δ)⌉` amplification repetitions.
    pub rounds: u64,
    /// Total Grover iterations across repetitions.
    pub iterations: u64,
    /// Classical oracle evaluations the simulator *models* (every scan,
    /// sample and measurement verification of every repetition, repeats
    /// included); not charged as rounds.
    pub classical_evals: u64,
    /// Distinct oracle evaluations that actually ran: the search
    /// memoizes the oracle, so a repeated `x` costs nothing. At most
    /// `classical_evals`.
    pub simulations: u64,
    /// Number of independent BBHT repetitions executed.
    pub repetitions: u32,
}

/// Distributed quantum search (Lemma 8): a leader node `v_lead` amplifies
/// a distributed `Setup` procedure (round cost `t_setup`) checked by a
/// `Checking` procedure (round cost `t_checking`), achieving constant
/// success from success probability `ε` in
/// `O(log(1/δ) · (t_setup + t_checking)/√ε)` rounds.
///
/// The search space and oracle are classical inputs here (seeds of the
/// randomized algorithm and "did any node reject", respectively, in the
/// paper's application); the quantum dynamics are simulated by
/// [`GroverSearch`].
///
/// ```
/// use congest_quantum::{DistributedSearch, GroverMode};
/// let search = DistributedSearch::new(10, 0, 0.01)
///     .with_mode(GroverMode::Analytic);
/// let report = search.run(256, |x| x == 200, 42);
/// assert_eq!(report.result, Some(200));
/// assert!(report.rounds > 0);
/// ```
#[derive(Debug, Clone)]
pub struct DistributedSearch {
    t_setup: u64,
    t_checking: u64,
    delta: f64,
    mode: GroverMode,
}

impl DistributedSearch {
    /// Creates a search with the given `Setup`/`Checking` round costs and
    /// target error probability `δ`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < δ < 1`.
    pub fn new(t_setup: u64, t_checking: u64, delta: f64) -> Self {
        assert!(delta > 0.0 && delta < 1.0, "δ must be in (0,1)");
        DistributedSearch {
            t_setup,
            t_checking,
            delta,
            mode: GroverMode::Analytic,
        }
    }

    /// Selects the Grover simulation mode (default: analytic).
    pub fn with_mode(mut self, mode: GroverMode) -> Self {
        self.mode = mode;
        self
    }

    /// Runs the search over the space `0..dim` with the given oracle.
    ///
    /// Repeats BBHT `⌈log₂(1/δ)⌉` times (each repetition has constant
    /// success probability when a marked element exists); any verified
    /// find short-circuits.
    ///
    /// The oracle must be a pure function of `x`: each distinct `x` is
    /// evaluated at most once per call and its answer reused by every
    /// repetition, sample and verification (see
    /// [`SearchReport::simulations`]).
    pub fn run<F>(&self, dim: usize, mut oracle: F, seed: u64) -> SearchReport
    where
        F: FnMut(usize) -> bool,
    {
        let reps = (1.0 / self.delta).log2().ceil().max(1.0) as u32;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let grover = GroverSearch::new(self.mode);
        let mut memo: HashMap<usize, bool> = HashMap::new();
        let mut memoized = |x: usize| *memo.entry(x).or_insert_with(|| oracle(x));
        let mut report = SearchReport {
            result: None,
            rounds: 0,
            iterations: 0,
            classical_evals: 0,
            simulations: 0,
            repetitions: 0,
        };
        for _ in 0..reps {
            report.repetitions += 1;
            let g = grover.search(dim, &mut memoized, &mut rng);
            report.iterations += g.iterations;
            report.classical_evals += g.classical_evals;
            // Each Grover iteration coherently runs Setup (+ uncomputes);
            // each measurement verification runs Setup+Checking once.
            report.rounds +=
                (g.iterations + g.measurements) * (self.t_setup + self.t_checking).max(1);
            if g.result.is_some() {
                report.result = g.result;
                break;
            }
        }
        report.simulations = memo.len() as u64;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_marked_and_charges_rounds() {
        let search = DistributedSearch::new(7, 3, 0.1);
        let report = search.run(128, |x| x >= 120, 1);
        assert!(report.result.is_some());
        assert!(report.result.unwrap() >= 120);
        // rounds = (iterations + measurements) * 10 >= iterations * 10.
        assert!(report.rounds >= report.iterations * 10);
    }

    #[test]
    fn empty_oracle_exhausts_repetitions() {
        let search = DistributedSearch::new(1, 0, 0.25);
        let report = search.run(64, |_| false, 5);
        assert_eq!(report.result, None);
        assert_eq!(report.repetitions, 2, "⌈log₂ 4⌉ = 2");
    }

    #[test]
    fn smaller_delta_more_repetitions() {
        let search = DistributedSearch::new(1, 0, 1e-6);
        let report = search.run(16, |_| false, 5);
        assert_eq!(report.repetitions, 20, "⌈log₂ 10⁶⌉ = 20");
    }

    #[test]
    #[should_panic(expected = "δ must be in (0,1)")]
    fn invalid_delta_panics() {
        DistributedSearch::new(1, 1, 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let search = DistributedSearch::new(2, 2, 0.1);
        let a = search.run(256, |x| x % 10 == 0, 9);
        let b = search.run(256, |x| x % 10 == 0, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn analytic_repetitions_share_one_scan() {
        // Two repetitions each scan all 64 seeds and verify their
        // measurements, but every seed runs once.
        let mut calls = 0u64;
        let report = DistributedSearch::new(1, 0, 0.25).run(
            64,
            |_| {
                calls += 1;
                false
            },
            5,
        );
        assert_eq!(report.repetitions, 2);
        assert_eq!(calls, 64);
        assert_eq!(report.simulations, 64);
        assert!(report.classical_evals >= 128, "{report:?}");
    }

    #[test]
    fn sampled_repeats_are_served_from_the_memo() {
        // 16 draws from 8 seeds must repeat.
        let mut calls = 0u64;
        let report = DistributedSearch::new(1, 0, 0.1)
            .with_mode(GroverMode::Sampled { samples: 16 })
            .run(
                8,
                |_| {
                    calls += 1;
                    false
                },
                3,
            );
        assert_eq!(calls, report.simulations);
        assert!(report.simulations <= 8);
        assert!(report.simulations < report.classical_evals, "{report:?}");
    }

    #[test]
    fn memoization_leaves_every_modelled_field_unchanged() {
        // Values recorded from the search before it memoized its oracle.
        let pinned = [
            (GroverMode::Exact, 97, Some(199), 175, 21, 270, 1),
            (GroverMode::Analytic, 1000, Some(5), 125, 14, 267, 1),
            (
                GroverMode::Sampled { samples: 16 },
                1000,
                None,
                2745,
                452,
                161,
                4,
            ),
        ];
        for (mode, period, result, rounds, iterations, classical_evals, repetitions) in pinned {
            let report =
                DistributedSearch::new(3, 2, 0.1)
                    .with_mode(mode)
                    .run(256, |x| x % period == 5, 7);
            let expected = SearchReport {
                result,
                rounds,
                iterations,
                classical_evals,
                simulations: report.simulations,
                repetitions,
            };
            assert_eq!(report, expected, "{mode:?}");
        }
    }
}
