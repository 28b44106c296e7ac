//! The van Apeldoorn–de Vos \[33\] quantum framework, as a cost model and a
//! simulated comparator for the paper's §3.5 improvement.
//!
//! \[33\] decide `{C_ℓ | 3 ≤ ℓ ≤ 2k}`-freeness in `Õ(n^{1/2-1/(4k+2)})`
//! quantum rounds by quantizing only the *heavy* search of \[10\] with a
//! different degree split `d_max = n^{(k+1)/(2k+1)}`. The paper improves
//! this to `Õ(n^{1/2-1/2k})` by keeping `d_max = n^{1/k}` and quantizing
//! both searches (§3.5).
//!
//! **Substitution note** (DESIGN.md §2.6): we model \[33\] as quantum
//! amplification at their effective success probability
//! `ε = 1/(3·n^{1-1/(2k+1)})` — the balance their exponent
//! `1/2 - 1/(4k+2) = (1 - 1/(2k+1))/2` encodes — over the same low-cost
//! classical detector. The experiments compare round *models*, which is
//! all Table 1 states.

use congest_graph::Graph;
use congest_quantum::{GroverMode, MonteCarloAlgorithm, MonteCarloAmplifier, WithSuccess};
use even_cycle::{
    Budget, Descriptor, DetectResult, Detector, F2kDetector, Model, QuantumOutcome, Target,
};

/// The \[33\] cost model.
#[derive(Debug, Clone)]
pub struct ApeldoornDeVosModel {
    k: usize,
}

impl ApeldoornDeVosModel {
    /// Creates the model for `{C_ℓ | ℓ ≤ 2k}`, `k ≥ 2`.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 2, "the framework targets k ≥ 2");
        ApeldoornDeVosModel { k }
    }

    /// Their complexity exponent `1/2 - 1/(4k+2)`.
    pub fn exponent(&self) -> f64 {
        0.5 - 1.0 / (4.0 * self.k as f64 + 2.0)
    }

    /// Their round bound `n^{1/2-1/(4k+2)}` (polylogs normalized).
    pub fn round_bound(&self, n: usize) -> f64 {
        (n as f64).powf(self.exponent())
    }

    /// The effective one-sided success probability their balance implies
    /// for the amplified classical subroutine.
    pub fn effective_success(&self, n: usize) -> f64 {
        1.0 / (3.0 * (n as f64).powf(1.0 - 1.0 / (2.0 * self.k as f64 + 1.0)))
    }

    /// Simulates the framework's amplification cost over a stand-in
    /// classical subroutine with per-run cost `base_rounds`, returning
    /// the quantum rounds charged. (The detection behaviour itself is
    /// exercised by our own `F2kDetector`; this comparator exists for
    /// the Table 1 round-model comparison.)
    pub fn simulate_rounds(&self, n: usize, base_rounds: u64, seed: u64) -> u64 {
        let eps = self.effective_success(n);
        // A synthetic subroutine whose rejection rate equals the model's
        // ε: marked seeds are those hashing below ε.
        let mut alg = SyntheticSubroutine {
            eps,
            rounds: base_rounds,
        };
        let amp = MonteCarloAmplifier::new(0.05).with_mode(GroverMode::Sampled { samples: 64 });
        amp.amplify(&mut alg, seed).quantum_rounds
    }
}

/// A synthetic Monte-Carlo subroutine rejecting on an `ε`-fraction of
/// seeds (hash-based, deterministic per seed).
#[derive(Debug, Clone)]
struct SyntheticSubroutine {
    eps: f64,
    rounds: u64,
}

impl MonteCarloAlgorithm for SyntheticSubroutine {
    fn rejects(&mut self, seed: u64) -> bool {
        // SplitMix-style hash to a uniform [0,1) value.
        let h = congest_sim::derive_seed(seed, 0x51);
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < self.eps
    }

    fn round_bound(&self) -> u64 {
        self.rounds
    }

    fn success_probability(&self) -> f64 {
        self.eps
    }
}

/// The \[33\] framework as a runnable [`Detector`]: quantum amplification
/// of the same constant-congestion classical `F_{2k}` subroutine the
/// paper's §3.5 pipeline uses, but at \[33\]'s effective success
/// probability `ε = 1/(3·n^{1-1/(2k+1)})` — the balance their exponent
/// encodes. Verdicts and witnesses are genuine (the base subroutine
/// really runs and rejections are re-verified); the charged rounds
/// follow their `Õ(n^{1/2-1/(4k+2)})` model.
#[derive(Debug, Clone)]
pub struct ApeldoornDeVosDetector {
    model: ApeldoornDeVosModel,
    repetitions: usize,
    delta: f64,
    mode: GroverMode,
}

impl ApeldoornDeVosDetector {
    /// Creates the detector for `{C_ℓ | ℓ ≤ 2k}` (`k ≥ 2`);
    /// `repetitions` configures the classical base subroutine.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `repetitions == 0`.
    pub fn new(k: usize, repetitions: usize) -> Self {
        assert!(repetitions >= 1, "at least one repetition");
        ApeldoornDeVosDetector {
            model: ApeldoornDeVosModel::new(k),
            repetitions,
            delta: 0.1,
            mode: GroverMode::Sampled { samples: 48 },
        }
    }

    /// Overrides the base repetition count.
    ///
    /// # Panics
    ///
    /// Panics if `repetitions == 0`.
    pub fn with_repetitions(mut self, repetitions: usize) -> Self {
        assert!(repetitions >= 1, "at least one repetition");
        self.repetitions = repetitions;
        self
    }

    /// Selects the Grover simulation mode (default sampled — the \[33\]
    /// seed space is `Θ(n^{1-1/(2k+1)})`, too large for exhaustive
    /// analytic scans at experiment sizes).
    pub fn with_mode(mut self, mode: GroverMode) -> Self {
        self.mode = mode;
        self
    }

    /// The wrapped cost model.
    pub fn model(&self) -> &ApeldoornDeVosModel {
        &self.model
    }

    /// Amplifies the base subroutine over the whole graph under
    /// `budget`: one component, no decomposition charged. The budget's
    /// repetition override and backend reach the base subroutine, whose
    /// round bound holds at any bandwidth; caps apply only through
    /// [`Budget::enforce`].
    pub fn run(&self, g: &Graph, seed: u64, budget: &Budget) -> QuantumOutcome {
        let base = F2kDetector::new(self.model.k)
            .with_repetitions(self.repetitions)
            .randomized();
        // One verdict-only evaluator for every seed.
        let mc = base.as_monte_carlo(g, budget);
        // Declaring [33]'s (smaller) effective ε only enlarges the seed
        // space, so one-sidedness and completeness are unaffected while
        // the amplification cost follows their balance.
        let declared = self.model.effective_success(g.node_count()).min(1.0);
        let mut wrapped = WithSuccess::new(mc, declared);
        let diameter = congest_graph::analysis::diameter(g).unwrap_or(0) as u64;
        let amp = MonteCarloAmplifier::new(self.delta)
            .with_diameter(diameter)
            .with_mode(self.mode);
        let report = amp.amplify(&mut wrapped, seed);
        let witness = report.rejected.then(|| {
            let ws = report.witness_seed.expect("rejected implies witness seed");
            let witness = base.run(g, ws, &budget.witness_rerun()).witness;
            let witness = witness.expect("witness seed reproduces the rejection");
            assert!(witness.is_valid(g), "witness must validate");
            witness
        });
        QuantumOutcome {
            rejected: report.rejected,
            witness,
            quantum_rounds: report.quantum_rounds,
            classical_rounds: report.classical_rounds_baseline,
            decomposition_rounds: 0,
            iterations: report.iterations,
            components: 1,
            colors: 1,
            classical_evals: report.classical_evals,
            simulations: report.simulations,
            budget_exceeded: false,
        }
    }
}

impl Detector for ApeldoornDeVosDetector {
    fn descriptor(&self) -> Descriptor {
        let k = self.model.k;
        Descriptor {
            name: "quantized heavy-search framework",
            reference: "[33]",
            model: Model::Quantum,
            target: Target::F2k { k },
            exponent: self.model.exponent(),
            table1: Some(even_cycle::theory::Table1Row::ApeldoornDeVosF2k),
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

    #[test]
    fn exponent_formula() {
        assert!((ApeldoornDeVosModel::new(2).exponent() - 0.4).abs() < 1e-12);
        assert!((ApeldoornDeVosModel::new(3).exponent() - (0.5 - 1.0 / 14.0)).abs() < 1e-12);
    }

    #[test]
    fn this_paper_improves_for_every_k() {
        for k in 2..30 {
            let ours = 0.5 - 1.0 / (2.0 * k as f64);
            assert!(ApeldoornDeVosModel::new(k).exponent() > ours, "k = {k}");
        }
    }

    #[test]
    fn simulated_rounds_scale_like_the_exponent() {
        // Quantum rounds across n should grow roughly like n^{exponent}
        // (BBHT noise allowed: average over seeds, compare within 2x).
        let model = ApeldoornDeVosModel::new(2);
        let avg = |n: usize| -> f64 {
            (0..10)
                .map(|s| model.simulate_rounds(n, 1, s) as f64)
                .sum::<f64>()
                / 10.0
        };
        let a = avg(1 << 10);
        let b = avg(1 << 14);
        let measured_ratio = b / a;
        let predicted_ratio = model.round_bound(1 << 14) / model.round_bound(1 << 10);
        assert!(
            measured_ratio > predicted_ratio / 2.5 && measured_ratio < predicted_ratio * 2.5,
            "measured {measured_ratio} vs predicted {predicted_ratio}"
        );
    }

    #[test]
    fn synthetic_subroutine_rate() {
        let mut alg = SyntheticSubroutine {
            eps: 0.125,
            rounds: 1,
        };
        let hits = (0..4000).filter(|&s| alg.rejects(s)).count();
        assert!(
            (hits as f64 / 4000.0 - 0.125).abs() < 0.03,
            "empirical rate {hits}/4000"
        );
    }
}
