//! Distributed quantum Monte-Carlo amplification (Theorem 3).

use crate::grover::GroverMode;
use crate::mcalg::MonteCarloAlgorithm;
use crate::search::{DistributedSearch, SearchReport};

/// The outcome of amplifying a Monte-Carlo algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct AmplificationReport {
    /// The amplified decision: `true` iff a rejecting run was found (and
    /// re-verified classically).
    pub rejected: bool,
    /// The seed of the verified rejecting run, when `rejected`.
    /// Re-running the base algorithm with this seed reproduces the
    /// rejection — the amplified algorithm's "witness".
    pub witness_seed: Option<u64>,
    /// CONGEST rounds charged under the Theorem 3 cost model:
    /// `polylog(1/δ) · (D + T) / √ε` realized as
    /// `(iterations + verifications) · (T + D)` over the amplification
    /// repetitions.
    pub quantum_rounds: u64,
    /// What the *classical* amplification would have cost:
    /// `Θ(1/ε)` repetitions of `T + D` rounds. For the quadratic-speedup
    /// experiments.
    pub classical_rounds_baseline: u64,
    /// Total Grover iterations.
    pub iterations: u64,
    /// Classical runs of the base algorithm the simulator *models*
    /// (see [`SearchReport::classical_evals`]).
    pub classical_evals: u64,
    /// Verdicts of the base algorithm that were actually evaluated: one
    /// per distinct seed (see [`SearchReport::simulations`]).
    pub simulations: u64,
    /// Size of the seed space `M ≈ c/ε` searched.
    pub seed_space: usize,
}

/// Distributed quantum Monte-Carlo amplification (Theorem 3).
///
/// Wraps any [`MonteCarloAlgorithm`] `A` with one-sided success
/// probability `ε` and round complexity `T(n, D)` into a quantum
/// algorithm with one-sided error `δ` and round complexity
/// `polylog(1/δ) · (D + T(n, D)) / √ε`:
///
/// * `Setup` = "run `A` with a random seed, broadcast whether any node
///   rejected to the leader" — charged `T + D` rounds, with `T` the
///   algorithm's [`round_bound`](MonteCarloAlgorithm::round_bound);
/// * `Checking` = trivial (the leader inspects the bit) — 0 rounds;
/// * Grover search over the seed space amplifies the probability of
///   sampling a rejecting seed quadratically faster than classical
///   repetition.
///
/// One-sidedness is preserved: if `A` never rejects (the input satisfies
/// the predicate), no seed is marked and the amplifier accepts with
/// probability 1.
///
/// ```
/// use congest_quantum::{FnAlgorithm, MonteCarloAlgorithm, MonteCarloAmplifier};
/// // A fake detector that rejects on 1/64 of its seeds, within 5 rounds.
/// let mut alg = FnAlgorithm::new(|seed| seed % 64 == 3, 5, 1.0 / 64.0);
/// let amp = MonteCarloAmplifier::new(0.01).with_diameter(4);
/// let report = amp.amplify(&mut alg, 7);
/// assert!(report.rejected);
/// let w = report.witness_seed.unwrap();
/// assert!(alg.rejects(w), "witness seed reproduces the rejection");
/// ```
#[derive(Debug, Clone)]
pub struct MonteCarloAmplifier {
    delta: f64,
    diameter: u64,
    mode: GroverMode,
    seed_space_factor: f64,
}

impl MonteCarloAmplifier {
    /// Creates an amplifier targeting one-sided error `δ`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < δ < 1`.
    pub fn new(delta: f64) -> Self {
        assert!(delta > 0.0 && delta < 1.0, "δ must be in (0,1)");
        MonteCarloAmplifier {
            delta,
            diameter: 0,
            mode: GroverMode::Analytic,
            seed_space_factor: 3.0,
        }
    }

    /// Sets the network diameter `D` charged per Setup execution
    /// (the broadcast of the reject bit to the leader). Default 0 —
    /// appropriate after diameter reduction, where components have
    /// diameter `O(k log n)` accounted separately.
    pub fn with_diameter(mut self, diameter: u64) -> Self {
        self.diameter = diameter;
        self
    }

    /// Selects the Grover simulation mode (default analytic; use
    /// [`GroverMode::Sampled`] when `3/ε` classical runs are too many).
    pub fn with_mode(mut self, mode: GroverMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the seed-space oversampling factor `c` in `M = ⌈c/ε⌉`
    /// (default 3): with `c/ε` independent seeds, at least one rejects
    /// with probability `≥ 1 - e^{-c}` when the rejection probability is
    /// `ε`.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1`.
    pub fn with_seed_space_factor(mut self, factor: f64) -> Self {
        assert!(factor >= 1.0, "seed space factor must be ≥ 1");
        self.seed_space_factor = factor;
        self
    }

    /// The Theorem 3 round bound for parameters `(ε, T, D, δ)`:
    /// `⌈log₂(1/δ)⌉ · (D + T) / √ε` (the polylog realized as a single
    /// log factor, matching the repetition count actually executed).
    pub fn round_bound(&self, epsilon: f64, t: u64, d: u64) -> f64 {
        let reps = (1.0 / self.delta).log2().ceil().max(1.0);
        reps * (d + t) as f64 / epsilon.sqrt()
    }

    /// Amplifies `alg`, deriving all randomness from `master_seed`.
    ///
    /// Each seed of the space asks `alg` for its verdict at most once:
    /// equal seeds give equal verdicts ([`MonteCarloAlgorithm`]'s
    /// contract), so the search reuses the first answer. One `alg`
    /// answers every seed, so it may keep its buffers from one
    /// evaluation to the next. Every `Setup` is charged
    /// `alg.round_bound()` plus the diameter.
    pub fn amplify<A: MonteCarloAlgorithm>(
        &self,
        alg: &mut A,
        master_seed: u64,
    ) -> AmplificationReport {
        let epsilon = alg.success_probability();
        assert!(
            epsilon > 0.0 && epsilon <= 1.0,
            "algorithm must declare ε in (0,1]"
        );
        let dim = ((self.seed_space_factor / epsilon).ceil() as usize).max(2);
        let t_setup = alg.round_bound() + self.diameter;

        let search = DistributedSearch::new(t_setup, 0, self.delta).with_mode(self.mode);
        let report: SearchReport = search.run(
            dim,
            |x| alg.rejects(congest_sim::derive_seed(master_seed, x as u64)),
            congest_sim::derive_seed(master_seed, 0xA3F1),
        );

        let classical_reps = (self.seed_space_factor / epsilon).ceil() as u64;
        AmplificationReport {
            rejected: report.result.is_some(),
            witness_seed: report
                .result
                .map(|x| congest_sim::derive_seed(master_seed, x as u64)),
            quantum_rounds: report.rounds,
            classical_rounds_baseline: classical_reps * t_setup.max(1),
            iterations: report.iterations,
            classical_evals: report.classical_evals,
            simulations: report.simulations,
            seed_space: dim,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcalg::FnAlgorithm;

    fn fake_alg(period: u64, rounds: u64) -> FnAlgorithm<impl FnMut(u64) -> bool> {
        FnAlgorithm::new(move |seed| seed % period == 1, rounds, 1.0 / period as f64)
    }

    #[test]
    fn amplification_finds_rare_rejection() {
        let mut alg = fake_alg(128, 4);
        let amp = MonteCarloAmplifier::new(0.05);
        let report = amp.amplify(&mut alg, 11);
        assert!(report.rejected);
        assert!(alg.rejects(report.witness_seed.unwrap()));
        assert_eq!(report.seed_space, 3 * 128);
    }

    #[test]
    fn one_sidedness_on_always_accepting_algorithm() {
        let mut alg = FnAlgorithm::new(|_| false, 2, 1.0 / 32.0);
        for master in 0..10 {
            let report = MonteCarloAmplifier::new(0.1).amplify(&mut alg, master);
            assert!(!report.rejected, "must accept with probability 1");
            assert!(report.witness_seed.is_none());
        }
    }

    #[test]
    fn quadratic_speedup_vs_classical() {
        // ε = 1/1024: classical needs ~3·1024 runs, quantum ~√(3·1024)
        // iterations (times the same per-run cost).
        let mut alg = fake_alg(1024, 1);
        let amp = MonteCarloAmplifier::new(0.1);
        let mut q_total = 0u64;
        let mut c_total = 0u64;
        let trials = 10;
        for master in 0..trials {
            let r = amp.amplify(&mut alg, master);
            assert!(r.rejected);
            q_total += r.quantum_rounds;
            c_total += r.classical_rounds_baseline;
        }
        let q_avg = q_total as f64 / trials as f64;
        let c_avg = c_total as f64 / trials as f64;
        assert!(
            q_avg * 4.0 < c_avg,
            "quantum {q_avg} should be well below classical {c_avg}"
        );
    }

    #[test]
    fn diameter_term_charged() {
        let mut alg = fake_alg(16, 10);
        let without = MonteCarloAmplifier::new(0.1).amplify(&mut alg, 3);
        let with = MonteCarloAmplifier::new(0.1)
            .with_diameter(100)
            .amplify(&mut alg, 3);
        // Same seeds => same iteration structure; rounds scale by
        // (10+100)/10.
        assert!(with.quantum_rounds > without.quantum_rounds * 5);
    }

    #[test]
    fn round_bound_formula() {
        let amp = MonteCarloAmplifier::new(0.25); // ⌈log₂ 4⌉ = 2 reps
        let bound = amp.round_bound(1.0 / 100.0, 7, 3);
        assert!((bound - 2.0 * 10.0 * 10.0).abs() < 1e-9);
    }

    #[test]
    fn each_seed_runs_once() {
        let runs = std::cell::Cell::new(0u64);
        let mut alg = FnAlgorithm::new(
            |_| {
                runs.set(runs.get() + 1);
                false
            },
            1,
            1.0 / 32.0,
        );
        let report = MonteCarloAmplifier::new(0.1).amplify(&mut alg, 5);
        assert_eq!(report.seed_space, 96);
        assert_eq!(report.simulations, 96, "every seed scanned once");
        assert_eq!(runs.get(), report.simulations);
        assert!(report.classical_evals > 4 * 96, "4 modelled scans");
    }

    #[test]
    fn deterministic_given_master_seed() {
        let mut alg = fake_alg(64, 2);
        let amp = MonteCarloAmplifier::new(0.1);
        let a = amp.amplify(&mut alg, 42);
        let b = amp.amplify(&mut alg, 42);
        assert_eq!(a, b);
    }
}
