//! The interface between classical Monte-Carlo distributed algorithms and
//! the quantum amplification machinery.

/// A distributed Monte-Carlo algorithm with one-sided *success*
/// probability, in the sense of Theorem 3:
///
/// * if the input satisfies the predicate (e.g. is `C_{2k}`-free), **every**
///   run accepts;
/// * otherwise, a run rejects with probability at least
///   [`success_probability`](MonteCarloAlgorithm::success_probability).
///
/// The oracle is verdict-only. Theorem 3's `Setup` reports only
/// *whether* some node rejected, and the amplifier charges every `Setup`
/// the bound [`round_bound`](MonteCarloAlgorithm::round_bound), never the
/// rounds a run happened to take. So [`rejects`](MonteCarloAlgorithm::rejects)
/// answers that one bit, and an implementation may skip any simulation
/// that cannot change it, and leave undrawn any random value it does
/// not read.
///
/// All randomness must come from the seed: the answer of `rejects` is a
/// pure function of it, which is what lets the amplifier treat seeds as
/// the Grover search space and evaluate each seed once. `rejects` takes
/// `&mut self` only so that one evaluator can keep reusable buffers
/// (simulation sessions, scratch vectors) across the seeds of an
/// amplification; nothing it keeps may change a later answer.
pub trait MonteCarloAlgorithm {
    /// Whether the run with the given seed rejects (some node rejected).
    fn rejects(&mut self, seed: u64) -> bool;

    /// An upper bound on the rounds of a single run — the `T(n, D)` of
    /// Theorem 3, charged per `Setup`.
    fn round_bound(&self) -> u64;

    /// The one-sided success probability `ε`: a lower bound on the
    /// rejection probability on inputs violating the predicate.
    fn success_probability(&self) -> f64;
}

/// A [`MonteCarloAlgorithm`] built from a verdict closure — convenient
/// for tests and for wrapping ad-hoc detectors.
///
/// ```
/// use congest_quantum::{FnAlgorithm, MonteCarloAlgorithm};
/// let mut alg = FnAlgorithm::new(|seed| seed % 8 == 0, 3, 1.0 / 8.0);
/// assert!(alg.rejects(16));
/// assert_eq!(alg.round_bound(), 3);
/// ```
pub struct FnAlgorithm<F> {
    f: F,
    round_bound: u64,
    success: f64,
}

impl<F: FnMut(u64) -> bool> FnAlgorithm<F> {
    /// Wraps the verdict `f` with the stated round bound and success
    /// probability.
    pub fn new(f: F, round_bound: u64, success: f64) -> Self {
        FnAlgorithm {
            f,
            round_bound,
            success,
        }
    }
}

impl<F: FnMut(u64) -> bool> MonteCarloAlgorithm for FnAlgorithm<F> {
    fn rejects(&mut self, seed: u64) -> bool {
        (self.f)(seed)
    }

    fn round_bound(&self) -> u64 {
        self.round_bound
    }

    fn success_probability(&self) -> f64 {
        self.success
    }
}

impl<F> std::fmt::Debug for FnAlgorithm<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnAlgorithm")
            .field("round_bound", &self.round_bound)
            .field("success", &self.success)
            .finish()
    }
}

/// Overrides the declared success probability of a wrapped algorithm.
///
/// The declared `ε` sizes the amplifier's seed space (`M ≈ c/ε`); when an
/// algorithm's analytic lower bound is far more pessimistic than its
/// empirical rejection rate on an instance family, experiments can
/// declare a tighter (still valid) `ε` to avoid paying for the slack.
/// One-sidedness is unaffected — a wrong override can only make the
/// amplifier miss, never fabricate.
#[derive(Debug, Clone)]
pub struct WithSuccess<A> {
    inner: A,
    eps: f64,
}

impl<A: MonteCarloAlgorithm> WithSuccess<A> {
    /// Wraps `inner`, declaring success probability `eps`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < eps ≤ 1`.
    pub fn new(inner: A, eps: f64) -> Self {
        assert!(eps > 0.0 && eps <= 1.0, "ε must be in (0,1]");
        WithSuccess { inner, eps }
    }
}

impl<A: MonteCarloAlgorithm> MonteCarloAlgorithm for WithSuccess<A> {
    fn rejects(&mut self, seed: u64) -> bool {
        self.inner.rejects(seed)
    }

    fn round_bound(&self) -> u64 {
        self.inner.round_bound()
    }

    fn success_probability(&self) -> f64 {
        self.eps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_algorithm_roundtrip() {
        let mut alg = FnAlgorithm::new(|seed| seed == 7, 11, 0.25);
        assert!(alg.rejects(7));
        assert!(!alg.rejects(8));
        assert_eq!(alg.round_bound(), 11);
        assert!((alg.success_probability() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn with_success_overrides_only_epsilon() {
        let mut wrapped = WithSuccess::new(FnAlgorithm::new(|seed| seed == 3, 5, 0.5), 0.125);
        assert!(wrapped.rejects(3) && !wrapped.rejects(4));
        assert_eq!(wrapped.round_bound(), 5);
        assert!((wrapped.success_probability() - 0.125).abs() < 1e-12);
    }
}
