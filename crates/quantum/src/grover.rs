//! Grover search with the BBHT schedule for an unknown number of marked
//! items.

use rand::Rng;

use crate::statevector::StateVector;

/// How the Grover dynamics are simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroverMode {
    /// Full state-vector simulation: the uniform state is evolved by the
    /// actual oracle/diffusion operators and measured. Exact quantum
    /// dynamics; `O(j·M)` floating-point work per amplification of `j`
    /// iterations. The marked set is discovered by one exhaustive scan
    /// (`M` classical oracle evaluations, reported as `classical_evals`).
    Exact,
    /// Exact analytic amplitude tracking: after `j` iterations the
    /// success probability is exactly `sin²((2j+1)θ)` with
    /// `θ = asin √(m/M)`; measurement is sampled from that law. Same
    /// exhaustive scan as `Exact`, but no per-iteration cost. Results are
    /// statistically identical to `Exact`.
    Analytic,
    /// Analytic tracking with the marked fraction *estimated* from
    /// `samples` random classical evaluations instead of an exhaustive
    /// scan — the only mode whose success statistics are approximate
    /// (the approximation is reported, never hidden: `estimated = true`).
    /// Use when `M` classical evaluations would dwarf the experiment.
    Sampled {
        /// Number of classical evaluations used to estimate `m/M`.
        samples: usize,
    },
}

/// The outcome of a [`GroverSearch::search`].
#[derive(Debug, Clone, PartialEq)]
pub struct GroverReport {
    /// A *verified* marked element, if the search succeeded.
    pub result: Option<usize>,
    /// Total Grover iterations performed — the quantum cost unit
    /// (each iteration = one coherent oracle application).
    pub iterations: u64,
    /// Number of measure-and-verify cycles (BBHT rounds).
    pub measurements: u64,
    /// Classical oracle evaluations spent by the *simulator* (exhaustive
    /// or sampled scans, measurement verification). Simulation overhead —
    /// not part of the quantum algorithm's round cost.
    pub classical_evals: u64,
    /// Whether the marked fraction was estimated rather than exact
    /// (only in [`GroverMode::Sampled`]).
    pub estimated: bool,
}

impl GroverReport {
    /// Whether a marked element was found.
    pub fn found(&self) -> bool {
        self.result.is_some()
    }
}

/// The Grover angle `θ = asin √(m/M)`.
fn grover_angle(dim: usize, marked: usize) -> f64 {
    ((marked as f64 / dim as f64).sqrt()).asin()
}

/// The success probability of measuring a marked element after `j`
/// Grover iterations on a space of `dim` elements with `marked` of them
/// marked: `sin²((2j+1)·asin√(m/M))`.
pub fn success_probability(dim: usize, marked: usize, iterations: u64) -> f64 {
    if marked == 0 {
        return 0.0;
    }
    if marked >= dim {
        return 1.0;
    }
    let theta = grover_angle(dim, marked);
    ((2 * iterations + 1) as f64 * theta).sin().powi(2)
}

/// The optimal number of Grover iterations for a *known* marked count:
/// `⌊π/(4θ)⌋`, after which success probability is `1 - O(m/M)`.
pub fn optimal_iterations(dim: usize, marked: usize) -> u64 {
    if marked == 0 || marked >= dim {
        return 0;
    }
    let theta = grover_angle(dim, marked);
    (std::f64::consts::FRAC_PI_4 / theta).floor() as u64
}

/// Grover search over `0..dim` with the Boyer–Brassard–Høyer–Tapp
/// exponential schedule, which needs no prior knowledge of the number of
/// marked elements and uses `O(√(M/m))` iterations in expectation
/// (`O(√M)` total before giving up when nothing is marked).
///
/// One-sided by construction: every candidate measurement is verified by
/// a classical oracle call before being returned, so `result` is never a
/// false positive — mirroring how the paper's Theorem 3 preserves
/// one-sided error.
#[derive(Debug, Clone)]
pub struct GroverSearch {
    mode: GroverMode,
    /// Multiplier on the `√M` iteration budget before concluding
    /// "nothing marked".
    budget_factor: f64,
}

impl GroverSearch {
    /// Creates a search in the given mode with the default give-up budget
    /// (`6√M` iterations).
    pub fn new(mode: GroverMode) -> Self {
        GroverSearch {
            mode,
            budget_factor: 6.0,
        }
    }

    /// Overrides the iteration budget multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `factor <= 0`.
    pub fn set_budget_factor(&mut self, factor: f64) -> &mut Self {
        assert!(factor > 0.0, "budget factor must be positive");
        self.budget_factor = factor;
        self
    }

    /// Runs the search over `0..dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn search<F, R>(&self, dim: usize, mut oracle: F, rng: &mut R) -> GroverReport
    where
        F: FnMut(usize) -> bool,
        R: Rng,
    {
        assert!(dim > 0, "search space must be non-empty");
        let mut report = GroverReport {
            result: None,
            iterations: 0,
            measurements: 0,
            classical_evals: 0,
            estimated: false,
        };

        // Establish the marked set (exact modes) or an estimate (sampled).
        let (marked_list, marked_count_for_angle): (Vec<usize>, f64) = match self.mode {
            GroverMode::Exact | GroverMode::Analytic => {
                let mut list = Vec::new();
                for x in 0..dim {
                    report.classical_evals += 1;
                    if oracle(x) {
                        list.push(x);
                    }
                }
                let m = list.len() as f64;
                (list, m)
            }
            GroverMode::Sampled { samples } => {
                report.estimated = true;
                let mut list = Vec::new();
                let s = samples.max(1);
                for _ in 0..s {
                    let x = rng.gen_range(0..dim);
                    report.classical_evals += 1;
                    if oracle(x) {
                        list.push(x);
                    }
                }
                let est = (list.len() as f64 / s as f64) * dim as f64;
                list.sort_unstable();
                list.dedup();
                (list, est)
            }
        };

        let budget = (self.budget_factor * (dim as f64).sqrt()).ceil() as u64 + 12;

        // BBHT: grow the iteration range exponentially.
        let lambda = 6.0_f64 / 5.0;
        let mut m_range = 1.0_f64;
        let sqrt_dim = (dim as f64).sqrt();

        while report.iterations < budget {
            let j = rng.gen_range(0..m_range.ceil() as u64 + 1);
            report.iterations += j;
            report.measurements += 1;

            let outcome: usize = match self.mode {
                GroverMode::Exact => {
                    let mut psi = StateVector::uniform(dim);
                    // Oracle from the cached marked set (already counted).
                    let marked = &marked_list;
                    for _ in 0..j {
                        psi.grover_iteration(|x| marked.binary_search(&x).is_ok());
                    }
                    psi.measure(rng)
                }
                GroverMode::Analytic | GroverMode::Sampled { .. } => {
                    let m_eff = match self.mode {
                        GroverMode::Sampled { .. } => marked_count_for_angle,
                        _ => marked_list.len() as f64,
                    };
                    let p = if m_eff <= 0.0 {
                        0.0
                    } else if m_eff >= dim as f64 {
                        1.0
                    } else {
                        let theta = (m_eff / dim as f64).sqrt().asin();
                        ((2 * j + 1) as f64 * theta).sin().powi(2)
                    };
                    if !marked_list.is_empty() && rng.gen_bool(p.clamp(0.0, 1.0)) {
                        marked_list[rng.gen_range(0..marked_list.len())]
                    } else {
                        // An unmarked outcome; sample any element — the
                        // verification below rejects marked-by-chance
                        // collisions consistently.
                        sample_unmarked(dim, &marked_list, rng)
                    }
                }
            };

            // Classical verification of the measurement (one-sidedness).
            report.classical_evals += 1;
            if oracle(outcome) {
                report.result = Some(outcome);
                return report;
            }
            m_range = (lambda * m_range).min(sqrt_dim);
        }
        report
    }
}

impl GroverSearch {
    /// Single-shot Grover with a *known* marked count: applies the
    /// optimal `⌊π/(4θ)⌋` iterations once, measures, and verifies.
    ///
    /// Succeeds with probability `≥ 1 - m/M`; still one-sided (a failed
    /// verification returns `None` in `result`). Exposed separately from
    /// the BBHT search because several baselines (\[9\]'s direct Grover in
    /// particular) assume the marked count is known.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `marked_count > dim`.
    pub fn search_known<F, R>(
        &self,
        dim: usize,
        marked_count: usize,
        mut oracle: F,
        rng: &mut R,
    ) -> GroverReport
    where
        F: FnMut(usize) -> bool,
        R: Rng,
    {
        assert!(dim > 0, "search space must be non-empty");
        assert!(marked_count <= dim, "marked count exceeds the space");
        let mut report = GroverReport {
            result: None,
            iterations: 0,
            measurements: 0,
            classical_evals: 0,
            estimated: false,
        };
        if marked_count == 0 {
            return report;
        }
        let j = optimal_iterations(dim, marked_count);
        report.iterations = j;
        report.measurements = 1;
        let outcome = match self.mode {
            GroverMode::Exact => {
                let mut psi = StateVector::uniform(dim);
                // The oracle is queried coherently; count one classical
                // scan for the simulator-side marked set.
                let marked: Vec<usize> = (0..dim)
                    .inspect(|_| report.classical_evals += 1)
                    .filter(|&x| oracle(x))
                    .collect();
                for _ in 0..j {
                    psi.grover_iteration(|x| marked.binary_search(&x).is_ok());
                }
                psi.measure(rng)
            }
            GroverMode::Analytic | GroverMode::Sampled { .. } => {
                let marked: Vec<usize> = (0..dim)
                    .inspect(|_| report.classical_evals += 1)
                    .filter(|&x| oracle(x))
                    .collect();
                let p = success_probability(dim, marked.len(), j);
                if !marked.is_empty() && rng.gen_bool(p.clamp(0.0, 1.0)) {
                    marked[rng.gen_range(0..marked.len())]
                } else {
                    sample_unmarked(dim, &marked, rng)
                }
            }
        };
        report.classical_evals += 1;
        if oracle(outcome) {
            report.result = Some(outcome);
        }
        report
    }
}

/// Uniformly samples an element outside `marked` (sorted). Falls back to
/// an arbitrary element if everything is marked.
fn sample_unmarked<R: Rng>(dim: usize, marked: &[usize], rng: &mut R) -> usize {
    if marked.len() >= dim {
        return 0;
    }
    loop {
        let x = rng.gen_range(0..dim);
        if marked.binary_search(&x).is_err() {
            return x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn success_probability_endpoints() {
        assert_eq!(success_probability(100, 0, 5), 0.0);
        assert_eq!(success_probability(100, 100, 5), 1.0);
        // j = 0: probability equals m/M.
        let p0 = success_probability(64, 4, 0);
        assert!((p0 - 4.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn optimal_iterations_quadratic_scaling() {
        // m = 1: optimal ≈ (π/4)√M.
        let j_256 = optimal_iterations(256, 1);
        let j_4096 = optimal_iterations(4096, 1);
        assert!((11..=13).contains(&j_256), "{j_256}");
        assert!((49..=51).contains(&j_4096), "{j_4096}");
        // Quadrupling M doubles iterations (16x here → 4x).
        assert!((j_4096 as f64 / j_256 as f64 - 4.0).abs() < 0.5);
        assert_eq!(optimal_iterations(100, 0), 0);
    }

    #[test]
    fn exact_mode_finds_single_marked() {
        let search = GroverSearch::new(GroverMode::Exact);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let report = search.search(64, |x| x == 37, &mut rng);
        assert_eq!(report.result, Some(37));
        assert!(
            report.iterations <= 64,
            "should be ~√M, got {}",
            report.iterations
        );
    }

    #[test]
    fn analytic_mode_finds_single_marked() {
        let search = GroverSearch::new(GroverMode::Analytic);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let report = search.search(4096, |x| x == 1234, &mut rng);
        assert_eq!(report.result, Some(1234));
        assert!(
            report.iterations < 800,
            "expected ~√4096 = 64-ish iterations (with BBHT overhead), got {}",
            report.iterations
        );
    }

    #[test]
    fn no_marked_elements_returns_none() {
        let search = GroverSearch::new(GroverMode::Analytic);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let report = search.search(256, |_| false, &mut rng);
        assert_eq!(report.result, None);
        assert!(
            report.iterations >= (6.0 * 16.0) as u64,
            "ran out the budget"
        );
    }

    #[test]
    fn one_sidedness_never_fabricates() {
        // Over many seeds, an all-false oracle never yields a result.
        for seed in 0..20 {
            let search = GroverSearch::new(GroverMode::Analytic);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            assert!(search.search(64, |_| false, &mut rng).result.is_none());
        }
    }

    #[test]
    fn sampled_mode_finds_dense_marked_set() {
        // 1/8 of the space marked; sampling estimates the fraction well.
        let search = GroverSearch::new(GroverMode::Sampled { samples: 64 });
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let report = search.search(1 << 16, |x| x % 8 == 0, &mut rng);
        assert!(report.estimated);
        assert!(report.found());
        assert_eq!(report.result.unwrap() % 8, 0, "verified marked");
        assert!(report.classical_evals < 200);
    }

    #[test]
    fn exact_and_analytic_agree_statistically() {
        // Same marked fraction: success rates over seeds should be close.
        let dim = 64;
        let oracle = |x: usize| x % 16 == 3; // 4 marked
        let trials = 40;
        let mut exact_found = 0;
        let mut analytic_found = 0;
        for seed in 0..trials {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            if GroverSearch::new(GroverMode::Exact)
                .search(dim, oracle, &mut rng)
                .found()
            {
                exact_found += 1;
            }
            let mut rng = ChaCha8Rng::seed_from_u64(seed + 1000);
            if GroverSearch::new(GroverMode::Analytic)
                .search(dim, oracle, &mut rng)
                .found()
            {
                analytic_found += 1;
            }
        }
        // Both should essentially always succeed with 4/64 marked.
        assert!(exact_found >= trials - 2, "exact: {exact_found}/{trials}");
        assert!(
            analytic_found >= trials - 2,
            "analytic: {analytic_found}/{trials}"
        );
    }

    #[test]
    fn search_known_is_near_certain_for_single_marked() {
        let search = GroverSearch::new(GroverMode::Exact);
        let mut hits = 0;
        for seed in 0..30 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            if search.search_known(256, 1, |x| x == 77, &mut rng).found() {
                hits += 1;
            }
        }
        // Success probability sin²((2j+1)θ) ≈ 1 - 1/256.
        assert!(hits >= 29, "hits {hits}/30");
    }

    #[test]
    fn search_known_zero_marked_accepts() {
        let search = GroverSearch::new(GroverMode::Analytic);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let r = search.search_known(64, 0, |_| false, &mut rng);
        assert!(r.result.is_none());
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn iteration_scaling_is_sqrt() {
        // Average BBHT iterations with one marked element scales like √M.
        let avg_iters = |dim: usize| -> f64 {
            let mut total = 0u64;
            let trials = 30;
            for seed in 0..trials {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let r = GroverSearch::new(GroverMode::Analytic).search(dim, |x| x == 0, &mut rng);
                assert!(r.found());
                total += r.iterations;
            }
            total as f64 / trials as f64
        };
        let a = avg_iters(256);
        let b = avg_iters(4096);
        let ratio = b / a;
        // √(4096/256) = 4; allow generous noise.
        assert!(
            ratio > 2.0 && ratio < 8.0,
            "iteration ratio {ratio} not ~4 (a={a}, b={b})"
        );
    }
}
