//! Algorithm 2 (`randomized-color-BFS`) and the Lemma 12
//! low-success-probability detector — the congestion-reduction step of
//! the quantum pipeline (§3.2.1–§3.2.2).
//!
//! Compared to Algorithm 1: each `x ∈ X` colored 0 launches a search only
//! with probability `1/τ` (Instruction 1 of Algorithm 2), and the
//! forwarding threshold drops from `τ` to the constant 4 (Instruction 5).
//! The round complexity collapses to `k^{O(k)}` while the one-sided
//! success probability drops to `1/(3τ)` (Lemma 12) — exactly the trade
//! Theorem 3 amplifies back quadratically faster than classical
//! repetition.

use congest_graph::{CycleWitness, Graph};
use congest_quantum::{McOutcome, MonteCarloAlgorithm};
use congest_sim::{derive_seed, Decision, Executor};

use crate::detector::{random_coloring, run_color_bfs_backend, CycleDetector, RunOptions};
use crate::params::Params;
use crate::witness::{extract_even_witness, DetectionOutcome, Phase, SetsSummary};

/// The constant threshold of `randomized-color-BFS` (Algorithm 2,
/// Instruction 5).
pub const RANDOMIZED_THRESHOLD: u64 = 4;

/// The Lemma 12 detector: Algorithm 1 with `color-BFS` replaced by
/// `randomized-color-BFS`.
///
/// * Round complexity: `O(k·(2k)^{2k})` — constant in `n`;
/// * Congestion: at most [`RANDOMIZED_THRESHOLD`] words per edge per
///   step;
/// * One-sided success probability: `1/(3τ)` with
///   `τ = Θ(n^{1-1/k})`.
///
/// Use [`LowProbDetector::as_monte_carlo`] to feed it to
/// [`congest_quantum::MonteCarloAmplifier`].
#[derive(Debug, Clone)]
pub struct LowProbDetector {
    params: Params,
}

impl LowProbDetector {
    /// Creates the detector (the `Params` play the same role as in
    /// [`CycleDetector`]).
    pub fn new(params: Params) -> Self {
        LowProbDetector { params }
    }

    /// The parameters in use.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Runs the low-probability detector once with the given seed.
    pub fn run(&self, g: &Graph, seed: u64) -> DetectionOutcome {
        self.run_with(g, seed, &RunOptions::default())
    }

    /// Runs with experiment hooks (see [`RunOptions`]).
    pub fn run_with(&self, g: &Graph, seed: u64, options: &RunOptions) -> DetectionOutcome {
        let k = self.params.k;
        // Reuse Algorithm 1's set construction (Instructions 1–5 are
        // unchanged).
        let scaffold = CycleDetector::new(self.params.clone());
        let (inst, sets) = scaffold.build_memberships(g, seed, options);
        let mut total = sets.setup_report.clone();
        let sets_summary = SetsSummary {
            u_size: sets.u_mask.iter().filter(|&&b| b).count(),
            s_size: sets.s_mask.iter().filter(|&&b| b).count(),
            w_size: sets.w_mask.iter().filter(|&&b| b).count(),
            tau: inst.tau,
            selection_probability: inst.selection_probability,
        };
        let activation = 1.0 / inst.tau as f64;
        let all_mask = vec![true; g.node_count()];
        let not_s_mask: Vec<bool> = sets.s_mask.iter().map(|&b| !b).collect();

        let mut decision = Decision::Accept;
        let mut witness: Option<CycleWitness> = None;
        let mut phase_found: Option<Phase> = None;
        let mut iterations = 0u64;
        let mut budget_exceeded = false;
        let mut session = Executor::new(options.backend);
        session.set_bandwidth(options.bandwidth);

        'outer: for r in 0..self.params.repetitions as u64 {
            iterations = r + 1;
            let colors = match &options.forced_coloring {
                Some(c) => c.clone(),
                None => random_coloring(g.node_count(), 2 * k, derive_seed(seed, 0xC0 + r)),
            };
            let phases: [(Phase, &[bool], &[bool]); 3] = [
                (Phase::Light, &sets.u_mask, &sets.u_mask),
                (Phase::Selected, &all_mask, &sets.s_mask),
                (Phase::Heavy, &not_s_mask, &sets.w_mask),
            ];
            for (idx, (phase, h_mask, x_mask)) in phases.into_iter().enumerate() {
                let result = run_color_bfs_backend(
                    &mut session,
                    g,
                    k,
                    &colors,
                    h_mask,
                    x_mask,
                    Some(activation),
                    RANDOMIZED_THRESHOLD,
                    derive_seed(seed, 0xF000 + r * 3 + idx as u64),
                );
                total.absorb(&result.report);
                if let Some((v, origin)) = result.rejection {
                    decision = Decision::Reject;
                    phase_found = Some(phase);
                    let w = extract_even_witness(g, h_mask, &colors, k, origin, v)
                        .expect("rejection must be certifiable");
                    witness = Some(w);
                    if !options.continue_after_reject {
                        break 'outer;
                    }
                }
                if options.caps_exceeded(&total) {
                    budget_exceeded = true;
                    break 'outer;
                }
            }
        }

        DetectionOutcome {
            decision,
            witness,
            phase: phase_found,
            iterations,
            report: total,
            sets: sets_summary,
            budget_exceeded,
        }
    }

    /// An upper bound on the rounds of one run: setup + `K` iterations of
    /// three `(k+2)`-superstep calls, each superstep carrying at most
    /// [`RANDOMIZED_THRESHOLD`] words per edge.
    pub fn round_bound(&self, n: usize) -> u64 {
        self.round_bound_bw(n, 1)
    }

    /// [`LowProbDetector::round_bound`] at per-edge bandwidth `B`: each
    /// superstep is charged `⌈threshold/B⌉` rounds instead of the full
    /// threshold.
    pub fn round_bound_bw(&self, n: usize, bandwidth: u64) -> u64 {
        let k = self.params.k as u64;
        let per_call = 1 + (k + 1) * RANDOMIZED_THRESHOLD.div_ceil(bandwidth.max(1));
        2 + self.params.repetitions as u64 * 3 * per_call + (n == 0) as u64
    }

    /// The Lemma 12 one-sided success probability `1/(3τ)` for an
    /// `n`-vertex graph.
    pub fn success_probability(&self, n: usize) -> f64 {
        1.0 / (3.0 * self.params.instantiate(n).tau as f64)
    }

    /// Wraps the detector as a [`MonteCarloAlgorithm`] over a fixed
    /// graph, for quantum amplification.
    pub fn as_monte_carlo<'a>(&'a self, g: &'a Graph) -> LowProbMc<'a> {
        LowProbMc {
            det: self,
            g,
            bandwidth: 1,
        }
    }
}

// audit:allow(R6): Lemma 12 building block — exercised directly by unit
// tests and amplified into the registered quantum pipelines; it is not a
// Table 1 row, so the sweep registry deliberately omits it.
impl crate::Detector for LowProbDetector {
    fn descriptor(&self) -> crate::Descriptor {
        crate::Descriptor {
            name: "randomized color-BFS (Lemma 12)",
            reference: "this paper §3.2",
            model: crate::Model::Classical,
            target: crate::Target::Even { k: self.params.k },
            // k^{O(k)} rounds — constant in n (the success probability,
            // not the round count, carries the n-dependence).
            exponent: 0.0,
            table1: None,
        }
    }

    fn detect(&self, g: &Graph, seed: u64, budget: &crate::Budget) -> crate::DetectResult {
        let det = match budget.repetitions {
            Some(r) => LowProbDetector::new(self.params.clone().with_repetitions(r)),
            None => self.clone(),
        };
        let opts = RunOptions {
            bandwidth: budget.bandwidth,
            continue_after_reject: budget.run_to_budget,
            round_cap: budget.max_rounds,
            message_cap: budget.max_messages,
            backend: budget.backend,
            ..Default::default()
        };
        Ok(budget.enforce(
            det.run_with(g, seed, &opts)
                .into_detection(self.descriptor()),
        ))
    }
}

/// [`LowProbDetector`] viewed as a seedable Monte-Carlo algorithm on a
/// fixed graph (the object Theorem 3 amplifies).
#[derive(Debug, Clone)]
pub struct LowProbMc<'a> {
    det: &'a LowProbDetector,
    g: &'a Graph,
    bandwidth: u64,
}

impl LowProbMc<'_> {
    /// Sets the per-edge bandwidth charged to the base runs.
    pub fn with_bandwidth(mut self, bandwidth: u64) -> Self {
        assert!(bandwidth > 0, "bandwidth must be positive");
        self.bandwidth = bandwidth;
        self
    }
}

impl MonteCarloAlgorithm for LowProbMc<'_> {
    fn run(&self, seed: u64) -> McOutcome {
        let opts = RunOptions {
            bandwidth: self.bandwidth,
            ..Default::default()
        };
        let outcome = self.det.run_with(self.g, seed, &opts);
        McOutcome {
            rejected: outcome.rejected(),
            rounds: outcome.report.rounds,
        }
    }

    fn round_bound(&self) -> u64 {
        self.det.round_bound_bw(self.g.node_count(), self.bandwidth)
    }

    fn success_probability(&self) -> f64 {
        self.det.success_probability(self.g.node_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;

    #[test]
    fn congestion_is_constant() {
        // Whatever the graph, randomized-color-BFS keeps the max per-edge
        // load at RANDOMIZED_THRESHOLD words (Lemma 12's congestion
        // claim). Setup and hello rounds carry 1 word.
        let host = generators::erdos_renyi(120, 0.05, 3);
        let (g, _) = generators::plant_cycle(&host, 4, 3);
        let det = LowProbDetector::new(Params::practical(2).with_repetitions(20));
        let outcome = det.run(&g, 5);
        assert!(
            outcome.report.congestion.max_words_per_edge_step <= RANDOMIZED_THRESHOLD,
            "congestion {} exceeds the constant threshold",
            outcome.report.congestion.max_words_per_edge_step
        );
    }

    #[test]
    fn soundness_preserved() {
        let det = LowProbDetector::new(Params::practical(2).with_repetitions(30));
        for seed in 0..5 {
            let g = generators::random_tree(60, seed);
            assert!(!det.run(&g, seed).rejected());
        }
    }

    #[test]
    fn rejections_still_certified() {
        // Detection is rare by design; force it with a dense instance
        // where τ is small and many iterations run.
        let g = generators::complete_bipartite(6, 6); // plenty of C4s
        let det = LowProbDetector::new(Params::practical(2).with_repetitions(200));
        let mut detected = 0;
        for seed in 0..8 {
            let outcome = det.run(&g, seed);
            if outcome.rejected() {
                detected += 1;
                let w = outcome.witness().unwrap();
                assert_eq!(w.len(), 4);
                assert!(w.is_valid(&g));
            }
        }
        assert!(detected > 0, "no detection in 8 × 200 iterations");
    }

    #[test]
    fn success_probability_formula() {
        let det = LowProbDetector::new(Params::practical(2));
        let inst = det.params().instantiate(1000);
        let eps = det.success_probability(1000);
        assert!((eps - 1.0 / (3.0 * inst.tau as f64)).abs() < 1e-12);
    }

    #[test]
    fn monte_carlo_wrapper_consistency() {
        let host = generators::random_tree(40, 2);
        let (g, _) = generators::plant_cycle(&host, 4, 2);
        let det = LowProbDetector::new(Params::practical(2).with_repetitions(10));
        let mc = det.as_monte_carlo(&g);
        let a = mc.run(7);
        let b = mc.run(7);
        assert_eq!(a, b, "deterministic by seed");
        assert!(mc.round_bound() > 0);
        assert!(mc.success_probability() > 0.0 && mc.success_probability() < 1.0);
    }
}
