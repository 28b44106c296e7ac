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

use congest_graph::Graph;
use congest_quantum::MonteCarloAlgorithm;

use crate::color_bfs::{Launch, Palette, VerdictSession};
use crate::detector::{draw_selection, light_mask, CallSets, CycleDetector, RunOptions};
use crate::params::{Instance, Params};
use crate::witness::DetectionOutcome;
use crate::Budget;

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

    /// Runs the low-probability detector once with the given seed, under
    /// `budget` (read as [`CycleDetector::run`] reads it).
    pub fn run(&self, g: &Graph, seed: u64, budget: &Budget) -> DetectionOutcome {
        self.run_with(g, seed, budget, &RunOptions::default())
    }

    /// [`LowProbDetector::run`] with the test hooks of `options`.
    /// Algorithm 1's set construction (Instructions 1–5) is unchanged;
    /// only the `color-BFS` calls are randomized.
    pub fn run_with(
        &self,
        g: &Graph,
        seed: u64,
        budget: &Budget,
        options: &RunOptions,
    ) -> DetectionOutcome {
        CycleDetector::new(self.params.clone()).run_calls(g, seed, budget, options, true)
    }

    /// An upper bound on the rounds of one run under `budget`: setup +
    /// `K` iterations of three `(k+2)`-superstep calls, each superstep
    /// carrying at most [`RANDOMIZED_THRESHOLD`] words per edge and so
    /// charged `⌈threshold/B⌉` rounds at the budget's bandwidth `B`.
    /// The budget's repetition override replaces `K`.
    pub fn round_bound(&self, n: usize, budget: &Budget) -> u64 {
        let k = self.params.k as u64;
        let repetitions = budget.repetitions.unwrap_or(self.params.repetitions) as u64;
        let per_call = 1 + (k + 1) * RANDOMIZED_THRESHOLD.div_ceil(budget.bandwidth.max(1));
        2 + repetitions * 3 * per_call + (n == 0) as u64
    }

    /// The Lemma 12 one-sided success probability `1/(3τ)` for an
    /// `n`-vertex graph.
    pub fn success_probability(&self, n: usize) -> f64 {
        1.0 / (3.0 * self.params.instantiate(n).tau as f64)
    }

    /// Wraps the detector as a [`MonteCarloAlgorithm`] over a fixed
    /// graph, for quantum amplification: one verdict-only evaluator for
    /// every seed of an amplification. It reads from `budget` what a
    /// verdict and the declared round bound depend on: the repetition
    /// override, the backend its simulated calls step on and the
    /// bandwidth of [`LowProbDetector::round_bound`]. Caps and
    /// [`Budget::run_to_budget`] change no verdict.
    ///
    /// # Panics
    ///
    /// Panics if `g` is empty.
    pub fn as_monte_carlo<'a>(&'a self, g: &'a Graph, budget: &Budget) -> LowProbMc<'a> {
        let inst = self.params.instantiate(g.node_count());
        let lengths = Palette::even(self.params.k).cycle_lengths();
        LowProbMc {
            det: self,
            g,
            budget: budget.clone(),
            u_mask: light_mask(g, &inst),
            all: vec![true; g.node_count()],
            inst,
            s_mask: Vec::new(),
            not_s: Vec::new(),
            w_mask: Vec::new(),
            verdicts: VerdictSession::new(g, lengths, budget),
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

    fn detect(&self, g: &Graph, seed: u64, budget: &Budget) -> crate::DetectResult {
        let outcome = self.run(g, seed, budget);
        Ok(budget.enforce(outcome.into_detection(self.descriptor())))
    }
}

/// [`LowProbDetector`] viewed as a seedable Monte-Carlo algorithm on a
/// fixed graph (the object Theorem 3 amplifies), answered by a
/// verdict-only evaluator that simulates only the calls that can
/// reject.
///
/// An evaluation of a seed finds the same sets and walks the same calls
/// as [`LowProbDetector::run`] with that seed under the evaluator's
/// budget, uncapped, stopping at the first rejecting call as the run
/// does, and draws only what its verdict reads:
///
/// * only a node of `X ∩ H` that lies on a `2k`-cycle of the graph is a
///   launch candidate; on a graph with no `2k`-cycle it answers `false`
///   without drawing anything;
/// * it computes `S` and `W` from the set-up round's own coins instead
///   of simulating the round;
/// * each call is simulated, with exactly the run's coins, only if some
///   candidate is an active source that closes a well-colored
///   `2k`-cycle within `H`; a call without a candidate draws no coin,
///   and an iteration's coloring is drawn only when some candidate has
///   its coin up.
///
/// Any other call cannot reject: only an active source sends an
/// identifier (Instruction 15), every later message forwards
/// identifiers a node received from its neighbors of the color before
/// it in `H`, a node rejects only when one identifier reaches it along
/// both branches (Instructions 24–28), which close a simple `2k`-cycle
/// through the source, and the threshold only keeps identifiers back.
/// A source on no `2k`-cycle still fills thresholds, so a simulated
/// call reads every node's coin.
///
/// The evaluator keeps its buffers (the simulation session, the coin
/// and walk scratch, the sets) from one seed to the next; the
/// seed-independent `U` and launch candidates are computed once. The
/// bandwidth only scales the round bound charged per `Setup`, so no
/// evaluation reads it.
#[derive(Debug)]
pub struct LowProbMc<'a> {
    det: &'a LowProbDetector,
    g: &'a Graph,
    /// The repetition override and the bandwidth of the round bound.
    budget: Budget,
    inst: Instance,
    /// `U` and `V`, which no seed changes.
    u_mask: Vec<bool>,
    all: Vec<bool>,
    /// `S`, `V ∖ S` and `W` of the seed evaluated last.
    s_mask: Vec<bool>,
    not_s: Vec<bool>,
    w_mask: Vec<bool>,
    pub(crate) verdicts: VerdictSession,
}

impl MonteCarloAlgorithm for LowProbMc<'_> {
    fn rejects(&mut self, seed: u64) -> bool {
        if !self.verdicts.can_reject() {
            return false;
        }
        let (g, k) = (self.g, self.det.params.k);
        draw_selection(g, &self.inst, seed, &mut self.s_mask, &mut self.w_mask);
        self.not_s.clear();
        self.not_s.extend(self.s_mask.iter().map(|&b| !b));
        let sets = CallSets {
            u: &self.u_mask,
            all: &self.all,
            s: &self.s_mask,
            not_s: &self.not_s,
            w: &self.w_mask,
        };
        let launch = Launch::new(self.inst.tau, true);
        let reps = self
            .budget
            .repetitions
            .unwrap_or(self.det.params.repetitions);
        let verdicts = &mut self.verdicts;
        sets.walk_calls(k, reps, seed, None, launch, |call| {
            verdicts.call_verdict(g, call)
        })
        .is_break()
    }

    fn round_bound(&self) -> u64 {
        self.det.round_bound(self.g.node_count(), &self.budget)
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
        let outcome = det.run(&g, 5, &Budget::classical());
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
            assert!(!det.run(&g, seed, &Budget::classical()).rejected());
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
            let outcome = det.run(&g, seed, &Budget::classical());
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
    fn a_call_without_an_active_source_only_says_hello() {
        // The lemma behind the verdict-only oracle, on the calls of real
        // runs: a costed call whose coins activate no source delivers
        // its Hello round and nothing else, and no node rejects.
        use crate::color_bfs::has_active_source;
        use congest_sim::{Backend, Executor};
        use std::ops::ControlFlow;
        let det = LowProbDetector::new(Params::practical(2).with_repetitions(8));
        let scaffold = CycleDetector::new(det.params().clone());
        let (mut silent, mut sourced) = (0, 0);
        let host = generators::random_tree(32, 5);
        for g in [
            generators::complete_bipartite(6, 6),
            generators::plant_cycle(&host, 4, 5).0,
        ] {
            let mut session = Executor::new(Backend::Sequential);
            let (mut coins, every_node) = (Vec::new(), vec![true; g.node_count()]);
            for seed in 0..10 {
                let (inst, sets) = scaffold.build_memberships(
                    &g,
                    seed,
                    &Budget::classical(),
                    &RunOptions::default(),
                );
                let launch = Launch::new(inst.tau, true);
                let _ = sets.walk_calls(2, 8, seed, None, launch, |call| {
                    if has_active_source(&mut coins, call, &every_node) {
                        sourced += 1;
                        return ControlFlow::Continue(());
                    }
                    silent += 1;
                    let report = call.simulate(&mut session, &g);
                    assert_eq!(
                        report.congestion.total_messages,
                        g.directed_edge_count() as u64
                    );
                    assert!(report.rejecting_nodes.is_empty());
                    ControlFlow::Continue(())
                });
            }
        }
        assert!(
            silent > 0 && sourced > 0,
            "{silent} silent, {sourced} sourced"
        );
    }

    #[test]
    fn monte_carlo_wrapper_consistency() {
        let host = generators::random_tree(40, 2);
        let (g, _) = generators::plant_cycle(&host, 4, 2);
        let det = LowProbDetector::new(Params::practical(2).with_repetitions(10));
        let mut mc = det.as_monte_carlo(&g, &Budget::classical());
        for seed in 0..20 {
            assert_eq!(
                mc.rejects(seed),
                det.run(&g, seed, &Budget::classical()).rejected(),
                "seed {seed}"
            );
        }
        assert!(mc.round_bound() > 0);
        assert!(mc.success_probability() > 0.0 && mc.success_probability() < 1.0);
    }
}
