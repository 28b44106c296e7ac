//! Odd-cycle detection (§3.4): `C_{2k+1}`-freeness with one-sided success
//! probability `Ω(1/n)` in constant rounds, quantum-amplifiable to
//! `Õ(√n)` (tight by the paper's `Ω̃(√n)` lower bound). Each repetition
//! is one `color-BFS` call with the palette `(2k+1, k)` (see
//! [`crate::color_bfs`]), whose sources activate with probability
//! `1/n`, at threshold 4.

use std::ops::ControlFlow;

use congest_graph::Graph;
use congest_quantum::MonteCarloAlgorithm;
use congest_sim::{derive_seed, Backend, RunReport};

use crate::color_bfs::{ColorBfsCall, Coloring, CostedRun, Launch, Palette, VerdictSession};
use crate::detector::RunOptions;
use crate::randomized::RANDOMIZED_THRESHOLD;
use crate::witness::{DetectionOutcome, SetsSummary};

/// The §3.4 odd-cycle detector: decides `C_{2k+1}`-freeness with
/// one-sided success probability `Ω(1/n)` per repetition, in constant
/// rounds per repetition.
///
/// Wrap with [`OddCycleDetector::as_monte_carlo`] and amplify with
/// [`congest_quantum::MonteCarloAmplifier`] for the `Õ(√n)` quantum
/// algorithm of Theorem 2.
///
/// ```
/// use congest_graph::generators;
/// use even_cycle::OddCycleDetector;
/// let g = generators::cycle(5);
/// // k = 2: looking for C5. Success is Ω(1/n) per repetition, so give
/// // it a few times n repetitions.
/// let det = OddCycleDetector::new(2, 64);
/// let found = (0..40).any(|seed| det.run(&g, seed).rejected());
/// assert!(found);
/// ```
#[derive(Debug, Clone)]
pub struct OddCycleDetector {
    k: usize,
    repetitions: usize,
}

impl OddCycleDetector {
    /// Creates a detector for `C_{2k+1}` (`k ≥ 1`) running `repetitions`
    /// coloring iterations per [`OddCycleDetector::run`].
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `repetitions == 0`.
    pub fn new(k: usize, repetitions: usize) -> Self {
        assert!(k >= 1, "odd cycles start at C3 (k = 1)");
        assert!(repetitions >= 1, "at least one repetition");
        OddCycleDetector { k, repetitions }
    }

    /// The target cycle length `2k + 1`.
    pub fn cycle_length(&self) -> usize {
        2 * self.k + 1
    }

    /// Overrides the repetition count.
    ///
    /// # Panics
    ///
    /// Panics if `repetitions == 0`.
    pub fn with_repetitions(mut self, repetitions: usize) -> Self {
        assert!(repetitions >= 1, "at least one repetition");
        self.repetitions = repetitions;
        self
    }

    /// Runs the detector; all randomness derives from `seed`.
    pub fn run(&self, g: &Graph, seed: u64) -> DetectionOutcome {
        self.run_with_bandwidth(g, seed, 1)
    }

    /// [`OddCycleDetector::run`] at per-edge bandwidth `B` (words per
    /// round); the protocol is unchanged, supersteps are charged
    /// `⌈load/B⌉` rounds.
    pub fn run_with_bandwidth(&self, g: &Graph, seed: u64, bandwidth: u64) -> DetectionOutcome {
        self.run_on_backend(g, seed, bandwidth, Backend::Sequential)
    }

    /// [`OddCycleDetector::run_with_bandwidth`] on an explicit
    /// simulation [`Backend`]; the outcome is byte-identical whatever
    /// the backend.
    pub fn run_on_backend(
        &self,
        g: &Graph,
        seed: u64,
        bandwidth: u64,
        backend: Backend,
    ) -> DetectionOutcome {
        let options = RunOptions {
            bandwidth,
            backend,
            ..Default::default()
        };
        self.run_capped(g, seed, &options)
    }

    /// The costed run under `options` (its caps abort the repetition
    /// loop, flagging the outcome; a rejection always stops it).
    fn run_capped(&self, g: &Graph, seed: u64, options: &RunOptions) -> DetectionOutcome {
        let n = g.node_count();
        let all = vec![true; n];
        let mut run = CostedRun::new(g, options, RunReport::empty());
        let _ = self.walk_calls(&all, seed, |call| run.visit(call));
        run.into_outcome(SetsSummary {
            u_size: n,
            s_size: 0,
            w_size: 0,
            tau: RANDOMIZED_THRESHOLD,
            selection_probability: 1.0 / n as f64,
        })
    }

    /// Walks the calls of one run in order, one per repetition, on the
    /// host and launch set `all` (every node); stops when `visit`
    /// breaks. The costed run and [`OddMc`] both walk the calls through
    /// here.
    fn walk_calls(
        &self,
        all: &[bool],
        seed: u64,
        mut visit: impl FnMut(&ColorBfsCall<'_>) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let n = all.len();
        let palette = Palette::odd(self.k);
        let launch = Launch {
            activation: Some(1.0 / n as f64),
            tau: RANDOMIZED_THRESHOLD,
        };
        for r in 0..self.repetitions as u64 {
            visit(&ColorBfsCall {
                palette,
                launch,
                iteration: r + 1,
                phase: None,
                coloring: &Coloring::new(n, palette, derive_seed(seed, 0x0DD + r)),
                h_mask: all,
                x_mask: all,
                seed: derive_seed(seed, 0xE000 + r),
            })?;
        }
        ControlFlow::Continue(())
    }

    /// An upper bound on the rounds of one run.
    pub fn round_bound(&self) -> u64 {
        let k = self.k as u64;
        self.repetitions as u64 * (2 + (k + 2) * 4)
    }

    /// The one-sided success probability per run (§3.4): a repetition
    /// succeeds when the cycle is well colored (probability
    /// `(2k+1)^{-(2k+1)}`), its origin activates (probability `1/n`), and
    /// no threshold discards (constant probability, bounded by ½ here).
    /// Repetitions add up; capped at ½.
    pub fn success_probability(&self, n: usize) -> f64 {
        let l = (2 * self.k + 1) as f64;
        let per_rep = (1.0 / l).powf(l) / (2.0 * n as f64);
        (per_rep * self.repetitions as f64).min(0.5)
    }

    /// Wraps the detector as a Monte-Carlo algorithm over a fixed graph:
    /// one verdict-only evaluator, whose simulated calls step on
    /// `backend`, for every seed of an amplification.
    pub fn as_monte_carlo<'a>(&'a self, g: &'a Graph, backend: Backend) -> OddMc<'a> {
        let lengths = Palette::odd(self.k).cycle_lengths();
        OddMc {
            det: self,
            g,
            all: vec![true; g.node_count()],
            verdicts: VerdictSession::new(g, lengths, backend),
        }
    }
}

impl crate::Detector for OddCycleDetector {
    fn descriptor(&self) -> crate::Descriptor {
        crate::Descriptor {
            name: "constant-round odd color-BFS",
            reference: "this paper §3.4",
            model: crate::Model::Classical,
            // Success Ω(1/n) per constant-round repetition: classical
            // amplification to constant success costs Θ̃(n), the [15,30]
            // row's shape.
            target: crate::Target::Odd { k: self.k },
            exponent: 1.0,
            table1: Some(crate::theory::Table1Row::KorhonenRybickiOdd),
        }
    }

    fn detect(&self, g: &Graph, seed: u64, budget: &crate::Budget) -> crate::DetectResult {
        let det = match budget.repetitions {
            Some(r) => self.clone().with_repetitions(r),
            None => self.clone(),
        };
        let outcome = det.run_capped(g, seed, &RunOptions::capped(budget));
        Ok(budget.enforce(outcome.into_detection(self.descriptor())))
    }
}

/// [`OddCycleDetector`] as a [`MonteCarloAlgorithm`], answered by a
/// verdict-only evaluator that simulates only the calls that can
/// reject.
///
/// An evaluation of a seed walks the same calls as
/// [`OddCycleDetector::run`] with that seed and stops at the first
/// rejecting call, as the run does. Only a node on a `C_{2k+1}` of the
/// graph is a launch candidate, and on a graph without one the
/// evaluation answers `false` without walking a call. Each call is
/// simulated, with exactly the run's coins (probability `1/n` each),
/// only if some candidate colored 0 drew an active coin and closes a
/// well-colored `C_{2k+1}`; the repetition's coloring is drawn only
/// when some candidate's coin is up. Any other call cannot reject: only
/// a source sends an identifier, the node colored `k` rejects only when
/// one identifier reaches it along both the length-`k` and the
/// length-`(k+1)` branch, which close a simple `C_{2k+1}` through the
/// source, and the threshold only keeps identifiers back. A source on
/// no `C_{2k+1}` still fills thresholds, so a simulated call reads
/// every node's coin. The evaluator computes its candidates once and
/// keeps its simulation session and its coin and walk scratch from one
/// seed to the next. Its round bound holds at any bandwidth.
#[derive(Debug)]
pub struct OddMc<'a> {
    det: &'a OddCycleDetector,
    g: &'a Graph,
    /// Every node: the host subgraph and the launch set of each call.
    all: Vec<bool>,
    pub(crate) verdicts: VerdictSession,
}

impl MonteCarloAlgorithm for OddMc<'_> {
    fn rejects(&mut self, seed: u64) -> bool {
        if !self.verdicts.can_reject() {
            return false;
        }
        let (g, verdicts) = (self.g, &mut self.verdicts);
        self.det
            .walk_calls(&self.all, seed, |call| verdicts.call_verdict(g, call))
            .is_break()
    }

    fn round_bound(&self) -> u64 {
        self.det.round_bound()
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
    fn detects_c5_eventually() {
        let g = generators::cycle(5);
        let det = OddCycleDetector::new(2, 200);
        let mut found = false;
        for seed in 0..20 {
            let o = det.run(&g, seed);
            if o.rejected() {
                let w = o.witness().unwrap();
                assert_eq!(w.len(), 5);
                assert!(w.is_valid(&g));
                found = true;
                break;
            }
        }
        assert!(found, "C5 never detected across seeds");
    }

    #[test]
    fn detects_c3() {
        let g = generators::complete(4); // plenty of triangles
        let det = OddCycleDetector::new(1, 100);
        let mut found = false;
        for seed in 0..20 {
            let o = det.run(&g, seed);
            if o.rejected() {
                assert_eq!(o.witness().unwrap().len(), 3);
                assert!(o.witness().unwrap().is_valid(&g));
                found = true;
                break;
            }
        }
        assert!(found, "triangle never detected");
    }

    #[test]
    fn soundness_on_bipartite_graphs() {
        // Bipartite graphs have no odd cycles at all.
        let det = OddCycleDetector::new(2, 50);
        for seed in 0..5 {
            let g = generators::random_bipartite(20, 20, 0.2, seed);
            assert!(!det.run(&g, seed).rejected(), "seed {seed}");
        }
    }

    #[test]
    fn soundness_on_c7_free() {
        // C5 contains no C7; the k = 3 detector must accept it.
        let g = generators::cycle(5);
        let det = OddCycleDetector::new(3, 100);
        for seed in 0..5 {
            assert!(!det.run(&g, seed).rejected());
        }
    }

    #[test]
    fn congestion_constant() {
        let g = generators::erdos_renyi(100, 0.08, 1);
        let det = OddCycleDetector::new(2, 30);
        let o = det.run(&g, 2);
        assert!(o.report.congestion.max_words_per_edge_step <= 4);
    }

    #[test]
    fn a_call_without_an_active_source_only_says_hello() {
        use crate::color_bfs::has_active_source;
        use congest_sim::Executor;
        // The lemma behind the verdict-only oracle, on the calls of real
        // runs: a costed call whose coins activate no source delivers
        // its Hello round and nothing else, and no node rejects.
        let det = OddCycleDetector::new(2, 20);
        let (mut silent, mut sourced) = (0, 0);
        for g in [generators::cycle(5), generators::complete(6)] {
            let all = vec![true; g.node_count()];
            let mut session = Executor::new(Backend::Sequential);
            let mut coins = Vec::new();
            for seed in 0..10 {
                let _ = det.walk_calls(&all, seed, |call| {
                    if has_active_source(&mut coins, call, &all) {
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
    fn monte_carlo_wrapper() {
        let g = generators::cycle(5);
        let det = OddCycleDetector::new(2, 50);
        let mut mc = det.as_monte_carlo(&g, Backend::Sequential);
        assert!(mc.success_probability() > 0.0);
        assert!(mc.round_bound() > 0);
        for seed in 0..20 {
            assert_eq!(
                mc.rejects(seed),
                det.run(&g, seed).rejected(),
                "seed {seed}"
            );
        }
    }
}
