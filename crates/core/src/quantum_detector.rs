//! The quantum `C_{2k}`-freeness detector (Theorem 2 / Lemma 13) and its
//! odd-cycle / `F_{2k}` siblings.
//!
//! Pipeline (shared by all three, factored into [`run_pipeline`]):
//! (1) reduce the success probability and congestion with a
//! constant-congestion classical base detector; (2) amplify
//! quadratically with distributed quantum Monte-Carlo amplification
//! (Theorem 3); (3) remove the diameter dependence with the Lemma 9
//! network decomposition, running the amplified detector on each
//! diameter-`O(k log n)` component. Totals:
//! `k^{O(k)}·polylog(n)·n^{1/2-1/2k}` rounds for `C_{2k}` and `F_{2k}`,
//! `Õ(√n)` for `C_{2k+1}`, all with one-sided error.

use congest_graph::{CycleWitness, Graph};
use congest_quantum::decomposition::{decompose, reduced_components};
use congest_quantum::{GroverMode, MonteCarloAlgorithm, MonteCarloAmplifier, WithSuccess};
use congest_sim::{derive_seed, Backend};

use crate::params::Params;
use crate::randomized::LowProbDetector;
use crate::{Budget, Descriptor, DetectResult, Detection, Detector, RunCost, Verdict};

/// The result of the quantum pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantumOutcome {
    /// Whether a target cycle was found (one-sided: never true on a
    /// target-free graph).
    pub rejected: bool,
    /// The verified witness, mapped back to the input graph's ids.
    pub witness: Option<CycleWitness>,
    /// Total quantum rounds charged: decomposition + per-color maxima of
    /// the amplified runs (components of one color run in parallel;
    /// colors run sequentially, per Lemma 9).
    pub quantum_rounds: u64,
    /// What classical amplification of the same low-probability detector
    /// would cost, summed the same way — the quadratic-speedup
    /// comparison.
    pub classical_rounds: u64,
    /// Rounds charged for the network decomposition (Lemma 10).
    pub decomposition_rounds: u64,
    /// Total Grover iterations over all components.
    pub iterations: u64,
    /// Number of diameter-reduced components processed.
    pub components: usize,
    /// Number of cluster colors in the decomposition.
    pub colors: u32,
    /// Classical base-detector runs the simulator *models* over all
    /// components (not part of the quantum cost model).
    pub classical_evals: u64,
    /// Base-detector verdicts that were actually evaluated: one per
    /// distinct seed each component's amplification asked for (each a
    /// verdict-only evaluation, which simulates only the calls that can
    /// reject). At most `classical_evals`.
    pub simulations: u64,
    /// Whether the component loop was aborted by a
    /// [`Budget`](crate::Budget) round cap (the decision is then
    /// untrusted; components after the abort were never amplified).
    pub budget_exceeded: bool,
}

impl QuantumOutcome {
    /// Converts into the unified [`Detection`] surface: `rounds` are the
    /// pipeline's quantum rounds, `iterations` the Grover iterations.
    /// Message/word/congestion statistics are not part of the quantum
    /// cost model and report 0.
    pub fn into_detection(self, algorithm: Descriptor) -> Detection {
        let cycle_length = self.witness.as_ref().map(|w| w.len());
        let verdict = if self.rejected {
            Verdict::Reject {
                witness: self.witness,
                cycle_length,
            }
        } else if self.budget_exceeded {
            Verdict::BudgetExceeded {
                rounds: self.quantum_rounds,
                messages: 0,
            }
        } else {
            Verdict::Accept
        };
        Detection {
            algorithm,
            verdict,
            cost: RunCost {
                rounds: self.quantum_rounds,
                supersteps: 0,
                messages: 0,
                words: 0,
                max_congestion: 0,
                iterations: self.iterations,
            },
        }
    }
}

/// A constant-congestion classical base detector the quantum pipeline
/// can amplify over a decomposition component.
trait PipelineBase {
    /// The base's verdict-only evaluator on one component.
    type Mc<'a>: MonteCarloAlgorithm
    where
        Self: 'a;

    /// The evaluator that answers every seed of the amplification on
    /// `g`: its simulated calls step on `backend`, and `bandwidth` sizes
    /// the round bound it declares per `Setup` (where that bound
    /// depends on it). It declares the base's own success probability.
    fn monte_carlo<'a>(&'a self, g: &'a Graph, bandwidth: u64, backend: Backend) -> Self::Mc<'a>;

    /// Re-runs the witness seed and extracts the certified cycle.
    fn witness_of(&self, g: &Graph, seed: u64, backend: Backend) -> Option<CycleWitness>;
}

impl PipelineBase for LowProbDetector {
    type Mc<'a> = crate::LowProbMc<'a>;

    fn monte_carlo<'a>(&'a self, g: &'a Graph, bandwidth: u64, backend: Backend) -> Self::Mc<'a> {
        self.as_monte_carlo(g, backend).with_bandwidth(bandwidth)
    }

    fn witness_of(&self, g: &Graph, seed: u64, backend: Backend) -> Option<CycleWitness> {
        let opts = crate::RunOptions {
            backend,
            ..Default::default()
        };
        self.run_with(g, seed, &opts).witness
    }
}

impl PipelineBase for crate::OddCycleDetector {
    type Mc<'a> = crate::OddMc<'a>;

    fn monte_carlo<'a>(&'a self, g: &'a Graph, _bandwidth: u64, backend: Backend) -> Self::Mc<'a> {
        // Constant threshold 4; the B = 1 bound stays valid for B ≥ 1.
        self.as_monte_carlo(g, backend)
    }

    fn witness_of(&self, g: &Graph, seed: u64, backend: Backend) -> Option<CycleWitness> {
        self.run_on_backend(g, seed, 1, backend).witness
    }
}

impl PipelineBase for crate::F2kDetector {
    type Mc<'a> = crate::F2kMc<'a>;

    fn monte_carlo<'a>(&'a self, g: &'a Graph, _bandwidth: u64, backend: Backend) -> Self::Mc<'a> {
        // Constant threshold 4; the B = 1 bound stays valid for B ≥ 1.
        self.as_monte_carlo(g, backend)
    }

    fn witness_of(&self, g: &Graph, seed: u64, backend: Backend) -> Option<CycleWitness> {
        self.run_on_backend(g, seed, 1, backend).witness
    }
}

/// Shared parameters of one pipeline run.
struct PipelineSpec {
    /// Decomposition separation parameter (`2k+1` for even/F2k targets,
    /// `2k+2` for odd).
    separation: u32,
    /// Component enlargement radius (covers any target cycle around any
    /// of its vertices).
    radius: u32,
    /// Components smaller than this cannot contain a target cycle.
    min_nodes: usize,
    /// Seed stream labels for the decomposition and the per-component
    /// amplifications.
    dec_stream: u64,
    comp_stream: u64,
    /// Target one-sided error.
    delta: f64,
    /// Grover simulation mode.
    mode: GroverMode,
    /// Declared success-probability override (shrinks the seed space;
    /// one-sidedness unaffected).
    declared_success: Option<f64>,
    /// Per-edge bandwidth of the decomposition and of the round bound
    /// charged per amplified base run, where that bound depends on it
    /// (see
    /// [`Decomposition::round_cost_at`](congest_quantum::decomposition::Decomposition::round_cost_at)).
    bandwidth: u64,
    /// Simulation backend driving the classical base runs (see
    /// [`crate::Budget::backend`]); outcomes are byte-identical
    /// across backends.
    backend: Backend,
    /// Hard cap on accumulated quantum rounds: the component loop
    /// aborts once the charge so far passes it.
    round_cap: Option<u64>,
}

/// The Lemma 13 pipeline: decomposition, per-component amplification,
/// per-color cost maxima, witness recovery — the code previously
/// triplicated across the three quantum detectors.
fn run_pipeline<B: PipelineBase>(
    g: &Graph,
    seed: u64,
    base: &B,
    spec: &PipelineSpec,
) -> QuantumOutcome {
    let decomposition = decompose(g, spec.separation, derive_seed(seed, spec.dec_stream));
    let components = reduced_components(g, &decomposition, spec.radius);
    // Budget::bandwidth applies to the whole pipeline: the decomposition
    // construction and the round bound charged per amplified Setup
    // (declared by the base's evaluator), where the base's bound
    // depends on it.
    let decomposition_rounds = decomposition.round_cost_at(spec.bandwidth);

    let mut per_color_quantum: std::collections::BTreeMap<u32, u64> =
        std::collections::BTreeMap::new();
    let mut per_color_classical: std::collections::BTreeMap<u32, u64> =
        std::collections::BTreeMap::new();
    let mut iterations = 0u64;
    let mut classical_evals = 0u64;
    let mut simulations = 0u64;
    let mut rejected = false;
    let mut budget_exceeded = false;
    let mut witness: Option<CycleWitness> = None;

    for (ci, comp) in components.iter().enumerate() {
        if comp.graph.node_count() < spec.min_nodes {
            continue; // cannot contain a target cycle
        }
        if spec
            .round_cap
            .is_some_and(|cap| decomposition_rounds + per_color_quantum.values().sum::<u64>() > cap)
        {
            budget_exceeded = true;
            break;
        }
        // One evaluator answers every seed of this amplification.
        let mc = base.monte_carlo(&comp.graph, spec.bandwidth, spec.backend);
        let declared = spec
            .declared_success
            .unwrap_or_else(|| mc.success_probability());
        let mut mc = WithSuccess::new(mc, declared);
        let diameter = congest_graph::analysis::diameter(&comp.graph)
            .expect("components are connected") as u64;
        let amplifier = MonteCarloAmplifier::new(spec.delta)
            .with_diameter(diameter)
            .with_mode(spec.mode);
        let report = amplifier.amplify(&mut mc, derive_seed(seed, spec.comp_stream + ci as u64));
        iterations += report.iterations;
        classical_evals += report.classical_evals;
        simulations += report.simulations;
        let qc = per_color_quantum.entry(comp.color).or_insert(0);
        *qc = (*qc).max(report.quantum_rounds);
        let cc = per_color_classical.entry(comp.color).or_insert(0);
        *cc = (*cc).max(report.classical_rounds_baseline);

        if report.rejected && !rejected {
            rejected = true;
            // Re-run the base detector with the witness seed and map the
            // witness back to the original ids.
            let ws = report.witness_seed.expect("rejected implies witness seed");
            let local_witness = base
                .witness_of(&comp.graph, ws, spec.backend)
                .expect("witness seed reproduces the rejection");
            let mapped = CycleWitness::new(
                local_witness
                    .nodes()
                    .iter()
                    .map(|v| comp.original_ids[v.index()])
                    .collect(),
            );
            assert!(mapped.is_valid(g), "mapped witness must stay valid");
            witness = Some(mapped);
        }
    }

    QuantumOutcome {
        rejected,
        witness,
        quantum_rounds: decomposition_rounds + per_color_quantum.values().sum::<u64>(),
        classical_rounds: decomposition_rounds + per_color_classical.values().sum::<u64>(),
        decomposition_rounds,
        iterations,
        components: components.len(),
        colors: decomposition.colors,
        classical_evals,
        simulations,
        budget_exceeded,
    }
}

/// Theorem 2's quantum `C_{2k}`-freeness algorithm.
///
/// ```
/// use congest_graph::generators;
/// use even_cycle::{Params, QuantumCycleDetector};
///
/// let host = generators::random_tree(32, 5);
/// let (g, _) = generators::plant_cycle(&host, 4, 5);
/// let det = QuantumCycleDetector::new(Params::practical(2).with_repetitions(24), 0.1)
///     .with_declared_success(1.0 / 256.0);
/// let found = (0..4).any(|seed| {
///     let outcome = det.run(&g, seed);
///     if outcome.rejected {
///         assert!(outcome.witness.as_ref().unwrap().is_valid(&g));
///     }
///     outcome.rejected
/// });
/// assert!(found);
/// ```
#[derive(Debug, Clone)]
pub struct QuantumCycleDetector {
    params: Params,
    delta: f64,
    mode: GroverMode,
    declared_success: Option<f64>,
}

impl QuantumCycleDetector {
    /// Creates the detector: `params` configure the underlying Lemma 12
    /// detector, `delta` is the target one-sided error (the paper takes
    /// `1/poly(n)`).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < δ < 1`.
    pub fn new(params: Params, delta: f64) -> Self {
        assert!(delta > 0.0 && delta < 1.0, "δ must be in (0,1)");
        QuantumCycleDetector {
            params,
            delta,
            mode: GroverMode::Analytic,
            declared_success: None,
        }
    }

    /// Selects the Grover simulation mode (default
    /// [`GroverMode::Analytic`]; use [`GroverMode::Sampled`] for large
    /// seed spaces).
    pub fn with_mode(mut self, mode: GroverMode) -> Self {
        self.mode = mode;
        self
    }

    /// Declares a tighter (but still valid) success probability for the
    /// base detector than the pessimistic Lemma 12 bound `1/(3τ)`,
    /// shrinking the amplifier's seed space. See
    /// [`congest_quantum::WithSuccess`]; one-sidedness is unaffected.
    pub fn with_declared_success(mut self, eps: f64) -> Self {
        assert!(eps > 0.0 && eps <= 1.0, "ε must be in (0,1]");
        self.declared_success = Some(eps);
        self
    }

    /// Overrides the base detector's repetition count.
    pub fn with_repetitions(mut self, repetitions: usize) -> Self {
        self.params = self.params.with_repetitions(repetitions);
        self
    }

    /// Runs the full pipeline on `g`.
    pub fn run(&self, g: &Graph, seed: u64) -> QuantumOutcome {
        self.run_with_bandwidth(g, seed, 1)
    }

    /// [`QuantumCycleDetector::run`] with the whole pipeline — the round
    /// bound of the amplified base runs and the decomposition — charged
    /// at per-edge bandwidth `B`.
    pub fn run_with_bandwidth(&self, g: &Graph, seed: u64, bandwidth: u64) -> QuantumOutcome {
        self.run_capped(g, seed, bandwidth, Backend::Sequential, None)
    }

    fn run_capped(
        &self,
        g: &Graph,
        seed: u64,
        bandwidth: u64,
        backend: Backend,
        round_cap: Option<u64>,
    ) -> QuantumOutcome {
        let k = self.params.k;
        let base = LowProbDetector::new(self.params.clone());
        // Lemma 9 uses the decomposition with separation parameter
        // 2k + 1 and enlargement radius k.
        let spec = PipelineSpec {
            separation: 2 * k as u32 + 1,
            radius: k as u32,
            min_nodes: 2 * k,
            dec_stream: 0xDEC,
            comp_stream: 0xA0_00,
            delta: self.delta,
            mode: self.mode,
            declared_success: self.declared_success,
            bandwidth,
            backend,
            round_cap,
        };
        run_pipeline(g, seed, &base, &spec)
    }
}

impl Detector for QuantumCycleDetector {
    fn descriptor(&self) -> Descriptor {
        Descriptor {
            name: "amplified color-BFS pipeline",
            reference: "this paper Thm 2",
            model: crate::Model::Quantum,
            target: crate::Target::Even { k: self.params.k },
            exponent: crate::theory::Table1Row::ThisPaperQuantum.exponent(self.params.k),
            table1: Some(crate::theory::Table1Row::ThisPaperQuantum),
        }
    }

    fn detect(&self, g: &Graph, seed: u64, budget: &Budget) -> DetectResult {
        let det = match budget.repetitions {
            Some(r) => self.clone().with_repetitions(r),
            None => self.clone(),
        };
        let outcome = det.run_capped(g, seed, budget.bandwidth, budget.backend, budget.max_rounds);
        Ok(budget.enforce(outcome.into_detection(self.descriptor())))
    }
}

/// Theorem 2's quantum `C_{2k+1}`-freeness algorithm (§3.4): the
/// constant-round odd-cycle detector with success `Ω(1/n)`, amplified by
/// Theorem 3 over the Lemma 9 components — `Õ(√n)` rounds, which the
/// paper proves optimal for `k ≥ 2`.
#[derive(Debug, Clone)]
pub struct QuantumOddCycleDetector {
    k: usize,
    repetitions: usize,
    delta: f64,
    mode: GroverMode,
    declared_success: Option<f64>,
}

impl QuantumOddCycleDetector {
    /// Creates the detector for `C_{2k+1}` (`k ≥ 1`); `repetitions`
    /// configures the base detector (see
    /// [`crate::OddCycleDetector::new`]).
    ///
    /// # Panics
    ///
    /// Panics unless `k ≥ 1`, `repetitions ≥ 1` and `0 < δ < 1`.
    pub fn new(k: usize, repetitions: usize, delta: f64) -> Self {
        assert!(k >= 1, "odd cycles start at C3");
        assert!(repetitions >= 1, "at least one repetition");
        assert!(delta > 0.0 && delta < 1.0, "δ must be in (0,1)");
        QuantumOddCycleDetector {
            k,
            repetitions,
            delta,
            mode: GroverMode::Analytic,
            declared_success: None,
        }
    }

    /// Selects the Grover simulation mode.
    pub fn with_mode(mut self, mode: GroverMode) -> Self {
        self.mode = mode;
        self
    }

    /// Declares a tighter success probability than the §3.4 bound
    /// (seed-space sizing only; one-sidedness unaffected).
    pub fn with_declared_success(mut self, eps: f64) -> Self {
        assert!(eps > 0.0 && eps <= 1.0, "ε must be in (0,1]");
        self.declared_success = Some(eps);
        self
    }

    /// Overrides the base detector's repetition count.
    ///
    /// # Panics
    ///
    /// Panics if `repetitions == 0`.
    pub fn with_repetitions(mut self, repetitions: usize) -> Self {
        assert!(repetitions >= 1, "at least one repetition");
        self.repetitions = repetitions;
        self
    }

    /// Runs the full pipeline on `g`.
    pub fn run(&self, g: &Graph, seed: u64) -> QuantumOutcome {
        self.run_with_bandwidth(g, seed, 1)
    }

    /// [`QuantumOddCycleDetector::run`] with the whole pipeline charged
    /// at per-edge bandwidth `B`.
    pub fn run_with_bandwidth(&self, g: &Graph, seed: u64, bandwidth: u64) -> QuantumOutcome {
        self.run_capped(g, seed, bandwidth, Backend::Sequential, None)
    }

    fn run_capped(
        &self,
        g: &Graph,
        seed: u64,
        bandwidth: u64,
        backend: Backend,
        round_cap: Option<u64>,
    ) -> QuantumOutcome {
        let k = self.k;
        let l = 2 * k + 1;
        let base = crate::OddCycleDetector::new(k, self.repetitions);
        // Radius k+1 covers any C_{2k+1} around any of its vertices.
        let spec = PipelineSpec {
            separation: l as u32 + 1,
            radius: k as u32 + 1,
            min_nodes: l,
            dec_stream: 0x0DDD,
            comp_stream: 0x0D_00,
            delta: self.delta,
            mode: self.mode,
            declared_success: self.declared_success,
            bandwidth,
            backend,
            round_cap,
        };
        run_pipeline(g, seed, &base, &spec)
    }
}

impl Detector for QuantumOddCycleDetector {
    fn descriptor(&self) -> Descriptor {
        Descriptor {
            name: "amplified odd color-BFS pipeline",
            reference: "this paper §3.4",
            model: crate::Model::Quantum,
            target: crate::Target::Odd { k: self.k },
            exponent: crate::theory::Table1Row::ThisPaperQuantumOdd.exponent(self.k),
            table1: Some(crate::theory::Table1Row::ThisPaperQuantumOdd),
        }
    }

    fn detect(&self, g: &Graph, seed: u64, budget: &Budget) -> DetectResult {
        let det = match budget.repetitions {
            Some(r) => self.clone().with_repetitions(r),
            None => self.clone(),
        };
        let outcome = det.run_capped(g, seed, budget.bandwidth, budget.backend, budget.max_rounds);
        Ok(budget.enforce(outcome.into_detection(self.descriptor())))
    }
}

/// The §3.5 quantum `{C_ℓ | 3 ≤ ℓ ≤ 2k}`-freeness algorithm: the
/// randomized (constant-congestion) `F_{2k}` detector amplified by
/// Theorem 3 over the Lemma 9 components — `Õ(n^{1/2-1/2k})` rounds,
/// improving van Apeldoorn–de Vos's `Õ(n^{1/2-1/(4k+2)})`.
#[derive(Debug, Clone)]
pub struct QuantumF2kDetector {
    k: usize,
    repetitions: usize,
    delta: f64,
    mode: GroverMode,
    declared_success: Option<f64>,
}

impl QuantumF2kDetector {
    /// Creates the detector for cycle lengths `3..=2k` (`k ≥ 2`).
    ///
    /// # Panics
    ///
    /// Panics unless `k ≥ 2`, `repetitions ≥ 1` and `0 < δ < 1`.
    pub fn new(k: usize, repetitions: usize, delta: f64) -> Self {
        assert!(k >= 2, "F_{{2k}} needs k ≥ 2");
        assert!(repetitions >= 1, "at least one repetition");
        assert!(delta > 0.0 && delta < 1.0, "δ must be in (0,1)");
        QuantumF2kDetector {
            k,
            repetitions,
            delta,
            mode: GroverMode::Analytic,
            declared_success: None,
        }
    }

    /// Selects the Grover simulation mode.
    pub fn with_mode(mut self, mode: GroverMode) -> Self {
        self.mode = mode;
        self
    }

    /// Declares a tighter success probability (seed-space sizing only).
    pub fn with_declared_success(mut self, eps: f64) -> Self {
        assert!(eps > 0.0 && eps <= 1.0, "ε must be in (0,1]");
        self.declared_success = Some(eps);
        self
    }

    /// Overrides the base detector's per-pair repetition count.
    ///
    /// # Panics
    ///
    /// Panics if `repetitions == 0`.
    pub fn with_repetitions(mut self, repetitions: usize) -> Self {
        assert!(repetitions >= 1, "at least one repetition");
        self.repetitions = repetitions;
        self
    }

    /// Runs the full pipeline on `g`.
    pub fn run(&self, g: &Graph, seed: u64) -> QuantumOutcome {
        self.run_with_bandwidth(g, seed, 1)
    }

    /// [`QuantumF2kDetector::run`] with the whole pipeline charged at
    /// per-edge bandwidth `B`.
    pub fn run_with_bandwidth(&self, g: &Graph, seed: u64, bandwidth: u64) -> QuantumOutcome {
        self.run_capped(g, seed, bandwidth, Backend::Sequential, None)
    }

    fn run_capped(
        &self,
        g: &Graph,
        seed: u64,
        bandwidth: u64,
        backend: Backend,
        round_cap: Option<u64>,
    ) -> QuantumOutcome {
        let k = self.k;
        let base = crate::F2kDetector::new(k)
            .with_repetitions(self.repetitions)
            .randomized();
        let spec = PipelineSpec {
            separation: 2 * k as u32 + 1,
            radius: k as u32,
            min_nodes: 3,
            dec_stream: 0xF2D,
            comp_stream: 0xF2_00,
            delta: self.delta,
            mode: self.mode,
            declared_success: self.declared_success,
            bandwidth,
            backend,
            round_cap,
        };
        run_pipeline(g, seed, &base, &spec)
    }
}

impl Detector for QuantumF2kDetector {
    fn descriptor(&self) -> Descriptor {
        Descriptor {
            name: "amplified pairwise sweep pipeline",
            reference: "this paper §3.5",
            model: crate::Model::Quantum,
            target: crate::Target::F2k { k: self.k },
            exponent: crate::theory::Table1Row::ThisPaperQuantumF2k.exponent(self.k),
            table1: Some(crate::theory::Table1Row::ThisPaperQuantumF2k),
        }
    }

    fn detect(&self, g: &Graph, seed: u64, budget: &Budget) -> DetectResult {
        let det = match budget.repetitions {
            Some(r) => self.clone().with_repetitions(r),
            None => self.clone(),
        };
        let outcome = det.run_capped(g, seed, budget.bandwidth, budget.backend, budget.max_rounds);
        Ok(budget.enforce(outcome.into_detection(self.descriptor())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;

    /// Detection tests: analytic Grover over a compact seed space sized
    /// by an empirically-safe declared success probability.
    fn small_detector() -> QuantumCycleDetector {
        QuantumCycleDetector::new(Params::practical(2).with_repetitions(24), 0.1)
            .with_declared_success(1.0 / 256.0)
    }

    /// Soundness tests: the sampled mode is much cheaper and cannot
    /// break one-sidedness.
    fn sampled_detector() -> QuantumCycleDetector {
        QuantumCycleDetector::new(Params::practical(2).with_repetitions(12), 0.1)
            .with_mode(congest_quantum::GroverMode::Sampled { samples: 32 })
    }

    #[test]
    fn finds_planted_c4() {
        let host = generators::random_tree(32, 5);
        let (g, _) = generators::plant_cycle(&host, 4, 5);
        let det = small_detector();
        let found = (0..6).any(|seed| {
            let outcome = det.run(&g, seed);
            if outcome.rejected {
                let w = outcome.witness.as_ref().unwrap();
                assert_eq!(w.len(), 4);
                assert!(w.is_valid(&g));
                assert!(outcome.iterations > 0);
            }
            outcome.rejected
        });
        assert!(found, "planted C4 never found across seeds");
    }

    #[test]
    fn one_sided_on_trees() {
        let det = sampled_detector();
        for seed in 0..2 {
            let g = generators::random_tree(32, seed);
            let outcome = det.run(&g, seed);
            assert!(!outcome.rejected, "seed {seed}");
            assert!(outcome.witness.is_none());
        }
    }

    #[test]
    fn one_sided_on_polarity_graph() {
        let g = generators::polarity_graph(3);
        let outcome = sampled_detector().run(&g, 7);
        assert!(!outcome.rejected);
    }

    #[test]
    fn accounts_decomposition_and_components() {
        let host = generators::random_tree(40, 2);
        let (g, _) = generators::plant_cycle(&host, 4, 2);
        let outcome = small_detector().run(&g, 1);
        assert!(outcome.decomposition_rounds > 0);
        assert!(outcome.components >= 1);
        assert!(outcome.colors >= 1);
        assert!(outcome.quantum_rounds >= outcome.decomposition_rounds);
    }

    #[test]
    fn bandwidth_scales_decomposition_cost() {
        // Budget::bandwidth reaches the decomposition cost model, not
        // just the amplified base runs: single-word protocol, so B
        // words per edge divide the charge exactly.
        let g = generators::random_tree(32, 3);
        let det = sampled_detector();
        let b1 = det.run_with_bandwidth(&g, 1, 1);
        let b4 = det.run_with_bandwidth(&g, 1, 4);
        assert!(b1.decomposition_rounds > 1);
        assert_eq!(b4.decomposition_rounds, b1.decomposition_rounds.div_ceil(4));
        assert!(b4.quantum_rounds <= b1.quantum_rounds);
    }

    #[test]
    fn round_cap_aborts_component_loop() {
        use crate::Detector;
        let host = generators::random_tree(40, 2);
        let (g, _) = generators::plant_cycle(&host, 4, 2);
        let det = sampled_detector();
        let full = det.detect(&g, 1, &Budget::classical()).unwrap();
        assert!(full.cost.rounds > 2);
        let capped = det
            .detect(
                &g,
                1,
                &Budget::classical().with_round_cap(full.cost.rounds / 2),
            )
            .unwrap();
        // Either a certified rejection landed before the cap bit, or
        // the pipeline reported the overrun.
        assert!(capped.rejected() || capped.budget_exceeded());
    }

    #[test]
    fn deterministic_by_seed() {
        let host = generators::random_tree(28, 4);
        let (g, _) = generators::plant_cycle(&host, 4, 4);
        let det = small_detector();
        let a = det.run(&g, 9);
        let b = det.run(&g, 9);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.quantum_rounds, b.quantum_rounds);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn quantum_odd_detects_c5() {
        // A C5 farm keeps the base success rate workable.
        let mut g = generators::cycle(5);
        for _ in 1..6 {
            g = generators::disjoint_union(&g, &generators::cycle(5));
        }
        let g = generators::disjoint_union(&g, &generators::path(10));
        let det = QuantumOddCycleDetector::new(2, 60, 0.1).with_declared_success(1.0 / 64.0);
        let found = (0..6).any(|seed| {
            let o = det.run(&g, seed);
            if o.rejected {
                let w = o.witness.as_ref().unwrap();
                assert_eq!(w.len(), 5);
                assert!(w.is_valid(&g));
            }
            o.rejected
        });
        assert!(found, "quantum odd pipeline never found a C5");
    }

    #[test]
    fn quantum_odd_sound_on_bipartite() {
        let det = QuantumOddCycleDetector::new(2, 12, 0.1)
            .with_mode(congest_quantum::GroverMode::Sampled { samples: 16 });
        for seed in 0..2 {
            let g = generators::random_bipartite(16, 16, 0.15, seed);
            assert!(!det.run(&g, seed).rejected, "seed {seed}");
        }
    }

    #[test]
    fn quantum_f2k_detects_short_cycle() {
        // Plant a C4 in a tree; the quantum F2k pipeline (k = 2: lengths
        // 3..4) must find it with the declared-success shortcut.
        let host = generators::random_tree(36, 6);
        let (g, _) = generators::plant_cycle(&host, 4, 6);
        let det = QuantumF2kDetector::new(2, 40, 0.1).with_declared_success(1.0 / 128.0);
        let found = (0..6).any(|seed| {
            let o = det.run(&g, seed);
            if o.rejected {
                let w = o.witness.as_ref().unwrap();
                assert!(w.len() == 3 || w.len() == 4);
                assert!(w.is_valid(&g));
            }
            o.rejected
        });
        assert!(found, "quantum F2k pipeline never found the planted C4");
    }

    #[test]
    fn quantum_f2k_sound_on_high_girth() {
        // Girth > 6 input for k = 3 (lengths 3..6): must always accept.
        let det = QuantumF2kDetector::new(3, 12, 0.1)
            .with_mode(congest_quantum::GroverMode::Sampled { samples: 16 });
        for seed in 0..2 {
            let g = generators::high_girth(48, 6, 8, seed);
            assert!(!det.run(&g, seed).rejected, "seed {seed}");
        }
    }

    #[test]
    fn detect_matches_run_and_honors_budget() {
        use crate::Detector;
        let host = generators::random_tree(30, 8);
        let (g, _) = generators::plant_cycle(&host, 4, 8);
        let det = small_detector();
        for seed in 0..3 {
            let via_run = det.run(&g, seed);
            let via_detect = det.detect(&g, seed, &Budget::classical()).unwrap();
            assert_eq!(via_run.rejected, via_detect.rejected());
            assert_eq!(via_run.quantum_rounds, via_detect.rounds());
        }
        // A repetition override must actually reconfigure the base
        // detector (fewer repetitions => no more rounds than the
        // default's bound).
        let d = det
            .detect(&g, 0, &Budget::classical().with_repetitions(2))
            .unwrap();
        assert!(d.cost.rounds > 0);
    }
}
