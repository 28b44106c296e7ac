//! The unified detection API: one polymorphic surface over every cycle
//! detector in the workspace — the paper's algorithms and the Table 1
//! comparators alike.
//!
//! Table 1 of the paper is a *comparison*: the new randomized
//! `O(n^{1-1/k})` and quantum `Õ(n^{1/2-1/2k})` detectors against five
//! prior baselines. This module gives that comparison a common type:
//!
//! * [`Detector`] — `detect(&graph, seed, &budget) → Result<Detection>`;
//! * [`Detection`] — a [`Verdict`] (accept / reject with a validated
//!   [`CycleWitness`]), a [`RunCost`] (rounds, messages, congestion,
//!   iterations), and the algorithm's [`Descriptor`];
//! * [`Budget`] — the one configuration of a run: per-edge
//!   [`bandwidth`](Budget::bandwidth) in words per round (`B = 1` is
//!   classical CONGEST), an optional repetition override, hard round
//!   and message caps, and the simulation backend. Every detector's
//!   own `run(&graph, seed, &budget)` reads all of it, and its
//!   [`Detector::detect`] is that run under [`Budget::enforce`].
//!
//! Every implementation routes through the same fallible surface
//! (`Result<Detection, SimError>`): simulator-level failures (step-limit
//! overruns, model violations) surface as errors instead of panics,
//! matching what was previously only true of the deterministic
//! gathering baseline.
//!
//! The `DetectorRegistry` enumerating boxed implementations by
//! `(model, target, k)` lives in the facade crate (`even-cycle-congest`),
//! which can see the baselines as well; the trait and outcome types live
//! here so every algorithm crate can implement them.

use congest_graph::{CycleWitness, Graph};
use congest_sim::{Backend, RunReport, SimError};

use crate::theory::Table1Row;

/// Which CONGEST model an algorithm runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Model {
    /// Classical (randomized or deterministic) CONGEST.
    Classical,
    /// Quantum CONGEST (qubit messages, Grover-amplified subroutines).
    Quantum,
}

impl Model {
    /// A short lowercase label (`"classical"` / `"quantum"`).
    pub fn label(self) -> &'static str {
        match self {
            Model::Classical => "classical",
            Model::Quantum => "quantum",
        }
    }
}

/// The cycle family whose freeness a detector decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// `C_{2k}`-freeness (the paper's headline problem).
    Even {
        /// Half the cycle length.
        k: usize,
    },
    /// `C_{2k+1}`-freeness (§3.4).
    Odd {
        /// The cycle length is `2k + 1`.
        k: usize,
    },
    /// `{C_ℓ | 3 ≤ ℓ ≤ 2k}`-freeness (§3.5).
    F2k {
        /// Half the maximum cycle length.
        k: usize,
    },
}

impl Target {
    /// The family parameter `k`.
    pub fn k(self) -> usize {
        match self {
            Target::Even { k } | Target::Odd { k } | Target::F2k { k } => k,
        }
    }

    /// Whether a cycle of length `len` belongs to the target family.
    pub fn matches_length(self, len: usize) -> bool {
        match self {
            Target::Even { k } => len == 2 * k,
            Target::Odd { k } => len == 2 * k + 1,
            Target::F2k { k } => (3..=2 * k).contains(&len),
        }
    }

    /// A compact label: `C4`, `C5`, `F6` (the latter meaning all lengths
    /// `3..=6`).
    pub fn label(self) -> String {
        match self {
            Target::Even { k } => format!("C{}", 2 * k),
            Target::Odd { k } => format!("C{}", 2 * k + 1),
            Target::F2k { k } => format!("F{}", 2 * k),
        }
    }
}

/// The resource envelope of one detection run.
#[derive(Debug, Clone, PartialEq)]
pub struct Budget {
    /// Per-edge bandwidth in words per round. `1` is classical CONGEST;
    /// larger values model CONGEST(B·log n). Classical detectors charge
    /// `⌈load/B⌉` rounds per superstep; the quantum pipelines apply the
    /// bandwidth both to their amplified base detector (the dominant
    /// term) and to the Lemma 10 decomposition cost.
    pub bandwidth: u64,
    /// Overrides the algorithm's repetition/attempt budget when `Some`
    /// (coloring iterations for the color-BFS family, attempts for the
    /// local-threshold baseline, base repetitions for the quantum
    /// pipelines). `None` keeps each algorithm's configured default.
    pub repetitions: Option<usize>,
    /// Keep iterating after the first rejection, spending the whole
    /// repetition budget (cost-scaling studies want every iteration's
    /// cost, not a run truncated at the first lucky coloring).
    /// Honored by every detector whose run is a loop of `color-BFS`
    /// calls, all of which share one costed loop: the paper's classical
    /// detectors (`CycleDetector`, `LowProbDetector`, `OddCycleDetector`
    /// and `F2kDetector`) and the \[10\] and \[16\] baselines (through
    /// [`EvenRun`](crate::EvenRun)). The quantum pipelines, the
    /// deterministic gather and the \[33\] framework ignore it.
    pub run_to_budget: bool,
    /// Hard cap on charged rounds. Every loop of `color-BFS` calls (the
    /// detectors [`Budget::run_to_budget`] names) checks it after each
    /// call and stops once the charged total has passed it, reporting
    /// [`Verdict::BudgetExceeded`], so the total overshoots the cap by
    /// at most one call; the quantum pipelines check it between
    /// components. Single-shot detectors and cost-model comparators are
    /// marked post hoc through [`Budget::enforce`].
    pub max_rounds: Option<u64>,
    /// Hard cap on total point-to-point messages; same abort semantics
    /// as [`Budget::max_rounds`]. Only meaningful for detectors whose
    /// cost model tracks messages: the quantum pipelines and the
    /// cost-model comparators report `messages = 0`, so a message cap
    /// never binds them — cap rounds to bound those.
    pub max_messages: Option<u64>,
    /// The simulation backend every simulated superstep of the run
    /// uses ([`Backend::Sequential`] by default). Purely an execution
    /// knob: transcripts, verdicts, and costs are byte-identical
    /// across backends and thread counts, which is why the experiment
    /// store's unit key deliberately excludes it.
    pub backend: Backend,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            bandwidth: 1,
            repetitions: None,
            run_to_budget: false,
            max_rounds: None,
            max_messages: None,
            backend: Backend::Sequential,
        }
    }
}

impl Budget {
    /// The classical CONGEST budget (`B = 1`, algorithm defaults).
    pub fn classical() -> Self {
        Budget::default()
    }

    /// Sets the per-edge bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth == 0`.
    pub fn with_bandwidth(mut self, bandwidth: u64) -> Self {
        assert!(bandwidth > 0, "bandwidth must be positive");
        self.bandwidth = bandwidth;
        self
    }

    /// Overrides the repetition budget.
    ///
    /// # Panics
    ///
    /// Panics if `repetitions == 0`.
    pub fn with_repetitions(mut self, repetitions: usize) -> Self {
        assert!(repetitions > 0, "at least one repetition");
        self.repetitions = Some(repetitions);
        self
    }

    /// Keeps iterating after the first rejection (see
    /// [`Budget::run_to_budget`]).
    pub fn exhaustive(mut self) -> Self {
        self.run_to_budget = true;
        self
    }

    /// Caps the charged rounds (see [`Budget::max_rounds`]).
    ///
    /// # Panics
    ///
    /// Panics if `max_rounds == 0`.
    pub fn with_round_cap(mut self, max_rounds: u64) -> Self {
        assert!(max_rounds > 0, "round cap must be positive");
        self.max_rounds = Some(max_rounds);
        self
    }

    /// Caps the total messages (see [`Budget::max_messages`]).
    ///
    /// # Panics
    ///
    /// Panics if `max_messages == 0`.
    pub fn with_message_cap(mut self, max_messages: u64) -> Self {
        assert!(max_messages > 0, "message cap must be positive");
        self.max_messages = Some(max_messages);
        self
    }

    /// Selects the simulation backend (see [`Budget::backend`]).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// The budget that re-runs the seed an amplification found rejecting,
    /// to recover its witness: this budget's repetition override and
    /// backend, at `B = 1`, uncapped, stopping at the first rejection.
    pub fn witness_rerun(&self) -> Budget {
        Budget {
            repetitions: self.repetitions,
            backend: self.backend,
            ..Budget::default()
        }
    }

    /// Whether any hard cap is configured.
    pub fn has_caps(&self) -> bool {
        self.max_rounds.is_some() || self.max_messages.is_some()
    }

    /// Whether an accumulated cost has blown past the configured caps.
    pub fn caps_exceeded(&self, cost: &RunCost) -> bool {
        self.max_rounds.is_some_and(|cap| cost.rounds > cap)
            || self.max_messages.is_some_and(|cap| cost.messages > cap)
    }

    /// Enforces the caps on a finished run: an *accept* whose cost
    /// overran the budget is downgraded to [`Verdict::BudgetExceeded`] —
    /// a truncated run would never have reached that acceptance, so it
    /// cannot be trusted. A certified rejection stands regardless (the
    /// witness is proof however long the run took). Detectors with an
    /// iteration loop abort early on their own; this post-hoc pass is
    /// the uniform guarantee every [`Detector::detect`] implementation
    /// routes through.
    pub fn enforce(&self, mut detection: Detection) -> Detection {
        if matches!(detection.verdict, Verdict::Accept) && self.caps_exceeded(&detection.cost) {
            detection.verdict = Verdict::BudgetExceeded {
                rounds: detection.cost.rounds,
                messages: detection.cost.messages,
            };
        }
        detection
    }
}

/// Unified cost accounting — the fields every algorithm can report,
/// whatever its model (previously scattered across `RunReport`, ad-hoc
/// round counters, and the quantum outcome types).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunCost {
    /// Rounds charged in the algorithm's own cost model (classical
    /// CONGEST rounds, or quantum rounds for the amplified pipelines).
    pub rounds: u64,
    /// Synchronous supersteps executed (0 where the cost model is
    /// analytic rather than simulated step by step).
    pub supersteps: u64,
    /// Total point-to-point messages.
    pub messages: u64,
    /// Total words sent over all edges and supersteps.
    pub words: u64,
    /// Maximum words carried by any directed edge in any superstep —
    /// the congestion statistic the paper's threshold `τ` bounds.
    pub max_congestion: u64,
    /// Iterations of the algorithm's outer loop: coloring repetitions,
    /// attempts, or Grover iterations, per the algorithm's docs.
    pub iterations: u64,
}

impl RunCost {
    /// Converts a simulator [`RunReport`] plus an iteration count.
    pub fn from_report(report: &RunReport, iterations: u64) -> RunCost {
        RunCost {
            rounds: report.rounds,
            supersteps: report.supersteps,
            messages: report.congestion.total_messages,
            words: report.congestion.total_words,
            max_congestion: report.congestion.max_words_per_edge_step,
            iterations,
        }
    }
}

/// The decision of one run, with its certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// No target cycle found (for one-sided detectors this is the only
    /// possible answer on target-free inputs).
    Accept,
    /// A target cycle was found.
    Reject {
        /// The certified cycle, validated against the input graph before
        /// being reported. `None` only for cost-model comparators that
        /// cannot reconstruct one.
        witness: Option<CycleWitness>,
        /// The detected cycle's length, when known.
        cycle_length: Option<usize>,
    },
    /// The run blew past a hard [`Budget`] cap and was aborted before it
    /// could decide; neither acceptance nor rejection can be concluded.
    BudgetExceeded {
        /// Rounds charged when the run was cut off.
        rounds: u64,
        /// Messages charged when the run was cut off.
        messages: u64,
    },
}

impl Verdict {
    /// Whether the run found a cycle.
    pub fn rejected(&self) -> bool {
        matches!(self, Verdict::Reject { .. })
    }

    /// Whether the run was aborted by a [`Budget`] cap.
    pub fn budget_exceeded(&self) -> bool {
        matches!(self, Verdict::BudgetExceeded { .. })
    }

    /// The witness, if any.
    pub fn witness(&self) -> Option<&CycleWitness> {
        match self {
            Verdict::Accept | Verdict::BudgetExceeded { .. } => None,
            Verdict::Reject { witness, .. } => witness.as_ref(),
        }
    }
}

/// Static metadata describing an algorithm — the information a Table 1
/// row carries.
#[derive(Debug, Clone, PartialEq)]
pub struct Descriptor {
    /// Human-readable algorithm name.
    pub name: &'static str,
    /// Citation tag (`"this paper"`, `"[10]"`, …).
    pub reference: &'static str,
    /// Classical or quantum CONGEST.
    pub model: Model,
    /// The cycle family decided.
    pub target: Target,
    /// The theoretical exponent `α` of the `n^α` round complexity
    /// (polylogs normalized), for plotting measured fits against.
    pub exponent: f64,
    /// The corresponding row of the paper's Table 1, when one exists.
    pub table1: Option<Table1Row>,
}

impl Descriptor {
    /// A stable registry identifier, e.g. `classical/C4/this-paper`.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}",
            self.model.label(),
            self.target.label(),
            self.name.replace(' ', "-").to_lowercase()
        )
    }
}

/// The result of running a [`Detector`] — verdict, cost, and the
/// algorithm's metadata, in one comparable value.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Which algorithm produced this result.
    pub algorithm: Descriptor,
    /// The decision with its certificate.
    pub verdict: Verdict,
    /// What the run cost.
    pub cost: RunCost,
}

impl Detection {
    /// The detection of a finished run of `algorithm` that cost `cost`:
    /// a rejection when the run certified `witness` (it stands even past
    /// a cap: the witness is proof), else [`Verdict::BudgetExceeded`]
    /// when a cap stopped the run, else acceptance.
    pub fn of_run(
        algorithm: Descriptor,
        witness: Option<CycleWitness>,
        budget_exceeded: bool,
        cost: RunCost,
    ) -> Detection {
        let verdict = match witness {
            Some(witness) => Verdict::Reject {
                cycle_length: Some(witness.len()),
                witness: Some(witness),
            },
            None if budget_exceeded => Verdict::BudgetExceeded {
                rounds: cost.rounds,
                messages: cost.messages,
            },
            None => Verdict::Accept,
        };
        Detection {
            algorithm,
            verdict,
            cost,
        }
    }

    /// Whether the run found a cycle.
    pub fn rejected(&self) -> bool {
        self.verdict.rejected()
    }

    /// Whether the run was aborted by a [`Budget`] cap.
    pub fn budget_exceeded(&self) -> bool {
        self.verdict.budget_exceeded()
    }

    /// The witness, if any.
    pub fn witness(&self) -> Option<&CycleWitness> {
        self.verdict.witness()
    }

    /// Rounds charged in the algorithm's cost model.
    pub fn rounds(&self) -> u64 {
        self.cost.rounds
    }
}

/// The outcome type of [`Detector::detect`]: simulator failures
/// (step-limit overruns, model violations) surface as values, not
/// panics.
pub type DetectResult = Result<Detection, SimError>;

/// A cycle detector in the CONGEST model — the one polymorphic entry
/// point every algorithm in the workspace implements.
///
/// Contract:
///
/// * **Determinism**: all randomness derives from `seed`; equal
///   `(graph, seed, budget)` yields equal [`Detection`]s. Combined with
///   the `Send + Sync` supertraits, this is what lets the experiment
///   engine shard a sweep matrix across worker threads and still
///   produce byte-identical reports.
/// * **One-sidedness**: on inputs free of the target family, every
///   implementation accepts with probability 1 (rejecting such an input
///   is a bug, not bad luck).
/// * **Certification**: rejections carry a witness validated against the
///   input graph whenever the algorithm can reconstruct one, and the
///   witness's length belongs to the target family.
///
/// ```
/// use congest_graph::generators;
/// use even_cycle::{Budget, CycleDetector, Detector, Params};
///
/// let host = generators::random_tree(48, 3);
/// let (g, _) = generators::plant_cycle(&host, 4, 3);
/// let det = CycleDetector::new(Params::practical(2));
/// let detection = det.detect(&g, 1, &Budget::classical()).unwrap();
/// assert!(detection.rejected());
/// assert!(detection.witness().unwrap().is_valid(&g));
/// assert_eq!(det.descriptor().target.label(), "C4");
/// ```
pub trait Detector: Send + Sync + std::fmt::Debug {
    /// The algorithm's static metadata.
    fn descriptor(&self) -> Descriptor;

    /// A deterministic fingerprint of the detector's *configuration*
    /// (repetitions, modes, declared probabilities — everything that
    /// changes what a run computes beyond the descriptor id). The
    /// experiment store folds this into its config hash so two
    /// differently-tuned instances of the same algorithm can never
    /// replay each other's cached results. The default is the `Debug`
    /// rendering, which for the workspace's derive-based detectors
    /// captures every field.
    fn config_fingerprint(&self) -> String {
        format!("{self:?}")
    }

    /// Runs the detector on `g` with all randomness derived from `seed`,
    /// under the given resource budget.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SimError`] if the CONGEST simulation
    /// fails (step-limit exceeded, model violation) instead of
    /// panicking.
    fn detect(&self, g: &Graph, seed: u64, budget: &Budget) -> DetectResult;
}

impl<D: Detector + ?Sized> Detector for &D {
    fn descriptor(&self) -> Descriptor {
        (**self).descriptor()
    }

    fn config_fingerprint(&self) -> String {
        (**self).config_fingerprint()
    }

    fn detect(&self, g: &Graph, seed: u64, budget: &Budget) -> DetectResult {
        (**self).detect(g, seed, budget)
    }
}

impl<D: Detector + ?Sized> Detector for Box<D> {
    fn descriptor(&self) -> Descriptor {
        (**self).descriptor()
    }

    fn config_fingerprint(&self) -> String {
        (**self).config_fingerprint()
    }

    fn detect(&self, g: &Graph, seed: u64, budget: &Budget) -> DetectResult {
        (**self).detect(g, seed, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_labels_and_membership() {
        assert_eq!(Target::Even { k: 2 }.label(), "C4");
        assert_eq!(Target::Odd { k: 2 }.label(), "C5");
        assert_eq!(Target::F2k { k: 3 }.label(), "F6");
        assert!(Target::Even { k: 3 }.matches_length(6));
        assert!(!Target::Even { k: 3 }.matches_length(5));
        assert!(Target::F2k { k: 3 }.matches_length(3));
        assert!(Target::F2k { k: 3 }.matches_length(6));
        assert!(!Target::F2k { k: 3 }.matches_length(7));
        assert_eq!(Target::Odd { k: 4 }.k(), 4);
    }

    #[test]
    fn budget_builders() {
        let b = Budget::classical().with_bandwidth(4).with_repetitions(9);
        assert_eq!(b.bandwidth, 4);
        assert_eq!(b.repetitions, Some(9));
        assert_eq!(Budget::default().bandwidth, 1);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_rejected() {
        let _ = Budget::classical().with_bandwidth(0);
    }

    #[test]
    fn caps_and_enforcement() {
        let b = Budget::classical().with_round_cap(10).with_message_cap(100);
        assert!(b.has_caps());
        assert!(!Budget::classical().has_caps());
        let under = RunCost {
            rounds: 10,
            messages: 100,
            ..Default::default()
        };
        assert!(!b.caps_exceeded(&under));
        let over = RunCost {
            rounds: 11,
            ..Default::default()
        };
        assert!(b.caps_exceeded(&over));

        let d = Descriptor {
            name: "x",
            reference: "y",
            model: Model::Classical,
            target: Target::Even { k: 2 },
            exponent: 0.5,
            table1: None,
        };
        let det = Detection {
            algorithm: d,
            verdict: Verdict::Accept,
            cost: over,
        };
        let enforced = b.enforce(det.clone());
        assert!(enforced.budget_exceeded());
        assert!(!enforced.rejected());
        assert!(enforced.witness().is_none());
        // Without caps, enforce is the identity.
        assert_eq!(Budget::classical().enforce(det.clone()), det);
    }

    #[test]
    fn run_cost_from_report() {
        let mut report = RunReport::empty();
        report.rounds = 10;
        report.supersteps = 4;
        report.congestion.total_words = 30;
        report.congestion.total_messages = 12;
        report.congestion.max_words_per_edge_step = 5;
        let cost = RunCost::from_report(&report, 3);
        assert_eq!(cost.rounds, 10);
        assert_eq!(cost.words, 30);
        assert_eq!(cost.messages, 12);
        assert_eq!(cost.max_congestion, 5);
        assert_eq!(cost.iterations, 3);
    }

    #[test]
    fn verdict_helpers() {
        assert!(!Verdict::Accept.rejected());
        let r = Verdict::Reject {
            witness: None,
            cycle_length: Some(4),
        };
        assert!(r.rejected());
        assert!(r.witness().is_none());
    }

    #[test]
    fn descriptor_id_is_stable() {
        let d = Descriptor {
            name: "color-BFS detector",
            reference: "this paper",
            model: Model::Classical,
            target: Target::Even { k: 2 },
            exponent: 0.5,
            table1: Some(Table1Row::ThisPaperClassical),
        };
        assert_eq!(d.id(), "classical/C4/color-bfs-detector");
    }
}
