//! Even-cycle detection in the randomized and quantum CONGEST model.
//!
//! Facade crate re-exporting the whole workspace — the reproduction of
//! Fraigniaud, Luce, Magniez, Todinca, *Even-Cycle Detection in the
//! Randomized and Quantum CONGEST Model*, PODC 2024 (arXiv:2402.12018).
//!
//! * [`graph`] — graph substrate (CSR graphs, generators, exact ground
//!   truth for cycle containment).
//! * [`sim`] — the CONGEST model simulator (synchronous rounds,
//!   `O(log n)`-bit messages, congestion accounting).
//! * [`cycle`] — the paper's algorithms: Algorithm 1
//!   (`O(n^{1-1/k})`-round `C_{2k}`-freeness), Algorithm 2
//!   (congestion-reduced `randomized-color-BFS`), the odd-cycle and
//!   `F_{2k}` variants, the Density Lemma machinery, and the quantum
//!   pipeline of Theorem 2.
//! * [`quantum`] — Grover/amplitude-amplification simulation, distributed
//!   quantum search (Lemma 8), Monte-Carlo amplification (Theorem 3),
//!   network decomposition (Lemmas 9–10).
//! * [`baselines`] — the Table 1 comparators (\[10\], \[15\], \[16\], \[30\],
//!   \[33\]).
//! * [`lowerbounds`] — the Set-Disjointness reductions of §3.3.
//! * [`registry`] — every implemented algorithm behind the unified
//!   [`Detector`] trait, enumerable by `(model, target, k)`.
//! * [`scenario`] — the data-driven measurement runner
//!   (`family × detector × bandwidth × seed-sweep → ScenarioReport`).
//! * [`engine`] — the parallel experiment engine behind the scenario
//!   runner: worker-pool sweep execution (byte-identical to
//!   sequential), `paper-exact`/`practical`/`fast-ci` run profiles,
//!   hard budget enforcement, and a resumable JSONL result store
//!   keyed by [`FamilySpec`] fingerprints. The `sweep` binary drives
//!   it from the command line.
//! * [`suite`] — whole campaigns as data: line-oriented suite files
//!   (`family=...; sizes=...; seeds=...; detectors=...` per stanza,
//!   where `family=` may list several specs and expands to the cross
//!   product) resolved against a run profile and executed through one
//!   shared engine pass (`sweep --suite`).
//! * [`stream`] — the streaming subsystem: [`StreamScenario`] replays a
//!   seeded, fingerprintable
//!   [`UpdateSchedule`] against
//!   registered detectors, checkpoint verdicts are content-addressed
//!   work units (re-running an unchanged stream invokes zero
//!   detectors), and [`serve`] exposes the whole thing as a long-lived
//!   line-oriented TCP service over named mutable snapshots (the
//!   `serve` binary).
//! * [`telemetry`] — std-only structured telemetry: process-global
//!   counters/gauges/histograms, RAII spans behind a swappable
//!   [`Recorder`](telemetry::Recorder), JSONL event sinks
//!   (`sweep --trace`, `EVEN_CYCLE_TRACE`), Chrome trace_event
//!   conversion, and Prometheus exposition (the server's `metrics`
//!   op). Result-invariant by contract: recording changes no report
//!   or store byte, and the disabled path costs one relaxed atomic
//!   load.
//!
//! # Quickstart — the unified `Detector` API
//!
//! Every algorithm (the paper's and the baselines') answers through one
//! interface: `detect(&graph, seed, &budget) → Result<Detection>`, where
//! a [`Detection`] carries the verdict (with a
//! validated cycle witness on rejection), the unified run cost, and the
//! algorithm's metadata.
//!
//! ```
//! use even_cycle_congest::graph::generators;
//! use even_cycle_congest::cycle::{Budget, CycleDetector, Detector, Params};
//!
//! // A random tree with a planted 4-cycle.
//! let host = generators::random_tree(64, 7);
//! let (g, planted) = generators::plant_cycle(&host, 4, 7);
//!
//! let detector = CycleDetector::new(Params::practical(2));
//! let detection = detector.detect(&g, 42, &Budget::classical()).unwrap();
//! assert!(detection.rejected(), "the planted C4 must be detected");
//! let witness = detection.witness().expect("rejections carry witnesses");
//! assert!(witness.is_valid(&g));
//! assert!(detection.cost.rounds > 0);
//! # let _ = planted;
//! ```
//!
//! To compare *all* algorithms on the same instance, iterate the
//! [`registry`](registry::DetectorRegistry) instead of naming types:
//!
//! ```
//! use even_cycle_congest::registry::DetectorRegistry;
//! use even_cycle_congest::cycle::Budget;
//! use even_cycle_congest::graph::generators;
//!
//! let g = generators::random_tree(32, 1); // cycle-free control
//! for entry in DetectorRegistry::standard(2).iter() {
//!     let d = entry.detector.detect(&g, 7, &Budget::classical()).unwrap();
//!     assert!(!d.rejected(), "{}: one-sided error violated", entry.id);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod registry;
pub mod scenario;
pub mod serve;
pub mod stream;
pub mod suite;

pub use congest_baselines as baselines;
pub use congest_graph as graph;
pub use congest_lowerbounds as lowerbounds;
pub use congest_quantum as quantum;
pub use congest_sim as sim;
pub use congest_telemetry as telemetry;
pub use even_cycle as cycle;

pub use congest_graph::{FamilySpec, MutableGraph, UpdateSchedule};
pub use engine::{
    Engine, RunProfile, Schedule, ScheduleOrder, StreamOutcome, StreamSuiteOutcome, SuiteOutcome,
};
pub use even_cycle::{Budget, Descriptor, Detection, Detector, Model, RunCost, Target, Verdict};
pub use registry::DetectorRegistry;
pub use scenario::{GraphFamily, Metric, Scenario, ScenarioReport};
pub use serve::{ServeConfig, Server};
pub use stream::{StreamReport, StreamScenario};
pub use suite::{PreparedSuite, Suite};
