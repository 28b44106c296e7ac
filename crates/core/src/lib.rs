//! Even-cycle detection in the randomized and quantum CONGEST model —
//! the algorithms of Fraigniaud, Luce, Magniez, Todinca (PODC 2024).
//!
//! * [`CycleDetector`] — Algorithm 1: `C_{2k}`-freeness with one-sided
//!   error `ε` in `O(log²(1/ε)·2^{3k}·k^{2k+3}·n^{1-1/k})` rounds
//!   (Theorem 1). The detector is built from three calls to
//!   [`color_bfs::ColorBfs`] per coloring iteration (light cycles,
//!   cycles through the random set `S`, heavy cycles launched from `W`).
//! * [`LowProbDetector`] — Lemma 12: the same algorithm with
//!   `randomized-color-BFS` (Algorithm 2), running in `k^{O(k)}` rounds
//!   with constant congestion and success probability `1/(3τ)`.
//! * [`QuantumCycleDetector`] — Theorem 2 / Lemma 13: diameter reduction
//!   and quantum Monte-Carlo amplification of the low-probability
//!   detector, in `k^{O(k)}·polylog(n)·n^{1/2-1/2k}` rounds.
//! * [`OddCycleDetector`] — §3.4: `C_{2k+1}`-freeness with success
//!   `Ω(1/n)` in constant rounds; amplified to `Õ(√n)`.
//! * [`F2kDetector`] — §3.5: `{C_ℓ | 3 ≤ ℓ ≤ 2k}`-freeness.
//! * [`sparsify`] — the Density Lemma machinery (Lemmas 4–7) with the
//!   constructive cycle extraction of Lemma 6 (Figure 1).
//! * [`theory`] — closed-form round complexities for every row of
//!   Table 1.
//!
//! The first five run one CONGEST node program, [`color_bfs::ColorBfs`]:
//! `color-BFS` with threshold, whose palette (size, meeting color and
//! the §3.5 hand-off) is the only thing that differs between them. The
//! [`color_bfs`] module docs give the role of each color for every
//! palette. One costed loop simulates, charges and certifies every
//! detector's calls; [`EvenRun`] opens it to callers that walk their
//! own Algorithm-1-palette calls: the \[10\] and \[16\] baselines, the
//! §3.3 reduction and the ablations.
//!
//! Every rejection is *certified*: the library extracts an explicit cycle
//! witness and validates it against the input graph before reporting.
//!
//! All detectors also implement the unified [`Detector`] trait
//! (`detect(&graph, seed, &budget) → Result<Detection>`), the one
//! polymorphic entry point shared with the Table 1 baseline comparators;
//! see [`api`](crate::Detection) for the outcome types and the facade
//! crate for the registry and scenario runner built on top. Each
//! detector's own `run(&graph, seed, &budget)` returns its full outcome
//! type, and its `detect` is that run under [`Budget::enforce`]: the
//! [`Budget`] is the whole configuration of a run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
pub mod color_bfs;
mod detector;
mod f2k;
mod odd;
mod params;
mod quantum_detector;
mod randomized;
pub mod sparsify;
pub mod theory;
mod witness;

#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod test_corpus;

pub use api::{
    Budget, Descriptor, DetectResult, Detection, Detector, Model, RunCost, Target, Verdict,
};
pub use color_bfs::{EvenCall, EvenRun, EvenRunOutcome};
pub use congest_sim::Backend;
pub use detector::{random_coloring, CycleDetector, Memberships, RunOptions};
pub use f2k::{F2kDetector, F2kMc, F2kOutcome};
pub use odd::{OddCycleDetector, OddMc};
pub use params::{Instance, Params};
pub use quantum_detector::{
    QuantumCycleDetector, QuantumF2kDetector, QuantumOddCycleDetector, QuantumOutcome,
};
pub use randomized::{LowProbDetector, LowProbMc, RANDOMIZED_THRESHOLD};
pub use witness::{DetectionOutcome, Phase, SetsSummary};
