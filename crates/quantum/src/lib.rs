//! Quantum substrate for the even-cycle CONGEST reproduction.
//!
//! The paper's quantum ingredients (Section 3) are, in dependency order:
//!
//! 1. **Grover search / amplitude amplification** over the randomness of a
//!    classical algorithm — simulated here either with an exact
//!    state-vector ([`StateVector`]) or with exact *analytic* amplitude
//!    tracking (success probability `sin²((2j+1)θ)` after `j` iterations,
//!    `θ = asin √(m/M)`), plus the Boyer–Brassard–Høyer–Tapp schedule for
//!    an unknown number of marked items ([`GroverSearch`]).
//! 2. **Distributed quantum search** (Lemma 8 = Le Gall–Magniez
//!    [26, Thm 7]): a leader amplifies a distributed `Setup`/`Checking`
//!    pair; round cost `O(log(1/δ) · (T_setup + T_check)/√ε)`
//!    ([`DistributedSearch`]).
//! 3. **Distributed quantum Monte-Carlo amplification** (Theorem 3): any
//!    distributed one-sided Monte-Carlo algorithm with success probability
//!    `ε` and round complexity `T(n, D)` becomes a quantum algorithm with
//!    error `δ` in `polylog(1/δ)·(D + T)/√ε` rounds
//!    ([`MonteCarloAmplifier`]).
//! 4. **Diameter reduction** (Lemma 9, via the network decomposition of
//!    Lemma 10): clusters of diameter `O(k log n)` colored with few colors
//!    such that same-color clusters are far apart ([`decomposition`]).
//!
//! # Simulation contract
//!
//! No quantum hardware exists for the CONGEST model; what this crate
//! preserves — and what the paper's results are about — is (a) the
//! *behaviour* of the algorithms (one-sided error; a returned candidate is
//! always verified classically before being reported, so false positives
//! are impossible), and (b) the *round accounting* (the quadratic `1/√ε`
//! vs `1/ε` gap). Reports expose both the quantum cost model (iterations,
//! charged rounds) and the classical work of the simulator, so no
//! simulation cost is ever confused with algorithm cost. That work comes
//! as two counts:
//!
//! * `classical_evals` is *modelled*: every oracle evaluation the
//!   simulated search performs — each repetition's scan or sample and
//!   each measurement verification — repeats included;
//! * `simulations` is what *actually ran*: [`DistributedSearch`]
//!   memoizes its oracle, a pure function of the seed, so each distinct
//!   seed is evaluated once per search however often the model
//!   evaluates it.
//!
//! Neither count changes a result: the memo answers exactly as a fresh
//! run would, and the Grover randomness never depends on it.
//!
//! The oracle is verdict-only. [`MonteCarloAlgorithm::rejects`] answers
//! one bit per seed (did some node reject?), and that bit is a pure
//! function of the seed; every `Setup` is charged the algorithm's
//! [`round_bound`](MonteCarloAlgorithm::round_bound), never rounds
//! measured in a run. So an oracle evaluation may leave out any part of
//! a run that cannot change the bit, and may leave undrawn any random
//! value it does not read. The randomized color-BFS bases skip:
//!
//! * every call in which no node is an active source, since such a call
//!   sends no identifier and no node can reject;
//! * every call in which no active source closes a well-colored cycle
//!   within the call's host subgraph, walked layer by layer with no
//!   threshold: a rejection certifies such a cycle through its origin,
//!   and a threshold only keeps identifiers back, so such a call cannot
//!   reject either;
//! * every source that lies on no cycle of the graph whose length the
//!   base detects: the cycle a rejection certifies is simple and runs
//!   through its origin, so such a source is never that origin. A base
//!   whose graph has no node on such a cycle answers `false` without
//!   walking a call. The sources it skips still launch in every call
//!   that is simulated: their identifiers count towards the thresholds
//!   of the nodes they reach, and a threshold they fill can stop a
//!   rejection.
//!
//! They draw a repetition's coloring only when some call of it has a
//! source candidate. `rejects` takes `&mut self` so that one evaluator
//! answers every seed of an amplification and keeps its buffers
//! (simulation sessions, coin and walk scratch) between seeds; those
//! buffers hold nothing a later answer reads. What no seed changes,
//! such as the nodes on a target cycle, it computes once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod amplification;
mod complex;
pub mod decomposition;
mod grover;
mod mcalg;
mod search;
mod statevector;

pub use amplification::{AmplificationReport, MonteCarloAmplifier};
pub use complex::Complex;
pub use grover::{optimal_iterations, success_probability, GroverMode, GroverReport, GroverSearch};
pub use mcalg::{FnAlgorithm, MonteCarloAlgorithm, WithSuccess};
pub use search::{DistributedSearch, SearchReport};
pub use statevector::StateVector;
