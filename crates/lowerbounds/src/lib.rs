//! Set-Disjointness lower-bound reductions for cycle detection in
//! CONGEST (paper §3.3).
//!
//! The paper's quantum lower bounds (`Ω̃(n^{1/4})` for `C_{2k}`,
//! `Ω̃(√n)` for `C_{2k+1}`) follow the classical recipe of Drucker et
//! al. \[15\] and Korhonen–Rybicki \[30\]: build a *gadget graph* from a
//! two-party Set-Disjointness instance `(x, y)` such that the graph
//! contains the target cycle **iff** `x` and `y` intersect; then any
//! `T`-round CONGEST algorithm yields a two-party protocol exchanging
//! `O(T · cut · log n)` (qu)bits, which the communication lower bound of
//! Braverman et al. \[4\] (`Ω(r + N/r)` qubits for `r`-round protocols)
//! turns into a round lower bound.
//!
//! This crate provides:
//!
//! * [`disjointness`] — instances of the two-party problem;
//! * [`gadgets`] — the three gadget families (C4 from a polarity graph
//!   with `N = Θ(n^{3/2})`; `C_{2k}`, `k ≥ 3`, with `N = Θ(n)` and cut
//!   `Θ(√n)`; `C_{2k+1}` with `N = Θ(n²)` and cut `Θ(n)`), each with the
//!   iff-property enforced by exhaustive and randomized tests;
//! * [`reduction`] — running detectors on gadget graphs with a
//!   [`congest_sim::CutMeter`] to measure the communication the
//!   simulation actually pushes across the Alice/Bob cut;
//! * [`theory`] — the implied lower-bound formulas.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disjointness;
pub mod gadgets;
pub mod reduction;
pub mod theory;
