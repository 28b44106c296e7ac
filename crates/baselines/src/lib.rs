//! Baseline cycle-detection algorithms — the Table 1 comparators.
//!
//! * [`censor_hillel`] — the *local threshold* algorithm of Censor-Hillel
//!   et al. \[10\] for `C_{2k}`, `k ∈ {2,…,5}`: a single random source per
//!   attempt, constant threshold, `O(n^{1-1/k})` attempts. The technique
//!   provably does **not** extend to `k ≥ 6` (Fraigniaud–Luce–Todinca
//!   \[23\]) — which is exactly the gap the paper's global threshold
//!   closes.
//! * [`deterministic`] — the deterministic baseline for the
//!   `Θ̃(n)`-rounds odd-cycle row ([15, 30]): full-graph gathering with
//!   honest `O(m + D)` round accounting plus local exact detection
//!   (substitution documented in DESIGN.md §2.6: matches the
//!   Korhonen–Rybicki bound on the sparse benchmark families).
//! * [`eden`] — an Eden-et-al.-style \[16\] two-level degree-threshold
//!   detector exposing the `Õ(n^{1-2/(k²-2k+4)})` shape that the paper
//!   improves for `k ≥ 6`.
//! * [`apeldoorn_devos`] — the van Apeldoorn–de Vos \[33\] quantum
//!   framework model (`Õ(n^{1/2-1/(4k+2)})`), for the quantum Table 1
//!   rows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apeldoorn_devos;
pub mod censor_hillel;
pub mod deterministic;
pub mod eden;
