//! Closed-form round complexities for every row of Table 1.
//!
//! These are the theoretical curves the benchmark harness
//! (`even-cycle-bench`, binary `table1`) plots measured data against.
//! `Õ`/`Ω̃` constants and polylog factors are normalized to 1 unless the
//! paper states them (Theorem 1's constant is available separately via
//! [`theorem1_constant`]).

/// A row of Table 1 (one algorithm/bound for one cycle family).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Table1Row {
    /// \[11\] Chang–Saranurak: `C3` in `Õ(n^{1/3})`, randomized.
    ChangSaranurakC3,
    /// \[30\] Korhonen–Rybicki: `C_{2k+1}`, `k ≥ 2`, deterministic `Õ(n)`
    /// (tight: `Ω̃(n)` randomized \[15\]).
    KorhonenRybickiOdd,
    /// \[15\] Drucker et al.: `C4` in `O(√n)` (tight).
    DruckerC4,
    /// \[30\] lower bound: `C_{2k}`, `k ≥ 2`, `Ω̃(√n)` randomized.
    EvenLowerBound,
    /// \[10\] Censor-Hillel et al.: `C_{2k}` for `k ∈ {2,…,5}` in
    /// `O(n^{1-1/k})`.
    CensorHillelEven,
    /// \[16\] Eden et al.: `C_{2k}` for even `k ≥ 6` in
    /// `Õ(n^{1-2/(k²-2k+4)})`.
    EdenEvenK,
    /// \[16\] Eden et al.: `C_{2k}` for odd `k ≥ 7` in
    /// `Õ(n^{1-2/(k²-k+2)})`.
    EdenOddK,
    /// \[10\] Censor-Hillel et al.: `{C_ℓ | 3 ≤ ℓ ≤ 2k}` in `Õ(n^{1-1/k})`.
    CensorHillelF2k,
    /// **This paper**: `C_{2k}` for every `k ≥ 2` in `O(n^{1-1/k})`
    /// (Theorem 1).
    ThisPaperClassical,
    /// \[8\] Censor-Hillel et al.: quantum `C3` in `Õ(n^{1/5})`.
    QuantumC3,
    /// \[9\] (unpublished): quantum `C4` in `Õ(n^{1/4})`.
    QuantumC4,
    /// \[33\] van Apeldoorn–de Vos: quantum `{C_ℓ | ℓ ≤ 2k}` in
    /// `Õ(n^{1/2-1/(4k+2)})`.
    ApeldoornDeVosF2k,
    /// **This paper**: quantum `C_{2k}` in `Õ(n^{1/2-1/2k})` (Theorem 2).
    ThisPaperQuantum,
    /// **This paper**: quantum lower bound `Ω̃(n^{1/4})` for `C_{2k}`.
    ThisPaperQuantumLowerBound,
    /// **This paper**: quantum `C_{2k+1}` in `Θ̃(√n)`.
    ThisPaperQuantumOdd,
    /// **This paper**: quantum `{C_ℓ | ℓ ≤ 2k}` in `Õ(n^{1/2-1/2k})`.
    ThisPaperQuantumF2k,
}

impl Table1Row {
    /// All rows, in the paper's order.
    pub const ALL: [Table1Row; 16] = [
        Table1Row::ChangSaranurakC3,
        Table1Row::KorhonenRybickiOdd,
        Table1Row::DruckerC4,
        Table1Row::EvenLowerBound,
        Table1Row::CensorHillelEven,
        Table1Row::EdenEvenK,
        Table1Row::EdenOddK,
        Table1Row::CensorHillelF2k,
        Table1Row::ThisPaperClassical,
        Table1Row::QuantumC3,
        Table1Row::QuantumC4,
        Table1Row::ApeldoornDeVosF2k,
        Table1Row::ThisPaperQuantum,
        Table1Row::ThisPaperQuantumLowerBound,
        Table1Row::ThisPaperQuantumOdd,
        Table1Row::ThisPaperQuantumF2k,
    ];

    /// The exponent `α` in the row's `n^α` complexity (for the given
    /// `k` where applicable).
    pub fn exponent(self, k: usize) -> f64 {
        let kf = k as f64;
        match self {
            Table1Row::ChangSaranurakC3 => 1.0 / 3.0,
            Table1Row::KorhonenRybickiOdd => 1.0,
            Table1Row::DruckerC4 => 0.5,
            Table1Row::EvenLowerBound => 0.5,
            Table1Row::CensorHillelEven
            | Table1Row::ThisPaperClassical
            | Table1Row::CensorHillelF2k => 1.0 - 1.0 / kf,
            Table1Row::EdenEvenK => 1.0 - 2.0 / (kf * kf - 2.0 * kf + 4.0),
            Table1Row::EdenOddK => 1.0 - 2.0 / (kf * kf - kf + 2.0),
            Table1Row::QuantumC3 => 0.2,
            Table1Row::QuantumC4 => 0.25,
            Table1Row::ApeldoornDeVosF2k => 0.5 - 1.0 / (4.0 * kf + 2.0),
            Table1Row::ThisPaperQuantum | Table1Row::ThisPaperQuantumF2k => 0.5 - 1.0 / (2.0 * kf),
            Table1Row::ThisPaperQuantumLowerBound => 0.25,
            Table1Row::ThisPaperQuantumOdd => 0.5,
        }
    }

    /// The row's round complexity at size `n` (constants and polylogs
    /// normalized to 1).
    pub fn rounds(self, n: usize, k: usize) -> f64 {
        (n as f64).powf(self.exponent(k))
    }

    /// Whether the row is an upper bound (`true`) or a lower bound.
    pub fn is_upper_bound(self) -> bool {
        !matches!(
            self,
            Table1Row::EvenLowerBound | Table1Row::ThisPaperQuantumLowerBound
        )
    }

    /// Whether the row concerns the quantum CONGEST model.
    pub fn is_quantum(self) -> bool {
        matches!(
            self,
            Table1Row::QuantumC3
                | Table1Row::QuantumC4
                | Table1Row::ApeldoornDeVosF2k
                | Table1Row::ThisPaperQuantum
                | Table1Row::ThisPaperQuantumLowerBound
                | Table1Row::ThisPaperQuantumOdd
                | Table1Row::ThisPaperQuantumF2k
        )
    }

    /// A short citation label matching Table 1.
    pub fn label(self) -> &'static str {
        match self {
            Table1Row::ChangSaranurakC3 => "[11] C3 rand.",
            Table1Row::KorhonenRybickiOdd => "[15,30] C_{2k+1} det./rand.",
            Table1Row::DruckerC4 => "[15] C4 rand.",
            Table1Row::EvenLowerBound => "[30] C_{2k} lower bound",
            Table1Row::CensorHillelEven => "[10] C_{2k}, k in 2..5",
            Table1Row::EdenEvenK => "[16] C_{2k}, k >= 6 even",
            Table1Row::EdenOddK => "[16] C_{2k}, k >= 7 odd",
            Table1Row::CensorHillelF2k => "[10] {C_l | l <= 2k}",
            Table1Row::ThisPaperClassical => "this paper C_{2k} rand.",
            Table1Row::QuantumC3 => "[8] C3 quantum",
            Table1Row::QuantumC4 => "[9] C4 quantum",
            Table1Row::ApeldoornDeVosF2k => "[33] {C_l | l <= 2k} quantum",
            Table1Row::ThisPaperQuantum => "this paper C_{2k} quantum",
            Table1Row::ThisPaperQuantumLowerBound => "this paper quantum lower bound",
            Table1Row::ThisPaperQuantumOdd => "this paper C_{2k+1} quantum",
            Table1Row::ThisPaperQuantumF2k => "this paper {C_l | l <= 2k} quantum",
        }
    }
}

/// The explicit constant of Theorem 1:
/// `log²(1/ε) · 2^{3k} · k^{2k+3}`.
pub fn theorem1_constant(k: usize, eps: f64) -> f64 {
    let kf = k as f64;
    (1.0 / eps).ln().powi(2) * 2f64.powi(3 * k as i32) * kf.powf(2.0 * kf + 3.0)
}

/// The Theorem 2 quantum round bound with its `k^{O(k)}` constant
/// realized as `k^k`: `k^k · log²(n) · n^{1/2 - 1/2k}`.
pub fn theorem2_rounds(n: usize, k: usize) -> f64 {
    let kf = k as f64;
    let nf = n as f64;
    kf.powf(kf) * nf.log2().powi(2) * nf.powf(0.5 - 1.0 / (2.0 * kf))
}

/// Fits a power law `rounds ≈ c·n^α` to `(n, rounds)` samples by least
/// squares on the log-log scale; returns `(α, c)`.
///
/// # Panics
///
/// Panics with fewer than two samples or non-positive values.
pub fn fit_exponent(samples: &[(f64, f64)]) -> (f64, f64) {
    assert!(samples.len() >= 2, "need at least two samples");
    let logs: Vec<(f64, f64)> = samples
        .iter()
        .map(|&(n, r)| {
            assert!(n > 0.0 && r > 0.0, "samples must be positive");
            (n.ln(), r.ln())
        })
        .collect();
    let m = logs.len() as f64;
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    let alpha = (m * sxy - sx * sy) / (m * sxx - sx * sx);
    let intercept = (sy - alpha * sx) / m;
    (alpha, intercept.exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn this_paper_beats_eden_for_all_k_at_least_6() {
        // The headline improvement: 1 - 1/k < 1 - 2/(k²-2k+4) for k ≥ 6
        // even, and likewise for the odd formula at k ≥ 7.
        for k in (6..40).step_by(2) {
            assert!(
                Table1Row::ThisPaperClassical.exponent(k) < Table1Row::EdenEvenK.exponent(k),
                "k = {k}"
            );
        }
        for k in (7..41).step_by(2) {
            assert!(
                Table1Row::ThisPaperClassical.exponent(k) < Table1Row::EdenOddK.exponent(k),
                "k = {k}"
            );
        }
    }

    #[test]
    fn matches_censor_hillel_for_small_k() {
        for k in 2..=5 {
            assert_eq!(
                Table1Row::ThisPaperClassical.exponent(k),
                Table1Row::CensorHillelEven.exponent(k)
            );
        }
    }

    #[test]
    fn quantum_f2k_beats_apeldoorn_devos() {
        // 1/2 - 1/2k < 1/2 - 1/(4k+2) for every k ≥ 2.
        for k in 2..30 {
            assert!(
                Table1Row::ThisPaperQuantumF2k.exponent(k)
                    < Table1Row::ApeldoornDeVosF2k.exponent(k),
                "k = {k}"
            );
        }
    }

    #[test]
    fn quantum_is_quadratic_speedup() {
        // (1/2 - 1/2k) = (1 - 1/k)/2 exactly.
        for k in 2..20 {
            let c = Table1Row::ThisPaperClassical.exponent(k);
            let q = Table1Row::ThisPaperQuantum.exponent(k);
            assert!((q - c / 2.0).abs() < 1e-12, "k = {k}");
        }
    }

    #[test]
    fn quantum_c4_matches_lower_bound() {
        assert_eq!(Table1Row::ThisPaperQuantum.exponent(2), 0.25);
        assert_eq!(Table1Row::ThisPaperQuantumLowerBound.exponent(2), 0.25);
    }

    #[test]
    fn classification_flags() {
        assert!(!Table1Row::EvenLowerBound.is_upper_bound());
        assert!(Table1Row::ThisPaperClassical.is_upper_bound());
        assert!(Table1Row::ThisPaperQuantum.is_quantum());
        assert!(!Table1Row::ThisPaperClassical.is_quantum());
        for row in Table1Row::ALL {
            assert!(!row.label().is_empty());
        }
    }

    #[test]
    fn fit_exponent_recovers_power_laws() {
        let samples: Vec<(f64, f64)> = (8..14)
            .map(|e| {
                let n = (1u64 << e) as f64;
                (n, 3.0 * n.powf(0.5))
            })
            .collect();
        let (alpha, c) = fit_exponent(&samples);
        assert!((alpha - 0.5).abs() < 1e-9);
        assert!((c - 3.0).abs() < 1e-6);
    }

    #[test]
    fn theorem1_constant_grows_with_k() {
        assert!(theorem1_constant(3, 1.0 / 3.0) > theorem1_constant(2, 1.0 / 3.0));
        assert!(theorem1_constant(2, 0.01) > theorem1_constant(2, 1.0 / 3.0));
    }

    #[test]
    fn rounds_monotone_in_n() {
        for row in Table1Row::ALL {
            assert!(row.rounds(1 << 20, 3) > row.rounds(1 << 10, 3), "{row:?}");
        }
    }
}
