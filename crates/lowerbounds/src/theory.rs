//! Implied lower-bound formulas (§3.3).

/// The Braverman–Garg–Ko–Mao–Touchette \[4\] bounded-round quantum
/// communication lower bound for Set-Disjointness over `[N]`:
/// an `r`-round protocol needs `Ω(r + N/r)` qubits. Minimizing over `r`
/// gives `Ω(√N)` overall, but the round-by-round form is what the
/// CONGEST reduction needs.
pub fn quantum_disjointness_bound(universe: usize, rounds: u64) -> f64 {
    rounds as f64 + universe as f64 / rounds.max(1) as f64
}

/// The round lower bound implied for a quantum CONGEST algorithm by a
/// gadget with universe `N` and cut size `cut` on an `n`-vertex graph:
/// the protocol exchanges `T · cut · log n` qubits over `T` rounds, so
/// `T · cut · log n ≥ N / T`, i.e. `T ≥ √(N / (cut · log n))`.
pub fn implied_quantum_round_bound(universe: usize, cut: usize, n: usize) -> f64 {
    let log_n = (n as f64).log2().max(1.0);
    (universe as f64 / (cut as f64 * log_n)).sqrt()
}

/// The classical analogue (`Ω(N)` bits total):
/// `T ≥ N / (cut · log n)`.
pub fn implied_classical_round_bound(universe: usize, cut: usize, n: usize) -> f64 {
    let log_n = (n as f64).log2().max(1.0);
    universe as f64 / (cut as f64 * log_n)
}

/// The paper's `Ω̃(n^{1/4})` quantum bound for `C4` — obtained from the
/// C4 gadget with `N = Θ(n^{3/2})` and cut `Θ(n)`:
/// `√(n^{3/2} / (n log n)) = n^{1/4}/√log n`.
pub fn c4_quantum_lower_bound(n: usize) -> f64 {
    let nf = n as f64;
    (nf.powf(1.5) / (nf * nf.log2().max(1.0))).sqrt()
}

/// The paper's `Ω̃(n^{1/4})` quantum bound for `C_{2k}`, `k ≥ 3` — from
/// the `N = Θ(n)`, cut `Θ(√n)` gadget:
/// `√(n / (√n · log n)) = n^{1/4}/√log n`.
pub fn c2k_quantum_lower_bound(n: usize) -> f64 {
    let nf = n as f64;
    (nf / (nf.sqrt() * nf.log2().max(1.0))).sqrt()
}

/// The paper's `Ω̃(√n)` quantum bound for `C_{2k+1}`, `k ≥ 2` — from the
/// `N = Θ(n²)`, cut `Θ(n)` gadget:
/// `√(n² / (n · log n)) = √(n / log n)`.
pub fn odd_quantum_lower_bound(n: usize) -> f64 {
    let nf = n as f64;
    (nf * nf / (nf * nf.log2().max(1.0))).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjointness_bound_minimized_at_sqrt() {
        let n_u = 1 << 16;
        let at_sqrt = quantum_disjointness_bound(n_u, 256);
        for r in [16u64, 64, 1024, 4096] {
            assert!(quantum_disjointness_bound(n_u, r) >= at_sqrt);
        }
    }

    #[test]
    fn implied_bounds_consistent() {
        let n = 1 << 16;
        // C4: N = n^{3/2}, cut = n.
        let c4 = implied_quantum_round_bound((f64::powf(n as f64, 1.5)) as usize, n, n);
        assert!((c4 - c4_quantum_lower_bound(n)).abs() / c4 < 0.05);
        // C_{2k}: N = n, cut = √n.
        let c2k = implied_quantum_round_bound(n, (n as f64).sqrt() as usize, n);
        assert!((c2k - c2k_quantum_lower_bound(n)).abs() / c2k < 0.05);
    }

    #[test]
    fn lower_bounds_scale_correctly() {
        // n^{1/4} shape: 16x n → 2x bound (up to the log factor).
        let a = c4_quantum_lower_bound(1 << 16);
        let b = c4_quantum_lower_bound(1 << 20);
        let ratio = b / a;
        assert!(ratio > 1.7 && ratio < 2.1, "ratio {ratio}");
        // √n shape for odd cycles: 16x n → 4x.
        let a = odd_quantum_lower_bound(1 << 16);
        let b = odd_quantum_lower_bound(1 << 20);
        let ratio = b / a;
        assert!(ratio > 3.4 && ratio < 4.2, "ratio {ratio}");
    }

    #[test]
    fn quantum_weaker_than_classical_requirement() {
        // The quantum implied bound is the square root of the classical
        // one (same gadget).
        let (n_u, cut, n) = (1 << 20, 1 << 10, 1 << 20);
        let q = implied_quantum_round_bound(n_u, cut, n);
        let c = implied_classical_round_bound(n_u, cut, n);
        assert!((q * q - c).abs() / c < 1e-9);
    }

    #[test]
    fn upper_meets_lower_for_c4() {
        // Theorem 2: the Õ(n^{1/4}) quantum C4 algorithm is optimal.
        let n = 1 << 20;
        let upper = even_cycle::theory::Table1Row::ThisPaperQuantum.rounds(n, 2);
        let lower = c4_quantum_lower_bound(n);
        // Same polynomial: ratio is polylog only.
        let ratio = upper / lower;
        assert!(ratio > 1.0 && ratio < 30.0, "ratio {ratio}");
    }
}
