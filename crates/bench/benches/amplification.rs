//! Bench for E7: Theorem 3 amplification across success probabilities
//! (the quadratic `1/√ε` law's cost in simulation).

use congest_quantum::{FnAlgorithm, GroverMode, MonteCarloAmplifier, StateVector};
use even_cycle_bench::timing::bench_case;

fn main() {
    for exp in [8u32, 10, 12] {
        let inv_eps = 1u64 << exp;
        let mut alg = FnAlgorithm::new(move |seed| seed % inv_eps == 1, 1, 1.0 / inv_eps as f64);
        bench_case("amplification/analytic", &inv_eps.to_string(), 20, || {
            MonteCarloAmplifier::new(0.1).amplify(&mut alg, 3)
        });
        bench_case("amplification/sampled", &inv_eps.to_string(), 20, || {
            MonteCarloAmplifier::new(0.1)
                .with_mode(GroverMode::Sampled { samples: 32 })
                .amplify(&mut alg, 3)
        });
    }
    for dim in [1usize << 8, 1 << 12, 1 << 16] {
        let mut psi = StateVector::uniform(dim);
        bench_case("statevector_grover_iteration", &dim.to_string(), 10, || {
            psi.grover_iteration(|x| x == 0);
            psi.probability_of(|x| x == 0)
        });
    }
}
