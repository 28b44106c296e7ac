//! The quadratic quantum speedup of Theorem 3, measured.
//!
//! Amplifying a one-sided Monte-Carlo algorithm with success probability
//! `ε` costs `Θ(1/ε)` repetitions classically but only `Θ(1/√ε)` Grover
//! iterations quantumly. This example sweeps `ε` and prints both costs
//! for the same synthetic detector, then runs the full quantum pipeline
//! (Lemma 13) on a planted-cycle graph.
//!
//! ```text
//! cargo run --release --example quantum_speedup
//! ```

use even_cycle_congest::cycle::{Budget, Params, QuantumCycleDetector};
use even_cycle_congest::graph::generators;
use even_cycle_congest::quantum::{FnAlgorithm, MonteCarloAmplifier};

fn main() {
    println!("== Theorem 3: amplification cost vs success probability ==");
    println!(
        "{:>10} {:>14} {:>14} {:>9}",
        "1/eps", "classical", "quantum", "speedup"
    );
    for exp in [6u32, 8, 10, 12, 14] {
        let inv_eps = 1u64 << exp;
        let mut alg = FnAlgorithm::new(move |seed| seed % inv_eps == 1, 1, 1.0 / inv_eps as f64);
        // Oversample the seed space so "no marked seed landed in the
        // space" (probability e^{-c}) is negligible for the demo.
        let amp = MonteCarloAmplifier::new(0.1).with_seed_space_factor(8.0);
        let mut q = 0u64;
        let mut c = 0u64;
        let mut found = 0u64;
        let trials = 5;
        for master in 0..trials {
            // One evaluator answers every seed of every amplification.
            let r = amp.amplify(&mut alg, master);
            if r.rejected {
                found += 1;
            }
            q += r.quantum_rounds;
            c += r.classical_rounds_baseline;
        }
        println!(
            "{:>10} {:>14} {:>14} {:>8.1}x   ({found}/{trials} found)",
            inv_eps,
            c / trials,
            q / trials,
            c as f64 / q as f64
        );
    }

    println!();
    println!("== Lemma 13: the full quantum C4 pipeline ==");
    let host = generators::random_tree(96, 11);
    let (graph, planted) = generators::plant_cycle(&host, 4, 11);
    println!("input: n = {}, planted {planted}", graph.node_count());
    let detector = QuantumCycleDetector::new(Params::practical(2).with_repetitions(64), 0.1)
        .with_declared_success(1.0 / 400.0);
    let outcome = detector.run(&graph, 5, &Budget::classical());
    println!(
        "decomposition: {} colors, {} components, {} rounds",
        outcome.colors, outcome.components, outcome.decomposition_rounds
    );
    match &outcome.witness {
        Some(w) => println!("REJECT — certified 4-cycle {w}"),
        None => println!("ACCEPT (missed the planted cycle this run)"),
    }
    println!(
        "quantum rounds: {} (classical amplification of the same detector: {} — {:.1}x)",
        outcome.quantum_rounds,
        outcome.classical_rounds,
        outcome.classical_rounds as f64 / outcome.quantum_rounds.max(1) as f64
    );
    println!(
        "Grover iterations: {}, simulator-side classical runs: {} modelled, {} executed",
        outcome.iterations, outcome.classical_evals, outcome.simulations
    );
}
