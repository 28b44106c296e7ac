//! Integration of the quantum stack: Grover simulation ↔ amplification ↔
//! decomposition ↔ the full Lemma 13 pipeline.

use even_cycle_congest::cycle::{Backend, LowProbDetector, Params, QuantumCycleDetector};
use even_cycle_congest::graph::{generators, NodeId};
use even_cycle_congest::quantum::decomposition::{decompose, reduced_components};
use even_cycle_congest::quantum::{
    GroverMode, GroverSearch, MonteCarloAlgorithm, MonteCarloAmplifier, StateVector,
};

#[test]
fn statevector_grover_matches_analytic_law() {
    // One shared check across the crates: the state-vector success curve
    // equals sin²((2j+1)θ) for several (M, m).
    for (dim, marked) in [(32usize, 1usize), (64, 4), (128, 16)] {
        let theta = ((marked as f64 / dim as f64).sqrt()).asin();
        let mut psi = StateVector::uniform(dim);
        for j in 1..=5u32 {
            psi.grover_iteration(|x| x < marked);
            let p = psi.probability_of(|x| x < marked);
            let theory = ((2 * j + 1) as f64 * theta).sin().powi(2);
            assert!(
                (p - theory).abs() < 1e-9,
                "dim={dim} m={marked} j={j}: {p} vs {theory}"
            );
        }
    }
}

#[test]
fn amplifier_finds_low_prob_detection_on_real_graph() {
    // The exact Lemma 12 → Theorem 3 composition on one small graph,
    // analytic Grover over the true seed space.
    let g = generators::complete_bipartite(6, 6); // dense in C4s
    let det = LowProbDetector::new(Params::practical(2).with_repetitions(40));
    let mut mc = det.as_monte_carlo(&g, Backend::Sequential);
    // Empirical sanity: some seeds do reject.
    let marked = (0..200).filter(|&s| mc.rejects(s)).count();
    assert!(marked > 0, "no rejecting seeds at all");
    let amp = MonteCarloAmplifier::new(0.05).with_mode(GroverMode::Sampled { samples: 96 });
    let report = amp.amplify(&mut mc, 3);
    if report.rejected {
        let ws = report.witness_seed.unwrap();
        let rerun = det.run(&g, ws);
        assert!(rerun.rejected(), "witness seed must reproduce");
        assert!(rerun.witness().unwrap().is_valid(&g));
    }
}

#[test]
fn quantum_pipeline_agrees_with_classical_detector() {
    // On yes-instances both eventually find; on no-instances both always
    // accept. (The quantum run may miss — one-sidedness is the hard
    // guarantee.)
    let qdet = QuantumCycleDetector::new(Params::practical(2).with_repetitions(24), 0.1)
        .with_declared_success(1.0 / 256.0);
    for seed in 0..2 {
        let g = generators::random_tree(48, seed);
        let q = qdet.run(&g, seed);
        assert!(!q.rejected, "quantum pipeline broke one-sidedness");
    }
    let host = generators::random_tree(40, 9);
    let (g, _) = generators::plant_cycle(&host, 4, 9);
    let found = (0..4).any(|seed| {
        let q = qdet.run(&g, seed);
        if q.rejected {
            assert!(q.witness.as_ref().unwrap().is_valid(&g));
        }
        q.rejected
    });
    assert!(found, "quantum pipeline never found the planted C4");
}

#[test]
fn decomposition_supports_cycle_detection_soundly() {
    // Every C4 of the input appears in some reduced component, so
    // per-component detection loses nothing.
    for seed in 0..3 {
        let host = generators::random_tree(70, seed);
        let (g, planted) = generators::plant_cycle(&host, 4, seed);
        let d = decompose(&g, 5, seed);
        let comps = reduced_components(&g, &d, 2);
        let cycle: std::collections::HashSet<NodeId> = planted.nodes().iter().copied().collect();
        let covered = comps.iter().any(|c| {
            let ids: std::collections::HashSet<NodeId> = c.original_ids.iter().copied().collect();
            cycle.is_subset(&ids)
        });
        assert!(covered, "seed {seed}: planted C4 not inside any component");
    }
}

#[test]
fn grover_iterations_follow_quadratic_law_in_pipeline_sizes() {
    // For a synthetic oracle with a single marked seed, the BBHT
    // schedule uses ~√M iterations; verify the scaling across two sizes
    // through the DistributedSearch wrapper that the amplifier uses.
    use even_cycle_congest::quantum::DistributedSearch;
    let avg = |dim: usize| -> f64 {
        let mut total = 0u64;
        for seed in 0..20 {
            let search = DistributedSearch::new(1, 0, 0.1);
            let r = search.run(dim, |x| x == dim / 2, seed);
            assert!(r.result.is_some());
            total += r.iterations;
        }
        total as f64 / 20.0
    };
    let small = avg(256);
    let large = avg(16384);
    let ratio = large / small;
    assert!(
        ratio > 3.0 && ratio < 22.0,
        "64x space should be ~8x iterations, got {ratio} ({small} -> {large})"
    );
}

#[test]
fn fast_ci_quantum_outputs_are_pinned() {
    // Verdict, rounds and iterations of the four fast-ci k = 2 quantum
    // entries, recorded before the oracle scan was memoized: the memo
    // changes how often a seed is simulated, never what any report or
    // store record holds.
    use even_cycle_congest::{FamilySpec, Model, RunProfile, Verdict};
    let pinned = [
        (
            "trees",
            "quantum/C4/amplified-color-bfs-pipeline",
            "accept",
            161006,
            397,
        ),
        (
            "trees",
            "quantum/C5/amplified-odd-color-bfs-pipeline",
            "accept",
            284684,
            589,
        ),
        (
            "trees",
            "quantum/F4/amplified-pairwise-sweep-pipeline",
            "accept",
            308184,
            780,
        ),
        (
            "trees",
            "quantum/F4/quantized-heavy-search-framework",
            "accept",
            92250,
            321,
        ),
        (
            "planted:4",
            "quantum/C4/amplified-color-bfs-pipeline",
            "reject C4",
            16225,
            38,
        ),
        (
            "planted:4",
            "quantum/C5/amplified-odd-color-bfs-pipeline",
            "accept",
            141830,
            297,
        ),
        (
            "planted:4",
            "quantum/F4/amplified-pairwise-sweep-pipeline",
            "reject C4",
            196933,
            500,
        ),
        (
            "planted:4",
            "quantum/F4/quantized-heavy-search-framework",
            "accept",
            89380,
            321,
        ),
    ];
    let registry = RunProfile::FastCi.registry(2);
    let budget = RunProfile::FastCi.budget();
    let quantum = registry
        .iter()
        .filter(|e| e.descriptor.model == Model::Quantum)
        .count();
    assert_eq!(quantum, 4, "every quantum entry is pinned");
    for (family, id, verdict, rounds, iterations) in pinned {
        let g = FamilySpec::parse(family).unwrap().build(24, 0);
        let entry = registry.iter().find(|e| e.id == id).expect(id);
        let d = entry.detector.detect(&g, 0, &budget).unwrap();
        let got = match &d.verdict {
            Verdict::Accept => "accept".to_string(),
            Verdict::Reject {
                cycle_length: Some(l),
                ..
            } => format!("reject C{l}"),
            other => format!("{other:?}"),
        };
        assert_eq!(
            (got.as_str(), d.cost.rounds, d.cost.iterations),
            (verdict, rounds, iterations),
            "{id} on {family}"
        );
    }
}

#[test]
fn exact_grover_agrees_with_analytic_grover_end_to_end() {
    let oracle = |x: usize| x % 32 == 7;
    for seed in 0..10u64 {
        let mut rng_a = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(seed);
        let mut rng_b = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(seed + 500);
        let a = GroverSearch::new(GroverMode::Exact).search(128, oracle, &mut rng_a);
        let b = GroverSearch::new(GroverMode::Analytic).search(128, oracle, &mut rng_b);
        // Both must find (4/128 marked is easy); the exact elements may
        // differ but both must verify.
        assert!(a.found() && b.found(), "seed {seed}");
        assert_eq!(a.result.unwrap() % 32, 7);
        assert_eq!(b.result.unwrap() % 32, 7);
    }
}

#[test]
fn rand_chacha_rng_types_interoperate() {
    // The GroverSearch API takes any Rng; make sure both our standard
    // RNGs work (compile-time + smoke).
    let mut chacha = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(1);
    let mut std_rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
    let s = GroverSearch::new(GroverMode::Analytic);
    assert!(s.search(64, |x| x == 3, &mut chacha).found());
    assert!(s.search(64, |x| x == 3, &mut std_rng).found());
}
