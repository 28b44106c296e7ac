//! End-to-end integration: the distributed detectors against exact
//! ground truth, across generators, parameters, and executors.

use even_cycle_congest::cycle::{
    random_coloring, Budget, CycleDetector, EvenCall, EvenRun, OddCycleDetector, Params, RunOptions,
};
use even_cycle_congest::graph::{analysis, generators, CycleWitness, Graph};
use even_cycle_congest::sim::{strict::StrictExecutor, Backend, Executor};

/// Colors a known cycle consecutively; everything else gets the last
/// color.
fn consecutive_coloring(g: &Graph, cycle: &CycleWitness, palette: usize) -> Vec<u8> {
    let mut c = vec![(palette - 1) as u8; g.node_count()];
    for (i, &u) in cycle.nodes().iter().enumerate() {
        c[u.index()] = i as u8;
    }
    c
}

#[test]
fn detector_matches_ground_truth_on_planted_instances() {
    for (k, l) in [(2usize, 4usize), (3, 6)] {
        for seed in 0..3u64 {
            let host = generators::random_tree(64, seed);
            let (g, planted) = generators::plant_cycle(&host, l, seed);
            assert!(analysis::has_cycle_exact(&g, l, None), "sanity");
            // Forced coloring pins the detection event; one repetition
            // suffices.
            let opts = RunOptions {
                forced_coloring: Some(consecutive_coloring(&g, &planted, 2 * k)),
                ..Default::default()
            };
            let det = CycleDetector::new(Params::practical(k).with_repetitions(1));
            let outcome = det.run_with(&g, seed, &Budget::classical(), &opts);
            assert!(outcome.rejected(), "k={k} seed={seed}");
            let w = outcome.witness().unwrap();
            assert_eq!(w.len(), l);
            assert!(w.is_valid(&g));
        }
    }
}

#[test]
fn detector_sound_on_cycle_free_families() {
    let det = CycleDetector::new(Params::practical(2).with_repetitions(24));
    // Trees, odd cycles, girth-controlled thetas, C4-free extremal
    // graphs: none may ever be rejected by the k = 2 detector.
    let inputs: Vec<Graph> = vec![
        generators::random_tree(80, 1),
        generators::cycle(9),
        generators::theta(2, 4), // girth 6
        generators::polarity_graph(5),
        generators::star(40),
        generators::path(60),
    ];
    for (i, g) in inputs.iter().enumerate() {
        for seed in 0..3 {
            assert!(
                !det.run(g, seed, &Budget::classical()).rejected(),
                "input {i} rejected with seed {seed}"
            );
        }
    }
}

#[test]
fn full_randomized_run_detects_with_paper_repetitions() {
    // No hooks at all: Algorithm 1 with K = 563 (the paper's constant at
    // k = 2, ε = 1/3) on a planted instance. Deterministic by seed.
    let host = generators::random_tree(96, 5);
    let (g, _) = generators::plant_cycle(&host, 4, 5);
    let det = CycleDetector::new(Params::paper(2, 1.0 / 3.0));
    let outcome = det.run(&g, 1, &Budget::classical());
    assert!(outcome.rejected());
    assert!(outcome.witness().unwrap().is_valid(&g));
}

#[test]
fn rejection_certified_on_dense_random_graphs() {
    let det = CycleDetector::new(Params::practical(2).with_repetitions(32));
    for seed in 0..4 {
        let g = generators::erdos_renyi(60, 0.12, seed);
        let outcome = det.run(&g, seed + 100, &Budget::classical());
        if outcome.rejected() {
            let w = outcome.witness().unwrap();
            assert_eq!(w.len(), 4);
            assert!(w.is_valid(&g));
            assert!(analysis::has_cycle_exact(&g, 4, None));
        }
    }
}

#[test]
fn odd_detector_matches_bipartite_ground_truth() {
    // Bipartite inputs have no odd cycles; non-bipartite small-girth
    // inputs have one the detector can eventually find.
    let det = OddCycleDetector::new(2, 150);
    for seed in 0..3 {
        let g = generators::random_bipartite(24, 24, 0.15, seed);
        assert!(!det.run(&g, seed, &Budget::classical()).rejected());
    }
    let g = generators::theta(2, 3); // C5
    let found = (0..30).any(|seed| det.run(&g, seed, &Budget::classical()).rejected());
    assert!(found);
}

#[test]
fn strict_and_logical_executors_agree_on_color_bfs() {
    use even_cycle_congest::cycle::color_bfs::ColorBfs;
    for seed in 0..3u64 {
        let host = generators::erdos_renyi(40, 0.08, seed);
        let (g, planted) = generators::plant_cycle(&host, 4, seed);
        let colors = consecutive_coloring(&g, &planted, 4);
        let build = |v: even_cycle_congest::graph::NodeId, _n: usize| {
            ColorBfs::new(2, colors[v.index()], true, true, true, 50)
        };
        let mut logical = Executor::new(Backend::Sequential);
        let lr = logical.run(&g, seed, build, 8).unwrap();
        let mut strict = StrictExecutor::new(&g, seed);
        let sr = strict.run(build, 8).unwrap();
        assert_eq!(lr.rounds, sr.rounds, "seed {seed}");
        assert_eq!(lr.decision, sr.decision);
        assert_eq!(lr.congestion, sr.congestion);
        assert!(lr.rejected(), "planted + forced coloring must detect");
    }
}

#[test]
fn rounds_grow_with_threshold_load() {
    // The same input under τ = big vs τ = tiny: with a tiny threshold
    // everything is discarded and rounds stay at the superstep floor;
    // the real threshold lets sets flow, so more words share an edge
    // and rounds grow with congestion.
    let g = generators::complete_bipartite(12, 12);
    let n = g.node_count();
    let colors = random_coloring(n, 4, 3);
    let all = vec![true; n];
    let budget = Budget::classical();
    let call = |tau| {
        let mut run = EvenRun::new(&g, 2, &budget);
        let _ = run.visit(&EvenCall {
            iteration: 1,
            colors: &colors,
            h_mask: &all,
            x_mask: &all,
            activation: None,
            tau,
            seed: 9,
        });
        run.finish().report
    };
    let (big, tiny) = (call(1000), call(0));
    assert!(big.rounds >= tiny.rounds);
    assert!(
        big.congestion.max_words_per_edge_step > tiny.congestion.max_words_per_edge_step,
        "τ = 1000 carries {} words on an edge, τ = 0 carries {}",
        big.congestion.max_words_per_edge_step,
        tiny.congestion.max_words_per_edge_step
    );
}

#[test]
fn disconnected_graphs_are_handled() {
    // CONGEST formally assumes connectivity; the simulator and the
    // detector must still behave sensibly on disconnected inputs
    // (detection works within components).
    let g = generators::disjoint_union(&generators::cycle(4), &generators::random_tree(20, 3));
    let det = CycleDetector::new(Params::practical(2).with_repetitions(64));
    let found = (0..6).any(|seed| {
        let o = det.run(&g, seed, &Budget::classical());
        if o.rejected() {
            assert!(o.witness().unwrap().is_valid(&g));
        }
        o.rejected()
    });
    assert!(found, "C4 in a disconnected component never found");
}

#[test]
fn f2k_detects_shortest_length_first() {
    use even_cycle_congest::cycle::F2kDetector;
    // A graph with both a C4 and a C6: the pair ℓ=2 must fire (with a
    // C4), never reporting 6 first.
    let host = generators::random_tree(50, 7);
    let (g1, _) = generators::plant_cycle(&host, 4, 7);
    let (g, _) = generators::plant_cycle(&g1, 6, 8);
    let det = F2kDetector::new(3).with_repetitions(400);
    let mut seen = None;
    for seed in 0..6 {
        let o = det.run(&g, seed, &Budget::classical());
        if o.rejected {
            seen = o.cycle_length;
            break;
        }
    }
    let len = seen.expect("something must be found");
    assert!(len <= 4, "shortest pair must fire first, got C{len}");
}
