//! Simulator-level invariants exercised through the paper's own
//! protocols: parallel execution, tracing, and wire encoding all agree
//! with the reference executor.

use even_cycle_congest::cycle::color_bfs::ColorBfs;
use even_cycle_congest::cycle::{random_coloring, Params};
use even_cycle_congest::graph::{generators, CycleWitness, Graph, NodeId};
use even_cycle_congest::sim::trace::run_traced;
use even_cycle_congest::sim::wire::{assert_accounting_consistent, WireEncode};
use even_cycle_congest::sim::{Backend, Executor};

fn planted_instance(seed: u64) -> (Graph, CycleWitness, Vec<u8>) {
    let host = generators::erdos_renyi(48, 0.06, seed);
    let (g, planted) = generators::plant_cycle(&host, 4, seed);
    let mut colors = random_coloring(g.node_count(), 4, seed ^ 77);
    for (i, &u) in planted.nodes().iter().enumerate() {
        colors[u.index()] = i as u8;
    }
    (g, planted, colors)
}

#[test]
fn parallel_executor_runs_color_bfs_identically() {
    for seed in 0..3u64 {
        let (g, _, colors) = planted_instance(seed);
        let tau = Params::practical(2).instantiate(g.node_count()).tau;
        let build = |v: NodeId, _| ColorBfs::new(2, colors[v.index()], true, true, true, tau);

        let mut seq = Executor::new(Backend::Sequential);
        let sr = seq.run(&g, seed, build, 8).unwrap();
        let mut par = Executor::new(Backend::Parallel { threads: 3 });
        let pr = par.run(&g, seed, build, 8).unwrap();

        assert_eq!(sr.decision, pr.decision, "seed {seed}");
        assert_eq!(sr.rounds, pr.rounds);
        assert_eq!(sr.rejecting_nodes, pr.rejecting_nodes);
        assert!(sr.rejected(), "forced coloring must detect");
        // The node states agree too.
        for (a, b) in seq.nodes().iter().zip(par.nodes()) {
            assert_eq!(a.evidence(), b.evidence());
            assert_eq!(a.collected(), b.collected());
        }
    }
}

#[test]
fn parallel_cut_meter_matches_sequential_on_color_bfs() {
    use even_cycle_congest::sim::CutMeter;
    // The §3.3 reductions meter the words crossing a bipartition; the
    // parallel path must count exactly what the sequential path does
    // (it used to silently report `cut_words: None`).
    for seed in 0..3u64 {
        let (g, _, colors) = planted_instance(seed);
        let tau = Params::practical(2).instantiate(g.node_count()).tau;
        let build = |v: NodeId, _| ColorBfs::new(2, colors[v.index()], true, true, true, tau);
        let side: Vec<bool> = (0..g.node_count()).map(|v| v % 2 == 0).collect();

        let mut seq = Executor::new(Backend::Sequential);
        seq.set_cut(CutMeter::new(&g, side.clone()));
        let sr = seq.run(&g, seed, build, 8).unwrap();
        assert!(sr.cut_words.is_some_and(|w| w > 0), "cut must be crossed");

        for threads in [2usize, 4] {
            let mut par = Executor::new(Backend::Parallel { threads });
            par.set_cut(CutMeter::new(&g, side.clone()));
            let pr = par.run(&g, seed, build, 8).unwrap();
            assert_eq!(
                sr.cut_words, pr.cut_words,
                "cut words diverged (seed {seed}, {threads} threads)"
            );
            assert_eq!(sr, pr, "full report must agree (seed {seed})");
        }
    }
}

#[test]
fn trace_agrees_with_congestion_accounting_on_color_bfs() {
    let (g, _, colors) = planted_instance(5);
    let tau = Params::practical(2).instantiate(g.node_count()).tau;
    let (report, trace) = run_traced(
        &g,
        5,
        |v, _| ColorBfs::new(2, colors[v.index()], true, true, true, tau),
        8,
    )
    .unwrap();
    assert_eq!(
        trace.peak_edge_load() as u64,
        report.congestion.max_words_per_edge_step
    );
    let total: usize = trace.events().iter().map(|e| e.words).sum();
    assert_eq!(total as u64, report.congestion.total_words);
    // Every traced endpoint pair is an edge of the graph.
    for e in trace.events() {
        assert!(
            g.has_edge(e.from, e.to),
            "{} -> {} is not an edge",
            e.from,
            e.to
        );
    }
}

#[test]
fn id_sets_encode_within_their_word_budget() {
    // The I_v payloads of color-BFS are Vec<u32>; the wire module pins
    // the word accounting to a real byte encoding.
    for size in [0usize, 1, 3, 17, 200] {
        let ids: Vec<u32> = (0..size as u32).map(|x| x * 7 + 1).collect();
        assert_accounting_consistent(&ids);
    }
    // And NodeId scalars.
    assert_accounting_consistent(&NodeId::new(12345));
}

#[test]
fn wire_roundtrip_preserves_large_payloads() {
    let ids: Vec<u32> = (0..10_000).collect();
    let bytes = ids.to_bytes();
    let mut view = bytes;
    let back = Vec::<u32>::decode(&mut view).expect("decode");
    assert_eq!(back, ids);
}
