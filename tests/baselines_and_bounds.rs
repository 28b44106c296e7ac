//! Cross-crate integration: baselines agree with the paper's detector;
//! lower-bound gadgets compose with the simulator and the theory.

use even_cycle_congest::baselines::censor_hillel::LocalThresholdDetector;
use even_cycle_congest::baselines::deterministic::GatherDetector;
use even_cycle_congest::baselines::eden::EdenModel;
use even_cycle_congest::cycle::{Budget, CycleDetector, Params};
use even_cycle_congest::graph::{analysis, generators};
use even_cycle_congest::lowerbounds::disjointness::Disjointness;
use even_cycle_congest::lowerbounds::gadgets::{C4Gadget, EvenCycleGadget, OddCycleGadget};
use even_cycle_congest::lowerbounds::reduction::measure_even_detection;
use even_cycle_congest::lowerbounds::theory;

#[test]
fn all_detectors_agree_on_planted_c4() {
    let host = generators::random_tree(48, 21);
    let (g, _) = generators::plant_cycle(&host, 4, 21);
    // Exact baseline:
    let gather = GatherDetector::new(4)
        .run(&g, 0, &Budget::classical())
        .unwrap();
    assert!(gather.rejected);
    // Local threshold [10] (higher attempt budget: each attempt needs a
    // cycle-adjacent source *and* a good coloring):
    let lt = LocalThresholdDetector::new(2).with_attempts(24.0, 4096);
    assert!((0..20).any(|s| lt.run(&g, s, &Budget::classical()).rejected));
    // This paper:
    let ours = CycleDetector::new(Params::practical(2));
    assert!(ours.run(&g, 3, &Budget::classical()).rejected());
}

#[test]
fn all_detectors_agree_on_c4_free_input() {
    let g = generators::polarity_graph(5);
    assert!(
        !GatherDetector::new(4)
            .run(&g, 0, &Budget::classical())
            .unwrap()
            .rejected
    );
    let lt = LocalThresholdDetector::new(2);
    let ours = CycleDetector::new(Params::practical(2).with_repetitions(16));
    for seed in 0..3 {
        assert!(!lt.run(&g, seed, &Budget::classical()).rejected);
        assert!(!ours.run(&g, seed, &Budget::classical()).rejected());
    }
}

#[test]
fn eden_agrees_with_ours_on_c6() {
    // A farm of disjoint C6s: the per-repetition success probability is
    // `copies · 12/6⁶`, high enough for deterministic-seeded detection.
    let mut g = generators::cycle(6);
    for _ in 1..8 {
        g = generators::disjoint_union(&g, &generators::cycle(6));
    }
    let g = generators::disjoint_union(&g, &generators::path(12));
    let eden = EdenModel::new(3).with_repetitions(800);
    let found_eden = (0..10).any(|s| eden.run(&g, s, &Budget::classical()).rejected);
    let ours = CycleDetector::new(Params::practical(3).with_repetitions(800));
    let found_ours = (0..10).any(|s| ours.run(&g, s, &Budget::classical()).rejected());
    assert!(found_eden, "[16]-style model missed the C6 entirely");
    assert!(found_ours, "Algorithm 1 missed the C6 entirely");
}

#[test]
fn gather_baseline_rounds_dominate_ours_asymptotically() {
    // On sparse instances the full-gathering baseline costs Θ(m) = Θ(n)
    // rounds, while Algorithm 1's per-iteration cost stays well below n
    // as n grows (the n^{1-1/k} separation). We check the measured gap
    // at one size: per-iteration rounds of ours vs gather rounds.
    let host = generators::random_tree(220, 4);
    let (g, _) = generators::plant_cycle(&host, 4, 4);
    let gather = GatherDetector::new(4)
        .run(&g, 0, &Budget::classical())
        .unwrap();
    let ours = CycleDetector::new(Params::practical(2).with_repetitions(4)).run(
        &g,
        2,
        &Budget::classical(),
    );
    let ours_per_iter = ours.report.rounds / ours.iterations.max(1) / 3;
    assert!(
        gather.report.rounds > 3 * ours_per_iter,
        "gather {} should dwarf a color-BFS call {}",
        gather.report.rounds,
        ours_per_iter
    );
}

#[test]
fn even_gadget_scales_and_reduces() {
    // N = s², n = Θ(s + elements·(k-1)): for full sets the vertex count
    // is Θ(N), the cut Θ(√N) — the balance behind Ω̃(√n).
    let k = 3;
    for s in [3usize, 5] {
        let gadget = EvenCycleGadget::new(k, s);
        let inst = Disjointness::random(s * s, 0.4, 7);
        let built = gadget.build(&inst);
        assert_eq!(built.cut_size, 2 * s);
        assert_eq!(
            analysis::has_cycle_exact(&built.graph, 2 * k, None),
            inst.intersects()
        );
    }
}

#[test]
fn odd_gadget_communication_balance() {
    let gadget = OddCycleGadget::new(2, 4);
    let (inst, _) = Disjointness::random_with_planted_intersection(16, 2);
    let built = gadget.build(&inst);
    // Quantum implied bound beats nothing at tiny n, but the formula
    // chain must be internally consistent:
    let n = built.graph.node_count();
    let q = theory::implied_quantum_round_bound(gadget.universe(), built.cut_size, n);
    let c = theory::implied_classical_round_bound(gadget.universe(), built.cut_size, n);
    // q = √c exactly (the quadratic gap); q ≤ c only once c ≥ 1, which
    // tiny instances need not satisfy.
    assert!((q * q - c).abs() / c.max(1e-9) < 1e-9);
    assert!(q > 0.0);
}

#[test]
fn reduction_measurement_respects_information_limits() {
    let gadget = C4Gadget::new(5);
    let (inst, _) = Disjointness::random_with_planted_intersection(gadget.universe(), 11);
    let built = gadget.build(&inst);
    let params = Params::practical(2).with_repetitions(32);
    let m = measure_even_detection(&built, &params, 32, 5);
    // Bandwidth 1 word/edge/round: crossing words can never exceed
    // rounds × cut.
    assert!(m.cut_words <= m.rounds * m.cut_size as u64);
    // The protocol bound must be consistent with the conversion.
    assert_eq!(
        m.protocol_bound(),
        m.rounds * m.cut_size as u64 * u64::from(m.bits_per_word)
    );
}

#[test]
fn apeldoorn_devos_vs_ours_exponent_gap_widens_with_n() {
    use even_cycle_congest::baselines::apeldoorn_devos::ApeldoornDeVosModel;
    use even_cycle_congest::cycle::theory::Table1Row;
    for k in [2usize, 3, 4] {
        let theirs = ApeldoornDeVosModel::new(k);
        let r_small =
            theirs.round_bound(1 << 12) / Table1Row::ThisPaperQuantumF2k.rounds(1 << 12, k);
        let r_large =
            theirs.round_bound(1 << 24) / Table1Row::ThisPaperQuantumF2k.rounds(1 << 24, k);
        assert!(
            r_large > r_small && r_small >= 1.0,
            "k={k}: improvement must grow with n ({r_small} -> {r_large})"
        );
    }
}
