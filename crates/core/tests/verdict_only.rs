//! The verdict-only oracles of the three randomized bases — the Lemma 12
//! detector (Algorithm 2), the §3.4 odd-cycle detector and the
//! randomized §3.5 `F_{2k}` detector — against their costed runs, on
//! their fast-ci configurations: the same verdict on every seed, and
//! costed rounds within the round bound the amplifier charges per
//! `Setup` instead of simulating it.

use congest_graph::{generators, FamilySpec, Graph};
use congest_quantum::MonteCarloAlgorithm;
use even_cycle::{Backend, F2kDetector, LowProbDetector, OddCycleDetector, Params, RunOptions};

/// The families of `suites/smoke.suite`.
const SMOKE_FAMILIES: [&str; 14] = [
    "trees",
    "cycle",
    "torus",
    "polarity",
    "planted:4",
    "multi:2:4",
    "noisy:4:0.02",
    "planted-polarity:4",
    "er:3",
    "bipartite:0.1",
    "regular:2",
    "funnel:4:2",
    "pa:2",
    "ws:4:0.1",
];

/// The smoke families at n = 24 and 32, plus three instances rich in
/// targets: `K_{6,6}` (C4s), a C5 farm, and a tree with a planted C4.
fn corpus() -> Vec<(String, Graph)> {
    let mut graphs = Vec::new();
    for family in SMOKE_FAMILIES {
        for n in [24, 32] {
            let g = FamilySpec::parse(family).unwrap().build(n, 0);
            graphs.push((format!("{family} n={n}"), g));
        }
    }
    graphs.push(("K6,6".to_string(), generators::complete_bipartite(6, 6)));
    let mut farm = generators::cycle(5);
    for _ in 1..6 {
        farm = generators::disjoint_union(&farm, &generators::cycle(5));
    }
    graphs.push(("C5 farm".to_string(), farm));
    let (planted, _) = generators::plant_cycle(&generators::random_tree(32, 5), 4, 5);
    graphs.push(("tree + C4".to_string(), planted));
    graphs
}

fn low_prob() -> LowProbDetector {
    LowProbDetector::new(Params::practical(2).with_repetitions(8))
}

fn odd() -> OddCycleDetector {
    OddCycleDetector::new(2, 20)
}

fn f2k() -> F2kDetector {
    F2kDetector::new(2).with_repetitions(12).randomized()
}

/// Asserts that `verdict` answers like the costed run on the whole
/// corpus over seeds 0..200, and that the costed run rejects at least 20
/// times (so the comparison is not vacuous).
fn assert_same_verdicts(
    base: &str,
    verdict: impl Fn(&Graph, u64) -> bool,
    costed: impl Fn(&Graph, u64) -> bool,
) {
    let mut rejections = 0;
    for (label, g) in corpus() {
        for seed in 0..200 {
            let want = costed(&g, seed);
            assert_eq!(verdict(&g, seed), want, "{base} on {label}, seed {seed}");
            rejections += usize::from(want);
        }
    }
    assert!(rejections >= 20, "{base}: {rejections} rejections");
}

#[test]
fn low_prob_verdicts_match_costed_runs() {
    let det = low_prob();
    assert_same_verdicts(
        "Lemma 12",
        |g, seed| det.rejects(g, seed, Backend::Sequential),
        |g, seed| det.run(g, seed).rejected(),
    );
}

#[test]
fn odd_verdicts_match_costed_runs() {
    let det = odd();
    assert_same_verdicts(
        "odd",
        |g, seed| det.rejects(g, seed, Backend::Sequential),
        |g, seed| det.run(g, seed).rejected(),
    );
}

#[test]
fn f2k_verdicts_match_costed_runs() {
    let det = f2k();
    assert_same_verdicts(
        "F2k",
        |g, seed| det.rejects(g, seed, Backend::Sequential),
        |g, seed| det.run(g, seed).rejected(),
    );
}

#[test]
fn costed_runs_stay_within_the_charged_round_bound() {
    // The amplifier charges each Setup the wrapper's round_bound() and
    // simulates no run in full, so the bound must cover every costed
    // run. The Lemma 12 detector runs every repetition.
    let (low, odd, f2k) = (low_prob(), odd(), f2k());
    for (label, g) in corpus() {
        for bandwidth in [1, 2, 4] {
            let low_bound = low
                .as_monte_carlo(&g)
                .with_bandwidth(bandwidth)
                .round_bound();
            let odd_bound = odd.as_monte_carlo(&g).round_bound();
            let f2k_bound = f2k.as_monte_carlo(&g).round_bound();
            let every_repetition = RunOptions {
                bandwidth,
                continue_after_reject: true,
                ..Default::default()
            };
            for seed in 0..40 {
                let at = format!("{label}, B = {bandwidth}, seed {seed}");
                let rounds = low.run_with(&g, seed, &every_repetition).rounds();
                assert!(
                    rounds <= low_bound,
                    "Lemma 12 on {at}: {rounds} > {low_bound}"
                );
                let rounds = odd.run_with_bandwidth(&g, seed, bandwidth).rounds();
                assert!(rounds <= odd_bound, "odd on {at}: {rounds} > {odd_bound}");
                let rounds = f2k.run_with_bandwidth(&g, seed, bandwidth).report.rounds;
                assert!(rounds <= f2k_bound, "F2k on {at}: {rounds} > {f2k_bound}");
            }
        }
    }
}
