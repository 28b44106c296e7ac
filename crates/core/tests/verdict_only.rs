//! The verdict-only evaluators of the three randomized bases — the
//! Lemma 12 detector (Algorithm 2), the §3.4 odd-cycle detector and the
//! randomized §3.5 `F_{2k}` detector — against their costed runs, on
//! their fast-ci configurations at k = 2 and 3: the same verdict on
//! every seed, asked in order of one evaluator per graph as the
//! amplifier asks it, and costed rounds within the round bound the
//! amplifier charges per `Setup` instead of simulating it.

mod common;

use common::corpus;
use congest_quantum::MonteCarloAlgorithm;
use even_cycle::{
    Backend, F2kDetector, LowProbDetector, OddCycleDetector, Params, Phase, RunOptions,
};

/// Seeds asked of each evaluator, in order.
const SEEDS: u64 = 200;

fn low_prob(k: usize) -> LowProbDetector {
    LowProbDetector::new(Params::practical(k).with_repetitions(8))
}

/// The Lemma 12 base with its selection probability scaled down. At
/// practical parameters `p = 1` for every `n ≤ 309`, so `S = V` and
/// `W = ∅` on the whole corpus; at this scale `p` is 0.3–0.5 there.
fn scaled_low_prob() -> LowProbDetector {
    LowProbDetector::new(
        Params::practical(2)
            .with_repetitions(8)
            .with_probability_scale(0.1),
    )
}

fn odd(k: usize) -> OddCycleDetector {
    OddCycleDetector::new(k, 20)
}

fn f2k(k: usize) -> F2kDetector {
    F2kDetector::new(k).with_repetitions(12).randomized()
}

/// Asserts that `mc`, asked seeds 0..200 in order, answers each as the
/// costed run does, and returns how many reject. One evaluator answers
/// every seed, as in an amplification, so state that leaks from one
/// evaluation into the next through a reused session or scratch buffer
/// shows up as a wrong verdict.
fn same_verdicts(
    at: &str,
    mc: &mut impl MonteCarloAlgorithm,
    mut costed: impl FnMut(u64) -> bool,
) -> usize {
    (0..SEEDS)
        .filter(|&seed| {
            let want = costed(seed);
            assert_eq!(mc.rejects(seed), want, "{at}, seed {seed}");
            want
        })
        .count()
}

/// The fast-ci values of `k` each base is checked at, with the fewest
/// rejections its verdicts must include over the corpus: at k = 3 the
/// palettes meet at color 3, and the targets are rarer.
const KS: [(usize, usize); 2] = [(2, 20), (3, 1)];

#[test]
fn low_prob_verdicts_match_costed_runs() {
    for (k, least) in KS {
        let det = low_prob(k);
        let mut rejections = 0;
        for (label, g) in corpus() {
            let mut mc = det.as_monte_carlo(&g, Backend::Sequential);
            let at = format!("Lemma 12, k = {k}, on {label}");
            rejections += same_verdicts(&at, &mut mc, |seed| det.run(&g, seed).rejected());
        }
        assert!(
            rejections >= least,
            "Lemma 12, k = {k}: {rejections} rejections"
        );
    }
}

#[test]
fn scaled_low_prob_verdicts_match_costed_runs() {
    // The set-up shortcut and the selected and heavy calls at work on
    // proper sets: S ≠ V, W ≠ ∅, and some heavy calls that reject.
    let det = scaled_low_prob();
    let (mut rejections, mut proper_s, mut nonempty_w, mut heavy) = (0, 0, 0, 0);
    for (label, g) in corpus() {
        let n = g.node_count();
        let mut mc = det.as_monte_carlo(&g, Backend::Sequential);
        let at = format!("scaled Lemma 12 on {label}");
        rejections += same_verdicts(&at, &mut mc, |seed| {
            let outcome = det.run(&g, seed);
            // The walk stops at the first rejecting call, so the first
            // iteration's selected call is walked unless its light call
            // rejected, and its heavy call unless either did.
            let stop = match outcome.iterations {
                1 => outcome.phase,
                _ => None,
            };
            if stop != Some(Phase::Light) && outcome.sets.s_size < n {
                proper_s += 1;
            }
            if stop.is_none_or(|p| p == Phase::Heavy) && outcome.sets.w_size > 0 {
                nonempty_w += 1;
            }
            heavy += usize::from(outcome.phase == Some(Phase::Heavy));
            outcome.rejected()
        });
    }
    assert!(proper_s > 0, "no selected call walked with S ≠ V");
    assert!(nonempty_w > 0, "no heavy call walked with W ≠ ∅");
    assert!(heavy > 0, "no heavy call rejected");
    assert!(rejections >= 20, "scaled Lemma 12: {rejections} rejections");
}

#[test]
fn odd_verdicts_match_costed_runs() {
    for (k, least) in KS {
        let det = odd(k);
        let mut rejections = 0;
        for (label, g) in corpus() {
            let mut mc = det.as_monte_carlo(&g, Backend::Sequential);
            let at = format!("odd, k = {k}, on {label}");
            rejections += same_verdicts(&at, &mut mc, |seed| det.run(&g, seed).rejected());
        }
        assert!(rejections >= least, "odd, k = {k}: {rejections} rejections");
    }
}

#[test]
fn f2k_verdicts_match_costed_runs() {
    // Some rejection must come from the top pair's hand-off: a C3 at
    // k = 2, and at k = 3 a C5, which on the corpus only the Petersen
    // farm yields (its girth leaves pair 2 nothing). On the C3 farm no
    // node lies on a C4, so an evaluator that launched only from nodes
    // on a C4 would miss every rejection there.
    for (k, least) in KS {
        let det = f2k(k);
        let (mut rejections, mut hand_offs) = (0, 0);
        for (label, g) in corpus() {
            let mut mc = det.as_monte_carlo(&g, Backend::Sequential);
            let at = format!("F2k, k = {k}, on {label}");
            rejections += same_verdicts(&at, &mut mc, |seed| {
                let outcome = det.run(&g, seed);
                let hand_off = outcome.pair == Some(k) && outcome.cycle_length == Some(2 * k - 1);
                hand_offs += usize::from(hand_off);
                outcome.rejected
            });
        }
        assert!(rejections >= least, "F2k, k = {k}: {rejections} rejections");
        assert!(
            hand_offs > 0,
            "F2k, k = {k}: pair {k} never rejected on its hand-off"
        );
    }
}

#[test]
fn costed_runs_stay_within_the_charged_round_bound() {
    // The amplifier charges each Setup the wrapper's round_bound() and
    // simulates no run in full, so the bound must cover every costed
    // run. The Lemma 12 detector runs every repetition.
    let (low, odd, f2k) = (low_prob(2), odd(2), f2k(2));
    let seq = Backend::Sequential;
    for (label, g) in corpus() {
        for bandwidth in [1, 2, 4] {
            let low_bound = low
                .as_monte_carlo(&g, seq)
                .with_bandwidth(bandwidth)
                .round_bound();
            let odd_bound = odd.as_monte_carlo(&g, seq).round_bound();
            let f2k_bound = f2k.as_monte_carlo(&g, seq).round_bound();
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
