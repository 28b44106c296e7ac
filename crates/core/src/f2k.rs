//! `{C_ℓ | 3 ≤ ℓ ≤ 2k}`-freeness (paper §3.5).
//!
//! The detector processes length *pairs* `(C_{2ℓ-1}, C_{2ℓ})` for
//! `ℓ = 2, …, k`, each pair assuming no shorter cycle exists (shorter
//! cycles are caught by an earlier pair). Per pair, relative to
//! Algorithm 1: `W` becomes *all* neighbors of `S` (no degree
//! restriction), the threshold becomes `τ = 2np`, and the two heavy
//! `color-BFS` calls merge into one `color-BFS(G, c, W, τ)`. Each call
//! runs with the palette `(2ℓ, ℓ)` and its hand-off (see
//! [`crate::color_bfs`]): odd cycles `C_{2ℓ-1}` are caught on the fly,
//! as nodes colored `ℓ+1` also forward to neighbors colored `ℓ-1`, which
//! reject on a match with the set they forwarded.

use std::ops::ControlFlow;

use congest_graph::{CycleWitness, Graph};
use congest_sim::{derive_seed, Backend, RunReport};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::color_bfs::{ColorBfsCall, Coloring, CostedRun, Launch, Palette, VerdictSession};
use crate::detector::RunOptions;

/// The parameters and light set of one pair `ℓ` (§3.5) on one graph,
/// which no seed changes.
#[derive(Debug)]
struct Pair {
    l: usize,
    /// The selection probability `p = ε̂·2ℓ²/n^{1/ℓ}` (at most 1).
    p: f64,
    /// The threshold `τ = 2np`.
    tau: u64,
    /// `U`: the nodes of degree at most `n^{1/ℓ}`.
    u_mask: Vec<bool>,
}

/// The sets the runs of an [`F2kDetector`] on one graph walk: each
/// pair's seed-independent part, computed once, and the `S` and `W`
/// of the pair being walked, refilled in place.
#[derive(Debug)]
struct PairSets {
    pairs: Vec<Pair>,
    /// Every node: the host of the heavy call.
    all: Vec<bool>,
    s_mask: Vec<bool>,
    w_mask: Vec<bool>,
}

impl PairSets {
    fn new(det: &F2kDetector, g: &Graph) -> Self {
        let n = g.node_count();
        let pairs = (2..=det.k)
            .map(|l| {
                let (deg_threshold, p, tau) = det.pair_parameters(n, l);
                let u_mask = g
                    .nodes()
                    .map(|v| (g.degree(v) as f64) <= deg_threshold)
                    .collect();
                Pair { l, p, tau, u_mask }
            })
            .collect();
        PairSets {
            pairs,
            all: vec![true; n],
            s_mask: Vec::new(),
            w_mask: Vec::new(),
        }
    }
}

/// The outcome of an [`F2kDetector`] run.
#[derive(Debug, Clone)]
pub struct F2kOutcome {
    /// Whether some `C_ℓ`, `3 ≤ ℓ ≤ 2k`, was found.
    pub rejected: bool,
    /// The length of the detected cycle.
    pub cycle_length: Option<usize>,
    /// The verified witness.
    pub witness: Option<CycleWitness>,
    /// Which pair `ℓ` (detecting `C_{2ℓ-1}`/`C_{2ℓ}`) fired.
    pub pair: Option<usize>,
    /// Total coloring repetitions executed across all pairs (stops at
    /// the first rejection).
    pub iterations: u64,
    /// Accumulated CONGEST costs.
    pub report: RunReport,
    /// Whether the pair loop was aborted by a [`Budget`](crate::Budget)
    /// cap (the decision is then untrusted).
    pub budget_exceeded: bool,
}

impl F2kOutcome {
    /// Whether a cycle was found.
    pub fn rejected(&self) -> bool {
        self.rejected
    }
}

/// The §3.5 detector for `{C_ℓ | 3 ≤ ℓ ≤ 2k}`-freeness.
///
/// ```
/// use congest_graph::generators;
/// use even_cycle::F2kDetector;
/// // A farm of disjoint C5s (girth 5): the pair ℓ=3 must catch one as
/// // the odd member. (The farm keeps n large enough for the selection
/// // probability to leave its min(1, ·) clamp and boosts the
/// // per-repetition success by the number of copies.)
/// let mut g = generators::cycle(5);
/// for _ in 1..8 {
///     g = generators::disjoint_union(&g, &generators::cycle(5));
/// }
/// let g = generators::disjoint_union(&g, &generators::path(10));
/// let det = F2kDetector::new(3).with_repetitions(2000);
/// let found = (0..10).any(|seed| {
///     let o = det.run(&g, seed);
///     if o.rejected() {
///         assert_eq!(o.cycle_length, Some(5));
///     }
///     o.rejected()
/// });
/// assert!(found);
/// ```
#[derive(Debug, Clone)]
pub struct F2kDetector {
    k: usize,
    repetitions_per_pair: usize,
    eps_hat: f64,
    /// §3.5 quantization mode: activate sources with probability `1/τ`
    /// and clamp the threshold to 4 (the `F_{2k}` analogue of
    /// Algorithm 2), making the detector constant-congestion and
    /// amplifiable.
    randomized: bool,
}

impl F2kDetector {
    /// Creates a detector for cycles of length at most `2k` (`k ≥ 2`),
    /// with a practical repetition cap per pair (see
    /// [`crate::Params::practical`] for the rationale).
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 2, "F_{{2k}} needs k ≥ 2");
        F2kDetector {
            k,
            repetitions_per_pair: 512,
            eps_hat: 9f64.ln(),
            randomized: false,
        }
    }

    /// Switches to the congestion-reduced variant (activation `1/τ`,
    /// threshold 4) — the classical half of the §3.5 quantum algorithm.
    pub fn randomized(mut self) -> Self {
        self.randomized = true;
        self
    }

    /// Whether the congestion-reduced variant is active.
    pub fn is_randomized(&self) -> bool {
        self.randomized
    }

    /// The largest pair threshold `τ_k = 2np_k` at size `n` (the binding
    /// one: `τ_ℓ` grows with `ℓ`).
    pub fn max_tau(&self, n: usize) -> u64 {
        self.pair_parameters(n, self.k).2
    }

    /// The parameters of pair `ℓ` at size `n` (§3.5): the degree
    /// threshold `n^{1/ℓ}`, `p = ε̂·2ℓ²/n^{1/ℓ}` (at most 1) and
    /// `τ = 2np`.
    fn pair_parameters(&self, n: usize, l: usize) -> (f64, f64, u64) {
        let deg_threshold = (n as f64).powf(1.0 / l as f64);
        let p = (self.eps_hat * 2.0 * (l * l) as f64 / deg_threshold).min(1.0);
        let tau = ((2.0 * n as f64 * p).ceil() as u64).max(1);
        (deg_threshold, p, tau)
    }

    /// One-sided success probability of a randomized run (`1/(3τ_k)`,
    /// following Lemma 12's argument applied per pair).
    pub fn success_probability(&self, n: usize) -> f64 {
        1.0 / (3.0 * self.max_tau(n) as f64)
    }

    /// Upper bound on the rounds of one run: per pair,
    /// `K` repetitions × 2 calls × `(ℓ+2)` supersteps, each superstep
    /// carrying at most 4 words per edge in randomized mode (or `τ_ℓ`
    /// otherwise — this bound is for the randomized variant used by the
    /// quantum pipeline).
    pub fn round_bound(&self) -> u64 {
        let mut total = 0u64;
        for l in 2..=self.k as u64 {
            total += self.repetitions_per_pair as u64 * 2 * (1 + (l + 1) * 4);
        }
        total + 2
    }

    /// Wraps the (randomized) detector as a Monte-Carlo algorithm over a
    /// fixed graph, for quantum amplification: one verdict-only
    /// evaluator, whose simulated calls step on `backend`, for every
    /// seed of an amplification.
    ///
    /// # Panics
    ///
    /// Panics if the detector is not in randomized mode (the full
    /// threshold variant has `Θ(n^{1-1/k})` rounds and nothing to
    /// amplify).
    pub fn as_monte_carlo<'a>(&'a self, g: &'a Graph, backend: Backend) -> F2kMc<'a> {
        assert!(
            self.randomized,
            "amplification needs the randomized (constant-congestion) variant"
        );
        // The pairs ℓ = 2, …, k close C_{2ℓ-1} and C_{2ℓ}.
        let lengths = 3..=self.max_cycle_length();
        F2kMc {
            det: self,
            g,
            sets: PairSets::new(self, g),
            verdicts: VerdictSession::new(g, lengths, backend),
        }
    }

    /// Overrides the per-pair repetition count.
    pub fn with_repetitions(mut self, repetitions: usize) -> Self {
        assert!(repetitions >= 1, "at least one repetition");
        self.repetitions_per_pair = repetitions;
        self
    }

    /// The largest cycle length decided (`2k`).
    pub fn max_cycle_length(&self) -> usize {
        2 * self.k
    }

    /// Runs the detector; randomness derives from `seed`.
    pub fn run(&self, g: &Graph, seed: u64) -> F2kOutcome {
        self.run_with_bandwidth(g, seed, 1)
    }

    /// [`F2kDetector::run`] at per-edge bandwidth `B` (words per round).
    pub fn run_with_bandwidth(&self, g: &Graph, seed: u64, bandwidth: u64) -> F2kOutcome {
        self.run_on_backend(g, seed, bandwidth, Backend::Sequential)
    }

    /// [`F2kDetector::run_with_bandwidth`] on an explicit simulation
    /// [`Backend`]; the outcome is byte-identical whatever the backend.
    pub fn run_on_backend(
        &self,
        g: &Graph,
        seed: u64,
        bandwidth: u64,
        backend: Backend,
    ) -> F2kOutcome {
        let options = RunOptions {
            bandwidth,
            backend,
            ..Default::default()
        };
        self.run_capped(g, seed, &options)
    }

    /// The costed run under `options` (its caps abort the
    /// pair/repetition loop, flagging the outcome; a rejection always
    /// stops it).
    fn run_capped(&self, g: &Graph, seed: u64, options: &RunOptions) -> F2kOutcome {
        let mut run = CostedRun::new(g, options, RunReport::empty());
        let mut sets = PairSets::new(self, g);
        let _ = self.walk_calls(g, seed, &mut sets, |call| run.visit(call));
        let (witness, pair) = run
            .rejection
            .map(|r| (r.witness, usize::from(r.meet)))
            .unzip();
        F2kOutcome {
            rejected: witness.is_some(),
            cycle_length: witness.as_ref().map(CycleWitness::len),
            witness,
            pair,
            iterations: run.iterations,
            report: run.report,
            budget_exceeded: run.budget_exceeded,
        }
    }

    /// Walks the `color-BFS` calls of one run in order: per pair
    /// `ℓ = 2, …, k` its `S` and `W`, then per repetition a coloring,
    /// drawn when first read, and two calls; stops when `visit` breaks.
    /// The costed run and [`F2kMc`] both walk the calls through here, so
    /// they see the same colorings, masks, thresholds and call seeds.
    fn walk_calls(
        &self,
        g: &Graph,
        seed: u64,
        sets: &mut PairSets,
        mut visit: impl FnMut(&ColorBfsCall<'_>) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let n = g.node_count();
        let PairSets {
            pairs,
            all,
            s_mask,
            w_mask,
        } = sets;
        let mut iteration = 0u64;
        for pair in pairs.iter() {
            // Pair sets (§3.5): S with probability p, W = N(S) ∖ S.
            let l = pair.l;
            let pair_seed = derive_seed(seed, 0x2000 + l as u64);
            let mut rng = ChaCha8Rng::seed_from_u64(pair_seed);
            s_mask.clear();
            s_mask.extend((0..n).map(|_| rng.gen_bool(pair.p)));
            w_mask.clear();
            w_mask.extend(
                g.nodes().map(|v| {
                    !s_mask[v.index()] && g.neighbors(v).iter().any(|u| s_mask[u.index()])
                }),
            );
            let palette = Palette::pair(l);
            let launch = Launch::new(pair.tau, self.randomized);
            for r in 0..self.repetitions_per_pair as u64 {
                iteration += 1;
                let coloring = Coloring::new(n, palette, derive_seed(pair_seed, 0xC0 + r));
                // Two calls: light (G[U], X = U) and merged heavy
                // (G, X = W).
                let calls: [(&[bool], &[bool]); 2] = [(&pair.u_mask, &pair.u_mask), (all, w_mask)];
                for (ci, (h_mask, x_mask)) in calls.into_iter().enumerate() {
                    visit(&ColorBfsCall {
                        palette,
                        launch,
                        iteration,
                        phase: None,
                        coloring: &coloring,
                        h_mask,
                        x_mask,
                        seed: derive_seed(pair_seed, 0xF00 + r * 2 + ci as u64),
                    })?;
                }
            }
        }
        ControlFlow::Continue(())
    }
}

/// The randomized [`F2kDetector`] as a
/// [`congest_quantum::MonteCarloAlgorithm`], answered by a verdict-only
/// evaluator that simulates only the calls that can reject.
///
/// An evaluation of a seed walks the same calls as [`F2kDetector::run`]
/// with that seed and stops at the first rejecting call, as the run
/// does. Only a node of `X ∩ H` on a cycle of length `3, …, 2k` of the
/// graph is a launch candidate, and on a graph without one the
/// evaluation answers `false` before it draws a pair's sets. Each call
/// is simulated, with exactly the run's coins, only if some candidate
/// is an active source that closes a well-colored `C_{2ℓ}` or
/// `C_{2ℓ-1}` within `H`; a call without a candidate draws no coin,
/// and a repetition's coloring is drawn only when some candidate has
/// its coin up. Any other call cannot reject: only an active source
/// sends an identifier, a node rejects only when one identifier
/// reaches it twice — along both branches at color `ℓ` (a `C_{2ℓ}`),
/// or back from color `ℓ+1` at color `ℓ-1` (a `C_{2ℓ-1}`), in either
/// case a simple cycle through the source — and the threshold only
/// keeps identifiers back. A source on no such cycle still fills
/// thresholds, so a simulated call reads every node's coin. The
/// evaluator keeps its simulation session, its coin and walk scratch
/// and its sets from one seed to the next; its candidates and each
/// pair's `U` are computed once. Its round bound holds at any
/// bandwidth.
#[derive(Debug)]
pub struct F2kMc<'a> {
    det: &'a F2kDetector,
    g: &'a Graph,
    sets: PairSets,
    pub(crate) verdicts: VerdictSession,
}

impl congest_quantum::MonteCarloAlgorithm for F2kMc<'_> {
    fn rejects(&mut self, seed: u64) -> bool {
        if !self.verdicts.can_reject() {
            return false;
        }
        let (g, verdicts) = (self.g, &mut self.verdicts);
        self.det
            .walk_calls(g, seed, &mut self.sets, |call| {
                verdicts.call_verdict(g, call)
            })
            .is_break()
    }

    fn round_bound(&self) -> u64 {
        self.det.round_bound()
    }

    fn success_probability(&self) -> f64 {
        self.det.success_probability(self.g.node_count())
    }
}

impl crate::Detector for F2kDetector {
    fn descriptor(&self) -> crate::Descriptor {
        crate::Descriptor {
            name: "pairwise color-BFS sweep",
            reference: "this paper §3.5",
            model: crate::Model::Classical,
            target: crate::Target::F2k { k: self.k },
            exponent: 1.0 - 1.0 / self.k as f64,
            table1: Some(crate::theory::Table1Row::CensorHillelF2k),
        }
    }

    fn detect(&self, g: &Graph, seed: u64, budget: &crate::Budget) -> crate::DetectResult {
        let det = match budget.repetitions {
            Some(r) => self.clone().with_repetitions(r),
            None => self.clone(),
        };
        let o = det.run_capped(g, seed, &RunOptions::capped(budget));
        let cost = crate::RunCost::from_report(&o.report, o.iterations);
        let verdict = if o.rejected {
            crate::Verdict::Reject {
                cycle_length: o.cycle_length,
                witness: o.witness,
            }
        } else if o.budget_exceeded {
            crate::Verdict::BudgetExceeded {
                rounds: cost.rounds,
                messages: cost.messages,
            }
        } else {
            crate::Verdict::Accept
        };
        Ok(budget.enforce(crate::Detection {
            algorithm: self.descriptor(),
            verdict,
            cost,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;

    #[test]
    fn randomized_mode_keeps_congestion_constant() {
        let host = generators::erdos_renyi(100, 0.05, 4);
        let (g, _) = generators::plant_cycle(&host, 4, 4);
        let det = F2kDetector::new(3).with_repetitions(30).randomized();
        let o = det.run(&g, 2);
        assert!(
            o.report.congestion.max_words_per_edge_step <= 4,
            "randomized F2k congestion {}",
            o.report.congestion.max_words_per_edge_step
        );
    }

    #[test]
    fn randomized_mode_sound() {
        let det = F2kDetector::new(3).with_repetitions(20).randomized();
        for seed in 0..3 {
            let g = generators::high_girth(60, 6, 10, seed);
            assert!(!det.run(&g, seed).rejected(), "seed {seed}");
        }
    }

    #[test]
    fn a_call_without_an_active_source_only_says_hello() {
        use crate::color_bfs::has_active_source;
        use congest_sim::Executor;
        // The lemma behind the verdict-only oracle, on the calls of real
        // runs: a costed call whose coins activate no source delivers
        // its Hello round and nothing else, and no node rejects.
        let det = F2kDetector::new(2).with_repetitions(12).randomized();
        let (mut silent, mut sourced) = (0, 0);
        let host = generators::random_tree(32, 5);
        for g in [
            generators::complete_bipartite(6, 6),
            generators::plant_cycle(&host, 4, 5).0,
        ] {
            let mut session = Executor::new(Backend::Sequential);
            let (mut coins, every_node) = (Vec::new(), vec![true; g.node_count()]);
            let mut sets = PairSets::new(&det, &g);
            for seed in 0..10 {
                let _ = det.walk_calls(&g, seed, &mut sets, |call| {
                    if has_active_source(&mut coins, call, &every_node) {
                        sourced += 1;
                        return ControlFlow::Continue(());
                    }
                    silent += 1;
                    let report = call.simulate(&mut session, &g);
                    assert_eq!(
                        report.congestion.total_messages,
                        g.directed_edge_count() as u64
                    );
                    assert!(report.rejecting_nodes.is_empty());
                    ControlFlow::Continue(())
                });
            }
        }
        assert!(
            silent > 0 && sourced > 0,
            "{silent} silent, {sourced} sourced"
        );
    }

    #[test]
    fn monte_carlo_wrapper_requires_randomized() {
        let g = generators::cycle(8);
        let det = F2kDetector::new(2).randomized();
        let mut mc = det.as_monte_carlo(&g, Backend::Sequential);
        use congest_quantum::MonteCarloAlgorithm;
        assert!(mc.success_probability() > 0.0);
        assert!(mc.round_bound() > 0);
        for seed in 0..5 {
            assert_eq!(
                mc.rejects(seed),
                det.run(&g, seed).rejected(),
                "seed {seed}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "randomized")]
    fn monte_carlo_wrapper_rejects_full_threshold_mode() {
        let g = generators::cycle(8);
        let det = F2kDetector::new(2);
        let _ = det.as_monte_carlo(&g, Backend::Sequential);
    }

    #[test]
    fn detects_c4_via_pair_two() {
        let host = generators::random_tree(40, 3);
        let (g, _) = generators::plant_cycle(&host, 4, 3);
        let det = F2kDetector::new(3);
        let outcome = det.run(&g, 1);
        assert!(outcome.rejected());
        assert_eq!(outcome.pair, Some(2));
        assert_eq!(outcome.cycle_length, Some(4));
        assert!(outcome.witness.unwrap().is_valid(&g));
    }

    #[test]
    fn detects_triangle() {
        // A triangle farm has girth 3 and no C4 at all, so the detected
        // length is unambiguous. (A planted C3 on a random tree can
        // close an incidental C4 through a tree path, making the
        // reported length coloring-dependent.)
        let g = cycle_farm(3, 8);
        let det = F2kDetector::new(2);
        let found = (0..6).any(|seed| {
            let outcome = det.run(&g, seed);
            if outcome.rejected() {
                assert_eq!(outcome.cycle_length, Some(3));
                assert_eq!(outcome.witness.as_ref().unwrap().len(), 3);
            }
            outcome.rejected()
        });
        assert!(found, "triangle farm never detected");
    }

    /// `copies` disjoint copies of `C_len` plus a path, so that `n` is
    /// large enough for the cycle vertices to be light and the success
    /// probability per repetition is `copies` times the single-cycle one.
    fn cycle_farm(len: usize, copies: usize) -> congest_graph::Graph {
        let mut g = generators::cycle(len);
        for _ in 1..copies {
            g = generators::disjoint_union(&g, &generators::cycle(len));
        }
        generators::disjoint_union(&g, &generators::path(10))
    }

    #[test]
    fn detects_c5_with_pair_three() {
        // Girth-5 instance: pair ℓ=2 finds nothing, ℓ=3 must catch a C5
        // as the odd member.
        let g = cycle_farm(5, 8);
        let det = F2kDetector::new(3).with_repetitions(2000);
        let mut found = false;
        for seed in 0..10 {
            let outcome = det.run(&g, seed);
            if outcome.rejected() {
                assert_eq!(outcome.pair, Some(3));
                assert_eq!(outcome.cycle_length, Some(5));
                assert!(outcome.witness.unwrap().is_valid(&g));
                found = true;
                break;
            }
        }
        assert!(found, "C5 never found");
    }

    #[test]
    fn detects_c6_as_even_member() {
        let g = cycle_farm(6, 10); // girth 6
        let det = F2kDetector::new(3).with_repetitions(2000);
        let mut found = false;
        for seed in 0..10 {
            let outcome = det.run(&g, seed);
            if outcome.rejected() {
                assert_eq!(outcome.cycle_length, Some(6));
                found = true;
                break;
            }
        }
        assert!(found, "C6 never found");
    }

    #[test]
    fn soundness_on_high_girth_graphs() {
        // Θ(5,6) has girth 11 > 2k = 8: must always accept.
        let g = generators::theta(5, 6);
        let det = F2kDetector::new(4).with_repetitions(64);
        for seed in 0..4 {
            assert!(!det.run(&g, seed).rejected(), "seed {seed}");
        }
    }

    #[test]
    fn soundness_on_trees() {
        let det = F2kDetector::new(3).with_repetitions(32);
        for seed in 0..4 {
            let g = generators::random_tree(40, seed);
            assert!(!det.run(&g, seed).rejected());
        }
    }
}
