//! `{C_ℓ | 3 ≤ ℓ ≤ 2k}`-freeness (paper §3.5).
//!
//! The detector processes length *pairs* `(C_{2ℓ-1}, C_{2ℓ})` for
//! `ℓ = 2, …, k`, each pair assuming no shorter cycle exists (shorter
//! cycles are caught by an earlier pair). Per pair, relative to
//! Algorithm 1: `W` becomes *all* neighbors of `S` (no degree
//! restriction), the threshold becomes `τ = 2np`, and the two heavy
//! `color-BFS` calls merge into one `color-BFS(G, c, W, τ)`. Odd cycles
//! `C_{2ℓ-1}` are caught on the fly: nodes colored `ℓ+1` also forward to
//! neighbors colored `ℓ-1`, which reject on a match with their own
//! collected set.

use congest_graph::{CycleWitness, Graph, NodeId};
use congest_sim::{
    derive_seed, Backend, Control, Ctx, Decision, Executor, MessageSize, Outbox, Program, RunReport,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::color_bfs::NOT_IN_H;
use crate::detector::random_coloring;
use crate::witness::find_colored_path;

/// Messages of the pair protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PairMsg {
    Hello { color: u8, in_h: bool },
    Ids(Vec<u32>),
}

impl MessageSize for PairMsg {
    fn words(&self) -> usize {
        match self {
            PairMsg::Hello { .. } => 1,
            PairMsg::Ids(ids) => ids.len().max(1),
        }
    }
}

/// What a rejecting node certified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PairEvidence {
    /// A `C_{2ℓ}` (checked at color `ℓ`).
    Even { origin: u32 },
    /// A `C_{2ℓ-1}` (checked at color `ℓ-1`).
    Odd { origin: u32 },
}

/// Per-node program detecting the pair `(C_{2ℓ-1}, C_{2ℓ})` under a
/// `2ℓ`-coloring.
#[derive(Debug, Clone)]
struct PairColorBfs {
    l: usize,
    color: u8,
    in_h: bool,
    active_source: bool,
    tau: u64,
    /// Per neighbor (aligned with the sorted neighbor list): its color,
    /// or [`NOT_IN_H`] when it is outside the host subgraph.
    nbr: Vec<u8>,
    /// For color ℓ-1: the collected up-chain set, kept for the odd check.
    my_ids: Vec<u32>,
    evidence: Option<PairEvidence>,
}

impl PairColorBfs {
    fn action_step(&self) -> usize {
        let c = self.color as usize;
        let l = self.l;
        match c {
            0 => 0,
            c if c <= l => c,
            c => 2 * l - c,
        }
    }

    fn collect(&self, inbox: &[(NodeId, PairMsg)], ctx: &Ctx, expected: u8) -> Vec<u32> {
        let mut ids = Vec::new();
        for (from, msg) in inbox {
            if let PairMsg::Ids(payload) = msg {
                let pos = ctx
                    .neighbors
                    .binary_search(from)
                    .expect("sender is a neighbor");
                if self.nbr[pos] == expected {
                    ids.extend_from_slice(payload);
                }
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    fn forward(&self, ctx: &Ctx, out: &mut Outbox<PairMsg>, ids: &[u32], next: u8) {
        if ids.is_empty() {
            return;
        }
        for (pos, &nbr) in ctx.neighbors.iter().enumerate() {
            if self.nbr[pos] == next {
                out.send(nbr, PairMsg::Ids(ids.to_vec()));
            }
        }
    }
}

impl Program for PairColorBfs {
    type Msg = PairMsg;

    fn init(&mut self, _ctx: &mut Ctx, out: &mut Outbox<PairMsg>) {
        out.broadcast(PairMsg::Hello {
            color: self.color,
            in_h: self.in_h,
        });
    }

    fn step(
        &mut self,
        ctx: &mut Ctx,
        superstep: usize,
        inbox: &[(NodeId, PairMsg)],
        out: &mut Outbox<PairMsg>,
    ) -> Control {
        let l = self.l;
        if superstep == 0 {
            self.nbr = vec![NOT_IN_H; ctx.neighbors.len()];
            for (from, msg) in inbox {
                if let PairMsg::Hello { color, in_h: true } = msg {
                    let pos = ctx
                        .neighbors
                        .binary_search(from)
                        .expect("sender is a neighbor");
                    self.nbr[pos] = *color;
                }
            }
            if !self.in_h {
                return Control::Halt;
            }
            if self.active_source {
                let me = ctx.node.raw();
                for (pos, &nbr) in ctx.neighbors.iter().enumerate() {
                    if self.nbr[pos] != NOT_IN_H {
                        out.send(nbr, PairMsg::Ids(vec![me]));
                    }
                }
            }
            return if self.action_step() == 0 {
                Control::Halt
            } else {
                Control::Continue
            };
        }

        let c = self.color as usize;
        if c == l - 1 && l >= 2 {
            // Up-chain step at ℓ-1 plus the odd check one step later.
            if superstep == l - 1 {
                let prev = if l == 2 { 0u8 } else { (l - 2) as u8 };
                let ids = self.collect(inbox, ctx, prev);
                if ids.len() as u64 <= self.tau {
                    self.forward(ctx, out, &ids, l as u8);
                    self.my_ids = ids;
                } else {
                    self.my_ids = Vec::new(); // discarded
                }
                return Control::Continue;
            }
            if superstep == l {
                let from_high = self.collect(inbox, ctx, (l + 1) as u8);
                if let Some(&x) = self
                    .my_ids
                    .iter()
                    .find(|x| from_high.binary_search(x).is_ok())
                {
                    self.evidence = Some(PairEvidence::Odd { origin: x });
                }
                return Control::Halt;
            }
            return Control::Continue;
        }

        let action = self.action_step();
        if superstep < action {
            return Control::Continue;
        }

        if (1..l).contains(&c) {
            // (colors ℓ-1 handled above; this is 1..ℓ-2)
            let ids = self.collect(inbox, ctx, (c - 1) as u8);
            if ids.len() as u64 <= self.tau {
                self.forward(ctx, out, &ids, (c + 1) as u8);
            }
        } else if c > l {
            let prev = if c == 2 * l - 1 { 0 } else { (c + 1) as u8 };
            let ids = self.collect(inbox, ctx, prev);
            if ids.len() as u64 <= self.tau {
                self.forward(ctx, out, &ids, (c - 1) as u8);
                if c == l + 1 {
                    // §3.5 extension: also hand the set to ℓ-1 nodes for
                    // the odd check.
                    self.forward(ctx, out, &ids, (l - 1) as u8);
                }
            }
        } else if c == l {
            let low = self.collect(inbox, ctx, (l - 1) as u8);
            let high = self.collect(inbox, ctx, (l + 1) as u8);
            if let Some(&x) = low.iter().find(|x| high.binary_search(x).is_ok()) {
                self.evidence = Some(PairEvidence::Even { origin: x });
            }
        }
        Control::Halt
    }

    fn decision(&self) -> Decision {
        if self.evidence.is_some() {
            Decision::Reject
        } else {
            Decision::Accept
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
        let l = self.k;
        let deg_threshold = (n as f64).powf(1.0 / l as f64);
        let p = (self.eps_hat * 2.0 * (l * l) as f64 / deg_threshold).min(1.0);
        ((2.0 * n as f64 * p).ceil() as u64).max(1)
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
    /// fixed graph, for quantum amplification.
    ///
    /// # Panics
    ///
    /// Panics if the detector is not in randomized mode (the full
    /// threshold variant has `Θ(n^{1-1/k})` rounds and nothing to
    /// amplify).
    pub fn as_monte_carlo<'a>(&'a self, g: &'a Graph) -> F2kMc<'a> {
        assert!(
            self.randomized,
            "amplification needs the randomized (constant-congestion) variant"
        );
        F2kMc {
            det: self,
            g,
            bandwidth: 1,
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
        self.run_capped(g, seed, bandwidth, Backend::Sequential, None, None)
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
        self.run_capped(g, seed, bandwidth, backend, None, None)
    }

    /// [`F2kDetector::run_with_bandwidth`] with hard round/message caps:
    /// the pair/repetition loop aborts (flagging the outcome) once the
    /// accumulated cost passes either cap.
    fn run_capped(
        &self,
        g: &Graph,
        seed: u64,
        bandwidth: u64,
        backend: Backend,
        round_cap: Option<u64>,
        message_cap: Option<u64>,
    ) -> F2kOutcome {
        let n = g.node_count();
        let mut total = RunReport::empty();
        let mut iterations = 0u64;
        let mut session = Executor::new(backend);
        session.set_bandwidth(bandwidth);
        let exceeded = |total: &RunReport| {
            crate::detector::report_caps_exceeded(total, round_cap, message_cap)
        };
        for l in 2..=self.k {
            // Pair parameters (§3.5): p = ε̂·2ℓ²/n^{1/ℓ}, τ = 2np,
            // U = degree ≤ n^{1/ℓ}, W = N(S) ∖ S.
            let deg_threshold = (n as f64).powf(1.0 / l as f64);
            let p = (self.eps_hat * 2.0 * (l * l) as f64 / deg_threshold).min(1.0);
            let tau = ((2.0 * n as f64 * p).ceil() as u64).max(1);
            let pair_seed = derive_seed(seed, 0x2000 + l as u64);
            let s_mask: Vec<bool> = {
                let mut rng = ChaCha8Rng::seed_from_u64(pair_seed);
                (0..n).map(|_| rng.gen_bool(p)).collect()
            };
            let w_mask: Vec<bool> = g
                .nodes()
                .map(|v| !s_mask[v.index()] && g.neighbors(v).iter().any(|u| s_mask[u.index()]))
                .collect();
            let u_mask: Vec<bool> = g
                .nodes()
                .map(|v| (g.degree(v) as f64) <= deg_threshold)
                .collect();
            let all = vec![true; n];

            for r in 0..self.repetitions_per_pair as u64 {
                iterations += 1;
                let colors = random_coloring(n, 2 * l, derive_seed(pair_seed, 0xC0 + r));
                // Two calls: light (G[U], X = U) and merged heavy
                // (G, X = W).
                let calls: [(&[bool], &[bool]); 2] = [(&u_mask, &u_mask), (&all, &w_mask)];
                for (ci, (h_mask, x_mask)) in calls.into_iter().enumerate() {
                    let call_seed = derive_seed(pair_seed, 0xF00 + r * 2 + ci as u64);
                    let (activation, call_tau) = if self.randomized {
                        (Some(1.0 / tau as f64), 4)
                    } else {
                        (None, tau)
                    };
                    let (report, rejection) = run_pair_call(
                        &mut session,
                        g,
                        l,
                        &colors,
                        h_mask,
                        x_mask,
                        activation,
                        call_tau,
                        call_seed,
                    );
                    total.absorb(&report);
                    if let Some((v, evidence)) = rejection {
                        let (witness, len) = match evidence {
                            PairEvidence::Even { origin } => {
                                let w = crate::witness::extract_even_witness(
                                    g,
                                    h_mask,
                                    &colors,
                                    l,
                                    NodeId::new(origin),
                                    v,
                                )
                                .expect("even rejection certifiable");
                                (w, 2 * l)
                            }
                            PairEvidence::Odd { origin } => {
                                let w = extract_pair_odd_witness(
                                    g,
                                    h_mask,
                                    &colors,
                                    l,
                                    NodeId::new(origin),
                                    v,
                                )
                                .expect("odd rejection certifiable");
                                (w, 2 * l - 1)
                            }
                        };
                        assert!(witness.is_valid(g));
                        return F2kOutcome {
                            rejected: true,
                            cycle_length: Some(len),
                            witness: Some(witness),
                            pair: Some(l),
                            iterations,
                            report: total,
                            budget_exceeded: false,
                        };
                    }
                    if exceeded(&total) {
                        return F2kOutcome {
                            rejected: false,
                            cycle_length: None,
                            witness: None,
                            pair: None,
                            iterations,
                            report: total,
                            budget_exceeded: true,
                        };
                    }
                }
            }
        }
        F2kOutcome {
            rejected: false,
            cycle_length: None,
            witness: None,
            pair: None,
            iterations,
            report: total,
            budget_exceeded: false,
        }
    }
}

/// Runs one pair call in the caller's session and returns the report
/// plus the first rejection.
#[allow(clippy::too_many_arguments)]
fn run_pair_call(
    session: &mut Executor<PairColorBfs>,
    g: &Graph,
    l: usize,
    colors: &[u8],
    h_mask: &[bool],
    x_mask: &[bool],
    activation: Option<f64>,
    tau: u64,
    seed: u64,
) -> (RunReport, Option<(NodeId, PairEvidence)>) {
    // The factory runs in ascending node order, so node v draws
    // activation coin v.
    let mut coins = activation.map(|q| (q, ChaCha8Rng::seed_from_u64(derive_seed(seed, 0xAC7))));
    let report = session
        .run(
            g,
            seed,
            |v, _| {
                let active = match &mut coins {
                    Some((q, rng)) => rng.gen_bool(*q),
                    None => true,
                };
                PairColorBfs {
                    l,
                    color: colors[v.index()],
                    in_h: h_mask[v.index()],
                    active_source: x_mask[v.index()]
                        && h_mask[v.index()]
                        && colors[v.index()] == 0
                        && active,
                    tau,
                    nbr: Vec::new(),
                    my_ids: Vec::new(),
                    evidence: None,
                }
            },
            (l + 4) as u64,
        )
        .expect("pair color-BFS cannot violate the model");
    let rejection = report.rejecting_nodes.first().map(|&v| {
        let evidence = session.nodes()[v as usize].evidence.expect("evidence");
        (NodeId::new(v), evidence)
    });
    (report, rejection)
}

/// Witness extraction for the odd member of a pair: `v` colored `ℓ-1`,
/// up-branch internals `1, …, ℓ-2`, down-branch internals
/// `2ℓ-1, …, ℓ+1` — total length `2ℓ-1`.
fn extract_pair_odd_witness(
    g: &Graph,
    h_mask: &[bool],
    colors: &[u8],
    l: usize,
    x: NodeId,
    v: NodeId,
) -> Option<CycleWitness> {
    let up_colors: Vec<u8> = (1..(l - 1) as u8).collect();
    let down_colors: Vec<u8> = ((l as u8 + 1)..(2 * l as u8)).rev().collect();
    let up = find_colored_path(g, h_mask, colors, &up_colors, x, v)?;
    let down = find_colored_path(g, h_mask, colors, &down_colors, x, v)?;
    let mut nodes = up;
    for &u in down[1..down.len() - 1].iter().rev() {
        nodes.push(u);
    }
    let w = CycleWitness::new(nodes);
    w.is_valid(g).then_some(w)
}

/// The randomized [`F2kDetector`] as a
/// [`congest_quantum::MonteCarloAlgorithm`].
#[derive(Debug, Clone)]
pub struct F2kMc<'a> {
    det: &'a F2kDetector,
    g: &'a Graph,
    bandwidth: u64,
}

impl F2kMc<'_> {
    /// Sets the per-edge bandwidth charged to the base runs.
    pub fn with_bandwidth(mut self, bandwidth: u64) -> Self {
        assert!(bandwidth > 0, "bandwidth must be positive");
        self.bandwidth = bandwidth;
        self
    }
}

impl congest_quantum::MonteCarloAlgorithm for F2kMc<'_> {
    fn run(&self, seed: u64) -> congest_quantum::McOutcome {
        let o = self.det.run_with_bandwidth(self.g, seed, self.bandwidth);
        congest_quantum::McOutcome {
            rejected: o.rejected,
            rounds: o.report.rounds,
        }
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
        let o = det.run_capped(
            g,
            seed,
            budget.bandwidth,
            budget.backend,
            budget.max_rounds,
            budget.max_messages,
        );
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
    fn monte_carlo_wrapper_requires_randomized() {
        let g = generators::cycle(8);
        let det = F2kDetector::new(2).randomized();
        let mc = det.as_monte_carlo(&g);
        use congest_quantum::MonteCarloAlgorithm;
        assert!(mc.success_probability() > 0.0);
        assert!(mc.round_bound() > 0);
        assert_eq!(mc.run(5), mc.run(5));
    }

    #[test]
    #[should_panic(expected = "randomized")]
    fn monte_carlo_wrapper_rejects_full_threshold_mode() {
        let g = generators::cycle(8);
        let det = F2kDetector::new(2);
        let _ = det.as_monte_carlo(&g);
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
