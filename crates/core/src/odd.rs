//! Odd-cycle detection (§3.4): `C_{2k+1}`-freeness with one-sided success
//! probability `Ω(1/n)` in constant rounds, quantum-amplifiable to
//! `Õ(√n)` (tight by the paper's `Ω̃(√n)` lower bound).

use congest_graph::{CycleWitness, Graph, NodeId};
use congest_quantum::{McOutcome, MonteCarloAlgorithm};
use congest_sim::{
    derive_seed, Backend, Control, Ctx, Decision, Executor, MessageSize, Outbox, Program,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::detector::random_coloring;
use crate::witness::{extract_odd_witness, DetectionOutcome, SetsSummary};

/// Messages of the odd-cycle protocol (same wire format as
/// [`crate::color_bfs::CbMsg`], with colors in `{0, …, 2k}`).
#[derive(Debug, Clone, PartialEq, Eq)]
enum OddMsg {
    Hello { color: u8 },
    Ids(Vec<u32>),
}

impl MessageSize for OddMsg {
    fn words(&self) -> usize {
        match self {
            OddMsg::Hello { .. } => 1,
            OddMsg::Ids(ids) => ids.len().max(1),
        }
    }
}

/// Per-node program: `randomized-color-BFS` over `2k+1` colors looking
/// for a cycle `(u_0, …, u_{2k})` with `c(u_i) = i`. The node colored `k`
/// receives the origin's id along a length-`k` path (colors
/// `0, 1, …, k`) and a length-`(k+1)` path (colors `0, 2k, …, k+1, k`).
#[derive(Debug, Clone)]
struct OddColorBfs {
    k: usize,
    color: u8,
    active_source: bool,
    tau: u64,
    nbr_color: Vec<u8>,
    low_ids: Vec<u32>,
    reject: Option<u32>,
}

impl OddColorBfs {
    /// The step at which this node forwards (or, for color `k`, first
    /// collects).
    fn action_step(&self) -> usize {
        let c = self.color as usize;
        let k = self.k;
        if c == 0 {
            0
        } else if c <= k {
            c
        } else {
            2 * k + 1 - c
        }
    }

    fn collect(&self, inbox: &[(NodeId, OddMsg)], ctx: &Ctx, expected: u8) -> Vec<u32> {
        let mut ids = Vec::new();
        for (from, msg) in inbox {
            if let OddMsg::Ids(payload) = msg {
                let pos = ctx
                    .neighbors
                    .binary_search(from)
                    .expect("sender is a neighbor");
                if self.nbr_color[pos] == expected {
                    ids.extend_from_slice(payload);
                }
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    fn forward(&self, ctx: &Ctx, out: &mut Outbox<OddMsg>, ids: &[u32], next: u8) {
        if ids.is_empty() {
            return;
        }
        for (pos, &nbr) in ctx.neighbors.iter().enumerate() {
            if self.nbr_color[pos] == next {
                out.send(nbr, OddMsg::Ids(ids.to_vec()));
            }
        }
    }
}

impl Program for OddColorBfs {
    type Msg = OddMsg;

    fn init(&mut self, _ctx: &mut Ctx, out: &mut Outbox<OddMsg>) {
        out.broadcast(OddMsg::Hello { color: self.color });
    }

    fn step(
        &mut self,
        ctx: &mut Ctx,
        superstep: usize,
        inbox: &[(NodeId, OddMsg)],
        out: &mut Outbox<OddMsg>,
    ) -> Control {
        let k = self.k;
        if superstep == 0 {
            self.nbr_color = vec![0; ctx.neighbors.len()];
            for (from, msg) in inbox {
                if let OddMsg::Hello { color } = msg {
                    let pos = ctx
                        .neighbors
                        .binary_search(from)
                        .expect("sender is a neighbor");
                    self.nbr_color[pos] = *color;
                }
            }
            if self.active_source {
                let me = ctx.node.raw();
                for &nbr in ctx.neighbors.iter() {
                    out.send(nbr, OddMsg::Ids(vec![me]));
                }
            }
            return if self.action_step() == 0 {
                Control::Halt
            } else {
                Control::Continue
            };
        }

        let c = self.color as usize;
        let action = self.action_step();
        if c == k {
            // Collect the up-branch at step k, the down-branch at k+1.
            if superstep == k {
                self.low_ids = self.collect(inbox, ctx, (k - 1) as u8);
                return Control::Continue;
            }
            if superstep == k + 1 {
                let high = self.collect(inbox, ctx, (k + 1) as u8);
                if let Some(&x) = self.low_ids.iter().find(|x| high.binary_search(x).is_ok()) {
                    self.reject = Some(x);
                }
                return Control::Halt;
            }
            return Control::Continue;
        }
        if superstep < action {
            return Control::Continue;
        }
        if (1..k).contains(&c) {
            let ids = self.collect(inbox, ctx, (c - 1) as u8);
            if ids.len() as u64 <= self.tau {
                self.forward(ctx, out, &ids, (c + 1) as u8);
            }
        } else if c > k {
            let prev = if c == 2 * k { 0 } else { (c + 1) as u8 };
            let ids = self.collect(inbox, ctx, prev);
            if ids.len() as u64 <= self.tau {
                self.forward(ctx, out, &ids, (c - 1) as u8);
            }
        }
        Control::Halt
    }

    fn decision(&self) -> Decision {
        if self.reject.is_some() {
            Decision::Reject
        } else {
            Decision::Accept
        }
    }
}

/// The §3.4 odd-cycle detector: decides `C_{2k+1}`-freeness with
/// one-sided success probability `Ω(1/n)` per repetition, in constant
/// rounds per repetition.
///
/// Wrap with [`OddCycleDetector::as_monte_carlo`] and amplify with
/// [`congest_quantum::MonteCarloAmplifier`] for the `Õ(√n)` quantum
/// algorithm of Theorem 2.
///
/// ```
/// use congest_graph::generators;
/// use even_cycle::OddCycleDetector;
/// let g = generators::cycle(5);
/// // k = 2: looking for C5. Success is Ω(1/n) per repetition, so give
/// // it a few times n repetitions.
/// let det = OddCycleDetector::new(2, 64);
/// let found = (0..40).any(|seed| det.run(&g, seed).rejected());
/// assert!(found);
/// ```
#[derive(Debug, Clone)]
pub struct OddCycleDetector {
    k: usize,
    repetitions: usize,
}

impl OddCycleDetector {
    /// Creates a detector for `C_{2k+1}` (`k ≥ 1`) running `repetitions`
    /// coloring iterations per [`OddCycleDetector::run`].
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `repetitions == 0`.
    pub fn new(k: usize, repetitions: usize) -> Self {
        assert!(k >= 1, "odd cycles start at C3 (k = 1)");
        assert!(repetitions >= 1, "at least one repetition");
        OddCycleDetector { k, repetitions }
    }

    /// The target cycle length `2k + 1`.
    pub fn cycle_length(&self) -> usize {
        2 * self.k + 1
    }

    /// Overrides the repetition count.
    ///
    /// # Panics
    ///
    /// Panics if `repetitions == 0`.
    pub fn with_repetitions(mut self, repetitions: usize) -> Self {
        assert!(repetitions >= 1, "at least one repetition");
        self.repetitions = repetitions;
        self
    }

    /// Runs the detector; all randomness derives from `seed`.
    pub fn run(&self, g: &Graph, seed: u64) -> DetectionOutcome {
        self.run_with_bandwidth(g, seed, 1)
    }

    /// [`OddCycleDetector::run`] at per-edge bandwidth `B` (words per
    /// round); the protocol is unchanged, supersteps are charged
    /// `⌈load/B⌉` rounds.
    pub fn run_with_bandwidth(&self, g: &Graph, seed: u64, bandwidth: u64) -> DetectionOutcome {
        self.run_capped(g, seed, bandwidth, Backend::Sequential, None, None)
    }

    /// [`OddCycleDetector::run_with_bandwidth`] on an explicit
    /// simulation [`Backend`]; the outcome is byte-identical whatever
    /// the backend.
    pub fn run_on_backend(
        &self,
        g: &Graph,
        seed: u64,
        bandwidth: u64,
        backend: Backend,
    ) -> DetectionOutcome {
        self.run_capped(g, seed, bandwidth, backend, None, None)
    }

    /// [`OddCycleDetector::run_with_bandwidth`] with hard round/message
    /// caps: the repetition loop aborts (flagging the outcome) once the
    /// accumulated cost passes either cap.
    fn run_capped(
        &self,
        g: &Graph,
        seed: u64,
        bandwidth: u64,
        backend: Backend,
        round_cap: Option<u64>,
        message_cap: Option<u64>,
    ) -> DetectionOutcome {
        let k = self.k;
        let n = g.node_count();
        let colors_count = 2 * k + 1;
        let activation = 1.0 / n as f64;
        let mut total = congest_sim::RunReport::empty();
        let mut decision = Decision::Accept;
        let mut witness: Option<CycleWitness> = None;
        let mut iterations = 0u64;
        let mut budget_exceeded = false;
        let all = vec![true; n];
        let mut session = Executor::new(backend);
        session.set_bandwidth(bandwidth);

        for r in 0..self.repetitions as u64 {
            iterations = r + 1;
            let colors = random_coloring(n, colors_count, derive_seed(seed, 0x0DD + r));
            let call_seed = derive_seed(seed, 0xE000 + r);
            // The factory runs in ascending node order, so node v draws
            // activation coin v.
            let mut coins = ChaCha8Rng::seed_from_u64(derive_seed(call_seed, 0xAC7));
            let report = session
                .run(
                    g,
                    call_seed,
                    |v, _| {
                        let active = coins.gen_bool(activation);
                        OddColorBfs {
                            k,
                            color: colors[v.index()],
                            active_source: colors[v.index()] == 0 && active,
                            tau: 4,
                            nbr_color: Vec::new(),
                            low_ids: Vec::new(),
                            reject: None,
                        }
                    },
                    (k + 4) as u64,
                )
                .expect("odd color-BFS cannot violate the model");
            total.absorb(&report);
            if let Some(&v) = report.rejecting_nodes.first() {
                decision = Decision::Reject;
                let origin = session.nodes()[v as usize].reject.expect("evidence");
                let w =
                    extract_odd_witness(g, &all, &colors, k, NodeId::new(origin), NodeId::new(v))
                        .expect("rejection must be certifiable");
                witness = Some(w);
                break;
            }
            if crate::detector::report_caps_exceeded(&total, round_cap, message_cap) {
                budget_exceeded = true;
                break;
            }
        }

        DetectionOutcome {
            decision,
            witness,
            phase: None,
            iterations,
            report: total,
            sets: SetsSummary {
                u_size: n,
                s_size: 0,
                w_size: 0,
                tau: 4,
                selection_probability: activation,
            },
            budget_exceeded,
        }
    }

    /// An upper bound on the rounds of one run.
    pub fn round_bound(&self) -> u64 {
        let k = self.k as u64;
        self.repetitions as u64 * (2 + (k + 2) * 4)
    }

    /// The one-sided success probability per run (§3.4): a repetition
    /// succeeds when the cycle is well colored (probability
    /// `(2k+1)^{-(2k+1)}`), its origin activates (probability `1/n`), and
    /// no threshold discards (constant probability, bounded by ½ here).
    /// Repetitions add up; capped at ½.
    pub fn success_probability(&self, n: usize) -> f64 {
        let l = (2 * self.k + 1) as f64;
        let per_rep = (1.0 / l).powf(l) / (2.0 * n as f64);
        (per_rep * self.repetitions as f64).min(0.5)
    }

    /// Wraps the detector as a Monte-Carlo algorithm over a fixed graph.
    pub fn as_monte_carlo<'a>(&'a self, g: &'a Graph) -> OddMc<'a> {
        OddMc {
            det: self,
            g,
            bandwidth: 1,
        }
    }
}

impl crate::Detector for OddCycleDetector {
    fn descriptor(&self) -> crate::Descriptor {
        crate::Descriptor {
            name: "constant-round odd color-BFS",
            reference: "this paper §3.4",
            model: crate::Model::Classical,
            // Success Ω(1/n) per constant-round repetition: classical
            // amplification to constant success costs Θ̃(n), the [15,30]
            // row's shape.
            target: crate::Target::Odd { k: self.k },
            exponent: 1.0,
            table1: Some(crate::theory::Table1Row::KorhonenRybickiOdd),
        }
    }

    fn detect(&self, g: &Graph, seed: u64, budget: &crate::Budget) -> crate::DetectResult {
        let det = match budget.repetitions {
            Some(r) => self.clone().with_repetitions(r),
            None => self.clone(),
        };
        let outcome = det.run_capped(
            g,
            seed,
            budget.bandwidth,
            budget.backend,
            budget.max_rounds,
            budget.max_messages,
        );
        Ok(budget.enforce(outcome.into_detection(self.descriptor())))
    }
}

/// [`OddCycleDetector`] as a [`MonteCarloAlgorithm`].
#[derive(Debug, Clone)]
pub struct OddMc<'a> {
    det: &'a OddCycleDetector,
    g: &'a Graph,
    bandwidth: u64,
}

impl OddMc<'_> {
    /// Sets the per-edge bandwidth charged to the base runs.
    pub fn with_bandwidth(mut self, bandwidth: u64) -> Self {
        assert!(bandwidth > 0, "bandwidth must be positive");
        self.bandwidth = bandwidth;
        self
    }
}

impl MonteCarloAlgorithm for OddMc<'_> {
    fn run(&self, seed: u64) -> McOutcome {
        let o = self.det.run_with_bandwidth(self.g, seed, self.bandwidth);
        McOutcome {
            rejected: o.rejected(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;

    #[test]
    fn detects_c5_eventually() {
        let g = generators::cycle(5);
        let det = OddCycleDetector::new(2, 200);
        let mut found = false;
        for seed in 0..20 {
            let o = det.run(&g, seed);
            if o.rejected() {
                let w = o.witness().unwrap();
                assert_eq!(w.len(), 5);
                assert!(w.is_valid(&g));
                found = true;
                break;
            }
        }
        assert!(found, "C5 never detected across seeds");
    }

    #[test]
    fn detects_c3() {
        let g = generators::complete(4); // plenty of triangles
        let det = OddCycleDetector::new(1, 100);
        let mut found = false;
        for seed in 0..20 {
            let o = det.run(&g, seed);
            if o.rejected() {
                assert_eq!(o.witness().unwrap().len(), 3);
                assert!(o.witness().unwrap().is_valid(&g));
                found = true;
                break;
            }
        }
        assert!(found, "triangle never detected");
    }

    #[test]
    fn soundness_on_bipartite_graphs() {
        // Bipartite graphs have no odd cycles at all.
        let det = OddCycleDetector::new(2, 50);
        for seed in 0..5 {
            let g = generators::random_bipartite(20, 20, 0.2, seed);
            assert!(!det.run(&g, seed).rejected(), "seed {seed}");
        }
    }

    #[test]
    fn soundness_on_c7_free() {
        // C5 contains no C7; the k = 3 detector must accept it.
        let g = generators::cycle(5);
        let det = OddCycleDetector::new(3, 100);
        for seed in 0..5 {
            assert!(!det.run(&g, seed).rejected());
        }
    }

    #[test]
    fn congestion_constant() {
        let g = generators::erdos_renyi(100, 0.08, 1);
        let det = OddCycleDetector::new(2, 30);
        let o = det.run(&g, 2);
        assert!(o.report.congestion.max_words_per_edge_step <= 4);
    }

    #[test]
    fn monte_carlo_wrapper() {
        let g = generators::cycle(5);
        let det = OddCycleDetector::new(2, 50);
        let mc = det.as_monte_carlo(&g);
        assert!(mc.success_probability() > 0.0);
        assert!(mc.round_bound() > 0);
        assert_eq!(mc.run(3), mc.run(3));
    }
}
