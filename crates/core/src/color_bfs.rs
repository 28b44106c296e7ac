//! Procedure `color-BFS` with threshold (Algorithm 1, lines 14–29): the
//! one CONGEST node program every detector of this crate runs, and the
//! call, verdict-only evaluation and costed loop built around it. The
//! costed loop is public as [`EvenRun`] for Algorithm 1's palette.
//!
//! A call looks for a cycle `(u_0, u_1, …)` with `c(u_i) = i` under a
//! coloring with `P` colors. Each source (a node of `X ∩ H` colored 0)
//! sends its identifier both ways round the colors: up through
//! `1, 2, …` and down through `P-1, P-2, …`. The two branches meet at
//! the meeting color `m`. The detectors differ only in their palette:
//! `P`, `m`, and whether color `m+1` also hands its set to color `m-1`.
//!
//! | detector | `P` | `m` | hand-off | rejecting color: cycle |
//! |---|---|---|---|---|
//! | Algorithms 1 and 2 | `2k` | `k` | no | `k`: `C_{2k}` |
//! | §3.4, `k ≥ 1` | `2k+1` | `k` | no | `k`: `C_{2k+1}` |
//! | §3.5, pair `ℓ` | `2ℓ` | `ℓ` | yes | `ℓ`: `C_{2ℓ}`; `ℓ-1`: `C_{2ℓ-1}` |
//!
//! The roles, by color `c`:
//!
//! * `0` launches its identifier at step 0 (Instruction 15);
//! * `0 < c < m` acts at step `c`: it collects the identifiers its
//!   neighbors colored `c-1` sent, and forwards them to its neighbors
//!   colored `c+1` unless it holds more than `τ` (Instructions 16–22);
//! * `c > m` acts at step `P-c`: it collects from `(c+1) mod P` and
//!   forwards to `c-1`, under the same threshold;
//! * `m` compares the up branch, read at step `m`, with the down
//!   branch, read at step `P-m` (the same step when `P = 2m`), and
//!   rejects on a common identifier (Instructions 24–28);
//! * with the hand-off, `m+1` also forwards to `m-1`, which rejects at
//!   step `m` when an identifier it forwarded comes back. A set over
//!   the threshold was not forwarded, so it counts as empty.
//!
//! A rejection at `v` certifies a cycle of length `c(v) + P - m`
//! through its origin: an up branch colored `1, …, c(v)-1` and a down
//! branch colored `P-1, …, m+1`.
//!
//! Algorithm 1 launches every source and uses the global threshold
//! `τ`. Algorithm 2, and the bases the quantum pipelines amplify,
//! activate each source with a small probability and use the constant
//! threshold 4. Each detector passes the activation flags and the
//! threshold; the forwarding logic is identical.
//!
//! A verdict-only evaluation simulates a call only if some active
//! source `x` lies on a cycle of a length the palette closes (`P`, and
//! `P-1` with the hand-off) and closes a well-colored cycle within `H`,
//! ignoring the threshold: its up layers, colored `1, …, m`, and its
//! down layers, colored `P-1, …, m`, share a node colored `m` or, with
//! the hand-off, an up node colored `m-1` is adjacent to a down node
//! colored `m+1`. No other call can reject. A rejection certifies
//! exactly such a pair of branches, whose colors are all distinct: a
//! simple cycle of one of those lengths through `x`. The threshold only
//! keeps identifiers from being forwarded, so it can stop a rejection
//! but never cause one. A source on no such cycle still fills
//! thresholds, so a simulated call draws every node's coin, and the
//! threshold decides it.

use std::cell::OnceCell;
use std::ops::{ControlFlow, RangeInclusive};

use congest_graph::analysis::nodes_on_cycles;
use congest_graph::{CycleWitness, Graph, NodeId};
use congest_sim::{
    derive_seed, Control, Ctx, CutMeter, Decision, Executor, MessageSize, Outbox, Program,
    RunReport,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::detector::random_coloring;
use crate::randomized::RANDOMIZED_THRESHOLD;
use crate::witness::{extract_witness, DetectionOutcome, Phase, SetsSummary};
use crate::{Budget, Descriptor, Detection, RunCost};

/// Messages of the color-BFS protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CbMsg {
    /// Round-0 exchange of the local color and `H`-membership
    /// (the receiver needs both to route identifiers by color within
    /// `H`). Two small fields — one `O(log n)`-bit word.
    Hello {
        /// The sender's color, below the palette size.
        color: u8,
        /// Whether the sender belongs to the host subgraph `H`.
        in_h: bool,
    },
    /// A set of origin identifiers being forwarded (`I_v` in the paper);
    /// costs one word per identifier.
    Ids(Vec<u32>),
}

impl MessageSize for CbMsg {
    fn words(&self) -> usize {
        match self {
            CbMsg::Hello { .. } => 1,
            CbMsg::Ids(ids) => ids.len().max(1),
        }
    }
}

/// The per-neighbor table entry of a neighbor outside the host subgraph
/// `H`; every other entry is the neighbor's color, which is below the
/// palette size.
const NOT_IN_H: u8 = u8::MAX;

/// The shape of a color-BFS call (see the [module docs](self)): the
/// palette size `P`, the meeting color `m`, and whether color `m+1`
/// also hands its set to color `m-1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Palette {
    size: u8,
    meet: u8,
    hand_off: bool,
}

impl Palette {
    /// `(2k, k)`, no hand-off: Algorithms 1 and 2, detecting `C_{2k}`.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `2k ≥ 255`.
    pub(crate) fn even(k: usize) -> Palette {
        assert!(k >= 2, "color-BFS requires k ≥ 2");
        Palette::new(2 * k, k, false)
    }

    /// `(2k+1, k)`, no hand-off: §3.4, detecting `C_{2k+1}`.
    ///
    /// # Panics
    ///
    /// Panics if `k < 1` or `2k+1 ≥ 255`.
    pub(crate) fn odd(k: usize) -> Palette {
        assert!(k >= 1, "odd cycles start at C3 (k = 1)");
        Palette::new(2 * k + 1, k, false)
    }

    /// `(2ℓ, ℓ)` with the hand-off: §3.5's pair `ℓ`, detecting
    /// `C_{2ℓ-1}` and `C_{2ℓ}`.
    ///
    /// # Panics
    ///
    /// Panics if `ℓ < 2` or `2ℓ ≥ 255`.
    pub(crate) fn pair(l: usize) -> Palette {
        assert!(l >= 2, "pairs start at ℓ = 2");
        Palette::new(2 * l, l, true)
    }

    fn new(size: usize, meet: usize, hand_off: bool) -> Palette {
        assert!(size < usize::from(NOT_IN_H), "palette too large");
        Palette {
            size: size as u8,
            meet: meet as u8,
            hand_off,
        }
    }

    /// The number of colors `P`.
    pub(crate) fn size(self) -> u8 {
        self.size
    }

    /// The meeting color `m`.
    pub(crate) fn meet(self) -> u8 {
        self.meet
    }

    /// The lengths of the cycles a rejection certifies: `P`, and `P-1`
    /// with the hand-off.
    pub(crate) fn cycle_lengths(self) -> RangeInclusive<usize> {
        let size = usize::from(self.size);
        size - usize::from(self.hand_off)..=size
    }
}

/// Whether a node starts a search (Instruction 15): it is in `X` and in
/// `H`, colored 0, and its activation coin came up (always, in
/// Algorithm 1). Only such a node ever sends an identifier.
fn is_source(in_x: bool, in_h: bool, color: u8, active: bool) -> bool {
    in_x && in_h && color == 0 && active
}

/// The activation coins of one randomized call (Algorithm 2,
/// Instruction 1): node `v` takes the `v`-th coin of a stream seeded
/// from the call seed, each up with probability `q`. Equivalent to a
/// local coin per node, but replayable, so the costed run and the
/// verdict-only evaluation read the same coins.
struct ActivationCoins {
    q: f64,
    rng: ChaCha8Rng,
}

impl ActivationCoins {
    /// The coin stream of the call with seed `call_seed`.
    fn new(q: f64, call_seed: u64) -> Self {
        ActivationCoins {
            q,
            rng: ChaCha8Rng::seed_from_u64(derive_seed(call_seed, 0xAC7)),
        }
    }

    /// The next node's coin.
    fn flip(&mut self) -> bool {
        self.rng.gen_bool(self.q)
    }
}

/// The coloring of one repetition, drawn from the repetition's own
/// stream ([`random_coloring`]) on first use. A verdict-only evaluation
/// reads it only for a call in which some launch candidate has its coin
/// up, so most colorings are never drawn; since no other value comes
/// from that stream, leaving it undrawn changes nothing that is read.
pub(crate) struct Coloring<'a> {
    forced: Option<&'a [u8]>,
    n: usize,
    palette: usize,
    seed: u64,
    drawn: OnceCell<Vec<u8>>,
}

impl<'a> Coloring<'a> {
    /// The undrawn coloring of `n` nodes with the colors of `palette`
    /// from the stream seeded by `seed`.
    pub(crate) fn new(n: usize, palette: Palette, seed: u64) -> Self {
        Coloring {
            forced: None,
            n,
            palette: usize::from(palette.size),
            seed,
            drawn: OnceCell::new(),
        }
    }

    /// A fixed coloring, read as is.
    pub(crate) fn forced(colors: &'a [u8]) -> Self {
        Coloring {
            forced: Some(colors),
            n: colors.len(),
            palette: 0,
            seed: 0,
            drawn: OnceCell::new(),
        }
    }

    /// The colors, drawn now if this is the first read.
    pub(crate) fn get(&self) -> &[u8] {
        match self.forced {
            Some(colors) => colors,
            None => self
                .drawn
                .get_or_init(|| random_coloring(self.n, self.palette, self.seed)),
        }
    }
}

/// How the sources of a call launch and how many identifiers a node
/// forwards.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Launch {
    /// Each source's activation probability; `None` launches every
    /// source (Algorithm 1).
    pub(crate) activation: Option<f64>,
    /// The forwarding threshold `τ`.
    pub(crate) tau: u64,
}

impl Launch {
    /// Algorithm 1's launch with threshold `τ` or, with `randomized`,
    /// Algorithm 2's: activation `1/τ` and threshold
    /// [`RANDOMIZED_THRESHOLD`].
    pub(crate) fn new(tau: u64, randomized: bool) -> Launch {
        if randomized {
            Launch {
                activation: Some(1.0 / tau as f64),
                tau: RANDOMIZED_THRESHOLD,
            }
        } else {
            Launch {
                activation: None,
                tau,
            }
        }
    }
}

/// One `color-BFS` call of a detector run, as the detector's walk hands
/// it out. A costed run ([`CostedRun`]) and a verdict-only evaluation
/// ([`VerdictSession`]) of the same seed walk the same calls, so they
/// see the same colorings, masks, thresholds and call seeds.
pub(crate) struct ColorBfsCall<'a> {
    /// The detector's palette.
    pub(crate) palette: Palette,
    /// How the call's sources launch, and its threshold.
    pub(crate) launch: Launch,
    /// Colorings drawn so far in the run, this call's included.
    pub(crate) iteration: u64,
    /// Which of Algorithm 1's three calls this is (`None` in the other
    /// detectors).
    pub(crate) phase: Option<Phase>,
    /// The repetition's coloring, drawn on first read.
    pub(crate) coloring: &'a Coloring<'a>,
    /// The host subgraph `H`.
    pub(crate) h_mask: &'a [bool],
    /// The launch set `X`.
    pub(crate) x_mask: &'a [bool],
    /// The call's simulation seed; its activation coins derive from it.
    pub(crate) seed: u64,
}

impl ColorBfsCall<'_> {
    /// The repetition's coloring (drawn now if this is its first read).
    pub(crate) fn colors(&self) -> &[u8] {
        self.coloring.get()
    }

    /// Simulates the call in `session`; `active(v)` is node `v`'s
    /// activation coin, asked in ascending node order. The one
    /// simulation step of both the costed run and the verdict-only
    /// evaluation.
    fn simulate_with(
        &self,
        session: &mut Executor<ColorBfs>,
        g: &Graph,
        mut active: impl FnMut(usize) -> bool,
    ) -> RunReport {
        let colors = self.colors();
        let (palette, tau) = (self.palette, self.launch.tau);
        let last_step = usize::from(palette.size - palette.meet);
        session
            .run(
                g,
                self.seed,
                |v, _| {
                    let v = v.index();
                    let (in_h, in_x) = (self.h_mask[v], self.x_mask[v]);
                    ColorBfs::with_palette(palette, colors[v], in_h, in_x, active(v), tau)
                },
                (last_step + 3) as u64,
            )
            .expect("color-BFS cannot violate the model")
    }

    /// Simulates the call with its own coins: node `v` takes coin `v`
    /// of the call's stream ([`ActivationCoins`]), or is active when
    /// every source launches.
    pub(crate) fn simulate(&self, session: &mut Executor<ColorBfs>, g: &Graph) -> RunReport {
        let activation = self.launch.activation;
        let mut coins = activation.map(|q| ActivationCoins::new(q, self.seed));
        self.simulate_with(session, g, |_| {
            coins.as_mut().is_none_or(ActivationCoins::flip)
        })
    }
}

/// Whether some launch candidate of a call, a node of `X ∩ H` that
/// `on_cycle` marks, is an active source ([`is_source`]), drawing only
/// what the answer reads:
///
/// * a call without a candidate draws nothing;
/// * otherwise its coins are drawn in node order up to the last
///   candidate (later coins cannot make a candidate a source, so they
///   stay undrawn; every coin is the same single draw of the call's
///   stream, so the coins drawn are exactly the costed run's first
///   coins), and `coins` keeps, per node, whether it is a candidate
///   with its coin up;
/// * the repetition's coloring is read only if some candidate has its
///   coin up.
pub(crate) fn has_active_source(
    coins: &mut Vec<bool>,
    call: &ColorBfsCall<'_>,
    on_cycle: &[bool],
) -> bool {
    let (h_mask, x_mask) = (call.h_mask, call.x_mask);
    coins.clear();
    let candidate = |v: usize| on_cycle[v] && x_mask[v] && h_mask[v];
    let Some(last) = (0..x_mask.len()).rposition(candidate) else {
        return false;
    };
    match call.launch.activation {
        Some(q) => {
            let mut stream = ActivationCoins::new(q, call.seed);
            coins.extend((0..=last).map(|v| stream.flip() && candidate(v)));
        }
        None => coins.extend((0..=last).map(candidate)),
    }
    if !coins.contains(&true) {
        return false;
    }
    let colors = call.colors();
    (0..=last).any(|v| is_source(x_mask[v], h_mask[v], colors[v], coins[v]))
}

/// The layers a source's identifier reaches when no threshold stops it,
/// walked with scratch kept from one call and one seed to the next.
///
/// From a source `x`, the up branch's layer `c` (`c = 1, …, m`) is the
/// set of `H`-nodes colored `c` adjacent to layer `c-1`, starting from
/// `{x}`; the down branch's layers, colored `P-1, …, m`, are built the
/// same way. `x` closes a well-colored cycle when its two branches
/// share a node colored `m` or, with the hand-off, an up node colored
/// `m-1` is adjacent to a down node colored `m+1`: exactly when a call
/// with no threshold rejects on `x`'s identifier.
///
/// The walk stays apart from
/// [`find_colored_path`](crate::find_colored_path): that search recovers
/// one path to a known endpoint, keeping a parent per layer, while this
/// one only asks whether a source's two branches meet, at every meeting
/// node at once.
#[derive(Debug, Default)]
struct CycleWalk {
    /// Per node, the stamp of the last source whose walk reached it.
    /// The up layers take colors `1, …, m` and the down layers
    /// `m+1, …, P-1`, so one stamp per source tells both branches
    /// apart.
    marks: Vec<u32>,
    /// The stamp of the last source walked.
    stamp: u32,
    /// The layer being left and the layer being built.
    frontier: Vec<NodeId>,
    next: Vec<NodeId>,
}

impl CycleWalk {
    /// Whether some node with its coin up in `coins` is a source of
    /// `call` that closes a well-colored cycle; nodes past the end of
    /// `coins` are inactive.
    fn some_source_closes(&mut self, g: &Graph, call: &ColorBfsCall<'_>, coins: &[bool]) -> bool {
        let colors = call.colors();
        self.marks.resize(g.node_count(), 0);
        (0..coins.len()).any(|x| {
            is_source(call.x_mask[x], call.h_mask[x], colors[x], coins[x])
                && self.closes(g, call, NodeId::new(x as u32))
        })
    }

    /// Whether source `x` of `call` closes a well-colored cycle.
    fn closes(&mut self, g: &Graph, call: &ColorBfsCall<'_>, x: NodeId) -> bool {
        if self.stamp == u32::MAX {
            self.marks.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        let Palette {
            size,
            meet,
            hand_off,
        } = call.palette;
        self.walk(g, call, x, 1..=meet);
        self.walk(g, call, x, (meet + 1..size).rev());
        // `frontier` holds the down layer colored m+1. A neighbor of it
        // colored m or m-1 that carries this source's stamp is an up
        // node: one both branches reach, or the hand-off's m-1 end.
        let (stamp, colors) = (self.stamp, call.colors());
        self.frontier.iter().any(|&u| {
            g.neighbors(u).iter().any(|&w| {
                let c = colors[w.index()];
                self.marks[w.index()] == stamp && (c == meet || hand_off && c + 1 == meet)
            })
        })
    }

    /// Builds the layers colored `layers`, in order, from `{x}`,
    /// stamping each node reached; leaves the last one in `frontier`.
    fn walk(
        &mut self,
        g: &Graph,
        call: &ColorBfsCall<'_>,
        x: NodeId,
        layers: impl Iterator<Item = u8>,
    ) {
        let (stamp, h_mask, colors) = (self.stamp, call.h_mask, call.colors());
        self.frontier.clear();
        self.frontier.push(x);
        for color in layers {
            self.next.clear();
            for &u in &self.frontier {
                for &w in g.neighbors(u) {
                    let i = w.index();
                    if h_mask[i] && colors[i] == color && self.marks[i] != stamp {
                        self.marks[i] = stamp;
                        self.next.push(w);
                    }
                }
            }
            std::mem::swap(&mut self.frontier, &mut self.next);
        }
    }
}

/// The simulation session, launch candidates, coin scratch and walk
/// scratch of a verdict-only evaluator, kept from one call and one seed
/// to the next.
#[derive(Debug)]
pub(crate) struct VerdictSession {
    session: Executor<ColorBfs>,
    /// Per node, whether it lies on a cycle of a length the evaluator's
    /// palettes close ([`nodes_on_cycles`]): only such a node can be
    /// the origin of a rejection.
    on_cycle: Vec<bool>,
    coins: Vec<bool>,
    walk: CycleWalk,
}

impl VerdictSession {
    /// An evaluator on `g` whose palettes close cycles of `lengths` and
    /// whose simulated calls step on the budget's backend.
    pub(crate) fn new(g: &Graph, lengths: RangeInclusive<usize>, budget: &Budget) -> Self {
        // Past this many steps the search marks every node, which costs
        // only speed: linear in the graph's size, BFS work included.
        let steps = 64 * (g.node_count() + g.directed_edge_count()) as u64 + 4096;
        VerdictSession {
            session: Executor::new(budget.backend),
            on_cycle: nodes_on_cycles(g, lengths, steps),
            coins: Vec::new(),
            walk: CycleWalk::default(),
        }
    }

    /// Whether any call can reject: some node lies on a cycle of the
    /// evaluator's lengths. An evaluator that answers `false` without
    /// walking a call when this is `false` answers what walking every
    /// call would.
    pub(crate) fn can_reject(&self) -> bool {
        self.on_cycle.contains(&true)
    }

    /// One call of a verdict-only evaluation: simulates the call only
    /// if a launch candidate (a node of `X ∩ H` on a cycle of the
    /// evaluator's lengths) is an active source ([`has_active_source`])
    /// that closes a well-colored cycle ([`CycleWalk`]), and then with
    /// the coins of every node, redrawn from the call's stream. Breaks
    /// when the simulated call rejects.
    ///
    /// A call that is not simulated cannot reject. Only an active
    /// source sends an identifier, and every later message forwards
    /// identifiers a node received from a neighbor of the color before
    /// it, within `H`; so an identifier reaches at most the layers of
    /// its source's walk. A node rejects only when one identifier
    /// reaches it along both branches at color `m`, or comes back from
    /// color `m+1` at color `m-1` (the hand-off): a simple cycle, its
    /// colors being distinct, of length `P` or `P-1` through the
    /// source, so a source on no such cycle never causes a rejection. A
    /// threshold only keeps a node from forwarding what it collected,
    /// so it can stop a rejection but never cause one. A call that
    /// passes is simulated, and its threshold decides; the identifiers
    /// of sources on no cycle count towards it, which is why the
    /// simulation redraws every coin.
    pub(crate) fn call_verdict(&mut self, g: &Graph, call: &ColorBfsCall<'_>) -> ControlFlow<()> {
        let coins = &mut self.coins;
        if !has_active_source(coins, call, &self.on_cycle)
            || !self.walk.some_source_closes(g, call, coins)
        {
            return ControlFlow::Continue(());
        }
        let report = call.simulate(&mut self.session, g);
        if report.rejecting_nodes.is_empty() {
            ControlFlow::Continue(())
        } else {
            ControlFlow::Break(())
        }
    }
}

/// A rejection a costed run certified.
#[derive(Debug)]
pub(crate) struct Rejection {
    /// The validated cycle.
    pub(crate) witness: CycleWitness,
    /// The rejecting call's phase (Algorithm 1 only).
    pub(crate) phase: Option<Phase>,
    /// The rejecting call's meeting color: the pair `ℓ` in §3.5.
    pub(crate) meet: u8,
}

/// The costed loop every detector drives with its own walk, directly or
/// through [`EvenRun`]: each call is simulated with its own coins and
/// charged what it measured; the first rejecting node's cycle is
/// certified; the walk stops at a rejection (unless
/// [`Budget::run_to_budget`]) or once the accumulated cost passes a cap
/// of the budget.
pub(crate) struct CostedRun<'a> {
    g: &'a Graph,
    budget: &'a Budget,
    session: Executor<ColorBfs>,
    /// The accumulated cost.
    pub(crate) report: RunReport,
    /// Colorings drawn up to the last call simulated.
    pub(crate) iterations: u64,
    /// The last certified rejection.
    pub(crate) rejection: Option<Rejection>,
    /// Whether a cap stopped the walk.
    pub(crate) budget_exceeded: bool,
}

impl<'a> CostedRun<'a> {
    /// A run on `g` that has cost `report` so far (its set-up round, if
    /// any), simulating on the budget's backend and bandwidth.
    pub(crate) fn new(g: &'a Graph, budget: &'a Budget, report: RunReport) -> Self {
        let mut session = Executor::new(budget.backend);
        session.set_bandwidth(budget.bandwidth);
        CostedRun {
            g,
            budget,
            session,
            report,
            iterations: 0,
            rejection: None,
            budget_exceeded: false,
        }
    }

    /// Simulates and charges one call; breaks when the run stops.
    pub(crate) fn visit(&mut self, call: &ColorBfsCall<'_>) -> ControlFlow<()> {
        self.iterations = call.iteration;
        let report = call.simulate(&mut self.session, self.g);
        self.report.absorb(&report);
        if let Some(&v) = report.rejecting_nodes.first() {
            let evidence = self.session.nodes()[v as usize].evidence();
            let origin = NodeId::new(evidence.expect("a rejecting node has evidence").origin);
            let colors = call.colors();
            let v = NodeId::new(v);
            let witness = extract_witness(self.g, call.h_mask, colors, call.palette, origin, v)
                .expect("rejection must be certifiable");
            self.rejection = Some(Rejection {
                witness,
                phase: call.phase,
                meet: call.palette.meet,
            });
            if !self.budget.run_to_budget {
                return ControlFlow::Break(());
            }
        }
        if self
            .budget
            .caps_exceeded(&RunCost::from_report(&self.report, 0))
        {
            self.budget_exceeded = true;
            return ControlFlow::Break(());
        }
        ControlFlow::Continue(())
    }

    /// The run as a [`DetectionOutcome`] over the sets `sets`.
    pub(crate) fn into_outcome(self, sets: SetsSummary) -> DetectionOutcome {
        let (witness, phase) = self.rejection.map(|r| (r.witness, r.phase)).unzip();
        DetectionOutcome {
            decision: match witness {
                Some(_) => Decision::Reject,
                None => Decision::Accept,
            },
            witness,
            phase: phase.flatten(),
            iterations: self.iterations,
            report: self.report,
            sets,
            budget_exceeded: self.budget_exceeded,
        }
    }
}

/// One `color-BFS(k, H, c, X, τ)` call of an [`EvenRun`] (or, with an
/// activation probability, `randomized-color-BFS`): Algorithm 1's
/// palette `(2k, k)` under the caller's coloring, sets, threshold and
/// seed.
#[derive(Debug, Clone, Copy)]
pub struct EvenCall<'a> {
    /// Colorings drawn so far in the run, this call's included: what
    /// [`EvenRunOutcome::iterations`] reports if the run stops here.
    pub iteration: u64,
    /// The coloring `c`, one color below `2k` per node.
    pub colors: &'a [u8],
    /// The host subgraph `H`.
    pub h_mask: &'a [bool],
    /// The launch set `X`.
    pub x_mask: &'a [bool],
    /// Each source's activation probability; `None` launches every
    /// source (Algorithm 1).
    pub activation: Option<f64>,
    /// The forwarding threshold `τ`.
    pub tau: u64,
    /// The call's simulation seed; its activation coins derive from it.
    pub seed: u64,
}

/// A costed run of Algorithm-1-palette `color-BFS` calls that the
/// caller walks itself: the loop of the \[10\] and \[16\] baselines, of
/// the §3.3 reduction and of the ablations. It is the loop the paper's
/// detectors run: each call is simulated on the budget's backend and
/// charged at its bandwidth, the first rejecting node's cycle is
/// certified, and [`EvenRun::visit`] breaks at a rejection (unless
/// [`Budget::run_to_budget`]) or once the accumulated cost passes a cap
/// of the budget.
///
/// ```
/// use congest_graph::generators;
/// use even_cycle::{Budget, EvenCall, EvenRun};
///
/// let g = generators::cycle(4);
/// let every_node = [true; 4];
/// let budget = Budget::classical();
/// let mut run = EvenRun::new(&g, 2, &budget);
/// let _ = run.visit(&EvenCall {
///     iteration: 1,
///     colors: &[0, 1, 2, 3],
///     h_mask: &every_node,
///     x_mask: &every_node,
///     activation: None,
///     tau: 4,
///     seed: 7,
/// });
/// let outcome = run.finish();
/// assert!(outcome.rejected());
/// assert_eq!(outcome.witness.map(|w| w.len()), Some(4));
/// ```
pub struct EvenRun<'a> {
    palette: Palette,
    run: CostedRun<'a>,
}

impl<'a> EvenRun<'a> {
    /// A run of `C_{2k}` calls on `g` under `budget`.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    pub fn new(g: &'a Graph, k: usize, budget: &'a Budget) -> Self {
        EvenRun {
            palette: Palette::even(k),
            run: CostedRun::new(g, budget, RunReport::empty()),
        }
    }

    /// Meters the words that cross `cut` in every call; the
    /// [`RunReport::cut_words`] of the outcome sums them.
    pub fn with_cut(mut self, cut: CutMeter) -> Self {
        self.run.session.set_cut(cut);
        self
    }

    /// Simulates and charges one call; breaks when the run stops.
    pub fn visit(&mut self, call: &EvenCall<'_>) -> ControlFlow<()> {
        let coloring = Coloring::forced(call.colors);
        self.run.visit(&ColorBfsCall {
            palette: self.palette,
            launch: Launch {
                activation: call.activation,
                tau: call.tau,
            },
            iteration: call.iteration,
            phase: None,
            coloring: &coloring,
            h_mask: call.h_mask,
            x_mask: call.x_mask,
            seed: call.seed,
        })
    }

    /// What the calls visited so far certified and cost.
    pub fn finish(self) -> EvenRunOutcome {
        let run = self.run;
        EvenRunOutcome {
            witness: run.rejection.map(|r| r.witness),
            iterations: run.iterations,
            report: run.report,
            budget_exceeded: run.budget_exceeded,
        }
    }
}

/// The outcome of an [`EvenRun`]: the run of the \[10\] and \[16\]
/// baselines, among others.
#[derive(Debug, Clone)]
pub struct EvenRunOutcome {
    /// The cycle the last rejecting call certified, validated against
    /// the graph.
    pub witness: Option<CycleWitness>,
    /// The [`EvenCall::iteration`] of the last call simulated.
    pub iterations: u64,
    /// The accumulated CONGEST costs.
    pub report: RunReport,
    /// Whether a cap of the budget stopped the run (the decision is then
    /// untrusted).
    pub budget_exceeded: bool,
}

impl EvenRunOutcome {
    /// Whether some call rejected.
    pub fn rejected(&self) -> bool {
        self.witness.is_some()
    }

    /// Converts into the unified [`Detection`] surface under the given
    /// algorithm metadata.
    pub fn into_detection(self, algorithm: Descriptor) -> Detection {
        let cost = RunCost::from_report(&self.report, self.iterations);
        Detection::of_run(algorithm, self.witness, self.budget_exceeded, cost)
    }
}

/// Evidence recorded by a rejecting node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RejectEvidence {
    /// The identifier of the origin `x ∈ X₀` whose id arrived along both
    /// well-colored branches.
    pub origin: u32,
}

/// The per-node state of one `color-BFS` call.
///
/// Construct one per vertex via [`ColorBfs::new`] (Algorithm 1's
/// palette) and run with a [`congest_sim::Executor`]; every detector of
/// this crate does the same, with its own palette, for each call of its
/// walk.
#[derive(Debug, Clone)]
pub struct ColorBfs {
    palette: Palette,
    color: u8,
    in_h: bool,
    /// `x ∈ X` with `c(x) = 0` *and* activated (always true in
    /// Algorithm 1; probability `1/τ` in Algorithm 2).
    active_source: bool,
    tau: u64,
    /// Per neighbor (aligned with the sorted neighbor list): its color,
    /// or [`NOT_IN_H`] when it is outside `H`.
    nbr: Vec<u8>,
    /// The set `I_v` this node collected; at the meeting color, its up
    /// branch.
    collected: Vec<u32>,
    /// Whether `|I_v| > τ` stopped this node from forwarding.
    overflowed: bool,
    reject: Option<RejectEvidence>,
}

impl ColorBfs {
    /// Creates the program state for one vertex of a call of
    /// Algorithm 1 or 2 (palette `(2k, k)`).
    ///
    /// * `k` — half the target cycle length (`k ≥ 2`);
    /// * `color` — `c(v) ∈ {0, …, 2k-1}`;
    /// * `in_h` / `in_x` — membership in `H` and `X`;
    /// * `active` — the Algorithm 2 activation coin (pass `true` for
    ///   Algorithm 1);
    /// * `tau` — the forwarding threshold.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `color ≥ 2k`.
    pub fn new(k: usize, color: u8, in_h: bool, in_x: bool, active: bool, tau: u64) -> Self {
        ColorBfs::with_palette(Palette::even(k), color, in_h, in_x, active, tau)
    }

    /// [`ColorBfs::new`] for a call with any palette.
    ///
    /// # Panics
    ///
    /// Panics if `color` is not below the palette size.
    pub(crate) fn with_palette(
        palette: Palette,
        color: u8,
        in_h: bool,
        in_x: bool,
        active: bool,
        tau: u64,
    ) -> Self {
        assert!(color < palette.size, "color out of range");
        ColorBfs {
            palette,
            color,
            in_h,
            active_source: is_source(in_x, in_h, color, active),
            tau,
            nbr: Vec::new(),
            collected: Vec::new(),
            overflowed: false,
            reject: None,
        }
    }

    /// Whether this node is the `m-1` end of the hand-off.
    fn awaits_hand_off(&self) -> bool {
        self.palette.hand_off && self.color + 1 == self.palette.meet
    }

    /// The superstep at which this node halts: the meeting color reads
    /// the down branch at `P-m`, the hand-off end reads its set back at
    /// `m`, and every other node halts once a branch reached it.
    fn last_step(&self) -> usize {
        let Palette { size, meet, .. } = self.palette;
        let c = self.color;
        usize::from(if c == meet {
            size - meet
        } else if self.awaits_hand_off() {
            meet
        } else {
            c.min(size - c)
        })
    }

    /// The identifier sets received from `H`-neighbors colored
    /// `expected`, in inbox order.
    fn sets_from<'m>(
        &'m self,
        inbox: &'m [(NodeId, CbMsg)],
        ctx: &'m Ctx,
        expected: u8,
    ) -> impl Iterator<Item = &'m [u32]> + 'm {
        let mut walk = SenderWalk::default();
        inbox.iter().filter_map(move |(from, msg)| match msg {
            CbMsg::Ids(ids) if self.nbr[walk.position(ctx.neighbors, *from)] == expected => {
                Some(ids.as_slice())
            }
            _ => None,
        })
    }

    /// Collects as `I_v` the distinct origin ids received from
    /// `H`-neighbors colored `expected`.
    fn collect(&mut self, inbox: &[(NodeId, CbMsg)], ctx: &Ctx, expected: u8) {
        let mut collected = std::mem::take(&mut self.collected);
        collected.clear();
        for ids in self.sets_from(inbox, ctx, expected) {
            collected.extend_from_slice(ids);
        }
        collected.sort_unstable();
        collected.dedup();
        self.collected = collected;
    }

    /// Sends `I_v` to every `H`-neighbor colored `next`.
    fn forward(&self, ctx: &Ctx, out: &mut Outbox<CbMsg>, next: u8) {
        if self.collected.is_empty() {
            return;
        }
        for (pos, &nbr) in ctx.neighbors.iter().enumerate() {
            if self.nbr[pos] == next {
                out.send(nbr, CbMsg::Ids(self.collected.clone()));
            }
        }
    }

    /// Forwards `I_v` to the colors `next`, unless `|I_v| > τ`.
    fn relay(&mut self, ctx: &Ctx, out: &mut Outbox<CbMsg>, next: &[u8]) {
        if self.collected.len() as u64 <= self.tau {
            for &color in next {
                self.forward(ctx, out, color);
            }
        } else {
            self.overflowed = true;
        }
    }

    /// Rejects if some identifier received from `H`-neighbors colored
    /// `expected` is also in `I_v`, with the least such identifier as
    /// the origin.
    fn reject_on_common(&mut self, inbox: &[(NodeId, CbMsg)], ctx: &Ctx, expected: u8) {
        let common = self
            .sets_from(inbox, ctx, expected)
            .flatten()
            .filter(|id| self.collected.binary_search(id).is_ok())
            .min();
        if let Some(&origin) = common {
            self.reject = Some(RejectEvidence { origin });
        }
    }

    /// The rejection evidence, if this node rejected.
    pub fn evidence(&self) -> Option<RejectEvidence> {
        self.reject
    }

    /// The set `I_v` this node collected at its action step.
    pub fn collected(&self) -> &[u32] {
        &self.collected
    }
}

impl Program for ColorBfs {
    type Msg = CbMsg;

    fn init(&mut self, _ctx: &mut Ctx, out: &mut Outbox<CbMsg>) {
        out.broadcast(CbMsg::Hello {
            color: self.color,
            in_h: self.in_h,
        });
    }

    fn step(
        &mut self,
        ctx: &mut Ctx,
        superstep: usize,
        inbox: &[(NodeId, CbMsg)],
        out: &mut Outbox<CbMsg>,
    ) -> Control {
        if superstep == 0 {
            // Record the colors of the H-neighbors from the Hellos.
            self.nbr.clear();
            self.nbr.resize(ctx.neighbors.len(), NOT_IN_H);
            let mut walk = SenderWalk::default();
            for (from, msg) in inbox {
                if let CbMsg::Hello { color, in_h: true } = msg {
                    self.nbr[walk.position(ctx.neighbors, *from)] = *color;
                }
            }
            if !self.in_h {
                return Control::Halt;
            }
            // Instruction 15: active sources send their id to all
            // H-neighbors.
            if self.active_source {
                let me = ctx.node.raw();
                for (pos, &nbr) in ctx.neighbors.iter().enumerate() {
                    if self.nbr[pos] != NOT_IN_H {
                        out.send(nbr, CbMsg::Ids(vec![me]));
                    }
                }
            }
            return if self.color == 0 {
                Control::Halt
            } else {
                Control::Continue
            };
        }
        let Palette {
            size,
            meet,
            hand_off,
        } = self.palette;
        let c = self.color;
        // A branch reaches color c at step c going up, P-c going down.
        let reached = usize::from(c.min(size - c));
        if superstep < reached {
            return Control::Continue;
        }
        let at = |step: u8| superstep == usize::from(step);
        if superstep == reached {
            if c < meet {
                // Up branch: collect from c-1, forward to c+1
                // (Instructions 16–22).
                self.collect(inbox, ctx, c - 1);
                self.relay(ctx, out, &[c + 1]);
            } else if c > meet {
                // Down branch: collect from c+1 (mod P; the predecessor
                // of P-1 is color 0) and forward to c-1; with the
                // hand-off, m+1 also forwards to m-1.
                self.collect(inbox, ctx, (c + 1) % size);
                if hand_off && c == meet + 1 {
                    self.relay(ctx, out, &[c - 1, meet - 1]);
                } else {
                    self.relay(ctx, out, &[c - 1]);
                }
            } else {
                self.collect(inbox, ctx, meet - 1);
            }
        }
        if c == meet && at(size - meet) {
            // Instructions 24–28: the same id along the up branch and
            // the down branch certifies a cycle.
            self.reject_on_common(inbox, ctx, meet + 1);
        } else if self.awaits_hand_off() && at(meet) && !self.overflowed {
            // §3.5: an id this node forwarded came back from m+1.
            self.reject_on_common(inbox, ctx, meet + 1);
        }
        if superstep < self.last_step() {
            Control::Continue
        } else {
            Control::Halt
        }
    }

    fn decision(&self) -> Decision {
        if self.reject.is_some() {
            Decision::Reject
        } else {
            Decision::Accept
        }
    }

    /// Keeps the allocations of the neighbor table and of `I_v`,
    /// emptied; every other field comes from `fresh`.
    fn recycle(&mut self, fresh: ColorBfs) {
        let (mut nbr, mut collected) = (
            std::mem::take(&mut self.nbr),
            std::mem::take(&mut self.collected),
        );
        nbr.clear();
        collected.clear();
        *self = ColorBfs {
            nbr,
            collected,
            ..fresh
        };
    }
}

/// Finds the senders of one inbox in a node's sorted neighbor list with
/// one forward walk: an inbox lists its senders in ascending order
/// ([`Program::step`]).
#[derive(Default)]
struct SenderWalk {
    pos: usize,
}

impl SenderWalk {
    /// The position of `from` in `neighbors`; `from` must not precede
    /// the sender asked for before it.
    fn position(&mut self, neighbors: &[NodeId], from: NodeId) -> usize {
        while neighbors[self.pos] < from {
            self.pos += 1;
        }
        debug_assert_eq!(neighbors[self.pos], from, "sender must be a neighbor");
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;
    use congest_sim::Backend;

    /// Runs one call with `palette` on `g` with the given per-node
    /// colors, all nodes in H and X, all active, threshold `tau`.
    fn run_call(
        g: &Graph,
        palette: Palette,
        colors: &[u8],
        tau: u64,
    ) -> (RunReport, Vec<ColorBfs>) {
        let mut exec = Executor::new(Backend::Sequential);
        let report = exec
            .run(
                g,
                7,
                |v, _| ColorBfs::with_palette(palette, colors[v.index()], true, true, true, tau),
                u64::from(palette.size - palette.meet) + 3,
            )
            .expect("simulation error");
        (report, exec.into_nodes())
    }

    /// [`run_call`] with Algorithm 1's palette `(2k, k)`.
    fn run_plain(g: &Graph, colors: &[u8], k: usize, tau: u64) -> (RunReport, Vec<ColorBfs>) {
        run_call(g, Palette::even(k), colors, tau)
    }

    /// Asserts that node `v` alone rejects a call with `palette` on `g`
    /// at threshold `tau`, with origin 0, and that the witness step
    /// recovers a valid cycle of length `len` from that rejection.
    fn assert_rejects_at(g: &Graph, palette: Palette, colors: &[u8], tau: u64, v: u32, len: usize) {
        let (report, nodes) = run_call(g, palette, colors, tau);
        assert_eq!(report.rejecting_nodes, vec![v], "{palette:?}, τ = {tau}");
        let origin = nodes[v as usize].evidence().unwrap().origin;
        assert_eq!(origin, 0);
        let all = vec![true; g.node_count()];
        let (x, v) = (NodeId::new(origin), NodeId::new(v));
        let w = extract_witness(g, &all, colors, palette, x, v).expect("certifiable");
        assert_eq!(w.len(), len);
    }

    #[test]
    fn detects_well_colored_c4() {
        let g = generators::cycle(4);
        let colors = vec![0u8, 1, 2, 3];
        let (report, nodes) = run_plain(&g, &colors, 2, 100);
        assert!(report.rejected());
        assert_eq!(
            report.rejecting_nodes,
            vec![2],
            "the k-colored node rejects"
        );
        assert_eq!(nodes[2].evidence().unwrap().origin, 0);
    }

    #[test]
    fn detects_well_colored_c6() {
        let g = generators::cycle(6);
        let colors = vec![0u8, 1, 2, 3, 4, 5];
        let (report, nodes) = run_plain(&g, &colors, 3, 100);
        assert!(report.rejected());
        assert_eq!(report.rejecting_nodes, vec![3]);
        assert_eq!(nodes[3].evidence().unwrap().origin, 0);
    }

    #[test]
    fn reversed_coloring_also_detects() {
        // Orientation symmetry: coloring the cycle the other way.
        let g = generators::cycle(6);
        let colors = vec![0u8, 5, 4, 3, 2, 1];
        let (report, _) = run_plain(&g, &colors, 3, 100);
        assert!(report.rejected());
    }

    #[test]
    fn badly_colored_cycle_not_detected() {
        let g = generators::cycle(4);
        let colors = vec![0u8, 1, 3, 2]; // 2 and 3 swapped: no rejection
        let (report, _) = run_plain(&g, &colors, 2, 100);
        assert!(!report.rejected());
    }

    #[test]
    fn no_cycle_no_rejection_any_coloring() {
        // A path cannot produce a rejection under any coloring
        // (soundness of the procedure itself).
        let g = generators::path(8);
        for seed in 0..30u64 {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let colors: Vec<u8> = (0..8).map(|_| rng.gen_range(0..4)).collect();
            let (report, _) = run_plain(&g, &colors, 2, 100);
            assert!(!report.rejected(), "path rejected with coloring {colors:?}");
        }
    }

    #[test]
    fn threshold_zero_blocks_detection() {
        // τ = 0 discards every nonempty set at the first forwarding node.
        let g = generators::cycle(4);
        let colors = vec![0u8, 1, 2, 3];
        let (report, nodes) = run_plain(&g, &colors, 2, 0);
        assert!(!report.rejected());
        assert!(nodes[1].overflowed, "I_{{v1}} = {{0}} exceeds τ = 0");
    }

    #[test]
    fn h_restriction_blocks_paths_through_non_h_nodes() {
        // C4 where node 1 is outside H: the up-branch is severed.
        let g = generators::cycle(4);
        let colors = [0u8, 1, 2, 3];
        let mut exec = Executor::new(Backend::Sequential);
        let report = exec
            .run(
                &g,
                7,
                |v, _| {
                    let in_h = v.raw() != 1;
                    ColorBfs::new(2, colors[v.index()], in_h, in_h, true, 100)
                },
                8,
            )
            .unwrap();
        assert!(!report.rejected());
    }

    #[test]
    fn x_restriction_limits_sources() {
        // Only node 0 in X vs node 0 not in X.
        let g = generators::cycle(4);
        let colors = [0u8, 1, 2, 3];
        let run_with_x = |x_mask: [bool; 4]| {
            let mut exec = Executor::new(Backend::Sequential);
            exec.run(
                &g,
                7,
                |v, _| ColorBfs::new(2, colors[v.index()], true, x_mask[v.index()], true, 100),
                8,
            )
            .unwrap()
            .rejected()
        };
        assert!(run_with_x([true, false, false, false]));
        assert!(!run_with_x([false, true, true, true]));
    }

    #[test]
    fn inactive_sources_do_not_launch() {
        let g = generators::cycle(4);
        let colors = [0u8, 1, 2, 3];
        let mut exec = Executor::new(Backend::Sequential);
        let report = exec
            .run(
                &g,
                7,
                |v, _| ColorBfs::new(2, colors[v.index()], true, true, false, 100),
                8,
            )
            .unwrap();
        assert!(!report.rejected());
        // Only the Hello round happened.
        assert_eq!(report.congestion.max_words_per_edge_step, 1);
    }

    #[test]
    fn congestion_bounded_by_sources() {
        // Star-of-paths: many sources converge on one middle vertex; the
        // per-edge congestion equals the number of distinct origins
        // forwarded, never more than τ.
        // Build: sources s_i (color 0) - a_i (color 1) - hub (color 2).
        let s = 6u32;
        let mut b = congest_graph::GraphBuilder::new(1 + 2 * s as usize);
        let hub = NodeId::new(0);
        let mut colors = vec![2u8];
        for i in 0..s {
            let src = NodeId::new(1 + 2 * i);
            let mid = NodeId::new(2 + 2 * i);
            b.add_edge(src, mid);
            b.add_edge(mid, hub);
            colors.push(0); // src
            colors.push(1); // mid
        }
        let g = b.build();
        let (report, nodes) = run_plain(&g, &colors, 2, 100);
        assert!(!report.rejected(), "no cycle present");
        // Each mid forwards exactly one id to the hub; per-edge load 1,
        // and the hub collected all s distinct origins.
        assert_eq!(nodes[0].collected().len(), s as usize);
        assert_eq!(report.congestion.max_words_per_edge_step, 1);
    }

    #[test]
    fn odd_palette_detects_well_colored_c5_and_c3() {
        // §3.4: the up branch (k hops) and the down branch (k+1 hops)
        // meet at color k, one step apart.
        let colors = [0, 1, 2, 3, 4];
        assert_rejects_at(&generators::cycle(5), Palette::odd(2), &colors, 4, 2, 5);
        assert_rejects_at(&generators::cycle(3), Palette::odd(1), &[0, 1, 2], 4, 1, 3);
    }

    #[test]
    fn pair_hand_off_detects_the_odd_member() {
        // §3.5: color ℓ+1 also forwards to ℓ-1, which finds an id it
        // forwarded coming back.
        assert_rejects_at(&generators::cycle(3), Palette::pair(2), &[0, 1, 3], 4, 1, 3);
        let colors = [0, 1, 2, 4, 5];
        assert_rejects_at(&generators::cycle(5), Palette::pair(3), &colors, 4, 2, 5);
    }

    #[test]
    fn pair_palette_detects_the_even_member() {
        let colors = [0, 1, 2, 3, 4, 5];
        assert_rejects_at(&generators::cycle(6), Palette::pair(3), &colors, 4, 3, 6);
    }

    #[test]
    fn an_overflowed_set_voids_the_hand_off_check() {
        // The triangle 0-1-2 colored 0, 1, 3, and node 3 colored 0 on
        // node 1: node 1 collects {0, 3}. At τ = 2 it forwards the set
        // and id 0 comes back from node 2; at τ = 1 it forwards nothing,
        // so the 0 coming back matches nothing, though node 1 keeps the
        // set it collected.
        let mut b = congest_graph::GraphBuilder::new(4);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (1, 3)] {
            b.add_edge(NodeId::new(u), NodeId::new(v));
        }
        let g = b.build();
        let colors = [0, 1, 3, 0];
        assert_rejects_at(&g, Palette::pair(2), &colors, 2, 1, 3);
        let (report, nodes) = run_call(&g, Palette::pair(2), &colors, 1);
        assert!(!report.rejected());
        assert!(nodes[1].overflowed);
        assert_eq!(nodes[1].collected(), [0, 3]);
    }

    #[test]
    fn the_walk_passes_exactly_the_calls_that_can_reject() {
        // Per call, on random colorings, H masks and coins: with a
        // threshold no set can exceed, the walk passes exactly the
        // calls whose simulation rejects, and at τ = 4 it passes every
        // call whose simulation rejects. Each palette sees both.
        let palettes = [
            Palette::even(2),
            Palette::even(3),
            Palette::odd(1),
            Palette::odd(2),
            Palette::odd(3),
            Palette::pair(2),
            Palette::pair(3),
        ];
        let mut session = Executor::new(Backend::Sequential);
        let mut walk = CycleWalk::default();
        let mut passed = vec![[0; 2]; palettes.len()];
        let mut case = 0;
        for (label, g) in crate::test_corpus::corpus() {
            let n = g.node_count();
            let x_mask = vec![true; n];
            for (counts, palette) in passed.iter_mut().zip(palettes) {
                case += 1;
                let mut rng = ChaCha8Rng::seed_from_u64(case);
                for draw in 0..60 {
                    let colors: Vec<u8> = (0..n).map(|_| rng.gen_range(0..palette.size)).collect();
                    let h_mask: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.9)).collect();
                    let coins: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.3)).collect();
                    let coloring = Coloring::forced(&colors);
                    let call = |tau| ColorBfsCall {
                        palette,
                        launch: Launch {
                            activation: Some(0.3),
                            tau,
                        },
                        iteration: 1,
                        phase: None,
                        coloring: &coloring,
                        h_mask: &h_mask,
                        x_mask: &x_mask,
                        seed: draw,
                    };
                    let passes = walk.some_source_closes(&g, &call(u64::MAX), &coins);
                    let at = format!("{label}, {palette:?}, draw {draw}");
                    let report = call(u64::MAX).simulate_with(&mut session, &g, |v| coins[v]);
                    assert_eq!(passes, report.rejected(), "no threshold: {at}");
                    let report = call(4).simulate_with(&mut session, &g, |v| coins[v]);
                    assert!(passes || !report.rejected(), "τ = 4: {at}");
                    counts[usize::from(passes)] += 1;
                }
            }
        }
        for (counts, palette) in passed.iter().zip(palettes) {
            assert!(counts[0] > 0 && counts[1] > 0, "{palette:?}: {counts:?}");
        }
    }

    #[test]
    fn thresholds_read_sources_on_no_cycle() {
        // A C4 on nodes 0-3 colored 0, 1, 2, 3, and a pendant node 4
        // colored 0 on node 1. Node 4 lies on no cycle, so it is no
        // launch candidate, but its identifier takes node 1 over τ = 1
        // and the up branch of node 0 stops there: the call accepts,
        // and so must its verdict.
        let mut b = congest_graph::GraphBuilder::new(5);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4)] {
            b.add_edge(NodeId::new(u), NodeId::new(v));
        }
        let g = b.build();
        let palette = Palette::even(2);
        let (colors, every_node) = ([0, 1, 2, 3, 0], [true; 5]);
        let coloring = Coloring::forced(&colors);
        let call = ColorBfsCall {
            palette,
            launch: Launch {
                activation: Some(1.0),
                tau: 1,
            },
            iteration: 1,
            phase: None,
            coloring: &coloring,
            h_mask: &every_node,
            x_mask: &every_node,
            seed: 3,
        };
        let mut costed = Executor::new(Backend::Sequential);
        assert!(!call.simulate(&mut costed, &g).rejected());
        let mut verdicts = VerdictSession::new(&g, palette.cycle_lengths(), &Budget::classical());
        assert_eq!(verdicts.on_cycle, [true, true, true, true, false]);
        assert!(verdicts.call_verdict(&g, &call).is_continue());
        // The pre-check drew the coins up to the last candidate, node 3,
        // and no further.
        assert_eq!(verdicts.coins, [true; 4]);
    }

    #[test]
    fn evaluators_launch_only_from_nodes_on_their_cycles() {
        // At k = 2, each evaluator's candidates lie on a C4, on a C5 or
        // on a cycle of length 3 or 4. Where there is none, every seed
        // is answered `false` without a coin drawn.
        use crate::{F2kDetector, LowProbDetector, OddCycleDetector, Params};
        use congest_quantum::MonteCarloAlgorithm;
        let low = LowProbDetector::new(Params::practical(2).with_repetitions(8));
        let odd = OddCycleDetector::new(2, 20);
        let f2k = F2kDetector::new(2).with_repetitions(12).randomized();
        let seq = &Budget::classical();
        let empty = |on_cycle: &[bool]| !on_cycle.contains(&true);
        for (label, g) in crate::test_corpus::corpus() {
            if !matches!(label.as_str(), "trees n=24" | "trees n=32" | "cycle n=24") {
                continue;
            }
            let mut low_mc = low.as_monte_carlo(&g, seq);
            let mut odd_mc = odd.as_monte_carlo(&g, seq);
            let mut f2k_mc = f2k.as_monte_carlo(&g, seq);
            assert!(empty(&low_mc.verdicts.on_cycle), "{label}");
            assert!(empty(&odd_mc.verdicts.on_cycle), "{label}");
            assert!(empty(&f2k_mc.verdicts.on_cycle), "{label}");
            for seed in 0..200 {
                assert!(!low_mc.rejects(seed), "Lemma 12 on {label}, seed {seed}");
                assert!(!odd_mc.rejects(seed), "odd on {label}, seed {seed}");
                assert!(!f2k_mc.rejects(seed), "F2k on {label}, seed {seed}");
            }
            assert!(low_mc.verdicts.coins.is_empty(), "{label}");
            assert!(odd_mc.verdicts.coins.is_empty(), "{label}");
            assert!(f2k_mc.verdicts.coins.is_empty(), "{label}");
        }
        // The corpus's tree + C4: only the planted nodes lie on a cycle
        // of length 3 or 4, but the planted edges also close a C5
        // through tree edges.
        let (g, planted) = generators::plant_cycle(&generators::random_tree(32, 5), 4, 5);
        let mut on_c4 = vec![false; g.node_count()];
        for v in planted.nodes() {
            on_c4[v.index()] = true;
        }
        assert_eq!(low.as_monte_carlo(&g, seq).verdicts.on_cycle, on_c4);
        assert_eq!(f2k.as_monte_carlo(&g, seq).verdicts.on_cycle, on_c4);
        assert!(!empty(&odd.as_monte_carlo(&g, seq).verdicts.on_cycle));
    }

    impl ColorBfs {
        /// The address of the neighbor table.
        fn table_addr(&self) -> usize {
            self.nbr.as_ptr() as usize
        }
    }

    #[test]
    fn a_second_call_keeps_every_neighbor_table() {
        let g = generators::erdos_renyi(300, 0.03, 8);
        let mut session = Executor::new(Backend::Sequential);
        let x_mask = vec![true; g.node_count()];
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut tables = Vec::new();
        for seed in 0..2 {
            let colors: Vec<u8> = g.nodes().map(|_| rng.gen_range(0..4)).collect();
            let coloring = Coloring::forced(&colors);
            let call = ColorBfsCall {
                palette: Palette::even(2),
                launch: Launch::new(4, false),
                iteration: 1,
                phase: None,
                coloring: &coloring,
                h_mask: &x_mask,
                x_mask: &x_mask,
                seed,
            };
            call.simulate(&mut session, &g);
            tables.push(
                session
                    .nodes()
                    .iter()
                    .map(ColorBfs::table_addr)
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(tables[0], tables[1]);
    }

    #[test]
    fn a_recycled_session_matches_fresh_sessions() {
        // The C4 0-1-2-3 colored 0, 1, 2, 3, with node 4 colored 0 on
        // node 1, which collects {0, 4}. Calls that reject (τ = 2),
        // overflow at node 1 (τ = 1), launch nothing, and reject again,
        // on one session and each on a fresh one.
        let mut b = congest_graph::GraphBuilder::new(5);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4)] {
            b.add_edge(NodeId::new(u), NodeId::new(v));
        }
        let g = b.build();
        let colors = [0, 1, 2, 3, 0];
        let run = |session: &mut Executor<ColorBfs>, tau: u64, active: bool| {
            let palette = Palette::even(2);
            let report = session
                .run(
                    &g,
                    7,
                    |v, _| {
                        ColorBfs::with_palette(palette, colors[v.index()], true, true, active, tau)
                    },
                    8,
                )
                .unwrap();
            let states: Vec<_> = session
                .nodes()
                .iter()
                .map(|p| (p.evidence(), p.overflowed, p.collected().to_vec()))
                .collect();
            (report, states)
        };
        let mut recycled = Executor::new(Backend::Sequential);
        for (tau, active, rejects, overflows) in [
            (2, true, true, false),
            (1, true, false, true),
            (2, false, false, false),
            (2, true, true, false),
        ] {
            let (report, states) = run(&mut recycled, tau, active);
            assert_eq!(report.rejected(), rejects, "τ = {tau}, active {active}");
            assert_eq!(states[1].1, overflows, "τ = {tau}, active {active}");
            let fresh = run(&mut Executor::new(Backend::Sequential), tau, active);
            assert_eq!((report, states), fresh, "τ = {tau}, active {active}");
        }
    }

    #[test]
    fn message_sizes() {
        assert_eq!(
            CbMsg::Hello {
                color: 3,
                in_h: true
            }
            .words(),
            1
        );
        assert_eq!(CbMsg::Ids(vec![1, 2, 3]).words(), 3);
        assert_eq!(CbMsg::Ids(vec![]).words(), 1);
    }

    #[test]
    #[should_panic(expected = "color out of range")]
    fn color_range_enforced() {
        ColorBfs::new(2, 4, true, true, true, 1);
    }
}
