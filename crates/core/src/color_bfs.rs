//! Procedure `color-BFS(k, H, c, X, τ)` (Algorithm 1, lines 14–29) and its
//! congestion-reduced variant `randomized-color-BFS` (Algorithm 2), as one
//! CONGEST node program.
//!
//! The two procedures differ only in their inputs: Algorithm 1 activates
//! every `x ∈ X` with `c(x) = 0` and uses the global threshold `τ`;
//! Algorithm 2 activates each such node with probability `1/τ` and uses
//! the constant threshold 4. The driver passes the activation flags and
//! the threshold; the forwarding logic is identical.

use congest_graph::NodeId;
use congest_sim::{Control, Ctx, Decision, MessageSize, Outbox, Program};

/// Messages of the color-BFS protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CbMsg {
    /// Round-0 exchange of the local color and `H`-membership
    /// (the receiver needs both to route identifiers by color within
    /// `H`). Two small fields — one `O(log n)`-bit word.
    Hello {
        /// The sender's color in `{0, …, 2k-1}`.
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
/// `H`; every other entry is the neighbor's color, which is below `2k`.
pub(crate) const NOT_IN_H: u8 = u8::MAX;

/// Evidence recorded by a rejecting node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RejectEvidence {
    /// The identifier of the origin `x ∈ X₀` whose id arrived along both
    /// well-colored branches.
    pub origin: u32,
}

/// The per-node state of `color-BFS(k, H, c, X, τ)`.
///
/// Construct one per vertex via [`ColorBfs::new`] and run with a
/// [`congest_sim::Executor`]; the driver in
/// [`crate::CycleDetector`] does exactly that for the three calls of
/// Algorithm 1.
#[derive(Debug, Clone)]
pub struct ColorBfs {
    k: usize,
    color: u8,
    in_h: bool,
    /// `x ∈ X` with `c(x) = 0` *and* activated (always true in
    /// Algorithm 1; probability `1/τ` in Algorithm 2).
    active_source: bool,
    tau: u64,
    /// Per neighbor (aligned with the sorted neighbor list): its color,
    /// or [`NOT_IN_H`] when it is outside `H`.
    nbr: Vec<u8>,
    /// The set `I_v` this node collected (kept for diagnostics).
    collected: Vec<u32>,
    /// Whether `|I_v| > τ` forced a discard (diagnostics for the
    /// congestion experiments).
    overflowed: bool,
    reject: Option<RejectEvidence>,
}

impl ColorBfs {
    /// Creates the program state for one vertex.
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
    /// Panics if `k < 2`, `color ≥ 2k`, or `color` is 255.
    pub fn new(k: usize, color: u8, in_h: bool, in_x: bool, active: bool, tau: u64) -> Self {
        assert!(k >= 2, "color-BFS requires k ≥ 2");
        assert!(
            (color as usize) < 2 * k && color != NOT_IN_H,
            "color out of range"
        );
        ColorBfs {
            k,
            color,
            in_h,
            active_source: in_x && in_h && color == 0 && active,
            tau,
            nbr: Vec::new(),
            collected: Vec::new(),
            overflowed: false,
            reject: None,
        }
    }

    /// The superstep at which this node processes/forwards identifiers.
    fn action_step(&self) -> usize {
        let c = self.color as usize;
        let k = self.k;
        match c {
            0 => 0,
            c if c <= k => c, // 1..k-1 forward; k checks at step k
            c => 2 * k - c,   // k+1..2k-1 forward at 2k-c
        }
    }

    /// The set `I_v` of distinct origin ids received from `senders`
    /// colored `expected`, restricted to `H`.
    fn collect_ids(&self, inbox: &[(NodeId, CbMsg)], ctx: &Ctx, expected: u8) -> Vec<u32> {
        let mut ids: Vec<u32> = Vec::new();
        for (from, msg) in inbox {
            if let CbMsg::Ids(payload) = msg {
                let pos = ctx
                    .neighbors
                    .binary_search(from)
                    .expect("sender must be a neighbor");
                if self.nbr[pos] == expected {
                    ids.extend_from_slice(payload);
                }
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Sends `ids` to every `H`-neighbor colored `next`.
    fn forward(&self, ctx: &Ctx, out: &mut Outbox<CbMsg>, ids: &[u32], next: u8) {
        if ids.is_empty() {
            return;
        }
        for (pos, &nbr) in ctx.neighbors.iter().enumerate() {
            if self.nbr[pos] == next {
                out.send(nbr, CbMsg::Ids(ids.to_vec()));
            }
        }
    }

    /// The rejection evidence, if this node rejected.
    pub fn evidence(&self) -> Option<RejectEvidence> {
        self.reject
    }

    /// Whether this node discarded its set because `|I_v| > τ`.
    pub fn overflowed(&self) -> bool {
        self.overflowed
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
        let k = self.k;
        if superstep == 0 {
            // Record the colors of the H-neighbors from the Hellos.
            self.nbr = vec![NOT_IN_H; ctx.neighbors.len()];
            for (from, msg) in inbox {
                if let CbMsg::Hello { color, in_h: true } = msg {
                    let pos = ctx
                        .neighbors
                        .binary_search(from)
                        .expect("sender must be a neighbor");
                    self.nbr[pos] = *color;
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
            return if self.action_step() == 0 {
                Control::Halt
            } else {
                Control::Continue
            };
        }

        let action = self.action_step();
        if superstep < action {
            return Control::Continue;
        }
        debug_assert_eq!(superstep, action, "nodes halt right after acting");

        let c = self.color as usize;
        if (1..k).contains(&c) {
            // Up-chain: collect from color c-1, forward to c+1
            // (Instructions 16–22).
            let ids = self.collect_ids(inbox, ctx, (c - 1) as u8);
            if ids.len() as u64 <= self.tau {
                self.forward(ctx, out, &ids, (c + 1) as u8);
            } else {
                self.overflowed = true;
            }
            self.collected = ids;
        } else if c > k {
            // Down-chain: color 2k-i collects from 2k-i+1 (mod 2k; the
            // predecessor of 2k-1 is color 0) and forwards to 2k-i-1.
            let prev = if c == 2 * k - 1 { 0 } else { (c + 1) as u8 };
            let ids = self.collect_ids(inbox, ctx, prev);
            if ids.len() as u64 <= self.tau {
                self.forward(ctx, out, &ids, (c - 1) as u8);
            } else {
                self.overflowed = true;
            }
            self.collected = ids;
        } else if c == k {
            // Instruction 24–28: same id from a (k-1)-colored and a
            // (k+1)-colored neighbor certifies a 2k-cycle.
            let low = self.collect_ids(inbox, ctx, (k - 1) as u8);
            let high = self.collect_ids(inbox, ctx, (k + 1) as u8);
            let common = low.iter().find(|x| high.binary_search(x).is_ok());
            if let Some(&origin) = common {
                self.reject = Some(RejectEvidence { origin });
            }
            self.collected = low;
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

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;
    use congest_sim::{Backend, Executor};

    /// Runs color-BFS on `g` with the given per-node colors, all nodes in
    /// H and X, all active, threshold `tau`.
    fn run_plain(
        g: &congest_graph::Graph,
        colors: &[u8],
        k: usize,
        tau: u64,
    ) -> (congest_sim::RunReport, Vec<ColorBfs>) {
        let mut exec = Executor::new(Backend::Sequential);
        let report = exec
            .run(
                g,
                7,
                |v, _| ColorBfs::new(k, colors[v.index()], true, true, true, tau),
                (k + 3) as u64,
            )
            .expect("simulation error");
        (report, exec.into_nodes())
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
        assert!(nodes[1].overflowed(), "I_{{v1}} = {{0}} exceeds τ = 0");
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
