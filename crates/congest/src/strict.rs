//! The strict, round-by-round executor.
//!
//! [`StrictExecutor`] runs the same [`Program`]s as [`crate::Executor`]
//! but *iterates* bandwidth-limited rounds instead of charging them: each
//! superstep's per-edge traffic is chopped into `B`-word chunks and
//! transmitted one round at a time, with all nodes stalled until the most
//! loaded edge drains (the synchronous barrier the paper's phase-based
//! algorithms implicitly use — e.g., each `color-BFS` step forwards a set
//! `I_v` of at most `τ` identifiers and therefore occupies its edges for
//! up to `τ` rounds).
//!
//! Decisions and round totals are identical to the logical executor by
//! construction; integration tests assert this on every algorithm, which
//! pins down the meaning of the logical executor's cheaper accounting.

use congest_graph::{Graph, NodeId};
use rand_chacha::ChaCha8Rng;

use crate::error::SimError;
use crate::message::MessageSize;
use crate::metrics::{CongestionStats, RunReport};
use crate::program::{Control, Ctx, Decision, NodeRng, Outbox, Program};

/// A CONGEST executor that literally iterates bandwidth-limited rounds.
///
/// Use [`crate::Executor`] for experiments (same totals, much faster);
/// use this to validate the accounting.
#[derive(Debug)]
pub struct StrictExecutor<'g, P: Program> {
    graph: &'g Graph,
    seed: u64,
    bandwidth: u64,
    nodes: Vec<P>,
}

impl<'g, P: Program> StrictExecutor<'g, P> {
    /// Creates a strict executor on `graph` with randomness from `seed`.
    pub fn new(graph: &'g Graph, seed: u64) -> Self {
        StrictExecutor {
            graph,
            seed,
            bandwidth: 1,
            nodes: Vec::new(),
        }
    }

    /// Sets the per-edge bandwidth in words per round (default 1).
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth == 0`.
    pub fn set_bandwidth(&mut self, bandwidth: u64) -> &mut Self {
        assert!(bandwidth > 0, "bandwidth must be positive");
        self.bandwidth = bandwidth;
        self
    }

    /// The per-node program states after the last run.
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Runs the program to completion; see [`crate::Executor::run`].
    ///
    /// # Errors
    ///
    /// Same as [`crate::Executor::run`].
    pub fn run<F>(&mut self, mut factory: F, max_supersteps: u64) -> Result<RunReport, SimError>
    where
        F: FnMut(NodeId, usize) -> P,
    {
        let n = self.graph.node_count();
        self.nodes = (0..n as u32).map(|v| factory(NodeId::new(v), n)).collect();
        // Node streams seeded on first draw, as in `Executor`.
        let mut rngs: Vec<ChaCha8Rng> = vec![NodeRng::empty_slot(); n];
        let mut seeded = vec![0u64; n.div_ceil(64)];

        let mut halted = vec![false; n];
        let mut inboxes: Vec<Vec<(NodeId, P::Msg)>> = (0..n).map(|_| Vec::new()).collect();
        let mut stats = CongestionStats::default();
        let mut rounds: u64 = 0;
        let mut supersteps: u64 = 0;

        let mut pending: Vec<Outbox<P::Msg>> = Vec::with_capacity(n);
        for (v, slot) in rngs.iter_mut().enumerate() {
            let mut out = Outbox::new();
            let id = NodeId::new(v as u32);
            let mut ctx = Ctx {
                node: id,
                n,
                neighbors: self.graph.neighbors(id),
                rng: NodeRng::new(slot, &mut seeded[v / 64], v % 64, self.seed, id),
            };
            self.nodes[v].init(&mut ctx, &mut out);
            pending.push(out);
        }
        if pending.iter().any(|o| !o.is_empty()) {
            rounds += self.transmit(&mut pending, &mut inboxes, &mut stats)?;
        }

        loop {
            let all_halted = halted.iter().all(|&h| h);
            let inbox_empty = inboxes.iter().all(Vec::is_empty);
            if all_halted && inbox_empty {
                break;
            }
            if supersteps >= max_supersteps {
                return Err(SimError::StepLimitExceeded {
                    limit: max_supersteps,
                });
            }
            pending.clear();
            for v in 0..n {
                let mut out = Outbox::new();
                if !halted[v] {
                    let inbox = std::mem::take(&mut inboxes[v]);
                    let id = NodeId::new(v as u32);
                    let rng =
                        NodeRng::new(&mut rngs[v], &mut seeded[v / 64], v % 64, self.seed, id);
                    let mut ctx = Ctx {
                        node: id,
                        n,
                        neighbors: self.graph.neighbors(id),
                        rng,
                    };
                    let control =
                        self.nodes[v].step(&mut ctx, supersteps as usize, &inbox, &mut out);
                    if control == Control::Halt {
                        halted[v] = true;
                    }
                } else {
                    inboxes[v].clear();
                }
                pending.push(out);
            }
            supersteps += 1;
            rounds += self.transmit(&mut pending, &mut inboxes, &mut stats)?;
        }

        let rejecting_nodes: Vec<u32> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, p)| p.decision() == Decision::Reject)
            .map(|(v, _)| v as u32)
            .collect();
        let decision = if rejecting_nodes.is_empty() {
            Decision::Accept
        } else {
            Decision::Reject
        };
        Ok(RunReport {
            rounds,
            supersteps,
            congestion: stats,
            decision,
            rejecting_nodes,
            cut_words: None,
        })
    }

    /// Transmits one superstep's traffic round by round: every directed
    /// edge moves up to `B` words per round until all queues drain; the
    /// barrier releases (messages become visible) only then. Returns the
    /// number of rounds consumed (at least 1).
    fn transmit(
        &self,
        pending: &mut [Outbox<P::Msg>],
        inboxes: &mut [Vec<(NodeId, P::Msg)>],
        stats: &mut CongestionStats,
    ) -> Result<u64, SimError> {
        let mut edge_remaining: Vec<u64> = vec![0; self.graph.directed_edge_count()];
        let mut max_load: u64 = 0;

        for (v, out) in pending.iter().enumerate() {
            let from = NodeId::new(v as u32);
            if let Some(msg) = &out.broadcast {
                let words = msg.words() as u64;
                for &to in self.graph.neighbors(from) {
                    let idx = self
                        .graph
                        .directed_edge_index(from, to)
                        .ok_or(SimError::NotANeighbor { from, to })?;
                    edge_remaining[idx] += words;
                    stats.total_words += words;
                    stats.total_messages += 1;
                }
            }
            for (to, msg) in &out.messages {
                let idx = self
                    .graph
                    .directed_edge_index(from, *to)
                    .ok_or(SimError::NotANeighbor { from, to: *to })?;
                edge_remaining[idx] += msg.words() as u64;
                stats.total_words += msg.words() as u64;
                stats.total_messages += 1;
            }
        }
        for &w in &edge_remaining {
            max_load = max_load.max(w);
        }
        stats.max_words_per_edge_step = stats.max_words_per_edge_step.max(max_load);

        // Iterate rounds: each round every loaded edge ships up to B words.
        let mut consumed_rounds: u64 = 0;
        let mut remaining_edges: Vec<usize> = edge_remaining
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w > 0)
            .map(|(i, _)| i)
            .collect();
        while !remaining_edges.is_empty() {
            consumed_rounds += 1;
            remaining_edges.retain(|&e| {
                let shipped = self.bandwidth.min(edge_remaining[e]);
                edge_remaining[e] -= shipped;
                edge_remaining[e] > 0
            });
        }

        // Barrier release: deliver everything (sender order).
        for (v, out) in pending.iter_mut().enumerate() {
            let from = NodeId::new(v as u32);
            if let Some(msg) = out.broadcast.take() {
                for &to in self.graph.neighbors(from) {
                    inboxes[to.index()].push((from, msg.clone()));
                }
            }
            for (to, msg) in out.messages.drain(..) {
                inboxes[to.index()].push((from, msg));
            }
        }
        Ok(consumed_rounds.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, Executor};
    use congest_graph::generators;
    use rand::Rng;

    /// Broadcasts a random-length vector each step for `steps` steps.
    struct RandomTraffic {
        steps: usize,
        received_words: u64,
    }

    impl Program for RandomTraffic {
        type Msg = Vec<u32>;
        fn init(&mut self, ctx: &mut Ctx, out: &mut Outbox<Vec<u32>>) {
            let len = ctx.rng.gen_range(1..8);
            out.broadcast(vec![ctx.node.raw(); len]);
        }
        fn step(
            &mut self,
            ctx: &mut Ctx,
            s: usize,
            inbox: &[(NodeId, Vec<u32>)],
            out: &mut Outbox<Vec<u32>>,
        ) -> Control {
            self.received_words += inbox.iter().map(|(_, m)| m.len() as u64).sum::<u64>();
            if s + 1 < self.steps {
                let len = ctx.rng.gen_range(1..8);
                out.broadcast(vec![ctx.node.raw(); len]);
                Control::Continue
            } else {
                Control::Halt
            }
        }
    }

    #[test]
    fn strict_matches_logical_executor() {
        for seed in 0..5u64 {
            let g = generators::erdos_renyi(24, 0.15, seed);
            for bandwidth in [1u64, 3] {
                let mut logical = Executor::new(Backend::Sequential);
                logical.set_bandwidth(bandwidth);
                let lr = logical
                    .run(
                        &g,
                        seed,
                        |_, _| RandomTraffic {
                            steps: 4,
                            received_words: 0,
                        },
                        64,
                    )
                    .unwrap();
                let mut strict = StrictExecutor::new(&g, seed);
                strict.set_bandwidth(bandwidth);
                let sr = strict
                    .run(
                        |_, _| RandomTraffic {
                            steps: 4,
                            received_words: 0,
                        },
                        64,
                    )
                    .unwrap();
                assert_eq!(lr.rounds, sr.rounds, "seed {seed} B {bandwidth}");
                assert_eq!(lr.supersteps, sr.supersteps);
                assert_eq!(lr.congestion, sr.congestion);
                assert_eq!(lr.decision, sr.decision);
                let lw: Vec<u64> = logical.nodes().iter().map(|p| p.received_words).collect();
                let sw: Vec<u64> = strict.nodes().iter().map(|p| p.received_words).collect();
                assert_eq!(lw, sw, "identical transcripts");
            }
        }
    }

    #[test]
    fn strict_round_iteration_counts() {
        /// Node 0 sends 7 words to its single neighbor.
        struct SevenWords;
        impl Program for SevenWords {
            type Msg = Vec<u32>;
            fn init(&mut self, ctx: &mut Ctx, out: &mut Outbox<Vec<u32>>) {
                if ctx.node.raw() == 0 {
                    out.send(ctx.neighbors[0], vec![9; 7]);
                }
            }
            fn step(
                &mut self,
                _ctx: &mut Ctx,
                _s: usize,
                _inbox: &[(NodeId, Vec<u32>)],
                _out: &mut Outbox<Vec<u32>>,
            ) -> Control {
                Control::Halt
            }
        }
        let g = generators::path(2);
        let mut strict = StrictExecutor::new(&g, 0);
        strict.set_bandwidth(2);
        let r = strict.run(|_, _| SevenWords, 8).unwrap();
        // ceil(7/2) = 4 rounds of transmission + 1 silent final step.
        assert_eq!(r.rounds, 5);
    }
}
