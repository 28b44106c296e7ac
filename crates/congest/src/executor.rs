//! The simulation session: one reusable entry point for every run.

use congest_graph::{Graph, NodeId};

use crate::backend::Backend;
use crate::core::{Delivery, NodeState, RunClock};
use crate::cut::CutMeter;
use crate::error::SimError;
use crate::metrics::RunReport;
use crate::pool::run_pooled;
use crate::program::Program;

/// A reusable simulation session: executes a [`Program`] on every
/// vertex of a network in synchronous supersteps, charging CONGEST
/// rounds from per-edge word loads.
///
/// One superstep = one algorithm step at every live node. A superstep in
/// which the most loaded directed edge carries `w` words costs
/// `max(1, ⌈w/B⌉)` rounds, where `B` is the bandwidth
/// ([`Executor::set_bandwidth`], default 1 word = one `O(log n)`-bit
/// message per edge per round, the classical CONGEST budget).
///
/// * **Backend.** The session is built for a [`Backend`], which picks
///   how each run steps its nodes (on the calling thread, or across a
///   worker pool that lives for the run). Reports and node states are
///   byte-identical whatever the backend or thread count.
/// * **Per-run seed.** Every [`Executor::run`] names its graph and
///   seed; all node randomness of that run derives from the seed, so a
///   run's transcript depends on nothing an earlier run of the session
///   did.
/// * **Buffer lifetime.** The session keeps its node state (programs,
///   RNG stream slots, outboxes, one flat inbox, halt, "seeded" and
///   "sent" words) and its delivery buffers (edge counters, touched
///   list) from one run to the next and resets them in place, so a loop
///   that runs one program type many times allocates them once. Each
///   run's programs are recycled into the previous run's
///   ([`Program::recycle`]), and each node's stream is seeded on its
///   first draw ([`crate::NodeRng`]). They are freed when the
///   session is dropped: hold a session for as long as one loop needs
///   it, not longer.
///
/// See the crate-level docs for a complete example.
pub struct Executor<P: Program> {
    backend: Backend,
    bandwidth: u64,
    cut: Option<CutMeter>,
    state: NodeState<P>,
    delivery: Delivery,
}

impl<P: Program> std::fmt::Debug for Executor<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("backend", &self.backend)
            .field("bandwidth", &self.bandwidth)
            .field("cut", &self.cut)
            .finish_non_exhaustive()
    }
}

impl<P: Program> Executor<P> {
    /// Creates an empty session that runs on `backend`.
    pub fn new(backend: Backend) -> Self {
        Executor {
            backend,
            bandwidth: 1,
            cut: None,
            state: NodeState::new(),
            delivery: Delivery::new(),
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

    /// Installs a [`CutMeter`]; every later run report includes the
    /// words that crossed it. The meter must match the graph of each
    /// such run.
    pub fn set_cut(&mut self, cut: CutMeter) -> &mut Self {
        self.cut = Some(cut);
        self
    }

    /// The per-node program states after the last [`Executor::run`]
    /// (empty before the first; where a failed run stopped). Indexed by
    /// node id.
    pub fn nodes(&self) -> &[P] {
        &self.state.nodes
    }

    /// Consumes the session into the node states of its last run.
    pub fn into_nodes(self) -> Vec<P> {
        self.state.nodes
    }
}

impl<P> Executor<P>
where
    P: Program + Send,
    P::Msg: Send + Sync,
{
    /// Runs the program on `graph` to completion (all nodes halted),
    /// with all node randomness derived from `seed`.
    ///
    /// `factory(v, n)` builds the program instance for vertex `v`;
    /// capture per-node inputs (set memberships, colorings, …) in the
    /// closure. It is called once per node, in ascending node order, on
    /// the calling thread; the session then recycles each program into
    /// the one it holds from its last run ([`Program::recycle`]).
    ///
    /// # Errors
    ///
    /// [`SimError::NotANeighbor`] if a node sends to a non-neighbor;
    /// [`SimError::StepLimitExceeded`] if any node is still running after
    /// `max_supersteps`. The session stays usable after either.
    pub fn run<F>(
        &mut self,
        graph: &Graph,
        seed: u64,
        factory: F,
        max_supersteps: u64,
    ) -> Result<RunReport, SimError>
    where
        F: FnMut(NodeId, usize) -> P,
    {
        let threads = self.backend.effective_threads(graph.node_count());
        let clock = RunClock::start(graph.node_count());
        self.state.reset(graph, seed, factory);
        let table = self.state.chunks(threads);
        run_pooled(
            graph,
            self.bandwidth,
            self.cut.as_ref(),
            &table,
            &mut self.delivery,
            threads,
            clock,
            max_supersteps,
        )
    }
}

#[cfg(test)]
impl<P: Program> Executor<P> {
    /// The address of every buffer the session keeps between runs.
    fn buffer_addrs(&self) -> Vec<usize> {
        let mut addrs = self.state.buffer_addrs();
        addrs.extend(self.delivery.buffer_addrs());
        addrs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Control, Ctx, Decision, Outbox};
    use crate::strict::StrictExecutor;
    use congest_graph::generators;
    use rand::{Rng, RngCore};

    /// Every node broadcasts its id once, then halts after hearing all
    /// neighbors.
    struct HelloOnce {
        heard: Vec<NodeId>,
    }

    impl Program for HelloOnce {
        type Msg = u32;
        fn init(&mut self, ctx: &mut Ctx, out: &mut Outbox<u32>) {
            out.broadcast(ctx.node.raw());
        }
        fn step(
            &mut self,
            _ctx: &mut Ctx,
            _s: usize,
            inbox: &[(NodeId, u32)],
            _out: &mut Outbox<u32>,
        ) -> Control {
            self.heard.extend(inbox.iter().map(|&(f, _)| f));
            Control::Halt
        }
    }

    #[test]
    fn hello_exchanges_with_all_neighbors() {
        let g = generators::cycle(5);
        let mut exec = Executor::new(Backend::Sequential);
        let report = exec
            .run(&g, 1, |_, _| HelloOnce { heard: vec![] }, 10)
            .unwrap();
        assert_eq!(report.supersteps, 1);
        assert_eq!(report.rounds, 2, "init round + one silent step round");
        assert_eq!(report.congestion.max_words_per_edge_step, 1);
        assert_eq!(report.congestion.total_messages, 10); // 5 nodes × 2 nbrs
        for (v, p) in exec.nodes().iter().enumerate() {
            let mut heard: Vec<u32> = p.heard.iter().map(|x| x.raw()).collect();
            heard.sort_unstable();
            let mut expected: Vec<u32> = g
                .neighbors(NodeId::new(v as u32))
                .iter()
                .map(|x| x.raw())
                .collect();
            expected.sort_unstable();
            assert_eq!(heard, expected);
        }
    }

    /// Sends a `size`-word message to the first neighbor, once.
    struct BigSend {
        size: usize,
    }

    impl Program for BigSend {
        type Msg = Vec<u32>;
        fn init(&mut self, ctx: &mut Ctx, out: &mut Outbox<Vec<u32>>) {
            if ctx.node.raw() == 0 {
                out.send(ctx.neighbors[0], vec![7; self.size]);
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

    #[test]
    fn round_cost_scales_with_message_size() {
        let g = generators::path(3);
        let mut exec = Executor::new(Backend::Sequential);
        let report = exec.run(&g, 0, |_, _| BigSend { size: 10 }, 10).unwrap();
        // init superstep costs ceil(10/1) = 10 rounds, final silent step 1.
        assert_eq!(report.rounds, 11);
        assert_eq!(report.congestion.max_words_per_edge_step, 10);

        let mut exec = Executor::new(Backend::Sequential);
        exec.set_bandwidth(4);
        let report = exec.run(&g, 0, |_, _| BigSend { size: 10 }, 10).unwrap();
        assert_eq!(report.rounds, 3 + 1, "ceil(10/4) + silent step");
    }

    /// Illegally sends to a fixed non-neighbor.
    struct BadSender;

    impl Program for BadSender {
        type Msg = u32;
        fn init(&mut self, ctx: &mut Ctx, out: &mut Outbox<u32>) {
            if ctx.node.raw() == 0 {
                out.send(NodeId::new(2), 1); // 0-2 is not an edge of P3
            }
        }
        fn step(
            &mut self,
            _ctx: &mut Ctx,
            _s: usize,
            _inbox: &[(NodeId, u32)],
            _out: &mut Outbox<u32>,
        ) -> Control {
            Control::Halt
        }
    }

    #[test]
    fn sending_to_non_neighbor_errors() {
        let g = generators::path(3); // edges 0-1, 1-2
        let mut exec = Executor::new(Backend::Sequential);
        let err = exec.run(&g, 0, |_, _| BadSender, 10).unwrap_err();
        assert_eq!(
            err,
            SimError::NotANeighbor {
                from: NodeId::new(0),
                to: NodeId::new(2)
            }
        );
    }

    /// Never halts.
    struct Forever;

    impl Program for Forever {
        type Msg = u32;
        fn init(&mut self, _ctx: &mut Ctx, _out: &mut Outbox<u32>) {}
        fn step(
            &mut self,
            _ctx: &mut Ctx,
            _s: usize,
            _inbox: &[(NodeId, u32)],
            _out: &mut Outbox<u32>,
        ) -> Control {
            Control::Continue
        }
    }

    #[test]
    fn step_limit_trips() {
        let g = generators::path(2);
        let mut exec = Executor::new(Backend::Sequential);
        let err = exec.run(&g, 0, |_, _| Forever, 5).unwrap_err();
        assert_eq!(err, SimError::StepLimitExceeded { limit: 5 });
    }

    /// Rejects iff the node id is odd.
    struct OddRejects {
        me: u32,
    }

    impl Program for OddRejects {
        type Msg = u32;
        fn init(&mut self, _ctx: &mut Ctx, _out: &mut Outbox<u32>) {}
        fn step(
            &mut self,
            _ctx: &mut Ctx,
            _s: usize,
            _inbox: &[(NodeId, u32)],
            _out: &mut Outbox<u32>,
        ) -> Control {
            Control::Halt
        }
        fn decision(&self) -> Decision {
            if self.me % 2 == 1 {
                Decision::Reject
            } else {
                Decision::Accept
            }
        }
    }

    #[test]
    fn decisions_aggregate() {
        let g = generators::path(4);
        let mut exec = Executor::new(Backend::Sequential);
        let report = exec
            .run(&g, 0, |v, _| OddRejects { me: v.raw() }, 10)
            .unwrap();
        assert!(report.rejected());
        assert_eq!(report.rejecting_nodes, vec![1, 3]);
    }

    #[test]
    fn determinism_across_runs() {
        /// Broadcasts a random coin for three steps.
        struct Coins {
            log: Vec<u32>,
        }
        impl Program for Coins {
            type Msg = u32;
            fn init(&mut self, ctx: &mut Ctx, out: &mut Outbox<u32>) {
                out.broadcast(ctx.rng.gen_range(0..1000));
            }
            fn step(
                &mut self,
                ctx: &mut Ctx,
                s: usize,
                inbox: &[(NodeId, u32)],
                out: &mut Outbox<u32>,
            ) -> Control {
                self.log.extend(inbox.iter().map(|&(_, m)| m));
                if s < 2 {
                    out.broadcast(ctx.rng.gen_range(0..1000));
                    Control::Continue
                } else {
                    Control::Halt
                }
            }
        }

        let g = generators::erdos_renyi(20, 0.2, 3);
        let run = |seed: u64| {
            let mut exec = Executor::new(Backend::Sequential);
            exec.run(&g, seed, |_, _| Coins { log: vec![] }, 20)
                .unwrap();
            exec.nodes()
                .iter()
                .map(|p| p.log.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5), "same seed, same transcript");
        assert_ne!(run(5), run(6), "different seed, different transcript");
    }

    #[test]
    fn cut_meter_counts() {
        let g = generators::path(4); // 0-1-2-3, cut between 1 and 2
        let mut exec = Executor::new(Backend::Sequential);
        exec.set_cut(CutMeter::new(&g, vec![false, false, true, true]));
        let report = exec
            .run(&g, 0, |_, _| HelloOnce { heard: vec![] }, 10)
            .unwrap();
        // Each endpoint of edge 1-2 broadcast 1 word across the cut.
        assert_eq!(report.cut_words, Some(2));
        assert_eq!(report.cut_bits(2), Some(4));
    }

    /// Gossips random tokens for `steps` supersteps, by broadcast and
    /// by point-to-point sends, and logs what it hears; at superstep
    /// `fail_at`, node 0 also sends to a non-neighbor.
    #[derive(Debug)]
    struct Mixed {
        steps: usize,
        fail_at: Option<usize>,
        log: Vec<(u32, u32)>,
    }

    fn mixed(steps: usize) -> impl Fn(NodeId, usize) -> Mixed + Copy {
        move |_, _| Mixed {
            steps,
            fail_at: None,
            log: Vec::new(),
        }
    }

    impl Program for Mixed {
        type Msg = u32;
        fn init(&mut self, ctx: &mut Ctx, out: &mut Outbox<u32>) {
            out.broadcast(ctx.rng.gen_range(0..1_000_000));
        }
        fn step(
            &mut self,
            ctx: &mut Ctx,
            s: usize,
            inbox: &[(NodeId, u32)],
            out: &mut Outbox<u32>,
        ) -> Control {
            self.log
                .extend(inbox.iter().map(|&(from, m)| (from.raw(), m)));
            if s + 1 >= self.steps {
                return Control::Halt;
            }
            if let Some(&to) = ctx.neighbors.get(s % ctx.degree().max(1)) {
                out.send(to, ctx.rng.gen_range(0..1_000_000));
            }
            if s % 2 == 1 {
                out.broadcast(ctx.rng.gen_range(0..1_000_000));
            }
            if self.fail_at == Some(s) && ctx.node.index() == 0 {
                let stranger = (1..ctx.n as u32)
                    .map(NodeId::new)
                    .find(|u| !ctx.neighbors.contains(u));
                out.send(stranger.expect("node 0 has a non-neighbor"), 0);
            }
            Control::Continue
        }
    }

    fn logs(exec: &Executor<Mixed>) -> Vec<Vec<(u32, u32)>> {
        exec.nodes().iter().map(|p| p.log.clone()).collect()
    }

    /// One `Mixed` run in a fresh session: what a reused session must
    /// reproduce exactly.
    fn fresh(backend: Backend, g: &Graph, seed: u64) -> (RunReport, Vec<Vec<(u32, u32)>>) {
        let mut exec = Executor::new(backend);
        let report = exec.run(g, seed, mixed(5), 16).unwrap();
        (report, logs(&exec))
    }

    const SESSIONS: [Backend; 2] = [Backend::Sequential, Backend::Parallel { threads: 2 }];

    #[test]
    fn a_good_run_after_a_failed_one_matches_a_fresh_session() {
        // Each failure strikes after some edges were charged; the next
        // runs, on a smaller graph and on the same one, see none of it.
        let g = generators::erdos_renyi(60, 0.1, 4);
        let small = generators::cycle(12);
        let faulty = |_: NodeId, _: usize| Mixed {
            steps: 5,
            fail_at: Some(2),
            log: Vec::new(),
        };
        for backend in SESSIONS {
            let want_small = fresh(backend, &small, 9);
            let want = fresh(backend, &g, 9);
            let recovers = |exec: &mut Executor<Mixed>, failure: &str| {
                let report = exec.run(&small, 9, mixed(5), 16).unwrap();
                assert_eq!(
                    (report, logs(exec)),
                    want_small,
                    "{backend}: after {failure}"
                );
                let report = exec.run(&g, 9, mixed(5), 16).unwrap();
                assert_eq!((report, logs(exec)), want, "{backend}: after {failure}");
            };
            let mut exec = Executor::new(backend);
            let err = exec.run(&g, 3, faulty, 16).unwrap_err();
            assert!(
                matches!(err, SimError::NotANeighbor { from, .. } if from.index() == 0),
                "{backend}: {err:?}"
            );
            recovers(&mut exec, "NotANeighbor");
            let err = exec.run(&g, 3, mixed(50), 3).unwrap_err();
            assert_eq!(err, SimError::StepLimitExceeded { limit: 3 });
            recovers(&mut exec, "the step limit");
        }
    }

    #[test]
    fn runs_alternating_graph_size_and_seed_match_fresh_sessions() {
        let big = generators::erdos_renyi(1_000, 0.005, 1);
        let small = generators::erdos_renyi(32, 0.15, 2);
        for backend in SESSIONS {
            let mut exec = Executor::new(backend);
            for (g, seed) in [(&big, 1u64), (&small, 2), (&big, 3), (&small, 2)] {
                let report = exec.run(g, seed, mixed(5), 16).unwrap();
                assert_eq!(
                    (report, logs(&exec)),
                    fresh(backend, g, seed),
                    "{backend}, n = {}, seed {seed}",
                    g.node_count()
                );
            }
        }
    }

    #[test]
    fn a_second_run_allocates_no_new_buffer() {
        // Mixed routes by graph and superstep only, so the second run
        // needs exactly the capacities the first one left behind.
        let g = generators::erdos_renyi(300, 0.02, 5);
        for backend in SESSIONS {
            let mut exec = Executor::new(backend);
            exec.run(&g, 1, mixed(5), 16).unwrap();
            let first = exec.buffer_addrs();
            exec.run(&g, 2, mixed(5), 16).unwrap();
            assert_eq!(exec.buffer_addrs(), first, "{backend}");
        }
    }

    /// Draws three words from its stream in `init` and one more in its
    /// first step if `draws`, logging them, then halts.
    struct Draws {
        draws: bool,
        log: Vec<u64>,
    }

    impl Program for Draws {
        type Msg = u32;
        fn init(&mut self, ctx: &mut Ctx, _out: &mut Outbox<u32>) {
            if self.draws {
                self.log.extend((0..3).map(|_| ctx.rng.next_u64()));
            }
        }
        fn step(
            &mut self,
            ctx: &mut Ctx,
            _s: usize,
            _inbox: &[(NodeId, u32)],
            _out: &mut Outbox<u32>,
        ) -> Control {
            if self.draws {
                self.log.push(ctx.rng.gen_range(0..u64::MAX));
            }
            Control::Halt
        }
    }

    fn draws_at(pick: fn(NodeId) -> bool) -> impl Fn(NodeId, usize) -> Draws + Copy {
        move |v, _| Draws {
            draws: pick(v),
            log: Vec::new(),
        }
    }

    fn drawn(nodes: &[Draws]) -> Vec<Vec<u64>> {
        nodes.iter().map(|p| p.log.clone()).collect()
    }

    /// What `Draws` logs at the nodes `pick` selects in a run with
    /// seed `seed`: the first draws of a freshly seeded node stream.
    fn fresh_draws(g: &Graph, seed: u64, pick: fn(NodeId) -> bool) -> Vec<Vec<u64>> {
        let fresh = |v| {
            let mut rng = crate::node_rng(seed, v);
            let mut log: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
            log.push(rng.gen_range(0..u64::MAX));
            log
        };
        g.nodes()
            .map(|v| if pick(v) { fresh(v) } else { Vec::new() })
            .collect()
    }

    #[test]
    fn every_run_of_a_session_draws_from_fresh_node_streams() {
        let g = generators::erdos_renyi(300, 0.02, 6);
        let odd: fn(NodeId) -> bool = |v| v.index() % 2 == 1;
        let every: fn(NodeId) -> bool = |_| true;
        let none: fn(NodeId) -> bool = |_| false;
        for backend in SESSIONS {
            // Only odd nodes draw; a seed that comes back draws its
            // streams from the start again.
            let mut exec = Executor::new(backend);
            for seed in [1, 2, 1] {
                exec.run(&g, seed, draws_at(odd), 4).unwrap();
                let want = fresh_draws(&g, seed, odd);
                assert_eq!(drawn(exec.nodes()), want, "{backend}, seed {seed}");
                let mut strict = StrictExecutor::new(&g, seed);
                strict.run(draws_at(odd), 4).unwrap();
                assert_eq!(drawn(strict.nodes()), want, "strict, seed {seed}");
            }
            // Every node draws, then none, then every node again with
            // the first run's seed: the streams the second run never
            // touched start over too.
            let mut exec = Executor::new(backend);
            exec.run(&g, 1, draws_at(every), 4).unwrap();
            let first = drawn(exec.nodes());
            assert_eq!(first, fresh_draws(&g, 1, every), "{backend}");
            exec.run(&g, 2, draws_at(none), 4).unwrap();
            exec.run(&g, 1, draws_at(every), 4).unwrap();
            assert_eq!(drawn(exec.nodes()), first, "{backend}");
        }
    }

    #[test]
    fn every_backend_matches_the_sequential_transcript() {
        for seed in 0..4u64 {
            let g = generators::erdos_renyi(60, 0.1, seed);
            let want = fresh(Backend::Sequential, &g, seed);
            for backend in [
                Backend::Parallel { threads: 1 },
                Backend::Parallel { threads: 4 },
                Backend::Auto {
                    node_threshold: 1,
                    threads: 2,
                },
                Backend::Auto {
                    node_threshold: usize::MAX,
                    threads: 2,
                },
            ] {
                assert_eq!(fresh(backend, &g, seed), want, "seed {seed}, {backend}");
                let (report, nodes) =
                    crate::run_with_backend(&g, seed, backend, 1, None, mixed(5), 16).unwrap();
                let transcript = nodes.iter().map(|p| p.log.clone()).collect();
                assert_eq!(
                    (report, transcript),
                    want,
                    "one-shot, seed {seed}, {backend}"
                );
            }
        }
    }

    /// Logs every `(sender, payload)` it hears. Node `v` halts at
    /// superstep `v % 4`. Until then, each step it broadcasts, sends to
    /// every neighbor in reverse neighbor order, and sends twice more to
    /// its first neighbor, so one edge carries a broadcast and three
    /// sends, and neighbors that have already halted are still messaged.
    #[derive(Debug)]
    struct Contract {
        log: Vec<(u32, u32)>,
    }

    fn contract(_: NodeId, _: usize) -> Contract {
        Contract { log: Vec::new() }
    }

    /// Queues one step's messages, each payload naming its sender, the
    /// step and its place in the queue.
    fn queue_contract(ctx: &Ctx, step: usize, out: &mut Outbox<u32>) {
        let tag = |i: usize| ctx.node.raw() * 100_000 + step as u32 * 1_000 + i as u32;
        out.broadcast(tag(0));
        for (i, &to) in ctx.neighbors.iter().rev().enumerate() {
            out.send(to, tag(1 + i));
        }
        if let Some(&first) = ctx.neighbors.first() {
            out.send(first, tag(998));
            out.send(first, tag(999));
        }
    }

    impl Program for Contract {
        type Msg = u32;
        fn init(&mut self, ctx: &mut Ctx, out: &mut Outbox<u32>) {
            queue_contract(ctx, 0, out);
        }
        fn step(
            &mut self,
            ctx: &mut Ctx,
            s: usize,
            inbox: &[(NodeId, u32)],
            out: &mut Outbox<u32>,
        ) -> Control {
            self.log
                .extend(inbox.iter().map(|&(from, m)| (from.raw(), m)));
            if s >= ctx.node.index() % 4 {
                return Control::Halt;
            }
            queue_contract(ctx, s + 1, out);
            Control::Continue
        }
    }

    fn contract_logs(nodes: &[Contract]) -> Vec<Vec<(u32, u32)>> {
        nodes.iter().map(|p| p.log.clone()).collect()
    }

    #[test]
    fn inboxes_and_reports_match_the_strict_executor() {
        // The strict executor keeps one inbox per node and fills it in
        // sender order, so it is an independent reference for the inbox
        // order `Program::step` promises and for the charged rounds.
        let graphs = [
            generators::erdos_renyi(300, 0.02, 7),
            generators::erdos_renyi(40, 0.15, 8),
        ];
        let mut reused = Executor::new(Backend::Parallel { threads: 2 });
        reused.run(&generators::cycle(70), 1, contract, 8).unwrap();
        for (g, seed) in graphs.iter().zip([3u64, 4]) {
            for bandwidth in [1u64, 3] {
                let mut strict = StrictExecutor::new(g, seed);
                strict.set_bandwidth(bandwidth);
                let report = strict.run(contract, 8).unwrap();
                let want = (report, contract_logs(strict.nodes()));
                assert!(want.1.iter().any(|log| !log.is_empty()));
                for backend in [
                    Backend::Sequential,
                    Backend::Parallel { threads: 2 },
                    Backend::Parallel { threads: 4 },
                ] {
                    let mut exec = Executor::new(backend);
                    exec.set_bandwidth(bandwidth);
                    let report = exec.run(g, seed, contract, 8).unwrap();
                    let got = (report, contract_logs(exec.nodes()));
                    assert_eq!(
                        got,
                        want,
                        "{backend}, n = {}, B = {bandwidth}",
                        g.node_count()
                    );
                }
                reused.set_bandwidth(bandwidth);
                let report = reused.run(g, seed, contract, 8).unwrap();
                let got = (report, contract_logs(reused.nodes()));
                assert_eq!(got, want, "reused, n = {}, B = {bandwidth}", g.node_count());
            }
        }
    }

    #[test]
    fn cut_meter_matches_across_backends() {
        // Delivery is sequential on every backend, so the words that
        // cross the cut agree at every thread count.
        for seed in 0..3u64 {
            let g = generators::erdos_renyi(40, 0.15, seed);
            let side: Vec<bool> = (0..g.node_count()).map(|v| v >= 20).collect();
            let mut seq = Executor::new(Backend::Sequential);
            seq.set_cut(CutMeter::new(&g, side.clone()));
            let sr = seq.run(&g, seed, mixed(4), 16).unwrap();
            assert!(sr.cut_words.is_some_and(|w| w > 0), "cut must be crossed");
            for threads in [1usize, 2, 4] {
                let mut par = Executor::new(Backend::Parallel { threads });
                par.set_cut(CutMeter::new(&g, side.clone()));
                let pr = par.run(&g, seed, mixed(4), 16).unwrap();
                assert_eq!(sr, pr, "seed {seed}, {threads} threads");
            }
        }
    }

    #[test]
    fn parallel_step_limit() {
        let g = generators::path(4);
        let mut exec = Executor::new(Backend::parallel());
        let err = exec.run(&g, 0, |_, _| Forever, 3).unwrap_err();
        assert_eq!(err, SimError::StepLimitExceeded { limit: 3 });
    }
}
