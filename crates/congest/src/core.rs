//! The shared superstep core behind every backend.
//!
//! [`crate::Executor`] is the one simulation session, and this module
//! is the loop it drives. The only pluggable piece is the
//! [`PhaseDriver`] deciding how the node-step phase runs (on the
//! calling thread, or claimed chunk-by-chunk by the persistent worker
//! pool in [`crate::pool`]).
//!
//! Determinism invariant: message *delivery* is always sequential in
//! sender order, and each node's randomness is its own seeded stream,
//! so transcripts are byte-identical whatever the driver or thread
//! count (asserted by the conformance suites). Chunk boundaries, claim
//! order, and the halted-word skip below are all invisible to
//! transcripts: per-node effects within a phase are independent by
//! definition of the synchronous model, and a skipped chunk is one
//! with no live node to step.
//!
//! Hot-path choices:
//!
//! * **Chunked struct-of-arrays node state** — per-node state lives in
//!   parallel flat arrays ([`NodeState`]: programs, RNG stream slots,
//!   outboxes, and the halt flags, the streams' "seeded" bits and the
//!   "sent" bits packed into `u64` bitset words), which each run splits
//!   into [`NodeChunk`] windows of a fixed power-of-two span. A phase
//!   sweep walks contiguous memory, a fully-halted 64-node word is
//!   skipped in one compare, and a chunk whose nodes are all halted is
//!   skipped outright (its `live` counter): messages sent to halted
//!   nodes are never read, and the next delivery drops them with the
//!   rest of the superstep's messages.
//! * **One flat inbox** — a superstep's messages sit in one array in
//!   recipient order, with `n + 1` offsets ([`Inbox`]), and each node
//!   steps on its own slice of it. Delivery visits only the senders
//!   whose "sent" bit the node phase set, in ascending order: it
//!   validates each recipient, charges the edge and stages the message.
//!   A stable counting sort by recipient then puts every message in
//!   place, so each inbox holds the order [`Program::step`] promises.
//!   The pool's workers read the inbox shared during the node phase.
//! * **Touched-edge accounting** — only the `edge_words` entries
//!   actually written in a superstep are reset, so a quiet superstep
//!   costs `O(touched)`, not `O(m)`.
//! * **Buffer reuse** — a session owns its [`NodeState`] and
//!   [`Delivery`] buffers and resets them in place at the start of
//!   every run: programs, RNG stream slots, outboxes, the inbox, the
//!   halt, "seeded" and "sent" words, edge counters and the touched list
//!   all keep their allocations from one run to the next, and within a
//!   run delivery drains outboxes in place and refills the inbox. The
//!   factory still builds every node's program, in ascending node
//!   order, and the session recycles it into the program it already
//!   holds ([`Program::recycle`]), so a program that owns buffers (the
//!   color-BFS neighbor table and identifier set) keeps them too. A
//!   node's stream is seeded on its first draw ([`NodeRng`]), so
//!   resetting the streams clears one bit per node, and a run whose
//!   nodes never draw runs no key schedule. Every outbox starts a run
//!   with room for one message per incident edge, reserved on the
//!   session's thread, and the inbox only grows in delivery, which runs
//!   on that thread too. Whoever holds the session owns the buffers:
//!   each detector repetition loop holds one session per program type
//!   for one call, a one-shot wrapper ([`crate::run_with_backend`])
//!   holds one for one run, and the buffers are freed when the session
//!   is dropped. No buffer outlives its session; there is no per-thread
//!   or global cache.
//! * **CSR edge indices** — the dense directed-edge index of
//!   `(v, i-th neighbor)` is [`Graph::first_edge_index`]`(v) + i`;
//!   broadcasts charge edges without any per-neighbor binary search,
//!   and point-to-point sends do a single neighbor-list search.

use std::sync::{
    Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::Instant;

use congest_graph::{Graph, NodeId};
use congest_telemetry as telemetry;
use rand_chacha::ChaCha8Rng;

use crate::cut::CutMeter;
use crate::error::SimError;
use crate::message::MessageSize;
use crate::metrics::{CongestionStats, RunReport};
use crate::program::{Control, Ctx, Decision, NodeRng, Outbox, Program};

/// One contiguous block of per-node state in struct-of-arrays layout:
/// for one run, a window into each of the session's [`NodeState`]
/// arrays. `nodes[off]`, `rngs[off]` and `outboxes[off]` all belong to
/// global node `base + off`; `halted`, `seeded` and `sent` pack the
/// halt flags, the streams' "seeded" bits and the "sent" bits 64 per
/// word. The chunk is the unit of work claiming: a phase steps whole
/// chunks, so a `Mutex` per chunk (uncontended — the claim cursor hands
/// each chunk to exactly one worker) and the inbox's `RwLock` are the
/// entire synchronization story, with no `unsafe` anywhere.
pub(crate) struct NodeChunk<'s, P: Program> {
    /// Global id of the chunk's first node.
    base: usize,
    nodes: &'s mut [P],
    /// Stream slots, each holding its node's stream once its `seeded`
    /// bit is set ([`NodeRng`]).
    rngs: &'s mut [ChaCha8Rng],
    /// The run's seed, from which every node stream derives.
    seed: u64,
    /// Halt flags, bit `off - 64*w` of word `w`.
    halted: &'s mut [u64],
    /// Whether a node's stream slot is seeded for this run, bit
    /// `off - 64*w` of word `w`.
    seeded: &'s mut [u64],
    /// Whether a node queued a message in the last node phase, bit
    /// `off - 64*w` of word `w`; delivery clears each bit it visits.
    sent: &'s mut [u64],
    /// Nodes in this chunk that have not halted; a chunk with none is
    /// skipped.
    live: usize,
    outboxes: &'s mut [Outbox<P::Msg>],
}

#[inline]
fn word_mask(width: usize) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

impl<P: Program> NodeChunk<'_, P> {
    /// Runs one phase (init at `None`, else one step on the messages of
    /// `inbox`) over every live node of the chunk, marking each node
    /// that queued a message. Returns `false` when the chunk was
    /// skipped because all its nodes had halted.
    pub(crate) fn run_phase(
        &mut self,
        graph: &Graph,
        n: usize,
        superstep: Option<usize>,
        inbox: &Inbox<P::Msg>,
    ) -> bool {
        let len = self.nodes.len();
        let Some(s) = superstep else {
            for off in 0..len {
                let id = NodeId::new((self.base + off) as u32);
                let rng = NodeRng::new(
                    &mut self.rngs[off],
                    &mut self.seeded[off / 64],
                    off % 64,
                    self.seed,
                    id,
                );
                let mut ctx = Ctx {
                    node: id,
                    n,
                    neighbors: graph.neighbors(id),
                    rng,
                };
                let out = &mut self.outboxes[off];
                self.nodes[off].init(&mut ctx, out);
                if !out.is_empty() {
                    self.sent[off / 64] |= 1 << (off % 64);
                }
            }
            return true;
        };
        if self.live == 0 {
            return false;
        }
        for w in 0..self.halted.len() {
            let word = self.halted[w];
            let lo = w * 64;
            let hi = (lo + 64).min(len);
            if word == word_mask(hi - lo) {
                // Every node of this word is halted: skip 64 nodes.
                continue;
            }
            for off in lo..hi {
                let bit = 1 << (off - lo);
                if word & bit != 0 {
                    continue;
                }
                let id = NodeId::new((self.base + off) as u32);
                let rng = NodeRng::new(
                    &mut self.rngs[off],
                    &mut self.seeded[w],
                    off - lo,
                    self.seed,
                    id,
                );
                let mut ctx = Ctx {
                    node: id,
                    n,
                    neighbors: graph.neighbors(id),
                    rng,
                };
                let out = &mut self.outboxes[off];
                let control = self.nodes[off].step(&mut ctx, s, inbox.of(id), out);
                if !out.is_empty() {
                    self.sent[w] |= bit;
                }
                if control == Control::Halt {
                    self.halted[w] |= bit;
                    self.live -= 1;
                }
            }
        }
        true
    }
}

/// Locks a chunk, ignoring poison: a panicked worker already aborts
/// the run through the pool's unwind guards, and the sequential path
/// never shares chunks across threads.
pub(crate) fn lock_chunk<'c, 's, P: Program>(
    chunk: &'c Mutex<NodeChunk<'s, P>>,
) -> MutexGuard<'c, NodeChunk<'s, P>> {
    chunk.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Nodes per chunk, as a power-of-two shift: large enough to amortize
/// the per-chunk claim (one atomic increment + one uncontended lock),
/// small enough that the claim cursor load-balances ragged supersteps
/// (BFS frontiers) across workers and the `live` skip stays
/// fine-grained. A span is a multiple of 64, so chunks split the bitset
/// words too. Chunk geometry is invisible to transcripts.
fn chunk_shift_for(n: usize, threads: usize) -> u32 {
    let workers = threads.max(1);
    let target = (n / (workers * 8)).clamp(64, 4096);
    usize::BITS - 1 - target.leading_zeros()
}

/// One superstep's messages, grouped by recipient: node `v`'s inbox
/// is `msgs[start[v]..start[v + 1]]`. Delivery refills it every
/// superstep and the next node phase reads it.
pub(crate) struct Inbox<M> {
    msgs: Vec<(NodeId, M)>,
    /// `n + 1` offsets into `msgs`. While delivery stages messages,
    /// `start[v]` counts those to `v`.
    start: Vec<u32>,
    /// Per staged message, its recipient; then, while the messages are
    /// placed, its index in `msgs`.
    slot: Vec<u32>,
}

impl<M> Inbox<M> {
    fn new() -> Self {
        Inbox {
            msgs: Vec::new(),
            start: Vec::new(),
            slot: Vec::new(),
        }
    }

    /// Empties the inbox of every node of a run on `n` nodes.
    fn reset(&mut self, n: usize) {
        self.msgs.clear();
        self.slot.clear();
        self.start.clear();
        self.start.resize(n + 1, 0);
    }

    /// The messages node `v` received, in the order
    /// [`Program::step`] promises.
    #[inline]
    fn of(&self, v: NodeId) -> &[(NodeId, M)] {
        let v = v.index();
        &self.msgs[self.start[v] as usize..self.start[v + 1] as usize]
    }

    /// Whether no node received anything.
    fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Starts staging a superstep's messages over the last superstep's,
    /// which stay in `msgs` until staging overwrites them or placing
    /// truncates them: dropping them takes no pass of its own.
    fn begin(&mut self) {
        self.slot.clear();
        self.start.fill(0);
    }

    /// Stages `msg` from `from` to `to`; [`Inbox::place`] moves it into
    /// `to`'s inbox, behind every message staged to `to` before it.
    #[inline]
    fn stage(&mut self, from: NodeId, to: NodeId, msg: M) {
        let k = self.slot.len();
        if k < self.msgs.len() {
            self.msgs[k] = (from, msg);
        } else {
            self.msgs.push((from, msg));
        }
        self.slot.push(to.raw());
        self.start[to.index()] += 1;
    }

    /// Sorts the staged messages by recipient, keeping the staging order
    /// among the messages to one node (a stable counting sort), and
    /// sets the offsets.
    fn place(&mut self) {
        self.msgs.truncate(self.slot.len());
        // No count or offset below overflows if the total does not.
        let total = u32::try_from(self.msgs.len()).expect("under 2^32 messages per superstep");
        let (last, counts) = self
            .start
            .split_last_mut()
            .expect("an inbox has n + 1 offsets");
        // Each count becomes the end of its node's range...
        let mut end = 0;
        for c in counts {
            end += *c;
            *c = end;
        }
        *last = total;
        // ...and, walking the staged messages backwards, each takes the
        // last free index of its recipient, so that `start[v]` ends at
        // the first one.
        for slot in self.slot.iter_mut().rev() {
            let v = *slot as usize;
            self.start[v] -= 1;
            *slot = self.start[v];
        }
        // Each swap moves one message to its index for good.
        for i in 0..self.msgs.len() {
            loop {
                let j = self.slot[i] as usize;
                if j == i {
                    break;
                }
                self.msgs.swap(i, j);
                self.slot.swap(i, j);
            }
        }
    }
}

/// A session's per-node state, one flat array per field, kept from one
/// run to the next: [`NodeState::reset`] refills it in place and
/// [`NodeState::chunks`] splits it into one run's [`ChunkTable`].
pub(crate) struct NodeState<P: Program> {
    /// The programs in node order; after a run, its final node states.
    pub(crate) nodes: Vec<P>,
    rngs: Vec<ChaCha8Rng>,
    seed: u64,
    halted: Vec<u64>,
    seeded: Vec<u64>,
    sent: Vec<u64>,
    outboxes: Vec<Outbox<P::Msg>>,
    inbox: Inbox<P::Msg>,
}

impl<P: Program> NodeState<P> {
    pub(crate) fn new() -> Self {
        NodeState {
            nodes: Vec::new(),
            rngs: Vec::new(),
            seed: 0,
            halted: Vec::new(),
            seeded: Vec::new(),
            sent: Vec::new(),
            outboxes: Vec::new(),
            inbox: Inbox::new(),
        }
    }

    /// Prepares the state for a run on `graph`: programs from the
    /// factory (called once per node, in ascending node order, on the
    /// caller's thread), recycled into the programs already held
    /// ([`Program::recycle`]) and built new only past their number;
    /// every node stream unseeded, to be seeded from `seed` on its
    /// node's first draw ([`NodeRng`]); every halt and "sent" bit
    /// cleared; and every outbox and the inbox emptied of whatever a
    /// failed run left behind — while each vector keeps its allocation.
    pub(crate) fn reset<F>(&mut self, graph: &Graph, seed: u64, mut factory: F)
    where
        F: FnMut(NodeId, usize) -> P,
    {
        let n = graph.node_count();
        self.nodes.truncate(n);
        for (v, node) in self.nodes.iter_mut().enumerate() {
            node.recycle(factory(NodeId::new(v as u32), n));
        }
        let kept = self.nodes.len();
        self.nodes
            .extend((kept..n).map(|v| factory(NodeId::new(v as u32), n)));
        self.rngs.resize(n, NodeRng::empty_slot());
        self.seed = seed;
        for words in [&mut self.halted, &mut self.seeded, &mut self.sent] {
            words.clear();
            words.resize(n.div_ceil(64), 0);
        }
        self.outboxes.resize_with(n, Outbox::new);
        // Room for one message per incident edge — a superstep's CONGEST
        // budget — allocated here, on the session's thread. Buffers kept
        // for the whole session then never come from a pool worker's
        // malloc arena, where, mixed with each run's short-lived
        // allocations, they fragmented the heap and raised peak memory.
        for (out, v) in self.outboxes.iter_mut().zip(graph.nodes()) {
            out.broadcast = None;
            out.messages.clear();
            out.messages.reserve_exact(graph.degree(v));
        }
        self.inbox.reset(n);
    }

    /// Splits the freshly reset state into the chunks of one run on
    /// `threads` threads.
    pub(crate) fn chunks(&mut self, threads: usize) -> ChunkTable<'_, P> {
        let n = self.nodes.len();
        let shift = chunk_shift_for(n, threads);
        let span = 1usize << shift;
        let seed = self.seed;
        let chunks = self
            .nodes
            .chunks_mut(span)
            .zip(self.rngs.chunks_mut(span))
            .zip(self.halted.chunks_mut(span / 64))
            .zip(self.seeded.chunks_mut(span / 64))
            .zip(self.sent.chunks_mut(span / 64))
            .zip(self.outboxes.chunks_mut(span))
            .enumerate()
            .map(
                |(i, (((((nodes, rngs), halted), seeded), sent), outboxes))| {
                    Mutex::new(NodeChunk {
                        base: i << shift,
                        live: nodes.len(),
                        nodes,
                        rngs,
                        seed,
                        halted,
                        seeded,
                        sent,
                        outboxes,
                    })
                },
            )
            .collect();
        ChunkTable {
            chunks,
            inbox: RwLock::new(&mut self.inbox),
            n,
        }
    }

    /// The address of every buffer the state keeps between runs.
    #[cfg(test)]
    pub(crate) fn buffer_addrs(&self) -> Vec<usize> {
        let mut addrs = vec![
            self.nodes.as_ptr() as usize,
            self.rngs.as_ptr() as usize,
            self.halted.as_ptr() as usize,
            self.seeded.as_ptr() as usize,
            self.sent.as_ptr() as usize,
            self.outboxes.as_ptr() as usize,
            self.inbox.msgs.as_ptr() as usize,
            self.inbox.start.as_ptr() as usize,
            self.inbox.slot.as_ptr() as usize,
        ];
        addrs.extend(self.outboxes.iter().map(|o| o.messages.as_ptr() as usize));
        addrs
    }
}

/// One run's node state: every [`NodeChunk`], and the inbox the node
/// phases read and delivery refills.
pub(crate) struct ChunkTable<'s, P: Program> {
    chunks: Vec<Mutex<NodeChunk<'s, P>>>,
    /// Read-locked by each thread of a node phase, write-locked by
    /// delivery; the phases never overlap, so no lock ever waits.
    inbox: RwLock<&'s mut Inbox<P::Msg>>,
    n: usize,
}

impl<'s, P: Program> ChunkTable<'s, P> {
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    pub(crate) fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    pub(crate) fn chunk(&self, i: usize) -> &Mutex<NodeChunk<'s, P>> {
        &self.chunks[i]
    }

    /// The inbox, for one thread of a node phase. Poison is ignored as
    /// in [`lock_chunk`]: only delivery writes it, and a panic there
    /// ends the run, whose table dies with it.
    pub(crate) fn read_inbox(&self) -> RwLockReadGuard<'_, &'s mut Inbox<P::Msg>> {
        self.inbox.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The inbox, for delivery.
    fn write_inbox(&self) -> RwLockWriteGuard<'_, &'s mut Inbox<P::Msg>> {
        self.inbox.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks every chunk in ascending order into `guards` (emptied
    /// first), for the single-threaded phases (delivery, termination
    /// test, decision collection). No worker holds a chunk between
    /// phases, so this never blocks.
    fn lock_all<'t>(&'t self, guards: &mut Vec<MutexGuard<'t, NodeChunk<'s, P>>>) {
        guards.clear();
        guards.extend(self.chunks.iter().map(lock_chunk));
    }
}

/// How the node phases of a run execute. The driver runs every chunk
/// of the table exactly once per phase (init at superstep `None`) —
/// everything else (delivery, accounting, halting bookkeeping) is
/// shared and single-threaded.
pub(crate) trait PhaseDriver<P: Program> {
    fn run_phase(&self, table: &ChunkTable<'_, P>, graph: &Graph, superstep: Option<usize>);
}

/// The sequential driver: every chunk on the calling thread, in
/// order, with no pool to coordinate.
pub(crate) struct SeqDriver;

impl<P: Program> PhaseDriver<P> for SeqDriver {
    fn run_phase(&self, table: &ChunkTable<'_, P>, graph: &Graph, superstep: Option<usize>) {
        let n = table.n();
        let inbox = table.read_inbox();
        for i in 0..table.chunk_count() {
            lock_chunk(table.chunk(i)).run_phase(graph, n, superstep, &inbox);
        }
    }
}

/// Telemetry handles for the superstep core, resolved once per process.
/// Updates are relaxed atomics, so they stay on unconditionally; only the
/// per-round trace *events* and the phase timings are gated on
/// `telemetry::enabled()`.
struct SimMetrics {
    runs: Arc<telemetry::Counter>,
    supersteps: Arc<telemetry::Counter>,
    messages_delivered: Arc<telemetry::Counter>,
    superstep_messages: Arc<telemetry::Histogram>,
    superstep_max_edge_words: Arc<telemetry::Histogram>,
    run_supersteps_per_sec: Arc<telemetry::Histogram>,
    /// One sample per run and phase: the run's total in the phase.
    phase_ns: [Arc<telemetry::Histogram>; PHASES],
}

fn sim_metrics() -> &'static SimMetrics {
    static METRICS: OnceLock<SimMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = telemetry::Registry::global();
        SimMetrics {
            runs: registry.counter("sim.runs"),
            supersteps: registry.counter("sim.supersteps"),
            messages_delivered: registry.counter("sim.messages.delivered"),
            superstep_messages: registry.histogram("sim.superstep.messages"),
            superstep_max_edge_words: registry.histogram("sim.superstep.max_edge_words"),
            run_supersteps_per_sec: registry.histogram("sim.run.supersteps_per_sec"),
            phase_ns: PHASE_HISTOGRAMS.map(|name| registry.histogram(name)),
        }
    })
}

/// The phases of a run, in the order a superstep visits them after the
/// run's reset: the node step, edge accounting, delivery, and the
/// termination scan.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// From the start of the run to its first node step: the session's
    /// buffers reset in place (and, on a parallel backend, the pool
    /// started).
    Reset,
    /// Stepping the nodes (init included).
    Step,
    /// One pass over the nodes that queued a message, in ascending
    /// order: validating each recipient, charging its edge and staging
    /// the message over one of the last superstep's, which drops that
    /// one.
    Account,
    /// Dropping the rest of the last superstep's messages and sorting
    /// the staged ones into the recipients' inboxes.
    Deliver,
    /// The termination test, and the decisions collected at the end.
    Scan,
}

const PHASES: usize = 5;

/// Each phase's field on the `sim.run` span, in [`Phase`] order.
const PHASE_FIELDS: [&str; PHASES] = ["reset_ns", "step_ns", "account_ns", "deliver_ns", "scan_ns"];

/// Each phase's histogram, in [`Phase`] order.
const PHASE_HISTOGRAMS: [&str; PHASES] = [
    "sim.phase.reset_ns",
    "sim.phase.step_ns",
    "sim.phase.account_ns",
    "sim.phase.deliver_ns",
    "sim.phase.scan_ns",
];

/// The `sim.run` span of one run and the time the run spent in each
/// [`Phase`]. Each lap charges the time since the previous lap to one
/// phase, so the phases add up to the run, less the gap between the
/// span's start and the first lap's. The phases are timed only while a
/// recorder is installed; when the run ends, however it ends, their
/// totals go on the span and into the `sim.phase.*_ns` histograms.
pub(crate) struct RunClock {
    span: telemetry::Span,
    started: Instant,
    /// The last lap, while the phases are timed.
    lap: Option<Instant>,
    phase_ns: [u64; PHASES],
}

impl RunClock {
    /// Starts the clock of a run on `n` nodes, before its reset.
    pub(crate) fn start(n: usize) -> RunClock {
        let span = telemetry::Span::begin("sim.run").with("n", n);
        let started = Instant::now();
        RunClock {
            lap: span.is_active().then_some(started),
            span,
            started,
            phase_ns: [0; PHASES],
        }
    }

    /// Charges the time since the last lap to `phase`.
    #[inline]
    fn lap(&mut self, phase: Phase) {
        if let Some(last) = &mut self.lap {
            let now = Instant::now();
            self.phase_ns[phase as usize] += now.duration_since(*last).as_nanos() as u64;
            *last = now;
        }
    }

    /// Starts the next lap without charging the time since the last
    /// one to any phase: for the time the recorder itself takes.
    #[inline]
    fn skip(&mut self) {
        if let Some(last) = &mut self.lap {
            *last = Instant::now();
        }
    }
}

impl Drop for RunClock {
    fn drop(&mut self) {
        if self.lap.is_none() {
            return;
        }
        let histograms = &sim_metrics().phase_ns;
        for ((field, histogram), ns) in PHASE_FIELDS.iter().zip(histograms).zip(self.phase_ns) {
            histogram.record(ns);
            self.span.push(field, ns);
        }
    }
}

/// What one delivery pass did, for the caller's accounting and telemetry.
struct DeliverOutcome {
    /// Round cost of the superstep: `max(1, ⌈max_load/B⌉)`.
    round_cost: u64,
    /// Maximum words charged to any directed edge this superstep.
    max_load: u64,
    /// Messages delivered this superstep.
    messages: u64,
}

/// A session's delivery state: re-sized for the graph at the start of
/// each run, reused every superstep and every run.
pub(crate) struct Delivery {
    /// Words charged per directed edge this superstep; only the
    /// `touched` entries are ever non-zero.
    edge_words: Vec<u64>,
    /// Directed-edge indices written this superstep.
    touched: Vec<usize>,
}

impl Delivery {
    pub(crate) fn new() -> Delivery {
        Delivery {
            edge_words: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Prepares the buffers for a run on `graph`: clears the charges a
    /// failed run left behind (a finished one ends on a superstep that
    /// charged nothing).
    fn reset(&mut self, graph: &Graph) {
        self.clear_charges();
        self.edge_words.resize(graph.directed_edge_count(), 0);
    }

    /// The address of every buffer delivery keeps between runs.
    #[cfg(test)]
    pub(crate) fn buffer_addrs(&self) -> Vec<usize> {
        vec![
            self.edge_words.as_ptr() as usize,
            self.touched.as_ptr() as usize,
        ]
    }

    /// Zeroes the edges charged since the last call.
    fn clear_charges(&mut self) {
        for &e in &self.touched {
            self.edge_words[e] = 0;
        }
        self.touched.clear();
    }

    /// Delivers the messages the last node phase queued into `inbox`,
    /// returning the round cost `max(1, ⌈max_load/B⌉)` of the superstep
    /// along with its congestion profile. The caller holds every chunk
    /// guard and the inbox: delivery is a single-threaded phase. Senders
    /// go in ascending order (the determinism anchor), and each one's
    /// broadcast before its sends, so a recipient's messages are staged
    /// in the order its inbox keeps. Laps `clock` after the pass over
    /// the senders and after placing the messages.
    #[allow(clippy::too_many_arguments)]
    fn deliver<P: Program>(
        &mut self,
        graph: &Graph,
        bandwidth: u64,
        cut: Option<&CutMeter>,
        cut_words: &mut u64,
        chunks: &mut [MutexGuard<'_, NodeChunk<'_, P>>],
        inbox: &mut Inbox<P::Msg>,
        stats: &mut CongestionStats,
        clock: &mut RunClock,
    ) -> Result<DeliverOutcome, SimError> {
        let messages_before = stats.total_messages;
        inbox.begin();
        self.clear_charges();

        for chunk in chunks.iter_mut() {
            let chunk = &mut **chunk;
            for (w, sent) in chunk.sent.iter_mut().enumerate() {
                let mut word = std::mem::take(sent);
                while word != 0 {
                    let off = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    let from = NodeId::new((chunk.base + off) as u32);
                    let first_edge = graph.first_edge_index(from);
                    let neighbors = graph.neighbors(from);
                    let out = &mut chunk.outboxes[off];
                    if let Some(msg) = out.broadcast.take() {
                        let words = msg.words() as u64;
                        for (pos, &to) in neighbors.iter().enumerate() {
                            self.charge(first_edge + pos, words);
                            stats.total_words += words;
                            stats.total_messages += 1;
                            if let Some(cut) = cut {
                                if cut.crosses(from, to) {
                                    *cut_words += words;
                                }
                            }
                            inbox.stage(from, to, msg.clone());
                        }
                    }
                    for (to, msg) in out.messages.drain(..) {
                        let pos = neighbors
                            .binary_search(&to)
                            .map_err(|_| SimError::NotANeighbor { from, to })?;
                        let words = msg.words() as u64;
                        self.charge(first_edge + pos, words);
                        stats.total_words += words;
                        stats.total_messages += 1;
                        if let Some(cut) = cut {
                            if cut.crosses(from, to) {
                                *cut_words += words;
                            }
                        }
                        inbox.stage(from, to, msg);
                    }
                }
            }
        }
        clock.lap(Phase::Account);

        inbox.place();
        let max_load = self
            .touched
            .iter()
            .map(|&e| self.edge_words[e])
            .max()
            .unwrap_or(0);
        stats.max_words_per_edge_step = stats.max_words_per_edge_step.max(max_load);
        clock.lap(Phase::Deliver);
        Ok(DeliverOutcome {
            round_cost: max_load.div_ceil(bandwidth).max(1),
            max_load,
            messages: stats.total_messages - messages_before,
        })
    }

    #[inline]
    fn charge(&mut self, idx: usize, words: u64) {
        if self.edge_words[idx] == 0 {
            self.touched.push(idx);
        }
        self.edge_words[idx] += words;
    }
}

/// Folds one delivery pass into the process-wide metrics and, when a
/// recorder is installed, emits the per-round profile event. A sink
/// that writes the event (a JSONL file, say) can take longer than a
/// small run's phases, so `clock` charges this to no phase.
fn observe_delivery(
    metrics: &SimMetrics,
    outcome: &DeliverOutcome,
    superstep: u64,
    clock: &mut RunClock,
) {
    metrics.messages_delivered.add(outcome.messages);
    metrics.superstep_messages.record(outcome.messages);
    metrics.superstep_max_edge_words.record(outcome.max_load);
    telemetry::instant_event("sim.round", || {
        vec![
            ("superstep", superstep.into()),
            ("messages", outcome.messages.into()),
            ("max_edge_words", outcome.max_load.into()),
            ("round_cost", outcome.round_cost.into()),
        ]
    });
    clock.skip();
}

/// Runs a program to completion over the chunk table of a freshly
/// reset [`NodeState`] under the given phase driver; the semantics of
/// [`crate::Executor::run`], shared by every backend. Pooled runs share
/// the table with scoped workers; the final node states stay in the
/// session's [`NodeState`]. `clock` was started before the reset.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_loop<P, D>(
    graph: &Graph,
    bandwidth: u64,
    cut: Option<&CutMeter>,
    table: &ChunkTable<'_, P>,
    delivery: &mut Delivery,
    driver: &D,
    mut clock: RunClock,
    max_supersteps: u64,
) -> Result<RunReport, SimError>
where
    P: Program,
    D: PhaseDriver<P>,
{
    let metrics = sim_metrics();
    metrics.runs.inc();
    delivery.reset(graph);
    let mut stats = CongestionStats::default();
    let mut cut_words: u64 = 0;
    let mut rounds: u64 = 0;
    let mut supersteps: u64 = 0;
    // One guard vector for the whole run, emptied before every node
    // phase (the driver locks chunks itself).
    let mut guards = Vec::with_capacity(table.chunk_count());
    clock.lap(Phase::Reset);

    // Init phase: superstep-0 sends.
    driver.run_phase(table, graph, None);
    clock.lap(Phase::Step);
    table.lock_all(&mut guards);
    let mut inbox = table.write_inbox();
    if guards.iter().any(|c| c.sent.iter().any(|&w| w != 0)) {
        let outcome = delivery.deliver(
            graph,
            bandwidth,
            cut,
            &mut cut_words,
            &mut guards,
            &mut inbox,
            &mut stats,
            &mut clock,
        )?;
        rounds += outcome.round_cost;
        observe_delivery(metrics, &outcome, 0, &mut clock);
    }
    // The run ends once every node has halted and the last delivery
    // was empty; messages to halted nodes still cost one superstep.
    let mut finished = inbox.is_empty() && guards.iter().all(|c| c.live == 0);
    drop(inbox);
    guards.clear();
    clock.lap(Phase::Scan);

    while !finished {
        if supersteps >= max_supersteps {
            return Err(SimError::StepLimitExceeded {
                limit: max_supersteps,
            });
        }
        driver.run_phase(table, graph, Some(supersteps as usize));
        clock.lap(Phase::Step);
        supersteps += 1;
        metrics.supersteps.inc();
        table.lock_all(&mut guards);
        let mut inbox = table.write_inbox();
        let outcome = delivery.deliver(
            graph,
            bandwidth,
            cut,
            &mut cut_words,
            &mut guards,
            &mut inbox,
            &mut stats,
            &mut clock,
        )?;
        rounds += outcome.round_cost;
        observe_delivery(metrics, &outcome, supersteps, &mut clock);
        finished = inbox.is_empty() && guards.iter().all(|c| c.live == 0);
        drop(inbox);
        guards.clear();
        clock.lap(Phase::Scan);
    }

    if supersteps > 0 {
        let secs = clock.started.elapsed().as_secs_f64().max(1e-9);
        metrics
            .run_supersteps_per_sec
            .record((supersteps as f64 / secs) as u64);
    }
    clock.span.push("supersteps", supersteps);
    clock.span.push("rounds", rounds);
    clock.span.push("messages", stats.total_messages);

    let mut rejecting_nodes: Vec<u32> = Vec::new();
    table.lock_all(&mut guards);
    for guard in &guards {
        for (off, p) in guard.nodes.iter().enumerate() {
            if p.decision() == Decision::Reject {
                rejecting_nodes.push((guard.base + off) as u32);
            }
        }
    }
    clock.lap(Phase::Scan);
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
        cut_words: cut.map(|_| cut_words),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_geometry_covers_every_node_once() {
        for (n, threads) in [
            (0usize, 1usize),
            (1, 1),
            (63, 2),
            (64, 1),
            (65, 4),
            (5000, 2),
        ] {
            let shift = chunk_shift_for(n, threads);
            let span = 1usize << shift;
            assert!((64..=4096).contains(&span), "span {span} for n={n}");
            let mut covered = 0usize;
            let mut base = 0usize;
            while base < n {
                let len = span.min(n - base);
                assert_eq!(base >> shift, base / span, "chunk index is a shift");
                covered += len;
                base += len;
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn word_mask_widths() {
        assert_eq!(word_mask(64), u64::MAX);
        assert_eq!(word_mask(1), 1);
        assert_eq!(word_mask(63), u64::MAX >> 1);
    }
}
