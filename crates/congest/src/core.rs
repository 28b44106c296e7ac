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
//! with no live node to step and no delivered message to drop.
//!
//! Hot-path choices:
//!
//! * **Chunked struct-of-arrays node state** — per-node state lives in
//!   parallel flat arrays ([`NodeState`]: programs, RNG streams,
//!   inboxes, outboxes, and halted flags packed into `u64` bitset
//!   words), which each run splits into [`NodeChunk`] windows of a
//!   fixed power-of-two span. A phase sweep walks contiguous memory, a
//!   fully-halted 64-node word is skipped in one compare, and a chunk
//!   whose nodes are all halted with nothing in any inbox is skipped
//!   outright (`live`/`pending` counters).
//! * **Touched-edge accounting** — only the `edge_words` entries
//!   actually written in a superstep are reset, so a quiet superstep
//!   costs `O(touched)`, not `O(m)`.
//! * **Buffer reuse** — a session owns its [`NodeState`] and
//!   [`Delivery`] buffers and resets them in place at the start of
//!   every run: programs, RNG streams, inboxes, outboxes, halt words,
//!   edge counters, the touched list, CSR bases, and outbox capacities
//!   all keep their allocations from one run to the next, and within a
//!   run delivery drains outboxes in place. Every inbox and outbox
//!   starts a run with room for one message per incident edge,
//!   reserved on the session's thread. Whoever holds the session owns
//!   the buffers: each detector repetition loop holds one session per
//!   program type for one call, a one-shot wrapper
//!   ([`crate::run_with_backend`]) holds one for one run, and the
//!   buffers are freed when the session is dropped. No buffer outlives
//!   its session; there is no per-thread or global cache.
//! * **CSR edge bases** — the dense directed-edge index of
//!   `(v, i-th neighbor)` is `edge_base[v] + i`; broadcasts charge
//!   edges without any per-neighbor binary search, and point-to-point
//!   sends do a single neighbor-list search.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use congest_graph::{Graph, NodeId};
use congest_telemetry as telemetry;
use rand_chacha::ChaCha8Rng;

use crate::cut::CutMeter;
use crate::error::SimError;
use crate::message::MessageSize;
use crate::metrics::{CongestionStats, RunReport};
use crate::node_rng;
use crate::program::{Control, Ctx, Decision, Outbox, Program};

/// One contiguous block of per-node state in struct-of-arrays layout:
/// for one run, a window into each of the session's [`NodeState`]
/// arrays. `nodes[off]`, `rngs[off]`, `inboxes[off]`, and
/// `outboxes[off]` all belong to global node `base + off`; `halted`
/// packs the halt flags 64 per word. The chunk is the unit of work
/// claiming: a phase steps whole chunks, so a `Mutex` per chunk
/// (uncontended — the claim cursor hands each chunk to exactly one
/// worker) is the entire synchronization story, with no `unsafe`
/// anywhere.
pub(crate) struct NodeChunk<'s, P: Program> {
    /// Global id of the chunk's first node.
    base: usize,
    nodes: &'s mut [P],
    rngs: &'s mut [ChaCha8Rng],
    /// Halt flags, bit `off - 64*w` of word `w`.
    halted: &'s mut [u64],
    /// Nodes in this chunk that have not halted.
    live: usize,
    /// Inboxes in this chunk currently holding messages. Maintained by
    /// delivery (push into an empty inbox) and reset by the phase
    /// sweep (every inbox is drained or dropped); together with `live`
    /// it makes both the chunk-skip test and the global termination
    /// test O(1) per chunk.
    pending: usize,
    inboxes: &'s mut [Vec<(NodeId, P::Msg)>],
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
    /// Runs one phase (init at `None`, else one step) over every node
    /// of the chunk. Returns `false` when the chunk was skipped — all
    /// nodes halted and no inbox held messages to drop, so nothing
    /// observable could have happened.
    pub(crate) fn run_phase(&mut self, graph: &Graph, n: usize, superstep: Option<usize>) -> bool {
        let len = self.nodes.len();
        let Some(s) = superstep else {
            for off in 0..len {
                let id = NodeId::new((self.base + off) as u32);
                let mut ctx = Ctx {
                    node: id,
                    n,
                    neighbors: graph.neighbors(id),
                    rng: &mut self.rngs[off],
                };
                self.nodes[off].init(&mut ctx, &mut self.outboxes[off]);
            }
            return true;
        };
        if self.live == 0 && self.pending == 0 {
            return false;
        }
        for w in 0..self.halted.len() {
            let word = self.halted[w];
            let lo = w * 64;
            let hi = (lo + 64).min(len);
            if word == word_mask(hi - lo) && self.pending == 0 {
                // Every node of this word is halted and no inbox in
                // the chunk holds messages to drop: skip 64 nodes.
                continue;
            }
            for off in lo..hi {
                if word >> (off - lo) & 1 == 1 {
                    // Messages to halted nodes are dropped (capacity kept).
                    self.inboxes[off].clear();
                    continue;
                }
                let id = NodeId::new((self.base + off) as u32);
                // Take the inbox for the step, then hand its
                // allocation back so the capacity survives.
                let staged = std::mem::take(&mut self.inboxes[off]);
                let mut ctx = Ctx {
                    node: id,
                    n,
                    neighbors: graph.neighbors(id),
                    rng: &mut self.rngs[off],
                };
                if self.nodes[off].step(&mut ctx, s, &staged, &mut self.outboxes[off])
                    == Control::Halt
                {
                    self.halted[w] |= 1 << (off - lo);
                    self.live -= 1;
                }
                self.inboxes[off] = staged;
                self.inboxes[off].clear();
            }
        }
        self.pending = 0;
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
/// (BFS frontiers) across workers and the `live`/`pending` skip stays
/// fine-grained. A span is a multiple of 64, so chunks split the halt
/// words too. Chunk geometry is invisible to transcripts.
fn chunk_shift_for(n: usize, threads: usize) -> u32 {
    let workers = threads.max(1);
    let target = (n / (workers * 8)).clamp(64, 4096);
    usize::BITS - 1 - target.leading_zeros()
}

/// A session's per-node state, one flat array per field, kept from one
/// run to the next: [`NodeState::reset`] refills it in place and
/// [`NodeState::chunks`] splits it into one run's [`ChunkTable`].
pub(crate) struct NodeState<P: Program> {
    /// The programs in node order; after a run, its final node states.
    pub(crate) nodes: Vec<P>,
    rngs: Vec<ChaCha8Rng>,
    halted: Vec<u64>,
    inboxes: Vec<Vec<(NodeId, P::Msg)>>,
    outboxes: Vec<Outbox<P::Msg>>,
}

impl<P: Program> NodeState<P> {
    pub(crate) fn new() -> Self {
        NodeState {
            nodes: Vec::new(),
            rngs: Vec::new(),
            halted: Vec::new(),
            inboxes: Vec::new(),
            outboxes: Vec::new(),
        }
    }

    /// Prepares the state for a run on `graph`: programs from the
    /// factory (called in ascending node order, on the caller's
    /// thread), one seeded RNG stream per node, every halt flag
    /// cleared, and every inbox and outbox emptied of whatever a failed
    /// run left behind — while each vector keeps its allocation.
    pub(crate) fn reset<F>(&mut self, graph: &Graph, seed: u64, mut factory: F)
    where
        F: FnMut(NodeId, usize) -> P,
    {
        let n = graph.node_count();
        self.nodes.clear();
        self.nodes
            .extend((0..n).map(|v| factory(NodeId::new(v as u32), n)));
        self.rngs.clear();
        self.rngs.extend(graph.nodes().map(|v| node_rng(seed, v)));
        self.halted.clear();
        self.halted.resize(n.div_ceil(64), 0);
        self.inboxes.resize_with(n, Vec::new);
        self.outboxes.resize_with(n, Outbox::new);
        // Room for one message per incident edge — a superstep's CONGEST
        // budget — allocated here, on the session's thread. Buffers kept
        // for the whole session then never come from a pool worker's
        // malloc arena, where, mixed with each run's short-lived
        // allocations, they fragmented the heap and raised peak memory.
        let queues = self.inboxes.iter_mut().zip(&mut self.outboxes);
        for ((inbox, out), v) in queues.zip(graph.nodes()) {
            inbox.clear();
            inbox.reserve_exact(graph.degree(v));
            out.broadcast = None;
            out.messages.clear();
            out.messages.reserve_exact(graph.degree(v));
        }
    }

    /// Splits the freshly reset state into the chunks of one run on
    /// `threads` threads.
    pub(crate) fn chunks(&mut self, threads: usize) -> ChunkTable<'_, P> {
        let n = self.nodes.len();
        let shift = chunk_shift_for(n, threads);
        let span = 1usize << shift;
        let chunks = self
            .nodes
            .chunks_mut(span)
            .zip(self.rngs.chunks_mut(span))
            .zip(self.halted.chunks_mut(span / 64))
            .zip(self.inboxes.chunks_mut(span))
            .zip(self.outboxes.chunks_mut(span))
            .enumerate()
            .map(|(i, ((((nodes, rngs), halted), inboxes), outboxes))| {
                Mutex::new(NodeChunk {
                    base: i << shift,
                    live: nodes.len(),
                    pending: 0,
                    nodes,
                    rngs,
                    halted,
                    inboxes,
                    outboxes,
                })
            })
            .collect();
        ChunkTable { chunks, shift, n }
    }

    /// The address of every buffer the state keeps between runs.
    #[cfg(test)]
    pub(crate) fn buffer_addrs(&self) -> Vec<usize> {
        let mut addrs = vec![
            self.nodes.as_ptr() as usize,
            self.rngs.as_ptr() as usize,
            self.halted.as_ptr() as usize,
            self.inboxes.as_ptr() as usize,
            self.outboxes.as_ptr() as usize,
        ];
        addrs.extend(self.inboxes.iter().map(|i| i.as_ptr() as usize));
        addrs.extend(self.outboxes.iter().map(|o| o.messages.as_ptr() as usize));
        addrs
    }
}

/// One run's node state: every [`NodeChunk`], plus the power-of-two
/// geometry that maps a global node id to `(chunk, offset)` with a
/// shift and a mask.
pub(crate) struct ChunkTable<'s, P: Program> {
    chunks: Vec<Mutex<NodeChunk<'s, P>>>,
    shift: u32,
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
        for i in 0..table.chunk_count() {
            lock_chunk(table.chunk(i)).run_phase(graph, n, superstep);
        }
    }
}

/// Telemetry handles for the superstep core, resolved once per process.
/// Updates are relaxed atomics, so they stay on unconditionally; only the
/// per-round trace *events* are gated on `telemetry::enabled()`.
struct SimMetrics {
    runs: Arc<telemetry::Counter>,
    supersteps: Arc<telemetry::Counter>,
    messages_delivered: Arc<telemetry::Counter>,
    buffer_reuse_hits: Arc<telemetry::Counter>,
    superstep_messages: Arc<telemetry::Histogram>,
    superstep_max_edge_words: Arc<telemetry::Histogram>,
    run_supersteps_per_sec: Arc<telemetry::Histogram>,
}

fn sim_metrics() -> &'static SimMetrics {
    static METRICS: OnceLock<SimMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = telemetry::Registry::global();
        SimMetrics {
            runs: registry.counter("sim.runs"),
            supersteps: registry.counter("sim.supersteps"),
            messages_delivered: registry.counter("sim.messages.delivered"),
            buffer_reuse_hits: registry.counter("sim.buffer.reuse_hits"),
            superstep_messages: registry.histogram("sim.superstep.messages"),
            superstep_max_edge_words: registry.histogram("sim.superstep.max_edge_words"),
            run_supersteps_per_sec: registry.histogram("sim.run.supersteps_per_sec"),
        }
    })
}

/// What one delivery pass did, for the caller's accounting and telemetry.
struct DeliverOutcome {
    /// Round cost of the superstep: `max(1, ⌈max_load/B⌉)`.
    round_cost: u64,
    /// Maximum words charged to any directed edge this superstep.
    max_load: u64,
    /// Messages delivered this superstep.
    messages: u64,
    /// Point-to-point outboxes drained from a buffer that did not grow
    /// this superstep: sends that allocated nothing.
    reused_buffers: u64,
}

/// A session's delivery state: re-sized for the graph at the start of
/// each run, reused every superstep and every run.
pub(crate) struct Delivery {
    /// Words charged per directed edge this superstep; only the
    /// `touched` entries are ever non-zero.
    edge_words: Vec<u64>,
    /// Directed-edge indices written this superstep.
    touched: Vec<usize>,
    /// CSR base of each node's directed-edge block: the edge to the
    /// `i`-th neighbor of `v` has dense index `edge_base[v] + i`.
    edge_base: Vec<usize>,
    /// Capacity of each node's point-to-point outbox at its last drain
    /// (or at the start of the run): a drain that finds the same
    /// capacity reused the buffer without allocating.
    capacity: Vec<usize>,
}

/// Appends `msg` to the inbox of `to`, keeping the recipient chunk's
/// `pending` count exact (the first push into an empty inbox marks it).
#[inline]
fn push_to<P: Program>(
    chunks: &mut [MutexGuard<'_, NodeChunk<'_, P>>],
    shift: u32,
    mask: usize,
    from: NodeId,
    to: NodeId,
    msg: P::Msg,
) {
    let t = to.index();
    let chunk = &mut *chunks[t >> shift];
    let inbox = &mut chunk.inboxes[t & mask];
    if inbox.is_empty() {
        chunk.pending += 1;
    }
    inbox.push((from, msg));
}

impl Delivery {
    pub(crate) fn new() -> Delivery {
        Delivery {
            edge_words: Vec::new(),
            touched: Vec::new(),
            edge_base: Vec::new(),
            capacity: Vec::new(),
        }
    }

    /// Prepares the buffers for a run of `table` on `graph`: clears the
    /// charges a failed run left behind (a finished one ends on a
    /// superstep that charged nothing), rebuilds the CSR bases, and
    /// seeds `capacity` from what each outbox really holds, so a buffer
    /// kept from an earlier run counts as reused on its first drain.
    fn reset<P: Program>(&mut self, graph: &Graph, table: &ChunkTable<'_, P>) {
        self.clear_charges();
        self.edge_words.resize(graph.directed_edge_count(), 0);
        self.edge_base.clear();
        let mut acc = 0usize;
        for v in graph.nodes() {
            self.edge_base.push(acc);
            acc += graph.degree(v);
        }
        debug_assert_eq!(acc, graph.directed_edge_count());
        self.capacity.clear();
        for chunk in &table.chunks {
            let chunk = lock_chunk(chunk);
            self.capacity
                .extend(chunk.outboxes.iter().map(|o| o.messages.capacity()));
        }
    }

    /// The address of every buffer delivery keeps between runs.
    #[cfg(test)]
    pub(crate) fn buffer_addrs(&self) -> Vec<usize> {
        vec![
            self.edge_words.as_ptr() as usize,
            self.touched.as_ptr() as usize,
            self.edge_base.as_ptr() as usize,
            self.capacity.as_ptr() as usize,
        ]
    }

    /// Zeroes the edges charged since the last call.
    fn clear_charges(&mut self) {
        for &e in &self.touched {
            self.edge_words[e] = 0;
        }
        self.touched.clear();
    }

    /// Delivers all pending outboxes in sender order (the determinism
    /// anchor), returning the round cost `max(1, ⌈max_load/B⌉)` of the
    /// superstep along with its congestion profile. The caller holds
    /// every chunk guard: delivery is a single-threaded phase, and
    /// holding all chunks lets a sender's taken-out outbox feed
    /// recipient inboxes anywhere in the table.
    #[allow(clippy::too_many_arguments)]
    fn deliver<P: Program>(
        &mut self,
        graph: &Graph,
        bandwidth: u64,
        cut: Option<&CutMeter>,
        cut_words: &mut u64,
        shift: u32,
        chunks: &mut [MutexGuard<'_, NodeChunk<'_, P>>],
        stats: &mut CongestionStats,
    ) -> Result<DeliverOutcome, SimError> {
        let messages_before = stats.total_messages;
        let mut reused_buffers = 0u64;
        self.clear_charges();

        // Accounting pass: charge words per directed edge and validate
        // that every recipient is a neighbor.
        for chunk in chunks.iter() {
            for (off, out) in chunk.outboxes.iter().enumerate() {
                if out.is_empty() {
                    continue;
                }
                let v = chunk.base + off;
                let from = NodeId::new(v as u32);
                let base = self.edge_base[v];
                let neighbors = graph.neighbors(from);
                if let Some(msg) = &out.broadcast {
                    let words = msg.words() as u64;
                    for (pos, &to) in neighbors.iter().enumerate() {
                        self.charge(base + pos, words);
                        stats.total_words += words;
                        stats.total_messages += 1;
                        if let Some(cut) = cut {
                            if cut.crosses(from, to) {
                                *cut_words += words;
                            }
                        }
                    }
                }
                for (to, msg) in &out.messages {
                    let pos = neighbors
                        .binary_search(to)
                        .map_err(|_| SimError::NotANeighbor { from, to: *to })?;
                    let words = msg.words() as u64;
                    self.charge(base + pos, words);
                    stats.total_words += words;
                    stats.total_messages += 1;
                    if let Some(cut) = cut {
                        if cut.crosses(from, *to) {
                            *cut_words += words;
                        }
                    }
                }
            }
        }

        // Delivery pass (sender order => deterministic inbox order),
        // draining outboxes in place so their capacity survives. The
        // sender's outbox is taken out of its chunk first, so pushing
        // into a recipient inbox of the *same* chunk aliases nothing.
        let mask = (1usize << shift) - 1;
        for ci in 0..chunks.len() {
            let base = chunks[ci].base;
            let len = chunks[ci].outboxes.len();
            for off in 0..len {
                let from = NodeId::new((base + off) as u32);
                let broadcast = chunks[ci].outboxes[off].broadcast.take();
                let mut msgs = std::mem::take(&mut chunks[ci].outboxes[off].messages);
                if let Some(msg) = broadcast {
                    for &to in graph.neighbors(from) {
                        push_to(chunks, shift, mask, from, to, msg.clone());
                    }
                }
                if !msgs.is_empty() && msgs.capacity() == self.capacity[base + off] {
                    reused_buffers += 1;
                }
                for (to, msg) in msgs.drain(..) {
                    push_to(chunks, shift, mask, from, to, msg);
                }
                self.capacity[base + off] = msgs.capacity();
                chunks[ci].outboxes[off].messages = msgs;
            }
        }

        let max_load = self
            .touched
            .iter()
            .map(|&e| self.edge_words[e])
            .max()
            .unwrap_or(0);
        stats.max_words_per_edge_step = stats.max_words_per_edge_step.max(max_load);
        Ok(DeliverOutcome {
            round_cost: max_load.div_ceil(bandwidth).max(1),
            max_load,
            messages: stats.total_messages - messages_before,
            reused_buffers,
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
/// recorder is installed, emits the per-round profile event.
fn observe_delivery(metrics: &SimMetrics, outcome: &DeliverOutcome, superstep: u64) {
    metrics.messages_delivered.add(outcome.messages);
    metrics.buffer_reuse_hits.add(outcome.reused_buffers);
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
}

/// Runs a program to completion over the chunk table of a freshly
/// reset [`NodeState`] under the given phase driver; the semantics of
/// [`crate::Executor::run`], shared by every backend. Pooled runs share
/// the table with scoped workers; the final node states stay in the
/// session's [`NodeState`].
pub(crate) fn run_loop<P, D>(
    graph: &Graph,
    bandwidth: u64,
    cut: Option<&CutMeter>,
    table: &ChunkTable<'_, P>,
    delivery: &mut Delivery,
    driver: &D,
    max_supersteps: u64,
) -> Result<RunReport, SimError>
where
    P: Program,
    D: PhaseDriver<P>,
{
    let n = table.n();
    let metrics = sim_metrics();
    metrics.runs.inc();
    // audit:allow(R2): span timing for the sim.run telemetry event —
    // rounds/messages/verdicts never read the clock.
    let started = Instant::now();
    let mut span = telemetry::Span::begin("sim.run").with("n", n);
    delivery.reset(graph, table);
    let mut stats = CongestionStats::default();
    let mut cut_words: u64 = 0;
    let mut rounds: u64 = 0;
    let mut supersteps: u64 = 0;
    // One guard vector for the whole run, emptied before every node
    // phase (the driver locks chunks itself).
    let mut guards = Vec::with_capacity(table.chunk_count());

    // Init phase: superstep-0 sends.
    driver.run_phase(table, graph, None);
    table.lock_all(&mut guards);
    if guards
        .iter()
        .any(|c| c.outboxes.iter().any(|o| !o.is_empty()))
    {
        let outcome = delivery.deliver(
            graph,
            bandwidth,
            cut,
            &mut cut_words,
            table.shift,
            &mut guards,
            &mut stats,
        )?;
        rounds += outcome.round_cost;
        observe_delivery(metrics, &outcome, 0);
    }
    let mut finished = guards.iter().all(|c| c.live == 0 && c.pending == 0);
    guards.clear();

    while !finished {
        if supersteps >= max_supersteps {
            return Err(SimError::StepLimitExceeded {
                limit: max_supersteps,
            });
        }
        driver.run_phase(table, graph, Some(supersteps as usize));
        supersteps += 1;
        metrics.supersteps.inc();
        table.lock_all(&mut guards);
        let outcome = delivery.deliver(
            graph,
            bandwidth,
            cut,
            &mut cut_words,
            table.shift,
            &mut guards,
            &mut stats,
        )?;
        rounds += outcome.round_cost;
        observe_delivery(metrics, &outcome, supersteps);
        finished = guards.iter().all(|c| c.live == 0 && c.pending == 0);
        guards.clear();
    }

    if supersteps > 0 {
        let secs = started.elapsed().as_secs_f64().max(1e-9);
        metrics
            .run_supersteps_per_sec
            .record((supersteps as f64 / secs) as u64);
    }
    span.push("supersteps", supersteps);
    span.push("rounds", rounds);
    span.push("messages", stats.total_messages);

    let mut rejecting_nodes: Vec<u32> = Vec::new();
    table.lock_all(&mut guards);
    for guard in &guards {
        for (off, p) in guard.nodes.iter().enumerate() {
            if p.decision() == Decision::Reject {
                rejecting_nodes.push((guard.base + off) as u32);
            }
        }
    }
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
