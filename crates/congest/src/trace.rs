//! Execution tracing for protocol debugging.
//!
//! A [`Trace`] records, per superstep, every message with its endpoints
//! and word size. Traces are collected by [`run_traced`] — a transparent
//! program wrapper over the logical executor with identical semantics
//! and costs — and support the queries protocol debugging actually
//! needs: per-edge load over time, a node's conversation history, and
//! wire-dump rendering.

use std::sync::{Arc, Mutex, PoisonError};

use congest_graph::{Graph, NodeId};

use crate::backend::Backend;
use crate::error::SimError;
use crate::message::MessageSize;
use crate::metrics::RunReport;
use crate::program::Program;
use crate::Executor;

/// One recorded message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Superstep at which the message was *sent*.
    pub superstep: u64,
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Size in words.
    pub words: usize,
}

/// A full message trace of one execution.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// All events, in send order (superstep, then sender id).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events involving `v` (as sender or receiver).
    pub fn involving(&self, v: NodeId) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.from == v || e.to == v)
            .collect()
    }

    /// Total words sent during `superstep` over the directed edge
    /// `from → to`.
    pub fn edge_load(&self, superstep: u64, from: NodeId, to: NodeId) -> usize {
        self.events
            .iter()
            .filter(|e| e.superstep == superstep && e.from == from && e.to == to)
            .map(|e| e.words)
            .sum()
    }

    /// The heaviest directed edge load in any single superstep — must
    /// equal the executor's congestion statistic (asserted in tests).
    pub fn peak_edge_load(&self) -> usize {
        use std::collections::HashMap;
        let mut loads: HashMap<(u64, NodeId, NodeId), usize> = HashMap::new();
        for e in &self.events {
            *loads.entry((e.superstep, e.from, e.to)).or_insert(0) += e.words;
        }
        loads.values().copied().max().unwrap_or(0)
    }

    /// Renders a human-readable dump (one line per event), for debugging
    /// sessions and golden tests.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&format!(
                "[step {:>3}] {} -> {} ({} word{})\n",
                e.superstep,
                e.from,
                e.to,
                e.words,
                if e.words == 1 { "" } else { "s" }
            ));
        }
        out
    }
}

/// A program wrapper that records every outgoing message of the inner
/// program into a shared trace buffer.
#[derive(Debug)]
struct Traced<P> {
    inner: P,
    node: NodeId,
    log: Arc<Mutex<Vec<TraceEvent>>>,
    neighbors: Vec<NodeId>,
}

impl<P: Program> Program for Traced<P> {
    type Msg = P::Msg;

    fn init(&mut self, ctx: &mut crate::Ctx, out: &mut crate::Outbox<P::Msg>) {
        self.neighbors = ctx.neighbors.to_vec();
        self.inner.init(ctx, out);
        self.record(out, 0);
    }

    fn step(
        &mut self,
        ctx: &mut crate::Ctx,
        superstep: usize,
        inbox: &[(NodeId, P::Msg)],
        out: &mut crate::Outbox<P::Msg>,
    ) -> crate::Control {
        let control = self.inner.step(ctx, superstep, inbox, out);
        self.record(out, superstep as u64 + 1);
        control
    }

    fn decision(&self) -> crate::Decision {
        self.inner.decision()
    }

    fn recycle(&mut self, fresh: Self) {
        self.inner.recycle(fresh.inner);
        self.node = fresh.node;
        self.log = fresh.log;
        self.neighbors = fresh.neighbors;
    }
}

impl<P: Program> Traced<P> {
    fn record(&self, out: &crate::Outbox<P::Msg>, superstep: u64) {
        let mut log = self.log.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(msg) = &out.broadcast {
            for &to in &self.neighbors {
                log.push(TraceEvent {
                    superstep,
                    from: self.node,
                    to,
                    words: msg.words(),
                });
            }
        }
        for (to, msg) in &out.messages {
            log.push(TraceEvent {
                superstep,
                from: self.node,
                to: *to,
                words: msg.words(),
            });
        }
    }
}

/// Runs a program under the logical executor while recording a full
/// message [`Trace`].
///
/// Same semantics and costs as [`Executor::run`] (the wrapper adds no
/// messages); returns the report together with the trace.
///
/// # Errors
///
/// Same as [`Executor::run`].
pub fn run_traced<P, F>(
    graph: &Graph,
    seed: u64,
    factory: F,
    max_supersteps: u64,
) -> Result<(RunReport, Trace), SimError>
where
    P: Program + Send,
    P::Msg: Send + Sync,
    F: FnMut(NodeId, usize) -> P,
{
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut factory = factory;
    let mut exec = Executor::new(Backend::Sequential);
    let report = exec.run(
        graph,
        seed,
        |v, n| Traced {
            inner: factory(v, n),
            node: v,
            log: Arc::clone(&log),
            neighbors: Vec::new(),
        },
        max_supersteps,
    )?;
    let mut events = std::mem::take(&mut *log.lock().unwrap_or_else(PoisonError::into_inner));
    events.sort_by_key(|e| (e.superstep, e.from, e.to));
    Ok((report, Trace { events }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Control, Ctx, Outbox, Program};
    use congest_graph::generators;

    struct Ping {
        hops: usize,
    }

    impl Program for Ping {
        type Msg = Vec<u32>;
        fn init(&mut self, ctx: &mut Ctx, out: &mut Outbox<Vec<u32>>) {
            if ctx.node.raw() == 0 {
                out.send(ctx.neighbors[0], vec![7; 3]);
            }
        }
        fn step(
            &mut self,
            ctx: &mut Ctx,
            s: usize,
            inbox: &[(NodeId, Vec<u32>)],
            out: &mut Outbox<Vec<u32>>,
        ) -> Control {
            if s < self.hops {
                for (_, msg) in inbox {
                    // forward down the path
                    if let Some(&next) = ctx.neighbors.iter().find(|&&w| w > ctx.node) {
                        out.send(next, msg.clone());
                    }
                }
                Control::Continue
            } else {
                Control::Halt
            }
        }
    }

    #[test]
    fn trace_records_the_relay() {
        let g = generators::path(5);
        let (report, trace) = run_traced(&g, 1, |_, _| Ping { hops: 4 }, 10).unwrap();
        // Message relayed 0→1→2→3→4: 4 events of 3 words.
        assert_eq!(trace.events().len(), 4);
        for (i, e) in trace.events().iter().enumerate() {
            assert_eq!(e.from, NodeId::new(i as u32));
            assert_eq!(e.to, NodeId::new(i as u32 + 1));
            assert_eq!(e.words, 3);
        }
        assert_eq!(
            trace.peak_edge_load() as u64,
            report.congestion.max_words_per_edge_step,
            "trace must agree with the executor's accounting"
        );
        assert_eq!(trace.edge_load(0, NodeId::new(0), NodeId::new(1)), 3);
        assert_eq!(trace.edge_load(0, NodeId::new(1), NodeId::new(2)), 0);
    }

    #[test]
    fn involving_filters_by_endpoint() {
        let g = generators::path(4);
        let (_, trace) = run_traced(&g, 1, |_, _| Ping { hops: 3 }, 10).unwrap();
        assert_eq!(trace.involving(NodeId::new(0)).len(), 1);
        assert_eq!(trace.involving(NodeId::new(1)).len(), 2);
        assert_eq!(trace.involving(NodeId::new(3)).len(), 1);
    }

    #[test]
    fn render_is_line_per_event() {
        let g = generators::path(3);
        let (_, trace) = run_traced(&g, 1, |_, _| Ping { hops: 2 }, 10).unwrap();
        let dump = trace.render();
        assert_eq!(dump.lines().count(), trace.events().len());
        assert!(dump.contains("->"));
    }
}
