//! Node programs: the local algorithms run by each vertex.

use congest_graph::NodeId;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::message::MessageSize;
use crate::node_rng;

/// The local view a node has of the network — everything a CONGEST
/// algorithm is allowed to know before communicating.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// This node's identifier.
    pub node: NodeId,
    /// The total number of vertices `n` (standard prior knowledge in the
    /// paper: "the only prior knowledge given to each node … is the size
    /// `n = |V|` of the input graph").
    pub n: usize,
    /// The identifiers of this node's neighbors (sorted).
    pub neighbors: &'a [NodeId],
    /// Private per-node randomness, derived from the master seed: the
    /// stream [`node_rng`]`(seed, node)` of the run's seed, seeded on
    /// the node's first draw.
    pub rng: NodeRng<'a>,
}

/// A node's private random stream in one run: [`node_rng`]`(seed, v)`,
/// seeded the first time node `v` draws, so the draws are exactly those
/// of a stream seeded up front, and a node that never draws costs no key
/// schedule. Implements [`RngCore`], so every `rand::Rng` method works
/// on it.
///
/// The stream lives in a slot its executor keeps from run to run, beside
/// one "seeded" bit per node; an executor starts a run by clearing the
/// bits, which is all it takes to give every node a fresh stream.
#[derive(Debug)]
pub struct NodeRng<'a> {
    slot: &'a mut ChaCha8Rng,
    /// The word holding the node's "seeded" bit.
    seeded: &'a mut u64,
    bit: u64,
    seed: u64,
    node: NodeId,
}

impl<'a> NodeRng<'a> {
    /// The stream of `node` in a run with seed `seed`, kept in `slot`;
    /// bit `bit` of `seeded` says whether `slot` already holds it.
    pub(crate) fn new(
        slot: &'a mut ChaCha8Rng,
        seeded: &'a mut u64,
        bit: usize,
        seed: u64,
        node: NodeId,
    ) -> Self {
        NodeRng {
            slot,
            seeded,
            bit: 1 << bit,
            seed,
            node,
        }
    }

    /// A value for a slot no node has drawn from yet; the first draw
    /// replaces it.
    pub(crate) fn empty_slot() -> ChaCha8Rng {
        ChaCha8Rng::from_seed(Default::default())
    }

    /// The node's stream, seeded now if this is its first draw.
    #[inline]
    fn stream(&mut self) -> &mut ChaCha8Rng {
        if *self.seeded & self.bit == 0 {
            *self.slot = node_rng(self.seed, self.node);
            *self.seeded |= self.bit;
        }
        self.slot
    }
}

impl RngCore for NodeRng<'_> {
    fn next_u32(&mut self) -> u32 {
        self.stream().next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.stream().next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.stream().fill_bytes(dest);
    }
}

impl Ctx<'_> {
    /// This node's degree.
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }
}

/// Whether a node keeps participating after a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Control {
    /// Keep stepping.
    Continue,
    /// Stop; the node will not be stepped again (its queued messages are
    /// still delivered to neighbors).
    Halt,
}

/// A node's final verdict, following the paper's decision rule: the graph
/// is declared `H`-free iff *all* nodes accept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Decision {
    /// The node found no evidence of the forbidden subgraph.
    #[default]
    Accept,
    /// The node found the forbidden subgraph.
    Reject,
}

/// Messages queued by a node during one superstep.
#[derive(Debug)]
pub struct Outbox<M> {
    pub(crate) messages: Vec<(NodeId, M)>,
    pub(crate) broadcast: Option<M>,
}

impl<M: Clone + MessageSize> Outbox<M> {
    pub(crate) fn new() -> Self {
        Outbox {
            messages: Vec::new(),
            broadcast: None,
        }
    }

    /// Queues `msg` for delivery to neighbor `to` at the next superstep.
    ///
    /// `to` must be a neighbor; this is validated at collection time and
    /// violations surface as [`crate::SimError::NotANeighbor`].
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.messages.push((to, msg));
    }

    /// Queues `msg` for delivery to *all* neighbors.
    ///
    /// Cheaper than `send`-ing in a loop and matches the broadcast-CONGEST
    /// primitive used by several baselines.
    pub fn broadcast(&mut self, msg: M) {
        self.broadcast = Some(msg);
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.messages.is_empty() && self.broadcast.is_none()
    }
}

/// A CONGEST node program.
///
/// One value of the implementing type runs at *each* vertex. The executor
/// calls [`Program::init`] once (superstep 0 sends), then
/// [`Program::step`] once per superstep with the messages received from
/// the previous superstep, until every node halts (or the superstep limit
/// trips).
pub trait Program {
    /// The message type exchanged by this program.
    type Msg: Clone + MessageSize;

    /// Called once before any communication; messages queued here are
    /// delivered at superstep 0.
    fn init(&mut self, ctx: &mut Ctx, out: &mut Outbox<Self::Msg>);

    /// One synchronous superstep: `inbox` holds the messages sent to this
    /// node in the previous superstep, tagged with their senders.
    ///
    /// Every executor guarantees the inbox order: ascending by sender,
    /// and one sender's messages in the order it queued them, its
    /// broadcast first. Since [`Ctx::neighbors`] is sorted too, a
    /// program can find each sender's position with one forward walk
    /// over the neighbor list.
    fn step(
        &mut self,
        ctx: &mut Ctx,
        superstep: usize,
        inbox: &[(NodeId, Self::Msg)],
        out: &mut Outbox<Self::Msg>,
    ) -> Control;

    /// The node's verdict once the run ends. Default: accept.
    fn decision(&self) -> Decision {
        Decision::Accept
    }

    /// Turns this node's state, left by an earlier run of the same
    /// session, into `fresh`, the program the run's factory built for
    /// the node. Default: `*self = fresh`.
    ///
    /// A program that owns buffers can override this to keep their
    /// allocations: it empties them and takes every other field from
    /// `fresh`, so that nothing an earlier run left behind is observable.
    fn recycle(&mut self, fresh: Self)
    where
        Self: Sized,
    {
        *self = fresh;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_collects() {
        let mut out: Outbox<u32> = Outbox::new();
        assert!(out.is_empty());
        out.send(NodeId::new(1), 7);
        assert!(!out.is_empty());
        let mut out2: Outbox<u32> = Outbox::new();
        out2.broadcast(3);
        assert!(!out2.is_empty());
    }

    #[test]
    fn decision_default_is_accept() {
        assert_eq!(Decision::default(), Decision::Accept);
    }
}
