//! A deterministic simulator for the CONGEST model of distributed
//! computing.
//!
//! In the CONGEST model (Peleg \[32\]), a network is a simple connected
//! `n`-vertex graph whose vertices are processors. Computation proceeds in
//! synchronous rounds; in each round every node may send one message of
//! `O(log n)` bits along each incident edge. This crate simulates that
//! model faithfully enough for the algorithms of the even-cycle paper:
//!
//! * **Node programs** ([`Program`]) see only their local state: their id,
//!   their degree and neighbor ids, `n`, and a private seeded RNG. They
//!   communicate exclusively through [`Outbox::send`] /
//!   [`Outbox::broadcast`]. Sending to a non-neighbor is a simulation
//!   error — the model physically forbids it.
//! * **Message accounting is in words**: one *word* is one `O(log n)`-bit
//!   unit (a node identifier). A superstep in which some edge carries `w`
//!   words is charged `⌈w/B⌉` rounds, where `B` is the bandwidth in words
//!   per edge per round (`B = 1` is classical CONGEST). The
//!   [`logical`](Executor::run) executor charges this cost directly; the
//!   [`strict`](strict::StrictExecutor) executor actually chops messages
//!   into `B`-word chunks and iterates rounds, and tests assert both give
//!   identical totals and decisions.
//! * **One way to run a simulation**: an [`Executor`] is a reusable
//!   session on a [`Backend`] (sequential, or a worker pool per run);
//!   each run names its graph and seed, and the session keeps its
//!   buffers between runs. [`run_with_backend`] is the one-shot form.
//! * **Everything is replayable**: all randomness derives from a master
//!   seed via per-node independent streams.
//! * **Cut metering** ([`CutMeter`]) counts the bits crossing a vertex
//!   bipartition, which is what the Set-Disjointness lower-bound
//!   reductions of the paper's §3.3 measure.
//!
//! # Example: distributed maximum finding
//!
//! ```
//! use congest_graph::{generators, NodeId};
//! use congest_sim::{Backend, Control, Ctx, Executor, Outbox, Program};
//!
//! /// Flood the maximum id for a fixed number of steps.
//! struct MaxFlood { best: u32, rounds: usize }
//!
//! impl Program for MaxFlood {
//!     type Msg = u32;
//!     fn init(&mut self, ctx: &mut Ctx, out: &mut Outbox<u32>) {
//!         self.best = ctx.node.raw();
//!         out.broadcast(self.best);
//!     }
//!     fn step(
//!         &mut self,
//!         _ctx: &mut Ctx,
//!         step: usize,
//!         inbox: &[(NodeId, u32)],
//!         out: &mut Outbox<u32>,
//!     ) -> Control {
//!         let incoming = inbox.iter().map(|(_, m)| *m).max().unwrap_or(0);
//!         if incoming > self.best {
//!             self.best = incoming;
//!             out.broadcast(self.best);
//!         }
//!         if step + 1 >= self.rounds { Control::Halt } else { Control::Continue }
//!     }
//! }
//!
//! let g = generators::cycle(8);
//! let mut exec = Executor::new(Backend::Sequential);
//! let report = exec.run(&g, 99, |_, _| MaxFlood { best: 0, rounds: 8 }, 16)?;
//! assert!(exec.nodes().iter().all(|p| p.best == 7));
//! assert!(report.rounds >= 4);
//! # Ok::<(), congest_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
mod core;
mod cut;
mod error;
mod executor;
mod message;
mod metrics;
mod pool;
mod program;
pub mod strict;
pub mod trace;
pub mod wire;

pub use backend::Backend;
pub use cut::CutMeter;
pub use error::SimError;
pub use executor::Executor;
pub use message::MessageSize;
pub use metrics::{CongestionStats, RunReport};
pub use program::{Control, Ctx, Decision, NodeRng, Outbox, Program};

use congest_graph::{Graph, NodeId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Runs a program once under the given [`Backend`], returning the
/// report and the final per-node states: a one-shot wrapper over a
/// temporary [`Executor`] session, whose buffers are freed on return.
/// Loops that run one program type many times should hold an
/// [`Executor`] instead, so its buffers are reused.
///
/// # Errors
///
/// Same as [`Executor::run`].
pub fn run_with_backend<P, F>(
    graph: &Graph,
    seed: u64,
    backend: Backend,
    bandwidth: u64,
    cut: Option<CutMeter>,
    factory: F,
    max_supersteps: u64,
) -> Result<(RunReport, Vec<P>), SimError>
where
    P: Program + Send,
    P::Msg: Send + Sync,
    F: FnMut(NodeId, usize) -> P,
{
    let mut session = Executor::new(backend);
    session.set_bandwidth(bandwidth);
    if let Some(cut) = cut {
        session.set_cut(cut);
    }
    let report = session.run(graph, seed, factory, max_supersteps)?;
    Ok((report, session.into_nodes()))
}

/// The private random stream node `v` reads through [`Ctx::rng`] in a
/// run with seed `seed`. Every executor seeds node streams here, on
/// each node's first draw ([`NodeRng`]), so
/// code that needs only a node's first draws (say, a coin its program
/// flips in [`Program::init`]) can replay them without running the
/// program.
pub fn node_rng(seed: u64, v: NodeId) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(derive_seed(seed, u64::from(v.raw())))
}

/// Derives a stream-specific 64-bit seed from a master seed and a stream
/// label, via SplitMix64 finalization. Used everywhere a sub-component
/// needs its own independent randomness.
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    let mut z = master.wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_by_stream() {
        let a = derive_seed(1, 0);
        let b = derive_seed(1, 1);
        let c = derive_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, derive_seed(1, 0), "deterministic");
    }
}
