//! Graph substrate for the even-cycle CONGEST reproduction.
//!
//! This crate provides everything the distributed algorithms of
//! Fraigniaud–Luce–Magniez–Todinca (PODC 2024) need to know about graphs,
//! *outside* the CONGEST model itself:
//!
//! * a compact, immutable [`Graph`] type (CSR adjacency, sorted neighbor
//!   lists) together with a mutable [`GraphBuilder`];
//! * deterministic, seedable [`generators`] — from plain paths and cycles to
//!   Erdős–Rényi graphs, planted-cycle instances, and the dense
//!   `C4`-free polarity graphs used by the lower-bound gadgets;
//! * exact combinatorial [`analysis`]: BFS, diameter, connectivity, girth,
//!   bipartiteness, and — crucially — exact ground truth for
//!   "does `G` contain the cycle `C_ℓ` as a subgraph?", against which all
//!   distributed detectors are validated;
//! * [`CycleWitness`], the certified-cycle type every rejection produces;
//! * the dynamic-graph layer: [`MutableGraph`] (an adjacency-delta overlay
//!   on the CSR base with periodic compaction) and [`UpdateSchedule`]
//!   (seeded, fingerprintable edge-update streams with checkpoints).
//!
//! # Example
//!
//! ```
//! use congest_graph::{generators, analysis};
//!
//! // A 6-cycle with two pendant paths contains C6 and nothing shorter.
//! let g = generators::cycle(6);
//! assert_eq!(analysis::girth(&g), Some(6));
//! assert!(analysis::find_cycle_exact(&g, 6, None).is_some());
//! assert!(analysis::find_cycle_exact(&g, 4, None).is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod error;
mod graph;
mod witness;

pub mod analysis;
pub mod generators;
pub mod mutable;
pub mod serialize;
pub mod spec;
pub mod stream;

pub use builder::GraphBuilder;
pub use error::GraphError;
pub use graph::{EdgeIter, Graph, NodeId};
pub use mutable::MutableGraph;
pub use spec::FamilySpec;
pub use stream::{EdgeUpdate, ScheduleReplay, UpdateSchedule};
pub use witness::CycleWitness;
