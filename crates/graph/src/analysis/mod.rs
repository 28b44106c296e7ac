//! Exact combinatorial analysis used as ground truth for the distributed
//! detectors.
//!
//! Nothing in this module is distributed — these are the centralized
//! oracles the experiments compare against: BFS distances and diameter,
//! connectivity, exact girth, exact fixed-length-cycle containment (the
//! property `C_ℓ ⊆ G` the CONGEST algorithms decide), exact cycle
//! counts, the nodes that lie on a cycle of given lengths, color-coding
//! search, and bipartiteness.

mod bipartite;
mod components;
mod cycles;
mod distance;
mod girth;

pub use bipartite::{bipartition, is_bipartite};
pub use components::{connected_components, is_connected, Components};
pub use cycles::{
    count_cycles_exact, find_cycle_color_coding, find_cycle_exact, has_cycle_exact, nodes_on_cycles,
};
pub use distance::{bfs_distances, bfs_distances_bounded, diameter};
pub use girth::girth;
