//! Exact combinatorial analysis used as ground truth for the distributed
//! detectors.
//!
//! Nothing in this module is distributed — these are the centralized
//! oracles the experiments compare against: BFS distances and diameter,
//! connectivity, exact girth, exact fixed-length-cycle containment (the
//! property `C_ℓ ⊆ G` the CONGEST algorithms decide), the nodes that lie
//! on a cycle of given lengths, color-coding search, degeneracy, and
//! bipartiteness.

mod bipartite;
mod components;
mod cycles;
mod degeneracy;
mod distance;
mod girth;

pub use bipartite::{bipartition, is_bipartite};
pub use components::{connected_components, is_connected, Components};
pub use cycles::{
    contains_cycle_up_to, count_cycles_exact, cycle_spectrum, find_cycle_color_coding,
    find_cycle_exact, has_cycle_exact, nodes_on_cycles,
};
pub use degeneracy::{degeneracy, degeneracy_ordering};
pub use distance::{bfs_distances, bfs_distances_bounded, diameter, eccentricity};
pub use girth::girth;
