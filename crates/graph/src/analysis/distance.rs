//! BFS distances and diameter.

use std::collections::VecDeque;

use crate::{Graph, NodeId};

/// Marker for "unreachable" in distance vectors.
pub(crate) const UNREACHABLE: u32 = u32::MAX;

/// BFS distances from `source`; unreachable vertices get `None`.
pub fn bfs_distances(g: &Graph, source: NodeId) -> Vec<Option<u32>> {
    bfs_distances_bounded(g, source, u32::MAX)
}

/// BFS distances from `source`, exploring only up to distance `bound`;
/// vertices farther than `bound` (or unreachable) get `None`.
pub fn bfs_distances_bounded(g: &Graph, source: NodeId, bound: u32) -> Vec<Option<u32>> {
    let mut dist = vec![UNREACHABLE; g.node_count()];
    let mut queue = VecDeque::new();
    dist[source.index()] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        if du >= bound {
            continue;
        }
        for &v in g.neighbors(u) {
            if dist[v.index()] == UNREACHABLE {
                dist[v.index()] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist.into_iter()
        .map(|d| if d == UNREACHABLE { None } else { Some(d) })
        .collect()
}

/// Exact diameter: the largest BFS distance between two vertices, or
/// `None` if the graph is disconnected (or empty).
///
/// `O(n·m)`; intended for the simulation scales of this workspace.
pub fn diameter(g: &Graph) -> Option<u32> {
    let n = g.node_count();
    if n == 0 {
        return None;
    }
    let mut best = 0;
    for v in g.nodes() {
        let d = bfs_distances(g, v);
        if d.iter().any(Option::is_none) {
            return None; // disconnected
        }
        best = best.max(d.into_iter().flatten().max().unwrap_or(0));
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn distances_on_path() {
        let g = generators::path(5);
        let d = bfs_distances(&g, NodeId::new(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn bounded_distances_cut_off() {
        let g = generators::path(5);
        let d = bfs_distances_bounded(&g, NodeId::new(0), 2);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), None, None]);
    }

    #[test]
    fn diameter_of_cycle() {
        assert_eq!(diameter(&generators::cycle(8)), Some(4));
        assert_eq!(diameter(&generators::cycle(9)), Some(4));
    }

    #[test]
    fn diameter_disconnected_is_none() {
        let g = generators::empty(3);
        assert_eq!(diameter(&g), None);
    }

    #[test]
    fn diameter_single_vertex() {
        assert_eq!(diameter(&generators::empty(1)), Some(0));
        assert_eq!(diameter(&generators::empty(0)), None);
    }

    #[test]
    fn unreachable_distance_none() {
        let g = generators::empty(4);
        let d = bfs_distances(&g, NodeId::new(1));
        assert_eq!(d, vec![None, Some(0), None, None]);
    }
}
