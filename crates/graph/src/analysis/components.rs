//! Connected components.

use std::collections::VecDeque;

use crate::{Graph, NodeId};

/// The connected-component structure of a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    labels: Vec<u32>,
    count: usize,
}

impl Components {
    /// Number of connected components.
    pub fn component_count(&self) -> usize {
        self.count
    }

    /// The component label of `v` (labels are `0..component_count()`).
    pub fn label(&self, v: NodeId) -> u32 {
        self.labels[v.index()]
    }

    /// The vertex sets of all components.
    pub fn members(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.count];
        for (i, &label) in self.labels.iter().enumerate() {
            out[label as usize].push(NodeId::new(i as u32));
        }
        out
    }
}

/// Computes connected components by repeated BFS.
pub fn connected_components(g: &Graph) -> Components {
    let n = g.node_count();
    let mut labels = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut queue = VecDeque::new();
    for start in g.nodes() {
        if labels[start.index()] != u32::MAX {
            continue;
        }
        labels[start.index()] = count;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if labels[v.index()] == u32::MAX {
                    labels[v.index()] = count;
                    queue.push_back(v);
                }
            }
        }
        count += 1;
    }
    Components {
        labels,
        count: count as usize,
    }
}

/// Whether the graph is connected (the empty graph counts as connected).
pub fn is_connected(g: &Graph) -> bool {
    connected_components(g).component_count() <= 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn single_component() {
        let g = generators::cycle(5);
        let c = connected_components(&g);
        assert_eq!(c.component_count(), 1);
        assert!(is_connected(&g));
    }

    #[test]
    fn isolated_vertices() {
        let g = generators::empty(4);
        let c = connected_components(&g);
        assert_eq!(c.component_count(), 4);
        assert_ne!(c.label(NodeId::new(0)), c.label(NodeId::new(1)));
    }

    #[test]
    fn union_components() {
        let g = generators::disjoint_union(&generators::cycle(3), &generators::path(4));
        let c = connected_components(&g);
        assert_eq!(c.component_count(), 2);
        let members = c.members();
        assert_eq!(members[0].len() + members[1].len(), 7);
        assert_eq!(c.label(NodeId::new(0)), c.label(NodeId::new(2)));
        assert_ne!(c.label(NodeId::new(0)), c.label(NodeId::new(5)));
    }

    #[test]
    fn empty_graph_connected() {
        assert!(is_connected(&generators::empty(0)));
        assert!(is_connected(&generators::empty(1)));
        assert!(!is_connected(&generators::empty(2)));
    }
}
