//! The core immutable graph type.

use std::fmt;

use crate::error::GraphError;
use crate::GraphBuilder;

/// Identifier of a vertex in a [`Graph`].
///
/// Node identifiers are dense: a graph on `n` vertices uses exactly the ids
/// `0..n`. In the CONGEST model the identifier is the `O(log n)`-bit value a
/// node knows about itself and learns about its neighbors; one `NodeId` is
/// the unit of message accounting ("one word").
///
/// ```
/// use congest_graph::NodeId;
/// let v = NodeId::new(3);
/// assert_eq!(v.index(), 3);
/// assert_eq!(format!("{v}"), "3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node identifier from its raw index.
    pub const fn new(raw: u32) -> Self {
        NodeId(raw)
    }

    /// Returns the identifier as a `usize` index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(raw: u32) -> Self {
        NodeId(raw)
    }
}

impl From<NodeId> for u32 {
    fn from(id: NodeId) -> Self {
        id.0
    }
}

/// An immutable, simple, undirected graph in CSR (compressed sparse row)
/// form with sorted adjacency lists.
///
/// This is the input type of every algorithm in the workspace: the network
/// topology of the CONGEST model. Simplicity (no self-loops, no parallel
/// edges) is enforced at construction.
///
/// ```
/// use congest_graph::Graph;
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])?;
/// assert_eq!(g.node_count(), 4);
/// assert_eq!(g.edge_count(), 4);
/// assert!(g.has_edge(0.into(), 1.into()));
/// assert!(!g.has_edge(0.into(), 2.into()));
/// # Ok::<(), congest_graph::GraphError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `adj` for vertex `v`.
    offsets: Vec<u32>,
    /// Concatenated sorted adjacency lists.
    adj: Vec<NodeId>,
}

impl Graph {
    /// Builds a graph on `n` vertices from an edge iterator.
    ///
    /// Duplicate edges are merged silently; both orientations may appear.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] for an edge `(u, u)` and
    /// [`GraphError::NodeOutOfRange`] if an endpoint is `>= n`.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.try_add_edge(NodeId::new(u), NodeId::new(v))?;
        }
        Ok(b.build())
    }

    /// Builds a graph with no edges on `n` vertices.
    pub fn empty(n: usize) -> Self {
        GraphBuilder::new(n).build()
    }

    pub(crate) fn from_sorted_csr(offsets: Vec<u32>, adj: Vec<NodeId>) -> Self {
        debug_assert!(!offsets.is_empty());
        Graph { offsets, adj }
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.adj.len() / 2
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: NodeId) -> usize {
        let i = v.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// The sorted neighbor list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let i = v.index();
        &self.adj[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Whether the edge `{u, v}` is present. `O(log deg(u))`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all vertex ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId::new)
    }

    /// Iterator over all edges, each reported once with `u < v`.
    pub fn edges(&self) -> EdgeIter<'_> {
        EdgeIter {
            graph: self,
            u: 0,
            pos: 0,
        }
    }

    /// The subgraph induced by the vertices with `keep[v] == true`.
    ///
    /// Returns the induced graph (with vertices renumbered densely) and the
    /// mapping from new ids back to original ids.
    ///
    /// # Panics
    ///
    /// Panics if `keep.len() != self.node_count()`.
    pub fn induced_subgraph(&self, keep: &[bool]) -> (Graph, Vec<NodeId>) {
        assert_eq!(keep.len(), self.node_count(), "mask length mismatch");
        let mut old_to_new = vec![u32::MAX; self.node_count()];
        let mut new_to_old = Vec::new();
        for v in self.nodes() {
            if keep[v.index()] {
                old_to_new[v.index()] = new_to_old.len() as u32;
                new_to_old.push(v);
            }
        }
        let mut b = GraphBuilder::new(new_to_old.len());
        for (u, v) in self.edges() {
            if keep[u.index()] && keep[v.index()] {
                b.add_edge(
                    NodeId::new(old_to_new[u.index()]),
                    NodeId::new(old_to_new[v.index()]),
                );
            }
        }
        (b.build(), new_to_old)
    }

    /// Sum of degrees (twice the edge count).
    pub fn degree_sum(&self) -> usize {
        self.adj.len()
    }

    /// Number of *directed* edges (`2m`); the index space of
    /// [`Graph::directed_edge_index`].
    pub fn directed_edge_count(&self) -> usize {
        self.adj.len()
    }

    /// A dense index in `0..2m` for the directed edge `from → to`, or
    /// `None` if the edge is absent. Used by simulators to account
    /// per-edge traffic without hashing.
    pub fn directed_edge_index(&self, from: NodeId, to: NodeId) -> Option<usize> {
        let nbrs = self.neighbors(from);
        nbrs.binary_search(&to)
            .ok()
            .map(|pos| self.first_edge_index(from) + pos)
    }

    /// The [`Graph::directed_edge_index`] of the edge from `v` to its
    /// first neighbor: the edge to the `i`-th entry of
    /// [`Graph::neighbors`]`(v)` has index `first_edge_index(v) + i`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn first_edge_index(&self, v: NodeId) -> usize {
        self.offsets[v.index()] as usize
    }

    /// Returns the list of all edges as `(u, v)` pairs with `u < v`.
    pub fn edge_vec(&self) -> Vec<(NodeId, NodeId)> {
        self.edges().collect()
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(n={}, m={})", self.node_count(), self.edge_count())
    }
}

/// Iterator over the edges of a [`Graph`]; see [`Graph::edges`].
#[derive(Debug, Clone)]
pub struct EdgeIter<'a> {
    graph: &'a Graph,
    u: u32,
    pos: usize,
}

impl Iterator for EdgeIter<'_> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<Self::Item> {
        let n = self.graph.node_count() as u32;
        while self.u < n {
            let u = NodeId::new(self.u);
            let nbrs = self.graph.neighbors(u);
            while self.pos < nbrs.len() {
                let v = nbrs[self.pos];
                self.pos += 1;
                if u < v {
                    return Some((u, v));
                }
            }
            self.u += 1;
            self.pos = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let v = NodeId::new(42);
        assert_eq!(v.index(), 42);
        assert_eq!(v.raw(), 42);
        assert_eq!(u32::from(v), 42);
        assert_eq!(NodeId::from(42u32), v);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn zero_vertex_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.nodes().count(), 0);
    }

    #[test]
    fn from_edges_basic() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(NodeId::new(1)), 2);
        assert_eq!(
            g.neighbors(NodeId::new(1)),
            &[NodeId::new(0), NodeId::new(2)]
        );
    }

    #[test]
    fn from_edges_dedup_and_orientation() {
        let g = Graph::from_edges(2, [(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn self_loop_rejected() {
        assert!(matches!(
            Graph::from_edges(2, [(1, 1)]),
            Err(GraphError::SelfLoop { .. })
        ));
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(matches!(
            Graph::from_edges(2, [(0, 2)]),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn edge_iter_reports_each_edge_once() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        let edges = g.edge_vec();
        assert_eq!(edges.len(), 5);
        for (u, v) in edges {
            assert!(u < v);
        }
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let keep = vec![true, true, true, false, false];
        let (h, back) = g.induced_subgraph(&keep);
        assert_eq!(h.node_count(), 3);
        assert_eq!(h.edge_count(), 2); // 0-1, 1-2 survive
        assert_eq!(back, vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
    }

    #[test]
    fn induced_subgraph_empty_mask() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let (h, back) = g.induced_subgraph(&[false, false, false]);
        assert_eq!(h.node_count(), 0);
        assert!(back.is_empty());
    }

    #[test]
    fn has_edge_symmetry() {
        let g = Graph::from_edges(3, [(0, 2)]).unwrap();
        assert!(g.has_edge(NodeId::new(0), NodeId::new(2)));
        assert!(g.has_edge(NodeId::new(2), NodeId::new(0)));
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(1)));
    }

    #[test]
    fn directed_edges_are_numbered_in_neighbor_order() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (4, 1)]).unwrap();
        let mut seen = Vec::new();
        for v in g.nodes() {
            for (i, &u) in g.neighbors(v).iter().enumerate() {
                let e = g.directed_edge_index(v, u);
                assert_eq!(e, Some(g.first_edge_index(v) + i), "{v:?} -> {u:?}");
                seen.extend(e);
            }
        }
        assert_eq!(seen, (0..g.directed_edge_count()).collect::<Vec<_>>());
        assert_eq!(g.directed_edge_index(NodeId::new(4), NodeId::new(0)), None);
    }
}
