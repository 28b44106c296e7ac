//! Network decomposition and diameter reduction (Lemmas 9–10).
//!
//! Lemma 10 ([17, Thm 17], building on Elkin–Neiman \[19\]) supplies, for a
//! parameter `k`, a set of clusters such that (1) every node is in at
//! least one cluster, (2) clusters are colored with few colors, and
//! (3) same-color clusters are at distance at least `k` from each other.
//! Lemma 9 then runs a subgraph-freeness algorithm color by color on each
//! cluster enlarged by its `k`-neighborhood: components have diameter
//! `O(k log n)`, and any copy of a `k`-vertex connected subgraph `H` lies
//! entirely inside some component.
//!
//! **Substitution note (see DESIGN.md §2.6).** The paper uses the
//! decomposition as a black box with round cost `k·polylog(n)`. We build
//! it with Miller–Peng–Xu exponential-shift ball carving (which yields
//! connected clusters of radius `O(log n / β)` w.h.p.) followed by a
//! greedy distance-`k` coloring of the cluster graph, computed centrally
//! from seeded randomness. The three output guarantees are enforced by
//! tests; the round cost is charged from the lemma's statement.

use congest_graph::{analysis, Graph, NodeId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One cluster of a [`Decomposition`].
#[derive(Debug, Clone)]
pub struct Cluster {
    /// The center whose shifted ball carved this cluster.
    pub center: NodeId,
    /// The members (each node belongs to exactly one cluster).
    pub members: Vec<NodeId>,
    /// The assigned color; same-color clusters are `≥ separation` apart.
    pub color: u32,
}

/// A `(colors, O(k log n))`-network decomposition (Lemma 10).
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// The clusters, covering every vertex exactly once.
    pub clusters: Vec<Cluster>,
    /// Number of colors used.
    pub colors: u32,
    /// The separation parameter: same-color clusters are at graph
    /// distance at least this.
    pub separation: u32,
    /// The round cost charged for the distributed construction,
    /// per Lemma 10: `k · ⌈log₂(n+2)⌉²`.
    pub round_cost: u64,
    /// cluster id of each vertex.
    assignment: Vec<u32>,
}

impl Decomposition {
    /// The cluster index of vertex `v`.
    pub fn cluster_of(&self, v: NodeId) -> u32 {
        self.assignment[v.index()]
    }

    /// The construction's round cost at per-edge bandwidth `B` (words
    /// per round): the Lemma 10 protocol exchanges single-word messages
    /// (shift announcements, cluster ids, color proposals), so a
    /// `B`-word budget per edge divides the charge, `⌈cost/B⌉`.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth == 0`.
    pub fn round_cost_at(&self, bandwidth: u64) -> u64 {
        assert!(bandwidth > 0, "bandwidth must be positive");
        self.round_cost.div_ceil(bandwidth)
    }

    /// Maximum strong diameter over clusters (diameter of the subgraph
    /// induced by each cluster). `None` for an empty decomposition.
    pub fn max_cluster_diameter(&self, g: &Graph) -> Option<u32> {
        let mut best = None;
        for c in &self.clusters {
            let mut keep = vec![false; g.node_count()];
            for &v in &c.members {
                keep[v.index()] = true;
            }
            let (sub, _) = g.induced_subgraph(&keep);
            let d = analysis::diameter(&sub)?; // clusters are connected
            best = Some(best.map_or(d, |b: u32| b.max(d)));
        }
        best
    }
}

/// Builds a network decomposition with same-color separation `≥ sep`
/// (callers pass `sep = 2k + 1` for `2k`-cycle detection, per Lemma 9's
/// use with parameter `2k + 1`).
///
/// # Panics
///
/// Panics if `sep == 0` or the graph is empty.
pub fn decompose(g: &Graph, sep: u32, seed: u64) -> Decomposition {
    assert!(sep > 0, "separation must be positive");
    let n = g.node_count();
    assert!(n > 0, "cannot decompose the empty graph");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    // Exponential shifts: β = 1/(c·(1 + ln n)) gives cluster radius
    // O(log n / 1) = O(log n) w.h.p.; we do not need radius to scale with
    // `sep` (separation is handled by the coloring), so β only depends on
    // n.
    let beta = 1.0 / (2.0 * (1.0 + (n as f64).ln()));
    let shifts: Vec<f64> = (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            -u.ln() / beta // Exp(β)
        })
        .collect();

    // Shifted multi-source Dijkstra: node u joins the center v minimizing
    // d(u, v) - shift_v. Priority queue over f64 keys.
    #[derive(PartialEq)]
    struct Item {
        key: f64,
        node: u32,
        center: u32,
    }
    impl Eq for Item {}
    impl PartialOrd for Item {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Item {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Min-heap on key; tie-break deterministically.
            other
                .key
                .partial_cmp(&self.key)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| other.node.cmp(&self.node))
                .then_with(|| other.center.cmp(&self.center))
        }
    }

    let mut heap = std::collections::BinaryHeap::new();
    for (v, &shift) in shifts.iter().enumerate() {
        heap.push(Item {
            key: -shift,
            node: v as u32,
            center: v as u32,
        });
    }
    let mut best_key = vec![f64::INFINITY; n];
    let mut assignment = vec![u32::MAX; n];
    while let Some(Item { key, node, center }) = heap.pop() {
        let v = node as usize;
        if assignment[v] != u32::MAX {
            continue;
        }
        assignment[v] = center;
        best_key[v] = key;
        for &w in g.neighbors(NodeId::new(node)) {
            if assignment[w.index()] == u32::MAX {
                heap.push(Item {
                    key: key + 1.0,
                    node: w.raw(),
                    center,
                });
            }
        }
    }

    // Compact clusters (centers that won at least one vertex).
    let mut center_to_cluster = vec![u32::MAX; n];
    let mut clusters: Vec<Cluster> = Vec::new();
    for (v, &a) in assignment.iter().enumerate() {
        let c = a as usize;
        if center_to_cluster[c] == u32::MAX {
            center_to_cluster[c] = clusters.len() as u32;
            clusters.push(Cluster {
                center: NodeId::new(c as u32),
                members: Vec::new(),
                color: u32::MAX,
            });
        }
        let idx = center_to_cluster[c] as usize;
        clusters[idx].members.push(NodeId::new(v as u32));
    }
    let cluster_assignment: Vec<u32> = (0..n)
        .map(|v| center_to_cluster[assignment[v] as usize])
        .collect();

    // Cluster graph: clusters within distance < sep conflict. Multi-source
    // BFS from each cluster, bounded by sep - 1 hops.
    let cc = clusters.len();
    let mut conflicts: Vec<std::collections::BTreeSet<u32>> =
        vec![std::collections::BTreeSet::new(); cc];
    let mut dist = vec![u32::MAX; n];
    let mut touched: Vec<usize> = Vec::new();
    for (ci, cluster) in clusters.iter().enumerate() {
        for &t in &touched {
            dist[t] = u32::MAX;
        }
        touched.clear();
        let mut queue = std::collections::VecDeque::new();
        for &v in &cluster.members {
            dist[v.index()] = 0;
            touched.push(v.index());
            queue.push_back(v);
        }
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()];
            if du + 1 >= sep {
                continue;
            }
            for &w in g.neighbors(u) {
                if dist[w.index()] == u32::MAX {
                    dist[w.index()] = du + 1;
                    touched.push(w.index());
                    queue.push_back(w);
                    let other = cluster_assignment[w.index()];
                    if other != ci as u32 {
                        conflicts[ci].insert(other);
                        conflicts[other as usize].insert(ci as u32);
                    }
                }
            }
        }
    }

    // Greedy coloring in decreasing size order.
    let mut order: Vec<usize> = (0..cc).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(clusters[i].members.len()));
    let mut colors_used = 0u32;
    for &i in &order {
        let forbidden: std::collections::BTreeSet<u32> = conflicts[i]
            .iter()
            .map(|&j| clusters[j as usize].color)
            .filter(|&c| c != u32::MAX)
            .collect();
        let mut color = 0u32;
        while forbidden.contains(&color) {
            color += 1;
        }
        clusters[i].color = color;
        colors_used = colors_used.max(color + 1);
    }

    let log_n = ((n + 2) as f64).log2().ceil() as u64;
    Decomposition {
        clusters,
        colors: colors_used,
        separation: sep,
        round_cost: u64::from(sep) * log_n * log_n,
        assignment: cluster_assignment,
    }
}

/// One diameter-reduced component `G(i, k)` of Lemma 9: the subgraph
/// induced by the clusters of one color enlarged by their
/// `radius`-neighborhood.
#[derive(Debug, Clone)]
pub struct ReducedComponent {
    /// The color class this component came from.
    pub color: u32,
    /// The component as a standalone graph (vertices renumbered).
    pub graph: Graph,
    /// Mapping from component vertex ids back to the original graph.
    pub original_ids: Vec<NodeId>,
}

/// Computes the Lemma 9 component family: for each color `i`, the
/// connected components of the union of color-`i` clusters enlarged by
/// their `radius`-neighborhood.
///
/// For `radius = k` and `separation ≥ 2k + 1`, (a) enlargements of
/// distinct same-color clusters stay disconnected, so every component has
/// diameter `O(k log n)`, and (b) every connected `≤(k+1)`-vertex subgraph
/// of `g` — in particular every cycle `C_ℓ`, `ℓ ≤ 2k`, which has radius
/// `≤ k` — appears entirely inside at least one component.
pub fn reduced_components(
    g: &Graph,
    decomposition: &Decomposition,
    radius: u32,
) -> Vec<ReducedComponent> {
    let n = g.node_count();
    let mut out = Vec::new();
    for color in 0..decomposition.colors {
        // Mask: nodes within `radius` of any cluster of this color.
        let mut dist = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        for cluster in decomposition.clusters.iter().filter(|c| c.color == color) {
            for &v in &cluster.members {
                dist[v.index()] = 0;
                queue.push_back(v);
            }
        }
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()];
            if du >= radius {
                continue;
            }
            for &w in g.neighbors(u) {
                if dist[w.index()] == u32::MAX {
                    dist[w.index()] = du + 1;
                    queue.push_back(w);
                }
            }
        }
        let keep: Vec<bool> = dist.iter().map(|&d| d != u32::MAX).collect();
        if !keep.iter().any(|&b| b) {
            continue;
        }
        let (sub, back) = g.induced_subgraph(&keep);
        // Split into connected components.
        let comps = analysis::connected_components(&sub);
        for members in comps.members() {
            let mut mask = vec![false; sub.node_count()];
            for &v in &members {
                mask[v.index()] = true;
            }
            let (comp_graph, comp_back) = sub.induced_subgraph(&mask);
            let original_ids: Vec<NodeId> = comp_back.iter().map(|&v| back[v.index()]).collect();
            out.push(ReducedComponent {
                color,
                graph: comp_graph,
                original_ids,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;

    fn check_invariants(g: &Graph, d: &Decomposition) {
        // (1) Coverage: every vertex in exactly one cluster.
        let mut seen = vec![0u32; g.node_count()];
        for c in &d.clusters {
            for &v in &c.members {
                seen[v.index()] += 1;
            }
        }
        assert!(seen.iter().all(|&s| s == 1), "partition violated");

        // (3) Same-color separation.
        for (i, a) in d.clusters.iter().enumerate() {
            // BFS from cluster a bounded by sep-1; no same-color other
            // cluster may be reached.
            let mut dist = vec![u32::MAX; g.node_count()];
            let mut queue = std::collections::VecDeque::new();
            for &v in &a.members {
                dist[v.index()] = 0;
                queue.push_back(v);
            }
            while let Some(u) = queue.pop_front() {
                let du = dist[u.index()];
                if du + 1 >= d.separation {
                    continue;
                }
                for &w in g.neighbors(u) {
                    if dist[w.index()] == u32::MAX {
                        dist[w.index()] = du + 1;
                        queue.push_back(w);
                    }
                }
            }
            for (j, b) in d.clusters.iter().enumerate() {
                if i != j && a.color == b.color {
                    for &v in &b.members {
                        assert_eq!(
                            dist[v.index()],
                            u32::MAX,
                            "same-color clusters {i},{j} within distance {}",
                            d.separation - 1
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn invariants_on_random_graphs() {
        for seed in 0..3 {
            let g = generators::erdos_renyi(60, 0.07, seed);
            let d = decompose(&g, 5, seed);
            check_invariants(&g, &d);
        }
    }

    #[test]
    fn invariants_on_cycle_and_grid() {
        let g = generators::cycle(40);
        let d = decompose(&g, 5, 1);
        check_invariants(&g, &d);
        let g = generators::grid(8, 8);
        let d = decompose(&g, 7, 2);
        check_invariants(&g, &d);
    }

    #[test]
    fn clusters_are_connected_with_bounded_diameter() {
        let g = generators::grid(10, 10);
        let d = decompose(&g, 5, 3);
        let diam = d.max_cluster_diameter(&g).expect("connected clusters");
        // O(log n) with the β above; generous constant.
        let bound = (8.0 * ((g.node_count() as f64).ln() + 1.0)) as u32;
        assert!(diam <= bound, "cluster diameter {diam} > bound {bound}");
    }

    #[test]
    fn singleton_graph() {
        let g = generators::empty(1);
        let d = decompose(&g, 3, 0);
        assert_eq!(d.clusters.len(), 1);
        assert_eq!(d.colors, 1);
    }

    #[test]
    fn reduced_components_cover_short_cycles() {
        // Plant a C6; for k = 3 (sep = 7, radius 3) some component must
        // contain all six cycle vertices.
        let host = generators::random_tree(80, 4);
        let (g, w) = generators::plant_cycle(&host, 6, 9);
        let d = decompose(&g, 7, 5);
        let comps = reduced_components(&g, &d, 3);
        let cycle_set: std::collections::HashSet<NodeId> = w.nodes().iter().copied().collect();
        let covered = comps.iter().any(|c| {
            let ids: std::collections::HashSet<NodeId> = c.original_ids.iter().copied().collect();
            cycle_set.is_subset(&ids)
        });
        assert!(covered, "no component contains the planted C6");
    }

    #[test]
    fn reduced_components_have_bounded_diameter() {
        let g = generators::cycle(100);
        let d = decompose(&g, 7, 8);
        let comps = reduced_components(&g, &d, 3);
        for c in &comps {
            let diam = analysis::diameter(&c.graph).expect("components connected");
            let bound = (8.0 * ((g.node_count() as f64).ln() + 1.0)) as u32 + 2 * 3;
            assert!(diam <= bound, "component diameter {diam} > {bound}");
        }
    }

    #[test]
    fn determinism() {
        let g = generators::erdos_renyi(40, 0.1, 2);
        let a = decompose(&g, 5, 7);
        let b = decompose(&g, 5, 7);
        assert_eq!(a.colors, b.colors);
        assert_eq!(a.assignment, b.assignment);
    }
}
