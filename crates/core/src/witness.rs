//! Detection outcomes and certified witness extraction.

use congest_graph::{analysis, CycleWitness, Graph, NodeId};
use congest_sim::{Decision, RunReport};

use crate::color_bfs::Palette;

/// Which of Algorithm 1's three `color-BFS` calls produced the rejection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// `color-BFS(k, G[U], c, U, τ)` — cycles of light nodes only
    /// (Instruction 9).
    Light,
    /// `color-BFS(k, G, c, S, τ)` — cycles through a selected node
    /// (Instruction 10).
    Selected,
    /// `color-BFS(k, G[V∖S], c, W, τ)` — heavy cycles avoiding `S`
    /// (Instruction 11).
    Heavy,
}

/// Sizes of the sets Algorithm 1 constructed, for diagnostics and the
/// set-size experiments (Facts 2–3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetsSummary {
    /// `|U|`, the light nodes (degree ≤ n^{1/k}).
    pub u_size: usize,
    /// `|S|`, the selected nodes.
    pub s_size: usize,
    /// `|W|`, the non-selected nodes with ≥ k² selected neighbors.
    pub w_size: usize,
    /// The threshold `τ` used by every `color-BFS` call.
    pub tau: u64,
    /// The selection probability `p`.
    pub selection_probability: f64,
}

/// The result of running a cycle detector on a graph.
#[derive(Debug, Clone)]
pub struct DetectionOutcome {
    /// The global decision (`Reject` iff some node rejected).
    pub decision: Decision,
    /// A verified cycle witness accompanying every rejection.
    pub witness: Option<CycleWitness>,
    /// The phase that detected the cycle, when rejected.
    pub phase: Option<Phase>,
    /// Coloring iterations executed (≤ `K`; stops early on rejection by
    /// default).
    pub iterations: u64,
    /// Accumulated CONGEST costs over all phases and iterations.
    pub report: RunReport,
    /// The sets Algorithm 1 constructed.
    pub sets: SetsSummary,
    /// Whether the run was aborted between iterations by a
    /// [`Budget`](crate::Budget) cap (the decision is then untrusted).
    pub budget_exceeded: bool,
}

impl DetectionOutcome {
    /// Whether the detector found a cycle.
    pub fn rejected(&self) -> bool {
        self.decision == Decision::Reject
    }

    /// The witness, if any.
    pub fn witness(&self) -> Option<&CycleWitness> {
        self.witness.as_ref()
    }

    /// Total CONGEST rounds charged.
    pub fn rounds(&self) -> u64 {
        self.report.rounds
    }

    /// Converts into the unified [`Detection`](crate::Detection) surface
    /// under the given algorithm metadata.
    pub fn into_detection(self, algorithm: crate::Descriptor) -> crate::Detection {
        let cost = crate::RunCost::from_report(&self.report, self.iterations);
        crate::Detection::of_run(algorithm, self.witness, self.budget_exceeded, cost)
    }
}

/// Finds a path `x → v` whose internal vertices have exactly the colors
/// `internal_colors` (in order) and lie in the masked host subgraph, via
/// layered search. Returns the full vertex list `x, u_1, …, u_t, v`.
///
/// Both endpoints must be in the host mask. Used to reconstruct the two
/// branches of a detected cycle: when a node rejects in `color-BFS`, the
/// origin's id provably traveled along two such paths, so the searches
/// must succeed — the caller treats `None` as an internal error.
pub fn find_colored_path(
    g: &Graph,
    h_mask: &[bool],
    colors: &[u8],
    internal_colors: &[u8],
    x: NodeId,
    v: NodeId,
) -> Option<Vec<NodeId>> {
    if !h_mask[x.index()] || !h_mask[v.index()] {
        return None;
    }
    if internal_colors.is_empty() {
        return g.has_edge(x, v).then(|| vec![x, v]);
    }
    let n = g.node_count();
    // parents[j][u] = predecessor of u in layer j (u has color
    // internal_colors[j]).
    let t = internal_colors.len();
    let mut parents: Vec<Vec<Option<NodeId>>> = vec![vec![None; n]; t];
    let mut frontier = vec![x];
    for (j, &col) in internal_colors.iter().enumerate() {
        let mut next = Vec::new();
        for &u in &frontier {
            for &w in g.neighbors(u) {
                if h_mask[w.index()]
                    && colors[w.index()] == col
                    && w != x
                    && w != v
                    && parents[j][w.index()].is_none()
                {
                    parents[j][w.index()] = Some(u);
                    next.push(w);
                }
            }
        }
        if next.is_empty() {
            return None;
        }
        frontier = next;
    }
    // Close at v.
    let last = frontier.into_iter().find(|&u| g.has_edge(u, v))?;
    let mut path = vec![v, last];
    let mut cur = last;
    for j in (1..t).rev() {
        let p = parents[j][cur.index()].expect("parent chain intact");
        path.push(p);
        cur = p;
    }
    path.push(x);
    path.reverse();
    Some(path)
}

/// Reconstructs the cycle certified by a rejection at `v` in a
/// `color-BFS` call with `palette` (see [`crate::color_bfs`]): the
/// origin `x` reached `v` along an up branch colored `1, …, c(v)-1` and
/// a down branch colored `P-1, …, m+1`, all within the host mask. The
/// meeting color `m` rejects a `C_P`; in §3.5, color `m-1` rejects a
/// `C_{P-1}`. The result is verified against `g` before being returned.
pub(crate) fn extract_witness(
    g: &Graph,
    h_mask: &[bool],
    colors: &[u8],
    palette: Palette,
    x: NodeId,
    v: NodeId,
) -> Option<CycleWitness> {
    let up_colors: Vec<u8> = (1..colors[v.index()]).collect();
    let down_colors: Vec<u8> = (palette.meet() + 1..palette.size()).rev().collect();
    let mut nodes = find_colored_path(g, h_mask, colors, &up_colors, x, v)?;
    let down = find_colored_path(g, h_mask, colors, &down_colors, x, v)?;
    // down = x, d_1, ..., d_t, v; append d_t, ..., d_1.
    nodes.extend(down[1..down.len() - 1].iter().rev());
    let witness = CycleWitness::new(nodes);
    witness.is_valid(g).then_some(witness)
}

/// Double-checks a claimed witness against the exact ground truth
/// (used in tests and by the certified-output contract): the witness must
/// be a valid cycle of the stated length, and the graph must indeed
/// contain a cycle of that length.
pub fn certify(g: &Graph, witness: &CycleWitness, expected_len: usize) -> bool {
    witness.len() == expected_len
        && witness.is_valid(g)
        && analysis::has_cycle_exact(g, expected_len, Some(200_000_000)) // witness exists, so this is fast
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;

    #[test]
    fn colored_path_on_cycle() {
        let g = generators::cycle(6);
        let colors = vec![0u8, 1, 2, 3, 4, 5];
        let mask = vec![true; 6];
        let path = find_colored_path(&g, &mask, &colors, &[1, 2], NodeId::new(0), NodeId::new(3))
            .expect("path exists");
        assert_eq!(
            path,
            vec![
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(2),
                NodeId::new(3)
            ]
        );
    }

    #[test]
    fn colored_path_empty_internals_is_edge() {
        let g = generators::cycle(4);
        let colors = vec![0u8; 4];
        let mask = vec![true; 4];
        assert!(
            find_colored_path(&g, &mask, &colors, &[], NodeId::new(0), NodeId::new(1)).is_some()
        );
        assert!(
            find_colored_path(&g, &mask, &colors, &[], NodeId::new(0), NodeId::new(2)).is_none()
        );
    }

    #[test]
    fn colored_path_respects_mask() {
        let g = generators::cycle(6);
        let colors = vec![0u8, 1, 2, 3, 4, 5];
        let mut mask = vec![true; 6];
        mask[1] = false;
        assert!(
            find_colored_path(&g, &mask, &colors, &[1, 2], NodeId::new(0), NodeId::new(3))
                .is_none()
        );
    }

    #[test]
    fn even_witness_on_colored_c4() {
        let g = generators::cycle(4);
        let colors = vec![0u8, 1, 2, 3];
        let mask = vec![true; 4];
        let w = extract_witness(
            &g,
            &mask,
            &colors,
            Palette::even(2),
            NodeId::new(0),
            NodeId::new(2),
        )
        .expect("witness");
        assert_eq!(w.len(), 4);
        assert!(w.is_valid(&g));
        assert!(certify(&g, &w, 4));
    }

    #[test]
    fn even_witness_on_colored_c8_with_noise() {
        // Plant a consecutively-colored C8 in a larger graph.
        let host = generators::random_tree(30, 5);
        let (g, planted) = generators::plant_cycle(&host, 8, 3);
        let mut colors = vec![7u8; g.node_count()]; // noise color
        for (i, &u) in planted.nodes().iter().enumerate() {
            colors[u.index()] = i as u8;
        }
        let mask = vec![true; g.node_count()];
        let x = planted.nodes()[0];
        let v = planted.nodes()[4];
        let w = extract_witness(&g, &mask, &colors, Palette::even(4), x, v).expect("witness");
        assert_eq!(w.len(), 8);
        assert!(w.is_valid(&g));
    }

    #[test]
    fn odd_witness_on_colored_c5() {
        let g = generators::cycle(5);
        let colors = vec![0u8, 1, 2, 3, 4];
        let mask = vec![true; 5];
        // k = 2: v colored 2, up internals [1], down internals [4, 3].
        let palette = Palette::odd(2);
        let w = extract_witness(&g, &mask, &colors, palette, NodeId::new(0), NodeId::new(2))
            .expect("witness");
        assert_eq!(w.len(), 5);
        assert!(w.is_valid(&g));
    }

    #[test]
    fn extraction_fails_without_cycle() {
        let g = generators::path(4);
        let colors = vec![0u8, 1, 2, 3];
        let mask = vec![true; 4];
        assert!(extract_witness(
            &g,
            &mask,
            &colors,
            Palette::even(2),
            NodeId::new(0),
            NodeId::new(2)
        )
        .is_none());
    }
}
