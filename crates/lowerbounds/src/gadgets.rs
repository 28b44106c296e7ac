//! The three gadget families of the §3.3 reductions.
//!
//! Each gadget maps a Set-Disjointness instance `(x, y)` over a universe
//! of size `N` to a graph split between Alice and Bob by a small cut,
//! such that the graph contains the target cycle **iff** `x ∩ y ≠ ∅`.
//! The constructions are re-derivations in the spirit of \[15\] and \[30\]
//! (whose figures the paper does not reproduce); what the experiments
//! rely on — universe scaling, cut scaling, and the iff-property — is
//! stated in each builder's docs and enforced by tests (exhaustively for
//! small universes).

use congest_graph::{Graph, GraphBuilder, NodeId};

use crate::disjointness::Disjointness;

/// A gadget graph with its Alice/Bob split.
#[derive(Debug, Clone)]
pub struct BuiltGadget {
    /// The composed network.
    pub graph: Graph,
    /// `side[v] = false` for Alice's vertices, `true` for Bob's.
    pub side: Vec<bool>,
    /// The number of edges crossing the cut.
    pub cut_size: usize,
    /// The cycle length whose presence encodes intersection.
    pub target_cycle: usize,
}

impl BuiltGadget {
    /// Installs a [`congest_sim::CutMeter`] for this gadget's cut.
    pub fn cut_meter(&self) -> congest_sim::CutMeter {
        congest_sim::CutMeter::new(&self.graph, self.side.clone())
    }
}

/// The C4 gadget (Drucker et al. \[15\] style): the universe is the edge
/// set of a **C4-free** base graph (the polarity graph `ER_q`,
/// `N = Θ(n^{3/2})` edges on `Θ(n)` vertices); Alice keeps base edge
/// `e_i` iff `x_i = 1`, Bob keeps `e_i` iff `y_i = 1`, and a perfect
/// matching joins the two copies.
///
/// A C4 exists iff some base edge survives on both sides: the only
/// 4-cycles not internal to a (C4-free) side are
/// `u_A — v_A — v_B — u_B — u_A`, which need edge `{u, v}` in both
/// copies.
#[derive(Debug, Clone)]
pub struct C4Gadget {
    base: Graph,
    base_edges: Vec<(NodeId, NodeId)>,
}

impl C4Gadget {
    /// Builds the gadget family over the polarity graph `ER_q` (`q`
    /// prime).
    ///
    /// # Panics
    ///
    /// Panics if `q` is not prime.
    pub fn new(q: u64) -> Self {
        let base = congest_graph::generators::polarity_graph(q);
        let base_edges = base.edge_vec();
        C4Gadget { base, base_edges }
    }

    /// The universe size `N` (number of base edges), `Θ(n^{3/2})`.
    pub fn universe(&self) -> usize {
        self.base_edges.len()
    }

    /// Number of vertices of the composed gadget (`2·|V(ER_q)|`).
    pub fn node_count(&self) -> usize {
        2 * self.base.node_count()
    }

    /// Composes the gadget for a disjointness instance.
    ///
    /// # Panics
    ///
    /// Panics if the instance universe differs from
    /// [`C4Gadget::universe`].
    pub fn build(&self, instance: &Disjointness) -> BuiltGadget {
        assert_eq!(
            instance.universe(),
            self.universe(),
            "universe size mismatch"
        );
        let nb = self.base.node_count() as u32;
        let mut b = GraphBuilder::new(2 * nb as usize);
        for (i, &(u, v)) in self.base_edges.iter().enumerate() {
            if instance.x()[i] {
                b.add_edge(u, v);
            }
            if instance.y()[i] {
                b.add_edge(NodeId::new(u.raw() + nb), NodeId::new(v.raw() + nb));
            }
        }
        // Perfect matching between the copies.
        for v in 0..nb {
            b.add_edge(NodeId::new(v), NodeId::new(v + nb));
        }
        let graph = b.build();
        let side: Vec<bool> = (0..2 * nb).map(|v| v >= nb).collect();
        BuiltGadget {
            graph,
            side,
            cut_size: nb as usize,
            target_cycle: 4,
        }
    }
}

/// The `C_{2k}` gadget (`k ≥ 3`, Korhonen–Rybicki \[30\] style):
/// `N = s²` elements, cut `2s = Θ(√N)`.
///
/// Alice has row vertices `α_1..α_s` and column vertices `β_1..β_s`
/// (Bob: primed copies), with matchings `α_i — α'_i`, `β_j — β'_j`.
/// Element `(i, j)` present on Alice's side contributes a fresh path of
/// length `k-1` from `α_i` to `β_j`; likewise for Bob. A `2k`-cycle
/// exists iff some `(i, j)` is present on *both* sides:
/// `α_i →^{k-1} β_j — β'_j →^{k-1} α'_i — α_i` has length `2k`, while
/// every other cycle type is forced longer (side-internal cycles have
/// length `≥ 4(k-1) > 2k` for `k ≥ 3`; cycles crossing four or more
/// matchings are longer still; two same-type matchings give even-length
/// side portions summing `> 2k`).
#[derive(Debug, Clone)]
pub struct EvenCycleGadget {
    k: usize,
    s: usize,
}

impl EvenCycleGadget {
    /// Creates the family with side parameter `s` (universe `N = s²`).
    ///
    /// # Panics
    ///
    /// Panics if `k < 3` (use [`C4Gadget`] for `k = 2`) or `s == 0`.
    pub fn new(k: usize, s: usize) -> Self {
        assert!(k >= 3, "use C4Gadget for k = 2");
        assert!(s > 0, "side parameter must be positive");
        EvenCycleGadget { k, s }
    }

    /// The universe size `N = s²`.
    pub fn universe(&self) -> usize {
        self.s * self.s
    }

    /// The target cycle length `2k`.
    pub fn target_cycle(&self) -> usize {
        2 * self.k
    }

    /// Composes the gadget. Vertex layout: Alice terminals
    /// (`α` then `β`), Bob terminals, then per-element path internals.
    ///
    /// # Panics
    ///
    /// Panics on universe mismatch.
    pub fn build(&self, instance: &Disjointness) -> BuiltGadget {
        assert_eq!(
            instance.universe(),
            self.universe(),
            "universe size mismatch"
        );
        let s = self.s as u32;
        let k = self.k;
        // 0..s: α; s..2s: β; 2s..3s: α'; 3s..4s: β'.
        let mut b = GraphBuilder::new(4 * s as usize);
        let alpha = |i: u32| NodeId::new(i);
        let beta = |j: u32| NodeId::new(s + j);
        let alpha_p = |i: u32| NodeId::new(2 * s + i);
        let beta_p = |j: u32| NodeId::new(3 * s + j);
        for i in 0..s {
            b.add_edge(alpha(i), alpha_p(i));
            b.add_edge(beta(i), beta_p(i));
        }
        let mut alice_internals: Vec<NodeId> = Vec::new();
        let mut bob_internals: Vec<NodeId> = Vec::new();
        for e in 0..instance.universe() {
            let i = (e / self.s) as u32;
            let j = (e % self.s) as u32;
            if instance.x()[e] {
                alice_internals.extend(b.add_path(alpha(i), beta(j), k - 1));
            }
            if instance.y()[e] {
                bob_internals.extend(b.add_path(alpha_p(i), beta_p(j), k - 1));
            }
        }
        let graph = b.build();
        let mut side = vec![false; graph.node_count()];
        for v in 2 * s..4 * s {
            side[v as usize] = true;
        }
        for v in bob_internals {
            side[v.index()] = true;
        }
        BuiltGadget {
            graph,
            side,
            cut_size: 2 * s as usize,
            target_cycle: 2 * k,
        }
    }
}

/// The `C_{2k+1}` gadget (`k ≥ 2`, Drucker et al. \[15\] style):
/// `N = t²` elements, cut `Θ(t)`, vertices `Θ(t·k)` — so `N = Θ(n²)`
/// for constant `k`.
///
/// Alice has `P = p_1..p_t` and `Q = q_1..q_t` (Bob: primed copies);
/// *fixed* paths `p_i →^{k} p'_i` and `q_j →^{k-1} q'_j` join the
/// copies. Element `(i, j)`: Alice edge `{p_i, q_j}` iff `x`, Bob edge
/// `{p'_i, q'_j}` iff `y`. A `(2k+1)`-cycle exists iff some element is
/// on both sides: `p_i — q_j →^{k-1} q'_j — p'_i →^{k} p_i` has length
/// `1 + (k-1) + 1 + k = 2k+1`. Both sides are bipartite (no odd cycles
/// inside); an odd cycle must use one `p`-path and one `q`-path
/// (same-type pairs give even length, four or more crossings exceed
/// `2k+1`), and then its side portions have odd lengths summing to 2 —
/// i.e., single edges encoding the same element.
#[derive(Debug, Clone)]
pub struct OddCycleGadget {
    k: usize,
    t: usize,
}

impl OddCycleGadget {
    /// Creates the family with side parameter `t` (universe `N = t²`).
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `t == 0`.
    pub fn new(k: usize, t: usize) -> Self {
        assert!(k >= 2, "the paper's odd lower bound targets k ≥ 2");
        assert!(t > 0, "side parameter must be positive");
        OddCycleGadget { k, t }
    }

    /// The universe size `N = t²`.
    pub fn universe(&self) -> usize {
        self.t * self.t
    }

    /// The target cycle length `2k + 1`.
    pub fn target_cycle(&self) -> usize {
        2 * self.k + 1
    }

    /// Composes the gadget.
    ///
    /// # Panics
    ///
    /// Panics on universe mismatch.
    pub fn build(&self, instance: &Disjointness) -> BuiltGadget {
        assert_eq!(
            instance.universe(),
            self.universe(),
            "universe size mismatch"
        );
        let t = self.t as u32;
        let k = self.k;
        // 0..t: P; t..2t: Q; 2t..3t: P'; 3t..4t: Q'.
        let mut b = GraphBuilder::new(4 * t as usize);
        let p = |i: u32| NodeId::new(i);
        let q = |j: u32| NodeId::new(t + j);
        let p_p = |i: u32| NodeId::new(2 * t + i);
        let q_p = |j: u32| NodeId::new(3 * t + j);
        // Fixed matching paths: p-paths of length k, q-paths of length
        // k-1 (total 2k-1 with the two element edges: 2k+1).
        let mut path_internals: Vec<(Vec<NodeId>, bool)> = Vec::new();
        for i in 0..t {
            let internals = b.add_path(p(i), p_p(i), k);
            path_internals.push((internals, false)); // p-path
        }
        for j in 0..t {
            let internals = b.add_path(q(j), q_p(j), k - 1);
            path_internals.push((internals, true)); // q-path
        }
        for e in 0..instance.universe() {
            let i = (e / self.t) as u32;
            let j = (e % self.t) as u32;
            if instance.x()[e] {
                b.add_edge(p(i), q(j));
            }
            if instance.y()[e] {
                b.add_edge(p_p(i), q_p(j));
            }
        }
        let graph = b.build();
        // Cut: assign the first half of each matching path to Alice.
        let mut side = vec![false; graph.node_count()];
        for v in 2 * t..4 * t {
            side[v as usize] = true;
        }
        for (internals, _) in &path_internals {
            // Internals run Alice-end → Bob-end; give the second half to
            // Bob, so each matching path crosses the cut exactly once.
            // (For k = 2 the q-paths are single edges with no internals
            // and the edge itself crosses.)
            let half = internals.len() / 2;
            for (idx, &v) in internals.iter().enumerate() {
                side[v.index()] = idx >= half;
            }
        }
        let cut_edges = graph
            .edges()
            .filter(|&(u, v)| side[u.index()] != side[v.index()])
            .count();
        debug_assert_eq!(cut_edges, 2 * t as usize, "one crossing per matching path");
        BuiltGadget {
            graph,
            side,
            cut_size: cut_edges,
            target_cycle: 2 * k + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::analysis;

    /// Exhaustive iff-property check over all (x, y) pairs for a tiny
    /// universe.
    fn check_iff_exhaustive<F: Fn(&Disjointness) -> BuiltGadget>(
        universe: usize,
        build: F,
        target: usize,
    ) {
        assert!(universe <= 4, "exhaustive check needs a tiny universe");
        for xm in 0u32..(1 << universe) {
            for ym in 0u32..(1 << universe) {
                let x: Vec<bool> = (0..universe).map(|e| xm >> e & 1 == 1).collect();
                let y: Vec<bool> = (0..universe).map(|e| ym >> e & 1 == 1).collect();
                let inst = Disjointness::new(x, y);
                let built = build(&inst);
                let has = analysis::has_cycle_exact(&built.graph, target, Some(50_000_000));
                assert_eq!(
                    has,
                    inst.intersects(),
                    "iff violated at x={xm:b}, y={ym:b}, target C{target}"
                );
            }
        }
    }

    #[test]
    fn c4_gadget_iff_random() {
        let gadget = C4Gadget::new(3); // 13 vertices, N = base edges
        let n_u = gadget.universe();
        for seed in 0..10 {
            let inst = Disjointness::random(n_u, 0.3, seed);
            let built = gadget.build(&inst);
            assert_eq!(
                analysis::has_cycle_exact(&built.graph, 4, None),
                inst.intersects(),
                "seed {seed}"
            );
        }
        for seed in 0..10 {
            let inst = Disjointness::random_disjoint(n_u, seed);
            let built = gadget.build(&inst);
            assert!(!analysis::has_cycle_exact(&built.graph, 4, None));
        }
    }

    #[test]
    fn c4_gadget_universe_scaling() {
        // N = Θ(n^{3/2}): doubling q roughly 2^{3/2}-uples N relative to
        // vertices.
        let small = C4Gadget::new(5);
        let large = C4Gadget::new(11);
        let density = |g: &C4Gadget| g.universe() as f64 / (g.node_count() as f64).powf(1.5);
        let r = density(&large) / density(&small);
        assert!(r > 0.5 && r < 2.0, "density ratio {r} not Θ(1)");
    }

    #[test]
    fn even_gadget_iff_exhaustive_tiny() {
        let gadget = EvenCycleGadget::new(3, 2);
        check_iff_exhaustive(4, |inst| gadget.build(inst), 6);
    }

    #[test]
    fn even_gadget_iff_random() {
        for k in [3usize, 4] {
            let gadget = EvenCycleGadget::new(k, 3);
            for seed in 0..8 {
                let inst = Disjointness::random(9, 0.3, seed);
                let built = gadget.build(&inst);
                assert_eq!(
                    analysis::has_cycle_exact(&built.graph, 2 * k, None),
                    inst.intersects(),
                    "k={k}, seed={seed}"
                );
            }
        }
    }

    #[test]
    fn even_gadget_cut_is_2s() {
        let gadget = EvenCycleGadget::new(3, 4);
        let inst = Disjointness::random(16, 0.5, 1);
        let built = gadget.build(&inst);
        assert_eq!(built.cut_size, 8);
        let crossing = built
            .graph
            .edges()
            .filter(|&(u, v)| built.side[u.index()] != built.side[v.index()])
            .count();
        assert_eq!(crossing, 8);
    }

    #[test]
    fn odd_gadget_iff_exhaustive_tiny() {
        let gadget = OddCycleGadget::new(2, 2);
        check_iff_exhaustive(4, |inst| gadget.build(inst), 5);
    }

    #[test]
    fn odd_gadget_iff_random() {
        for k in [2usize, 3] {
            let gadget = OddCycleGadget::new(k, 3);
            for seed in 0..8 {
                let inst = Disjointness::random(9, 0.3, seed);
                let built = gadget.build(&inst);
                assert_eq!(
                    analysis::has_cycle_exact(&built.graph, 2 * k + 1, None),
                    inst.intersects(),
                    "k={k}, seed={seed}"
                );
            }
        }
    }

    #[test]
    fn odd_gadget_no_shorter_odd_cycles() {
        // Even with intersection, nothing odd shorter than 2k+1 appears.
        let gadget = OddCycleGadget::new(3, 3);
        let (inst, _) = Disjointness::random_with_planted_intersection(9, 4);
        let built = gadget.build(&inst);
        assert!(analysis::has_cycle_exact(&built.graph, 7, None));
        assert!(!analysis::has_cycle_exact(&built.graph, 5, None));
        assert!(!analysis::has_cycle_exact(&built.graph, 3, None));
    }

    #[test]
    fn gadget_cut_meter_integrates() {
        let gadget = EvenCycleGadget::new(3, 2);
        let inst = Disjointness::random(4, 0.5, 2);
        let built = gadget.build(&inst);
        let meter = built.cut_meter();
        assert_eq!(meter.cut_size(), built.cut_size);
    }
}
