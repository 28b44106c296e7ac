//! Exact and randomized fixed-length-cycle search.
//!
//! `C_ℓ`-subgraph containment is the exact property the paper's CONGEST
//! algorithms decide, so this module is the ground truth of every
//! correctness experiment. [`find_cycle_exact`] is an exhaustive
//! (exponential-in-the-worst-case, heavily pruned) search suitable for the
//! simulation scales; [`find_cycle_color_coding`] is the classical
//! Alon–Yuster–Zwick randomized search, used both as a faster oracle and
//! as an executable reference for the color-coding idea the distributed
//! algorithms implement. [`nodes_on_cycles`] marks the nodes that lie on
//! a cycle of given lengths.

use std::ops::RangeInclusive;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::girth::girth;
use crate::{CycleWitness, Graph, NodeId};

/// Whether `g` contains a cycle of length exactly `l` as a subgraph.
///
/// See [`find_cycle_exact`] for semantics and costs.
pub fn has_cycle_exact(g: &Graph, l: usize, budget: Option<u64>) -> bool {
    find_cycle_exact(g, l, budget).is_some()
}

/// Whether `g` contains any cycle of length at most `max_len`
/// (equivalently, `girth(g) ≤ max_len`).
pub fn contains_cycle_up_to(g: &Graph, max_len: usize) -> bool {
    girth(g).is_some_and(|girth| girth <= max_len)
}

/// Finds a cycle of length exactly `l` in `g`, if one exists.
///
/// The search enumerates, for each vertex `v` (treated as the minimum-id
/// vertex of the cycle), simple paths from `v` through vertices of larger
/// id, pruned by bounded BFS distance back to `v`. Exact — if it returns
/// `None`, no `C_ℓ` subgraph exists.
///
/// # Panics
///
/// Panics if `l < 3`, or if `budget` (a cap on DFS steps, for protection
/// against accidental worst-case blowups) is exhausted — it never returns
/// a wrong answer.
pub fn find_cycle_exact(g: &Graph, l: usize, budget: Option<u64>) -> Option<CycleWitness> {
    assert!(l >= 3, "cycles have length at least 3");
    let mut steps_left = budget.unwrap_or(u64::MAX);
    let mut in_path = vec![false; g.node_count()];
    let mut path: Vec<NodeId> = Vec::with_capacity(l);
    for v in g.nodes() {
        if g.degree(v) < 2 {
            continue;
        }
        // Distances from v using only vertices >= v (cycle vertices are
        // all >= v by the minimum-id convention), bounded by l - 1.
        let dist = restricted_bounded_distances(g, v, (l - 1) as u32);
        path.push(v);
        in_path[v.index()] = true;
        let found = dfs_extend(g, v, l, &dist, &mut path, &mut in_path, &mut steps_left);
        in_path[v.index()] = false;
        if found {
            let w = CycleWitness::new(path.clone());
            debug_assert!(w.is_valid(g), "internal error: invalid witness {w:?}");
            return Some(w);
        }
        path.clear();
    }
    None
}

/// BFS distances from `root` within the subgraph induced by vertices with
/// id `>= root`, bounded by `bound`.
fn restricted_bounded_distances(g: &Graph, root: NodeId, bound: u32) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.node_count()];
    let mut queue = std::collections::VecDeque::new();
    dist[root.index()] = 0;
    queue.push_back(root);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        if du >= bound {
            continue;
        }
        for &v in g.neighbors(u) {
            if v >= root && dist[v.index()] == u32::MAX {
                dist[v.index()] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

fn dfs_extend(
    g: &Graph,
    root: NodeId,
    l: usize,
    dist: &[u32],
    path: &mut Vec<NodeId>,
    in_path: &mut [bool],
    steps_left: &mut u64,
) -> bool {
    if *steps_left == 0 {
        panic!("find_cycle_exact: search budget exhausted");
    }
    *steps_left -= 1;
    let cur = *path.last().expect("non-empty path");
    let remaining = l - path.len(); // edges still to place (incl. closing edge)
    if remaining == 0 {
        return g.has_edge(cur, root);
    }
    for &next in g.neighbors(cur) {
        if next <= root || in_path[next.index()] {
            continue;
        }
        // Prune: after taking `next`, the cycle must return to `root`
        // along exactly `remaining` further edges (`remaining - 1` fresh
        // vertices plus the closing edge); the BFS distance is a lower
        // bound on that.
        if dist[next.index()] as usize > remaining {
            continue;
        }
        path.push(next);
        in_path[next.index()] = true;
        if dfs_extend(g, root, l, dist, path, in_path, steps_left) {
            return true;
        }
        in_path[next.index()] = false;
        path.pop();
    }
    false
}

/// Counts the cycles of length exactly `l` in `g` (each cycle counted
/// once, regardless of orientation or starting point).
///
/// Same search as [`find_cycle_exact`] but exhaustive: for each root `v`
/// (the cycle's minimum vertex) it enumerates all simple paths through
/// larger vertices, counting closures; each cycle is found exactly twice
/// (once per orientation), so the total is halved.
///
/// # Panics
///
/// Panics if `l < 3` or the step `budget` is exhausted.
pub fn count_cycles_exact(g: &Graph, l: usize, budget: Option<u64>) -> u64 {
    assert!(l >= 3, "cycles have length at least 3");
    let mut steps_left = budget.unwrap_or(u64::MAX);
    let mut in_path = vec![false; g.node_count()];
    let mut path: Vec<NodeId> = Vec::with_capacity(l);
    let mut closures = 0u64;
    for v in g.nodes() {
        if g.degree(v) < 2 {
            continue;
        }
        let dist = restricted_bounded_distances(g, v, (l - 1) as u32);
        path.push(v);
        in_path[v.index()] = true;
        count_extend(
            g,
            v,
            l,
            &dist,
            &mut path,
            &mut in_path,
            &mut steps_left,
            &mut closures,
        );
        in_path[v.index()] = false;
        path.clear();
    }
    debug_assert_eq!(closures % 2, 0, "each cycle closes twice");
    closures / 2
}

#[allow(clippy::too_many_arguments)]
fn count_extend(
    g: &Graph,
    root: NodeId,
    l: usize,
    dist: &[u32],
    path: &mut Vec<NodeId>,
    in_path: &mut [bool],
    steps_left: &mut u64,
    closures: &mut u64,
) {
    if *steps_left == 0 {
        panic!("count_cycles_exact: search budget exhausted");
    }
    *steps_left -= 1;
    let cur = *path.last().expect("non-empty path");
    let remaining = l - path.len();
    if remaining == 0 {
        if g.has_edge(cur, root) {
            *closures += 1;
        }
        return;
    }
    for &next in g.neighbors(cur) {
        if next <= root || in_path[next.index()] {
            continue;
        }
        if dist[next.index()] as usize > remaining {
            continue;
        }
        path.push(next);
        in_path[next.index()] = true;
        count_extend(g, root, l, dist, path, in_path, steps_left, closures);
        in_path[next.index()] = false;
        path.pop();
    }
}

/// Marks every node of `g` that lies on a simple cycle whose length is
/// in `lengths`.
///
/// For each node not marked yet, a depth-first search looks for such a
/// cycle through it. The search stays within the 2-core (what is left
/// after repeatedly deleting the nodes of degree at most 1; it holds
/// every cycle), and it extends a path only to nodes whose BFS distance
/// back to the start leaves room to close a cycle in time. The first
/// cycle it finds marks all of its nodes.
///
/// When every length in range is odd, the components of the 2-core
/// that are bipartite are skipped: they hold no odd cycle.
///
/// Each neighbor a BFS or the search scans is one step, and the peeling
/// and the bipartiteness test each take one per node and neighbor. Once
/// the steps pass `budget`, the search stops and every node is marked:
/// the answer is then a superset of the exact one. Within the budget it
/// is exact.
///
/// # Panics
///
/// Panics if `lengths` starts below 3.
pub fn nodes_on_cycles(g: &Graph, lengths: RangeInclusive<usize>, budget: u64) -> Vec<bool> {
    assert!(*lengths.start() >= 3, "cycles have length at least 3");
    let n = g.node_count();
    let mut marked = vec![false; n];
    let mut search = CycleSearch {
        g,
        lengths,
        steps_left: budget,
        core: Vec::new(),
        dist: vec![u32::MAX; n],
        reached: Vec::new(),
        path: Vec::new(),
        in_path: vec![false; n],
    };
    match search.mark(&mut marked) {
        Ok(()) => marked,
        Err(OutOfBudget) => vec![true; n],
    }
}

/// The step budget of [`nodes_on_cycles`] ran out.
#[derive(Debug)]
struct OutOfBudget;

/// The state of one [`nodes_on_cycles`] search.
struct CycleSearch<'a> {
    g: &'a Graph,
    lengths: RangeInclusive<usize>,
    steps_left: u64,
    /// The 2-core.
    core: Vec<bool>,
    /// BFS distances from the current start within the 2-core, up to
    /// half the longest length; `u32::MAX` elsewhere.
    dist: Vec<u32>,
    /// The nodes `dist` holds a distance for, in BFS order.
    reached: Vec<NodeId>,
    /// The simple path from the current start, and its nodes.
    path: Vec<NodeId>,
    in_path: Vec<bool>,
}

impl CycleSearch<'_> {
    /// Spends `steps` steps of the budget.
    fn spend(&mut self, steps: usize) -> Result<(), OutOfBudget> {
        self.steps_left = self
            .steps_left
            .checked_sub(steps as u64)
            .ok_or(OutOfBudget)?;
        Ok(())
    }

    /// Marks the nodes that lie on a cycle with a length in range.
    fn mark(&mut self, marked: &mut [bool]) -> Result<(), OutOfBudget> {
        self.peel()?;
        if self.lengths.clone().all(|l| l % 2 == 1) {
            self.drop_bipartite_components()?;
        }
        for v in self.g.nodes() {
            if marked[v.index()] || !self.core[v.index()] {
                continue;
            }
            if self.through(v)? {
                for &u in &self.path {
                    marked[u.index()] = true;
                }
            }
            for &u in &self.path {
                self.in_path[u.index()] = false;
            }
            self.path.clear();
        }
        Ok(())
    }

    /// Computes the 2-core.
    fn peel(&mut self) -> Result<(), OutOfBudget> {
        let g = self.g;
        self.spend(g.node_count() + g.degree_sum())?;
        let mut degree: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
        self.core = vec![true; g.node_count()];
        let mut leaves: Vec<NodeId> = g.nodes().filter(|v| degree[v.index()] < 2).collect();
        while let Some(u) = leaves.pop() {
            self.core[u.index()] = false;
            for &w in g.neighbors(u) {
                let d = &mut degree[w.index()];
                *d -= 1;
                if *d == 1 && self.core[w.index()] {
                    leaves.push(w);
                }
            }
        }
        Ok(())
    }

    /// Removes from the 2-core each of its components that is
    /// bipartite, found by 2-coloring it breadth-first.
    fn drop_bipartite_components(&mut self) -> Result<(), OutOfBudget> {
        let g = self.g;
        self.spend(g.node_count() + g.degree_sum())?;
        let mut side = vec![u8::MAX; g.node_count()];
        let mut component = Vec::new();
        for start in g.nodes() {
            if !self.core[start.index()] || side[start.index()] != u8::MAX {
                continue;
            }
            side[start.index()] = 0;
            component.clear();
            component.push(start);
            let mut bipartite = true;
            let mut head = 0;
            while let Some(&u) = component.get(head) {
                head += 1;
                for &w in g.neighbors(u) {
                    if !self.core[w.index()] {
                        continue;
                    }
                    if side[w.index()] == u8::MAX {
                        side[w.index()] = 1 - side[u.index()];
                        component.push(w);
                    } else if side[w.index()] == side[u.index()] {
                        bipartite = false;
                    }
                }
            }
            if bipartite {
                for &u in &component {
                    self.core[u.index()] = false;
                }
            }
        }
        Ok(())
    }

    /// Whether some cycle through `v` has a length in range; if so,
    /// `path` holds its nodes.
    fn through(&mut self, v: NodeId) -> Result<bool, OutOfBudget> {
        for &u in &self.reached {
            self.dist[u.index()] = u32::MAX;
        }
        self.reached.clear();
        // Every node of a cycle through `v` lies within half its length
        // of `v`, along the cycle, inside the 2-core.
        let radius = (*self.lengths.end() / 2) as u32;
        self.dist[v.index()] = 0;
        self.reached.push(v);
        let mut head = 0;
        while let Some(&u) = self.reached.get(head) {
            head += 1;
            let du = self.dist[u.index()];
            if du == radius {
                break;
            }
            self.spend(self.g.degree(u))?;
            for &w in self.g.neighbors(u) {
                if self.core[w.index()] && self.dist[w.index()] == u32::MAX {
                    self.dist[w.index()] = du + 1;
                    self.reached.push(w);
                }
            }
        }
        self.path.push(v);
        self.in_path[v.index()] = true;
        self.extend()
    }

    /// Whether the path extends to a cycle with a length in range.
    fn extend(&mut self) -> Result<bool, OutOfBudget> {
        let g = self.g;
        let cur = *self.path.last().expect("non-empty path");
        self.spend(g.degree(cur))?;
        // The next node would be `len` edges from the start.
        let len = self.path.len();
        for &next in g.neighbors(cur) {
            let d = self.dist[next.index()];
            // Closing the cycle takes at least `d` more edges.
            if d == u32::MAX || self.in_path[next.index()] || len + d as usize > *self.lengths.end()
            {
                continue;
            }
            self.path.push(next);
            self.in_path[next.index()] = true;
            // At distance 1, `next` closes a cycle of `len + 1` edges.
            if d == 1 && len + 1 >= *self.lengths.start() || self.extend()? {
                return Ok(true);
            }
            self.in_path[next.index()] = false;
            self.path.pop();
        }
        Ok(false)
    }
}

/// The cycle spectrum of `g` up to `max_len`: `spectrum[l]` is the
/// number of cycles of length exactly `l` (indices 0–2 are always 0).
///
/// A compact instance fingerprint used by the experiments to verify
/// girth-controlled generators and gadget constructions in one shot.
///
/// # Panics
///
/// Panics if `max_len < 3` or the per-length step `budget` is exhausted.
pub fn cycle_spectrum(g: &Graph, max_len: usize, budget: Option<u64>) -> Vec<u64> {
    assert!(max_len >= 3, "spectrum starts at triangles");
    let mut spectrum = vec![0u64; max_len + 1];
    for (l, slot) in spectrum.iter_mut().enumerate().take(max_len + 1).skip(3) {
        *slot = count_cycles_exact(g, l, budget);
    }
    spectrum
}

/// Randomized color-coding search for a `C_ℓ` subgraph
/// (Alon–Yuster–Zwick): repeat `iterations` times — color every vertex
/// uniformly from `{0, …, ℓ-1}`, then look for a cycle colored
/// consecutively, by layered forward search from each 0-colored root.
///
/// One-sided: a returned witness is always a real cycle (and is verified
/// before returning); `None` only means "not found within the iteration
/// budget". An iteration finds an existing cycle with probability at
/// least `ℓ!/ℓ^ℓ ≥ e^{-ℓ}√ℓ`-ish, so `iterations = Θ(e^ℓ)` gives constant
/// success probability.
pub fn find_cycle_color_coding(
    g: &Graph,
    l: usize,
    iterations: usize,
    seed: u64,
) -> Option<CycleWitness> {
    assert!(l >= 3, "cycles have length at least 3");
    let mut rng = StdRng::seed_from_u64(seed);
    let n = g.node_count();
    for _ in 0..iterations {
        let colors: Vec<u8> = (0..n).map(|_| rng.gen_range(0..l as u8)).collect();
        if let Some(w) = colored_cycle_search(g, l, &colors) {
            debug_assert!(w.is_valid(g));
            return Some(w);
        }
    }
    None
}

/// Finds a cycle `u_0, …, u_{ℓ-1}` with `color(u_i) = i`, if any.
fn colored_cycle_search(g: &Graph, l: usize, colors: &[u8]) -> Option<CycleWitness> {
    for root in g.nodes() {
        if colors[root.index()] != 0 {
            continue;
        }
        // parents[i][v] = predecessor of v on a path root -> v colored
        // 0, 1, ..., i (v has color i).
        let mut parents: Vec<Vec<Option<NodeId>>> = vec![vec![None; g.node_count()]; l];
        let mut frontier = vec![root];
        for (i, layer) in parents.iter_mut().enumerate().skip(1) {
            let mut next = Vec::new();
            for &u in &frontier {
                for &v in g.neighbors(u) {
                    if colors[v.index()] == i as u8 && v != root && layer[v.index()].is_none() {
                        layer[v.index()] = Some(u);
                        next.push(v);
                    }
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        for &last in &frontier {
            if g.has_edge(last, root) {
                // Reconstruct; the parent chain has distinct colors so the
                // path is simple.
                let mut nodes = vec![last];
                let mut cur = last;
                for i in (1..l).rev() {
                    let p = parents[i][cur.index()].expect("parent chain");
                    nodes.push(p);
                    cur = p;
                }
                nodes.reverse();
                let w = CycleWitness::new(nodes);
                if w.is_valid(g) {
                    return Some(w);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn count_on_known_families() {
        // C_n: exactly one cycle.
        for n in 3..=9 {
            assert_eq!(count_cycles_exact(&generators::cycle(n), n, None), 1);
        }
        // K4: four triangles, three C4s.
        let k4 = generators::complete(4);
        assert_eq!(count_cycles_exact(&k4, 3, None), 4);
        assert_eq!(count_cycles_exact(&k4, 4, None), 3);
        // K_{2,3}: C4 count = C(3,2) = 3; no odd cycles.
        let k23 = generators::complete_bipartite(2, 3);
        assert_eq!(count_cycles_exact(&k23, 4, None), 3);
        assert_eq!(count_cycles_exact(&k23, 3, None), 0);
        assert_eq!(count_cycles_exact(&k23, 5, None), 0);
        // Θ(2,2): one C4 (two internally-disjoint 2-paths).
        assert_eq!(count_cycles_exact(&generators::theta(2, 2), 4, None), 1);
        // Trees: nothing.
        assert_eq!(
            count_cycles_exact(&generators::random_tree(20, 1), 4, None),
            0
        );
    }

    #[test]
    fn spectrum_of_known_graphs() {
        // Θ(2,3): exactly one C5, nothing else up to 6... plus the outer
        // cycle: Θ(a,b) has exactly the cycles of lengths a+b (one).
        let spec = cycle_spectrum(&generators::theta(2, 3), 6, None);
        assert_eq!(spec, vec![0, 0, 0, 0, 0, 1, 0]);
        // K4: 4 triangles, 3 C4s.
        let spec = cycle_spectrum(&generators::complete(4), 4, None);
        assert_eq!(spec[3], 4);
        assert_eq!(spec[4], 3);
        // The hypercube Q3: no odd cycles, 9 C4s (6 faces + 3 "diagonal"
        // 4-cycles? exact count: Q3 has 9 C4s... verify consistency
        // instead of hardcoding folklore:
        let spec = cycle_spectrum(&generators::hypercube(3), 6, None);
        assert_eq!(spec[3], 0);
        assert_eq!(spec[5], 0);
        assert!(spec[4] >= 6, "at least the 6 faces");
        assert!(spec[6] > 0);
    }

    #[test]
    fn count_consistent_with_find() {
        for seed in 0..6 {
            let g = generators::erdos_renyi(18, 0.2, seed);
            for l in [3usize, 4, 5] {
                let found = has_cycle_exact(&g, l, None);
                let count = count_cycles_exact(&g, l, None);
                assert_eq!(found, count > 0, "seed {seed}, l {l}");
            }
        }
    }

    #[test]
    fn exact_on_pure_cycles() {
        for n in 3..=10 {
            let g = generators::cycle(n);
            for l in 3..=10 {
                let found = find_cycle_exact(&g, l, None);
                assert_eq!(found.is_some(), l == n, "C{n} vs length {l}");
                if let Some(w) = found {
                    assert!(w.is_valid(&g));
                    assert_eq!(w.len(), l);
                }
            }
        }
    }

    #[test]
    fn exact_on_complete_graph() {
        let g = generators::complete(6);
        for l in 3..=6 {
            assert!(has_cycle_exact(&g, l, None), "K6 contains C{l}");
        }
        assert!(!has_cycle_exact(&g, 7, None));
    }

    #[test]
    fn exact_on_complete_bipartite() {
        let g = generators::complete_bipartite(3, 3);
        assert!(has_cycle_exact(&g, 4, None));
        assert!(has_cycle_exact(&g, 6, None));
        assert!(!has_cycle_exact(&g, 3, None));
        assert!(!has_cycle_exact(&g, 5, None));
    }

    #[test]
    fn exact_on_hypercube_even_only() {
        let g = generators::hypercube(3);
        assert!(has_cycle_exact(&g, 4, None));
        assert!(has_cycle_exact(&g, 6, None));
        assert!(has_cycle_exact(&g, 8, None));
        assert!(!has_cycle_exact(&g, 5, None));
        assert!(!has_cycle_exact(&g, 7, None));
    }

    #[test]
    fn exact_trees_have_no_cycles() {
        let g = generators::random_tree(30, 4);
        for l in 3..=8 {
            assert!(!has_cycle_exact(&g, l, None));
        }
    }

    #[test]
    fn contains_up_to_matches_girth() {
        let g = generators::theta(3, 5); // girth 8
        assert!(!contains_cycle_up_to(&g, 7));
        assert!(contains_cycle_up_to(&g, 8));
        assert!(contains_cycle_up_to(&g, 9));
    }

    #[test]
    #[should_panic(expected = "budget exhausted")]
    fn budget_exhaustion_panics() {
        let g = generators::complete(12);
        let _ = find_cycle_exact(&g, 12, Some(5));
    }

    /// The families of the smoke suite.
    const SMOKE_FAMILIES: [&str; 14] = [
        "trees",
        "cycle",
        "torus",
        "polarity",
        "planted:4",
        "multi:2:4",
        "noisy:4:0.02",
        "planted-polarity:4",
        "er:3",
        "bipartite:0.1",
        "regular:2",
        "funnel:4:2",
        "pa:2",
        "ws:4:0.1",
    ];

    /// The smoke families at n = 24 and 32, seeds 0 and 1, each with a
    /// label.
    fn smoke_graphs() -> Vec<(String, Graph)> {
        let mut graphs = Vec::new();
        for family in SMOKE_FAMILIES {
            let spec = crate::FamilySpec::parse(family).unwrap();
            for n in [24, 32] {
                for seed in 0..2 {
                    graphs.push((format!("{family} n={n} seed {seed}"), spec.build(n, seed)));
                }
            }
        }
        graphs
    }

    /// Per node, whether it lies on a `C_l`: exactly when deleting it
    /// deletes some `C_l`.
    fn on_cycle_by_deletion(g: &Graph, l: usize) -> Vec<bool> {
        let total = count_cycles_exact(g, l, None);
        g.nodes()
            .map(|v| {
                let mut keep = vec![true; g.node_count()];
                keep[v.index()] = false;
                count_cycles_exact(&g.induced_subgraph(&keep).0, l, None) < total
            })
            .collect()
    }

    #[test]
    fn nodes_on_cycles_matches_deletion_counts() {
        let length_sets = [4..=4, 5..=5, 3..=4, 6..=6, 7..=7, 3..=6];
        let mut checks = 0;
        for (label, g) in smoke_graphs() {
            let by_length: Vec<Vec<bool>> = (3..=7).map(|l| on_cycle_by_deletion(&g, l)).collect();
            for lengths in length_sets.clone() {
                let want: Vec<bool> = g
                    .nodes()
                    .map(|v| lengths.clone().any(|l| by_length[l - 3][v.index()]))
                    .collect();
                let got = nodes_on_cycles(&g, lengths.clone(), u64::MAX);
                assert_eq!(got, want, "{label}, lengths {lengths:?}");
                checks += want.len();
            }
        }
        assert_eq!(checks, 9096);
    }

    #[test]
    fn nodes_on_cycles_of_trees_and_cycles() {
        for (label, g) in smoke_graphs() {
            if label.starts_with("trees ") {
                let marked = nodes_on_cycles(&g, 3..=12, u64::MAX);
                assert!(!marked.contains(&true), "{label}");
            }
        }
        let cycle = crate::FamilySpec::parse("cycle").unwrap().build(24, 0);
        assert_eq!(nodes_on_cycles(&cycle, 24..=24, u64::MAX), vec![true; 24]);
        assert_eq!(nodes_on_cycles(&cycle, 4..=4, u64::MAX), vec![false; 24]);
    }

    #[test]
    fn nodes_on_cycles_skips_bipartite_components_for_odd_lengths() {
        // The 4×6 and 6×6 tori are bipartite, so they hold no odd cycle.
        // Within the budget a verdict-only evaluator grants, the search
        // answers so for odd lengths, where it used to run out and mark
        // every node; an even length still finds every node's C4.
        for n in [24, 36] {
            let g = crate::FamilySpec::parse("torus").unwrap().build(n, 0);
            assert!(crate::analysis::is_bipartite(&g), "torus n={n}");
            let budget = 64 * (g.node_count() + g.directed_edge_count()) as u64 + 4096;
            for lengths in [5..=5, 7..=7] {
                let marked = nodes_on_cycles(&g, lengths.clone(), budget);
                assert_eq!(marked, vec![false; n], "torus n={n}, lengths {lengths:?}");
            }
            assert_eq!(nodes_on_cycles(&g, 4..=4, budget), vec![true; n]);
        }
        // A bipartite component beside one with odd cycles: only the
        // odd one is searched, and its nodes on a C5 are marked.
        let mut b = crate::GraphBuilder::new(9);
        for (u, v) in [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 0),
            (4, 5),
            (5, 6),
            (6, 7),
            (7, 8),
            (8, 4),
        ] {
            b.add_edge(NodeId::new(u), NodeId::new(v));
        }
        let g = b.build();
        let want: Vec<bool> = (0..9).map(|v| v >= 4).collect();
        assert_eq!(nodes_on_cycles(&g, 5..=5, u64::MAX), want);
        assert_eq!(nodes_on_cycles(&g, 3..=3, u64::MAX), vec![false; 9]);
    }

    #[test]
    fn nodes_on_cycles_marks_everything_past_its_budget() {
        for (label, g) in smoke_graphs() {
            let everything = vec![true; g.node_count()];
            assert_eq!(nodes_on_cycles(&g, 4..=4, 1), everything, "{label}");
        }
    }

    #[test]
    fn color_coding_finds_planted() {
        let host = generators::random_tree(40, 9);
        let (g, _) = generators::plant_cycle(&host, 6, 1);
        let w = find_cycle_color_coding(&g, 6, 4000, 42);
        assert!(w.is_some(), "color coding should find the planted C6");
        assert!(w.unwrap().is_valid(&g));
    }

    #[test]
    fn color_coding_one_sided() {
        // On a C6-free graph, color coding must never "find" a C6.
        let g = generators::random_tree(40, 2);
        assert!(find_cycle_color_coding(&g, 6, 500, 7).is_none());
    }

    #[test]
    fn exact_agrees_with_color_coding_on_random_graphs() {
        for seed in 0..8 {
            let g = generators::erdos_renyi(24, 0.12, seed);
            let exact = has_cycle_exact(&g, 4, None);
            let cc = find_cycle_color_coding(&g, 4, 3000, seed ^ 0xABCD).is_some();
            if exact {
                // Color coding is one-sided; with this budget on 24 nodes,
                // a miss would be astronomically unlikely.
                assert!(cc, "color coding missed an existing C4 (seed {seed})");
            } else {
                assert!(!cc, "color coding fabricated a C4 (seed {seed})");
            }
        }
    }
}
