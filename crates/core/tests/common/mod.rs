//! The graphs the verdict-only evaluators are checked on: the families
//! of `suites/smoke.suite` at n = 24 and 32, plus five instances rich
//! in targets. Shared by `tests/verdict_only.rs` and the crate's unit
//! tests.

use congest_graph::{generators, FamilySpec, Graph, GraphBuilder, NodeId};

/// The families of `suites/smoke.suite`.
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

/// The smoke families at n = 24 and 32, plus `K_{6,6}` (C4s), `K_{10,10}`
/// (C4s of heavy nodes, which a scaled-down selection probability
/// leaves to the heavy call), a C5 farm, a tree with a planted C4, four
/// disjoint Petersen graphs (girth 5 and twelve C5s each, every node of
/// degree 3, so light for the `F_6` detector's pair ℓ = 3), and a C3
/// farm (triangles on no C4, which only the hand-off finds), each with
/// a label.
pub fn corpus() -> Vec<(String, Graph)> {
    let mut graphs = Vec::new();
    for family in SMOKE_FAMILIES {
        for n in [24, 32] {
            let g = FamilySpec::parse(family).unwrap().build(n, 0);
            graphs.push((format!("{family} n={n}"), g));
        }
    }
    graphs.push(("K6,6".to_string(), generators::complete_bipartite(6, 6)));
    graphs.push(("K10,10".to_string(), generators::complete_bipartite(10, 10)));
    let mut farm = generators::cycle(5);
    for _ in 1..6 {
        farm = generators::disjoint_union(&farm, &generators::cycle(5));
    }
    graphs.push(("C5 farm".to_string(), farm));
    let (planted, _) = generators::plant_cycle(&generators::random_tree(32, 5), 4, 5);
    graphs.push(("tree + C4".to_string(), planted));
    let mut petersen = GraphBuilder::new(10);
    for i in 0..5 {
        petersen.add_edge(NodeId::new(i), NodeId::new((i + 1) % 5));
        petersen.add_edge(NodeId::new(i), NodeId::new(i + 5));
        petersen.add_edge(NodeId::new(i + 5), NodeId::new((i + 2) % 5 + 5));
    }
    let petersen = petersen.build();
    let mut farm = petersen.clone();
    for _ in 1..4 {
        farm = generators::disjoint_union(&farm, &petersen);
    }
    graphs.push(("Petersen farm".to_string(), farm));
    let mut farm = generators::cycle(3);
    for _ in 1..6 {
        farm = generators::disjoint_union(&farm, &generators::cycle(3));
    }
    graphs.push(("C3 farm".to_string(), farm));
    graphs
}
