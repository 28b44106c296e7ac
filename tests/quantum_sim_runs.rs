//! How many simulator runs each fast-ci quantum entry makes. The
//! `sim.runs` counter is process-wide, so this file holds a single test:
//! nothing else in its process moves the counter while the deltas are
//! read.

use even_cycle_congest::telemetry::Registry;
use even_cycle_congest::{FamilySpec, Model, RunProfile, Verdict};

#[test]
fn fast_ci_quantum_sim_runs_are_pinned() {
    // Verdict, charged rounds and simulator runs of the four fast-ci
    // k = 2 quantum entries on n = 24, seed 0. The verdict-only oracle
    // simulates a randomized color-BFS call only when some active source
    // closes a well-colored cycle within H, so no unit on a tree
    // simulates at all. While it simulated every call with an active
    // source, the same units took trees 43 / 495 / 227 / 102 and
    // planted:4 13 / 233 / 163 / 102 runs; before that, every call ran,
    // and they took trees 2,400 / 2,780 / 4,344 / 1,776 and planted:4
    // 460 / 1,320 / 3,230 / 1,776 runs, all with the same verdicts and
    // rounds. The Lemma 12 oracle also computes S and W instead of
    // simulating the set-up round; while it simulated that round, the
    // C4 pipeline took 139 (trees) and 32 (planted:4) runs.
    #[rustfmt::skip]
    const PINNED: [(&str, &str, &str, u64, u64); 8] = [
        ("trees",     "quantum/C4/amplified-color-bfs-pipeline",       "accept",    161006, 0),
        ("trees",     "quantum/C5/amplified-odd-color-bfs-pipeline",   "accept",    284684, 0),
        ("trees",     "quantum/F4/amplified-pairwise-sweep-pipeline",  "accept",    308184, 0),
        ("trees",     "quantum/F4/quantized-heavy-search-framework",   "accept",    92250,  0),
        ("planted:4", "quantum/C4/amplified-color-bfs-pipeline",       "reject C4", 16225,  6),
        ("planted:4", "quantum/C5/amplified-odd-color-bfs-pipeline",   "accept",    141830, 0),
        ("planted:4", "quantum/F4/amplified-pairwise-sweep-pipeline",  "reject C4", 196933, 8),
        ("planted:4", "quantum/F4/quantized-heavy-search-framework",   "accept",    89380,  0),
    ];
    let runs = Registry::global().counter("sim.runs");
    let registry = RunProfile::FastCi.registry(2);
    let budget = RunProfile::FastCi.budget();
    let quantum = registry
        .iter()
        .filter(|e| e.descriptor.model == Model::Quantum)
        .count();
    assert_eq!(2 * quantum, PINNED.len(), "every quantum entry is pinned");
    for (family, id, verdict, rounds, sim_runs) in PINNED {
        let g = FamilySpec::parse(family).unwrap().build(24, 0);
        let entry = registry.iter().find(|e| e.id == id).expect(id);
        let before = runs.value();
        let d = entry.detector.detect(&g, 0, &budget).unwrap();
        let ran = runs.value() - before;
        let got = match &d.verdict {
            Verdict::Accept => "accept".to_string(),
            Verdict::Reject {
                cycle_length: Some(l),
                ..
            } => format!("reject C{l}"),
            other => format!("{other:?}"),
        };
        assert_eq!(
            (got.as_str(), d.cost.rounds, ran),
            (verdict, rounds, sim_runs),
            "{id} on {family}"
        );
    }
}
