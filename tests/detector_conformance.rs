//! The shared conformance suite of the unified `Detector` API: every
//! entry of the `DetectorRegistry` — the paper's six algorithms and the
//! Table 1 comparators — must satisfy the trait contract on the same
//! parametrized instances, with zero per-algorithm wiring.
//!
//! Per entry:
//!
//! * **Soundness** (verdict correctness, no side): on a target-free
//!   control the detector accepts for every seed tried — one-sided
//!   error means a single rejection is a bug.
//! * **Completeness** (verdict correctness, yes side): on a planted
//!   yes-instance the detector rejects within a bounded seed sweep.
//! * **Witness validity**: every rejection's cycle validates against
//!   the input graph and its length belongs to the declared target.
//! * **Seed determinism**: equal `(graph, seed, budget)` gives equal
//!   `Detection`s.

use even_cycle_congest::cycle::{Budget, Target};
use even_cycle_congest::graph::{generators, Graph};
use even_cycle_congest::registry::{DetectorRegistry, RegistryEntry};

/// `copies` disjoint copies of `C_len` plus a path: girth `len`, and
/// the per-repetition success probability of every sampling detector
/// scales with `copies`.
fn cycle_farm(len: usize, copies: usize) -> Graph {
    let mut g = generators::cycle(len);
    for _ in 1..copies {
        g = generators::disjoint_union(&g, &generators::cycle(len));
    }
    generators::disjoint_union(&g, &generators::path(10))
}

/// A yes-instance for the entry's target family.
fn planted_instance(target: Target) -> Graph {
    match target {
        // A planted C_{2k} on a sparse tree plus a farm boost: the
        // standard detection instance of the unit suites.
        Target::Even { k } => cycle_farm(2 * k, 8),
        Target::Odd { k } => cycle_farm(2 * k + 1, 8),
        // Shortest length dominates the F2k sweep; a C4 farm keeps the
        // pair ℓ = 2 responsible regardless of k.
        Target::F2k { .. } => cycle_farm(4, 8),
    }
}

/// A control certifiably free of the entry's target family.
fn control_instance(target: Target) -> Graph {
    match target {
        // C_{2k+2} has girth 2k+2 > 2k.
        Target::Even { k } => generators::cycle(2 * k + 2),
        // Bipartite graphs have no odd cycles at all.
        Target::Odd { .. } => generators::random_bipartite(16, 16, 0.15, 5),
        // Girth > 2k kills every length in {3, …, 2k}.
        Target::F2k { k } => generators::high_girth(48, 2 * k, 8, 3),
    }
}

/// Seeds granted to randomized one-sided detectors to find the planted
/// cycle (retries only help on yes-instances).
const COMPLETENESS_SEEDS: u64 = 12;
/// Seeds every detector must survive on the control.
const SOUNDNESS_SEEDS: u64 = 4;

fn assert_conformance(entry: &RegistryEntry, check_completeness: bool) {
    let target = entry.descriptor.target;
    let budget = Budget::classical();

    // --- soundness on the target-free control ---
    let control = control_instance(target);
    for seed in 0..SOUNDNESS_SEEDS {
        let d = entry
            .detector
            .detect(&control, seed, &budget)
            .unwrap_or_else(|e| panic!("{}: control simulation failed: {e}", entry.id));
        assert!(
            !d.rejected(),
            "{}: one-sided error violated on the control (seed {seed})",
            entry.id
        );
        assert_eq!(
            d.algorithm, entry.descriptor,
            "{}: detection must carry its own descriptor",
            entry.id
        );
    }

    // --- completeness + witness validity on the planted instance ---
    // Without a completeness requirement the sweep is only a
    // witness-validity probe, so two seeds suffice (the k = 3 sampling
    // budgets explode combinatorially — exactly the scaling Table 1
    // charges them).
    let planted = planted_instance(target);
    let seed_budget = if check_completeness {
        COMPLETENESS_SEEDS
    } else {
        2
    };
    let mut found = false;
    for seed in 0..seed_budget {
        let d = entry
            .detector
            .detect(&planted, seed, &budget)
            .unwrap_or_else(|e| panic!("{}: planted simulation failed: {e}", entry.id));
        if d.rejected() {
            found = true;
            let w = d
                .witness()
                .unwrap_or_else(|| panic!("{}: rejection without witness", entry.id));
            assert!(w.is_valid(&planted), "{}: invalid witness", entry.id);
            assert!(
                target.matches_length(w.len()),
                "{}: witness length {} outside target {}",
                entry.id,
                w.len(),
                target.label()
            );
            break;
        }
    }
    if check_completeness {
        assert!(
            found,
            "{}: planted {} never detected in {COMPLETENESS_SEEDS} seeds",
            entry.id,
            target.label()
        );
    }

    // --- seed determinism ---
    let a = entry.detector.detect(&planted, 1, &budget).unwrap();
    let b = entry.detector.detect(&planted, 1, &budget).unwrap();
    assert_eq!(a, b, "{}: same seed must reproduce the Detection", entry.id);
}

#[test]
fn registry_k2_full_conformance() {
    let registry = DetectorRegistry::standard(2);
    assert!(registry.len() >= 8, "k = 2 registry lost algorithms");
    for entry in registry.iter() {
        assert_conformance(entry, true);
    }
}

#[test]
fn registry_k3_soundness_determinism_and_witnesses() {
    // At k = 3 the sampling baselines' completeness budgets explode
    // (that is exactly the n^{1-1/k} attempt scaling Table 1 charges
    // them), so the planted sweep stays best-effort: any rejection must
    // still be certified, and soundness/determinism are unconditional.
    let registry = DetectorRegistry::standard(3);
    assert!(registry.len() >= 8, "k = 3 registry lost algorithms");
    for entry in registry.iter() {
        assert_conformance(entry, false);
    }
}

#[test]
fn registry_covers_all_eight_algorithm_families() {
    // 3 core classical + 3 quantum + the 4 comparators (the [15,30]
    // gather baseline registering per parity).
    let registry = DetectorRegistry::standard(3);
    let references: std::collections::BTreeSet<&str> =
        registry.iter().map(|e| e.descriptor.reference).collect();
    for expected in [
        "this paper",
        "this paper §3.4",
        "this paper §3.5",
        "this paper Thm 2",
        "[10]",
        "[15,30]",
        "[16]",
        "[33]",
    ] {
        // k = 3 drops [10] (k ≤ 5 holds) — check against k = 3 ∪ k = 6.
        if expected == "[10]" {
            let r2 = DetectorRegistry::standard(2);
            assert!(
                r2.iter().any(|e| e.descriptor.reference == "[10]"),
                "[10] missing from the k = 2 registry"
            );
            continue;
        }
        assert!(
            references.contains(expected),
            "reference {expected} missing from the k = 3 registry (has {references:?})"
        );
    }
}

#[test]
fn backends_are_transcript_equivalent_across_the_registry() {
    // The tentpole invariant of the unified simulation backend: for
    // EVERY registry entry, the full `Detection` — verdict, witness,
    // rounds, messages, congestion, iterations — is identical under
    // the sequential and parallel backends at any thread count, on
    // both a planted yes-instance and a dense extremal no-instance.
    use congest_graph::FamilySpec;
    use even_cycle_congest::sim::Backend;
    let registry = DetectorRegistry::with_profile(2, even_cycle_congest::RunProfile::FastCi);
    let planted = planted_instance(Target::Even { k: 2 });
    // Polarity graphs are the C4-free extremal inputs (Θ(n^{3/2})
    // edges): the densest deliver workload the detectors see — plus
    // one small instance of every family the spec catalog added
    // (power-law, small-world, torus, multi-planted, noisy-planted),
    // so a new family cannot join the catalog without passing the
    // backend-equivalence bar.
    let extremal = generators::polarity_graph(5);
    let new_families = [
        FamilySpec::PreferentialAttachment { m: 2 },
        FamilySpec::WattsStrogatz { k: 4, p: 0.1 },
        FamilySpec::Torus,
        FamilySpec::MultiPlanted { copies: 2, l: 4 },
        FamilySpec::NoisyPlanted { l: 4, p: 0.05 },
    ];
    let mut instances: Vec<(String, congest_graph::Graph)> = vec![
        ("planted".to_string(), planted),
        ("extremal".to_string(), extremal),
    ];
    for spec in new_families {
        instances.push((spec.canonical_label(), spec.build(16, 5)));
    }
    for entry in registry.iter() {
        for (gname, g) in &instances {
            let baseline = entry
                .detector
                .detect(g, 3, &Budget::classical())
                .unwrap_or_else(|e| panic!("{}: {gname} failed sequentially: {e}", entry.id));
            // Thread counts bracketing every pool regime: the
            // sequential fallback (1), small pools (2, 4), more
            // workers than nodes (128 — every instance here is
            // smaller), and `Auto` on both sides of its flip:
            // threshold 1 always takes the pooled path, the tuned
            // default always stays sequential at these sizes.
            for backend in [
                Backend::Sequential,
                Backend::Parallel { threads: 1 },
                Backend::Parallel { threads: 2 },
                Backend::Parallel { threads: 4 },
                Backend::Parallel { threads: 128 },
                Backend::Auto {
                    node_threshold: 1,
                    threads: 2,
                },
                Backend::auto(),
            ] {
                let budget = Budget::classical().with_backend(backend);
                let d = entry
                    .detector
                    .detect(g, 3, &budget)
                    .unwrap_or_else(|e| panic!("{}: {gname} failed on {backend}: {e}", entry.id));
                assert_eq!(
                    d, baseline,
                    "{}: Detection diverged on {gname} under {backend}",
                    entry.id
                );
            }
        }
    }
}

#[test]
fn cut_meter_words_agree_on_the_pooled_path() {
    // Congestion lower bounds read `cut_words` off the run report; the
    // persistent worker pool must charge exactly the same cut
    // crossings as the sequential core, whatever the thread count and
    // however the backend was selected. Broadcast gossip on a bisected
    // ER graph keeps every cut edge busy every superstep.
    use even_cycle_congest::graph::NodeId;
    use even_cycle_congest::sim::{
        run_with_backend, Backend, Control, Ctx, CutMeter, Outbox, Program,
    };

    #[derive(Debug)]
    struct Flood {
        steps: usize,
    }
    impl Program for Flood {
        type Msg = u64;
        fn init(&mut self, ctx: &mut Ctx, out: &mut Outbox<u64>) {
            out.broadcast(ctx.node.index() as u64);
        }
        fn step(
            &mut self,
            _ctx: &mut Ctx,
            s: usize,
            inbox: &[(NodeId, u64)],
            out: &mut Outbox<u64>,
        ) -> Control {
            if s + 1 < self.steps {
                out.broadcast(inbox.len() as u64);
                Control::Continue
            } else {
                Control::Halt
            }
        }
    }

    let g = generators::erdos_renyi(64, 0.12, 11);
    let side: Vec<bool> = (0..g.node_count()).map(|v| v >= 32).collect();
    let build = |_: NodeId, _: usize| Flood { steps: 4 };
    let cut = || Some(CutMeter::new(&g, side.clone()));
    let (baseline, _) = run_with_backend(&g, 5, Backend::Sequential, 1, cut(), build, 16).unwrap();
    assert!(
        baseline.cut_words.is_some_and(|w| w > 0),
        "the bisection must be crossed"
    );
    for backend in [
        Backend::Parallel { threads: 2 },
        Backend::Parallel { threads: 4 },
        Backend::Parallel { threads: 128 },
        Backend::Auto {
            node_threshold: 1,
            threads: 2,
        },
    ] {
        let (report, _) = run_with_backend(&g, 5, backend, 1, cut(), build, 16).unwrap();
        assert_eq!(
            report.cut_words, baseline.cut_words,
            "cut accounting diverged under {backend}"
        );
        assert_eq!(report, baseline, "full report diverged under {backend}");
    }
}

#[test]
fn bandwidth_budget_is_honored_by_classical_entries() {
    use even_cycle_congest::cycle::Model;
    let registry = DetectorRegistry::standard(2);
    let g = planted_instance(Target::Even { k: 2 });
    for entry in registry.by_model(Model::Classical) {
        let narrow = entry.detector.detect(&g, 2, &Budget::classical()).unwrap();
        let wide = entry
            .detector
            .detect(&g, 2, &Budget::classical().with_bandwidth(8))
            .unwrap();
        assert!(
            wide.cost.rounds <= narrow.cost.rounds,
            "{}: bandwidth 8 must not cost more rounds ({} vs {})",
            entry.id,
            wide.cost.rounds,
            narrow.cost.rounds
        );
    }
}
