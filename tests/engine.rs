//! Engine conformance: parallel determinism, budget-cap enforcement,
//! and result-store resume (the acceptance criteria of the experiment
//! engine).

use std::sync::atomic::{AtomicU64, Ordering};

use even_cycle_congest::cycle::{
    Budget, CycleDetector, Detector, OddCycleDetector, Params, Verdict,
};
use even_cycle_congest::graph::generators;
use even_cycle_congest::registry::DetectorRegistry;
use even_cycle_congest::scenario::{GraphFamily, Metric, Scenario};
use even_cycle_congest::RunProfile;

/// The conformance grid: a few detectors of different shapes over a
/// planted-cycle family.
fn conformance_scenario() -> Scenario {
    Scenario::new("conformance grid", GraphFamily::planted_cycle(4))
        .sizes(&[24, 32, 48])
        .seeds(0..3)
        .metric(Metric::Rounds)
}

#[test]
fn parallel_report_is_byte_identical_to_sequential() {
    let a = CycleDetector::new(Params::practical(2).with_repetitions(3));
    let b = OddCycleDetector::new(2, 20);
    let c = congest_baselines::deterministic::GatherDetector::new(4);
    let dets: Vec<&dyn Detector> = vec![&a, &b, &c];

    let sequential = conformance_scenario().workers(1).run(&dets).to_json();
    for workers in [2usize, 8] {
        let parallel = conformance_scenario().workers(workers).run(&dets).to_json();
        assert_eq!(
            sequential, parallel,
            "workers = {workers} must reproduce the sequential report byte for byte"
        );
    }
}

#[test]
fn round_cap_aborts_instead_of_looping() {
    // A cycle-free host with a large repetition budget: uncapped, the
    // detector grinds through all 64 iterations; capped, it must abort
    // early with the budget-exceeded verdict.
    let det = CycleDetector::new(Params::practical(2).with_repetitions(64));
    let g = generators::random_tree(48, 5);

    let uncapped = det.detect(&g, 1, &Budget::classical()).unwrap();
    assert!(!uncapped.rejected());
    let full_rounds = uncapped.cost.rounds;
    assert!(full_rounds > 40, "need a meaningful uncapped run");

    let capped = det
        .detect(&g, 1, &Budget::classical().with_round_cap(full_rounds / 8))
        .unwrap();
    assert!(
        matches!(capped.verdict, Verdict::BudgetExceeded { .. }),
        "capped run must report BudgetExceeded, got {:?}",
        capped.verdict
    );
    assert!(capped.budget_exceeded());
    assert!(capped.witness().is_none());
    assert!(
        capped.cost.rounds < full_rounds / 2,
        "the capped run must abort early ({} vs {full_rounds} rounds)",
        capped.cost.rounds
    );
    assert!(
        capped.cost.iterations < 64,
        "the capped run must not spend the whole repetition budget"
    );
}

#[test]
fn message_cap_aborts_the_odd_detector() {
    let det = OddCycleDetector::new(2, 200);
    let g = generators::random_bipartite(24, 24, 0.15, 3);

    let uncapped = det.detect(&g, 2, &Budget::classical()).unwrap();
    assert!(!uncapped.rejected());
    let full_messages = uncapped.cost.messages;
    assert!(full_messages > 100);

    let capped = det
        .detect(
            &g,
            2,
            &Budget::classical().with_message_cap(full_messages / 10),
        )
        .unwrap();
    assert!(capped.budget_exceeded());
    assert!(capped.cost.messages < full_messages);
}

#[test]
fn certified_rejection_survives_a_cap() {
    // A planted C4 found on the first iterations: even with a cap the
    // witness is proof, so the verdict must stay Reject.
    let host = generators::random_tree(48, 7);
    let (g, _) = generators::plant_cycle(&host, 4, 7);
    let det = CycleDetector::new(Params::practical(2));
    let uncapped = det.detect(&g, 11, &Budget::classical()).unwrap();
    assert!(uncapped.rejected(), "seed 11 must find the planted C4");
    let capped = det
        .detect(&g, 11, &Budget::classical().with_round_cap(1))
        .unwrap();
    // Either the rejection happened before the cap bit (witness kept),
    // or the run was cut off first (budget exceeded) — but a kept
    // rejection must carry its witness.
    if capped.rejected() {
        assert!(capped.witness().unwrap().is_valid(&g));
    } else {
        assert!(capped.budget_exceeded());
    }
}

/// A forwarding detector that counts invocations (to prove the store
/// replays without running anything).
#[derive(Debug)]
struct Counting<'a> {
    inner: &'a dyn Detector,
    calls: &'a AtomicU64,
}

impl Detector for Counting<'_> {
    fn descriptor(&self) -> even_cycle_congest::Descriptor {
        self.inner.descriptor()
    }

    fn config_fingerprint(&self) -> String {
        // The default Debug rendering would include the (mutating)
        // call counter; forward the inner configuration instead.
        self.inner.config_fingerprint()
    }

    fn detect(
        &self,
        g: &even_cycle_congest::graph::Graph,
        seed: u64,
        budget: &Budget,
    ) -> even_cycle::DetectResult {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.detect(g, seed, budget)
    }
}

#[test]
fn store_resume_invokes_no_detector() {
    let dir = std::env::temp_dir().join(format!("ec-engine-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let a = CycleDetector::new(Params::practical(2).with_repetitions(3));
    let b = OddCycleDetector::new(2, 20);
    let calls = AtomicU64::new(0);
    let ca = Counting {
        inner: &a,
        calls: &calls,
    };
    let cb = Counting {
        inner: &b,
        calls: &calls,
    };
    let dets: Vec<&dyn Detector> = vec![&ca, &cb];
    let scenario = || {
        Scenario::new("resume grid", GraphFamily::planted_cycle(4))
            .sizes(&[24, 32])
            .seeds(0..2)
            .workers(2)
            .store(&dir)
    };

    let first = scenario().run(&dets).to_json();
    let units = 2 * 2 * 2; // sizes × seeds × detectors
    assert_eq!(calls.load(Ordering::Relaxed), units);

    // Second run: everything replays from the JSONL store.
    let second = scenario().run(&dets).to_json();
    assert_eq!(
        calls.load(Ordering::Relaxed),
        units,
        "a completed sweep must resume with zero detector invocations"
    );
    assert_eq!(first, second, "replayed report must be byte-identical");

    // Records carry the full unified cost, so re-analyzing under a
    // different metric is also a zero-invocation replay.
    let messages = scenario().metric(Metric::Messages).run(&dets);
    assert_eq!(
        calls.load(Ordering::Relaxed),
        units,
        "a metric change must replay the stored costs"
    );
    assert_ne!(messages.to_json(), first, "but the report does change");

    // A genuinely different configuration (bandwidth) must NOT reuse
    // the cached units.
    let _ = scenario()
        .budget(Budget::classical().with_bandwidth(2))
        .run(&dets);
    assert_eq!(calls.load(Ordering::Relaxed), 2 * units);

    // So must a re-tuned detector behind the same registry id: the
    // config fingerprint separates the unit keys. Per-unit addressing
    // means only the re-tuned detector's own cells re-execute — the
    // unchanged detector's units replay from the store.
    let retuned = CycleDetector::new(Params::practical(2).with_repetitions(5));
    let cr = Counting {
        inner: &retuned,
        calls: &calls,
    };
    let retuned_dets: Vec<&dyn Detector> = vec![&cr, &cb];
    let _ = scenario().run(&retuned_dets);
    assert_eq!(
        calls.load(Ordering::Relaxed),
        2 * units + units / 2,
        "a re-tuned detector must re-execute its own units (and only those)"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn family_parameter_change_invalidates_exactly_its_own_units() {
    // The store-fingerprint footgun, closed end-to-end: family
    // parameters are part of the unit key, so re-running with
    // planted:4 → planted:6 re-executes exactly the planted units —
    // the trees units (same grid, same detector, same budget) replay
    // untouched.
    let dir = std::env::temp_dir().join(format!("ec-engine-famkey-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let inner = CycleDetector::new(Params::practical(2).with_repetitions(2));
    let calls = AtomicU64::new(0);
    let det = Counting {
        inner: &inner,
        calls: &calls,
    };
    let dets: Vec<&dyn Detector> = vec![&det];
    let scenario = |family: GraphFamily| {
        Scenario::new("family key grid", family)
            .sizes(&[24, 32])
            .seeds(0..2)
            .store(&dir)
    };
    let units = 2 * 2;

    // Seed the store with planted:4 and trees sweeps.
    let _ = scenario(GraphFamily::planted_cycle(4)).run(&dets);
    let _ = scenario(GraphFamily::random_trees()).run(&dets);
    assert_eq!(calls.load(Ordering::Relaxed), 2 * units as u64);

    // Change the planted family's PARAMETER: its own units re-execute…
    let _ = scenario(GraphFamily::planted_cycle(6)).run(&dets);
    assert_eq!(
        calls.load(Ordering::Relaxed),
        3 * units as u64,
        "planted:6 must not replay planted:4's records"
    );

    // …and nothing else was invalidated: the other families replay.
    let _ = scenario(GraphFamily::planted_cycle(4)).run(&dets);
    let _ = scenario(GraphFamily::random_trees()).run(&dets);
    let _ = scenario(GraphFamily::planted_cycle(6)).run(&dets);
    assert_eq!(
        calls.load(Ordering::Relaxed),
        3 * units as u64,
        "every previously computed family must replay with zero invocations"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn legacy_name_keyed_records_are_ignored_not_misread() {
    // Pre-refactor stores keyed units by the family's display name
    // (canonical prefix v2). Those records must never replay against a
    // fingerprint-keyed (v3) sweep — the sweep executes everything
    // live and the legacy lines stay as dead weight in the file.
    use even_cycle_congest::engine::store::{canonical_unit, unit_key, STORE_FILE};

    let dir = std::env::temp_dir().join(format!("ec-engine-legacy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let inner = CycleDetector::new(Params::practical(2).with_repetitions(2));
    let id = inner.descriptor().id();
    let config = inner.config_fingerprint();

    // Forge a v2-era store: records keyed by the OLD canonical string
    // (family display name, v2 prefix) for the exact grid we are about
    // to run. If keys still matched, the sweep would replay these
    // bogus costs; rounds=1 makes a misread detectable too.
    let mut lines = vec!["{\"kind\":\"unit-store\",\"version\":2}".to_string()];
    for &n in &[24usize, 32] {
        for seed in 0..2u64 {
            let legacy_canonical = format!(
                "v2|family=planted C4 on trees|n={n}|seed={seed}|det={id}|config={config}|bandwidth=1|repetitions=None|run_to_budget=false|max_rounds=None|max_messages=None"
            );
            let key = unit_key(&legacy_canonical);
            lines.push(format!(
                "{{\"key\":\"{key}\",\"det\":\"{id}\",\"n\":{n},\"seed\":{seed},\"status\":\"ok\",\"rejected\":false,\"value\":1,\"node_count\":{n},\"rounds\":1,\"supersteps\":1,\"messages\":1,\"words\":1,\"max_congestion\":1,\"iterations\":1}}"
            ));
            // Sanity: the forged key cannot equal the v3 key of the
            // same unit.
            let current = unit_key(&canonical_unit(
                &GraphFamily::planted_cycle(4).store_key(),
                n,
                seed,
                &id,
                &config,
                &Budget::classical(),
            ));
            assert_ne!(key, current, "legacy keys must never collide with v3");
        }
    }
    std::fs::write(dir.join(STORE_FILE), lines.join("\n") + "\n").unwrap();

    let calls = AtomicU64::new(0);
    let det = Counting {
        inner: &inner,
        calls: &calls,
    };
    let dets: Vec<&dyn Detector> = vec![&det];
    let report = Scenario::new("legacy grid", GraphFamily::planted_cycle(4))
        .sizes(&[24, 32])
        .seeds(0..2)
        .store(&dir)
        .run(&dets);
    assert_eq!(
        calls.load(Ordering::Relaxed),
        4,
        "legacy name-keyed records must be ignored: every unit runs live"
    );
    // A misread would have aggregated the forged rounds=1 records.
    assert!(
        report.rows[0].samples.iter().all(|&(_, v)| v > 1.0),
        "forged legacy costs must not reach the report: {:?}",
        report.rows[0].samples
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn suite_reports_match_standalone_runs_and_share_the_store() {
    // One shared engine pass over two scenarios must aggregate exactly
    // what two standalone runs produce, and its store must serve both.
    use even_cycle_congest::Engine;

    let dir = std::env::temp_dir().join(format!("ec-engine-suitepass-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let a = CycleDetector::new(Params::practical(2).with_repetitions(3));
    let b = OddCycleDetector::new(2, 20);
    let calls = AtomicU64::new(0);
    let ca = Counting {
        inner: &a,
        calls: &calls,
    };
    let cb = Counting {
        inner: &b,
        calls: &calls,
    };
    let planted = Scenario::new("planted", GraphFamily::planted_cycle(4))
        .sizes(&[24, 32])
        .seeds(0..2);
    let trees = Scenario::new("trees", GraphFamily::random_trees())
        .sizes(&[24])
        .seeds(0..2)
        .metric(Metric::Messages);
    let dets_a: Vec<&dyn Detector> = vec![&ca, &cb];
    let dets_b: Vec<&dyn Detector> = vec![&ca];

    let engine = Engine::from_env().with_workers(2).with_store(&dir);
    let outcome = engine.run_suite(&[(&planted, &dets_a), (&trees, &dets_b)]);
    assert_eq!(outcome.reports.len(), 2);
    assert_eq!(outcome.total_units, 8 + 2);
    assert_eq!(outcome.executed_units, 10);
    assert_eq!(calls.load(Ordering::Relaxed), 10);

    // Standalone runs replay the suite's store and agree byte for byte.
    let alone_a = engine.run(&planted, &dets_a);
    let alone_b = engine.run(&trees, &dets_b);
    assert_eq!(calls.load(Ordering::Relaxed), 10, "pure replay");
    assert_eq!(outcome.reports[0].to_json(), alone_a.to_json());
    assert_eq!(outcome.reports[1].to_json(), alone_b.to_json());

    // And a second suite pass replays everything.
    let replay = engine.run_suite(&[(&planted, &dets_a), (&trees, &dets_b)]);
    assert_eq!(replay.executed_units, 0);
    assert_eq!(replay.replayed_units, replay.total_units);
    assert_eq!(calls.load(Ordering::Relaxed), 10);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn partial_store_resumes_only_missing_units() {
    // Simulate a killed sweep: keep the header and the first three
    // record lines, then re-run — only the missing units may execute.
    let dir = std::env::temp_dir().join(format!("ec-engine-partial-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let inner = CycleDetector::new(Params::practical(2).with_repetitions(2));
    let calls = AtomicU64::new(0);
    let det = Counting {
        inner: &inner,
        calls: &calls,
    };
    let dets: Vec<&dyn Detector> = vec![&det];
    let scenario = || {
        Scenario::new("partial grid", GraphFamily::planted_cycle(4))
            .sizes(&[24, 32])
            .seeds(0..3)
            .store(dir.clone())
    };
    let units = 2 * 3;

    let first = scenario().run(&dets).to_json();
    assert_eq!(calls.load(Ordering::Relaxed), units);

    let file = std::fs::read_dir(&dir)
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let kept: Vec<String> = std::fs::read_to_string(&file)
        .unwrap()
        .lines()
        .take(4) // header + 3 records
        .map(String::from)
        .collect();
    std::fs::write(&file, kept.join("\n") + "\n").unwrap();

    let resumed = scenario().run(&dets).to_json();
    assert_eq!(
        calls.load(Ordering::Relaxed),
        units + (units - 3),
        "only the dropped units may re-execute"
    );
    assert_eq!(
        first, resumed,
        "partial resume must rebuild the same report"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn grid_extension_replays_every_overlapping_unit() {
    // The acceptance criterion of the per-unit store: extending a sweep
    // grid by one rung — a size, a seed, or a detector — replays all
    // overlapping units with zero detector invocations and executes
    // only the new cells.
    let dir = std::env::temp_dir().join(format!("ec-engine-extend-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let a = CycleDetector::new(Params::practical(2).with_repetitions(3));
    let b = OddCycleDetector::new(2, 20);
    let calls = AtomicU64::new(0);
    let ca = Counting {
        inner: &a,
        calls: &calls,
    };
    let cb = Counting {
        inner: &b,
        calls: &calls,
    };
    let base = |sizes: &[usize], seeds: std::ops::Range<u64>| {
        Scenario::new("extension grid", GraphFamily::planted_cycle(4))
            .sizes(sizes)
            .seeds(seeds)
            .workers(2)
            .store(&dir)
    };

    // Seed sweep: 2 sizes × 2 seeds × 1 detector.
    let one_det: Vec<&dyn Detector> = vec![&ca];
    let _ = base(&[24, 32], 0..2).run(&one_det);
    assert_eq!(calls.load(Ordering::Relaxed), 4);

    // Extend the size ladder by one rung: only the new rung's units run.
    let _ = base(&[24, 32, 48], 0..2).run(&one_det);
    assert_eq!(
        calls.load(Ordering::Relaxed),
        4 + 2,
        "the 2 overlapping sizes must replay; only n = 48 executes"
    );

    // Extend the seed range by one: only the new seed's units run.
    let _ = base(&[24, 32, 48], 0..3).run(&one_det);
    assert_eq!(
        calls.load(Ordering::Relaxed),
        6 + 3,
        "seeds 0..2 must replay; only seed 2 executes"
    );

    // Add a detector: only its units run.
    let two_dets: Vec<&dyn Detector> = vec![&ca, &cb];
    let full = base(&[24, 32, 48], 0..3).run(&two_dets);
    assert_eq!(
        calls.load(Ordering::Relaxed),
        9 + 9,
        "the first detector's 9 units must replay; only the new detector executes"
    );

    // And the fully replayed grid is byte-identical at any worker count.
    let replayed = base(&[24, 32, 48], 0..3).workers(8).run(&two_dets);
    assert_eq!(calls.load(Ordering::Relaxed), 18, "full replay");
    assert_eq!(full.to_json(), replayed.to_json());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_under_migration_replays_overlap_and_runs_new_rung() {
    // Kill a sweep mid-grid (simulated by truncating the store file),
    // extend the grid by one size rung, reopen with the per-unit store:
    // the surviving units replay with zero invocations, and both the
    // killed-off remainder and the new rung run live.
    let dir = std::env::temp_dir().join(format!("ec-engine-migrate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let inner = CycleDetector::new(Params::practical(2).with_repetitions(2));
    let calls = AtomicU64::new(0);
    let det = Counting {
        inner: &inner,
        calls: &calls,
    };
    let dets: Vec<&dyn Detector> = vec![&det];
    let scenario = |sizes: &[usize]| {
        Scenario::new("migration grid", GraphFamily::planted_cycle(4))
            .sizes(sizes)
            .seeds(0..3)
            .store(&dir)
    };

    let _ = scenario(&[24, 32]).run(&dets);
    assert_eq!(calls.load(Ordering::Relaxed), 6);

    // "Kill" the sweep mid-grid: keep the header and the first 4 of 6
    // unit records.
    let file = dir.join("units-v2.jsonl");
    let kept: Vec<String> = std::fs::read_to_string(&file)
        .unwrap()
        .lines()
        .take(5)
        .map(String::from)
        .collect();
    std::fs::write(&file, kept.join("\n") + "\n").unwrap();

    // Reopen with the grid extended by one rung: the 4 surviving units
    // replay; the 2 killed units and the 3 new-rung units run live.
    let report = scenario(&[24, 32, 48]).run(&dets);
    assert_eq!(
        calls.load(Ordering::Relaxed),
        6 + 2 + 3,
        "4 surviving units must replay with zero invocations"
    );
    assert_eq!(report.rows[0].skipped, 0);
    assert_eq!(report.rows[0].errors, 0);
    assert_eq!(
        report.rows[0].samples.len(),
        3,
        "all three rungs aggregated"
    );

    // The migrated store now covers the whole extended grid.
    let replay = scenario(&[24, 32, 48]).run(&dets);
    assert_eq!(
        calls.load(Ordering::Relaxed),
        11,
        "full replay after migration"
    );
    assert_eq!(report.to_json(), replay.to_json());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wall_clock_cap_skips_then_resumes_cleanly() {
    use even_cycle_congest::Schedule;

    let dir = std::env::temp_dir().join(format!("ec-engine-capped-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let inner = CycleDetector::new(Params::practical(2).with_repetitions(2));
    let calls = AtomicU64::new(0);
    let det = Counting {
        inner: &inner,
        calls: &calls,
    };
    let dets: Vec<&dyn Detector> = vec![&det];
    let scenario = || {
        Scenario::new("capped grid", GraphFamily::planted_cycle(4))
            .sizes(&[24, 32])
            .seeds(0..2)
            .store(&dir)
    };

    // A zero cap is already elapsed at dispatch: every unit is skipped,
    // nothing is invoked, and the report says so.
    let capped = scenario()
        .schedule(Schedule::cheapest_first().with_wall_clock_cap(std::time::Duration::ZERO))
        .run(&dets);
    assert_eq!(calls.load(Ordering::Relaxed), 0);
    assert_eq!(capped.rows[0].skipped, 4);
    assert_eq!(capped.skipped_units(), 4);
    assert!(capped.rows[0].samples.is_empty());
    assert!(capped.render().contains("skipped 4"));
    assert!(capped.to_json().contains("\"skipped\":4"));

    // Resuming without the cap completes the sweep...
    let resumed = scenario().run(&dets);
    assert_eq!(calls.load(Ordering::Relaxed), 4);
    assert_eq!(resumed.skipped_units(), 0);

    // ...and matches a from-scratch uncapped run byte for byte.
    let fresh_dir = std::env::temp_dir().join(format!("ec-engine-capped2-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&fresh_dir);
    let fresh = Scenario::new("capped grid", GraphFamily::planted_cycle(4))
        .sizes(&[24, 32])
        .seeds(0..2)
        .store(&fresh_dir)
        .run(&dets);
    assert_eq!(resumed.to_json(), fresh.to_json());

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&fresh_dir).ok();
}

#[test]
fn cheapest_first_report_matches_in_order() {
    // Dispatch order must never change the aggregated report:
    // aggregation folds records in canonical unit order.
    use even_cycle_congest::Schedule;
    let a = CycleDetector::new(Params::practical(2).with_repetitions(2));
    let b = OddCycleDetector::new(2, 20);
    let dets: Vec<&dyn Detector> = vec![&a, &b];
    let in_order = conformance_scenario().workers(2).run(&dets);
    let cheapest = conformance_scenario()
        .workers(2)
        .schedule(Schedule::cheapest_first())
        .run(&dets);
    assert_eq!(in_order.to_json(), cheapest.to_json());
}

#[test]
fn fast_ci_profile_sweeps_the_whole_registry() {
    // The CI smoke path: every registry entry over a tiny grid, two
    // workers, capped budget. Must produce a full report with a row per
    // entry and no simulator errors.
    let registry = RunProfile::FastCi.registry(2);
    let report = Scenario::new("fast-ci smoke", GraphFamily::random_trees())
        .sizes(&[24])
        .seeds(0..1)
        .budget(RunProfile::FastCi.budget())
        .workers(2)
        .run_registry(&registry);
    assert_eq!(report.rows.len(), registry.len());
    assert!(report.rows.iter().all(|r| r.errors == 0));
    // Trees are cycle-free and the caps are a safety net, not a
    // tripwire: every run completes.
    assert!(report.rows.iter().all(|r| r.rejections == 0));
    assert!(report.rows.iter().all(|r| r.budget_exceeded == 0));
}

#[test]
fn profile_registries_line_up_with_standard() {
    let standard = DetectorRegistry::standard(3);
    let practical = RunProfile::Practical.registry(3);
    assert_eq!(standard.len(), practical.len());
    for (a, b) in standard.iter().zip(practical.iter()) {
        assert_eq!(a.id, b.id);
    }
}

#[test]
fn stream_replay_executes_zero_detector_invocations() {
    // The streaming acceptance criterion: replaying an identical
    // UpdateSchedule twice through StreamScenario must resolve every
    // checkpoint unit from the content-addressed store on the second
    // pass — zero detector invocations — and reproduce the report byte
    // for byte.
    use even_cycle_congest::stream::StreamScenario;
    use even_cycle_congest::UpdateSchedule;

    let dir = std::env::temp_dir().join(format!("ec-engine-stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let schedule = UpdateSchedule::parse("planted:4@rate=6,mix=0.6,checkpoints=3").unwrap();
    let scenario = StreamScenario::new("stream resume", schedule)
        .n(32)
        .seeds(0..2)
        .store(&dir);
    let inner = CycleDetector::new(Params::practical(2).with_repetitions(2));
    let calls = AtomicU64::new(0);
    let counting = Counting {
        inner: &inner,
        calls: &calls,
    };

    let first = scenario.run(&[&counting]);
    assert_eq!(first.total_units, 3 * 2);
    assert_eq!(first.executed_units, 6);
    assert_eq!(first.replayed_units, 0);
    assert_eq!(calls.load(Ordering::Relaxed), 6);

    let second = scenario.run(&[&counting]);
    assert_eq!(
        second.executed_units, 0,
        "an unchanged stream must replay entirely from the store"
    );
    assert_eq!(second.replayed_units, 6);
    assert_eq!(
        calls.load(Ordering::Relaxed),
        6,
        "the second pass must not invoke the detector at all"
    );
    assert_eq!(
        first.report.to_json(),
        second.report.to_json(),
        "replayed reports must be byte-identical"
    );

    // Changing any schedule parameter moves every checkpoint key: a
    // third run with a different mix must execute everything afresh.
    let edited = UpdateSchedule::parse("planted:4@rate=6,mix=0.5,checkpoints=3").unwrap();
    let third = StreamScenario::new("stream resume", edited)
        .n(32)
        .seeds(0..2)
        .store(&dir)
        .run(&[&counting]);
    assert_eq!(third.executed_units, 6);
    assert_eq!(calls.load(Ordering::Relaxed), 12);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn extending_a_stream_seed_sweep_executes_only_new_cells() {
    use even_cycle_congest::stream::StreamScenario;
    use even_cycle_congest::UpdateSchedule;

    let dir = std::env::temp_dir().join(format!("ec-engine-stream-ext-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let schedule = UpdateSchedule::parse("trees@rate=4,mix=0.8,checkpoints=2").unwrap();
    let det = CycleDetector::new(Params::practical(2).with_repetitions(2));
    let narrow = StreamScenario::new("stream extend", schedule.clone())
        .n(24)
        .seeds(0..1)
        .store(&dir)
        .run(&[&det]);
    assert_eq!(narrow.executed_units, 2);

    // One more seed: only its two checkpoint units are new.
    let wide = StreamScenario::new("stream extend", schedule)
        .n(24)
        .seeds(0..2)
        .store(&dir)
        .run(&[&det]);
    assert_eq!(wide.total_units, 4);
    assert_eq!(wide.executed_units, 2, "stored seed replays, new seed runs");
    assert_eq!(wide.replayed_units, 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wall_clock_cap_skips_then_resumes_a_stream_cleanly() {
    use even_cycle_congest::stream::StreamScenario;
    use even_cycle_congest::{Schedule, UpdateSchedule};

    let dir = std::env::temp_dir().join(format!("ec-engine-stream-cap-{}", std::process::id()));
    let fresh_dir = dir.with_extension("fresh");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fresh_dir);

    let inner = CycleDetector::new(Params::practical(2).with_repetitions(2));
    let calls = AtomicU64::new(0);
    let det = Counting {
        inner: &inner,
        calls: &calls,
    };
    let schedule = UpdateSchedule::parse("planted:4@rate=6,mix=0.6,checkpoints=3").unwrap();
    let scenario = |store: &std::path::Path| {
        StreamScenario::new("capped stream", schedule.clone())
            .n(32)
            .seeds(0..2)
            .store(store)
    };

    // A zero cap is already elapsed at dispatch: all 3 × 2 checkpoint
    // units are skipped, nothing is invoked, and the report says so.
    let capped = scenario(&dir)
        .schedule(Schedule::cheapest_first().with_wall_clock_cap(std::time::Duration::ZERO))
        .run(&[&det]);
    assert_eq!(calls.load(Ordering::Relaxed), 0);
    assert_eq!(capped.total_units, 6);
    assert_eq!(capped.executed_units, 0);
    assert_eq!(capped.replayed_units, 0);
    assert_eq!(capped.report.skipped_units(), 6);
    assert!(capped.report.to_json().contains("\"skipped\":6"));

    // Resuming without the cap executes every unit...
    let resumed = scenario(&dir).run(&[&det]);
    assert_eq!(resumed.executed_units, 6);
    assert_eq!(calls.load(Ordering::Relaxed), 6);
    assert_eq!(resumed.report.skipped_units(), 0);

    // ...and matches a from-scratch uncapped run byte for byte.
    let fresh = scenario(&fresh_dir).run(&[&det]);
    assert_eq!(resumed.report.to_json(), fresh.report.to_json());

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&fresh_dir).ok();
}

#[test]
fn streams_in_one_call_execute_shared_cells_once() {
    use even_cycle_congest::stream::StreamScenario;
    use even_cycle_congest::{Engine, UpdateSchedule};

    let inner = CycleDetector::new(Params::practical(2).with_repetitions(2));
    let calls = AtomicU64::new(0);
    let det = Counting {
        inner: &inner,
        calls: &calls,
    };
    let dets: Vec<&dyn Detector> = vec![&det];
    let schedule = UpdateSchedule::parse("trees@rate=4,mix=0.8,checkpoints=2").unwrap();
    let a = StreamScenario::new("a", schedule.clone())
        .n(24)
        .seeds([0u64, 1]);
    let b = StreamScenario::new("b", schedule).n(24).seeds([1u64, 2]);

    // Seed 1's two checkpoint cells belong to both streams: no store is
    // configured, so the second copy can only come from this call.
    let outcome = Engine::from_env()
        .with_workers(2)
        .run_streams(&[(&a, dets.as_slice()), (&b, dets.as_slice())]);
    assert_eq!(outcome.total_units, 8);
    assert_eq!(outcome.executed_units, 6);
    assert_eq!(outcome.replayed_units, 2);
    assert_eq!(calls.load(Ordering::Relaxed), 6);
    assert_eq!(outcome.reports.len(), 2);
    for report in &outcome.reports {
        assert_eq!(report.rows[0].skipped, 0);
        assert!(report.rows[0].cells.iter().all(|c| c.ok == 2));
    }
}
