//! `smoke-suite`: the committed `suites/smoke.suite` (fast-ci, k = 2,
//! 580 units on graphs of 24–36 nodes) swept cold into a fresh store at
//! one engine worker and at two, then replayed from the populated store.
//!
//! The quantum oracle scan and per-run simulation set-up on tiny graphs
//! dominate the cold sweeps; the replay is pure `engine` and store work.

use std::collections::BTreeMap;
use std::path::Path;

use even_cycle_congest::engine::store::{canonical_unit, unit_key, ResultStore};
use even_cycle_congest::graph::analysis::has_cycle_exact;
use even_cycle_congest::suite::PreparedSuite;
use even_cycle_congest::{Engine, Model, RunProfile, Suite, SuiteOutcome};

use crate::calib::{Timed, REFERENCE_S};
use crate::layers::{self, detector_metric, fill_sim, graph_probe, share, Layers};
use crate::stats::median;
use crate::trace::{Counters, Tracing, COUNTERS};
use crate::{now, secs, Ctx, Report};

/// The suite, as committed.
const SUITE: &str = include_str!("../../suites/smoke.suite");
/// Work units in the suite: the cold sweeps must execute all of them.
const UNITS: usize = 580;
/// Replays timed per measured round.
const REPLAYS_PER_ROUND: usize = 10;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;
/// Rounds measured at least, however long they take: the cold sweeps
/// are reported as a median.
const MIN_ROUNDS: usize = 2;
/// The warm-up suite: one tiny stanza through a two-worker engine.
const WARM_UP: &str = "family=trees; sizes=8; seeds=0; detectors=global-threshold";

/// The registry parameter the suite runs at.
const K: usize = 2;
/// Ground-truth cycle lengths are checked up to `2k + 1`, the longest
/// target of any detector in the registry.
const LONGEST: usize = 2 * K + 1;

/// Exact ground truth per instance `(family store key, n, seed)`:
/// entry `l` says whether the instance has a cycle of length `l`.
type Truth = BTreeMap<(String, usize, u64), Vec<bool>>;

/// Parses the suite, resolves it against the fast-ci profile, computes
/// the exact ground truth of every instance, and warms the engine up.
///
/// Every seed runs the committed suite exactly: reseeding its stanzas
/// moves the Monte-Carlo work of the quantum pipelines by about ±10%
/// (708k to 862k simulator runs across seeds), which would swamp the
/// run-to-run spread this workload exists to resolve.
fn setup() -> Result<(PreparedSuite, Truth), String> {
    let prepared = Suite::parse(SUITE)?.prepare(RunProfile::FastCi, K, None)?;
    let mut truth = Truth::new();
    for scenario in prepared.scenarios() {
        let family = scenario.family();
        for &n in scenario.sizes_configured() {
            for &seed in scenario.seeds_configured() {
                let g = family.build(n, seed);
                let has = (0..=LONGEST)
                    .map(|l| l >= 3 && has_cycle_exact(&g, l, None))
                    .collect();
                truth.insert((family.store_key(), n, seed), has);
            }
        }
    }
    let warm = Suite::parse(WARM_UP)?.prepare(RunProfile::FastCi, K, None)?;
    std::hint::black_box(warm.run(&Engine::from_env().with_workers(2)));
    Counters::read(&COUNTERS);
    Ok((prepared, truth))
}

/// One sweep of the suite: the outcome, its wall time, and the reports
/// as JSON lines.
fn sweep(prepared: &PreparedSuite, workers: usize, store: &Path) -> (SuiteOutcome, f64, String) {
    let engine = Engine::from_env()
        .with_workers(workers)
        .with_schedule(RunProfile::FastCi.schedule())
        .with_store(store);
    let t = now();
    let outcome = prepared.run(&engine);
    let wall = secs(t);
    let json: Vec<String> = outcome.reports.iter().map(|r| r.to_json()).collect();
    (outcome, wall, json.join("\n"))
}

/// A sweep's unit counts: total, executed, replayed.
type Units = (usize, usize, usize);

fn units(outcome: &SuiteOutcome) -> Units {
    (
        outcome.total_units,
        outcome.executed_units,
        outcome.replayed_units,
    )
}

fn check_sweep(
    report: &mut Report,
    what: &str,
    (total, done, replayed): Units,
    executed: usize,
    json: &str,
    reference: &str,
) {
    report.check(
        total == UNITS && done == executed && replayed == UNITS - executed,
        || {
            format!(
                "{what}: executed {done} replayed {replayed} of {total} units, want {executed} executed of {UNITS}"
            )
        },
    );
    report.check(json == reference, || {
        format!("{what}: report JSON differs from the cold one-worker sweep")
    });
}

/// Checks every stored verdict against exact ground truth: no unit may
/// reject an instance that has no cycle of its detector's target lengths.
fn oracle_check(
    prepared: &PreparedSuite,
    truth: &Truth,
    store: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let store = ResultStore::open(store).map_err(|e| format!("cannot reopen the store: {e}"))?;
    let registry = layers::registry();
    let budget = RunProfile::FastCi.budget();
    for scenario in prepared.scenarios() {
        let family = scenario.family();
        let family_key = family.store_key();
        for &n in scenario.sizes_configured() {
            for &seed in scenario.seeds_configured() {
                let has = &truth[&(family_key.clone(), n, seed)];
                for entry in registry.iter() {
                    let key = unit_key(&canonical_unit(
                        &family_key,
                        n,
                        seed,
                        &entry.id,
                        &entry.detector.config_fingerprint(),
                        &budget,
                    ));
                    let target = entry.descriptor.target;
                    let truthful = store.get(&key).is_some_and(|r| {
                        !r.rejected || (3..=LONGEST).any(|l| target.matches_length(l) && has[l])
                    });
                    report.check(truthful, || {
                        format!(
                            "{} on {} n={n} seed={seed}: missing, or rejected a {}-free instance",
                            entry.id,
                            family.name(),
                            target.label()
                        )
                    });
                }
            }
        }
    }
    Ok(())
}

/// The suite's stanzas, each prepared as a suite of its own: the cold
/// sweeps run stanza by stanza so each timing is short enough to sit
/// between two calibration samples of the same host phase.
fn stanzas() -> Result<Vec<PreparedSuite>, String> {
    SUITE
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| Suite::parse(line)?.prepare(RunProfile::FastCi, K, None))
        .collect()
}

/// A cold sweep, stanza by stanza, into one fresh store: the unit
/// totals, each stanza's timing, and the reports as JSON lines.
fn cold_sweep(
    ctx: &Ctx,
    stanzas: &[PreparedSuite],
    workers: usize,
    store: &Path,
) -> (Units, Vec<Timed>, String) {
    let mut total = (0, 0, 0);
    let mut timings = Vec::new();
    let mut json = Vec::new();
    for stanza in stanzas {
        let ((outcome, _, lines), timed) =
            ctx.calib.time(workers, || sweep(stanza, workers, store));
        let (t, e, r) = units(&outcome);
        total = (total.0 + t, total.1 + e, total.2 + r);
        timings.push(timed);
        json.push(lines);
    }
    (total, timings, json.join("\n"))
}

pub fn run(ctx: &mut Ctx, report: &mut Report, layers: &mut Layers) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let (ready, timed) = ctx.calib.time(1, setup);
        setups.push(timed);
        prepared = Some(ready?);
    }
    let (prepared, truth) = prepared.expect("at least one set-up");
    report.timed("setup_s", &setups);
    let tmp = ctx.tmp.path().to_path_buf();
    if ctx.args.trace {
        return traced(ctx, &prepared, &truth, &tmp, ctx.args.seed, report, layers);
    }
    let stanzas = stanzas()?;

    // Per stanza, its cold timings at one and at two workers.
    let mut cold = vec![Vec::new(); stanzas.len()];
    let mut cold2 = vec![Vec::new(); stanzas.len()];
    let mut replay = Vec::new();
    let mut reference = None;
    ctx.start_measuring();
    let mut round = 0;
    loop {
        let store = tmp.join(format!("round{round}-w1"));
        let store2 = tmp.join(format!("round{round}-w2"));
        let (outcome, timings, json) = cold_sweep(ctx, &stanzas, 1, &store);
        let reference = reference.get_or_insert(json.clone());
        check_sweep(report, "cold sweep", outcome, UNITS, &json, reference);
        for (samples, t) in cold.iter_mut().zip(timings) {
            samples.push(t);
        }
        let (outcome, timings, json) = cold_sweep(ctx, &stanzas, 2, &store2);
        check_sweep(
            report,
            "cold 2-worker sweep",
            outcome,
            UNITS,
            &json,
            reference,
        );
        for (samples, t) in cold2.iter_mut().zip(timings) {
            samples.push(t);
        }
        for _ in 0..REPLAYS_PER_ROUND {
            let ((outcome, _, json), timed) = ctx.calib.time(1, || sweep(&prepared, 1, &store));
            check_sweep(report, "replay", units(&outcome), 0, &json, reference);
            replay.push(timed);
        }
        if round == 0 {
            oracle_check(&prepared, &truth, &store, report)?;
        }
        for dir in [&store, &store2] {
            std::fs::remove_dir_all(dir).map_err(|e| format!("cannot remove a store: {e}"))?;
        }
        round += 1;
        if round >= MIN_ROUNDS && !ctx.measuring() {
            break;
        }
    }
    // A sweep's time is the sum over its stanzas of each stanza's median
    // calibrated time; the per-round sums are printed beside it.
    let sweep_time = |per_stanza: &[Vec<Timed>]| -> f64 {
        per_stanza
            .iter()
            .map(|t| median(&t.iter().map(Timed::calibrated).collect::<Vec<_>>()))
            .sum()
    };
    let (c1, c2) = (sweep_time(&cold), sweep_time(&cold2));
    let per_round = |per_stanza: &[Vec<Timed>]| -> Vec<Timed> {
        (0..round)
            .map(|r| {
                let ts: Vec<Timed> = per_stanza.iter().map(|t| t[r]).collect();
                let raw: f64 = ts.iter().map(|t| t.raw).sum();
                let cal: f64 = ts.iter().map(Timed::calibrated).sum();
                Timed::new(raw, raw * REFERENCE_S / cal)
            })
            .collect()
    };
    report.timed("sweep_cold_s", &per_round(&cold));
    report.timed("sweep_cold_w2_s", &per_round(&cold2));
    report.timed("sweep_replay_s", &replay);
    let replay_s = median(report.samples("sweep_replay_s"));
    report.end_to_end(c1, c2, replay_s * 1e3, UNITS as f64 / c2);
    Ok(())
}

/// The traced run: an untraced cold sweep as the overhead baseline, then
/// traced cold sweeps at one and two workers and a traced replay.
fn traced(
    ctx: &Ctx,
    prepared: &PreparedSuite,
    truth: &Truth,
    tmp: &Path,
    seed: u64,
    report: &mut Report,
    layers: &mut Layers,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("trace file: {e}");
    let registry = layers::registry();
    let (store, store2, baseline) = (tmp.join("w1"), tmp.join("w2"), tmp.join("baseline"));
    let ((_, _, reference), untraced) = ctx.calib.time(1, || sweep(prepared, 1, &baseline));

    let before = Counters::read(&COUNTERS);
    let tracing = Tracing::start();
    let ((outcome, _, json), traced_wall) = ctx.calib.time(1, || sweep(prepared, 1, &store));
    let trace = tracing.finish(&tmp.join("cold-w1.jsonl")).map_err(io)?;
    check_sweep(
        report,
        "traced cold sweep",
        units(&outcome),
        UNITS,
        &json,
        &reference,
    );
    oracle_check(prepared, truth, &store, report)?;
    trace.print_span_table("cold sweep, 1 worker");
    fill_sim(layers, &trace, &before);
    layers.set(
        "engine.units.executed",
        before.delta("engine.units.executed") as f64,
    );
    layers.set(
        "graph.build_ms",
        trace.mean_ms("engine.graph_build", |_| true),
    );
    layers.set(
        "telemetry.overhead_pct",
        100.0 * (traced_wall.calibrated() / untraced.calibrated() - 1.0),
    );
    let is_quantum = |det: &str| {
        registry
            .get(det)
            .is_some_and(|e| e.descriptor.model == Model::Quantum)
    };
    for entry in registry.iter() {
        let prefix = match entry.descriptor.model {
            Model::Classical => "cycle.unit_ms",
            Model::Quantum => "quantum.unit_ms",
        };
        layers.set(
            &detector_metric(prefix, &entry.id),
            trace.mean_ms("engine.unit", |det| det == entry.id),
        );
    }
    layers.set(
        "cycle.self_share",
        trace.self_share("engine.unit", |det| !is_quantum(det)),
    );
    let unit_spans: Vec<usize> = trace.named("engine.unit").collect();
    let quantum_units = unit_spans
        .iter()
        .filter(|&&i| is_quantum(&trace.spans[i].label))
        .count();
    let unit_us = |keep: &dyn Fn(&str) -> bool| -> u64 {
        unit_spans
            .iter()
            .filter(|&&i| keep(&trace.spans[i].label))
            .map(|&i| trace.spans[i].at.dur_us)
            .sum()
    };
    layers.set(
        "quantum.share",
        share(unit_us(&is_quantum), unit_us(&|_| true)),
    );
    let quantum_runs = trace
        .named("sim.run")
        .filter(|&i| {
            trace
                .ancestor(i, "engine.unit")
                .is_some_and(|u| is_quantum(&trace.spans[u].label))
        })
        .count();
    layers.set(
        "quantum.sim_runs_per_unit",
        quantum_runs as f64 / quantum_units.max(1) as f64,
    );
    drop(trace);

    let before = Counters::read(&COUNTERS);
    let tracing = Tracing::start();
    let (outcome, wall, json) = sweep(prepared, 2, &store2);
    let trace = tracing.finish(&tmp.join("cold-w2.jsonl")).map_err(io)?;
    check_sweep(
        report,
        "traced cold 2-worker sweep",
        units(&outcome),
        UNITS,
        &json,
        &reference,
    );
    trace.print_span_table("cold sweep, 2 workers");
    let unit_total = trace.total_us("engine.unit") as f64 / 1e6;
    layers.set("engine.overhead_share", 1.0 - unit_total / (2.0 * wall));
    let (busy, idle) = (
        before.delta("engine.pool.busy_ns"),
        before.delta("engine.pool.idle_ns"),
    );
    layers.set("engine.pool.idle_share", share(idle, busy + idle));
    for name in ["engine.graph_cache.hits", "engine.graph_cache.misses"] {
        layers.set(name, before.delta(name) as f64);
    }
    drop(trace);

    let t = now();
    let opened = ResultStore::open(&store).map_err(|e| format!("cannot reopen the store: {e}"))?;
    layers.set("engine.store_open_ms", secs(t) * 1e3);
    drop(opened);
    let before = Counters::read(&COUNTERS);
    let tracing = Tracing::start();
    let (outcome, wall, json) = sweep(prepared, 1, &store);
    let trace = tracing.finish(&tmp.join("replay.jsonl")).map_err(io)?;
    check_sweep(
        report,
        "traced replay",
        units(&outcome),
        0,
        &json,
        &reference,
    );
    trace.print_span_table("replay");
    layers.set(
        "engine.units.replayed",
        before.delta("engine.units.replayed") as f64,
    );
    layers.set("engine.replay_units_per_s", UNITS as f64 / wall);

    // The graph layer's update path on the suite's largest instance.
    let (scenario, n) = prepared
        .scenarios()
        .flat_map(|s| s.sizes_configured().iter().map(move |&n| (s, n)))
        .max_by_key(|&(_, n)| n)
        .expect("the suite has scenarios");
    let g = scenario.family().build(n, scenario.seeds_configured()[0]);
    let (snapshot, fingerprint, update) = graph_probe(&g, seed, 51);
    layers.set("graph.snapshot_ms", snapshot);
    layers.set("graph.fingerprint_ms", fingerprint);
    layers.set("graph.update_us", update);
    report.timed("sweep_cold_untraced_s", &[untraced]);
    report.timed("sweep_cold_traced_s", &[traced_wall]);
    Ok(())
}
