//! `classical-large`: Algorithm 1 (`classical/C4/global-threshold-color-bfs`,
//! fast-ci) called through `Detector::detect` under `sequential` and
//! `parallel:2`, on two C4-free instances — a sparse random tree
//! (node-heavy supersteps) and a dense polarity graph (message-heavy).
//!
//! A no-instance runs the full repetition budget every time, so the work
//! per detection is fixed. The workload bypasses `quantum`, `engine`,
//! and `serve`.

use std::path::Path;

use even_cycle_congest::graph::Graph;
use even_cycle_congest::sim::Backend;
use even_cycle_congest::telemetry::Span;
use even_cycle_congest::{Budget, Detector, FamilySpec, RunCost, RunProfile};

use crate::calib::Timed;
use crate::layers::{self, detector_metric, fill_sim, graph_probe, share, Layers};
use crate::stats::median;
use crate::trace::{Counters, Tracing, COUNTERS};
use crate::{mix, now, secs, Ctx, Report};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;
const DETECTOR: &str = "classical/C4/global-threshold-color-bfs";
const SPARSE: (&str, usize) = ("trees", 20_000);
const DENSE: (&str, usize) = ("polarity", 2_000);

/// The two instances, built from the workload seed.
struct Instances {
    sparse: Graph,
    dense: Graph,
}

fn build(seed: u64) -> Result<Instances, String> {
    let make = |(spec, n): (&str, usize), stream| -> Result<Graph, String> {
        Ok(FamilySpec::parse(spec)?.build(n, mix(seed, stream) >> 32))
    };
    Ok(Instances {
        sparse: make(SPARSE, 1)?,
        dense: make(DENSE, 2)?,
    })
}

fn budget(backend: Backend) -> Budget {
    RunProfile::FastCi.budget().with_backend(backend)
}

const PAR2: Backend = Backend::Parallel { threads: 2 };

/// One detection between calibration samples; `None` (and a failed
/// check) unless it accepts within budget.
fn detect(
    ctx: &Ctx,
    detector: &dyn Detector,
    g: &Graph,
    seed: u64,
    backend: Backend,
    label: &'static str,
    report: &mut Report,
) -> (Timed, Option<RunCost>) {
    let threads = if backend == Backend::Sequential { 1 } else { 2 };
    let (result, timed) = ctx.calib.time(threads, || {
        let _span = Span::begin("bench.detect").with("label", label);
        detector.detect(g, seed, &budget(backend))
    });
    let cost = match result {
        Ok(d) if !d.rejected() && !d.budget_exceeded() => Some(d.cost),
        Ok(d) => {
            report.check(false, || {
                format!("{label}: want accept within budget, got {:?}", d.verdict)
            });
            return (timed, None);
        }
        Err(e) => {
            report.check(false, || format!("{label}: detection failed: {e}"));
            return (timed, None);
        }
    };
    report.check(true, String::new);
    (timed, cost)
}

/// One pass: both instances under one backend. Returns the per-instance
/// timings and costs.
fn pass(
    ctx: &Ctx,
    detector: &dyn Detector,
    inst: &Instances,
    seed: u64,
    backend: Backend,
    report: &mut Report,
) -> [(Timed, Option<RunCost>); 2] {
    let seq = backend == Backend::Sequential;
    [
        detect(
            ctx,
            detector,
            &inst.sparse,
            seed,
            backend,
            if seq { "sparse/seq" } else { "sparse/par2" },
            report,
        ),
        detect(
            ctx,
            detector,
            &inst.dense,
            seed,
            backend,
            if seq { "dense/seq" } else { "dense/par2" },
            report,
        ),
    ]
}

/// The two detections of a pass as one timing.
fn pass_time(p: &[(Timed, Option<RunCost>); 2]) -> Timed {
    let (a, b) = (p[0].0, p[1].0);
    // Weighting each kernel by its detection's share keeps the pass's
    // calibrated time the sum of the two calibrated times.
    let raw = a.raw + b.raw;
    Timed::new(raw, raw / (a.raw / a.kernel + b.raw / b.kernel))
}

fn check_costs(
    report: &mut Report,
    seq: &[(Timed, Option<RunCost>); 2],
    par: &[(Timed, Option<RunCost>); 2],
) {
    for (i, name) in ["sparse", "dense"].iter().enumerate() {
        report.check(seq[i].1.is_some() && seq[i].1 == par[i].1, || {
            format!(
                "{name}: RunCost differs between backends: {:?} vs {:?}",
                seq[i].1, par[i].1
            )
        });
    }
}

pub fn run(ctx: &mut Ctx, report: &mut Report, layers: &mut Layers) -> Result<(), String> {
    let seed = ctx.args.seed;
    let detect_seed = mix(seed, 3) >> 32;
    let registry = layers::registry();
    let detector = registry
        .get(DETECTOR)
        .ok_or_else(|| format!("registry has no {DETECTOR}"))?
        .detector
        .as_ref();
    let mut setups = Vec::new();
    let mut instances = None;
    for _ in 0..SETUP_REPS {
        let (inst, timed) = ctx.calib.time(1, || -> Result<Instances, String> {
            let inst = build(seed)?;
            // Warm-up: spawn the simulator's thread pool on a small instance.
            let warm = FamilySpec::parse("trees")?.build(256, 0);
            std::hint::black_box(detector.detect(&warm, 0, &budget(PAR2)).is_ok());
            Counters::read(&COUNTERS);
            Ok(inst)
        });
        setups.push(timed);
        instances = Some(inst?);
    }
    let inst = instances.expect("at least one set-up");
    report.timed("setup_s", &setups);
    if ctx.args.trace {
        let tmp = ctx.tmp.path().to_path_buf();
        return traced(
            ctx,
            detector,
            &inst,
            &tmp,
            seed,
            detect_seed,
            report,
            layers,
        );
    }

    let mut series: [Vec<Timed>; 6] = Default::default();
    ctx.start_measuring();
    loop {
        let seq = pass(
            ctx,
            detector,
            &inst,
            detect_seed,
            Backend::Sequential,
            report,
        );
        let par = pass(ctx, detector, &inst, detect_seed, PAR2, report);
        check_costs(report, &seq, &par);
        for (s, t) in series.iter_mut().zip([
            seq[0].0,
            seq[1].0,
            par[0].0,
            par[1].0,
            pass_time(&seq),
            pass_time(&par),
        ]) {
            s.push(t);
        }
        if !ctx.measuring() {
            break;
        }
    }
    for (name, timings) in [
        "sparse_seq_s",
        "dense_seq_s",
        "sparse_par2_s",
        "dense_par2_s",
        "seq_pass_s",
        "par2_pass_s",
    ]
    .iter()
    .zip(&series)
    {
        report.timed(name, timings);
    }
    // A pass's time is the sum of its two detections' medians.
    let m = |name: &str| median(report.samples(name));
    let seq = m("sparse_seq_s") + m("dense_seq_s");
    let par = m("sparse_par2_s") + m("dense_par2_s");
    report.end_to_end(seq, par, m("dense_seq_s") * 1e3, 2.0 / par);
    Ok(())
}

/// The traced run: untraced passes as the baseline, then a traced
/// sequential pass and a traced `parallel:2` pass.
#[allow(clippy::too_many_arguments)]
fn traced(
    ctx: &Ctx,
    detector: &dyn Detector,
    inst: &Instances,
    tmp: &Path,
    seed: u64,
    detect_seed: u64,
    report: &mut Report,
    layers: &mut Layers,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("trace file: {e}");
    let t = now();
    std::hint::black_box(build(seed)?);
    layers.set("graph.build_ms", secs(t) * 1e3);

    let seq = pass(
        ctx,
        detector,
        inst,
        detect_seed,
        Backend::Sequential,
        report,
    );
    let par = pass(ctx, detector, inst, detect_seed, PAR2, report);
    check_costs(report, &seq, &par);
    let untraced_seq = pass_time(&seq).calibrated();
    layers.set(
        "sim.par2_speedup",
        untraced_seq / pass_time(&par).calibrated(),
    );

    let before = Counters::read(&COUNTERS);
    let tracing = Tracing::start();
    let traced_seq = pass(
        ctx,
        detector,
        inst,
        detect_seed,
        Backend::Sequential,
        report,
    );
    let trace = tracing.finish(&tmp.join("seq.jsonl")).map_err(io)?;
    trace.print_span_table("sequential pass");
    fill_sim(layers, &trace, &before);
    layers.set(
        &detector_metric("cycle.unit_ms", DETECTOR),
        trace.mean_ms("bench.detect", |_| true),
    );
    layers.set(
        "cycle.self_share",
        trace.self_share("bench.detect", |_| true),
    );
    layers.set(
        "telemetry.overhead_pct",
        100.0 * (pass_time(&traced_seq).calibrated() / untraced_seq - 1.0),
    );

    let before = Counters::read(&COUNTERS);
    let tracing = Tracing::start();
    let traced_par = pass(ctx, detector, inst, detect_seed, PAR2, report);
    let trace = tracing.finish(&tmp.join("par2.jsonl")).map_err(io)?;
    check_costs(report, &traced_seq, &traced_par);
    trace.print_span_table("parallel:2 pass");
    let (busy, idle) = (
        before.delta("sim.pool.busy_ns"),
        before.delta("sim.pool.idle_ns"),
    );
    layers.set("sim.pool.idle_share", share(idle, busy + idle));

    let (snapshot, fingerprint, update) = graph_probe(&inst.sparse, seed, 21);
    layers.set("graph.snapshot_ms", snapshot);
    layers.set("graph.fingerprint_ms", fingerprint);
    layers.set("graph.update_us", update);
    report.series("seq_pass_untraced_s", "s", vec![untraced_seq]);
    report.series(
        "seq_pass_traced_s",
        "s",
        vec![pass_time(&traced_seq).calibrated()],
    );
    Ok(())
}
