//! The experiment-engine driver: profile-configured registry sweeps
//! from the command line, with worker-pool execution and a resumable
//! JSONL result store.
//!
//! ```text
//! cargo run --release -p even-cycle-congest --bin sweep -- \
//!     --profile fast-ci --k 2 --family planted:4 \
//!     --sizes 24,32 --seeds 0..2 --metric rounds \
//!     --workers 2 --store target/sweeps --json
//! ```
//!
//! Every flag is optional: the profile decides the default grid,
//! budget, and schedule, the family defaults to planted `C_{2k}`
//! yes-instances, the worker count falls back to `EVEN_CYCLE_WORKERS`
//! (then 1). Families are parsed by the shared catalog parser
//! (`FamilySpec::parse`) — `sweep --family help` lists every family.
//! `--seeds` accepts a range (`0..3`) or an explicit list (`0,7,42`).
//!
//! **Suite mode** (`--suite FILE`) replaces the single-scenario flags
//! with a line-oriented suite file — one stanza per line
//! (`family=...; sizes=...; seeds=...; detectors=...`) — and runs
//! every stanza through ONE shared engine pass: one worker pool, one
//! graph cache, one result store, one schedule and thread budget. The
//! work summary (`executed E, replayed R of T unit(s)`) goes to
//! stderr, so a replayed suite is machine-checkable (`executed 0`).
//!
//! The store is per-unit content-addressed by the family fingerprint:
//! re-running an identical invocation with `--store` replays it and
//! invokes no detector, *extending* the grid (a size rung, a seed, a
//! detector) executes only the new cells, and changing a family
//! parameter (say `planted:4` → `planted:6`) invalidates exactly its
//! own units. `--schedule cheapest-first` orders pending units by
//! estimated cost and `--max-seconds S` stops dispatching once the cap
//! elapses — skipped units are reported and resumed on the next run,
//! so an expensive `paper-exact` sweep refines progressively across
//! capped runs.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use even_cycle_congest::engine::{pool, RunProfile, ScheduleOrder};
use even_cycle_congest::scenario::{GraphFamily, Metric, Scenario};
use even_cycle_congest::suite::{parse_seed_spec, parse_size_spec, Suite};
use even_cycle_congest::telemetry;
use even_cycle_congest::FamilySpec;

struct Args {
    profile: RunProfile,
    k: usize,
    suite: Option<String>,
    family: Option<String>,
    sizes: Option<Vec<usize>>,
    seeds: Option<Vec<u64>>,
    metric: Option<Metric>,
    workers: Option<usize>,
    backend: Option<String>,
    sim_threads: Option<usize>,
    store: Option<String>,
    schedule: Option<ScheduleOrder>,
    max_seconds: Option<u64>,
    trace: Option<String>,
    json: bool,
}

fn usage() -> String {
    format!(
        "usage: sweep [--profile paper-exact|practical|fast-ci] [--k K]\n\
         \x20            [--suite FILE | --family SPEC]\n\
         \x20            [--sizes N1,N2,...] [--seeds A..B | --seeds S1,S2,...]\n\
         \x20            [--metric rounds|rounds-per-iter|congestion|messages|words]\n\
         \x20            [--workers W] [--store DIR] [--json]\n\
         \x20            [--backend sequential|parallel[:T]|auto[:N]] [--sim-threads T]\n\
         \x20            [--schedule in-order|cheapest-first] [--max-seconds S]\n\
         \x20            [--trace FILE]  (or EVEN_CYCLE_TRACE=FILE)\n\
         families: {}",
        FamilySpec::catalog_summary()
    )
}

/// `Ok(None)` means `--help` was requested: print usage, exit success.
fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        profile: RunProfile::Practical,
        k: 2,
        suite: None,
        family: None,
        sizes: None,
        seeds: None,
        metric: None,
        workers: None,
        backend: None,
        sim_threads: None,
        store: None,
        schedule: None,
        max_seconds: None,
        trace: None,
        json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} expects a value\n{}", usage()))
        };
        match flag.as_str() {
            "--profile" => {
                let v = value("--profile")?;
                args.profile =
                    RunProfile::parse(&v).ok_or_else(|| format!("unknown profile {v:?}"))?;
            }
            "--k" => {
                let v = value("--k")?;
                args.k = v.parse().map_err(|_| format!("bad --k value {v:?}"))?;
                if args.k < 2 {
                    return Err("--k must be at least 2 (the registry needs k >= 2)".to_string());
                }
            }
            "--suite" => args.suite = Some(value("--suite")?),
            "--family" => args.family = Some(value("--family")?),
            "--sizes" => {
                let v = value("--sizes")?;
                args.sizes = Some(parse_size_spec(&v)?);
            }
            "--seeds" => {
                let v = value("--seeds")?;
                args.seeds = Some(parse_seed_spec(&v)?);
            }
            "--metric" => {
                let v = value("--metric")?;
                args.metric =
                    Some(Metric::parse(&v).ok_or_else(|| format!("unknown metric {v:?}"))?);
            }
            "--workers" => {
                let v = value("--workers")?;
                let w: usize = v
                    .parse()
                    .map_err(|_| format!("bad --workers value {v:?}"))?;
                if w == 0 {
                    return Err("--workers must be positive".to_string());
                }
                args.workers = Some(w);
            }
            "--backend" => args.backend = Some(value("--backend")?),
            "--sim-threads" => {
                let v = value("--sim-threads")?;
                let t: usize = v
                    .parse()
                    .map_err(|_| format!("bad --sim-threads value {v:?}"))?;
                if t == 0 {
                    return Err("--sim-threads must be positive".to_string());
                }
                args.sim_threads = Some(t);
            }
            "--store" => args.store = Some(value("--store")?),
            "--schedule" => {
                let v = value("--schedule")?;
                args.schedule = Some(
                    ScheduleOrder::parse(&v).ok_or_else(|| format!("unknown schedule {v:?}"))?,
                );
            }
            "--max-seconds" => {
                let v = value("--max-seconds")?;
                args.max_seconds = Some(
                    v.parse()
                        .map_err(|_| format!("bad --max-seconds value {v:?}"))?,
                );
            }
            "--trace" => args.trace = Some(value("--trace")?),
            "--json" => args.json = true,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    if args.suite.is_some()
        && (args.family.is_some()
            || args.sizes.is_some()
            || args.seeds.is_some()
            || args.metric.is_some())
    {
        return Err(
            "--suite replaces --family/--sizes/--seeds/--metric (per-stanza fields live in \
             the suite file)"
                .to_string(),
        );
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    // `--trace FILE` (or EVEN_CYCLE_TRACE=FILE) streams telemetry
    // events to a JSONL sink for the whole run; on exit the sink is
    // flushed and a Chrome trace_event mirror (`FILE.chrome.json`) is
    // written next to it for chrome://tracing / Perfetto.
    let trace = args.trace.clone().or_else(telemetry::trace_path_from_env);
    if let Some(path) = &trace {
        match telemetry::JsonlSink::create(path) {
            Ok(sink) => telemetry::install(Arc::new(sink)),
            Err(err) => {
                eprintln!("cannot open trace file {path:?}: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    let code = run(args);
    if let Some(path) = &trace {
        telemetry::flush();
        let chrome = format!("{path}.chrome.json");
        match telemetry::convert_file(std::path::Path::new(path), std::path::Path::new(&chrome)) {
            Ok(events) => eprintln!("trace: {path} ({events} event(s)); chrome: {chrome}"),
            Err(err) => eprintln!("trace: {path}; chrome conversion failed: {err}"),
        }
    }
    code
}

fn run(args: Args) -> ExitCode {
    // Fail fast on a broken EVEN_CYCLE_WORKERS: a typo'd value must not
    // silently serialize the sweep (the library default warns and runs
    // with 1 worker; the sweep driver refuses outright). An explicit
    // --workers takes priority over the environment, so it also
    // overrides a broken value.
    if args.workers.is_none() {
        if let Err(msg) = pool::workers_env_override() {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    }
    // Same refusal for a broken EVEN_CYCLE_SIM_THREADS: the library
    // default would warn and fall back to available parallelism, but a
    // driver asked for a specific intra-run thread count must not run
    // with a different one. An explicit --sim-threads overrides the
    // environment, so it also overrides a broken value.
    if args.sim_threads.is_none() {
        if let Err(msg) = even_cycle_congest::sim::backend::sim_threads_env_override() {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    }

    // Resolve --sim-threads before the backend spec: it feeds the
    // default thread count of `parallel` and `auto` backends (the same
    // knob EVEN_CYCLE_SIM_THREADS sets from the environment).
    if let Some(t) = args.sim_threads {
        std::env::set_var(
            even_cycle_congest::sim::backend::SIM_THREADS_ENV,
            t.to_string(),
        );
    }
    let backend = match &args.backend {
        Some(spec) => match even_cycle_congest::sim::Backend::parse(spec) {
            Some(b) => Some(b),
            None => {
                eprintln!("unknown backend {spec:?} (want sequential, parallel[:T], or auto[:N])");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    // The engine every mode shares: worker pool, result store,
    // schedule (the profile default layered with the CLI overrides).
    let mut engine = even_cycle_congest::Engine::from_env();
    if let Some(w) = args.workers {
        engine = engine.with_workers(w);
    }
    if let Some(dir) = &args.store {
        engine = engine.with_store(dir);
    }
    let mut schedule = args.profile.schedule();
    if let Some(order) = args.schedule {
        schedule.order = order;
    }
    if let Some(secs) = args.max_seconds {
        schedule = schedule.with_wall_clock_cap(Duration::from_secs(secs));
    }
    engine = engine.with_schedule(schedule);
    if args.max_seconds.is_some() && args.store.is_none() {
        eprintln!(
            "note: --max-seconds without --store: units skipped at the cap \
             are lost instead of resumed next run"
        );
    }

    // ---------- suite mode: every stanza through one engine pass ----------
    if let Some(path) = &args.suite {
        let suite = match Suite::from_file(path) {
            Ok(s) => s,
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        };
        let prepared = match suite.prepare(args.profile, args.k, backend) {
            Ok(p) => p,
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        };
        let started = Instant::now();
        let outcome = prepared.run(&engine);
        let elapsed = started.elapsed();
        for report in &outcome.reports {
            if args.json {
                println!("{}", report.to_json());
            } else {
                println!("{}", report.render());
            }
        }
        eprintln!(
            "suite: {} scenario(s); {}",
            outcome.reports.len(),
            outcome.summary(elapsed),
        );
        let skipped = outcome.skipped_units;
        if skipped > 0 {
            eprintln!(
                "wall-clock cap hit: {skipped} unit(s) skipped; re-run the same \
                 command to resume from the store"
            );
        }
        return ExitCode::SUCCESS;
    }

    // ---------- single-scenario mode ----------
    let family = match &args.family {
        Some(spec) => match GraphFamily::parse(spec) {
            Ok(f) => f,
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        },
        None => GraphFamily::planted_cycle(2 * args.k),
    };

    let registry = args.profile.registry(args.k);
    let sizes = args.sizes.unwrap_or_else(|| args.profile.default_sizes());
    let seeds = args
        .seeds
        .unwrap_or_else(|| args.profile.default_seeds().collect());
    let mut scenario = Scenario::new(format!("{} sweep (k = {})", args.profile, args.k), family)
        .sizes(&sizes)
        .seeds(seeds)
        .metric(args.metric.unwrap_or(Metric::Rounds))
        .budget(args.profile.budget());
    if let Some(b) = backend {
        scenario = scenario.backend(b);
    }

    let dets: Vec<&dyn even_cycle_congest::Detector> =
        registry.iter().map(|e| e.detector.as_ref()).collect();
    let started = Instant::now();
    let outcome = engine.run_suite(&[(&scenario, dets.as_slice())]);
    let elapsed = started.elapsed();
    let report = &outcome.reports[0];
    if args.json {
        println!("{}", report.to_json());
    } else {
        println!("{}", report.render());
    }
    eprintln!("{}", outcome.summary(elapsed));
    let skipped = report.skipped_units();
    if skipped > 0 {
        eprintln!(
            "wall-clock cap hit: {skipped} unit(s) skipped; re-run the same \
             command to resume from the store"
        );
    }
    ExitCode::SUCCESS
}
