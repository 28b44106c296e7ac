//! The repository benchmark: three workloads driven only through the
//! facade crate's public API, timed from outside each layer.
//!
//! ```text
//! cargo run --offline --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload smoke-suite|classical-large|serve-mixed \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with telemetry off;
//! `--trace 1` is a separate run that installs an in-memory recorder and
//! reports the per-layer metrics. Every run checks the program's outputs
//! and prints, as its last stdout line, one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! See `perfbench/README.md` for what each metric means on each workload.

mod calib;
mod classical;
mod layers;
mod serving;
mod smoke;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use calib::{Calibration, Timed};
use layers::Layers;

/// The timer every measurement goes through.
pub fn now() -> Instant {
    // audit:allow(R2): benchmark timing — measures the program, never feeds it.
    Instant::now()
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A deterministic 64-bit mix (SplitMix64): every input the benchmark
/// generates derives from the workload seed through this.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The command line: `--workload`, `--seed`, `--seconds`, `--trace`.
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (want 0 or 1)")),
                };
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (want one of {})",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["smoke-suite", "classical-large", "serve-mixed"];

/// One named series of samples a workload measured, reported with its
/// in-run sample count, median, and quartiles.
pub struct Series {
    name: String,
    unit: &'static str,
    samples: Vec<f64>,
}

/// What a run measured and checked.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    series: Vec<Series>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Counts one checked operation; a failed check is printed to
    /// stderr and counted in `failed`. Returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
        ok
    }

    /// Counts checks made on other threads: `attempted` in all, of which
    /// `failures` failed.
    pub fn absorb(&mut self, attempted: u64, failures: &[String]) {
        self.attempted += attempted;
        self.failed += failures.len() as u64;
        for failure in failures {
            eprintln!("perfbench: check failed: {failure}");
        }
    }

    /// Records a named series of samples, printed with its statistics
    /// above the result line.
    pub fn series(&mut self, name: impl Into<String>, unit: &'static str, samples: Vec<f64>) {
        self.series.push(Series {
            name: name.into(),
            unit,
            samples,
        });
    }

    /// Records timed operations as the series `name` in calibrated
    /// seconds, and their wall-clock seconds as `name.wall`.
    pub fn timed(&mut self, name: &str, timings: &[Timed]) {
        self.series(name, "s", timings.iter().map(Timed::calibrated).collect());
        self.series(
            format!("{name}.wall"),
            "s",
            timings.iter().map(|t| t.raw).collect(),
        );
    }

    /// The samples recorded under `name` so far.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.series
            .iter()
            .find(|s| s.name == name)
            .map_or(&[], |s| s.samples.as_slice())
    }

    /// Sets one metric of the result line.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Sets the end-to-end metrics every workload reports: set-up (the
    /// median of the calibrated `setup_s` series), the executing
    /// operation on one and on two threads, the light operation, and
    /// throughput.
    pub fn end_to_end(&mut self, e1: f64, e2: f64, light_ms: f64, ops_per_s: f64) {
        let setup = stats::median(self.samples("setup_s"));
        self.metric("setup_s", setup, "s");
        self.metric("exec_s", e1, "s");
        self.metric("exec_2t_s", e2, "s");
        self.metric("light_ms", light_ms, "ms");
        self.metric("ops_per_s", ops_per_s, "1/s");
    }
}

/// A scratch directory inside the working directory, removed on drop:
/// stores and traces live here and nowhere else.
pub struct TempDir(PathBuf);

impl TempDir {
    fn create() -> std::io::Result<TempDir> {
        let dir = PathBuf::from(format!(".perfbench-tmp-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The context every workload runs in.
pub struct Ctx {
    /// Parsed command line.
    pub args: Args,
    /// Scratch space for stores and traces.
    pub tmp: TempDir,
    /// The host-speed calibration every timing goes through.
    pub calib: Calibration,
    /// When the measured phase started (set by the workload after set-up).
    deadline: Option<Instant>,
}

impl Ctx {
    /// Starts the measured phase's clock.
    pub fn start_measuring(&mut self) {
        self.deadline = Some(now() + Duration::from_secs_f64(self.args.seconds));
    }

    /// Whether the measured phase still has time left.
    pub fn measuring(&self) -> bool {
        self.deadline.is_some_and(|d| now() < d)
    }
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The host block: core count, build profile, compiler, commit.
fn host_block() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let rustc = command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    // Only a checkout that is itself a git repository names its commit.
    let commit = Path::new(".git")
        .exists()
        .then(|| command_output("git", &["rev-parse", "--short=12", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    format!("nproc={nproc} profile={profile} rustc=\"{rustc}\" commit={commit}")
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let tmp = match TempDir::create() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfbench: cannot create a scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host: {}", host_block());
    let mut ctx = Ctx {
        args,
        tmp,
        calib: Calibration::new(),
        deadline: None,
    };
    let mut report = Report::default();
    let mut layers = Layers::new();
    let result = match ctx.args.workload.as_str() {
        "smoke-suite" => smoke::run(&mut ctx, &mut report, &mut layers),
        "classical-large" => classical::run(&mut ctx, &mut report, &mut layers),
        _ => serving::run(&mut ctx, &mut report, &mut layers),
    };
    if let Err(msg) = result {
        eprintln!("perfbench: {msg}");
        return ExitCode::FAILURE;
    }

    for s in &report.series {
        let (q1, q3) = stats::quartiles(&s.samples);
        println!(
            "series {:<28} median {:>14.6} {:<3} q1 {:.6} q3 {:.6} n={}",
            s.name,
            stats::median(&s.samples),
            s.unit,
            q1,
            q3,
            s.samples.len()
        );
    }
    println!(
        "error_rate {} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    let metrics = if ctx.args.trace {
        layers.print_table();
        layers.into_metrics()
    } else {
        report.metrics.clone()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted.max(1),
        report.failed,
        body.join(",")
    );
    ExitCode::SUCCESS
}
