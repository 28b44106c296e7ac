//! The scenario runner: `graph family × detector × bandwidth ×
//! seed-sweep → ScenarioReport` with fitted scaling exponents.
//!
//! This replaces the copy-pasted measurement loops that each benchmark
//! binary used to carry: declare *what* to measure (a family of
//! instances, a metric, a budget, a seed sweep) and run any set of
//! [`Detector`]s through it. New workload matrices are a few lines.
//!
//! Execution is delegated to the [`engine`](crate::engine): the sweep
//! matrix is sharded into `(size, seed, detector)` work units across a
//! worker pool ([`Scenario::workers`], or the `EVEN_CYCLE_WORKERS`
//! environment variable), with results re-assembled in unit order so
//! the report is byte-identical to a sequential run. With
//! [`Scenario::store`] set, every unit lands in a per-unit
//! content-addressed JSONL result store: re-running a completed sweep
//! replays the store without invoking any detector, and extending the
//! grid (a size rung, a seed, a detector) executes only the new cells.
//! [`Scenario::schedule`] picks the dispatch order and an optional
//! wall-clock cap for progressive refinement of expensive sweeps.
//!
//! ```
//! use even_cycle_congest::scenario::{GraphFamily, Metric, Scenario};
//! use even_cycle_congest::cycle::{Budget, CycleDetector, Detector, Params};
//!
//! let scenario = Scenario::new("trees", GraphFamily::random_trees())
//!     .sizes(&[32, 64, 128])
//!     .seeds(0..2)
//!     .metric(Metric::RoundsPerIteration);
//! let det = CycleDetector::new(Params::practical(2).with_repetitions(4));
//! let report = scenario.run(&[&det]);
//! assert_eq!(report.rows.len(), 1);
//! assert!(report.rows[0].samples.len() == 3);
//! println!("{}", report.render());
//! ```

use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;

use congest_graph::{FamilySpec, Graph};
use congest_telemetry::json_escape;
use even_cycle::{Backend, Budget, Descriptor, Detector};

use crate::engine::store::{append_line, json_f64};
use crate::engine::{Engine, Schedule};

/// A sized, seeded family of instances: `build(n, seed)` produces a
/// graph of (approximately) `n` vertices.
///
/// Almost every family is a typed [`FamilySpec`] — parseable,
/// comparable, and fingerprintable, which is what lets the engine's
/// result store key work units by the family's *full identity*
/// (name and parameters) instead of a free-form display name. The
/// [`GraphFamily::custom`] escape hatch still admits arbitrary builder
/// closures, but demands an explicit version string that becomes part
/// of the store identity: bump it whenever the construction changes,
/// or stale stored results would replay against the new graphs.
#[derive(Clone)]
pub struct GraphFamily {
    label: String,
    kind: FamilyKind,
}

#[derive(Clone)]
enum FamilyKind {
    Spec(FamilySpec),
    Custom {
        version: String,
        build: Arc<dyn Fn(usize, u64) -> Graph + Send + Sync>,
    },
}

impl std::fmt::Debug for GraphFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("GraphFamily");
        s.field("label", &self.label);
        match &self.kind {
            FamilyKind::Spec(spec) => s.field("spec", spec).finish(),
            FamilyKind::Custom { version, .. } => {
                s.field("version", version).finish_non_exhaustive()
            }
        }
    }
}

impl From<FamilySpec> for GraphFamily {
    fn from(spec: FamilySpec) -> Self {
        GraphFamily {
            label: spec.canonical_label(),
            kind: FamilyKind::Spec(spec),
        }
    }
}

impl GraphFamily {
    /// Parses a family spec string (`planted:4`, `ws:6:0.1`, …) — the
    /// shared catalog parser every binary and suite file routes
    /// through ([`FamilySpec::parse`]).
    ///
    /// # Errors
    ///
    /// The shared error format; unknown families list the catalog.
    pub fn parse(spec: &str) -> Result<GraphFamily, String> {
        FamilySpec::parse(spec).map(GraphFamily::from)
    }

    /// A custom family from a builder closure — the escape hatch for
    /// constructions outside the [`FamilySpec`] catalog.
    ///
    /// A closure cannot be fingerprinted, so its store identity is
    /// `name` + the explicit `version` string: **bump the version
    /// whenever the builder's behavior changes**, or previously stored
    /// results would silently replay against the new graphs. (Catalog
    /// families don't carry this risk — their fingerprint covers every
    /// parameter.)
    pub fn custom(
        name: impl Into<String>,
        version: impl Into<String>,
        build: impl Fn(usize, u64) -> Graph + Send + Sync + 'static,
    ) -> Self {
        let name = name.into();
        let version = version.into();
        assert!(
            !version.trim().is_empty(),
            "custom families require a non-empty version string (their store identity)"
        );
        GraphFamily {
            label: name,
            kind: FamilyKind::Custom {
                version,
                build: Arc::new(build),
            },
        }
    }

    /// The family's display name (the canonical spec label for catalog
    /// families).
    pub fn name(&self) -> &str {
        &self.label
    }

    /// The typed spec, for catalog families.
    pub fn as_spec(&self) -> Option<&FamilySpec> {
        match &self.kind {
            FamilyKind::Spec(spec) => Some(spec),
            FamilyKind::Custom { .. } => None,
        }
    }

    /// The family's identity in the engine's result store and graph
    /// cache: the 128-bit spec fingerprint for catalog families
    /// (parameters included — changing `planted:4` to `planted:6`
    /// moves every affected unit key), or `name@version` for custom
    /// builders.
    pub fn store_key(&self) -> String {
        match &self.kind {
            FamilyKind::Spec(spec) => format!("spec:{}", spec.fingerprint_hex()),
            FamilyKind::Custom { version, .. } => {
                format!("custom:{}@{version}", self.label)
            }
        }
    }

    /// Builds the instance of size `n` for `seed` (deterministic in
    /// `(n, seed)` — the graph cache and the result store both rely on
    /// replayability).
    pub fn build(&self, n: usize, seed: u64) -> Graph {
        match &self.kind {
            FamilyKind::Spec(spec) => spec.build(n, seed),
            FamilyKind::Custom { build, .. } => build(n, seed),
        }
    }

    /// Uniform random trees (sparse, cycle-free hosts).
    pub fn random_trees() -> Self {
        FamilySpec::RandomTrees.into()
    }

    /// Random trees with one planted `C_ℓ` (the standard yes-instance).
    pub fn planted_cycle(l: usize) -> Self {
        FamilySpec::Planted { l }.into()
    }

    /// Near-regular graphs of degree `≈ n^{1/k}` (the light/heavy
    /// boundary of Algorithm 1).
    pub fn regularish_boundary(k: usize) -> Self {
        FamilySpec::RegularBoundary { k }.into()
    }

    /// Erdős–Rényi graphs with expected degree `deg`.
    pub fn erdos_renyi(deg: f64) -> Self {
        FamilySpec::ErdosRenyi { deg }.into()
    }

    /// Random bipartite graphs (odd-cycle-free controls).
    pub fn random_bipartite(p: f64) -> Self {
        FamilySpec::Bipartite { p }.into()
    }

    /// Congestion funnels — the adversarial hosts driving the per-edge
    /// load of Algorithm 1's second color-BFS to its `Θ(n^{1-1/k})`
    /// worst case.
    pub fn funnel(branches: usize, k: usize) -> Self {
        FamilySpec::Funnel { branches, k }.into()
    }

    /// Extremal `C4`-free polarity hosts (`ER_q` for the largest
    /// admissible prime).
    pub fn polarity() -> Self {
        FamilySpec::Polarity.into()
    }
}

/// Seed sweeps accepted by [`Scenario::seeds`]: a `Range<u64>` (the
/// ergonomic sugar every existing call site uses) or an explicit list
/// (what suite files like `seeds=0,7,42` need).
pub trait IntoSeeds {
    /// The concrete seed list, in sweep order.
    fn into_seeds(self) -> Vec<u64>;
}

impl IntoSeeds for Range<u64> {
    fn into_seeds(self) -> Vec<u64> {
        self.collect()
    }
}

impl IntoSeeds for Vec<u64> {
    fn into_seeds(self) -> Vec<u64> {
        self
    }
}

impl IntoSeeds for &[u64] {
    fn into_seeds(self) -> Vec<u64> {
        self.to_vec()
    }
}

impl<const N: usize> IntoSeeds for [u64; N] {
    fn into_seeds(self) -> Vec<u64> {
        self.to_vec()
    }
}

/// What to extract from each [`Detection`](even_cycle::Detection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Rounds in the algorithm's cost model.
    Rounds,
    /// Rounds divided by outer-loop iterations (the per-iteration cost
    /// whose `n`-scaling Table 1 reports; falls back to total rounds
    /// when an algorithm reports no iterations).
    RoundsPerIteration,
    /// Maximum words on any edge in any superstep.
    MaxCongestion,
    /// Total point-to-point messages.
    Messages,
    /// Total words sent.
    Words,
}

impl Metric {
    /// A short label for table headers.
    pub fn label(self) -> &'static str {
        match self {
            Metric::Rounds => "rounds",
            Metric::RoundsPerIteration => "rounds/iter",
            Metric::MaxCongestion => "max edge load",
            Metric::Messages => "messages",
            Metric::Words => "words",
        }
    }

    /// Parses a command-line spelling (`rounds`, `rounds-per-iter`,
    /// `congestion`, `messages`, `words`).
    pub fn parse(s: &str) -> Option<Metric> {
        match s {
            "rounds" => Some(Metric::Rounds),
            "rounds-per-iter" | "rounds/iter" => Some(Metric::RoundsPerIteration),
            "congestion" | "max-congestion" => Some(Metric::MaxCongestion),
            "messages" => Some(Metric::Messages),
            "words" => Some(Metric::Words),
            _ => None,
        }
    }

    pub(crate) fn extract(self, d: &even_cycle::Detection) -> f64 {
        self.extract_cost(&d.cost)
    }

    /// The metric value of a unified cost — the one implementation
    /// shared by live detections and replayed store records, so both
    /// paths aggregate identically by construction.
    pub(crate) fn extract_cost(self, cost: &even_cycle::RunCost) -> f64 {
        match self {
            Metric::Rounds => cost.rounds as f64,
            Metric::RoundsPerIteration => cost.rounds as f64 / cost.iterations.max(1) as f64,
            Metric::MaxCongestion => cost.max_congestion as f64,
            Metric::Messages => cost.messages as f64,
            Metric::Words => cost.words as f64,
        }
    }
}

/// A declarative measurement: family × sizes × seeds × budget × metric,
/// plus the execution knobs (worker count, result store) the engine
/// honors.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub(crate) name: String,
    pub(crate) family: GraphFamily,
    pub(crate) sizes: Vec<usize>,
    pub(crate) seeds: Vec<u64>,
    pub(crate) budget: Budget,
    pub(crate) metric: Metric,
    pub(crate) workers: Option<usize>,
    pub(crate) store: Option<PathBuf>,
    pub(crate) schedule: Option<Schedule>,
}

impl Scenario {
    /// Creates a scenario with defaults: sizes `[64, 128, 256]`, seeds
    /// `0..3`, classical budget, [`Metric::Rounds`].
    pub fn new(name: impl Into<String>, family: GraphFamily) -> Self {
        Scenario {
            name: name.into(),
            family,
            sizes: vec![64, 128, 256],
            seeds: (0..3).collect(),
            budget: Budget::classical(),
            metric: Metric::Rounds,
            workers: None,
            store: None,
            schedule: None,
        }
    }

    /// The scenario's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The scenario's graph family.
    pub fn family(&self) -> &GraphFamily {
        &self.family
    }

    /// The configured instance sizes.
    pub fn sizes_configured(&self) -> &[usize] {
        &self.sizes
    }

    /// The configured seed sweep.
    pub fn seeds_configured(&self) -> &[u64] {
        &self.seeds
    }

    /// Sets the instance sizes (must be non-empty and increasing for a
    /// meaningful fit).
    pub fn sizes(mut self, sizes: &[usize]) -> Self {
        assert!(!sizes.is_empty(), "need at least one size");
        self.sizes = sizes.to_vec();
        self
    }

    /// Sets the seed sweep; per-size values average over it. Accepts a
    /// range (`0..3`) or an explicit list (`vec![0, 7, 42]`,
    /// `[0, 7, 42]`, `&[0, 7, 42][..]`).
    pub fn seeds(mut self, seeds: impl IntoSeeds) -> Self {
        let seeds = seeds.into_seeds();
        assert!(!seeds.is_empty(), "need at least one seed");
        self.seeds = seeds;
        self
    }

    /// Sets the resource budget (bandwidth, repetition override, hard
    /// round/message caps, simulation backend).
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the simulation backend every detector run uses
    /// ([`Backend::Sequential`] | [`Backend::Parallel`] |
    /// [`Backend::Auto`]). Purely a wall-clock knob: reports are
    /// byte-identical across backends and thread counts, and the
    /// engine clamps the worker pool so `workers × sim_threads` never
    /// exceeds the machine's parallelism.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.budget.backend = backend;
        self
    }

    /// Sets the extracted metric.
    pub fn metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Sets the worker-thread count for the sweep (default: the
    /// `EVEN_CYCLE_WORKERS` environment variable, else 1). Any worker
    /// count produces byte-identical reports.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        self.workers = Some(workers);
        self
    }

    /// Persists every work unit to a JSONL result store under `dir`
    /// (each unit content-addressed by its full identity) and resumes
    /// from it: units already in the store — including units computed
    /// by previous, smaller grids — are replayed without invoking
    /// their detector.
    pub fn store(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store = Some(dir.into());
        self
    }

    /// Sets the scheduling policy: dispatch order (in-order or
    /// cheapest-estimated-first) and an optional wall-clock cap under
    /// which undispatched units are skipped, counted, and resumed from
    /// the store on the next run. Default: the engine's in-order,
    /// uncapped schedule.
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Runs every detector through the scenario matrix on the
    /// experiment engine.
    ///
    /// Simulator failures do not abort the sweep: failed runs are
    /// counted per row (`errors`) and excluded from the averages, so a
    /// single pathological instance cannot take down a whole report.
    /// Runs cut off by a [`Budget`] cap are likewise counted
    /// (`budget_exceeded`) and excluded.
    pub fn run(&self, detectors: &[&dyn Detector]) -> ScenarioReport {
        let mut engine = Engine::from_env();
        if let Some(w) = self.workers {
            engine = engine.with_workers(w);
        }
        if let Some(dir) = &self.store {
            engine = engine.with_store(dir.clone());
        }
        if let Some(schedule) = self.schedule {
            engine = engine.with_schedule(schedule);
        }
        engine.run(self, detectors)
    }

    /// Runs every entry of a registry through the scenario.
    pub fn run_registry(&self, registry: &crate::registry::DetectorRegistry) -> ScenarioReport {
        let dets: Vec<&dyn Detector> = registry.iter().map(|e| e.detector.as_ref()).collect();
        self.run(&dets)
    }
}

/// One detector's measured series.
#[derive(Debug, Clone)]
pub struct ScenarioRow {
    /// The registry-style identifier.
    pub id: String,
    /// The algorithm's metadata (carries the theory exponent to compare
    /// the fit against).
    pub descriptor: Descriptor,
    /// `(n, mean metric value)` per size, increasing `n`.
    pub samples: Vec<(usize, f64)>,
    /// Fitted exponent `α` of `value ≈ c·n^α` (NaN with < 2 samples or
    /// non-positive values).
    pub fitted_exponent: f64,
    /// Fitted constant `c`.
    pub fitted_constant: f64,
    /// Rejecting runs across the whole sweep.
    pub rejections: u64,
    /// Runs that returned a simulator error (excluded from averages).
    pub errors: u64,
    /// Runs aborted by a [`Budget`] cap (excluded from averages).
    pub budget_exceeded: u64,
    /// Units never dispatched because the schedule's wall-clock cap
    /// elapsed first (resumable from the result store).
    pub skipped: u64,
}

/// The rendered result of a scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Family name.
    pub family: String,
    /// The metric measured.
    pub metric: Metric,
    /// The bandwidth the budget charged.
    pub bandwidth: u64,
    /// Seeds averaged per size.
    pub runs_per_size: usize,
    /// One row per detector.
    pub rows: Vec<ScenarioRow>,
}

impl ScenarioReport {
    /// Total units skipped across all rows by the schedule's
    /// wall-clock cap (0 for an uncapped or finished sweep). Non-zero
    /// means the report is a resumable partial: re-running with the
    /// same store picks up the skipped units.
    pub fn skipped_units(&self) -> u64 {
        self.rows.iter().map(|r| r.skipped).sum()
    }

    /// Renders an aligned text block: one line per detector with the
    /// fitted vs theoretical exponent, then the per-size samples.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== scenario: {} — {} on {} (B = {}, {} seeds/size) ==\n",
            self.scenario,
            self.metric.label(),
            self.family,
            self.bandwidth,
            self.runs_per_size,
        );
        for row in &self.rows {
            let fit = if row.fitted_exponent.is_nan() {
                "n^?".to_string()
            } else {
                format!("n^{:.3}", row.fitted_exponent)
            };
            let capped = if row.budget_exceeded > 0 {
                format!("  capped {}", row.budget_exceeded)
            } else {
                String::new()
            };
            let skipped = if row.skipped > 0 {
                format!("  skipped {}", row.skipped)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "{:<44} fit {:<8} theory n^{:.3}  rejections {}  errors {}{}{}\n",
                row.id, fit, row.descriptor.exponent, row.rejections, row.errors, capped, skipped
            ));
            for &(n, v) in &row.samples {
                out.push_str(&format!("    n = {n:>7}  ->  {v:>14.1}\n"));
            }
        }
        out
    }

    /// Serializes the whole report as one JSON object (a single line —
    /// suitable for JSONL streams). Non-finite fits serialize as
    /// `null`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"scenario\":\"{}\",\"family\":\"{}\",\"metric\":\"{}\",\"bandwidth\":{},\"runs_per_size\":{},\"rows\":[",
            json_escape(&self.scenario),
            json_escape(&self.family),
            json_escape(self.metric.label()),
            self.bandwidth,
            self.runs_per_size,
        );
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":\"{}\",\"model\":\"{}\",\"target\":\"{}\",\"reference\":\"{}\",\"theory_exponent\":{},\"fitted_exponent\":{},\"fitted_constant\":{},\"rejections\":{},\"errors\":{},\"budget_exceeded\":{},\"skipped\":{},\"samples\":[",
                json_escape(&row.id),
                row.descriptor.model.label(),
                json_escape(&row.descriptor.target.label()),
                json_escape(row.descriptor.reference),
                json_f64(row.descriptor.exponent),
                json_f64(row.fitted_exponent),
                json_f64(row.fitted_constant),
                row.rejections,
                row.errors,
                row.budget_exceeded,
                row.skipped,
            ));
            for (j, &(n, v)) in row.samples.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{},{}]", n, json_f64(v)));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Appends the report as one JSONL line to `path`, creating the
    /// file (and its parent directory) when missing.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_jsonl(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        append_line(path.as_ref(), &self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use even_cycle::{CycleDetector, Params};

    #[test]
    fn scenario_measures_and_fits() {
        let det = CycleDetector::new(Params::practical(2).with_repetitions(3));
        let report = Scenario::new("smoke", GraphFamily::random_trees())
            .sizes(&[32, 64, 128])
            .seeds(0..2)
            .metric(Metric::RoundsPerIteration)
            .run(&[&det]);
        assert_eq!(report.rows.len(), 1);
        let row = &report.rows[0];
        assert_eq!(row.samples.len(), 3);
        assert_eq!(row.errors, 0);
        assert!(!row.fitted_exponent.is_nan());
        assert!(report.render().contains("theory n^0.500"));
    }

    #[test]
    fn bandwidth_reduces_rounds() {
        let det = CycleDetector::new(Params::practical(2).with_repetitions(3));
        let narrow = Scenario::new("b1", GraphFamily::planted_cycle(4))
            .sizes(&[64])
            .seeds(0..2)
            .run(&[&det]);
        let wide = Scenario::new("b8", GraphFamily::planted_cycle(4))
            .sizes(&[64])
            .seeds(0..2)
            .budget(Budget::classical().with_bandwidth(8))
            .run(&[&det]);
        let r1 = narrow.rows[0].samples[0].1;
        let r8 = wide.rows[0].samples[0].1;
        assert!(
            r8 <= r1,
            "bandwidth 8 must not cost more rounds ({r8} vs {r1})"
        );
    }

    #[test]
    fn registry_sweep_produces_a_row_per_entry() {
        let registry = crate::registry::DetectorRegistry::standard(2);
        // Tiny sweep: just check plumbing, not statistics.
        let report = Scenario::new("registry smoke", GraphFamily::random_trees())
            .sizes(&[24])
            .seeds(0..1)
            .run_registry(&registry);
        assert_eq!(report.rows.len(), registry.len());
        // Trees are cycle-free: one-sidedness means zero rejections
        // everywhere.
        assert!(report.rows.iter().all(|r| r.rejections == 0));
    }

    #[test]
    fn report_json_is_one_line_and_escaped() {
        let det = CycleDetector::new(Params::practical(2).with_repetitions(2));
        let report = Scenario::new("json \"smoke\"", GraphFamily::random_trees())
            .sizes(&[24])
            .seeds(0..1)
            .run(&[&det]);
        let json = report.to_json();
        assert!(!json.contains('\n'));
        assert!(json.contains("\"scenario\":\"json \\\"smoke\\\"\""));
        assert!(json.contains("\"rows\":["));
        assert!(json.contains("\"samples\":[[")); // at least one sample
    }

    #[test]
    fn seeds_accept_ranges_and_explicit_lists() {
        let ranged = Scenario::new("r", GraphFamily::random_trees()).seeds(0..3);
        assert_eq!(ranged.seeds, vec![0, 1, 2]);
        let listed = Scenario::new("l", GraphFamily::random_trees()).seeds([0u64, 7, 42]);
        assert_eq!(listed.seeds, vec![0, 7, 42]);
        let vec_form = Scenario::new("v", GraphFamily::random_trees()).seeds(vec![5u64, 9]);
        assert_eq!(vec_form.seeds, vec![5, 9]);
        let slice_form = Scenario::new("s", GraphFamily::random_trees()).seeds(&[1u64, 2][..]);
        assert_eq!(slice_form.seeds, vec![1, 2]);
        // A listed sweep runs end to end like a ranged one.
        let det = CycleDetector::new(Params::practical(2).with_repetitions(2));
        let report = Scenario::new("list smoke", GraphFamily::random_trees())
            .sizes(&[24])
            .seeds([0u64, 3])
            .run(&[&det]);
        assert_eq!(report.runs_per_size, 2);
    }

    #[test]
    fn family_store_keys_cover_parameters_and_versions() {
        // Catalog families: the fingerprint covers parameters.
        let p4 = GraphFamily::planted_cycle(4).store_key();
        let p6 = GraphFamily::planted_cycle(6).store_key();
        assert_ne!(p4, p6, "parameters must move the store key");
        assert!(p4.starts_with("spec:"));
        // The key is the spec fingerprint, not the display name.
        assert_eq!(
            p4,
            format!(
                "spec:{}",
                congest_graph::FamilySpec::Planted { l: 4 }.fingerprint_hex()
            )
        );
        // Custom families: name + explicit version.
        let v1 = GraphFamily::custom("mine", "v1", |n, s| {
            congest_graph::generators::random_tree(n.max(2), s)
        });
        let v2 = GraphFamily::custom("mine", "v2", |n, s| {
            congest_graph::generators::random_tree(n.max(2), s)
        });
        assert_eq!(v1.store_key(), "custom:mine@v1");
        assert_ne!(v1.store_key(), v2.store_key());
        assert!(v1.as_spec().is_none());
        assert!(GraphFamily::random_trees().as_spec().is_some());
    }

    #[test]
    #[should_panic(expected = "version")]
    fn custom_families_require_a_version() {
        let _ = GraphFamily::custom("mine", "  ", |n, s| {
            congest_graph::generators::random_tree(n.max(2), s)
        });
    }

    #[test]
    fn parse_goes_through_the_shared_catalog() {
        let fam = GraphFamily::parse("planted:4").unwrap();
        assert_eq!(fam.name(), "planted:4");
        let err = GraphFamily::parse("nope").unwrap_err();
        assert!(err.contains("known families"));
    }

    #[test]
    fn metric_parse_roundtrips() {
        assert_eq!(Metric::parse("rounds"), Some(Metric::Rounds));
        assert_eq!(
            Metric::parse("rounds-per-iter"),
            Some(Metric::RoundsPerIteration)
        );
        assert_eq!(Metric::parse("congestion"), Some(Metric::MaxCongestion));
        assert_eq!(Metric::parse("nope"), None);
    }
}
