//! The parallel experiment engine: worker-pool sweep execution, run
//! profiles, budget enforcement, and a persisted result store.
//!
//! A [`Scenario`] declares *what* to measure; this module decides *how*
//! it runs. The sweep matrix `sizes × seeds × detectors` is flattened
//! into indexed work units, sharded across a [`pool`] of worker
//! threads, and re-assembled in unit order — so the aggregated
//! [`ScenarioReport`] is byte-identical whatever the worker count
//! (detectors are deterministic in the seed, f64 accumulation happens
//! in one canonical order on the collecting thread).
//!
//! With a store directory configured, every completed unit is appended,
//! in dispatch order whatever the worker count, to a JSONL [`store`]
//! **content-addressed per unit** — keyed by a
//! hash of `(family, n, seed, detector fingerprint, budget)`, not of
//! the sweep grid. Re-running the same sweep replays the store and
//! invokes no detector; partially complete stores resume from where
//! they left off; and a grid extended by a size rung, a seed, or a
//! detector replays every overlapping unit and executes only the new
//! cells. A [`schedule::Schedule`] decides dispatch order
//! (cheapest-estimated-first for progressive refinement) and an
//! optional wall-clock cap under which undispatched units are skipped,
//! counted in the report, and resumed next run.
//! [`profile::RunProfile`] names the three standard experiment
//! configurations (`paper-exact`, `practical`, `fast-ci`) that map
//! onto registry construction, budget, and schedule defaults.
//!
//! ```
//! use even_cycle_congest::engine::Engine;
//! use even_cycle_congest::scenario::{GraphFamily, Metric, Scenario};
//! use even_cycle_congest::cycle::{CycleDetector, Detector, Params};
//!
//! let scenario = Scenario::new("engine smoke", GraphFamily::random_trees())
//!     .sizes(&[24, 32])
//!     .seeds(0..2);
//! let det = CycleDetector::new(Params::practical(2).with_repetitions(2));
//! let report = Engine::from_env()
//!     .with_workers(2)
//!     .run(&scenario, &[&det]);
//! assert_eq!(report.rows.len(), 1);
//! ```

pub mod cache;
pub mod pool;
pub mod profile;
pub mod schedule;
pub mod store;

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use congest_telemetry as telemetry;
use even_cycle::theory::fit_exponent;
use even_cycle::Detector;

pub use profile::RunProfile;
pub use schedule::{Schedule, ScheduleOrder};

use crate::scenario::{Metric, Scenario, ScenarioReport, ScenarioRow};
use crate::stream::{CheckpointCell, StreamReport, StreamRow, StreamScenario};
use cache::GraphCache;
use store::{ResultStore, UnitRecord, UnitStatus};

/// Telemetry handles for the engine's work accounting, resolved once
/// per process. These are always-on relaxed atomics; the per-unit
/// [`telemetry::Span`]s in [`record_detection`] are additionally gated
/// on an installed recorder.
struct EngineMetrics {
    units_executed: Arc<telemetry::Counter>,
    units_replayed: Arc<telemetry::Counter>,
    deadline_skips: Arc<telemetry::Counter>,
    unit_ns: Arc<telemetry::Histogram>,
    stream_replays: Arc<telemetry::Counter>,
}

fn engine_metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = telemetry::Registry::global();
        EngineMetrics {
            units_executed: registry.counter("engine.units.executed"),
            units_replayed: registry.counter("engine.units.replayed"),
            deadline_skips: registry.counter("engine.schedule.deadline_skips"),
            unit_ns: registry.histogram("engine.unit_ns"),
            stream_replays: registry.counter("engine.stream.replays"),
        }
    })
}

/// Renders the canonical work summary the `sweep` bin prints to stderr:
/// `executed E, replayed R, skipped S of T unit(s) in X.Ys`.
pub fn work_summary(
    executed: usize,
    replayed: usize,
    skipped: u64,
    total: usize,
    elapsed: Duration,
) -> String {
    format!(
        "executed {executed}, replayed {replayed}, skipped {skipped} of {total} unit(s) in {:.1}s",
        elapsed.as_secs_f64()
    )
}

/// The sweep executor. Construct with [`Engine::from_env`], then
/// layer overrides with the builder methods.
#[derive(Debug, Clone)]
pub struct Engine {
    workers: usize,
    store_dir: Option<PathBuf>,
    schedule: Schedule,
}

impl Engine {
    /// An engine honoring the environment: worker count from
    /// `EVEN_CYCLE_WORKERS` (default 1), no store, in-order uncapped
    /// schedule.
    pub fn from_env() -> Self {
        Engine {
            workers: pool::workers_from_env(),
            store_dir: None,
            schedule: Schedule::default(),
        }
    }

    /// Overrides the worker count.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        self.workers = workers;
        self
    }

    /// Persists and resumes work units under `dir` (see
    /// [`store::ResultStore`]).
    pub fn with_store(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store_dir = Some(dir.into());
        self
    }

    /// Overrides the scheduling policy (dispatch order and optional
    /// wall-clock cap; see [`Schedule`]).
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The configured scheduling policy.
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// Runs the scenario's full `sizes × seeds × detectors` matrix and
    /// aggregates it into a report.
    ///
    /// Work units whose content address is already in the result store
    /// are replayed without invoking their detector — including units
    /// computed by *previous, smaller grids* (extending a size ladder,
    /// a seed range, or the detector set only executes the new cells).
    /// Everything else is executed on the worker pool in schedule
    /// order and appended to the store as it completes; units not
    /// dispatched before the wall-clock cap are counted as skipped and
    /// resumed on the next run.
    ///
    /// # Panics
    ///
    /// Panics if the result store cannot be opened or written (the
    /// engine treats a configured store as a hard requirement — a
    /// silently dropped store would turn the next resume into a silent
    /// full re-run).
    pub fn run(&self, scenario: &Scenario, detectors: &[&dyn Detector]) -> ScenarioReport {
        self.run_suite(&[(scenario, detectors)])
            .reports
            .pop()
            .expect("one scenario in, one report out")
    }

    /// Runs a whole *suite* — any number of scenarios, each with its
    /// own detector set — through ONE shared worker pool, graph cache,
    /// result store, schedule, and thread budget.
    ///
    /// The work units of every scenario are flattened into a single
    /// dispatch queue (deduplicated by content address, so two stanzas
    /// that share a cell execute it once), scheduled together
    /// (cheapest-first ordering and the wall-clock cap apply across
    /// the whole suite), and aggregated back into one report per
    /// scenario in input order. Reports are byte-identical to running
    /// each scenario alone with the same store.
    ///
    /// # Panics
    ///
    /// Panics as [`Engine::run`] does if the result store cannot be
    /// opened or written.
    pub fn run_suite(&self, items: &[(&Scenario, &[&dyn Detector])]) -> SuiteOutcome {
        // Split the machine's thread budget between pool workers and
        // the intra-run simulation threads of each scenario's backend,
        // so a parallel sweep of parallel simulations never
        // oversubscribes (workers × sim_threads ≤ available
        // parallelism). The suite shares one pool, so the worker count
        // is the tightest scenario's split. Backends do not change
        // results — transcripts are byte-identical — so no clamp can
        // move a report.
        let available = std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1);
        let mut workers = self.workers.max(1);
        let mut budgets: Vec<even_cycle::Budget> = Vec::with_capacity(items.len());
        for (scenario, _) in items {
            let max_size = scenario.sizes.iter().copied().max().unwrap_or(0);
            let (w, backend) =
                split_thread_budget(self.workers, scenario.budget.backend, max_size, available);
            workers = workers.min(w);
            budgets.push(scenario.budget.clone().with_backend(backend));
        }

        let mut store = self
            .store_dir
            .as_ref()
            .map(|dir| ResultStore::open(dir).expect("result store must be writable"));

        // Flatten every scenario's matrix in the canonical order
        // (scenario-major, then size, seed, detector), content-address
        // every unit, and keep only the units the store cannot replay —
        // deduplicated suite-wide, so a cell shared by two stanzas
        // executes once. The det/n/seed check on replay is a
        // belt-and-suspenders guard against a 128-bit key collision.
        struct Todo {
            si: usize,
            order: usize,
            di: usize,
            n: usize,
            seed: u64,
            key: String,
            estimate: f64,
        }
        let mut metas: Vec<ScenarioMeta> = Vec::with_capacity(items.len());
        let family_keys: Vec<String> = items.iter().map(|(s, _)| s.family.store_key()).collect();
        let mut todo: Vec<Todo> = Vec::new();
        let mut claimed: std::collections::HashSet<String> = std::collections::HashSet::new();
        let mut total_units = 0usize;
        for (si, (scenario, detectors)) in items.iter().enumerate() {
            let ids: Vec<String> = detectors.iter().map(|d| d.descriptor().id()).collect();
            let configs: Vec<String> = detectors.iter().map(|d| d.config_fingerprint()).collect();
            let exponents: Vec<f64> = detectors.iter().map(|d| d.descriptor().exponent).collect();
            let units = scenario.sizes.len() * scenario.seeds.len() * detectors.len();
            let mut keys: Vec<String> = Vec::with_capacity(units);
            for &n in &scenario.sizes {
                for &seed in &scenario.seeds {
                    for di in 0..detectors.len() {
                        let key = store::unit_key(&store::canonical_unit(
                            &family_keys[si],
                            n,
                            seed,
                            &ids[di],
                            &configs[di],
                            &scenario.budget,
                        ));
                        let replayable = store
                            .as_ref()
                            .and_then(|s| s.get(&key))
                            .is_some_and(|r| r.det == ids[di] && r.n == n && r.seed == seed);
                        if !replayable && claimed.insert(key.clone()) {
                            todo.push(Todo {
                                si,
                                order: total_units + keys.len(),
                                di,
                                n,
                                seed,
                                key: key.clone(),
                                estimate: schedule::estimate_cost(n, exponents[di]),
                            });
                        }
                        keys.push(key);
                    }
                }
            }
            total_units += units;
            metas.push(ScenarioMeta { ids, keys });
        }

        // Dispatch order per the schedule, across the whole suite.
        // Aggregation folds records in canonical unit order regardless,
        // so reports do not depend on this — only *which* units finish
        // under a cap does.
        if self.schedule.order == ScheduleOrder::CheapestFirst {
            todo.sort_by(|a, b| {
                a.estimate
                    .total_cmp(&b.estimate)
                    .then(a.order.cmp(&b.order))
            });
        }

        // Pre-compute per-instance refcounts so the shared graph cache
        // can evict each (family, n, seed) when its last pending unit
        // completes.
        let mut pending: BTreeMap<cache::InstanceKey, usize> = BTreeMap::new();
        for t in &todo {
            *pending
                .entry((family_keys[t.si].clone(), t.n, t.seed))
                .or_insert(0) += 1;
        }
        let graphs = GraphCache::new();
        graphs.expect_pending(&pending);

        // Workers commit each record as it completes (see
        // `InOrderStore`), so a killed or wall-clock-capped sweep keeps
        // every unit up to the first unfinished one and the next run
        // resumes from there.
        // audit:allow(R2): schedule-cap enforcement — the deadline decides
        // *whether* a unit runs (skipped units resume later), never what any
        // executed unit computes.
        let deadline = self.schedule.wall_clock_cap.map(|cap| Instant::now() + cap);
        let shared_store = std::sync::Mutex::new(InOrderStore::new(store.take()));
        let fresh: Vec<Option<UnitRecord>> = pool::run_indexed(todo.len(), workers, |j| {
            let t = &todo[j];
            let (scenario, detectors) = items[t.si];
            // audit:allow(R2): same cap probe as above — gating only.
            if deadline.is_some_and(|d| Instant::now() >= d) {
                // Cap elapsed: skip (do not start) this unit, but still
                // release its graph reference so eviction stays exact.
                engine_metrics().deadline_skips.inc();
                graphs.release(&family_keys[t.si], t.n, t.seed);
                shared_store.lock().unwrap().commit(j, None);
                return None;
            }
            let record = execute_unit(
                scenario,
                &budgets[t.si],
                &graphs,
                detectors[t.di],
                &metas[t.si].ids[t.di],
                &t.key,
                t.n,
                t.seed,
            );
            graphs.release(&family_keys[t.si], t.n, t.seed);
            shared_store.lock().unwrap().commit(j, Some(&record));
            Some(record)
        });
        let store = shared_store.into_inner().unwrap().store;
        let executed = fresh.iter().flatten().count();

        // Merge replayed and fresh records back into each scenario's
        // canonical unit order, then aggregate sequentially (one
        // canonical f64 addition order per scenario). Units skipped by
        // the wall-clock cap stay `None` and are counted per row.
        let mut by_key: HashMap<&str, &UnitRecord> = HashMap::new();
        for record in fresh.iter().flatten() {
            by_key.insert(&record.key, record);
        }
        let mut reports = Vec::with_capacity(items.len());
        for (si, (scenario, detectors)) in items.iter().enumerate() {
            let records: Vec<Option<UnitRecord>> = metas[si]
                .keys
                .iter()
                .map(|key| {
                    by_key
                        .get(key.as_str())
                        .map(|r| (*r).clone())
                        .or_else(|| store.as_ref().and_then(|s| s.get(key)).cloned())
                })
                .collect();
            reports.push(aggregate(scenario, detectors, &records));
        }
        let skipped: u64 = reports
            .iter()
            .map(|r: &ScenarioReport| r.skipped_units())
            .sum();
        let replayed_units = total_units - executed - skipped as usize;
        engine_metrics().units_replayed.add(replayed_units as u64);
        SuiteOutcome {
            reports,
            total_units,
            executed_units: executed,
            replayed_units,
        }
    }

    /// Replays one [`StreamScenario`] and runs every detector at every
    /// checkpoint; see [`Engine::run_streams`] for the execution and
    /// replay semantics.
    pub fn run_stream(
        &self,
        scenario: &StreamScenario,
        detectors: &[&dyn Detector],
    ) -> StreamOutcome {
        let suite = self.run_streams(&[(scenario, detectors)]);
        StreamOutcome {
            report: suite
                .reports
                .into_iter()
                .next()
                .expect("one stream in, one report out"),
            total_units: suite.total_units,
            executed_units: suite.executed_units,
            replayed_units: suite.replayed_units,
        }
    }

    /// Runs any number of [`StreamScenario`]s through one shared worker
    /// pool, result store, schedule, and thread budget.
    ///
    /// Every checkpoint verdict is one work unit, content-addressed by
    /// `(schedule fingerprint, checkpoint index, n, seed, detector,
    /// budget)` via [`store::canonical_stream_unit`]. Units already in
    /// the store are resolved **without replaying the stream at all**:
    /// a seed whose checkpoints are all stored never regenerates its
    /// base graph or update sequence, so a re-run of an unchanged
    /// stream costs zero detector invocations *and* zero graph builds.
    /// For seeds with missing units, the schedule is replayed once (on
    /// the calling thread — replay is inherently sequential) and only
    /// the snapshots that missing units need are materialized; the
    /// detector runs are then dispatched across the pool like any
    /// sweep, deduplicated suite-wide by content address, appended to
    /// the store as they complete, and aggregated back in canonical
    /// order (checkpoint-major, then seed, then detector) so reports
    /// are byte-identical whatever the worker count.
    ///
    /// # Panics
    ///
    /// Panics as [`Engine::run`] does if the result store cannot be
    /// opened or written.
    pub fn run_streams(&self, items: &[(&StreamScenario, &[&dyn Detector])]) -> StreamSuiteOutcome {
        let available = std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1);
        let mut workers = self.workers.max(1);
        let mut budgets: Vec<even_cycle::Budget> = Vec::with_capacity(items.len());
        for (scenario, _) in items {
            let (w, backend) =
                split_thread_budget(self.workers, scenario.budget.backend, scenario.n, available);
            workers = workers.min(w);
            budgets.push(scenario.budget.clone().with_backend(backend));
        }

        let mut store = self
            .store_dir
            .as_ref()
            .map(|dir| ResultStore::open(dir).expect("result store must be writable"));

        // Flatten every stream's matrix in canonical order
        // (checkpoint-major, then seed, then detector), content-address
        // every unit, and keep only what the store cannot replay —
        // deduplicated suite-wide. The det/n/seed check on replay is
        // the same key-collision guard the static path uses.
        struct Todo {
            si: usize,
            order: usize,
            di: usize,
            ci: usize,
            qi: usize,
            key: String,
            estimate: f64,
        }
        let mut metas: Vec<ScenarioMeta> = Vec::with_capacity(items.len());
        let mut todo: Vec<Todo> = Vec::new();
        let mut claimed: std::collections::HashSet<String> = std::collections::HashSet::new();
        let mut total_units = 0usize;
        for (si, (scenario, detectors)) in items.iter().enumerate() {
            let ids: Vec<String> = detectors.iter().map(|d| d.descriptor().id()).collect();
            let configs: Vec<String> = detectors.iter().map(|d| d.config_fingerprint()).collect();
            let exponents: Vec<f64> = detectors.iter().map(|d| d.descriptor().exponent).collect();
            let schedule_key = scenario.updates.fingerprint_hex();
            let checkpoints = scenario.updates.checkpoints;
            let mut keys: Vec<String> =
                Vec::with_capacity(checkpoints * scenario.seeds.len() * detectors.len());
            for ci in 0..checkpoints {
                for (qi, &seed) in scenario.seeds.iter().enumerate() {
                    for di in 0..detectors.len() {
                        let key = store::unit_key(&store::canonical_stream_unit(
                            &schedule_key,
                            ci,
                            scenario.n,
                            seed,
                            &ids[di],
                            &configs[di],
                            &scenario.budget,
                        ));
                        let replayable =
                            store.as_ref().and_then(|s| s.get(&key)).is_some_and(|r| {
                                r.det == ids[di] && r.n == scenario.n && r.seed == seed
                            });
                        if !replayable && claimed.insert(key.clone()) {
                            todo.push(Todo {
                                si,
                                order: total_units + keys.len(),
                                di,
                                ci,
                                qi,
                                key: key.clone(),
                                estimate: schedule::estimate_cost(scenario.n, exponents[di]),
                            });
                        }
                        keys.push(key);
                    }
                }
            }
            total_units += keys.len();
            metas.push(ScenarioMeta { ids, keys });
        }

        // Materialize only the snapshots that missing units need: one
        // sequential replay per (stream, seed) with any pending work,
        // stopped at its last needed checkpoint. Fully stored seeds are
        // never replayed.
        let mut needed: std::collections::BTreeMap<
            (usize, usize),
            std::collections::BTreeSet<usize>,
        > = std::collections::BTreeMap::new();
        for t in &todo {
            needed.entry((t.si, t.qi)).or_default().insert(t.ci);
        }
        let mut snapshots: HashMap<(usize, usize, usize), std::sync::Arc<congest_graph::Graph>> =
            HashMap::new();
        for ((si, qi), checkpoints) in &needed {
            let scenario = items[*si].0;
            let last = *checkpoints.iter().next_back().expect("non-empty set");
            engine_metrics().stream_replays.inc();
            let _replay_span = telemetry::Span::begin("engine.stream.replay")
                .with("n", scenario.n)
                .with("seed", scenario.seeds[*qi])
                .with("checkpoints", checkpoints.len());
            let mut replay = scenario.updates.replay(scenario.n, scenario.seeds[*qi]);
            while let Some((ci, snapshot)) = replay.next_checkpoint() {
                if checkpoints.contains(&ci) {
                    snapshots.insert((*si, *qi, ci), std::sync::Arc::new(snapshot));
                }
                if ci == last {
                    break;
                }
            }
        }

        if self.schedule.order == ScheduleOrder::CheapestFirst {
            todo.sort_by(|a, b| {
                a.estimate
                    .total_cmp(&b.estimate)
                    .then(a.order.cmp(&b.order))
            });
        }

        // audit:allow(R2): schedule-cap enforcement — the deadline decides
        // *whether* a unit runs (skipped units resume later), never what any
        // executed unit computes.
        let deadline = self.schedule.wall_clock_cap.map(|cap| Instant::now() + cap);
        let shared_store = std::sync::Mutex::new(InOrderStore::new(store.take()));
        let fresh: Vec<Option<UnitRecord>> = pool::run_indexed(todo.len(), workers, |j| {
            let t = &todo[j];
            let (scenario, detectors) = items[t.si];
            // audit:allow(R2): same cap probe as above — gating only.
            if deadline.is_some_and(|d| Instant::now() >= d) {
                engine_metrics().deadline_skips.inc();
                shared_store.lock().unwrap().commit(j, None);
                return None;
            }
            let g = &snapshots[&(t.si, t.qi, t.ci)];
            let record = record_detection(
                scenario.metric,
                g,
                &budgets[t.si],
                detectors[t.di],
                &metas[t.si].ids[t.di],
                &t.key,
                scenario.n,
                scenario.seeds[t.qi],
            );
            shared_store.lock().unwrap().commit(j, Some(&record));
            Some(record)
        });
        let store = shared_store.into_inner().unwrap().store;
        let executed = fresh.iter().flatten().count();

        let mut by_key: HashMap<&str, &UnitRecord> = HashMap::new();
        for record in fresh.iter().flatten() {
            by_key.insert(&record.key, record);
        }
        let mut reports = Vec::with_capacity(items.len());
        for (si, (scenario, detectors)) in items.iter().enumerate() {
            let records: Vec<Option<UnitRecord>> = metas[si]
                .keys
                .iter()
                .map(|key| {
                    by_key
                        .get(key.as_str())
                        .map(|r| (*r).clone())
                        .or_else(|| store.as_ref().and_then(|s| s.get(key)).cloned())
                })
                .collect();
            reports.push(aggregate_stream(scenario, detectors, &records));
        }
        let skipped: u64 = reports.iter().map(StreamReport::skipped_units).sum();
        let replayed_units = total_units - executed - skipped as usize;
        engine_metrics().units_replayed.add(replayed_units as u64);
        StreamSuiteOutcome {
            reports,
            total_units,
            executed_units: executed,
            replayed_units,
        }
    }
}

/// Per-scenario bookkeeping the suite runner threads through the
/// shared pool pass.
struct ScenarioMeta {
    ids: Vec<String>,
    keys: Vec<String>,
}

/// What a suite run did: the per-scenario reports plus the shared
/// engine's work accounting — the replay guarantee made visible (a
/// second run of an unchanged suite must show `executed_units == 0`).
#[derive(Debug)]
pub struct SuiteOutcome {
    /// One report per input scenario, in input order.
    pub reports: Vec<ScenarioReport>,
    /// Total work units across all scenarios (duplicates counted per
    /// scenario).
    pub total_units: usize,
    /// Units that actually invoked a detector in this run.
    pub executed_units: usize,
    /// Units served without a detector invocation — from the result
    /// store, or from a sibling stanza that already computed the same
    /// content address this run.
    pub replayed_units: usize,
}

impl SuiteOutcome {
    /// Units skipped by the schedule's wall-clock cap, across all
    /// reports.
    pub fn skipped_units(&self) -> u64 {
        self.reports.iter().map(|r| r.skipped_units()).sum()
    }

    /// The canonical `executed …, replayed …, skipped … of … unit(s) in
    /// X.Ys` summary for this run; see [`work_summary`].
    pub fn summary(&self, elapsed: Duration) -> String {
        work_summary(
            self.executed_units,
            self.replayed_units,
            self.skipped_units(),
            self.total_units,
            elapsed,
        )
    }
}

/// What one stream run did: the aggregated report plus the work
/// accounting that makes the replay guarantee checkable — a second run
/// of an unchanged stream must show `executed_units == 0`.
#[derive(Debug)]
pub struct StreamOutcome {
    /// The per-checkpoint report.
    pub report: StreamReport,
    /// Total checkpoint units in the stream.
    pub total_units: usize,
    /// Units that actually invoked a detector in this run.
    pub executed_units: usize,
    /// Units served without a detector invocation (from the result
    /// store, or deduplicated within the run).
    pub replayed_units: usize,
}

/// What a multi-stream run did; see [`Engine::run_streams`].
#[derive(Debug)]
pub struct StreamSuiteOutcome {
    /// One report per input stream, in input order.
    pub reports: Vec<StreamReport>,
    /// Total checkpoint units across all streams (duplicates counted
    /// per stream).
    pub total_units: usize,
    /// Units that actually invoked a detector in this run.
    pub executed_units: usize,
    /// Units served without a detector invocation.
    pub replayed_units: usize,
}

impl StreamSuiteOutcome {
    /// Units skipped by the schedule's wall-clock cap, across all
    /// reports.
    pub fn skipped_units(&self) -> u64 {
        self.reports.iter().map(StreamReport::skipped_units).sum()
    }

    /// The canonical work summary for this run; see [`work_summary`].
    pub fn summary(&self, elapsed: Duration) -> String {
        work_summary(
            self.executed_units,
            self.replayed_units,
            self.skipped_units(),
            self.total_units,
            elapsed,
        )
    }
}

/// Appends executed records to the result store in dispatch order,
/// whatever order the workers finish them in: unit `j`'s record waits
/// until every unit dispatched before it has been committed or skipped.
/// The store's bytes are then the same at any worker count.
struct InOrderStore {
    store: Option<ResultStore>,
    /// The next dispatch index to append.
    next: usize,
    /// Finished units beyond `next` (`None` for skipped ones).
    waiting: BTreeMap<usize, Option<UnitRecord>>,
}

impl InOrderStore {
    fn new(store: Option<ResultStore>) -> Self {
        InOrderStore {
            store,
            next: 0,
            waiting: BTreeMap::new(),
        }
    }

    /// Hands in unit `j`'s record (`None` when it was skipped) and
    /// appends every record that is now next in line.
    fn commit(&mut self, j: usize, record: Option<&UnitRecord>) {
        let Some(store) = self.store.as_mut() else {
            return;
        };
        self.waiting.insert(j, record.cloned());
        let mut ready = Vec::new();
        while let Some(record) = self.waiting.remove(&self.next) {
            ready.extend(record);
            self.next += 1;
        }
        if !ready.is_empty() {
            store
                .append(&ready)
                .expect("result store must accept appended records");
        }
    }
}

/// Splits the machine's thread budget between pool workers and
/// intra-run simulation threads (the simulator's own persistent
/// superstep pool, `congest_sim::pool`): the backend's thread count
/// (`Parallel` or `Auto`) is clamped to the machine, then the worker
/// count is reduced until `workers × sim_threads ≤ available` (both
/// stay ≥ 1). The sim-thread budget is what the backend will actually
/// use on the sweep's largest requested size, not its worst case — so
/// an `Auto` backend whose threshold no grid size reaches (every unit
/// runs sequentially, e.g. the `paper-exact` defaults) costs the pool
/// nothing. Sizes are the
/// *requested* n; families that snap sizes move them by at most a few
/// nodes, which cannot flip a threshold comparison that matters.
fn split_thread_budget(
    workers: usize,
    backend: even_cycle::Backend,
    max_size: usize,
    available: usize,
) -> (usize, even_cycle::Backend) {
    let available = available.max(1);
    let backend = backend.clamped(available);
    let sim = backend.effective_threads(max_size).max(1);
    (workers.clamp(1, (available / sim).max(1)), backend)
}

/// Executes one work unit: build (or fetch) the instance, run the
/// detector, extract the metric. `budget` is the scenario's budget
/// with the backend already split against the worker count.
#[allow(clippy::too_many_arguments)]
fn execute_unit(
    scenario: &Scenario,
    budget: &even_cycle::Budget,
    graphs: &GraphCache,
    detector: &dyn Detector,
    id: &str,
    key: &str,
    n: usize,
    seed: u64,
) -> UnitRecord {
    let g = graphs.get(&scenario.family, n, seed);
    record_detection(scenario.metric, &g, budget, detector, id, key, n, seed)
}

/// Runs one detector on one concrete graph and folds the detection into
/// a [`UnitRecord`] — the one recording path shared by static sweep
/// units (graphs from the cache), stream checkpoint units (snapshots
/// from a schedule replay), and [`serve`](crate::serve) detection
/// requests, so all three record and aggregate identically by
/// construction.
#[allow(clippy::too_many_arguments)]
pub(crate) fn record_detection(
    metric: Metric,
    g: &congest_graph::Graph,
    budget: &even_cycle::Budget,
    detector: &dyn Detector,
    id: &str,
    key: &str,
    n: usize,
    seed: u64,
) -> UnitRecord {
    let mut record = UnitRecord {
        key: key.to_string(),
        det: id.to_string(),
        n,
        seed,
        status: UnitStatus::Ok,
        node_count: g.node_count() as u64,
        value: 0.0,
        rejected: false,
        rounds: 0,
        supersteps: 0,
        messages: 0,
        words: 0,
        max_congestion: 0,
        iterations: 0,
    };
    let mut span = telemetry::Span::begin("engine.unit")
        .with("unit", key)
        .with("det", id)
        .with("n", n)
        .with("seed", seed);
    // audit:allow(R2): unit timing feeds the telemetry span and the
    // cost-model estimate refresh — never a stored or reported verdict.
    let started = Instant::now();
    match detector.detect(g, seed, budget) {
        Ok(detection) => {
            record.status = if detection.budget_exceeded() {
                UnitStatus::BudgetExceeded
            } else {
                UnitStatus::Ok
            };
            record.rejected = detection.rejected();
            record.value = metric.extract(&detection);
            record.rounds = detection.cost.rounds;
            record.supersteps = detection.cost.supersteps;
            record.messages = detection.cost.messages;
            record.words = detection.cost.words;
            record.max_congestion = detection.cost.max_congestion;
            record.iterations = detection.cost.iterations;
        }
        Err(e) => record.status = UnitStatus::Error(e.to_string()),
    }
    let metrics = engine_metrics();
    metrics.units_executed.inc();
    metrics
        .unit_ns
        .record(started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
    span.push("rounds", record.rounds);
    span.push(
        "status",
        match &record.status {
            UnitStatus::Ok => "ok",
            UnitStatus::BudgetExceeded => "budget-exceeded",
            UnitStatus::Error(_) => "error",
        },
    );
    record
}

/// Folds stream checkpoint records (in canonical checkpoint-major
/// order) into per-detector rows — sequential, one canonical f64
/// addition order, so stream reports are byte-identical across worker
/// counts and resumes, exactly like [`aggregate`] for static sweeps.
fn aggregate_stream(
    scenario: &StreamScenario,
    detectors: &[&dyn Detector],
    records: &[Option<UnitRecord>],
) -> StreamReport {
    #[derive(Default)]
    struct Cell {
        total: f64,
        ok: u64,
        rejections: u64,
    }
    #[derive(Default)]
    struct Acc {
        cells: Vec<Cell>,
        rejections: u64,
        errors: u64,
        budget_exceeded: u64,
        skipped: u64,
    }
    let checkpoints = scenario.updates.checkpoints;
    let mut accs: Vec<Acc> = detectors
        .iter()
        .map(|_| Acc {
            cells: (0..checkpoints).map(|_| Cell::default()).collect(),
            ..Default::default()
        })
        .collect();

    let dets = detectors.len();
    let per_checkpoint = scenario.seeds.len() * dets;
    for (unit, record) in records.iter().enumerate() {
        let ci = unit / per_checkpoint;
        let di = unit % dets;
        let acc = &mut accs[di];
        let Some(record) = record else {
            acc.skipped += 1;
            continue;
        };
        match &record.status {
            UnitStatus::Ok => {
                if record.rejected {
                    acc.rejections += 1;
                    acc.cells[ci].rejections += 1;
                }
                let cell = &mut acc.cells[ci];
                cell.total += scenario.metric.extract_cost(&record.cost());
                cell.ok += 1;
            }
            UnitStatus::BudgetExceeded => acc.budget_exceeded += 1,
            UnitStatus::Error(_) => acc.errors += 1,
        }
    }

    let rows = detectors
        .iter()
        .zip(accs)
        .map(|(det, acc)| {
            let descriptor = det.descriptor();
            let cells = acc
                .cells
                .iter()
                .enumerate()
                .map(|(ci, cell)| CheckpointCell {
                    checkpoint: ci,
                    updates_applied: (ci + 1) * scenario.updates.rate,
                    mean: if cell.ok > 0 {
                        cell.total / cell.ok as f64
                    } else {
                        f64::NAN
                    },
                    ok: cell.ok,
                    rejections: cell.rejections,
                })
                .collect();
            StreamRow {
                id: descriptor.id(),
                descriptor,
                cells,
                rejections: acc.rejections,
                errors: acc.errors,
                budget_exceeded: acc.budget_exceeded,
                skipped: acc.skipped,
            }
        })
        .collect();
    StreamReport {
        scenario: scenario.name.clone(),
        schedule: scenario.updates.canonical_label(),
        metric: scenario.metric,
        bandwidth: scenario.budget.bandwidth,
        n: scenario.n,
        runs_per_checkpoint: scenario.seeds.len(),
        rows,
    }
}

/// Folds unit records (in canonical order) into the per-detector rows —
/// the same arithmetic, in the same order, as the original sequential
/// runner, so reports are byte-identical across worker counts and
/// resumes. A missing record (a unit the wall-clock cap skipped) is
/// counted per row, not aggregated.
fn aggregate(
    scenario: &Scenario,
    detectors: &[&dyn Detector],
    records: &[Option<UnitRecord>],
) -> ScenarioReport {
    #[derive(Default)]
    struct Cell {
        total: f64,
        node_count: u64,
        ok: u64,
    }
    #[derive(Default)]
    struct Acc {
        cells: Vec<Cell>,
        rejections: u64,
        errors: u64,
        budget_exceeded: u64,
        skipped: u64,
    }
    let mut accs: Vec<Acc> = detectors
        .iter()
        .map(|_| Acc {
            cells: scenario.sizes.iter().map(|_| Cell::default()).collect(),
            ..Default::default()
        })
        .collect();

    let dets = detectors.len();
    let per_size = scenario.seeds.len() * dets;
    for (unit, record) in records.iter().enumerate() {
        let si = unit / per_size;
        let di = unit % dets;
        let acc = &mut accs[di];
        let Some(record) = record else {
            acc.skipped += 1;
            continue;
        };
        match &record.status {
            UnitStatus::Ok => {
                if record.rejected {
                    acc.rejections += 1;
                }
                let cell = &mut acc.cells[si];
                cell.total += scenario.metric.extract_cost(&record.cost());
                // Families snap requested sizes (primes, parity); fit
                // against the graphs actually built, not the request.
                cell.node_count += record.node_count;
                cell.ok += 1;
            }
            // A certified rejection always keeps its Reject verdict
            // through a cap (status Ok), so this arm only sees runs
            // that were genuinely cut off undecided.
            UnitStatus::BudgetExceeded => acc.budget_exceeded += 1,
            UnitStatus::Error(_) => acc.errors += 1,
        }
    }

    let rows = detectors
        .iter()
        .zip(accs)
        .map(|(det, acc)| {
            let descriptor = det.descriptor();
            let samples: Vec<(usize, f64)> = acc
                .cells
                .iter()
                .filter(|c| c.ok > 0)
                .map(|c| ((c.node_count / c.ok) as usize, c.total / c.ok as f64))
                .collect();
            let (fitted_exponent, fitted_constant) = if samples.len() >= 2
                && samples.iter().all(|&(_, v)| v > 0.0)
            {
                let pairs: Vec<(f64, f64)> = samples.iter().map(|&(n, v)| (n as f64, v)).collect();
                fit_exponent(&pairs)
            } else {
                (f64::NAN, f64::NAN)
            };
            ScenarioRow {
                id: descriptor.id(),
                descriptor,
                samples,
                fitted_exponent,
                fitted_constant,
                rejections: acc.rejections,
                errors: acc.errors,
                budget_exceeded: acc.budget_exceeded,
                skipped: acc.skipped,
            }
        })
        .collect();
    ScenarioReport {
        scenario: scenario.name.clone(),
        family: scenario.family.name().to_string(),
        metric: scenario.metric,
        bandwidth: scenario.budget.bandwidth,
        runs_per_size: scenario.seeds.len(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{GraphFamily, Metric};
    use even_cycle::{Backend, CycleDetector, Params};

    #[test]
    fn thread_budget_split_never_oversubscribes() {
        // Auto backends as hosts with 1, 2, 8 and 64 cores resolve
        // them, so the split is checked independently of this host.
        let threshold = Backend::DEFAULT_AUTO_NODE_THRESHOLD;
        let auto = |threads| Backend::Auto {
            node_threshold: threshold,
            threads,
        };
        let mut cases = vec![
            (8, Backend::Sequential, 64, 4),
            (8, Backend::Parallel { threads: 2 }, 64, 4),
            (8, Backend::Parallel { threads: 16 }, 64, 4),
            (1, Backend::Parallel { threads: 3 }, 64, 8),
        ];
        for host in [1, 2, 8, 64] {
            for avail in [1, 2, 4, 8] {
                cases.push((3, auto(host), 64, avail));
                cases.push((3, auto(host), 1_000_000, avail));
            }
        }
        for (workers, backend, max_size, avail) in cases {
            let (w, b) = split_thread_budget(workers, backend, max_size, avail);
            assert!(w >= 1);
            assert!(
                w * b.effective_threads(max_size) <= avail.max(1),
                "({workers}, {backend:?}, {max_size}, {avail}) -> ({w}, {b:?}) oversubscribes"
            );
        }
        // Sequential backends leave the worker budget alone.
        assert_eq!(
            split_thread_budget(6, Backend::Sequential, 64, 8),
            (6, Backend::Sequential)
        );
        // An Auto backend below its threshold runs every unit
        // sequentially, so it must not cost the pool anything (the
        // paper-exact default grid tops out far below the threshold).
        for host in [1, 2, 8, 64] {
            assert_eq!(split_thread_budget(6, auto(host), threshold - 1, 8).0, 6);
        }
        // At or above the threshold it budgets for the parallel flip,
        // with its resolved threads clamped to the machine.
        assert_eq!(split_thread_budget(6, auto(4), threshold, 8), (2, auto(4)));
        assert_eq!(split_thread_budget(6, auto(64), threshold, 8), (1, auto(8)));
        // An explicit per-run thread count is clamped to the machine.
        let (w, b) = split_thread_budget(4, Backend::Parallel { threads: 64 }, 64, 4);
        assert_eq!(b, Backend::Parallel { threads: 4 });
        assert_eq!(w, 1);
    }

    #[test]
    fn backend_choice_cannot_move_the_report() {
        let det = CycleDetector::new(Params::practical(2).with_repetitions(2));
        let dets: Vec<&dyn Detector> = vec![&det];
        let scenario = |backend: Backend| {
            Scenario::new("backend smoke", GraphFamily::planted_cycle(4))
                .sizes(&[24, 32])
                .seeds(0..2)
                .metric(Metric::Rounds)
                .budget(even_cycle::Budget::classical().with_backend(backend))
        };
        let seq = Engine::from_env().run(&scenario(Backend::Sequential), &dets);
        for backend in [
            Backend::Parallel { threads: 2 },
            Backend::Parallel { threads: 4 },
            Backend::Auto {
                node_threshold: 1,
                threads: 2,
            },
        ] {
            let par = Engine::from_env().run(&scenario(backend), &dets);
            assert_eq!(seq.to_json(), par.to_json(), "{backend}");
        }
    }

    #[test]
    fn store_bytes_match_across_worker_counts() {
        let det = CycleDetector::new(Params::practical(2).with_repetitions(2));
        let dets: Vec<&dyn Detector> = vec![&det];
        let base = std::env::temp_dir().join(format!("ec-store-order-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let store = |workers: usize| {
            let dir = base.join(workers.to_string());
            Scenario::new("store order", GraphFamily::planted_cycle(4))
                .sizes(&[16, 24, 32])
                .seeds(0..4)
                .workers(workers)
                .metric(Metric::Rounds)
                .store(&dir)
                .run(&dets);
            std::fs::read(dir.join("units-v2.jsonl")).expect("store file")
        };
        let sequential = store(1);
        assert_eq!(sequential, store(2));
        assert_eq!(sequential, store(4));
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn worker_counts_agree() {
        let det = CycleDetector::new(Params::practical(2).with_repetitions(2));
        let scenario = Scenario::new("pool smoke", GraphFamily::planted_cycle(4))
            .sizes(&[24, 32])
            .seeds(0..2)
            .metric(Metric::Rounds);
        let dets: Vec<&dyn Detector> = vec![&det];
        let seq = Engine::from_env().with_workers(1).run(&scenario, &dets);
        let par = Engine::from_env().with_workers(4).run(&scenario, &dets);
        assert_eq!(seq.to_json(), par.to_json());
    }
}
