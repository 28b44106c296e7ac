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
//! Static sweeps ([`Engine::run_suite`]) and update streams
//! ([`Engine::run_streams`], whose matrix is `checkpoints × seeds ×
//! detectors`) run through one pass: the thread split, store replay,
//! deduplication, dispatch order, wall-clock cap, in-order commit and
//! merge above are the same code for both. Each front end says only
//! how it keys a unit, where its graphs come from (the evicting
//! [`cache::GraphCache`], or checkpoint snapshots replayed once per
//! stream and seed), and how its records fold into a report (through
//! one per-detector tally).
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

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use congest_graph::Graph;
use congest_telemetry as telemetry;
use even_cycle::theory::fit_exponent;
use even_cycle::{Budget, Detector};

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
        let family_keys: Vec<String> = items.iter().map(|(s, _)| s.family.store_key()).collect();
        let plan: Vec<Item> = items
            .iter()
            .map(|&(s, detectors)| Item {
                detectors,
                budget: &s.budget,
                metric: s.metric,
                cells: s
                    .sizes
                    .iter()
                    .flat_map(|&n| s.seeds.iter().map(move |&seed| Cell::new(n, seed, 0)))
                    .collect(),
            })
            .collect();
        self.run_pass(
            &plan,
            |i, cell, id, config| {
                let budget = &items[i].0.budget;
                store::canonical_unit(&family_keys[i], cell.n, cell.seed, id, config, budget)
            },
            |todo| {
                // Per-instance refcounts let the shared cache evict each
                // (family, n, seed) when its last queued unit completes.
                let mut pending: BTreeMap<cache::InstanceKey, usize> = BTreeMap::new();
                for t in todo {
                    let instance = (family_keys[t.item].clone(), t.cell.n, t.cell.seed);
                    *pending.entry(instance).or_insert(0) += 1;
                }
                let cache = GraphCache::new();
                cache.expect_pending(&pending);
                Instances {
                    cache,
                    items,
                    family_keys: &family_keys,
                }
            },
            |i, records| aggregate(items[i].0, items[i].1, records),
        )
    }

    /// Replays one [`StreamScenario`] and runs every detector at every
    /// checkpoint; see [`Engine::run_streams`] for the execution and
    /// replay semantics.
    pub fn run_stream(
        &self,
        scenario: &StreamScenario,
        detectors: &[&dyn Detector],
    ) -> StreamOutcome {
        let mut suite = self.run_streams(&[(scenario, detectors)]);
        StreamOutcome {
            report: suite.reports.pop().expect("one stream in, one report out"),
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
        let schedule_keys: Vec<String> = items
            .iter()
            .map(|(s, _)| s.updates.fingerprint_hex())
            .collect();
        let plan: Vec<Item> = items
            .iter()
            .map(|&(s, detectors)| Item {
                detectors,
                budget: &s.budget,
                metric: s.metric,
                cells: (0..s.updates.checkpoints)
                    .flat_map(|ci| s.seeds.iter().map(move |&seed| Cell::new(s.n, seed, ci)))
                    .collect(),
            })
            .collect();
        self.run_pass(
            &plan,
            |i, cell, id, config| {
                let (key, budget) = (&schedule_keys[i], &items[i].0.budget);
                store::canonical_stream_unit(
                    key,
                    cell.checkpoint,
                    cell.n,
                    cell.seed,
                    id,
                    config,
                    budget,
                )
            },
            |todo| replay_snapshots(items, todo),
            |i, records| aggregate_stream(items[i].0, items[i].1, records),
        )
    }

    /// The one pass behind [`Engine::run_suite`] and
    /// [`Engine::run_streams`]: `key` renders the canonical identity of
    /// item `i`'s unit `(cell, detector id, detector config)`, `graphs`
    /// prepares the graphs of the units the store cannot replay, and
    /// `report` folds item `i`'s records, in canonical order, into its
    /// report.
    fn run_pass<G: Graphs, R>(
        &self,
        items: &[Item<'_>],
        key: impl Fn(usize, Cell, &str, &str) -> String,
        graphs: impl FnOnce(&[Todo]) -> G,
        report: impl Fn(usize, &[Option<UnitRecord>]) -> R,
    ) -> Outcome<R> {
        // Split the machine's thread budget between pool workers and
        // the intra-run simulation threads of each item's backend, so a
        // parallel sweep of parallel simulations never oversubscribes
        // (workers × sim_threads ≤ available parallelism). All items
        // share one pool, so the worker count is the tightest item's
        // split. Backends do not change results — transcripts are
        // byte-identical — so no clamp can move a report.
        let available = std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1);
        let mut workers = self.workers.max(1);
        let budgets: Vec<Budget> = items
            .iter()
            .map(|item| {
                let max_size = item.cells.iter().map(|c| c.n).max().unwrap_or(0);
                let (w, backend) =
                    split_thread_budget(self.workers, item.budget.backend, max_size, available);
                workers = workers.min(w);
                item.budget.clone().with_backend(backend)
            })
            .collect();

        let mut store = self
            .store_dir
            .as_ref()
            .map(|dir| ResultStore::open(dir).expect("result store must be writable"));

        // Flatten every item's units in canonical order, content-address
        // every unit, and queue only the units the store cannot replay —
        // deduplicated across items, so a cell two items share executes
        // once.
        let mut ids: Vec<Vec<String>> = Vec::with_capacity(items.len());
        let mut keys: Vec<Vec<String>> = Vec::with_capacity(items.len());
        let mut todo: Vec<Todo> = Vec::new();
        let mut claimed: HashSet<String> = HashSet::new();
        let mut total_units = 0usize;
        for (i, item) in items.iter().enumerate() {
            let dets = item.detectors;
            let item_ids: Vec<String> = dets.iter().map(|d| d.descriptor().id()).collect();
            let configs: Vec<String> = dets.iter().map(|d| d.config_fingerprint()).collect();
            let exponents: Vec<f64> = dets.iter().map(|d| d.descriptor().exponent).collect();
            let mut item_keys: Vec<String> = Vec::with_capacity(item.cells.len() * dets.len());
            for &cell in &item.cells {
                for (det, id) in item_ids.iter().enumerate() {
                    let unit = store::unit_key(&key(i, cell, id, &configs[det]));
                    let stored = store
                        .as_ref()
                        .and_then(|s| s.replay(&unit, id, cell.n, cell.seed))
                        .is_some();
                    if !stored && claimed.insert(unit.clone()) {
                        todo.push(Todo {
                            item: i,
                            det,
                            cell,
                            key: unit.clone(),
                            order: total_units + item_keys.len(),
                            estimate: schedule::estimate_cost(cell.n, exponents[det]),
                        });
                    }
                    item_keys.push(unit);
                }
            }
            total_units += item_keys.len();
            ids.push(item_ids);
            keys.push(item_keys);
        }

        // Dispatch order per the schedule, across all items. Reports
        // fold records in canonical unit order regardless, so they do
        // not depend on this — only *which* units finish under a cap
        // does.
        if self.schedule.order == ScheduleOrder::CheapestFirst {
            todo.sort_by(|a, b| {
                a.estimate
                    .total_cmp(&b.estimate)
                    .then(a.order.cmp(&b.order))
            });
        }
        let graphs = graphs(&todo);

        // Workers commit each record as it completes (see
        // `InOrderStore`), so a killed or wall-clock-capped run keeps
        // every unit up to the first unfinished one and the next run
        // resumes from there.
        // audit:allow(R2): schedule-cap enforcement — the deadline decides
        // *whether* a unit runs (skipped units resume later), never what any
        // executed unit computes.
        let deadline = self.schedule.wall_clock_cap.map(|cap| Instant::now() + cap);
        let shared_store = Mutex::new(InOrderStore::new(store.take()));
        let fresh: Vec<Option<UnitRecord>> = pool::run_indexed(todo.len(), workers, |j| {
            let t = &todo[j];
            let item = &items[t.item];
            // audit:allow(R2): same cap probe as above — gating only.
            let record = if deadline.is_some_and(|d| Instant::now() >= d) {
                engine_metrics().deadline_skips.inc();
                None
            } else {
                let g = graphs.get(t.item, t.cell);
                Some(record_detection(
                    item.metric,
                    &g,
                    &budgets[t.item],
                    item.detectors[t.det],
                    &ids[t.item][t.det],
                    &t.key,
                    t.cell.n,
                    t.cell.seed,
                ))
            };
            // A skipped unit releases its graph too, so eviction stays
            // exact.
            graphs.release(t.item, t.cell);
            shared_store
                .lock()
                .expect("a worker panicked while committing")
                .commit(j, record.as_ref());
            record
        });
        let store = shared_store
            .into_inner()
            .expect("a worker panicked while committing")
            .store;

        // Merge fresh and stored records back into each item's
        // canonical order, then fold each item sequentially (one
        // canonical f64 addition order per item). Units skipped by the
        // wall-clock cap stay `None`.
        let by_key: HashMap<&str, &UnitRecord> = fresh
            .iter()
            .flatten()
            .map(|record| (record.key.as_str(), record))
            .collect();
        let executed_units = by_key.len();
        let mut skipped_units = 0;
        let reports: Vec<R> = keys
            .iter()
            .enumerate()
            .map(|(i, keys)| {
                let records: Vec<Option<UnitRecord>> = keys
                    .iter()
                    .map(|key| {
                        by_key
                            .get(key.as_str())
                            .copied()
                            .or_else(|| store.as_ref().and_then(|s| s.get(key)))
                            .cloned()
                    })
                    .collect();
                skipped_units += records.iter().filter(|r| r.is_none()).count();
                report(i, &records)
            })
            .collect();
        let replayed_units = total_units - executed_units - skipped_units;
        engine_metrics().units_replayed.add(replayed_units as u64);
        Outcome {
            reports,
            total_units,
            executed_units,
            replayed_units,
            skipped_units,
        }
    }
}

/// One scenario or stream as [`Engine::run_pass`] sees it: its
/// detectors, budget and metric, and the instances it runs every
/// detector on, in the front end's canonical order.
struct Item<'a> {
    detectors: &'a [&'a dyn Detector],
    budget: &'a Budget,
    metric: Metric,
    cells: Vec<Cell>,
}

/// One instance of an item: the requested size and the seed, plus the
/// checkpoint for stream units (0 for sweep units).
#[derive(Debug, Clone, Copy)]
struct Cell {
    n: usize,
    seed: u64,
    checkpoint: usize,
}

impl Cell {
    fn new(n: usize, seed: u64, checkpoint: usize) -> Cell {
        Cell {
            n,
            seed,
            checkpoint,
        }
    }
}

/// A unit the store cannot replay, queued for the pool.
struct Todo {
    item: usize,
    det: usize,
    cell: Cell,
    key: String,
    /// The unit's position in the flattened canonical order (the
    /// cheapest-first tie-break).
    order: usize,
    estimate: f64,
}

/// Where [`Engine::run_pass`] gets the graph each queued unit runs on.
trait Graphs: Sync {
    /// The graph of item `item`'s instance `cell`.
    fn get(&self, item: usize, cell: Cell) -> Arc<Graph>;

    /// Called once per queued unit, after it ran or was skipped.
    fn release(&self, _item: usize, _cell: Cell) {}
}

/// Sweep graphs: built once per `(family, n, seed)` by the shared cache
/// and evicted when the last queued unit of the instance releases it.
struct Instances<'a> {
    cache: GraphCache,
    items: &'a [(&'a Scenario, &'a [&'a dyn Detector])],
    family_keys: &'a [String],
}

impl Graphs for Instances<'_> {
    fn get(&self, item: usize, cell: Cell) -> Arc<Graph> {
        self.cache
            .get(&self.items[item].0.family, cell.n, cell.seed)
    }

    fn release(&self, item: usize, cell: Cell) {
        self.cache
            .release(&self.family_keys[item], cell.n, cell.seed);
    }
}

/// Stream graphs: the checkpoint snapshots, keyed by `(item, seed,
/// checkpoint)`.
type Snapshots = HashMap<(usize, u64, usize), Arc<Graph>>;

impl Graphs for Snapshots {
    fn get(&self, item: usize, cell: Cell) -> Arc<Graph> {
        Arc::clone(&self[&(item, cell.seed, cell.checkpoint)])
    }
}

/// Materializes only the snapshots that queued units need: one
/// sequential replay per (stream, seed) with queued work, stopped at
/// its last needed checkpoint. Fully stored seeds are never replayed.
fn replay_snapshots(items: &[(&StreamScenario, &[&dyn Detector])], todo: &[Todo]) -> Snapshots {
    let mut needed: BTreeMap<(usize, u64), BTreeSet<usize>> = BTreeMap::new();
    for t in todo {
        needed
            .entry((t.item, t.cell.seed))
            .or_default()
            .insert(t.cell.checkpoint);
    }
    let mut snapshots = Snapshots::new();
    for (&(item, seed), checkpoints) in &needed {
        let scenario = items[item].0;
        let last = *checkpoints.iter().next_back().expect("non-empty set");
        engine_metrics().stream_replays.inc();
        let _replay_span = telemetry::Span::begin("engine.stream.replay")
            .with("n", scenario.n)
            .with("seed", seed)
            .with("checkpoints", checkpoints.len());
        let mut replay = scenario.updates.replay(scenario.n, seed);
        while let Some((ci, snapshot)) = replay.next_checkpoint() {
            if checkpoints.contains(&ci) {
                snapshots.insert((item, seed, ci), Arc::new(snapshot));
            }
            if ci == last {
                break;
            }
        }
    }
    snapshots
}

/// What a run did: one report per input scenario or stream plus the
/// shared engine's work accounting — the replay guarantee made visible
/// (a second run of an unchanged suite must show `executed_units == 0`).
#[derive(Debug)]
pub struct Outcome<R> {
    /// One report per input item, in input order.
    pub reports: Vec<R>,
    /// Total work units across all items (duplicates counted per item).
    pub total_units: usize,
    /// Units that actually invoked a detector in this run.
    pub executed_units: usize,
    /// Units served without a detector invocation — from the result
    /// store, or from a sibling item that already computed the same
    /// content address this run.
    pub replayed_units: usize,
    /// Units skipped by the schedule's wall-clock cap, across all
    /// reports.
    pub skipped_units: usize,
}

/// What a suite run did; see [`Engine::run_suite`].
pub type SuiteOutcome = Outcome<ScenarioReport>;

/// What a multi-stream run did; see [`Engine::run_streams`].
pub type StreamSuiteOutcome = Outcome<StreamReport>;

impl<R> Outcome<R> {
    /// The canonical `executed E, replayed R, skipped S of T unit(s) in
    /// X.Ys` summary the `sweep` bin prints to stderr.
    pub fn summary(&self, elapsed: Duration) -> String {
        format!(
            "executed {}, replayed {}, skipped {} of {} unit(s) in {:.1}s",
            self.executed_units,
            self.replayed_units,
            self.skipped_units,
            self.total_units,
            elapsed.as_secs_f64()
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

/// One detector's fold of its records: per-group sums (a group is a
/// sweep's size rung or a stream's checkpoint) and the verdict counts
/// every report row carries.
#[derive(Default)]
struct Tally {
    groups: Vec<Group>,
    rejections: u64,
    errors: u64,
    budget_exceeded: u64,
    skipped: u64,
}

/// The runs of one detector in one group that completed OK.
#[derive(Default, Clone)]
struct Group {
    total: f64,
    node_count: u64,
    ok: u64,
    rejections: u64,
}

/// Folds one item's records (in canonical order: group-major, then
/// seed, then detector) into one [`Tally`] per detector — the same
/// arithmetic, in the same order, whatever the worker count or resume
/// history, so reports are byte-identical. A missing record (a unit
/// the wall-clock cap skipped) is counted, not aggregated.
fn tally(
    metric: Metric,
    records: &[Option<UnitRecord>],
    groups: usize,
    detectors: usize,
) -> Vec<Tally> {
    let mut tallies: Vec<Tally> = (0..detectors)
        .map(|_| Tally {
            groups: vec![Group::default(); groups],
            ..Tally::default()
        })
        .collect();
    let per_group = records.len() / groups.max(1);
    for (unit, record) in records.iter().enumerate() {
        let tally = &mut tallies[unit % detectors];
        let Some(record) = record else {
            tally.skipped += 1;
            continue;
        };
        match &record.status {
            UnitStatus::Ok => {
                let group = &mut tally.groups[unit / per_group];
                group.total += metric.extract_cost(&record.cost());
                // Families snap requested sizes (primes, parity); fit
                // against the graphs actually built, not the request.
                group.node_count += record.node_count;
                group.ok += 1;
                if record.rejected {
                    tally.rejections += 1;
                    group.rejections += 1;
                }
            }
            // A certified rejection always keeps its Reject verdict
            // through a cap (status Ok), so this arm only sees runs
            // that were genuinely cut off undecided.
            UnitStatus::BudgetExceeded => tally.budget_exceeded += 1,
            UnitStatus::Error(_) => tally.errors += 1,
        }
    }
    tallies
}

/// Folds a sweep's records into its per-detector rows: per-size means
/// and the fitted scaling exponent.
fn aggregate(
    scenario: &Scenario,
    detectors: &[&dyn Detector],
    records: &[Option<UnitRecord>],
) -> ScenarioReport {
    let tallies = tally(
        scenario.metric,
        records,
        scenario.sizes.len(),
        detectors.len(),
    );
    let rows = detectors
        .iter()
        .zip(tallies)
        .map(|(det, t)| {
            let descriptor = det.descriptor();
            let samples: Vec<(usize, f64)> = t
                .groups
                .iter()
                .filter(|g| g.ok > 0)
                .map(|g| ((g.node_count / g.ok) as usize, g.total / g.ok as f64))
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
                rejections: t.rejections,
                errors: t.errors,
                budget_exceeded: t.budget_exceeded,
                skipped: t.skipped,
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

/// Folds a stream's records into its per-detector rows: one cell per
/// checkpoint.
fn aggregate_stream(
    scenario: &StreamScenario,
    detectors: &[&dyn Detector],
    records: &[Option<UnitRecord>],
) -> StreamReport {
    let checkpoints = scenario.updates.checkpoints;
    let tallies = tally(scenario.metric, records, checkpoints, detectors.len());
    let rows = detectors
        .iter()
        .zip(tallies)
        .map(|(det, t)| {
            let descriptor = det.descriptor();
            let cells = t
                .groups
                .iter()
                .enumerate()
                .map(|(ci, g)| CheckpointCell {
                    checkpoint: ci,
                    updates_applied: (ci + 1) * scenario.updates.rate,
                    mean: if g.ok > 0 {
                        g.total / g.ok as f64
                    } else {
                        f64::NAN
                    },
                    ok: g.ok,
                    rejections: g.rejections,
                })
                .collect();
            StreamRow {
                id: descriptor.id(),
                descriptor,
                cells,
                rejections: t.rejections,
                errors: t.errors,
                budget_exceeded: t.budget_exceeded,
                skipped: t.skipped,
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
        let schedule =
            congest_graph::UpdateSchedule::parse("planted:4@rate=5,mix=0.7,checkpoints=3").unwrap();
        let store = |workers: usize| {
            let dir = base.join(workers.to_string());
            Scenario::new("store order", GraphFamily::planted_cycle(4))
                .sizes(&[16, 24, 32])
                .seeds(0..4)
                .workers(workers)
                .metric(Metric::Rounds)
                .store(&dir)
                .run(&dets);
            StreamScenario::new("store order", schedule.clone())
                .n(32)
                .seeds(0..3)
                .workers(workers)
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
