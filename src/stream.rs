//! Streaming scenarios: replay an [`UpdateSchedule`] and ask detectors
//! for a verdict at every checkpoint.
//!
//! A [`StreamScenario`] is the dynamic-graph sibling of
//! [`Scenario`](crate::scenario::Scenario): where a static scenario
//! sweeps `sizes × seeds × detectors`, a stream sweeps `checkpoints ×
//! seeds × detectors` over the snapshots of a seeded edge-update
//! replay. Execution is delegated to the engine
//! ([`Engine::run_stream`](crate::engine::Engine::run_stream)), whose
//! one pass runs static sweeps too: the same worker pool, store
//! replay, deduplication, schedule, wall-clock cap and in-order commit.
//! Every checkpoint verdict is a content-addressed work unit keyed by
//! `(schedule fingerprint, checkpoint index, n, seed, detector,
//! budget)`, so re-running an unchanged stream resolves every unit from
//! the result store with **zero** detector invocations, and editing any
//! schedule parameter moves every affected key. Only the stream's own
//! parts differ from a sweep: the unit key, the checkpoint snapshots
//! (replayed once per seed that has a missing unit), and the
//! per-checkpoint report.
//!
//! ```
//! use even_cycle_congest::stream::StreamScenario;
//! use even_cycle_congest::cycle::{CycleDetector, Params};
//! use congest_graph::UpdateSchedule;
//!
//! let schedule = UpdateSchedule::parse("planted:4@rate=6,mix=0.7,checkpoints=2").unwrap();
//! let scenario = StreamScenario::new("stream smoke", schedule).n(32).seeds(0..2);
//! let det = CycleDetector::new(Params::practical(2).with_repetitions(2));
//! let outcome = scenario.run(&[&det]);
//! assert_eq!(outcome.report.rows.len(), 1);
//! assert_eq!(outcome.report.rows[0].cells.len(), 2);
//! ```

use std::path::PathBuf;

use congest_graph::UpdateSchedule;
use congest_telemetry::json_escape;
use even_cycle::{Budget, Descriptor, Detector};

use crate::engine::store::{append_line, json_f64};
use crate::engine::{Engine, Schedule, StreamOutcome};
use crate::scenario::{IntoSeeds, Metric};

/// A declarative streaming measurement: update schedule × instance size
/// × seeds × budget × metric, plus the execution knobs (worker count,
/// result store, engine schedule) the engine honors.
#[derive(Debug, Clone)]
pub struct StreamScenario {
    pub(crate) name: String,
    pub(crate) updates: UpdateSchedule,
    pub(crate) n: usize,
    pub(crate) seeds: Vec<u64>,
    pub(crate) budget: Budget,
    pub(crate) metric: Metric,
    pub(crate) workers: Option<usize>,
    pub(crate) store: Option<PathBuf>,
    pub(crate) schedule: Option<Schedule>,
}

impl StreamScenario {
    /// Creates a streaming scenario with defaults: `n = 64`, seeds
    /// `0..3`, classical budget, [`Metric::Rounds`].
    pub fn new(name: impl Into<String>, updates: UpdateSchedule) -> Self {
        StreamScenario {
            name: name.into(),
            updates,
            n: 64,
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

    /// The replayed update schedule.
    pub fn updates(&self) -> &UpdateSchedule {
        &self.updates
    }

    /// The requested instance size.
    pub fn size(&self) -> usize {
        self.n
    }

    /// The configured seed sweep.
    pub fn seeds_configured(&self) -> &[u64] {
        &self.seeds
    }

    /// Sets the requested instance size of the base graph.
    pub fn n(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Sets the seed sweep; per-checkpoint values average over it.
    pub fn seeds(mut self, seeds: impl IntoSeeds) -> Self {
        let seeds = seeds.into_seeds();
        assert!(!seeds.is_empty(), "need at least one seed");
        self.seeds = seeds;
        self
    }

    /// Sets the resource budget every checkpoint verdict runs under.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the extracted metric.
    pub fn metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Sets the worker-thread count (default: `EVEN_CYCLE_WORKERS`,
    /// else 1). Any worker count produces byte-identical reports.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        self.workers = Some(workers);
        self
    }

    /// Persists every checkpoint unit to the content-addressed result
    /// store under `dir` and resumes from it: an unchanged stream
    /// replays entirely, an extended one (more seeds, more detectors)
    /// executes only the new cells.
    pub fn store(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store = Some(dir.into());
        self
    }

    /// Sets the engine scheduling policy (dispatch order and optional
    /// wall-clock cap — see [`Schedule`]).
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Replays the stream and runs every detector at every checkpoint
    /// on the experiment engine (honoring the scenario's worker, store,
    /// and schedule knobs).
    pub fn run(&self, detectors: &[&dyn Detector]) -> StreamOutcome {
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
        engine.run_stream(self, detectors)
    }

    /// Runs every entry of a registry through the stream.
    pub fn run_registry(&self, registry: &crate::registry::DetectorRegistry) -> StreamOutcome {
        let dets: Vec<&dyn Detector> = registry.iter().map(|e| e.detector.as_ref()).collect();
        self.run(&dets)
    }
}

/// One detector's verdict statistics at one checkpoint, averaged over
/// the seed sweep.
#[derive(Debug, Clone)]
pub struct CheckpointCell {
    /// 0-based checkpoint index.
    pub checkpoint: usize,
    /// Updates applied to the base graph when this checkpoint fired.
    pub updates_applied: usize,
    /// Mean metric value over the seeds that completed OK (NaN when
    /// none did).
    pub mean: f64,
    /// Seeds that completed OK at this checkpoint.
    pub ok: u64,
    /// Rejections (cycle found) at this checkpoint across seeds.
    pub rejections: u64,
}

/// One detector's measured series across the stream's checkpoints.
#[derive(Debug, Clone)]
pub struct StreamRow {
    /// The registry-style identifier.
    pub id: String,
    /// The algorithm's metadata.
    pub descriptor: Descriptor,
    /// One cell per checkpoint, in stream order.
    pub cells: Vec<CheckpointCell>,
    /// Rejecting runs across the whole stream.
    pub rejections: u64,
    /// Runs that returned a simulator error (excluded from means).
    pub errors: u64,
    /// Runs aborted by a [`Budget`] cap (excluded from means).
    pub budget_exceeded: u64,
    /// Units never dispatched because the engine schedule's wall-clock
    /// cap elapsed first (resumable from the result store).
    pub skipped: u64,
}

/// The aggregated result of one stream run.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Scenario name.
    pub scenario: String,
    /// The schedule's canonical label.
    pub schedule: String,
    /// The metric measured.
    pub metric: Metric,
    /// The bandwidth the budget charged.
    pub bandwidth: u64,
    /// Requested base-instance size.
    pub n: usize,
    /// Seeds averaged per checkpoint.
    pub runs_per_checkpoint: usize,
    /// One row per detector.
    pub rows: Vec<StreamRow>,
}

impl StreamReport {
    /// Total units skipped across all rows by the engine schedule's
    /// wall-clock cap (0 for an uncapped or finished stream).
    pub fn skipped_units(&self) -> u64 {
        self.rows.iter().map(|r| r.skipped).sum()
    }

    /// Renders an aligned text block: one line per detector, then the
    /// per-checkpoint means.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== stream: {} — {} of {} at n = {} (B = {}, {} seeds/checkpoint) ==\n",
            self.scenario,
            self.metric.label(),
            self.schedule,
            self.n,
            self.bandwidth,
            self.runs_per_checkpoint,
        );
        for row in &self.rows {
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
                "{:<44} rejections {}  errors {}{}{}\n",
                row.id, row.rejections, row.errors, capped, skipped
            ));
            for cell in &row.cells {
                out.push_str(&format!(
                    "    checkpoint {:>3} (after {:>5} updates)  ->  {:>14.1}  (rejects {}/{})\n",
                    cell.checkpoint, cell.updates_applied, cell.mean, cell.rejections, cell.ok
                ));
            }
        }
        out
    }

    /// Serializes the whole report as one JSON object (single line —
    /// suitable for JSONL streams). Non-finite means serialize as
    /// `null`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"scenario\":\"{}\",\"schedule\":\"{}\",\"metric\":\"{}\",\"bandwidth\":{},\"n\":{},\"runs_per_checkpoint\":{},\"rows\":[",
            json_escape(&self.scenario),
            json_escape(&self.schedule),
            json_escape(self.metric.label()),
            self.bandwidth,
            self.n,
            self.runs_per_checkpoint,
        );
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":\"{}\",\"rejections\":{},\"errors\":{},\"budget_exceeded\":{},\"skipped\":{},\"checkpoints\":[",
                json_escape(&row.id),
                row.rejections,
                row.errors,
                row.budget_exceeded,
                row.skipped,
            ));
            for (j, cell) in row.cells.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"checkpoint\":{},\"updates\":{},\"mean\":{},\"ok\":{},\"rejections\":{}}}",
                    cell.checkpoint,
                    cell.updates_applied,
                    json_f64(cell.mean),
                    cell.ok,
                    cell.rejections,
                ));
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

    fn schedule() -> UpdateSchedule {
        UpdateSchedule::parse("planted:4@rate=5,mix=0.7,checkpoints=3").unwrap()
    }

    #[test]
    fn stream_runs_and_reports_every_checkpoint() {
        let det = CycleDetector::new(Params::practical(2).with_repetitions(2));
        let outcome = StreamScenario::new("smoke", schedule())
            .n(32)
            .seeds(0..2)
            .run(&[&det]);
        assert_eq!(outcome.total_units, 3 * 2);
        assert_eq!(outcome.executed_units, 6, "no store: everything executes");
        let report = &outcome.report;
        assert_eq!(report.rows.len(), 1);
        let row = &report.rows[0];
        assert_eq!(row.cells.len(), 3);
        for (i, cell) in row.cells.iter().enumerate() {
            assert_eq!(cell.checkpoint, i);
            assert_eq!(cell.updates_applied, (i + 1) * 5);
            assert_eq!(cell.ok, 2);
        }
        assert!(report.render().contains("checkpoint"));
    }

    #[test]
    fn stream_reports_are_worker_count_invariant() {
        let det = CycleDetector::new(Params::practical(2).with_repetitions(2));
        let base = StreamScenario::new("workers", schedule()).n(32).seeds(0..2);
        let seq = base.clone().workers(1).run(&[&det]);
        let par = base.workers(4).run(&[&det]);
        assert_eq!(seq.report.to_json(), par.report.to_json());
    }

    #[test]
    fn stream_json_is_one_line_and_carries_the_schedule() {
        let det = CycleDetector::new(Params::practical(2).with_repetitions(2));
        let outcome = StreamScenario::new("json", schedule())
            .n(24)
            .seeds(0..1)
            .run(&[&det]);
        let json = outcome.report.to_json();
        assert!(!json.contains('\n'));
        assert!(json.contains("\"schedule\":\"planted:4@rate=5,mix=0.7,checkpoints=3\""));
        assert!(json.contains("\"checkpoints\":[{"));
    }
}
