//! The traced run's in-memory recorder and the span queries the
//! per-layer numbers are computed from.
//!
//! The recorder keeps every span (name, thread, interval, and the one
//! argument that labels it) and only counts the other events: the
//! simulator's per-round instants would otherwise dominate memory.
//! It is installed for the traced run only, so end-to-end numbers never
//! pay for it.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

use even_cycle_congest::telemetry::{self, ArgValue, Event, Recorder};

use crate::stats::{self, Interval};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Span name (`engine.unit`, `sim.run`, ...).
    pub name: &'static str,
    /// Thread and interval.
    pub at: Interval,
    /// The labelling argument: the detector id of an `engine.unit`, the
    /// op of a `serve.op`, the label of a benchmark span.
    pub label: String,
}

/// Collects spans in memory and counts every event by name.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    spans: Mutex<Vec<SpanRec>>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

const POISONED: &str = "recorder mutex poisoned: a recording thread panicked";

// A recorder must never panic (it runs inside the simulator and the
// server's connection threads), so a poisoned lock is recovered: every
// update below is a single push or increment.
impl Recorder for MemoryRecorder {
    fn record(&self, event: &Event) {
        let name = match event {
            Event::Counter { name, .. } | Event::Gauge { name, .. } => *name,
            Event::Instant { name, .. } => *name,
            Event::Span {
                name,
                ts_us,
                dur_us,
                tid,
                args,
            } => {
                let label = args
                    .iter()
                    .find(|(key, _)| matches!(*key, "det" | "request_op" | "label"))
                    .map(|(_, value)| match value {
                        ArgValue::Str(s) => s.clone(),
                        other => other.to_json(),
                    })
                    .unwrap_or_default();
                let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
                spans.push(SpanRec {
                    name,
                    at: Interval {
                        tid: *tid,
                        start_us: *ts_us,
                        dur_us: *dur_us,
                    },
                    label,
                });
                name
            }
        };
        let mut counts = self.counts.lock().unwrap_or_else(|e| e.into_inner());
        *counts.entry(name).or_insert(0) += 1;
    }
}

/// The current value of an always-on registry counter.
pub fn counter(name: &'static str) -> u64 {
    telemetry::Registry::global().counter(name).value()
}

/// Values of a fixed set of registry counters at one moment; the
/// difference of two readings is what a section of the run did.
pub struct Counters(Vec<(&'static str, u64)>);

impl Counters {
    /// Reads `names` now.
    pub fn read(names: &[&'static str]) -> Counters {
        Counters(names.iter().map(|&n| (n, counter(n))).collect())
    }

    /// How much counter `name` grew since this reading.
    ///
    /// # Panics
    ///
    /// Panics if `name` was not part of the reading (a benchmark bug).
    pub fn delta(&self, name: &str) -> u64 {
        let (n, before) = self
            .0
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("counter {name:?} was not read"));
        counter(n) - before
    }
}

/// The simulator and engine counters every workload reads.
pub const COUNTERS: [&str; 11] = [
    "sim.runs",
    "sim.supersteps",
    "sim.messages.delivered",
    "sim.pool.busy_ns",
    "sim.pool.idle_ns",
    "engine.units.executed",
    "engine.units.replayed",
    "engine.pool.busy_ns",
    "engine.pool.idle_ns",
    "engine.graph_cache.hits",
    "engine.graph_cache.misses",
];

/// A traced section of a run: installs a fresh recorder, and on
/// [`Tracing::finish`] uninstalls it, writes the spans to `path` as
/// JSONL, and hands back what it saw.
pub struct Tracing {
    recorder: Arc<MemoryRecorder>,
}

impl Tracing {
    /// Installs a fresh in-memory recorder as the process recorder.
    pub fn start() -> Tracing {
        let recorder = Arc::new(MemoryRecorder::default());
        telemetry::install(recorder.clone());
        Tracing { recorder }
    }

    /// Uninstalls the recorder and writes its spans to `path`.
    ///
    /// # Errors
    ///
    /// Propagates trace-file write failures.
    pub fn finish(self, path: &Path) -> std::io::Result<Trace> {
        telemetry::uninstall();
        let spans = std::mem::take(&mut *self.recorder.spans.lock().expect(POISONED));
        let counts = std::mem::take(&mut *self.recorder.counts.lock().expect(POISONED));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"tid\":{},\"ts_us\":{},\"dur_us\":{},\"label\":\"{}\"}}",
                s.name,
                s.at.tid,
                s.at.start_us,
                s.at.dur_us,
                telemetry::json_escape(&s.label)
            )?;
        }
        out.flush()?;
        let intervals: Vec<Interval> = spans.iter().map(|s| s.at.clone()).collect();
        let parent = stats::parents(&intervals);
        let own = stats::self_times(&intervals, &parent);
        Ok(Trace {
            spans,
            parent,
            own,
            counts,
        })
    }
}

/// Everything one traced section recorded, with span nesting resolved.
#[derive(Debug, Default)]
pub struct Trace {
    /// Every span, in arrival order.
    pub spans: Vec<SpanRec>,
    /// The innermost enclosing span of each, on the same thread.
    pub parent: Vec<Option<usize>>,
    /// Self time of each span, in microseconds.
    pub own: Vec<u64>,
    /// Event counts by name (spans, instants, counters, gauges).
    pub counts: BTreeMap<&'static str, u64>,
}

impl Trace {
    /// Indices of the spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = usize> + 'a {
        (0..self.spans.len()).filter(move |&i| self.spans[i].name == name)
    }

    /// Total duration of the spans named `name`, in microseconds.
    pub fn total_us(&self, name: &str) -> u64 {
        self.named(name).map(|i| self.spans[i].at.dur_us).sum()
    }

    /// Mean duration of the spans named `name` whose label satisfies
    /// `keep`, in milliseconds (0 when there are none).
    pub fn mean_ms(&self, name: &str, keep: impl Fn(&str) -> bool) -> f64 {
        let durs: Vec<u64> = self
            .named(name)
            .filter(|&i| keep(&self.spans[i].label))
            .map(|i| self.spans[i].at.dur_us)
            .collect();
        if durs.is_empty() {
            return 0.0;
        }
        durs.iter().sum::<u64>() as f64 / durs.len() as f64 / 1e3
    }

    /// The nearest enclosing span named `name` of span `i`, if any.
    pub fn ancestor(&self, mut i: usize, name: &str) -> Option<usize> {
        while let Some(p) = self.parent[i] {
            if self.spans[p].name == name {
                return Some(p);
            }
            i = p;
        }
        None
    }

    /// Prints where the time went: per span name, the count, total, and
    /// self time (total minus child spans on the same thread).
    pub fn print_span_table(&self, title: &str) {
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let entry = by_name.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += s.at.dur_us;
            entry.2 += self.own[i];
        }
        println!("spans ({title}):");
        println!(
            "  {:<22} {:>9} {:>12} {:>12} {:>7}",
            "span", "count", "total_ms", "self_ms", "self%"
        );
        for (name, (count, total, own)) in by_name {
            println!(
                "  {name:<22} {count:>9} {:>12.3} {:>12.3} {:>6.1}%",
                total as f64 / 1e3,
                own as f64 / 1e3,
                100.0 * own as f64 / total.max(1) as f64
            );
        }
    }

    /// Total self time of the spans named `name` whose label satisfies
    /// `keep`, as a share of their total duration (0 when there are none).
    pub fn self_share(&self, name: &str, keep: impl Fn(&str) -> bool) -> f64 {
        let (mut own, mut total) = (0u64, 0u64);
        for i in self.named(name).filter(|&i| keep(&self.spans[i].label)) {
            own += self.own[i];
            total += self.spans[i].at.dur_us;
        }
        if total == 0 {
            0.0
        } else {
            own as f64 / total as f64
        }
    }

    /// Events seen under `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}
