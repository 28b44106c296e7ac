//! The event side of telemetry: [`Event`], the [`Recorder`] trait, the
//! process-global recorder slot, and RAII [`Span`] timers.
//!
//! Events are only *constructed* when a recorder is installed and enabled;
//! the disabled path is a single relaxed atomic load and performs no
//! allocation, which is what lets instrumentation sit inside the simulator
//! superstep loop.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

use crate::json::{json_escape, json_f64};

/// A value attached to an [`Event`] as a named argument.
#[derive(Debug, Clone)]
pub enum ArgValue {
    /// An unsigned integer, rendered unquoted.
    U64(u64),
    /// A signed integer, rendered unquoted.
    I64(i64),
    /// A float, rendered unquoted (`null` when non-finite).
    F64(f64),
    /// A string, rendered quoted and escaped.
    Str(String),
}

impl ArgValue {
    /// Renders the value as a flat-JSON fragment.
    pub fn to_json(&self) -> String {
        match self {
            ArgValue::U64(v) => v.to_string(),
            ArgValue::I64(v) => v.to_string(),
            ArgValue::F64(v) => json_f64(*v),
            ArgValue::Str(s) => format!("\"{}\"", json_escape(s)),
        }
    }

    /// Returns the value as `f64` when it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ArgValue::U64(v) => Some(*v as f64),
            ArgValue::I64(v) => Some(*v as f64),
            ArgValue::F64(v) => Some(*v),
            ArgValue::Str(_) => None,
        }
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(u64::from(v))
    }
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::U64(u64::from(v))
    }
}

/// Named arguments attached to an event.
pub type Args = Vec<(&'static str, ArgValue)>;

/// A single telemetry event handed to the installed [`Recorder`].
#[derive(Debug, Clone)]
pub enum Event {
    /// A counter delta observed at a point in time.
    Counter {
        /// Metric name (dotted lowercase, e.g. `engine.units.executed`).
        name: &'static str,
        /// Microseconds since the process telemetry epoch.
        ts_us: u64,
        /// Counter value or delta.
        value: u64,
    },
    /// A gauge level observed at a point in time.
    Gauge {
        /// Metric name.
        name: &'static str,
        /// Microseconds since the process telemetry epoch.
        ts_us: u64,
        /// Gauge level.
        value: i64,
    },
    /// A point event with structured arguments (e.g. one simulator round).
    Instant {
        /// Event name.
        name: &'static str,
        /// Microseconds since the process telemetry epoch.
        ts_us: u64,
        /// Logical thread id (small dense integers, see [`thread_id`]).
        tid: u64,
        /// Named arguments.
        args: Args,
    },
    /// A completed timed region.
    Span {
        /// Span name.
        name: &'static str,
        /// Start time, microseconds since the process telemetry epoch.
        ts_us: u64,
        /// Duration in microseconds.
        dur_us: u64,
        /// Logical thread id.
        tid: u64,
        /// Named arguments.
        args: Args,
    },
}

impl Event {
    /// Renders the event as one flat-JSON line (no trailing newline).
    ///
    /// Reserved top-level keys are `ev`, `name`, `ts_us`, `dur_us`, `tid`,
    /// and `value`; arguments are flattened alongside them, so argument
    /// names must avoid the reserved set.
    pub fn to_line(&self) -> String {
        let mut out = String::with_capacity(96);
        match self {
            Event::Counter { name, ts_us, value } => {
                out.push_str(&format!(
                    "{{\"ev\":\"counter\",\"name\":\"{}\",\"ts_us\":{ts_us},\"value\":{value}",
                    json_escape(name)
                ));
            }
            Event::Gauge { name, ts_us, value } => {
                out.push_str(&format!(
                    "{{\"ev\":\"gauge\",\"name\":\"{}\",\"ts_us\":{ts_us},\"value\":{value}",
                    json_escape(name)
                ));
            }
            Event::Instant {
                name,
                ts_us,
                tid,
                args,
            } => {
                out.push_str(&format!(
                    "{{\"ev\":\"instant\",\"name\":\"{}\",\"ts_us\":{ts_us},\"tid\":{tid}",
                    json_escape(name)
                ));
                for (key, value) in args {
                    out.push_str(&format!(",\"{}\":{}", json_escape(key), value.to_json()));
                }
            }
            Event::Span {
                name,
                ts_us,
                dur_us,
                tid,
                args,
            } => {
                out.push_str(&format!(
                    "{{\"ev\":\"span\",\"name\":\"{}\",\"ts_us\":{ts_us},\"dur_us\":{dur_us},\"tid\":{tid}",
                    json_escape(name)
                ));
                for (key, value) in args {
                    out.push_str(&format!(",\"{}\":{}", json_escape(key), value.to_json()));
                }
            }
        }
        out.push('}');
        out
    }
}

/// Sink for telemetry events.
///
/// Implementations must be cheap and must never panic: they run inside the
/// simulator hot loop and the serve connection threads. Telemetry is
/// observational only — a recorder must not influence results (the workspace
/// asserts store bytes and reports are byte-identical with a recorder on or
/// off).
pub trait Recorder: Send + Sync + std::fmt::Debug {
    /// Whether events should be constructed and delivered at all.
    fn is_enabled(&self) -> bool {
        true
    }

    /// Accepts one event.
    fn record(&self, event: &Event);

    /// Flushes any buffered output.
    fn flush(&self) {}
}

/// A recorder that drops every event; the default when nothing is installed.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn is_enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: &Event) {}
}

static RECORDER: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Installs `recorder` as the process-global event sink, replacing any
/// previous one (the previous recorder is flushed on the way out).
///
/// Unlike a write-once global, the slot is swappable so one process can
/// compare recorder-on and recorder-off runs (perfbench's
/// `telemetry.overhead_pct` and the facade's `tests/telemetry.rs` do
/// exactly this).
pub fn install(recorder: Arc<dyn Recorder>) {
    let enabled = recorder.is_enabled();
    let previous = {
        let mut slot = RECORDER.write().unwrap_or_else(|e| e.into_inner());
        slot.replace(recorder)
    };
    ENABLED.store(enabled, Ordering::SeqCst);
    if let Some(previous) = previous {
        previous.flush();
    }
}

/// Removes the installed recorder (flushing it) and returns to the no-op
/// default.
pub fn uninstall() {
    ENABLED.store(false, Ordering::SeqCst);
    let previous = {
        let mut slot = RECORDER.write().unwrap_or_else(|e| e.into_inner());
        slot.take()
    };
    if let Some(previous) = previous {
        previous.flush();
    }
}

/// Whether an enabled recorder is installed. This is the hot-path guard:
/// one relaxed atomic load, no lock.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Delivers `event` to the installed recorder, if any.
pub fn record(event: Event) {
    if !enabled() {
        return;
    }
    let slot = RECORDER.read().unwrap_or_else(|e| e.into_inner());
    if let Some(recorder) = slot.as_ref() {
        recorder.record(&event);
    }
}

/// Flushes the installed recorder, if any.
pub fn flush() {
    let slot = RECORDER.read().unwrap_or_else(|e| e.into_inner());
    if let Some(recorder) = slot.as_ref() {
        recorder.flush();
    }
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The process telemetry epoch: the instant timestamps are measured from.
/// Fixed the first time any telemetry timestamp is taken.
pub fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds elapsed between the telemetry epoch and now.
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Microseconds elapsed between the telemetry epoch and `at` (saturating to
/// zero for instants before the epoch).
pub fn instant_us(at: Instant) -> u64 {
    at.saturating_duration_since(epoch()).as_micros() as u64
}

static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

/// A small dense integer identifying the calling thread, stable for the
/// thread's lifetime. (`std::thread::ThreadId` has no stable integer form,
/// and Chrome's trace viewer wants small numeric `tid`s.)
pub fn thread_id() -> u64 {
    THREAD_ID.with(|id| *id)
}

/// Emits an [`Event::Instant`] if a recorder is enabled; `args` is only
/// invoked (and only allocates) on the enabled path.
pub fn instant_event(name: &'static str, args: impl FnOnce() -> Args) {
    if !enabled() {
        return;
    }
    record(Event::Instant {
        name,
        ts_us: now_us(),
        tid: thread_id(),
        args: args(),
    });
}

/// An RAII timed region. Construct with [`Span::begin`]; the span event is
/// emitted when the value drops. When no recorder is enabled the span is
/// inert: no clock read, no allocation, no event.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
    args: Args,
}

impl Span {
    /// Starts a span named `name` (inert when telemetry is disabled).
    pub fn begin(name: &'static str) -> Span {
        let start = if enabled() {
            Some(Instant::now())
        } else {
            None
        };
        Span {
            name,
            start,
            args: Vec::new(),
        }
    }

    /// Whether the span is live (a recorder was enabled at `begin` time).
    pub fn is_active(&self) -> bool {
        self.start.is_some()
    }

    /// Attaches an argument (builder form). No-op on an inert span.
    pub fn with(mut self, key: &'static str, value: impl Into<ArgValue>) -> Span {
        self.push(key, value);
        self
    }

    /// Attaches an argument after construction (for values only known once
    /// the timed work has produced them). No-op on an inert span.
    pub fn push(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if self.start.is_some() {
            self.args.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let dur_us = start.elapsed().as_micros() as u64;
            record(Event::Span {
                name: self.name,
                ts_us: instant_us(start),
                dur_us,
                tid: thread_id(),
                args: std::mem::take(&mut self.args),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[derive(Debug, Default)]
    struct CollectingRecorder {
        events: Mutex<Vec<Event>>,
    }

    impl Recorder for CollectingRecorder {
        fn record(&self, event: &Event) {
            self.events.lock().unwrap().push(event.clone());
        }
    }

    #[test]
    fn span_emits_event_with_args_when_enabled() {
        let recorder = Arc::new(CollectingRecorder::default());
        install(recorder.clone());
        {
            let mut span = Span::begin("test.span").with("det", "bfs");
            span.push("n", 64u64);
        }
        uninstall();
        let events = recorder.events.lock().unwrap();
        let found = events.iter().any(|e| {
            matches!(e, Event::Span { name, args, .. }
                if *name == "test.span" && args.len() == 2)
        });
        assert!(found, "span event missing from {events:?}");
    }

    #[test]
    fn inert_span_emits_nothing() {
        uninstall();
        {
            let _span = Span::begin("test.inert").with("k", 1u64);
        }
        let recorder = Arc::new(CollectingRecorder::default());
        install(recorder.clone());
        install(Arc::new(NoopRecorder));
        {
            let _span = Span::begin("test.inert2");
        }
        uninstall();
        assert!(recorder.events.lock().unwrap().is_empty());
    }

    #[test]
    fn event_lines_are_flat_json() {
        let line = Event::Span {
            name: "unit",
            ts_us: 10,
            dur_us: 5,
            tid: 3,
            args: vec![("det", ArgValue::Str("bfs\"x".into())), ("n", 64u64.into())],
        }
        .to_line();
        assert_eq!(
            line,
            "{\"ev\":\"span\",\"name\":\"unit\",\"ts_us\":10,\"dur_us\":5,\"tid\":3,\"det\":\"bfs\\\"x\",\"n\":64}"
        );
        let counter = Event::Counter {
            name: "c",
            ts_us: 1,
            value: 2,
        }
        .to_line();
        assert_eq!(
            counter,
            "{\"ev\":\"counter\",\"name\":\"c\",\"ts_us\":1,\"value\":2}"
        );
    }
}
