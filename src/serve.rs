//! The long-lived detection service: named mutable graph snapshots
//! behind a line-oriented TCP protocol.
//!
//! [`Server`] is the "live traffic" end of the workspace: where `sweep`
//! runs a declared experiment to completion, `serve` stays up, holds
//! any number of named [`MutableGraph`] snapshots, and answers
//! detection and edge-update requests as they arrive — std-only
//! (thread-per-connection over [`std::net::TcpListener`], hand-rolled
//! flat JSON lines, no new dependencies).
//!
//! # Protocol
//!
//! One request per line, one response per line, both flat JSON objects
//! (string/number/bool values only — the same shape the result store
//! writes). The `op` field selects the operation:
//!
//! | request | response |
//! |---|---|
//! | `{"op":"ping"}` | `{"ok":true,"op":"ping"}` |
//! | `{"op":"load","name":"g","family":"planted:4","n":64,"seed":7}` | snapshot created (or replaced) from the [`FamilySpec`] catalog |
//! | `{"op":"update","name":"g","action":"insert","u":1,"v":2}` | one edge insert/delete against the named snapshot |
//! | `{"op":"detect","name":"g","detector":"color-bfs","seed":0}` | verdict line (see below) |
//! | `{"op":"stats"}` | per-snapshot counters, including the `replayed` dedup counter, plus process-wide uptime/connection/rejection totals |
//! | `{"op":"snapshots"}` | the snapshot names, sorted |
//! | `{"op":"metrics"}` | Prometheus-style text exposition of the process telemetry registry in the `exposition` field |
//! | `{"op":"shutdown"}` | acknowledges, then stops accepting connections |
//!
//! Errors come back as `{"ok":false,"op":…,"error":"…"}` on the same
//! line, for a request line that is not UTF-8 too; the connection stays
//! usable. The one exception is a request line longer than
//! [`MAX_REQUEST_LINE`] bytes: it is answered with a `request line too
//! long` error and the connection is closed, so a client that never
//! sends a newline cannot make the server buffer without bound.
//!
//! # Determinism and deduplication
//!
//! A detect request is resolved to a work unit content-addressed by
//! `(graph content fingerprint, n, seed, detector id, detector
//! configuration, budget)` — the same
//! [`canonical_unit`](crate::engine::store::canonical_unit) machinery
//! the experiment engine uses, with the graph's serialized edge set
//! taking the place of a family fingerprint. With a store directory
//! configured, the unit is appended on first execution and **replayed
//! without invoking the detector** whenever the same request arrives
//! again — across connections and across server restarts. Concurrent
//! identical requests are single-flighted per unit key: one executes,
//! the others wait for it and replay its record. The verdict
//! line is rendered from the stored record only, so a replayed
//! duplicate is byte-identical to the original response; whether a
//! request executed or replayed is visible exclusively in the `stats`
//! counters. Updating a snapshot changes its content fingerprint and
//! with it every unit key, so stale verdicts can never be served.
//!
//! The content fingerprint is the 128-bit FNV-1a of the snapshot's
//! edge-list text, streamed into the hash state line by line from
//! [`write_text`](congest_graph::serialize::write_text), so the text is
//! never built. It is computed at most once per snapshot generation: the
//! first detect after a `load` or an applied update freezes a CSR copy
//! of the graph and fingerprints it outside the snapshots lock; every
//! later detect at that generation takes the frozen graph and its
//! fingerprint under the lock. A replay at an unchanged generation
//! therefore does no snapshot, serialization or hashing, and an
//! executing detect runs on the shared frozen graph. An update that
//! changes nothing (`"applied":false`) keeps the generation.
//!
//! # Admission control
//!
//! At most `max_inflight` detect requests execute concurrently; a
//! request that cannot acquire a slot within the configured
//! [`Schedule`]'s wall-clock cap is rejected with an `admission:` error
//! (and counted) instead of queueing unboundedly. Replayed duplicates
//! bypass the slots entirely — answering from the store is cheap and
//! cannot oversubscribe the machine. Each executed detection runs
//! under the server's per-request [`Budget`], so no single request can
//! hold a worker forever.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

use congest_graph::{FamilySpec, Graph, MutableGraph, NodeId};
use congest_telemetry as telemetry;
use even_cycle::Budget;

use crate::engine::store::{
    canonical_unit, content_key, json_escape, json_f64, parse_flat, unit_key, Field, ResultStore,
    UnitRecord, UnitStatus,
};
use crate::engine::{record_detection, RunProfile, Schedule};
use crate::registry::DetectorRegistry;
use crate::scenario::Metric;

/// Server configuration: which registry the detectors come from, the
/// per-request budget, the admission-control schedule, and the optional
/// dedup store.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    profile: RunProfile,
    k: usize,
    budget: Budget,
    schedule: Schedule,
    store_dir: Option<PathBuf>,
    max_inflight: usize,
}

impl ServeConfig {
    /// A server at the given profile and family parameter `k`, with the
    /// profile's budget, an uncapped schedule, no store, and 2 inflight
    /// detection slots.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` (the registry's constraint).
    pub fn new(profile: RunProfile, k: usize) -> Self {
        assert!(k >= 2, "the registry needs k >= 2");
        ServeConfig {
            profile,
            k,
            budget: profile.budget(),
            schedule: Schedule::default(),
            store_dir: None,
            max_inflight: 2,
        }
    }

    /// Overrides the per-request budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the admission-control schedule; its wall-clock cap bounds
    /// how long a detect request may wait for an execution slot.
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Dedups detection requests through the content-addressed result
    /// store under `dir` (shareable with `sweep` stores; the key
    /// namespaces cannot collide).
    pub fn store(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store_dir = Some(dir.into());
        self
    }

    /// Caps concurrently *executing* detect requests (replays are not
    /// counted against the cap).
    ///
    /// # Panics
    ///
    /// Panics if `max_inflight == 0`.
    pub fn max_inflight(mut self, max_inflight: usize) -> Self {
        assert!(max_inflight > 0, "need at least one detection slot");
        self.max_inflight = max_inflight;
        self
    }
}

/// Serve telemetry, resolved once per process. Process-wide by design:
/// the `stats` op's uptime/connection/rejection totals and the
/// `metrics` exposition both read these, so they survive individual
/// [`ServeState`] lifetimes.
struct ServeMetrics {
    connections_total: Arc<telemetry::Counter>,
    connections_active: Arc<telemetry::Gauge>,
    requests_total: Arc<telemetry::Counter>,
    rejections_total: Arc<telemetry::Counter>,
    inflight: Arc<telemetry::Gauge>,
}

fn serve_metrics() -> &'static ServeMetrics {
    static METRICS: OnceLock<ServeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = telemetry::Registry::global();
        ServeMetrics {
            connections_total: registry.counter("serve.connections.total"),
            connections_active: registry.gauge("serve.connections.active"),
            requests_total: registry.counter("serve.requests.total"),
            rejections_total: registry.counter("serve.rejections.total"),
            inflight: registry.gauge("serve.inflight"),
        }
    })
}

/// The per-op latency histogram for `op`, from the process registry.
/// Ops outside the protocol share one `unknown` series so a client
/// typo cannot grow the registry unboundedly.
fn op_latency(op: &str) -> Arc<telemetry::Histogram> {
    let registry = telemetry::Registry::global();
    match op {
        "ping" => registry.histogram("serve.op_ns.ping"),
        "load" => registry.histogram("serve.op_ns.load"),
        "update" => registry.histogram("serve.op_ns.update"),
        "detect" => registry.histogram("serve.op_ns.detect"),
        "stats" => registry.histogram("serve.op_ns.stats"),
        "snapshots" => registry.histogram("serve.op_ns.snapshots"),
        "metrics" => registry.histogram("serve.op_ns.metrics"),
        "shutdown" => registry.histogram("serve.op_ns.shutdown"),
        _ => registry.histogram("serve.op_ns.unknown"),
    }
}

/// Per-snapshot counters, reported by the `stats` op.
#[derive(Debug, Default, Clone)]
struct SnapshotStats {
    updates: u64,
    detects: u64,
    executed: u64,
    replayed: u64,
    rejections: u64,
}

/// One named snapshot: the mutable graph, the memo of its current
/// content, and its counters.
#[derive(Debug)]
struct Snapshot {
    graph: MutableGraph,
    /// The frozen view of `graph`'s current content, filled by the first
    /// detect that needs it. An applied update or a `load` puts a fresh
    /// cell here rather than clearing this one, so a detect still
    /// fingerprinting older content fills a cell no later request reads.
    current: FrozenCell,
    stats: SnapshotStats,
}

/// One snapshot generation as detects read it: the CSR graph they run
/// on and its content fingerprint.
#[derive(Debug, Clone)]
struct Frozen {
    graph: Arc<Graph>,
    fingerprint: String,
}

/// The memo slot of one snapshot generation.
type FrozenCell = Arc<OnceLock<Frozen>>;

/// What a detect takes from its snapshot under the snapshots lock.
enum View {
    /// An earlier detect already froze this generation.
    Frozen(Frozen),
    /// The generation's cell, and a CSR snapshot of its content to
    /// fingerprint once the lock is released.
    Unfrozen(FrozenCell, Graph),
}

impl View {
    /// The frozen generation, fingerprinting it if no detect has. The
    /// result lands in the cell the view was taken from, which an update
    /// applied since has already replaced.
    fn freeze(self) -> Frozen {
        match self {
            View::Frozen(frozen) => frozen,
            View::Unfrozen(cell, graph) => cell
                .get_or_init(|| Frozen {
                    fingerprint: content_key(&graph),
                    graph: Arc::new(graph),
                })
                .clone(),
        }
    }
}

// Lock-poisoning messages: these panics are internal invariants, not
// protocol errors — a lock is poisoned only if another handler thread
// already panicked, and the auditor's R4 rule requires each one to be
// documented rather than a bare unwrap().
const SNAPSHOTS_POISONED: &str = "snapshots mutex poisoned: a handler thread panicked";
const STORE_POISONED: &str = "store mutex poisoned: a handler thread panicked";
const ADMISSION_POISONED: &str = "admission counter mutex poisoned: a handler thread panicked";
const UNIT_SLOTS_POISONED: &str = "unit slot mutex poisoned: a handler thread panicked";

/// The shared server state every connection thread works against.
#[derive(Debug)]
struct ServeState {
    snapshots: Mutex<BTreeMap<String, Snapshot>>,
    store: Mutex<Option<ResultStore>>,
    /// One single-flight slot per unit key with a detect in progress.
    unit_slots: Mutex<BTreeMap<String, Arc<Mutex<()>>>>,
    registry: DetectorRegistry,
    budget: Budget,
    schedule: Schedule,
    inflight: Mutex<usize>,
    slot_freed: Condvar,
    max_inflight: usize,
    admission_rejected: Mutex<u64>,
    shutdown: AtomicBool,
    started: Instant,
}

impl ServeState {
    fn new(config: &ServeConfig) -> std::io::Result<ServeState> {
        let store = match &config.store_dir {
            Some(dir) => Some(ResultStore::open(dir)?),
            None => None,
        };
        Ok(ServeState {
            snapshots: Mutex::new(BTreeMap::new()),
            store: Mutex::new(store),
            unit_slots: Mutex::new(BTreeMap::new()),
            registry: config.profile.registry(config.k),
            budget: config.budget.clone(),
            schedule: config.schedule,
            inflight: Mutex::new(0),
            slot_freed: Condvar::new(),
            max_inflight: config.max_inflight,
            admission_rejected: Mutex::new(0),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
        })
    }

    /// Tries to acquire one execution slot, waiting at most the
    /// schedule's wall-clock cap. `false` means the request is refused
    /// by admission control.
    fn acquire_slot(&self) -> bool {
        let deadline = self.schedule.wall_clock_cap.map(|cap| Instant::now() + cap);
        let mut inflight = self
            .inflight
            .lock()
            .expect("inflight mutex poisoned: a handler thread panicked");
        while *inflight >= self.max_inflight {
            match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return false;
                    }
                    inflight = self
                        .slot_freed
                        .wait_timeout(inflight, d - now)
                        .expect("slot condvar poisoned: a handler thread panicked")
                        .0;
                }
                None => {
                    inflight = self
                        .slot_freed
                        .wait(inflight)
                        .expect("slot condvar poisoned: a handler thread panicked")
                }
            }
        }
        *inflight += 1;
        serve_metrics().inflight.set(*inflight as i64);
        true
    }

    /// Runs `f` holding the single-flight slot of unit `key`: concurrent
    /// requests for one unit serialize here, so the first executes and
    /// the rest find its record in the store. Other keys never wait.
    fn single_flight<T>(&self, key: &str, f: impl FnOnce() -> T) -> T {
        let slot = Arc::clone(
            self.unit_slots
                .lock()
                .expect(UNIT_SLOTS_POISONED)
                .entry(key.to_string())
                .or_default(),
        );
        let result = {
            let _held = slot.lock().expect(UNIT_SLOTS_POISONED);
            f()
        };
        // The last request out removes the slot: clones are only taken
        // under the map lock, so a count of 1 there means nobody else
        // holds or waits on it.
        let mut slots = self.unit_slots.lock().expect(UNIT_SLOTS_POISONED);
        drop(slot);
        if slots.get(key).is_some_and(|s| Arc::strong_count(s) == 1) {
            slots.remove(key);
        }
        result
    }

    fn release_slot(&self) {
        let mut inflight = self
            .inflight
            .lock()
            .expect("inflight mutex poisoned: a handler thread panicked");
        *inflight -= 1;
        serve_metrics().inflight.set(*inflight as i64);
        drop(inflight);
        self.slot_freed.notify_one();
    }

    /// Handles one request line; returns the response line (without
    /// newline) and whether this request asked the server to shut down.
    /// Every request is counted and its latency recorded under its op's
    /// histogram; with a recorder installed each request also emits a
    /// `serve.op` span.
    fn handle(&self, line: &str) -> (String, bool) {
        let started = Instant::now();
        serve_metrics().requests_total.inc();
        let parsed = parse_flat(line);
        let op = parsed
            .as_ref()
            .and_then(|f| f.get("op"))
            .and_then(Field::as_str)
            .unwrap_or("?")
            .to_string();
        let mut span = telemetry::Span::begin("serve.op").with("request_op", op.as_str());
        let response = match parsed {
            None => (err_line("?", "request is not a flat JSON object"), false),
            Some(fields) => self.dispatch(&op, &fields),
        };
        span.push("ok", response.0.starts_with("{\"ok\":true"));
        op_latency(&op).record(started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        response
    }

    /// Routes one parsed request to its op handler.
    fn dispatch(&self, op: &str, fields: &FlatFields) -> (String, bool) {
        if op == "?" {
            return (err_line("?", "request has no \"op\" field"), false);
        }
        let result = match op {
            "ping" => Ok("{\"ok\":true,\"op\":\"ping\"}".to_string()),
            "load" => self.op_load(fields),
            "update" => self.op_update(fields),
            "detect" => self.op_detect(fields),
            "stats" => self.op_stats(fields),
            "snapshots" => Ok(self.op_snapshots()),
            "metrics" => Ok(op_metrics()),
            "shutdown" => {
                self.shutdown.store(true, Ordering::SeqCst);
                return ("{\"ok\":true,\"op\":\"shutdown\"}".to_string(), true);
            }
            other => Err(format!(
                "unknown op {other:?} (known: ping, load, update, detect, stats, snapshots, metrics, shutdown)"
            )),
        };
        match result {
            Ok(line) => (line, false),
            Err(msg) => (err_line(op, &msg), false),
        }
    }

    /// `load`: build a catalog instance and (re)bind it to a name.
    fn op_load(&self, fields: &FlatFields) -> Result<String, String> {
        let name = req_str(fields, "name")?;
        let spec = FamilySpec::parse(req_str(fields, "family")?)?;
        let n = opt_usize(fields, "n")?.unwrap_or(64);
        let seed = opt_u64(fields, "seed")?.unwrap_or(0);
        let graph = spec.build(n, seed);
        let (nodes, edges) = (graph.node_count(), graph.edge_count());
        self.snapshots.lock().expect(SNAPSHOTS_POISONED).insert(
            name.to_string(),
            Snapshot {
                graph: MutableGraph::from_graph(graph),
                current: FrozenCell::default(),
                stats: SnapshotStats::default(),
            },
        );
        Ok(format!(
            "{{\"ok\":true,\"op\":\"load\",\"name\":\"{}\",\"family\":\"{}\",\"nodes\":{nodes},\"edges\":{edges}}}",
            json_escape(name),
            json_escape(&spec.canonical_label()),
        ))
    }

    /// `update`: one edge insert or delete against a named snapshot.
    fn op_update(&self, fields: &FlatFields) -> Result<String, String> {
        let name = req_str(fields, "name")?;
        let action = req_str(fields, "action")?;
        let u = node_id(req_u64(fields, "u")?)?;
        let v = node_id(req_u64(fields, "v")?)?;
        let mut snapshots = self.snapshots.lock().expect(SNAPSHOTS_POISONED);
        let snapshot = snapshots
            .get_mut(name)
            .ok_or_else(|| format!("no snapshot named {name:?} (load it first)"))?;
        let applied = match action {
            "insert" => snapshot.graph.insert_edge(u, v),
            "delete" => snapshot.graph.delete_edge(u, v),
            other => return Err(format!("unknown action {other:?} (want insert or delete)")),
        }
        .map_err(|e| e.to_string())?;
        if applied {
            // New content, new generation.
            snapshot.current = FrozenCell::default();
        }
        snapshot.stats.updates += 1;
        Ok(format!(
            "{{\"ok\":true,\"op\":\"update\",\"name\":\"{}\",\"action\":\"{}\",\"applied\":{applied},\"edges\":{}}}",
            json_escape(name),
            json_escape(action),
            snapshot.graph.edge_count(),
        ))
    }

    /// `detect`: run (or replay) one detector against a named snapshot.
    fn op_detect(&self, fields: &FlatFields) -> Result<String, String> {
        let name = req_str(fields, "name")?;
        let fragment = req_str(fields, "detector")?;
        let seed = opt_u64(fields, "seed")?.unwrap_or(0);
        let metric = match fields.get("metric").and_then(Field::as_str) {
            Some(spec) => Metric::parse(spec).ok_or_else(|| format!("unknown metric {spec:?}"))?,
            None => Metric::Rounds,
        };

        // Resolve the detector by id fragment — exactly one match, so
        // responses cannot silently switch algorithms.
        let matches: Vec<usize> = self
            .registry
            .entries()
            .iter()
            .enumerate()
            .filter(|(_, e)| e.id.contains(fragment))
            .map(|(i, _)| i)
            .collect();
        let entry = match matches.as_slice() {
            [] => {
                let ids: Vec<&str> = self.registry.iter().map(|e| e.id.as_str()).collect();
                return Err(format!(
                    "detector {fragment:?} matches no registry entry (have: {})",
                    ids.join(", ")
                ));
            }
            [i] => &self.registry.entries()[*i],
            many => {
                let ids: Vec<&str> = many
                    .iter()
                    .map(|&i| self.registry.entries()[i].id.as_str())
                    .collect();
                return Err(format!(
                    "detector {fragment:?} is ambiguous (matches: {})",
                    ids.join(", ")
                ));
            }
        };

        // Take the current generation under the lock, then fingerprint
        // (if no detect has) and run detection without it — updates
        // arriving meanwhile act on the next request's generation, never
        // on this one's.
        let frozen = self.view(name)?.freeze();
        let n = frozen.graph.node_count();

        // Content address: the serialized edge set is the graph's
        // identity (deterministic — CSR adjacency is canonically
        // sorted), so equal graphs dedup across names, connections, and
        // restarts, and any applied update moves the key.
        let key = unit_key(&canonical_unit(
            &format!("serve:{}", frozen.fingerprint),
            n,
            seed,
            &entry.id,
            &entry.detector.config_fingerprint(),
            &self.budget,
        ));

        let (record, was_replayed) = self.single_flight(&key, || {
            let replayed = self
                .store
                .lock()
                .expect(STORE_POISONED)
                .as_ref()
                .and_then(|s| s.get(&key))
                .filter(|r| r.det == entry.id && r.n == n && r.seed == seed)
                .cloned();
            if let Some(record) = replayed {
                return Ok((record, true));
            }
            if !self.acquire_slot() {
                *self.admission_rejected.lock().expect(ADMISSION_POISONED) += 1;
                serve_metrics().rejections_total.inc();
                return Err(format!(
                    "admission: all {} detection slot(s) stayed busy past the wall-clock cap; retry later",
                    self.max_inflight
                ));
            }
            let record = record_detection(
                metric,
                &frozen.graph,
                &self.budget,
                entry.detector.as_ref(),
                &entry.id,
                &key,
                n,
                seed,
            );
            self.release_slot();
            if let Some(store) = self.store.lock().expect(STORE_POISONED).as_mut() {
                store
                    .append(std::slice::from_ref(&record))
                    .map_err(|e| format!("result store rejected the record: {e}"))?;
            }
            Ok((record, false))
        })?;

        {
            let mut snapshots = self.snapshots.lock().expect(SNAPSHOTS_POISONED);
            if let Some(snapshot) = snapshots.get_mut(name) {
                snapshot.stats.detects += 1;
                if was_replayed {
                    snapshot.stats.replayed += 1;
                } else {
                    snapshot.stats.executed += 1;
                }
                if record.rejected {
                    snapshot.stats.rejections += 1;
                }
            }
        }

        // The verdict line is a pure function of the record: a replayed
        // duplicate is byte-identical to the original response.
        Ok(verdict_line(name, &record))
    }

    /// What a detect reads of snapshot `name` under the lock: the frozen
    /// current generation, or its cell and a CSR snapshot when no detect
    /// has frozen it yet. Nothing is hashed here.
    fn view(&self, name: &str) -> Result<View, String> {
        let snapshots = self.snapshots.lock().expect(SNAPSHOTS_POISONED);
        let snapshot = snapshots
            .get(name)
            .ok_or_else(|| format!("no snapshot named {name:?} (load it first)"))?;
        Ok(match snapshot.current.get() {
            Some(frozen) => View::Frozen(frozen.clone()),
            None => View::Unfrozen(Arc::clone(&snapshot.current), snapshot.graph.snapshot()),
        })
    }

    /// `stats`: the per-snapshot counters (one snapshot, or all).
    fn op_stats(&self, fields: &FlatFields) -> Result<String, String> {
        let only = fields.get("name").and_then(Field::as_str);
        let snapshots = self.snapshots.lock().expect(SNAPSHOTS_POISONED);
        if let Some(name) = only {
            if !snapshots.contains_key(name) {
                return Err(format!("no snapshot named {name:?}"));
            }
        }
        let mut out = String::from("{\"ok\":true,\"op\":\"stats\",\"snapshots\":[");
        let mut first = true;
        for (name, snapshot) in snapshots.iter() {
            if only.is_some_and(|o| o != name) {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let s = &snapshot.stats;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"nodes\":{},\"edges\":{},\"pending_deltas\":{},\"compactions\":{},\"updates\":{},\"detects\":{},\"executed\":{},\"replayed\":{},\"rejections\":{}}}",
                json_escape(name),
                snapshot.graph.node_count(),
                snapshot.graph.edge_count(),
                snapshot.graph.pending_deltas(),
                snapshot.graph.compactions(),
                s.updates,
                s.detects,
                s.executed,
                s.replayed,
                s.rejections,
            ));
        }
        // Per-state admission counter first (what this server refused),
        // then the process-wide totals from the telemetry registry.
        let metrics = serve_metrics();
        out.push_str(&format!(
            "],\"admission_rejected\":{},\"uptime_seconds\":{},\"total_connections\":{},\"total_rejections\":{}}}",
            *self.admission_rejected.lock().expect(ADMISSION_POISONED),
            self.started.elapsed().as_secs(),
            metrics.connections_total.value(),
            metrics.rejections_total.value(),
        ));
        Ok(out)
    }

    /// `snapshots`: just the sorted names.
    fn op_snapshots(&self) -> String {
        let snapshots = self.snapshots.lock().expect(SNAPSHOTS_POISONED);
        let names: Vec<String> = snapshots
            .keys()
            .map(|n| format!("\"{}\"", json_escape(n)))
            .collect();
        format!(
            "{{\"ok\":true,\"op\":\"snapshots\",\"names\":[{}]}}",
            names.join(",")
        )
    }
}

/// `metrics`: the process telemetry registry as Prometheus-style text
/// exposition, carried in the `exposition` field of the (line-oriented)
/// response. A scraping bridge can unescape and re-serve it verbatim.
fn op_metrics() -> String {
    let exposition = telemetry::Registry::global()
        .snapshot()
        .to_prometheus("even_cycle");
    format!(
        "{{\"ok\":true,\"op\":\"metrics\",\"content_type\":\"text/plain; version=0.0.4\",\"exposition\":\"{}\"}}",
        json_escape(&exposition)
    )
}

type FlatFields = std::collections::HashMap<String, Field>;

fn err_line(op: &str, msg: &str) -> String {
    format!(
        "{{\"ok\":false,\"op\":\"{}\",\"error\":\"{}\"}}",
        json_escape(op),
        json_escape(msg)
    )
}

fn req_str<'a>(fields: &'a FlatFields, key: &str) -> Result<&'a str, String> {
    fields
        .get(key)
        .and_then(Field::as_str)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn req_u64(fields: &FlatFields, key: &str) -> Result<u64, String> {
    fields
        .get(key)
        .and_then(Field::as_u64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

fn opt_u64(fields: &FlatFields, key: &str) -> Result<Option<u64>, String> {
    match fields.get(key) {
        None => Ok(None),
        Some(f) => f
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field {key:?} is not a non-negative integer")),
    }
}

fn opt_usize(fields: &FlatFields, key: &str) -> Result<Option<usize>, String> {
    Ok(opt_u64(fields, key)?.map(|v| v as usize))
}

fn node_id(raw: u64) -> Result<NodeId, String> {
    u32::try_from(raw)
        .map(NodeId::new)
        .map_err(|_| format!("endpoint {raw} does not fit a node id"))
}

/// Renders the deterministic verdict line for one detect request —
/// every field comes from the [`UnitRecord`], so replays reproduce the
/// executed response byte for byte.
fn verdict_line(name: &str, record: &UnitRecord) -> String {
    let status = match &record.status {
        UnitStatus::Ok => "ok",
        UnitStatus::BudgetExceeded => "budget-exceeded",
        UnitStatus::Error(_) => "error",
    };
    let mut line = format!(
        "{{\"ok\":true,\"op\":\"detect\",\"name\":\"{}\",\"detector\":\"{}\",\"key\":\"{}\",\"n\":{},\"seed\":{},\"status\":\"{}\",\"rejected\":{},\"value\":{},\"rounds\":{},\"supersteps\":{},\"messages\":{},\"words\":{},\"max_congestion\":{},\"iterations\":{}",
        json_escape(name),
        json_escape(&record.det),
        json_escape(&record.key),
        record.n,
        record.seed,
        status,
        record.rejected,
        json_f64(record.value),
        record.rounds,
        record.supersteps,
        record.messages,
        record.words,
        record.max_congestion,
        record.iterations,
    );
    if let UnitStatus::Error(msg) = &record.status {
        line.push_str(&format!(",\"error\":\"{}\"", json_escape(msg)));
    }
    line.push('}');
    line
}

/// The listening server: bind, then [`Server::run`] the accept loop
/// (thread per connection) until a `shutdown` request arrives.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
}

impl Server {
    /// Binds the server (use port 0 for an ephemeral port; read it back
    /// with [`Server::local_addr`]).
    ///
    /// # Errors
    ///
    /// Propagates bind failures and store-open failures.
    pub fn bind(addr: impl ToSocketAddrs, config: &ServeConfig) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            state: Arc::new(ServeState::new(config)?),
        })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Propagates the underlying socket error.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the accept loop: one thread per connection, until a
    /// `shutdown` request flips the flag. Returns after every
    /// connection thread has drained (so a clean shutdown leaves no
    /// half-written responses).
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O errors.
    pub fn run(self) -> std::io::Result<()> {
        let addr = self.listener.local_addr()?;
        let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            let (stream, _) = self.listener.accept()?;
            if self.state.shutdown.load(Ordering::SeqCst) {
                // The nudge connection (or a late client) after
                // shutdown: drop it and stop accepting.
                break;
            }
            // Only live connections are joined at shutdown; dropping
            // the handles of finished ones keeps this list bounded by
            // the open connections, not by every connection ever made.
            handles.retain(|handle| !handle.is_finished());
            let state = Arc::clone(&self.state);
            handles.push(std::thread::spawn(move || {
                handle_connection(stream, &state, addr);
            }));
        }
        for handle in handles {
            let _ = handle.join();
        }
        Ok(())
    }
}

/// The longest request line a connection reads, in bytes before its
/// `\n`. A longer line is answered with a `request line too long`
/// error and the connection is closed.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Serves one connection: read request lines, write response lines,
/// until EOF or a shutdown request (which also nudges the accept loop
/// awake via a throwaway connection to `addr`).
fn handle_connection(stream: TcpStream, state: &ServeState, addr: std::net::SocketAddr) {
    let metrics = serve_metrics();
    metrics.connections_total.inc();
    metrics.connections_active.inc();
    let _conn_span = telemetry::Span::begin("serve.connection");
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => {
            metrics.connections_active.dec();
            return;
        }
    };
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // Read at most one byte past the cap: enough to tell a line
        // that fits from one that does not.
        let limit = MAX_REQUEST_LINE as u64 + 1;
        match (&mut reader).take(limit).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        } else if buf.len() > MAX_REQUEST_LINE {
            let _ = writer
                .write_all(format!("{}\n", err_line("?", "request line too long")).as_bytes());
            break;
        }
        let (response, shutdown) = match std::str::from_utf8(&buf) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => state.handle(line),
            Err(_) => (err_line("?", "request is not UTF-8"), false),
        };
        if writer
            .write_all(format!("{response}\n").as_bytes())
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
        if shutdown {
            // Wake the blocking accept() so Server::run can observe the
            // flag and drain.
            let _ = TcpStream::connect(addr);
            break;
        }
    }
    metrics.connections_active.dec();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(config: &ServeConfig) -> ServeState {
        ServeState::new(config).unwrap()
    }

    fn ok(resp: &(String, bool)) -> &str {
        assert!(resp.0.starts_with("{\"ok\":true"), "{}", resp.0);
        &resp.0
    }

    #[test]
    fn protocol_ping_load_update_detect_stats() {
        let s = state(&ServeConfig::new(RunProfile::FastCi, 2));
        assert_eq!(
            ok(&s.handle("{\"op\":\"ping\"}")),
            "{\"ok\":true,\"op\":\"ping\"}"
        );

        let load = s.handle(
            "{\"op\":\"load\",\"name\":\"g\",\"family\":\"planted:4\",\"n\":24,\"seed\":7}",
        );
        assert!(ok(&load).contains("\"nodes\":"), "{}", load.0);

        let upd =
            s.handle("{\"op\":\"update\",\"name\":\"g\",\"action\":\"insert\",\"u\":0,\"v\":5}");
        assert!(ok(&upd).contains("\"applied\":"), "{}", upd.0);

        let det = s.handle(
            "{\"op\":\"detect\",\"name\":\"g\",\"detector\":\"classical/C4/global-threshold-color-bfs\",\"seed\":1}",
        );
        assert!(ok(&det).contains("\"rejected\":"), "{}", det.0);

        let stats = s.handle("{\"op\":\"stats\"}");
        assert!(ok(&stats).contains("\"updates\":1"), "{}", stats.0);
        assert!(stats.0.contains("\"detects\":1"), "{}", stats.0);

        let names = s.handle("{\"op\":\"snapshots\"}");
        assert!(ok(&names).contains("\"names\":[\"g\"]"), "{}", names.0);
    }

    #[test]
    fn metrics_op_returns_prometheus_exposition() {
        let s = state(&ServeConfig::new(RunProfile::FastCi, 2));
        // A ping first, so at least one op-latency histogram exists.
        let _ = s.handle("{\"op\":\"ping\"}");
        let (resp, shutdown) = s.handle("{\"op\":\"metrics\"}");
        assert!(!shutdown);
        assert!(
            resp.starts_with("{\"ok\":true,\"op\":\"metrics\""),
            "{resp}"
        );
        assert!(resp.contains("# TYPE even_cycle_"), "{resp}");
        assert!(
            resp.contains("even_cycle_serve_op_ns_ping"),
            "ping latency series missing: {resp}"
        );
    }

    #[test]
    fn stats_reports_process_wide_fields() {
        let s = state(&ServeConfig::new(RunProfile::FastCi, 2));
        let (resp, _) = s.handle("{\"op\":\"stats\"}");
        for field in [
            "\"uptime_seconds\":",
            "\"total_connections\":",
            "\"total_rejections\":",
        ] {
            assert!(resp.contains(field), "{field} missing from {resp}");
        }
    }

    #[test]
    fn errors_are_reported_inline_not_fatally() {
        let s = state(&ServeConfig::new(RunProfile::FastCi, 2));
        for (request, expect) in [
            ("not json", "flat JSON"),
            ("{\"name\":\"g\"}", "no \\\"op\\\" field"),
            ("{\"op\":\"nope\"}", "unknown op"),
            (
                "{\"op\":\"load\",\"name\":\"g\",\"family\":\"nope\"}",
                "known families",
            ),
            (
                "{\"op\":\"detect\",\"name\":\"g\",\"detector\":\"global-threshold\"}",
                "no snapshot named",
            ),
            (
                "{\"op\":\"update\",\"name\":\"g\",\"action\":\"insert\",\"u\":0,\"v\":1}",
                "no snapshot",
            ),
            ("{\"op\":\"stats\",\"name\":\"g\"}", "no snapshot"),
        ] {
            let (resp, shutdown) = s.handle(request);
            assert!(!shutdown);
            assert!(resp.starts_with("{\"ok\":false"), "{request} -> {resp}");
            assert!(resp.contains(expect), "{request} -> {resp}");
        }
        // Ambiguous and unknown detector fragments both name candidates.
        let _ = s.handle("{\"op\":\"load\",\"name\":\"g\",\"family\":\"trees\",\"n\":16}");
        let (resp, _) = s.handle("{\"op\":\"detect\",\"name\":\"g\",\"detector\":\"C4\"}");
        assert!(resp.contains("ambiguous"), "{resp}");
        let (resp, _) = s.handle("{\"op\":\"detect\",\"name\":\"g\",\"detector\":\"zzz\"}");
        assert!(resp.contains("matches no registry entry"), "{resp}");
    }

    #[test]
    fn duplicate_detects_replay_from_the_store_byte_identically() {
        let dir = std::env::temp_dir().join(format!("ec-serve-dedup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = state(&ServeConfig::new(RunProfile::FastCi, 2).store(&dir));
        let _ = s.handle(
            "{\"op\":\"load\",\"name\":\"g\",\"family\":\"planted:4\",\"n\":24,\"seed\":3}",
        );
        let req = "{\"op\":\"detect\",\"name\":\"g\",\"detector\":\"global-threshold\",\"seed\":2}";
        let first = s.handle(req);
        let second = s.handle(req);
        assert_eq!(ok(&first), ok(&second), "duplicates must be byte-identical");
        let stats = s.handle("{\"op\":\"stats\",\"name\":\"g\"}");
        assert!(stats.0.contains("\"executed\":1"), "{}", stats.0);
        assert!(stats.0.contains("\"replayed\":1"), "{}", stats.0);

        // An update moves the content fingerprint: the next detect
        // cannot be served from the stale record.
        let _ =
            s.handle("{\"op\":\"update\",\"name\":\"g\",\"action\":\"insert\",\"u\":0,\"v\":9}");
        let third = s.handle(req);
        assert!(third.0.starts_with("{\"ok\":true"), "{}", third.0);
        let stats = s.handle("{\"op\":\"stats\",\"name\":\"g\"}");
        assert!(stats.0.contains("\"executed\":2"), "{}", stats.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dedup_survives_a_server_restart() {
        let dir = std::env::temp_dir().join(format!("ec-serve-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig::new(RunProfile::FastCi, 2).store(&dir);
        let load = "{\"op\":\"load\",\"name\":\"g\",\"family\":\"planted:4\",\"n\":24,\"seed\":3}";
        let req = "{\"op\":\"detect\",\"name\":\"g\",\"detector\":\"global-threshold\",\"seed\":0}";

        let s1 = state(&config);
        let _ = s1.handle(load);
        let first = s1.handle(req);
        drop(s1);

        // A fresh state over the same store: the same logical graph has
        // the same content fingerprint, so the verdict replays.
        let s2 = state(&config);
        let _ = s2.handle(load);
        let second = s2.handle(req);
        assert_eq!(first.0, second.0);
        let stats = s2.handle("{\"op\":\"stats\",\"name\":\"g\"}");
        assert!(stats.0.contains("\"executed\":0"), "{}", stats.0);
        assert!(stats.0.contains("\"replayed\":1"), "{}", stats.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    const LOAD_G: &str =
        "{\"op\":\"load\",\"name\":\"g\",\"family\":\"planted:4\",\"n\":24,\"seed\":3}";
    const DETECT_G: &str =
        "{\"op\":\"detect\",\"name\":\"g\",\"detector\":\"global-threshold\",\"seed\":2}";

    /// The graph `LOAD_G` builds, with one of its edges and one edge it
    /// lacks.
    fn loaded_graph() -> (Graph, (u32, u32), (u32, u32)) {
        let g = FamilySpec::parse("planted:4").unwrap().build(24, 3);
        let (u, v) = g.edges().next().unwrap();
        let absent = (1..24)
            .find(|&w| !g.has_edge(NodeId::new(0), NodeId::new(w)))
            .unwrap();
        (g, (u.raw(), v.raw()), (0, absent))
    }

    fn update_g(action: &str, (u, v): (u32, u32)) -> String {
        format!("{{\"op\":\"update\",\"name\":\"g\",\"action\":\"{action}\",\"u\":{u},\"v\":{v}}}")
    }

    fn key_of(line: &str) -> String {
        let fields = parse_flat(line).unwrap();
        fields
            .get("key")
            .and_then(Field::as_str)
            .unwrap()
            .to_string()
    }

    /// `(executed, replayed)` of snapshot `g`.
    fn counts(s: &ServeState) -> (u64, u64) {
        let snapshots = s.snapshots.lock().unwrap();
        let stats = &snapshots["g"].stats;
        (stats.executed, stats.replayed)
    }

    fn store_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ec-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn a_no_op_update_keeps_the_key_and_the_memo() {
        let dir = store_dir("noop");
        let s = state(&ServeConfig::new(RunProfile::FastCi, 2).store(&dir));
        let _ = s.handle(LOAD_G);
        let first = s.handle(DETECT_G);
        let memo = Arc::clone(&s.snapshots.lock().unwrap()["g"].current);
        assert!(memo.get().is_some(), "the detect froze its generation");
        let (_, present, absent) = loaded_graph();
        for (round, update) in [update_g("insert", present), update_g("delete", absent)]
            .iter()
            .enumerate()
        {
            assert!(ok(&s.handle(update)).contains("\"applied\":false"));
            let current = Arc::clone(&s.snapshots.lock().unwrap()["g"].current);
            assert!(Arc::ptr_eq(&memo, &current), "{update} dropped the memo");
            assert_eq!(s.handle(DETECT_G).0, first.0);
            assert_eq!(counts(&s), (1, round as u64 + 1));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn insert_then_delete_brings_back_the_first_key() {
        let dir = store_dir("toggle");
        let s = state(&ServeConfig::new(RunProfile::FastCi, 2).store(&dir));
        let _ = s.handle(LOAD_G);
        let first = s.handle(DETECT_G);
        let (_, _, absent) = loaded_graph();
        assert!(ok(&s.handle(&update_g("insert", absent))).contains("\"applied\":true"));
        let inserted = s.handle(DETECT_G);
        assert_ne!(key_of(ok(&inserted)), key_of(ok(&first)));
        assert!(ok(&s.handle(&update_g("delete", absent))).contains("\"applied\":true"));
        assert_eq!(
            s.handle(DETECT_G).0,
            first.0,
            "the first verdict line replays"
        );
        assert_eq!(counts(&s), (2, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_reload_under_the_same_name_moves_the_key() {
        let dir = store_dir("reload");
        let s = state(&ServeConfig::new(RunProfile::FastCi, 2).store(&dir));
        let _ = s.handle(LOAD_G);
        let first = s.handle(DETECT_G);
        let _ = s.handle(&LOAD_G.replace("\"seed\":3", "\"seed\":4"));
        let other = s.handle(DETECT_G);
        assert_ne!(key_of(ok(&other)), key_of(ok(&first)));
        assert_eq!(counts(&s), (1, 0), "another graph executes");
        let _ = s.handle(LOAD_G);
        assert_eq!(s.handle(DETECT_G).0, first.0);
        assert_eq!(counts(&s), (0, 1), "the first graph replays");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_fingerprint_finished_after_an_update_does_not_stick() {
        let s = state(&ServeConfig::new(RunProfile::FastCi, 2));
        let _ = s.handle(LOAD_G);
        let (base, _, absent) = loaded_graph();
        // A detect takes its view, an update lands, then the detect
        // finishes its fingerprint: of the content it saw.
        let view = s.view("g").unwrap();
        assert!(matches!(view, View::Unfrozen(..)));
        assert!(ok(&s.handle(&update_g("insert", absent))).contains("\"applied\":true"));
        let stale = view.freeze();
        assert_eq!(
            stale.fingerprint,
            unit_key(&congest_graph::serialize::to_text(&base))
        );
        // The next detect keys the updated graph, as on a server that
        // never saw the stale view.
        let fresh = state(&ServeConfig::new(RunProfile::FastCi, 2));
        let _ = fresh.handle(LOAD_G);
        let _ = fresh.handle(&update_g("insert", absent));
        let want = fresh.handle(DETECT_G);
        assert_eq!(key_of(ok(&s.handle(DETECT_G))), key_of(ok(&want)));
    }

    #[test]
    fn admission_control_rejects_when_slots_stay_busy() {
        // Zero-duration cap + a hogged slot: the second executing
        // request must be refused, not queued forever.
        let s = state(
            &ServeConfig::new(RunProfile::FastCi, 2)
                .max_inflight(1)
                .schedule(Schedule::default().with_wall_clock_cap(std::time::Duration::ZERO)),
        );
        let _ = s.handle("{\"op\":\"load\",\"name\":\"g\",\"family\":\"planted:4\",\"n\":24}");
        assert!(s.acquire_slot(), "the free slot must be grantable");
        let (resp, _) =
            s.handle("{\"op\":\"detect\",\"name\":\"g\",\"detector\":\"global-threshold\"}");
        assert!(resp.contains("admission:"), "{resp}");
        s.release_slot();
        let (resp, _) =
            s.handle("{\"op\":\"detect\",\"name\":\"g\",\"detector\":\"global-threshold\"}");
        assert!(resp.starts_with("{\"ok\":true"), "{resp}");
        let stats = s.handle("{\"op\":\"stats\"}");
        assert!(stats.0.contains("\"admission_rejected\":1"), "{}", stats.0);
    }
}
