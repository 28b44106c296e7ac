//! Telemetry invariance: installing a recorder must not change a
//! single result byte. The simulator's transcripts, the engine's
//! reports, and the store's JSONL records are all part of the
//! deterministic contract — observation has to be read-only.

use std::sync::Arc;

use even_cycle_congest::registry::DetectorRegistry;
use even_cycle_congest::scenario::{GraphFamily, Metric, Scenario};
use even_cycle_congest::telemetry;
use even_cycle_congest::{Detector, RunProfile};

/// Every store file under `dir` as `(name, bytes)`, sorted by name.
fn store_bytes(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("store dir exists")
        .map(|entry| {
            let entry = entry.expect("readable store entry");
            (
                entry.file_name().to_string_lossy().into_owned(),
                std::fs::read(entry.path()).expect("readable store file"),
            )
        })
        .collect();
    files.sort();
    files
}

/// The acceptance gate of the telemetry subsystem, asserted across the
/// whole fast-ci registry (every detector shape: randomized color-BFS,
/// deterministic gather, quantum pipelines): a full sweep with the
/// JSONL sink recording every span and counter produces byte-identical
/// reports AND byte-identical store files to the same sweep with no
/// recorder installed. One test function owns the whole sequence —
/// `install`/`uninstall` swap process-global state, so the on and off
/// runs must not race a second test.
#[test]
fn recorder_is_result_invariant_across_the_registry() {
    let registry = DetectorRegistry::with_profile(2, RunProfile::FastCi);
    let dets: Vec<&dyn Detector> = registry.iter().map(|e| e.detector.as_ref()).collect();

    let base = std::env::temp_dir().join(format!("ec-telemetry-inv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("scratch dir");
    let off_dir = base.join("off");
    let on_dir = base.join("on");
    let trace = base.join("trace.jsonl");

    let scenario = |dir: &std::path::Path| {
        Scenario::new("telemetry invariance", GraphFamily::planted_cycle(4))
            .sizes(&[16, 24])
            .seeds(0..2)
            .workers(2)
            .metric(Metric::Rounds)
            .store(dir)
    };

    telemetry::uninstall();
    let report_off = scenario(&off_dir).run(&dets).to_json();

    let sink = telemetry::JsonlSink::create(&trace).expect("trace file");
    telemetry::install(Arc::new(sink));
    let report_on = scenario(&on_dir).run(&dets).to_json();
    telemetry::uninstall();

    assert_eq!(
        report_off, report_on,
        "an installed recorder must not change a report byte"
    );
    assert_eq!(
        store_bytes(&off_dir),
        store_bytes(&on_dir),
        "an installed recorder must not change a store byte"
    );

    // The recording run must actually have traced: spans from every
    // layer land in the sink as parseable flat-JSON lines tagged with
    // the reserved `ev` key.
    let trace_text = std::fs::read_to_string(&trace).expect("trace was written");
    assert!(
        trace_text.lines().count() > 0,
        "the recording run must emit events"
    );
    for line in trace_text.lines().take(100) {
        let fields = telemetry::parse_flat_line(line).expect("flat-JSON event line");
        assert!(
            fields.iter().any(|(k, _)| k == "ev"),
            "event line missing `ev`: {line}"
        );
        assert!(
            fields.iter().any(|(k, _)| k == "name"),
            "event line missing `name`: {line}"
        );
    }

    // Every simulator run carries its phase profile: five non-negative
    // integer nanosecond totals that add up to no more than the span
    // (whose duration is truncated to whole microseconds).
    let mut sim_runs = 0;
    for line in trace_text.lines() {
        let fields = telemetry::parse_flat_line(line).expect("flat-JSON event line");
        let field = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        if field("name").and_then(|v| v.as_str()) != Some("sim.run") {
            continue;
        }
        sim_runs += 1;
        let mut phases_ns = 0.0;
        for phase in ["reset_ns", "step_ns", "account_ns", "deliver_ns", "scan_ns"] {
            let ns = field(phase).and_then(|v| v.as_f64());
            let ns = ns.unwrap_or_else(|| panic!("sim.run without {phase}: {line}"));
            assert!(ns >= 0.0 && ns.fract() == 0.0, "{phase} = {ns}: {line}");
            phases_ns += ns;
        }
        let dur_us = field("dur_us").and_then(|v| v.as_f64()).expect("dur_us");
        assert!(
            phases_ns <= (dur_us + 1.0) * 1000.0,
            "the phases outlast the run: {line}"
        );
    }
    assert!(sim_runs > 0, "the recording run must simulate");

    // And the Chrome mirror of that trace must convert losslessly.
    let chrome = base.join("trace.chrome.json");
    let events = telemetry::convert_file(&trace, &chrome).expect("chrome conversion");
    assert_eq!(
        events,
        trace_text.lines().count(),
        "every JSONL event converts to one trace_event"
    );
    let chrome_text = std::fs::read_to_string(&chrome).expect("chrome file");
    assert!(chrome_text.starts_with("{\"traceEvents\":["));
    assert!(chrome_text.trim_end().ends_with('}'));

    std::fs::remove_dir_all(&base).ok();
}

/// The registry snapshot after a sweep reflects the work the engine
/// did: metrics are process-global and always on, so executed-unit and
/// superstep counters must be non-zero once any sweep has run — with
/// or without a recorder installed.
#[test]
fn metrics_registry_counts_work_without_a_recorder() {
    // No recorder is installed by this test; metrics are always-on.
    let registry = DetectorRegistry::with_profile(2, RunProfile::FastCi);
    let first = registry.iter().next().expect("registry is never empty");
    let dets: Vec<&dyn Detector> = vec![first.detector.as_ref()];
    let _ = Scenario::new("metrics smoke", GraphFamily::planted_cycle(4))
        .sizes(&[16])
        .seeds(0..1)
        .run(&dets);

    let snapshot = telemetry::Registry::global().snapshot();
    let flat = snapshot.to_flat_json();
    let fields = telemetry::parse_flat_line(&flat).expect("snapshot is flat JSON");
    let value = |key: &str| {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_f64())
            .unwrap_or_else(|| panic!("snapshot missing {key}"))
    };
    assert!(value("engine.units.executed") >= 1.0);
    assert!(value("sim.runs") >= 1.0);
    assert!(value("engine.unit_ns.count") >= 1.0);

    // The Prometheus rendering exposes the same registry under the
    // even_cycle prefix.
    let prom = snapshot.to_prometheus("even_cycle");
    assert!(prom.contains("# TYPE even_cycle_engine_units_executed counter"));
    assert!(prom.contains("even_cycle_engine_unit_ns_count"));
}
