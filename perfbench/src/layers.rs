//! The per-layer metrics of the traced run: one fixed list, the same on
//! every workload, so a layer a workload does not touch reads 0.
//!
//! Layers are the repository's modules: `graph` (congest_graph), `sim`
//! (congest_sim), `cycle` (the classical detectors), `quantum`
//! (congest_quantum and the quantum pipelines), `engine` (src/engine),
//! `serve` (src/serve.rs), and `telemetry`.

use std::collections::BTreeMap;

use even_cycle_congest::engine::store::unit_key;
use even_cycle_congest::graph::{serialize, Graph, NodeId};
use even_cycle_congest::{DetectorRegistry, Model, MutableGraph, RunProfile};

use crate::stats::median;
use crate::trace::{Counters, Trace};
use crate::{mix, now, secs};

/// Span and event names whose volume the traced run reports.
pub const EVENT_NAMES: [&str; 6] = [
    "sim.run",
    "sim.round",
    "engine.unit",
    "engine.graph_build",
    "engine.pool",
    "serve.op",
];

/// The registry every workload draws its detectors from.
pub fn registry() -> DetectorRegistry {
    RunProfile::FastCi.registry(2)
}

/// The per-detector metric name: `prefix.` + the id without its model
/// segment, with `/` as `.` (`cycle.unit_ms.C4.global-threshold-color-bfs`).
pub fn detector_metric(prefix: &str, id: &str) -> String {
    let rest = id.split_once('/').map_or(id, |(_, rest)| rest);
    format!("{prefix}.{}", rest.replace('/', "."))
}

/// The per-layer values of one traced run, all present from the start.
pub struct Layers {
    values: BTreeMap<String, (f64, &'static str)>,
    order: Vec<String>,
}

impl Layers {
    /// Every per-layer metric, at 0.
    pub fn new() -> Layers {
        let mut names: Vec<(String, &'static str)> = Vec::new();
        let mut add = |name: &str, unit: &'static str| names.push((name.to_string(), unit));
        add("graph.build_ms", "ms");
        add("graph.snapshot_ms", "ms");
        add("graph.fingerprint_ms", "ms");
        add("graph.update_us", "us");
        add("sim.runs", "count");
        add("sim.supersteps", "count");
        add("sim.messages", "count");
        add("sim.ns_per_superstep", "ns");
        add("sim.ns_per_message", "ns");
        add("sim.run_us", "us");
        add("sim.par2_speedup", "x");
        add("sim.pool.idle_share", "ratio");
        let registry = registry();
        for model in [Model::Classical, Model::Quantum] {
            for entry in registry.by_model(model) {
                let prefix = match model {
                    Model::Classical => "cycle.unit_ms",
                    Model::Quantum => "quantum.unit_ms",
                };
                add(&detector_metric(prefix, &entry.id), "ms");
            }
        }
        add("cycle.self_share", "ratio");
        add("quantum.sim_runs_per_unit", "count");
        add("quantum.share", "ratio");
        add("engine.store_open_ms", "ms");
        add("engine.replay_units_per_s", "1/s");
        add("engine.units.executed", "count");
        add("engine.units.replayed", "count");
        add("engine.overhead_share", "ratio");
        add("engine.pool.idle_share", "ratio");
        add("engine.graph_cache.hits", "count");
        add("engine.graph_cache.misses", "count");
        add("serve.server_ms.detect_exec", "ms");
        add("serve.server_ms.detect_replay", "ms");
        add("serve.server_ms.update", "ms");
        add("serve.protocol_ms", "ms");
        add("serve.executed", "count");
        add("serve.replayed", "count");
        add("serve.admission_rejected", "count");
        for event in EVENT_NAMES {
            add(&format!("telemetry.events.{event}"), "count");
        }
        add("telemetry.overhead_pct", "%");
        Layers {
            order: names.iter().map(|(n, _)| n.clone()).collect(),
            values: names.into_iter().map(|(n, u)| (n, (0.0, u))).collect(),
        }
    }

    /// Sets one metric.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the fixed list: that is a benchmark bug.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name:?}"));
        slot.0 = value;
    }

    /// Prints the per-layer summary table.
    pub fn print_table(&self) {
        println!("{:<10} {:<52} {:>16} unit", "layer", "metric", "value");
        for name in &self.order {
            let (value, unit) = self.values[name];
            let layer = name.split('.').next().unwrap_or("");
            println!("{layer:<10} {name:<52} {value:>16.4} {unit}");
        }
    }

    /// The metrics in their fixed order.
    pub fn into_metrics(mut self) -> Vec<(String, f64, &'static str)> {
        self.order
            .iter()
            .map(|name| {
                let (value, unit) = self.values.remove(name).expect("every name has a value");
                (name.clone(), value, unit)
            })
            .collect()
    }
}

/// Fills the `sim` layer and the trace volume from one traced section:
/// counter deltas since `before`, and the `sim.run` spans of `trace`.
pub fn fill_sim(layers: &mut Layers, trace: &Trace, before: &Counters) {
    let supersteps = before.delta("sim.supersteps");
    let messages = before.delta("sim.messages.delivered");
    let run_ns = trace.total_us("sim.run") as f64 * 1e3;
    layers.set("sim.runs", before.delta("sim.runs") as f64);
    layers.set("sim.supersteps", supersteps as f64);
    layers.set("sim.messages", messages as f64);
    layers.set("sim.ns_per_superstep", run_ns / supersteps.max(1) as f64);
    layers.set("sim.ns_per_message", run_ns / messages.max(1) as f64);
    layers.set("sim.run_us", trace.mean_ms("sim.run", |_| true) * 1e3);
    let (busy, idle) = (
        before.delta("sim.pool.busy_ns"),
        before.delta("sim.pool.idle_ns"),
    );
    layers.set("sim.pool.idle_share", share(idle, busy + idle));
    for event in EVENT_NAMES {
        layers.set(
            &format!("telemetry.events.{event}"),
            trace.count(event) as f64,
        );
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Times the `graph` layer's update path on `g`: edge inserts and
/// deletes through [`MutableGraph`], the snapshot a detect request
/// takes, and the content fingerprint it computes (`to_text` +
/// `unit_key`). Medians of `reps` rounds on edges drawn from `seed`.
/// Returns `(snapshot_ms, fingerprint_ms, update_us)`.
pub fn graph_probe(g: &Graph, seed: u64, reps: usize) -> (f64, f64, f64) {
    let n = g.node_count() as u64;
    let mut mutable = MutableGraph::from_graph(g.clone());
    let (mut snap, mut print, mut update) = (Vec::new(), Vec::new(), Vec::new());
    let mut draw = 0u64;
    for _ in 0..reps {
        let (u, v) = loop {
            draw += 1;
            let u = NodeId::new((mix(seed, 2 * draw) % n) as u32);
            let v = NodeId::new((mix(seed, 2 * draw + 1) % n) as u32);
            if u != v && !mutable.has_edge(u, v) {
                break (u, v);
            }
        };
        let t = now();
        let inserted = mutable.insert_edge(u, v);
        update.push(secs(t) * 1e6);
        let t = now();
        let snapshot = mutable.snapshot();
        snap.push(secs(t) * 1e3);
        let t = now();
        let key = unit_key(&serialize::to_text(&snapshot));
        print.push(secs(t) * 1e3);
        std::hint::black_box(key);
        let t = now();
        let deleted = mutable.delete_edge(u, v);
        update.push(secs(t) * 1e6);
        assert!(
            matches!((inserted, deleted), (Ok(true), Ok(true))),
            "probe edge {u:?}-{v:?} must insert and delete"
        );
    }
    (median(&snap), median(&print), median(&update))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_short_unique_and_plain() {
        let layers = Layers::new();
        for name in &layers.order {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "{name}"
            );
        }
        let mut sorted = layers.order.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), layers.order.len(), "names are unique");
        assert_eq!(
            detector_metric("cycle.unit_ms", "classical/C4/global-threshold-color-bfs"),
            "cycle.unit_ms.C4.global-threshold-color-bfs"
        );
    }
}
