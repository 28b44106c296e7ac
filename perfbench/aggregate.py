#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises the spread.

    python3 perfbench/aggregate.py [--runs 10] [--seconds S]
        [--workloads smoke-suite,classical-large] [--first-seed 1]
        [--write perfbench/baseline.json]

For each workload it makes one untraced run per seed (seeds first-seed,
first-seed+1, ...), then one traced run, all through the command in
BENCHMARK.json. Per end-to-end metric it prints the sample count, the
median, the quartiles (statistics.quantiles(n=4)), and the spread: the
distance between the quartiles as a share of the median. With --write it
records all of that, the host block, each workload's "why", and each
per-layer metric with the end-to-end metric it should move, as JSON.

Run it from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# Per-layer metric families and the end-to-end metric (on the workload)
# each should move. A name ending in "." covers every metric it prefixes.
MOVES = {
    "graph.build_ms": "setup_s (classical-large)",
    "graph.snapshot_ms": "light_ms (serve-mixed); nothing on smoke-suite",
    "graph.fingerprint_ms": "light_ms (serve-mixed); nothing on smoke-suite",
    "graph.update_us": "update_p50_ms in the serve-mixed output",
    "sim.runs": "nothing: a change that only speeds up sim leaves it identical",
    "sim.supersteps": "nothing: a change that only speeds up sim leaves it identical",
    "sim.messages": "nothing: a change that only speeds up sim leaves it identical",
    "sim.ns_per_superstep": "exec_s (classical-large)",
    "sim.ns_per_message": "exec_s (classical-large)",
    "sim.run_us": "exec_s (smoke-suite)",
    "sim.par2_speedup": "exec_2t_s (classical-large) only",
    "sim.pool.idle_share": "exec_2t_s (classical-large) only",
    "cycle.unit_ms.": "exec_s (smoke-suite); flat under quantum-only changes",
    "cycle.self_share": "exec_s (classical-large)",
    "quantum.unit_ms.": "exec_s and exec_2t_s (smoke-suite); nothing elsewhere",
    "quantum.sim_runs_per_unit": "exec_s and exec_2t_s (smoke-suite); nothing elsewhere",
    "quantum.share": "exec_s and exec_2t_s (smoke-suite); nothing elsewhere",
    "engine.store_open_ms": "light_ms (smoke-suite)",
    "engine.replay_units_per_s": "light_ms (smoke-suite)",
    "engine.units.executed": "light_ms (smoke-suite): 580 on the cold sweep",
    "engine.units.replayed": "light_ms (smoke-suite): 580 on the replay",
    "engine.overhead_share": "exec_2t_s (smoke-suite)",
    "engine.pool.idle_share": "exec_2t_s (smoke-suite)",
    "engine.graph_cache.": "exec_2t_s (smoke-suite)",
    "serve.server_ms.": "light_ms and exec_2t_s (serve-mixed), against client latency",
    "serve.protocol_ms": "ops_per_s and update_p50_ms (serve-mixed)",
    "serve.executed": "exec_2t_s (serve-mixed) and the failed count",
    "serve.replayed": "light_ms (serve-mixed)",
    "serve.admission_rejected": "the failed count (serve-mixed)",
    "telemetry.events.": "nothing: trace volume; end-to-end runs are untraced",
    "telemetry.overhead_pct": "nothing: tracing cost; end-to-end runs are untraced",
}

# What each end-to-end metric is on each workload. Timings are medians of
# the run's samples in calibrated seconds (see perfbench/src/calib.rs).
MEANING = {
    "smoke-suite": {
        "setup_s": "suite parse + prepare, exact ground truth of every instance, engine warm-up",
        "exec_s": "cold sweep of the 580 units at 1 engine worker: sum of per-stanza medians",
        "exec_2t_s": "cold sweep at 2 engine workers: sum of per-stanza medians",
        "light_ms": "replay of all 580 units from the store (sweep_replay_s)",
        "ops_per_s": "units per second of the 2-worker cold sweep",
    },
    "classical-large": {
        "setup_s": "building both instances, simulator pool warm-up",
        "exec_s": "sequential pass: median sparse_seq_s + median dense_seq_s",
        "exec_2t_s": "parallel:2 pass: median sparse_par2_s + median dense_par2_s",
        "light_ms": "one sequential detection on the dense instance (dense_seq_s)",
        "ops_per_s": "detections per second under parallel:2",
    },
    "serve-mixed": {
        "setup_s": "bind, load both snapshots, detect each base snapshot",
        "exec_s": "median latency of an executing detect, one client alone",
        "exec_2t_s": "median latency of an executing detect, two clients",
        "light_ms": "median latency of a replayed detect, two clients",
        "ops_per_s": "requests per calibrated second, two clients",
    },
}


def run(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(args, check=True, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "n": len(values),
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
    }


def moves(name):
    for key, target in MOVES.items():
        if name == key or (key.endswith(".") and name.startswith(key)):
            return target
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--write", default=None)
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = opts.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = opts.workloads.split(",")

    result = {"workloads": {}}
    for w in bench["workloads"]:
        if w["name"] in workloads:
            result["workloads"][w["name"]] = {"why": w["why"]}
    for workload in workloads:
        samples = {}
        failed = 0
        for seed in range(opts.first_seed, opts.first_seed + opts.runs):
            line, lines = run(bench["command"], workload, seed, seconds, 0)
            host = next((l[len("host: "):] for l in lines if l.startswith("host: ")), "")
            failed += line["failed"]
            for name, m in line["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in line["metrics"].items()),
                file=sys.stderr)
        entry = result["workloads"][workload]
        entry["host"] = host
        entry["failed"] = failed
        entry["end_to_end"] = {}
        for name, values in samples.items():
            s = summary(values)
            s["meaning"] = MEANING.get(workload, {}).get(name)
            entry["end_to_end"][name] = s
            flag = ""
            if name != "setup_s" and s["spread"] > bounds.get(name, 1) / 3:
                flag = "  <-- spread above a third of the bound"
            print(f"{workload:16} {name:12} n={s['n']} median={s['median']:.6g} "
                  f"q1={s['q1']:.6g} q3={s['q3']:.6g} spread={s['spread']:.4f} "
                  f"bound={bounds.get(name)}{flag}")
        if opts.write:
            line, _ = run(bench["command"], workload, opts.first_seed, seconds, 1)
            entry["per_layer"] = {
                name: {"value": m["value"], "unit": m["unit"], "moves": moves(name)}
                for name, m in line["metrics"].items()
            }
    if opts.write:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True).stdout.strip()
        result["commit"] = commit or "unknown"
        result["nproc"] = os.cpu_count()
        result["seconds"] = seconds
        result["seeds"] = list(range(opts.first_seed, opts.first_seed + opts.runs))
        with open(opts.write, "w") as f:
            json.dump(result, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
