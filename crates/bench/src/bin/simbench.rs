//! `simbench` — the simulator measurements perfbench does not take,
//! machine-readable.
//!
//! Three sections. A deliver-scaling microbenchmark measures the
//! touched-edge accounting of the superstep core: at fixed `n`, the
//! per-superstep cost of a quiet protocol should stay flat as the total
//! edge count grows (nothing asserts it, but an `O(m)`-per-superstep
//! deliver shows up in the rows immediately). A streaming section replays one fixed seeded
//! [`UpdateSchedule`] and reports edge-update throughput (updates/sec
//! through `MutableGraph`) and per-checkpoint verdict latency
//! (snapshot + detect at every checkpoint). A `crossover` section
//! sweeps a sparse 4-regular family at large n on the sequential and
//! pooled-parallel backends — the measurement
//! `Backend::DEFAULT_AUTO_NODE_THRESHOLD` is tuned from. Per-detector
//! unit times and the telemetry overhead are perfbench's
//! (`cycle.unit_ms.*`, `quantum.unit_ms.*`, `telemetry.overhead_pct`).
//!
//! ```text
//! cargo run --release -p even-cycle-bench --bin simbench -- \
//!     [--smoke] [--out target/BENCH_sim.json]
//! ```
//!
//! The output is a single JSON object; CI runs `--smoke` and uploads
//! the file as the `bench-sim` artifact, so regressions in the
//! superstep core leave a visible trail.

use std::process::ExitCode;
use std::time::Instant;

use congest_graph::{generators, MutableGraph, NodeId};
use congest_sim::{run_with_backend, Backend, Control, Ctx, Outbox, Program};
use even_cycle_congest::registry::DetectorRegistry;
use even_cycle_congest::telemetry::json_escape;
use even_cycle_congest::{Budget, RunProfile, UpdateSchedule};
use rand::Rng;

/// The seed every measurement derives from (fixed: the grid must be
/// comparable across commits).
const SEED: u64 = 1;

struct Args {
    smoke: bool,
    out: String,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        smoke: false,
        out: "target/BENCH_sim.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--out" => {
                args.out = it
                    .next()
                    .ok_or_else(|| "--out expects a path".to_string())?;
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Some(args))
}

/// One quiet node keeps a single edge busy while everyone else halts
/// immediately: per superstep the deliver touches O(1) edges on a
/// graph whose directed-edge count the grid grows.
#[derive(Debug)]
struct QuietPing {
    steps: usize,
    holder: bool,
}

impl Program for QuietPing {
    type Msg = u32;
    fn init(&mut self, ctx: &mut Ctx, out: &mut Outbox<u32>) {
        if self.holder {
            out.send(ctx.neighbors[0], 0);
        }
    }
    fn step(
        &mut self,
        ctx: &mut Ctx,
        s: usize,
        _inbox: &[(NodeId, u32)],
        out: &mut Outbox<u32>,
    ) -> Control {
        if self.holder && s + 1 < self.steps {
            out.send(ctx.neighbors[0], s as u32);
            Control::Continue
        } else {
            Control::Halt
        }
    }
}

/// Every node stays live every superstep: broadcast gossip plus a
/// slice of per-node RNG work. This is the workload shape the worker
/// pool can actually speed up — the step phase dominates and spreads
/// across chunks, while delivery stays sequential by contract — so it
/// is what the crossover grid sweeps.
#[derive(Debug)]
struct SparseGossip {
    steps: usize,
    acc: u64,
}

impl Program for SparseGossip {
    type Msg = u32;
    fn init(&mut self, ctx: &mut Ctx, out: &mut Outbox<u32>) {
        out.broadcast(ctx.rng.gen_range(0..1u32 << 30));
    }
    fn step(
        &mut self,
        ctx: &mut Ctx,
        s: usize,
        inbox: &[(NodeId, u32)],
        out: &mut Outbox<u32>,
    ) -> Control {
        for &(_, m) in inbox {
            self.acc = self
                .acc
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(u64::from(m));
        }
        for _ in 0..8 {
            self.acc ^= u64::from(ctx.rng.gen_range(0..u32::MAX));
        }
        if s + 1 < self.steps {
            out.broadcast((self.acc >> 32) as u32);
            Control::Continue
        } else {
            Control::Halt
        }
    }
}

/// Times one run and returns (wall_ns, supersteps); takes the best of
/// `samples` timed runs after one warm-up (seed-determinism makes the
/// work identical; the minimum strips scheduler noise).
fn time_run<P, F>(
    g: &congest_graph::Graph,
    backend: Backend,
    build: F,
    max_supersteps: u64,
    samples: usize,
) -> (u128, u64)
where
    P: Program + Send,
    P::Msg: Send + Sync,
    F: Fn(NodeId, usize) -> P + Copy,
{
    let _ = run_with_backend(g, SEED, backend, 1, None, build, max_supersteps);
    let mut best = u128::MAX;
    let mut supersteps = 0;
    for _ in 0..samples.max(1) {
        let t = Instant::now();
        let (report, _) = run_with_backend(g, SEED, backend, 1, None, build, max_supersteps)
            .expect("benchmark programs cannot violate the model");
        best = best.min(t.elapsed().as_nanos());
        supersteps = report.supersteps;
    }
    (best, supersteps)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("usage: simbench [--smoke] [--out PATH]");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let sizes: &[usize] = if args.smoke {
        &[24, 32]
    } else {
        &[64, 128, 256]
    };
    let backends = [Backend::Sequential, Backend::Parallel { threads: 2 }];
    let registry = DetectorRegistry::with_profile(2, RunProfile::FastCi);

    // --- deliver scaling: fixed n, growing edge count, quiet load ---
    // With touched-edge accounting the per-superstep cost must not
    // scale with the total (directed) edge count; before the unified
    // core, the parallel deliver zeroed the full edge_words vector
    // every superstep and this sweep grew linearly in m.
    let (dn, steps) = if args.smoke {
        (4_000, 128)
    } else {
        (20_000, 512)
    };
    let mut deliver_rows: Vec<String> = Vec::new();
    for deg in [2.0f64, 8.0, 32.0] {
        let g = generators::erdos_renyi(dn, deg / dn as f64, 7);
        // Sparse ER graphs have isolated vertices; the pinger must be
        // a node that actually has a neighbor to keep an edge busy.
        let holder = g
            .nodes()
            .find(|&v| g.degree(v) >= 1)
            .expect("bench graph has at least one edge");
        for backend in backends {
            let build = |v: NodeId, _: usize| QuietPing {
                steps,
                holder: v == holder,
            };
            // Warm-up, then timed.
            let _ = run_with_backend(&g, SEED, backend, 1, None, build, steps as u64 + 4);
            let t = Instant::now();
            let (report, _) = run_with_backend(&g, SEED, backend, 1, None, build, steps as u64 + 4)
                .expect("quiet ping cannot violate the model");
            let ns_per_superstep = t.elapsed().as_nanos() / u128::from(report.supersteps.max(1));
            deliver_rows.push(format!(
                "{{\"n\":{},\"directed_edges\":{},\"backend\":\"{}\",\"supersteps\":{},\"ns_per_superstep\":{}}}",
                dn,
                g.directed_edge_count(),
                backend.label(),
                report.supersteps,
                ns_per_superstep,
            ));
            eprintln!(
                "deliver n {dn:>6}  m_dir {:>8}  {:<12} {ns_per_superstep:>9} ns/superstep",
                g.directed_edge_count(),
                backend.label(),
            );
        }
    }

    // --- streaming: updates/sec + checkpoint-verdict latency on one
    // --- fixed seeded schedule ---
    // The schedule label is part of the benchmark's identity: changing
    // it breaks comparability across commits, exactly like SEED.
    let schedule = UpdateSchedule::parse("planted:4@rate=32,mix=0.6,checkpoints=4")
        .expect("fixed benchmark schedule");
    let stream_detector = registry.iter().next().expect("registry is never empty");
    let mut streaming_rows: Vec<String> = Vec::new();
    for &n in sizes {
        // Update throughput: the full seeded stream applied through
        // MutableGraph, no snapshots in the timed region (warm-up run
        // first, as above).
        let (base, updates) = schedule.generate(n, SEED);
        for _ in 0..2 {
            let mut g = MutableGraph::from_graph(base.clone());
            for &u in &updates {
                g.apply(u).expect("generated updates are always in range");
            }
        }
        let t = Instant::now();
        let mut g = MutableGraph::from_graph(base.clone());
        for &u in &updates {
            g.apply(u).expect("generated updates are always in range");
        }
        let update_wall_ns = t.elapsed().as_nanos();
        let updates_per_sec = if update_wall_ns > 0 {
            format!(
                "{:.1}",
                updates.len() as f64 / (update_wall_ns as f64 / 1e9)
            )
        } else {
            "null".to_string()
        };

        for backend in backends {
            // Verdict latency: snapshot + detect at every checkpoint of
            // the replayed stream.
            let budget = Budget::classical().with_backend(backend);
            let mut replay = schedule.replay(n, SEED);
            let mut verdict_ns: Vec<u128> = Vec::new();
            loop {
                // The checkpoint's update batch + snapshot folds into
                // the verdict latency: that pair IS the cost of asking
                // "and now?" on a live stream.
                let t = Instant::now();
                let Some((_, snap)) = replay.next_checkpoint() else {
                    break;
                };
                if let Err(e) = stream_detector.detector.detect(&snap, SEED, &budget) {
                    eprintln!("{}: streaming n = {n}: {e}", stream_detector.id);
                    return ExitCode::FAILURE;
                }
                verdict_ns.push(t.elapsed().as_nanos());
            }
            let mean = verdict_ns.iter().sum::<u128>() / verdict_ns.len().max(1) as u128;
            let per_checkpoint: Vec<String> = verdict_ns.iter().map(|ns| ns.to_string()).collect();
            streaming_rows.push(format!(
                "{{\"schedule\":\"{}\",\"id\":\"{}\",\"n\":{},\"seed\":{},\"backend\":\"{}\",\"updates\":{},\"update_wall_ns\":{},\"updates_per_sec\":{},\"checkpoint_verdict_ns\":[{}],\"mean_verdict_ns\":{}}}",
                json_escape(&schedule.canonical_label()),
                json_escape(&stream_detector.id),
                n,
                SEED,
                backend.label(),
                updates.len(),
                update_wall_ns,
                updates_per_sec,
                per_checkpoint.join(","),
                mean,
            ));
            eprintln!(
                "stream {:<38} n {n:>4}  {:<12} {updates_per_sec:>12} upd/s  {mean:>9} ns/verdict",
                schedule.canonical_label(),
                backend.label(),
            );
        }
    }

    // --- crossover: sparse large-n grid, sequential vs pooled parallel ---
    // The question this section answers is *where* the persistent
    // worker pool starts paying for its coordination: the same seeded
    // workload on `Backend::Sequential` and `Backend::Parallel` over a
    // sparse 4-regular-ish family, sizes spanning the claimed 10k–1M
    // range (plus smaller rows to bracket the flip point). The
    // microbench arm (every node live every superstep) is the
    // workload the pool is built for; the detector arm confirms the
    // flip on a real registry entry. `measured_crossover_n` — the
    // smallest microbench n where parallel wins — is what
    // `Backend::DEFAULT_AUTO_NODE_THRESHOLD` is tuned from.
    let host_parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let cross_sizes: &[usize] = if args.smoke {
        &[4_000, 20_000]
    } else {
        &[1_000, 4_000, 10_000, 100_000, 1_000_000]
    };
    let cross_threads = 2usize;
    let cross_backend = Backend::Parallel {
        threads: cross_threads,
    };
    let gossip_steps = 6usize;
    let mut crossover_rows: Vec<String> = Vec::new();
    let mut measured_crossover_n: Option<usize> = None;
    let sps = |supersteps: u64, wall_ns: u128| -> f64 {
        supersteps as f64 / (wall_ns.max(1) as f64 / 1e9)
    };
    for &n in cross_sizes {
        let g = generators::random_regular_ish(n, 4, SEED);
        let samples = if n >= 500_000 { 2 } else { 3 };
        let build = |_: NodeId, _: usize| SparseGossip {
            steps: gossip_steps,
            acc: 0,
        };
        let max = gossip_steps as u64 + 4;
        let (seq_ns, supersteps) = time_run(&g, Backend::Sequential, build, max, samples);
        let (par_ns, par_ss) = time_run(&g, cross_backend, build, max, samples);
        assert_eq!(
            supersteps, par_ss,
            "backends must agree on superstep count at n = {n}"
        );
        let speedup = seq_ns as f64 / par_ns.max(1) as f64;
        if par_ns <= seq_ns && measured_crossover_n.is_none() {
            measured_crossover_n = Some(n);
        }
        crossover_rows.push(format!(
            "{{\"kind\":\"microbench\",\"family\":\"regular:4\",\"n\":{},\"threads\":{},\"supersteps\":{},\"seq_wall_ns\":{},\"par_wall_ns\":{},\"seq_sps\":{:.1},\"par_sps\":{:.1},\"speedup\":{:.3}}}",
            n,
            cross_threads,
            supersteps,
            seq_ns,
            par_ns,
            sps(supersteps, seq_ns),
            sps(supersteps, par_ns),
            speedup,
        ));
        eprintln!(
            "crossover microbench n {n:>8}  seq {seq_ns:>12} ns  par:{cross_threads} {par_ns:>12} ns  speedup {speedup:.3}"
        );
    }
    // The detector arm: the first registry entry over the same sparse
    // family, warm-up + best-of-samples like the microbench.
    let cross_detector = registry.iter().next().expect("registry is never empty");
    for &n in cross_sizes {
        let g = generators::random_regular_ish(n, 4, SEED);
        let samples = if n >= 500_000 { 2 } else { 3 };
        let detect_best = |backend: Backend| -> Result<(u128, u64), String> {
            let budget = Budget::classical().with_backend(backend);
            let _ = cross_detector.detector.detect(&g, SEED, &budget);
            let mut best = u128::MAX;
            let mut supersteps = 0;
            for _ in 0..samples {
                let t = Instant::now();
                let detection = cross_detector
                    .detector
                    .detect(&g, SEED, &budget)
                    .map_err(|e| format!("{}: crossover n = {n}: {e}", cross_detector.id))?;
                best = best.min(t.elapsed().as_nanos());
                supersteps = detection.cost.supersteps;
            }
            Ok((best, supersteps))
        };
        let (seq_ns, supersteps) = match detect_best(Backend::Sequential) {
            Ok(v) => v,
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        };
        let (par_ns, _) = match detect_best(cross_backend) {
            Ok(v) => v,
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        };
        let speedup = seq_ns as f64 / par_ns.max(1) as f64;
        crossover_rows.push(format!(
            "{{\"kind\":\"detector\",\"id\":\"{}\",\"family\":\"regular:4\",\"n\":{},\"threads\":{},\"supersteps\":{},\"seq_wall_ns\":{},\"par_wall_ns\":{},\"seq_sps\":{:.1},\"par_sps\":{:.1},\"speedup\":{:.3}}}",
            json_escape(&cross_detector.id),
            n,
            cross_threads,
            supersteps,
            seq_ns,
            par_ns,
            sps(supersteps, seq_ns),
            sps(supersteps, par_ns),
            speedup,
        ));
        eprintln!(
            "crossover detector   n {n:>8}  seq {seq_ns:>12} ns  par:{cross_threads} {par_ns:>12} ns  speedup {speedup:.3}"
        );
    }
    let crossover_json = format!(
        "{{\"family\":\"regular:4\",\"host_parallelism\":{},\"threads\":{},\"default_auto_node_threshold\":{},\"measured_crossover_n\":{},\"rows\":[{}]}}",
        host_parallelism,
        cross_threads,
        Backend::DEFAULT_AUTO_NODE_THRESHOLD,
        measured_crossover_n
            .map(|n| n.to_string())
            .unwrap_or_else(|| "null".to_string()),
        crossover_rows.join(","),
    );

    let json = format!(
        "{{\"bench\":\"sim\",\"smoke\":{},\"seed\":{},\"profile\":\"{}\",\"deliver_scaling\":[{}],\"streaming\":[{}],\"crossover\":{}}}",
        args.smoke,
        SEED,
        RunProfile::FastCi.name(),
        deliver_rows.join(","),
        streaming_rows.join(","),
        crossover_json,
    );
    let out = std::path::Path::new(&args.out);
    let written = out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(out, format!("{json}\n")));
    if let Err(e) = written {
        eprintln!("cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("{json}");
    ExitCode::SUCCESS
}
