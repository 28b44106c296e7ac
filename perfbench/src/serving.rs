//! `serve-mixed`: an in-process `Server` (fast-ci, store in the scratch
//! directory) driven over TCP by closed-loop clients, each with its own
//! `trees` snapshot. Every client repeats one cycle:
//!
//! 1. insert an edge that closes a cycle longer than 4;
//! 2. detect (executes);
//! 3. detect again (replays);
//! 4. delete the edge;
//! 5. detect (replays the base snapshot's verdict, taken at set-up).
//!
//! Writes sit beside reads on `MutableGraph` and on the store, and every
//! detect, even a replay, snapshots and serializes the graph for its
//! content key. The measured phase alternates blocks of one client alone
//! with blocks of both clients at once, each block between calibration
//! samples.

use std::collections::{BTreeSet, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use even_cycle_congest::engine::store::ResultStore;
use even_cycle_congest::graph::{Graph, NodeId};
use even_cycle_congest::{FamilySpec, RunProfile, ServeConfig, Server};

use crate::calib::Timed;
use crate::layers::{detector_metric, fill_sim, graph_probe, Layers};
use crate::stats::{median, percentile};
use crate::trace::{Counters, Trace, Tracing, COUNTERS};
use crate::{mix, now, secs, Ctx, Report};

const FAMILY: &str = "trees";
const NODES: usize = 5_000;
const CLIENTS: usize = 2;
/// Algorithm 1, by the id fragment the protocol resolves.
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
const DETECTOR: &str = "global-threshold";
const DETECTOR_ID: &str = "classical/C4/global-threshold-color-bfs";
/// Executing detects the two-client phase collects at least, so its p90
/// has ten samples beyond it.
const MIN_EXEC_SAMPLES: usize = 100;
/// A reply slower than this fails the run instead of hanging it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// No phase runs longer than this, whatever its stop condition.
const HARD_STOP: Duration = Duration::from_secs(60);
/// Cycles per client in each phase of the traced run.
const TRACED_CYCLES: usize = 40;
/// Cycles per client in one calibrated block of the measured phase.
const BLOCK_CYCLES: usize = 3;

/// One client connection speaking the line protocol.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request line; returns the reply and its latency in
    /// seconds.
    fn request(&mut self, line: &str) -> std::io::Result<(String, f64)> {
        let t = now();
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let latency = secs(t);
        Ok((reply.trim_end().to_string(), latency))
    }
}

/// What one client measured and checked.
#[derive(Default)]
struct Tally {
    exec: Vec<f64>,
    replay: Vec<f64>,
    update: Vec<f64>,
    requests: u64,
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.exec.extend(other.exec);
        self.replay.extend(other.replay);
        self.update.extend(other.update);
        self.requests += other.requests;
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// One closed-loop client: its snapshot, a copy of the base graph to
/// draw cycle-closing edges from, and the base verdict line.
struct Client {
    name: String,
    conn: Conn,
    base: Graph,
    detect_seed: u64,
    base_verdict: String,
    draws: u64,
    rng_seed: u64,
    /// Edges inserted so far: each is drawn once, so every step 2 executes.
    used: BTreeSet<(u32, u32)>,
}

fn ok(reply: &str) -> bool {
    reply.starts_with("{\"ok\":true")
}

impl Client {
    fn detect_line(&self) -> String {
        format!(
            "{{\"op\":\"detect\",\"name\":\"{}\",\"detector\":\"{DETECTOR}\",\"seed\":{}}}",
            self.name, self.detect_seed
        )
    }

    fn update_line(&self, action: &str, (u, v): (u32, u32)) -> String {
        format!(
            "{{\"op\":\"update\",\"name\":\"{}\",\"action\":\"{action}\",\"u\":{u},\"v\":{v}}}",
            self.name
        )
    }

    /// The next edge to insert, never one inserted before: its endpoints
    /// are at distance at least 4 in the base tree, so it closes exactly
    /// one cycle, of length 5 or more, and the snapshot stays C4-free.
    fn next_edge(&mut self) -> (u32, u32) {
        let n = self.base.node_count() as u64;
        loop {
            self.draws += 1;
            let u = (mix(self.rng_seed, 2 * self.draws) % n) as usize;
            let dist = distances(&self.base, u);
            let far: Vec<usize> = (0..dist.len())
                .filter(|&v| dist[v].is_some_and(|d| d >= 4))
                .collect();
            if far.is_empty() {
                continue;
            }
            let v = far[(mix(self.rng_seed, 2 * self.draws + 1) % far.len() as u64) as usize];
            let edge = (u.min(v) as u32, u.max(v) as u32);
            if self.used.insert(edge) {
                return edge;
            }
        }
    }

    /// One request, counted; a transport failure is a failed check.
    fn send(&mut self, tally: &mut Tally, line: &str) -> Option<(String, f64)> {
        tally.requests += 1;
        match self.conn.request(line) {
            Ok(r) => Some(r),
            Err(e) => {
                tally.check(false, || format!("{}: request failed: {e}", self.name));
                None
            }
        }
    }

    /// One five-step cycle; `None` once the connection failed.
    fn cycle(&mut self, tally: &mut Tally) -> Option<()> {
        let edge = self.next_edge();
        let (reply, t) = self.send(tally, &self.update_line("insert", edge))?;
        tally.check(ok(&reply) && reply.contains("\"applied\":true"), || {
            format!("insert {edge:?}: {reply}")
        });
        tally.update.push(t);
        let detect = self.detect_line();
        let (exec, t) = self.send(tally, &detect)?;
        tally.check(
            ok(&exec) && exec.contains("\"status\":\"ok\"") && exec.contains("\"rejected\":false"),
            || format!("detect with {edge:?} must accept: {exec}"),
        );
        tally.exec.push(t);
        let (replay, t) = self.send(tally, &detect)?;
        tally.check(replay == exec, || {
            format!("replay differs from its execution: {replay} vs {exec}")
        });
        tally.replay.push(t);
        let (reply, t) = self.send(tally, &self.update_line("delete", edge))?;
        tally.check(ok(&reply) && reply.contains("\"applied\":true"), || {
            format!("delete {edge:?}: {reply}")
        });
        tally.update.push(t);
        let (base, t) = self.send(tally, &detect)?;
        tally.check(base == self.base_verdict, || {
            format!("base replay differs: {base} vs {}", self.base_verdict)
        });
        tally.replay.push(t);
        Some(())
    }

    /// Runs `cycles` cycles (but never past `hard_stop`).
    fn run_cycles(&mut self, cycles: usize, hard_stop: Instant) -> Tally {
        let mut tally = Tally::default();
        while tally.exec.len() < cycles && now() < hard_stop {
            if self.cycle(&mut tally).is_none() {
                break;
            }
        }
        tally
    }
}

/// Hop distances from `source` (`None` where unreachable).
fn distances(g: &Graph, source: usize) -> Vec<Option<u32>> {
    let mut dist = vec![None; g.node_count()];
    dist[source] = Some(0);
    let mut queue = VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        let d = dist[u].expect("queued nodes have distances");
        for w in g.neighbors(NodeId::new(u as u32)) {
            if dist[w.index()].is_none() {
                dist[w.index()] = Some(d + 1);
                queue.push_back(w.index());
            }
        }
    }
    dist
}

/// A running server with its connected clients.
struct Fixture {
    addr: SocketAddr,
    server: JoinHandle<std::io::Result<()>>,
    clients: Vec<Client>,
    store: PathBuf,
}

impl Fixture {
    /// Binds a server over a fresh store, connects the clients, loads
    /// their snapshots, and records each base verdict.
    fn start(seed: u64, store: PathBuf) -> Result<Fixture, String> {
        fn err(what: &'static str) -> impl Fn(std::io::Error) -> String {
            move |e| format!("{what}: {e}")
        }
        let config = ServeConfig::new(RunProfile::FastCi, 2).store(&store);
        let server = Server::bind("127.0.0.1:0", &config).map_err(err("bind"))?;
        let addr = server.local_addr().map_err(err("local_addr"))?;
        // audit:allow(R3): the benchmark hosts the server it measures.
        let server = std::thread::spawn(move || server.run());
        let mut clients = Vec::new();
        for c in 0..CLIENTS as u64 {
            let graph_seed = mix(seed, 10 + c) >> 40;
            let mut client = Client {
                name: format!("c{c}"),
                conn: Conn::open(addr).map_err(err("connect"))?,
                base: FamilySpec::parse(FAMILY)?.build(NODES, graph_seed),
                detect_seed: mix(seed, 20 + c) >> 40,
                base_verdict: String::new(),
                draws: 0,
                rng_seed: mix(seed, 30 + c),
                used: BTreeSet::new(),
            };
            let load = format!(
                "{{\"op\":\"load\",\"name\":\"{}\",\"family\":\"{FAMILY}\",\"n\":{NODES},\"seed\":{graph_seed}}}",
                client.name
            );
            let (reply, _) = client.conn.request(&load).map_err(err("load"))?;
            if !ok(&reply) {
                return Err(format!("load failed: {reply}"));
            }
            let (verdict, _) = client
                .conn
                .request(&client.detect_line())
                .map_err(err("base detect"))?;
            if !(ok(&verdict) && verdict.contains("\"rejected\":false")) {
                return Err(format!("the base snapshot must be accepted: {verdict}"));
            }
            client.base_verdict = verdict;
            clients.push(client);
        }
        Ok(Fixture {
            addr,
            server,
            clients,
            store,
        })
    }

    /// Runs `active` clients concurrently for `cycles` cycles each.
    fn phase(&mut self, active: usize, cycles: usize) -> Tally {
        let hard_stop = now() + HARD_STOP;
        let mut total = Tally::default();
        // audit:allow(R3): one thread per closed-loop client, joined here.
        let tallies: Vec<Tally> = std::thread::scope(|scope| {
            let handles: Vec<_> = self.clients[..active]
                .iter_mut()
                .map(|client| {
                    // audit:allow(R3): a scoped client thread.
                    scope.spawn(move || client.run_cycles(cycles, hard_stop))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a client thread panicked"))
                .collect()
        });
        for t in tallies {
            total.absorb(t);
        }
        total
    }

    /// The server's `stats` totals: executed, replayed, admission-rejected.
    fn stats(&mut self) -> Result<(u64, u64, u64), String> {
        let (reply, _) = self.clients[0]
            .conn
            .request("{\"op\":\"stats\"}")
            .map_err(|e| format!("stats: {e}"))?;
        Ok((
            sum_field(&reply, "executed"),
            sum_field(&reply, "replayed"),
            sum_field(&reply, "admission_rejected"),
        ))
    }

    /// Closes the clients, shuts the server down, and waits for it.
    fn stop(self) -> Result<PathBuf, String> {
        drop(self.clients);
        let mut conn = Conn::open(self.addr).map_err(|e| format!("shutdown connect: {e}"))?;
        let (reply, _) = conn
            .request("{\"op\":\"shutdown\"}")
            .map_err(|e| format!("shutdown: {e}"))?;
        drop(conn);
        if !ok(&reply) {
            return Err(format!("shutdown refused: {reply}"));
        }
        self.server
            .join()
            .map_err(|_| "the server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))?;
        Ok(self.store)
    }
}

/// Sums every `"key":N` in a flat-ish JSON reply.
fn sum_field(reply: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    reply
        .match_indices(&pat)
        .filter_map(|(at, _)| {
            let digits: String = reply[at + pat.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse::<u64>().ok()
        })
        .sum()
}

/// Checks the server's counters against what the clients did: one
/// execution per cycle plus the base detects, two replays per cycle,
/// and no admission rejections.
fn check_stats(report: &mut Report, stats: (u64, u64, u64), cycles: usize) {
    let want = (cycles as u64 + CLIENTS as u64, 2 * cycles as u64, 0);
    report.check(stats == want, || {
        format!("server stats (executed, replayed, rejected) = {stats:?}, want {want:?}")
    });
}

/// Each client's latencies in one block, in calibrated seconds.
fn calibrate(samples: &[f64], block: Timed) -> impl Iterator<Item = f64> + '_ {
    samples
        .iter()
        .map(move |&s| Timed::new(s, block.kernel).calibrated())
}

pub fn run(ctx: &mut Ctx, report: &mut Report, layers: &mut Layers) -> Result<(), String> {
    let seed = ctx.args.seed;
    let tmp = ctx.tmp.path().to_path_buf();
    let mut setups = Vec::new();
    let mut fixture = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = fixture.take() {
            let store = Fixture::stop(previous)?;
            std::fs::remove_dir_all(store).map_err(|e| format!("cannot remove a store: {e}"))?;
        }
        let (started, timed) = ctx.calib.time(1, || {
            let f = Fixture::start(seed, tmp.join(format!("store{rep}")));
            Counters::read(&COUNTERS);
            f
        });
        setups.push(timed);
        fixture = Some(started?);
    }
    let mut fixture = fixture.expect("at least one set-up");
    report.timed("setup_s", &setups);
    if ctx.args.trace {
        return traced(fixture, &tmp, seed, report, layers);
    }

    // Blocks of one client alone and of both clients alternate, so both
    // see the same mix of host phases.
    let (mut alone, mut both) = (Tally::default(), Tally::default());
    let (mut exec1, mut exec2, mut replay2, mut update2) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut both_blocks = Vec::new();
    ctx.start_measuring();
    while ctx.measuring() || both.exec.len() < MIN_EXEC_SAMPLES {
        let (tally, block) = ctx.calib.time(1, || fixture.phase(1, BLOCK_CYCLES));
        exec1.extend(calibrate(&tally.exec, block));
        alone.absorb(tally);
        let (tally, block) = ctx
            .calib
            .time(CLIENTS, || fixture.phase(CLIENTS, BLOCK_CYCLES));
        exec2.extend(calibrate(&tally.exec, block));
        replay2.extend(calibrate(&tally.replay, block));
        update2.extend(calibrate(&tally.update, block));
        both_blocks.push((tally.requests, block));
        let failed = tally.exec.len() < CLIENTS * BLOCK_CYCLES;
        both.absorb(tally);
        if failed || alone.exec.is_empty() {
            break;
        }
    }
    let stats = fixture.stats()?;
    fixture.stop()?;
    report.absorb(alone.attempted, &alone.failures);
    report.absorb(both.attempted, &both.failures);
    check_stats(report, stats, alone.exec.len() + both.exec.len());

    let requests: u64 = both_blocks.iter().map(|(r, _)| r).sum();
    let busy: f64 = both_blocks.iter().map(|(_, b)| b.calibrated()).sum();
    let ms = |v: &[f64]| v.iter().map(|s| s * 1e3).collect::<Vec<f64>>();
    println!(
        "serve-mixed: 1 client {} cycles; 2 clients {} cycles, {requests} requests in {busy:.3} calibrated s",
        alone.exec.len(),
        both.exec.len(),
    );
    for (name, samples) in [
        ("detect_exec_p50_ms", median(&ms(&exec2))),
        ("detect_exec_p90_ms", percentile(&ms(&exec2), 90.0)),
        ("detect_replay_p50_ms", median(&ms(&replay2))),
        ("detect_replay_p90_ms", percentile(&ms(&replay2), 90.0)),
        ("update_p50_ms", median(&ms(&update2))),
    ] {
        println!("{name} {samples} ms (calibrated)");
    }
    let (e1, e2, light) = (median(&exec1), median(&exec2), median(&replay2));
    report.series("detect_exec_1client_s", "s", exec1);
    report.series("detect_exec_s", "s", exec2);
    report.series("detect_replay_s", "s", replay2);
    report.series("update_s", "s", update2);
    report.series("detect_exec_s.wall", "s", both.exec);
    report.series("detect_replay_s.wall", "s", both.replay);
    report.end_to_end(e1, e2, light * 1e3, requests as f64 / busy);
    Ok(())
}

/// Mean of `samples` in milliseconds (0 when empty).
fn mean_ms(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64 * 1e3
    }
}

/// Server-side span figures: mean `serve.op` time of executing detects,
/// replayed detects, and updates. A detect executed iff an `engine.unit`
/// span ran inside it.
fn server_ms(trace: &Trace) -> (f64, f64, f64) {
    let executing: std::collections::BTreeSet<usize> = trace
        .named("engine.unit")
        .filter_map(|u| trace.ancestor(u, "serve.op"))
        .collect();
    let mean = |keep: &dyn Fn(usize) -> bool| {
        let durs: Vec<f64> = trace
            .named("serve.op")
            .filter(|&i| keep(i))
            .map(|i| trace.spans[i].at.dur_us as f64 / 1e6)
            .collect();
        mean_ms(&durs)
    };
    let detect = |i: usize| trace.spans[i].label == "detect";
    (
        mean(&|i| detect(i) && executing.contains(&i)),
        mean(&|i| detect(i) && !executing.contains(&i)),
        mean(&|i| trace.spans[i].label == "update"),
    )
}

/// The traced run: an untraced two-client phase as the baseline, then a
/// traced one, each a fixed number of cycles.
fn traced(
    mut fixture: Fixture,
    tmp: &Path,
    seed: u64,
    report: &mut Report,
    layers: &mut Layers,
) -> Result<(), String> {
    let untraced = fixture.phase(CLIENTS, TRACED_CYCLES);
    let before = Counters::read(&COUNTERS);
    let tracing = Tracing::start();
    let traced = fixture.phase(CLIENTS, TRACED_CYCLES);
    let trace = tracing
        .finish(&tmp.join("serve.jsonl"))
        .map_err(|e| format!("trace file: {e}"))?;
    let stats = fixture.stats()?;
    let store = fixture.stop()?;
    report.absorb(untraced.attempted, &untraced.failures);
    report.absorb(traced.attempted, &traced.failures);
    check_stats(report, stats, untraced.exec.len() + traced.exec.len());
    trace.print_span_table("two clients");

    fill_sim(layers, &trace, &before);
    layers.set(
        "engine.units.executed",
        before.delta("engine.units.executed") as f64,
    );
    layers.set(
        &detector_metric("cycle.unit_ms", DETECTOR_ID),
        trace.mean_ms("engine.unit", |_| true),
    );
    layers.set(
        "cycle.self_share",
        trace.self_share("engine.unit", |_| true),
    );
    let (exec, replay, update) = server_ms(&trace);
    layers.set("serve.server_ms.detect_exec", exec);
    layers.set("serve.server_ms.detect_replay", replay);
    layers.set("serve.server_ms.update", update);
    layers.set("serve.protocol_ms", mean_ms(&traced.update) - update);
    layers.set("serve.executed", stats.0 as f64);
    layers.set("serve.replayed", stats.1 as f64);
    layers.set("serve.admission_rejected", stats.2 as f64);
    layers.set(
        "telemetry.overhead_pct",
        100.0 * (median(&traced.exec) / median(&untraced.exec) - 1.0),
    );

    let t = now();
    let opened = ResultStore::open(&store).map_err(|e| format!("cannot reopen the store: {e}"))?;
    layers.set("engine.store_open_ms", secs(t) * 1e3);
    drop(opened);
    let spec = FamilySpec::parse(FAMILY)?;
    let t = now();
    let base = spec.build(NODES, mix(seed, 10) >> 40);
    layers.set("graph.build_ms", secs(t) * 1e3);
    let (snapshot, fingerprint, update) = graph_probe(&base, seed, 51);
    layers.set("graph.snapshot_ms", snapshot);
    layers.set("graph.fingerprint_ms", fingerprint);
    layers.set("graph.update_us", update);
    report.series("detect_exec_untraced_s", "s", untraced.exec);
    report.series("detect_exec_traced_s", "s", traced.exec);
    Ok(())
}
