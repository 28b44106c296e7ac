//! The persistent superstep worker pool behind the parallel backend.
//!
//! The old parallel path paid a fresh `std::thread::scope` — thread
//! creation, stack setup, join — *per superstep*, which is why the
//! committed benchmarks showed `parallel:2` losing to sequential on
//! every grid row. This module spawns the workers **once per run**:
//! they park on a condvar between supersteps and are woken by a single
//! epoch bump, so the steady-state cost of a parallel superstep is one
//! notify, one atomic claim per chunk, and one uncontended lock per
//! chunk.
//!
//! Work assignment is dynamic: workers (and the caller, which
//! participates) claim chunks of the [`ChunkTable`] off a shared
//! atomic cursor, so a ragged superstep (a BFS frontier concentrated
//! in a few chunks) never serializes on the slowest static shard.
//!
//! Determinism: the pool changes *where* a node steps, never *what* it
//! observes. Per-node effects within a superstep are independent by
//! definition of the synchronous model — each node owns its program
//! state, RNG stream and outbox slot, and reads only its own slice of
//! the superstep's inbox, which the workers share for reading — and
//! message delivery (in `core.rs`) stays single-threaded in ascending
//! sender order.
//! Transcripts are therefore byte-identical to the sequential backend
//! at every thread count, which the conformance suites assert
//! registry-wide.
//!
//! This is the only module in the crate allowed to spawn threads or
//! read the clock (pool busy/idle accounting); the determinism auditor
//! enforces that boundary (rules R2/R3).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use congest_graph::Graph;
use congest_telemetry as telemetry;

use crate::core::{lock_chunk, run_loop, ChunkTable, Delivery, PhaseDriver, RunClock, SeqDriver};
use crate::cut::CutMeter;
use crate::error::SimError;
use crate::metrics::RunReport;
use crate::program::Program;

/// Pool telemetry, resolved once per process. `busy_ns`/`idle_ns` are
/// worker-side (the caller's share of the work is visible in the
/// `sim.run` span instead); `chunks.skipped` counts chunks whose `live`
/// counter showed every node halted.
struct PoolMetrics {
    spawns: Arc<telemetry::Counter>,
    wakes: Arc<telemetry::Counter>,
    chunks_claimed: Arc<telemetry::Counter>,
    chunks_skipped: Arc<telemetry::Counter>,
    busy_ns: Arc<telemetry::Counter>,
    idle_ns: Arc<telemetry::Counter>,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = telemetry::Registry::global();
        PoolMetrics {
            spawns: registry.counter("sim.pool.spawns"),
            wakes: registry.counter("sim.pool.wakes"),
            chunks_claimed: registry.counter("sim.pool.chunks.claimed"),
            chunks_skipped: registry.counter("sim.pool.chunks.skipped"),
            busy_ns: registry.counter("sim.pool.busy_ns"),
            idle_ns: registry.counter("sim.pool.idle_ns"),
        }
    })
}

/// Coordination state under the pool's one mutex.
struct PhaseState {
    /// Bumped once per phase; workers run each epoch exactly once.
    epoch: u64,
    /// The phase payload: `None` for init, else the superstep index.
    superstep: Option<usize>,
    /// Workers finished with the current epoch.
    done: usize,
    /// Set by the caller when the run ends (however it ends).
    shutdown: bool,
    /// Set by a worker's unwind guard when its phase body panicked.
    aborted: bool,
}

/// The park/wake rendezvous shared by the caller and the workers.
struct PhaseCtrl {
    state: Mutex<PhaseState>,
    /// Caller → workers: a new epoch (or shutdown) is ready.
    work_ready: Condvar,
    /// Workers → caller: `done` advanced (or `aborted` was set).
    work_done: Condvar,
    /// Next chunk index to claim; reset by the caller each phase
    /// (inside the state lock, which orders it before any wake).
    cursor: AtomicUsize,
}

impl PhaseCtrl {
    fn new() -> PhaseCtrl {
        PhaseCtrl {
            state: Mutex::new(PhaseState {
                epoch: 0,
                superstep: None,
                done: 0,
                shutdown: false,
                aborted: false,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
            cursor: AtomicUsize::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, PhaseState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Marks the run aborted if dropped while armed (i.e. a worker's
/// phase body unwound), so the caller's phase wait ends in a panic
/// instead of a deadlock.
struct AbortGuard<'a> {
    ctrl: &'a PhaseCtrl,
    armed: bool,
}

impl Drop for AbortGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut st = self.ctrl.lock();
            st.aborted = true;
            self.ctrl.work_done.notify_all();
        }
    }
}

/// Wakes and retires every worker when the run ends — normally, with
/// a simulation error, or by unwinding — so the enclosing scope's
/// implicit join can never hang on a parked worker.
struct ShutdownOnDrop<'a> {
    ctrl: &'a PhaseCtrl,
}

impl Drop for ShutdownOnDrop<'_> {
    fn drop(&mut self) {
        let mut st = self.ctrl.lock();
        st.shutdown = true;
        self.ctrl.work_ready.notify_all();
    }
}

/// Claims chunks off the shared cursor until the table is exhausted,
/// running the phase on each, with the inbox read-locked throughout.
/// Used identically by workers and by the participating caller.
fn claim_chunks<P: Program>(
    ctrl: &PhaseCtrl,
    table: &ChunkTable<'_, P>,
    graph: &Graph,
    superstep: Option<usize>,
) {
    let metrics = pool_metrics();
    let n = table.n();
    let count = table.chunk_count();
    let mut claimed = 0u64;
    let mut skipped = 0u64;
    let inbox = table.read_inbox();
    loop {
        let ci = ctrl.cursor.fetch_add(1, Ordering::Relaxed);
        if ci >= count {
            break;
        }
        claimed += 1;
        if !lock_chunk(table.chunk(ci)).run_phase(graph, n, superstep, &inbox) {
            skipped += 1;
        }
    }
    metrics.chunks_claimed.add(claimed);
    metrics.chunks_skipped.add(skipped);
}

/// The loop each persistent worker runs for the lifetime of a run:
/// park on the condvar, wake on an epoch bump, claim chunks until the
/// cursor runs dry, report done, park again.
fn worker_loop<P>(ctrl: &PhaseCtrl, table: &ChunkTable<'_, P>, graph: &Graph)
where
    P: Program + Send,
    P::Msg: Send + Sync,
{
    let metrics = pool_metrics();
    let mut seen_epoch = 0u64;
    loop {
        let superstep;
        {
            let parked = Instant::now();
            let mut st = ctrl.lock();
            while !st.shutdown && st.epoch == seen_epoch {
                st = ctrl
                    .work_ready
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            metrics.idle_ns.add(parked.elapsed().as_nanos() as u64);
            if st.shutdown {
                return;
            }
            seen_epoch = st.epoch;
            superstep = st.superstep;
        }
        let busy = Instant::now();
        let mut guard = AbortGuard { ctrl, armed: true };
        claim_chunks(ctrl, table, graph, superstep);
        guard.armed = false;
        drop(guard);
        metrics.busy_ns.add(busy.elapsed().as_nanos() as u64);
        let mut st = ctrl.lock();
        st.done += 1;
        ctrl.work_done.notify_one();
    }
}

/// The caller-side driver handed to the shared superstep loop: each
/// phase bumps the epoch, wakes the parked workers, claims its own
/// share of chunks, then waits for the stragglers.
struct SuperstepPool<'e> {
    ctrl: &'e PhaseCtrl,
    spawned: usize,
}

impl<P: Program> PhaseDriver<P> for SuperstepPool<'_> {
    fn run_phase(&self, table: &ChunkTable<'_, P>, graph: &Graph, superstep: Option<usize>) {
        let metrics = pool_metrics();
        {
            let mut st = self.ctrl.lock();
            st.epoch += 1;
            st.superstep = superstep;
            st.done = 0;
            // Reset inside the lock: workers acquire it to read the
            // epoch, which orders the reset before any claim.
            self.ctrl.cursor.store(0, Ordering::Relaxed);
            self.ctrl.work_ready.notify_all();
        }
        metrics.wakes.inc();
        claim_chunks(self.ctrl, table, graph, superstep);
        let mut st = self.ctrl.lock();
        while st.done < self.spawned && !st.aborted {
            st = self
                .ctrl
                .work_done
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        assert!(!st.aborted, "a superstep worker panicked");
    }
}

/// Runs a program over a session's freshly reset `table` under the
/// persistent pool with `threads` total workers (the calling thread is
/// one of them, and the only one at `threads = 1`): the semantics of
/// [`crate::Executor::run`] with byte-identical transcripts. Workers
/// live for the whole run, parked between supersteps.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_pooled<P>(
    graph: &Graph,
    bandwidth: u64,
    cut: Option<&CutMeter>,
    table: &ChunkTable<'_, P>,
    delivery: &mut Delivery,
    threads: usize,
    clock: RunClock,
    max_supersteps: u64,
) -> Result<RunReport, SimError>
where
    P: Program + Send,
    P::Msg: Send + Sync,
{
    // More workers than chunks would only park and wake for nothing.
    let spawned = threads.saturating_sub(1).min(table.chunk_count());
    if spawned == 0 {
        return run_loop(
            graph,
            bandwidth,
            cut,
            table,
            delivery,
            &SeqDriver,
            clock,
            max_supersteps,
        );
    }
    let ctrl = PhaseCtrl::new();
    std::thread::scope(|scope| {
        for _ in 0..spawned {
            let ctrl = &ctrl;
            scope.spawn(move || worker_loop(ctrl, table, graph));
        }
        pool_metrics().spawns.add(spawned as u64);
        let _shutdown = ShutdownOnDrop { ctrl: &ctrl };
        let pool = SuperstepPool {
            ctrl: &ctrl,
            spawned,
        };
        run_loop(
            graph,
            bandwidth,
            cut,
            table,
            delivery,
            &pool,
            clock,
            max_supersteps,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Control, Ctx, Outbox};
    use crate::{Backend, Executor};
    use congest_graph::{generators, NodeId};

    /// Halts node `v` after `v % 5` steps, so chunks go quiet at
    /// different times and the skip path is exercised.
    #[derive(Debug)]
    struct StaggeredHalt {
        fuel: usize,
        heard: u64,
    }

    impl Program for StaggeredHalt {
        type Msg = u32;
        fn init(&mut self, ctx: &mut Ctx, out: &mut Outbox<u32>) {
            out.broadcast(ctx.node.raw());
        }
        fn step(
            &mut self,
            _ctx: &mut Ctx,
            _s: usize,
            inbox: &[(NodeId, u32)],
            out: &mut Outbox<u32>,
        ) -> Control {
            self.heard += inbox.iter().map(|&(_, m)| m as u64).sum::<u64>();
            if self.fuel == 0 {
                return Control::Halt;
            }
            self.fuel -= 1;
            out.broadcast(self.heard as u32);
            Control::Continue
        }
    }

    fn build(v: NodeId, _n: usize) -> StaggeredHalt {
        StaggeredHalt {
            fuel: v.index() % 5,
            heard: 0,
        }
    }

    #[test]
    fn pooled_matches_sequential_with_staggered_halts() {
        let g = generators::random_regular_ish(600, 4, 7);
        let mut seq = Executor::new(Backend::Sequential);
        let sr = seq.run(&g, 7, build, 32).unwrap();
        for threads in [2usize, 3, 8, 1024] {
            let mut par = Executor::new(Backend::Parallel { threads });
            let pr = par.run(&g, 7, build, 32).unwrap();
            assert_eq!(sr, pr, "{threads} threads");
            let sh: Vec<u64> = seq.nodes().iter().map(|p| p.heard).collect();
            let ph: Vec<u64> = par.nodes().iter().map(|p| p.heard).collect();
            assert_eq!(sh, ph, "{threads} threads: transcripts must match");
        }
    }

    #[test]
    fn worker_panic_aborts_the_run_instead_of_hanging() {
        #[derive(Debug)]
        struct PanicAt;
        impl Program for PanicAt {
            type Msg = u32;
            fn init(&mut self, _c: &mut Ctx, out: &mut Outbox<u32>) {
                out.broadcast(1);
            }
            fn step(
                &mut self,
                ctx: &mut Ctx,
                _s: usize,
                _i: &[(NodeId, u32)],
                _o: &mut Outbox<u32>,
            ) -> Control {
                assert!(ctx.node.index() != 100, "deliberate test panic");
                Control::Continue
            }
        }
        let g = generators::cycle(200);
        let caught = std::panic::catch_unwind(|| {
            let mut par = Executor::new(Backend::Parallel { threads: 2 });
            let _ = par.run(&g, 1, |_, _| PanicAt, 8);
        });
        assert!(caught.is_err(), "the panic must propagate to the caller");
    }
}
