//! A multi-threaded executor with the exact semantics of
//! [`crate::Executor`].
//!
//! Node steps within a superstep are independent by definition of the
//! synchronous model, so they parallelize embarrassingly; determinism is
//! preserved because (a) each node's randomness is its own seeded
//! stream, and (b) message delivery is ordered by sender id regardless
//! of which thread produced the outbox. Tests assert transcript-level
//! equivalence with the sequential executor.
//!
//! Scheduling is delegated to the persistent worker pool in
//! `crate::pool`: workers are spawned once per run and parked on a
//! condvar between supersteps, instead of paying a thread spawn per
//! superstep.

use congest_graph::{Graph, NodeId};

use crate::backend;
use crate::cut::CutMeter;
use crate::error::SimError;
use crate::metrics::RunReport;
use crate::program::Program;

/// A parallel CONGEST executor; see [`crate::Executor`] for the model
/// semantics. Programs must be `Send` (they live on worker threads).
#[derive(Debug)]
pub struct ParallelExecutor<'g, P: Program> {
    graph: &'g Graph,
    seed: u64,
    bandwidth: u64,
    threads: usize,
    cut: Option<CutMeter>,
    nodes: Vec<P>,
}

impl<'g, P: Program + Send> ParallelExecutor<'g, P>
where
    P::Msg: Send,
{
    /// Creates a parallel executor. The default worker count honors the
    /// `EVEN_CYCLE_SIM_THREADS` environment variable (validated through
    /// the same parsing path as the experiment engine's
    /// `EVEN_CYCLE_WORKERS`), falling back to available parallelism
    /// (at least 1).
    pub fn new(graph: &'g Graph, seed: u64) -> Self {
        ParallelExecutor {
            graph,
            seed,
            bandwidth: 1,
            threads: backend::default_parallel_threads(),
            cut: None,
            nodes: Vec::new(),
        }
    }

    /// Sets the per-edge bandwidth in words per round (default 1).
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth == 0`.
    pub fn set_bandwidth(&mut self, bandwidth: u64) -> &mut Self {
        assert!(bandwidth > 0, "bandwidth must be positive");
        self.bandwidth = bandwidth;
        self
    }

    /// Sets the worker count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn set_threads(&mut self, threads: usize) -> &mut Self {
        assert!(threads > 0, "need at least one worker");
        self.threads = threads;
        self
    }

    /// Installs a [`CutMeter`]; the run report will include the words
    /// that crossed it — exactly as in [`crate::Executor::set_cut`]
    /// (delivery is sequential in both executors, so cut accounting is
    /// thread-count-independent).
    pub fn set_cut(&mut self, cut: CutMeter) -> &mut Self {
        self.cut = Some(cut);
        self
    }

    /// The per-node program states after the last run.
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Runs the program to completion; semantics identical to
    /// [`crate::Executor::run`] (the two executors share one superstep
    /// core and differ only in how the node-step phase is scheduled).
    ///
    /// # Errors
    ///
    /// Same as [`crate::Executor::run`].
    pub fn run<F>(&mut self, factory: F, max_supersteps: u64) -> Result<RunReport, SimError>
    where
        F: FnMut(NodeId, usize) -> P,
    {
        let (report, nodes) = crate::pool::run_pooled(
            self.graph,
            self.seed,
            self.bandwidth,
            self.cut.as_ref(),
            self.threads,
            factory,
            max_supersteps,
        )?;
        self.nodes = nodes;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Control, Ctx, Outbox};
    use crate::Executor;
    use congest_graph::generators;
    use rand::Rng;

    /// Gossip a random token for a few steps (exercises rng, inboxes,
    /// and halting).
    #[derive(Debug)]
    struct Gossip {
        steps: usize,
        log: Vec<(u32, u32)>,
    }

    impl Program for Gossip {
        type Msg = u32;
        fn init(&mut self, ctx: &mut Ctx, out: &mut Outbox<u32>) {
            out.broadcast(ctx.rng.gen_range(0..1_000_000));
        }
        fn step(
            &mut self,
            ctx: &mut Ctx,
            s: usize,
            inbox: &[(NodeId, u32)],
            out: &mut Outbox<u32>,
        ) -> Control {
            for &(from, m) in inbox {
                self.log.push((from.raw(), m));
            }
            if s + 1 < self.steps {
                out.broadcast(ctx.rng.gen_range(0..1_000_000));
                Control::Continue
            } else {
                Control::Halt
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_transcripts() {
        for seed in 0..4u64 {
            let g = generators::erdos_renyi(60, 0.1, seed);
            let mut seq = Executor::new(&g, seed);
            let sr = seq
                .run(
                    |_, _| Gossip {
                        steps: 5,
                        log: vec![],
                    },
                    16,
                )
                .unwrap();
            let mut par = ParallelExecutor::new(&g, seed);
            par.set_threads(4);
            let pr = par
                .run(
                    |_, _| Gossip {
                        steps: 5,
                        log: vec![],
                    },
                    16,
                )
                .unwrap();
            assert_eq!(sr.rounds, pr.rounds, "seed {seed}");
            assert_eq!(sr.supersteps, pr.supersteps);
            assert_eq!(sr.congestion, pr.congestion);
            let sl: Vec<_> = seq.nodes().iter().map(|p| p.log.clone()).collect();
            let pl: Vec<_> = par.nodes().iter().map(|p| p.log.clone()).collect();
            assert_eq!(sl, pl, "transcripts must match bit for bit");
        }
    }

    #[test]
    fn parallel_with_single_thread() {
        let g = generators::cycle(12);
        let mut par = ParallelExecutor::new(&g, 1);
        par.set_threads(1);
        let r = par
            .run(
                |_, _| Gossip {
                    steps: 3,
                    log: vec![],
                },
                8,
            )
            .unwrap();
        assert_eq!(r.supersteps, 3);
    }

    #[test]
    fn cut_meter_matches_sequential() {
        use crate::CutMeter;
        // Broadcast gossip across a bisected ER graph: the words that
        // cross the cut must agree between the executors at every
        // thread count (delivery is sequential in both).
        for seed in 0..3u64 {
            let g = generators::erdos_renyi(40, 0.15, seed);
            let side: Vec<bool> = (0..g.node_count()).map(|v| v >= 20).collect();
            let build = |_: NodeId, _: usize| Gossip {
                steps: 4,
                log: vec![],
            };
            let mut seq = Executor::new(&g, seed);
            seq.set_cut(CutMeter::new(&g, side.clone()));
            let sr = seq.run(build, 16).unwrap();
            assert!(sr.cut_words.is_some_and(|w| w > 0), "cut must be crossed");
            for threads in [1usize, 2, 4] {
                let mut par = ParallelExecutor::new(&g, seed);
                par.set_threads(threads)
                    .set_cut(CutMeter::new(&g, side.clone()));
                let pr = par.run(build, 16).unwrap();
                assert_eq!(sr.cut_words, pr.cut_words, "seed {seed}, {threads} threads");
                assert_eq!(sr, pr, "full reports must agree");
            }
        }
    }

    #[test]
    fn backend_entry_point_matches_executors() {
        use crate::{run_with_backend, Backend};
        let g = generators::erdos_renyi(50, 0.12, 9);
        let build = |_: NodeId, _: usize| Gossip {
            steps: 5,
            log: vec![],
        };
        let mut seq = Executor::new(&g, 9);
        let sr = seq.run(build, 16).unwrap();
        let sl: Vec<_> = seq.nodes().iter().map(|p| p.log.clone()).collect();
        for backend in [
            Backend::Sequential,
            Backend::Parallel { threads: 2 },
            Backend::Parallel { threads: 5 },
            Backend::Auto {
                node_threshold: 1,
                threads: 2,
            },
            Backend::Auto {
                node_threshold: usize::MAX,
                threads: 2,
            },
        ] {
            let (report, nodes) = run_with_backend(&g, 9, backend, 1, None, build, 16).unwrap();
            assert_eq!(report, sr, "{backend}");
            let bl: Vec<_> = nodes.iter().map(|p| p.log.clone()).collect();
            assert_eq!(bl, sl, "{backend}: transcripts must match bit for bit");
        }
    }

    #[test]
    fn parallel_step_limit() {
        #[derive(Debug)]
        struct Forever;
        impl Program for Forever {
            type Msg = u32;
            fn init(&mut self, _c: &mut Ctx, _o: &mut Outbox<u32>) {}
            fn step(
                &mut self,
                _c: &mut Ctx,
                _s: usize,
                _i: &[(NodeId, u32)],
                _o: &mut Outbox<u32>,
            ) -> Control {
                Control::Continue
            }
        }
        let g = generators::path(4);
        let mut par = ParallelExecutor::new(&g, 0);
        let err = par.run(|_, _| Forever, 3).unwrap_err();
        assert_eq!(err, SimError::StepLimitExceeded { limit: 3 });
    }
}
