//! Simulation backends: one knob selecting how the superstep core of
//! [`crate::Executor`] / [`crate::parallel::ParallelExecutor`] steps
//! nodes.
//!
//! Every detector in the workspace drives the same superstep core (see
//! `core.rs`); a [`Backend`] picks the node-stepping strategy:
//!
//! * [`Backend::Sequential`] — one thread, no pool coordination. The
//!   right choice for small instances and for sweeps that already
//!   parallelize across work units.
//! * [`Backend::Parallel`] — a persistent worker pool (see `pool.rs`)
//!   lives for the whole run; each superstep the workers wake once and
//!   claim chunks of node state off a shared cursor. Message delivery
//!   stays sequential in sender order, so transcripts are
//!   byte-identical to the sequential backend at any thread count.
//! * [`Backend::Auto`] — sequential below a node-count threshold,
//!   parallel at or above it, with a thread count resolved once, when
//!   the backend is built or parsed ([`default_parallel_threads`]).
//!   Pool coordination (wakeups, chunk claiming) is per-superstep
//!   overhead that only amortizes once the phase does real work;
//!   `Auto` flips only where parallelism actually pays.
//!
//! The parallel thread count defaults to the `EVEN_CYCLE_SIM_THREADS`
//! environment variable (validated exactly like the experiment
//! engine's `EVEN_CYCLE_WORKERS`), falling back to the machine's
//! available parallelism.

/// The environment variable naming the default intra-run thread count.
pub const SIM_THREADS_ENV: &str = "EVEN_CYCLE_SIM_THREADS";

/// How the superstep core steps nodes; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Step all nodes on the calling thread.
    #[default]
    Sequential,
    /// Step nodes across a persistent pool of `threads` workers.
    Parallel {
        /// Worker-thread count (clamped to at least 1).
        threads: usize,
    },
    /// [`Backend::Sequential`] below `node_threshold` vertices,
    /// [`Backend::Parallel`] with `threads` workers at or above it.
    Auto {
        /// The node count at which the backend flips to parallel.
        node_threshold: usize,
        /// Worker-thread count at or above the threshold (clamped to at
        /// least 1); [`Backend::auto_at`] and [`Backend::parse`] resolve
        /// it through [`default_parallel_threads`].
        threads: usize,
    },
}

impl Backend {
    /// The node count at which [`Backend::auto`] flips to parallel.
    /// Below this size, waking and coordinating the worker pool
    /// outweighs the parallel phase speedup. Tuned from the
    /// `crossover` section of `BENCH_sim.json` (`simbench`'s sparse
    /// 4-regular sweep): pool coordination overhead on the pooled
    /// 2-thread backend falls to measurement-noise level from 10k
    /// nodes (it is ~10% at 1k), so on any host with ≥ 2 cores the
    /// crossover sits at or below this size — and `Auto` resolves its
    /// thread count through [`default_parallel_threads`], which is 1
    /// on a single-core host, so flipping there is free anyway.
    pub const DEFAULT_AUTO_NODE_THRESHOLD: usize = 10_000;

    /// The auto backend with the default flip threshold.
    pub fn auto() -> Backend {
        Backend::auto_at(Backend::DEFAULT_AUTO_NODE_THRESHOLD)
    }

    /// The auto backend flipping at `node_threshold` nodes to
    /// [`default_parallel_threads`] workers, resolved now.
    pub fn auto_at(node_threshold: usize) -> Backend {
        Backend::Auto {
            node_threshold,
            threads: default_parallel_threads(),
        }
    }

    /// The parallel backend with [`default_parallel_threads`] workers.
    pub fn parallel() -> Backend {
        Backend::Parallel {
            threads: default_parallel_threads(),
        }
    }

    /// The thread count this backend uses on an `n`-vertex graph
    /// (always at least 1; `1` means the sequential path).
    pub fn effective_threads(&self, n: usize) -> usize {
        match *self {
            Backend::Sequential => 1,
            Backend::Parallel { threads } => threads.max(1),
            Backend::Auto {
                node_threshold,
                threads,
            } => {
                if n >= node_threshold.max(1) {
                    threads.max(1)
                } else {
                    1
                }
            }
        }
    }

    /// Caps the thread count of `Parallel` and `Auto` at `cap` (≥ 1);
    /// `Sequential` passes through unchanged.
    pub fn clamped(self, cap: usize) -> Backend {
        let cap = cap.max(1);
        match self {
            Backend::Sequential => Backend::Sequential,
            Backend::Parallel { threads } => Backend::Parallel {
                threads: threads.clamp(1, cap),
            },
            Backend::Auto {
                node_threshold,
                threads,
            } => Backend::Auto {
                node_threshold,
                threads: threads.clamp(1, cap),
            },
        }
    }

    /// Parses a backend spec: `sequential` (or `seq`), `parallel`
    /// (default threads), `parallel:T`, `auto` (default threshold), or
    /// `auto:N` (flip at `N` nodes). `parallel` and both `auto` forms
    /// resolve their thread count through [`default_parallel_threads`]
    /// here, once.
    pub fn parse(s: &str) -> Option<Backend> {
        let (name, param) = match s.split_once(':') {
            Some((n, p)) => (n, Some(p)),
            None => (s, None),
        };
        match (name, param) {
            ("sequential" | "seq", None) => Some(Backend::Sequential),
            ("parallel" | "par", None) => Some(Backend::parallel()),
            ("parallel" | "par", Some(t)) => {
                let threads: usize = t.parse().ok().filter(|&t| t > 0)?;
                Some(Backend::Parallel { threads })
            }
            ("auto", None) => Some(Backend::auto()),
            ("auto", Some(n)) => Some(Backend::auto_at(n.parse().ok()?)),
            _ => None,
        }
    }

    /// A canonical spelling that [`Backend::parse`] accepts back.
    /// `Auto` keeps its `auto:N` spelling without the thread count, so
    /// it parses back to the host's default threads.
    pub fn label(&self) -> String {
        match *self {
            Backend::Sequential => "sequential".to_string(),
            Backend::Parallel { threads } => format!("parallel:{threads}"),
            Backend::Auto { node_threshold, .. } => format!("auto:{node_threshold}"),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Parses a thread-count environment value: a positive integer, with a
/// diagnosable error for everything else (zero would deadlock, and a
/// typo must not silently serialize a run). Shared by the simulator's
/// `EVEN_CYCLE_SIM_THREADS` and the experiment engine's
/// `EVEN_CYCLE_WORKERS`.
pub fn parse_thread_count(var: &str, raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Err(format!("{var} is 0; the thread count must be positive")),
        Ok(w) => Ok(w),
        Err(_) => Err(format!("{var} is not a positive integer: {raw:?}")),
    }
}

/// The intra-run thread count the environment asks for:
/// `Ok(Some(t))` when [`SIM_THREADS_ENV`] is a positive integer,
/// `Ok(None)` when unset, `Err` when set but unusable.
pub fn sim_threads_env_override() -> Result<Option<usize>, String> {
    match std::env::var(SIM_THREADS_ENV) {
        Ok(raw) => parse_thread_count(SIM_THREADS_ENV, &raw).map(Some),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => {
            Err(format!("{SIM_THREADS_ENV} is not valid unicode"))
        }
    }
}

/// The default thread count of the parallel backends:
/// [`SIM_THREADS_ENV`] when set to a positive integer (an invalid
/// value warns on stderr instead of being silently coerced), else the
/// machine's available parallelism (at least 1).
///
/// The environment value is capped at the machine's parallelism, so a
/// default never asks for more threads than the host has; the engine
/// clamps `Parallel` and `Auto` counts further, where the whole budget
/// is visible.
pub fn default_parallel_threads() -> usize {
    let available = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    match sim_threads_env_override() {
        Ok(Some(t)) => t.min(available),
        Ok(None) => available,
        Err(msg) => {
            eprintln!("warning: {msg}; using available parallelism");
            available
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_canonical_labels() {
        for b in [
            Backend::Sequential,
            Backend::Parallel { threads: 3 },
            Backend::auto_at(1000),
        ] {
            assert_eq!(Backend::parse(&b.label()), Some(b), "{b}");
        }
        assert_eq!(Backend::parse("seq"), Some(Backend::Sequential));
        assert_eq!(Backend::parse("auto"), Some(Backend::auto()));
        assert_eq!(Backend::auto_at(1000).label(), "auto:1000");
        assert!(matches!(
            Backend::parse("parallel"),
            Some(Backend::Parallel { threads }) if threads >= 1
        ));
        assert_eq!(Backend::parse("parallel:0"), None);
        assert_eq!(Backend::parse("nope"), None);
        assert_eq!(Backend::parse("auto:x"), None);
    }

    #[test]
    fn effective_threads_respects_the_auto_threshold() {
        let auto = Backend::Auto {
            node_threshold: 100,
            threads: 3,
        };
        assert_eq!(auto.effective_threads(99), 1);
        assert_eq!(auto.effective_threads(100), 3);
        assert_eq!(Backend::Sequential.effective_threads(1_000_000), 1);
        assert_eq!(
            Backend::Parallel { threads: 4 }.effective_threads(10),
            4,
            "explicit parallel ignores the size"
        );
        assert_eq!(Backend::Parallel { threads: 0 }.effective_threads(10), 1);
    }

    #[test]
    fn clamped_bounds_parallel_and_auto_threads() {
        assert_eq!(
            Backend::Parallel { threads: 16 }.clamped(4),
            Backend::Parallel { threads: 4 }
        );
        assert_eq!(Backend::Sequential.clamped(4), Backend::Sequential);
        let auto = |threads| Backend::Auto {
            node_threshold: 100,
            threads,
        };
        assert_eq!(auto(16).clamped(4), auto(4));
        assert_eq!(auto(2).clamped(4), auto(2));
        assert_eq!(auto(16).clamped(0), auto(1));
    }

    #[test]
    fn thread_count_values_parse_or_diagnose() {
        assert_eq!(parse_thread_count("X", "4"), Ok(4));
        assert_eq!(parse_thread_count("X", " 8 "), Ok(8));
        assert!(parse_thread_count("X", "0").unwrap_err().contains("X"));
        assert!(parse_thread_count("X", "fuor")
            .unwrap_err()
            .contains("\"fuor\""));
        assert!(parse_thread_count("X", "-2").is_err());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_parallel_threads() >= 1);
    }
}
