//! Host-speed calibration: every timed operation is bracketed by a fixed
//! calibration kernel and reported in *calibrated seconds*, the time it
//! would take on a host where the kernel takes [`REFERENCE_S`].
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! by a third and more over seconds to minutes, as neighbours come and go
//! (a sibling hyperthread or a shared cache under load). Every sample
//! taken in one of those slow phases is slow, so no statistic over the
//! raw samples of one run is steady from run to run. The kernel is
//! benchmark-owned, fixed code on fixed inputs — a BFS over a sparse
//! random graph, a sort, and hash-map updates, the same branchy,
//! cache-bound mix the detectors run — so its time tracks the host's
//! speed at that moment and not the program's. Dividing each sample by
//! the kernel times measured just before and just after it cancels the
//! drift, while any change to the program's own speed passes through
//! unchanged.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use crate::{now, secs};

/// The kernel time calibrated seconds are scaled to: roughly one
/// single-thread kernel on a quiet 2-core host of the kind the
/// benchmark was written on.
pub const REFERENCE_S: f64 = 0.020;

/// Nodes of the kernel's random graph.
const NODES: usize = 60_000;
/// Keys the kernel sorts; the first [`HASHED`] also go into a hash map.
const KEYS: usize = 300_000;
const HASHED: usize = 100_000;

/// A kernel sample this recent may stand as the next operation's
/// "before" sample: operations measured back to back share one kernel.
const REUSE_WITHIN: Duration = Duration::from_millis(2);

/// The kernel's fixed inputs, built once per run.
struct Kernel {
    adj: Vec<Vec<u32>>,
    keys: Vec<u64>,
}

/// The kernel and the last sample taken of it.
pub struct Calibration {
    kernel: Kernel,
    /// The last "after" sample: when it ended, its thread count, seconds.
    last: Cell<Option<(Instant, usize, f64)>>,
}

/// A xorshift64 step: the kernel's inputs never depend on the workload
/// seed.
fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

impl Kernel {
    /// Builds the inputs: a random recursive tree plus `NODES` random
    /// chords, and `KEYS` random keys.
    fn new() -> Kernel {
        let mut s = 0x2545_f491_4f6c_dd1d_u64;
        let mut adj = vec![Vec::new(); NODES];
        let join = |adj: &mut Vec<Vec<u32>>, a: usize, b: usize| {
            adj[a].push(b as u32);
            adj[b].push(a as u32);
        };
        for v in 1..NODES {
            let u = (xorshift(&mut s) % v as u64) as usize;
            join(&mut adj, u, v);
        }
        for _ in 0..NODES {
            let a = (xorshift(&mut s) % NODES as u64) as usize;
            let b = (xorshift(&mut s) % NODES as u64) as usize;
            join(&mut adj, a, b);
        }
        let keys = (0..KEYS).map(|_| xorshift(&mut s)).collect();
        Kernel { adj, keys }
    }

    /// One kernel: two BFS passes, a sort, and hash-map updates.
    fn run(&self) -> u64 {
        let n = self.adj.len();
        let mut dist = vec![u32::MAX; n];
        let mut queue = VecDeque::new();
        let mut total = 0u64;
        for source in [0, n / 2] {
            dist.fill(u32::MAX);
            dist[source] = 0;
            queue.push_back(source);
            while let Some(v) = queue.pop_front() {
                for &u in &self.adj[v] {
                    let u = u as usize;
                    if dist[u] == u32::MAX {
                        dist[u] = dist[v] + 1;
                        total += u64::from(dist[u]);
                        queue.push_back(u);
                    }
                }
            }
        }
        let mut sorted = self.keys.clone();
        sorted.sort_unstable();
        total = total.wrapping_add(sorted[KEYS / 2]);
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for (i, &k) in self.keys[..HASHED].iter().enumerate() {
            *counts.entry(k % (HASHED as u64 / 2)).or_default() += i as u64;
        }
        total.wrapping_add(counts.len() as u64)
    }
}

impl Calibration {
    /// Builds the kernel's inputs.
    pub fn new() -> Calibration {
        Calibration {
            kernel: Kernel::new(),
            last: Cell::new(None),
        }
    }

    /// Wall seconds of `threads` kernels run at once, one per thread:
    /// what the host gives an operation of that many threads right now.
    pub fn sample(&self, threads: usize) -> f64 {
        let kernel = &self.kernel;
        let t = now();
        // audit:allow(R3): calibration threads, joined before returning.
        std::thread::scope(|scope| {
            for _ in 1..threads {
                // audit:allow(R3): a scoped calibration thread.
                scope.spawn(|| std::hint::black_box(kernel.run()));
            }
            std::hint::black_box(kernel.run());
        });
        secs(t)
    }

    /// Runs `op` between two kernel samples of `threads` threads.
    /// Returns its result and the [`Timed`] figures. The "after" sample
    /// of an operation of the same thread count that ended just now
    /// serves as this one's "before".
    pub fn time<T>(&self, threads: usize, op: impl FnOnce() -> T) -> (T, Timed) {
        let before = match self.last.get() {
            Some((at, n, seconds)) if n == threads && at.elapsed() < REUSE_WITHIN => seconds,
            _ => self.sample(threads),
        };
        let t = now();
        let out = op();
        let raw = secs(t);
        let after = self.sample(threads);
        self.last.set(Some((now(), threads, after)));
        (out, Timed::new(raw, (before + after) / 2.0))
    }
}

/// One timed operation: its raw wall seconds and the kernel time around
/// it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// Wall-clock seconds.
    pub raw: f64,
    /// Mean kernel seconds just before and just after.
    pub kernel: f64,
}

impl Timed {
    /// A timing of `raw` seconds beside a kernel of `kernel` seconds.
    pub fn new(raw: f64, kernel: f64) -> Timed {
        Timed { raw, kernel }
    }

    /// The operation's time in calibrated seconds.
    pub fn calibrated(&self) -> f64 {
        self.raw * REFERENCE_S / self.kernel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_time_scales_by_the_kernel() {
        // A kernel twice the reference halves the time, and back.
        let slow = Timed::new(3.0, 2.0 * REFERENCE_S);
        assert!((slow.calibrated() - 1.5).abs() < 1e-12);
        let fast = Timed::new(3.0, REFERENCE_S / 2.0);
        assert!((fast.calibrated() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn the_kernel_is_deterministic() {
        let k = Kernel::new();
        assert_eq!(k.run(), k.run());
        assert_eq!(k.run(), Kernel::new().run());
    }
}
