//! Shared measurement harness for the Table 1 / Figure 1 reproduction.
//!
//! The binaries in `src/bin` regenerate the paper's evaluation artifacts
//! (see EXPERIMENTS.md at the workspace root); this library holds the
//! instance families, measurement drivers, exponent fitting, and table
//! rendering they share. Everything is deterministic given the seeds
//! embedded in the drivers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use congest_graph::{generators, Graph};
use congest_quantum::GroverMode;
use even_cycle::{
    Budget, CycleDetector, Detector, Params, QuantumCycleDetector, QuantumOddCycleDetector,
};

pub use even_cycle::theory::fit_exponent;

/// One `(n, value)` measurement sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Number of vertices.
    pub n: usize,
    /// The measured quantity (rounds, congestion, …).
    pub value: f64,
}

/// A measured scaling series with its fitted exponent.
#[derive(Debug, Clone)]
pub struct Series {
    /// Human-readable label.
    pub label: String,
    /// The samples, in increasing `n`.
    pub samples: Vec<Sample>,
    /// Fitted exponent `α` of `value ≈ c·n^α`.
    pub alpha: f64,
    /// Fitted constant `c`.
    pub constant: f64,
}

impl Series {
    /// Fits a power law to labelled samples.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two samples.
    pub fn fit(label: impl Into<String>, samples: Vec<Sample>) -> Series {
        let pairs: Vec<(f64, f64)> = samples
            .iter()
            .map(|s| (s.n as f64, s.value.max(1e-9)))
            .collect();
        let (alpha, constant) = fit_exponent(&pairs);
        Series {
            label: label.into(),
            samples,
            alpha,
            constant,
        }
    }

    /// Renders the series as an aligned text block.
    pub fn render(&self) -> String {
        let mut out = format!("{} (fitted n^{:.3}):\n", self.label, self.alpha);
        for s in &self.samples {
            out.push_str(&format!("  n = {:>6}  ->  {:>14.1}\n", s.n, s.value));
        }
        out
    }
}

/// The worst-case-density C4-free hosts for the `k = 2` experiments:
/// polarity graphs `ER_q` (extremal `Θ(n^{3/2})` edges, no C4).
pub fn c4_free_hosts(primes: &[u64]) -> Vec<Graph> {
    primes
        .iter()
        .map(|&q| generators::polarity_graph(q))
        .collect()
}

/// Sparse hosts (random trees) of the given sizes.
pub fn sparse_hosts(sizes: &[usize], seed: u64) -> Vec<Graph> {
    sizes
        .iter()
        .map(|&n| generators::random_tree(n, seed ^ n as u64))
        .collect()
}

/// Denser hosts for `k = 3`: near-regular graphs of degree
/// `≈ n^{1/3}` (the light/heavy boundary of Algorithm 1 at `k = 3`).
pub fn k3_hosts(sizes: &[usize], seed: u64) -> Vec<Graph> {
    sizes
        .iter()
        .map(|&n| {
            let d = (n as f64).powf(1.0 / 3.0).ceil() as usize + 1;
            let n_even = n + (n * d) % 2;
            generators::random_regular_ish(n_even, d, seed ^ n as u64)
        })
        .collect()
}

/// Measures a detector's rounds through the unified [`Detector`]
/// surface, averaging the metric over nothing (single run).
///
/// # Errors
///
/// Propagates the simulator error of a failed run.
pub fn measure_rounds(
    det: &dyn Detector,
    g: &Graph,
    seed: u64,
    budget: &Budget,
) -> Result<f64, congest_sim::SimError> {
    Ok(det.detect(g, seed, budget)?.cost.rounds as f64)
}

/// Measures a detector's per-iteration rounds (total rounds divided by
/// outer-loop iterations) — the quantity whose `n`-scaling Table 1
/// reports for the color-BFS family, since the repetition count `K` is
/// `n`-independent.
///
/// # Errors
///
/// Propagates the simulator error of a failed run.
pub fn measure_per_iteration(
    det: &dyn Detector,
    g: &Graph,
    seed: u64,
    budget: &Budget,
) -> Result<f64, congest_sim::SimError> {
    let d = det.detect(g, seed, budget)?;
    Ok(d.cost.rounds as f64 / d.cost.iterations.max(1) as f64)
}

/// Measures a detector's peak per-edge congestion.
///
/// # Errors
///
/// Propagates the simulator error of a failed run.
pub fn measure_congestion(
    det: &dyn Detector,
    g: &Graph,
    seed: u64,
    budget: &Budget,
) -> Result<f64, congest_sim::SimError> {
    Ok(det.detect(g, seed, budget)?.cost.max_congestion as f64)
}

/// Algorithm 1's per-coloring-iteration round cost on a host, through
/// the [`Detector`] surface (`reps` iterations, averaged). The
/// full-algorithm cost is `K ×` this with `K` independent of `n`, so
/// the fitted exponent of this series is the Table 1 exponent.
pub fn measure_classical_per_iteration(g: &Graph, k: usize, reps: usize, seed: u64) -> f64 {
    let det = CycleDetector::new(Params::practical(k));
    measure_per_iteration(&det, g, seed, &Budget::classical().with_repetitions(reps))
        .expect("color-BFS simulation cannot fail within its step bound")
}

/// The congestion (max words per edge per round) of Algorithm 1 over
/// `reps` iterations, through the [`Detector`] surface.
pub fn measure_classical_congestion(g: &Graph, k: usize, reps: usize, seed: u64) -> f64 {
    let det = CycleDetector::new(Params::practical(k));
    measure_congestion(&det, g, seed, &Budget::classical().with_repetitions(reps))
        .expect("color-BFS simulation cannot fail within its step bound")
}

/// The quantum `C_{2k}` pipeline cost (Theorem 2: decomposition +
/// per-component Theorem 3 amplification of the Lemma 12 detector),
/// through the [`Detector`] surface. Sampled Grover keeps the simulation
/// cost bounded; the round accounting is unaffected.
pub fn measure_quantum_rounds(g: &Graph, k: usize, seed: u64) -> f64 {
    let det = QuantumCycleDetector::new(Params::practical(k).with_repetitions(8), 0.1)
        .with_mode(GroverMode::Sampled { samples: 16 });
    measure_rounds(&det, g, seed, &Budget::classical())
        .expect("quantum pipeline simulation cannot fail")
}

/// The amplified odd-cycle pipeline cost (§3.4 → `Õ(√n)`), through the
/// [`Detector`] surface.
pub fn measure_quantum_odd_rounds(g: &Graph, k: usize, seed: u64) -> f64 {
    let det =
        QuantumOddCycleDetector::new(k, 8, 0.1).with_mode(GroverMode::Sampled { samples: 16 });
    measure_rounds(&det, g, seed, &Budget::classical())
        .expect("quantum pipeline simulation cannot fail")
}

/// Renders an aligned text table.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = format!("== {title} ==\n");
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>w$}", w = widths[i]))
        .collect();
    out.push_str(&header_line.join("  "));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        out.push_str(&line.join("  "));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_fit_recovers_slope() {
        let samples: Vec<Sample> = [64usize, 128, 256, 512]
            .iter()
            .map(|&n| Sample {
                n,
                value: 2.0 * (n as f64).powf(0.75),
            })
            .collect();
        let s = Series::fit("test", samples);
        assert!((s.alpha - 0.75).abs() < 1e-9);
        assert!((s.constant - 2.0).abs() < 1e-6);
        assert!(s.render().contains("n^0.750"));
    }

    #[test]
    fn hosts_have_requested_shapes() {
        let hosts = c4_free_hosts(&[3, 5]);
        assert_eq!(hosts[0].node_count(), 13);
        let sparse = sparse_hosts(&[30, 50], 1);
        assert_eq!(sparse[1].node_count(), 50);
        assert_eq!(sparse[1].edge_count(), 49);
        let k3 = k3_hosts(&[40], 2);
        assert!(k3[0].max_degree() >= 3);
    }

    #[test]
    fn classical_measurement_positive_and_deterministic() {
        let g = generators::random_tree(48, 3);
        let a = measure_classical_per_iteration(&g, 2, 3, 7);
        let b = measure_classical_per_iteration(&g, 2, 3, 7);
        assert!(a > 0.0);
        assert_eq!(a, b);
    }

    #[test]
    fn quantum_measurement_positive() {
        let g = generators::random_tree(32, 4);
        assert!(measure_quantum_rounds(&g, 2, 1) > 0.0);
        let b = generators::random_bipartite(16, 16, 0.1, 2);
        assert!(measure_quantum_odd_rounds(&b, 2, 1) > 0.0);
    }

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            "demo",
            &["col a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(t.contains("== demo =="));
        assert!(t.contains("col a"));
    }
}
