//! Ablations of Algorithm 1's design choices.
//!
//! ```text
//! cargo run --release -p even-cycle-bench --bin ablation
//! ```
//!
//! * **A1 — threshold sensitivity**: scale the global threshold `τ` by
//!   `{0, 0.01, 0.1, 1}` and watch the detection rate collapse when the
//!   threshold discards working sets (the reason `τ` must be *global*,
//!   `Θ(n^{1-1/k})`: a too-small bound silently kills the heavy search).
//! * **A2 — activation probability** (the Lemma 12 trade): sweep the
//!   `randomized-color-BFS` activation from `1/τ` to 1 and chart the
//!   congestion/success frontier. At `1/τ` the congestion is `O(1)` and
//!   the success small; at 1 the success is Algorithm 1's but so is the
//!   congestion.
//! * **A3 — why `W` needs `k²` selected neighbors**: replace `k²` by
//!   smaller constants in the `W`-definition; the detector stays *sound*
//!   (one-sidedness never depends on it) — the constant buys the
//!   completeness argument (Lemma 3 / Fact 3), not safety.

use congest_graph::{generators, FamilySpec};
use even_cycle::{random_coloring, run_color_bfs, Budget, CycleDetector, Params, RunOptions};
use even_cycle_bench::render_table;

fn main() {
    // ---------- A1: threshold sensitivity ----------
    // planted-polarity:4 at n = 133 is the ER_11 host with a planted C4
    // (the shared catalog family; no ad-hoc construction).
    let g = FamilySpec::PlantedPolarity { l: 4 }.build(133, 5);
    let n = g.node_count();
    let trials = 20u64;
    let mut rows = Vec::new();
    for scale in [0.0f64, 0.01, 0.1, 1.0] {
        let base = Params::practical(2);
        let inst = base.instantiate(n);
        let tau = (inst.tau as f64 * scale) as u64;
        // Run the three phases manually with the overridden τ.
        let mut detected = 0;
        for seed in 0..trials {
            let det = CycleDetector::new(base.clone().with_repetitions(1));
            let (_, m) =
                det.build_memberships(&g, seed, &Budget::classical(), &RunOptions::default());
            let all = vec![true; n];
            let not_s: Vec<bool> = m.s_mask.iter().map(|&b| !b).collect();
            let mut hit = false;
            for r in 0..120u64 {
                let colors = random_coloring(n, 4, seed ^ (r << 8));
                let phases: [(&[bool], &[bool]); 3] = [
                    (&m.u_mask, &m.u_mask),
                    (&all, &m.s_mask),
                    (&not_s, &m.w_mask),
                ];
                for (ci, (h, x)) in phases.into_iter().enumerate() {
                    let res =
                        run_color_bfs(&g, 2, &colors, h, x, None, tau, seed ^ (r << 4) ^ ci as u64);
                    if res.rejection.is_some() {
                        hit = true;
                    }
                }
                if hit {
                    break;
                }
            }
            if hit {
                detected += 1;
            }
        }
        rows.push(vec![
            format!("{scale}"),
            format!("{tau}"),
            format!("{detected}/{trials}"),
        ]);
    }
    println!(
        "{}",
        render_table(
            "A1 — detection rate vs threshold scale (planted C4, 120 colorings/trial)",
            &["tau scale", "tau", "detected"],
            &rows
        )
    );

    // ---------- A2: the congestion/success frontier ----------
    let g = FamilySpec::PlantedPolarity { l: 4 }.build(133, 9);
    let n = g.node_count();
    let inst = Params::practical(2).instantiate(n);
    let mut rows = Vec::new();
    for mult in [1.0f64, 4.0, 16.0, 64.0, f64::INFINITY] {
        let activation = if mult.is_infinite() {
            1.0
        } else {
            (mult / inst.tau as f64).min(1.0)
        };
        let all = vec![true; n];
        let mut max_congestion = 0u64;
        let mut successes = 0u64;
        let trials = 400u64;
        for seed in 0..trials {
            let colors = random_coloring(n, 4, seed * 31 + 7);
            let res = run_color_bfs(
                &g,
                2,
                &colors,
                &all,
                &all,
                Some(activation),
                4,
                seed * 17 + 3,
            );
            max_congestion = max_congestion.max(res.report.congestion.max_words_per_edge_step);
            if res.rejection.is_some() {
                successes += 1;
            }
        }
        rows.push(vec![
            format!("{activation:.5}"),
            format!("{max_congestion}"),
            format!("{successes}/{trials}"),
        ]);
    }
    println!(
        "{}",
        render_table(
            "A2 — randomized-color-BFS: activation vs congestion vs success (threshold 4)",
            &["activation", "max edge load", "single-call successes"],
            &rows
        )
    );
    println!("(Lemma 12 operates at the first row: O(1) congestion, ~1/tau success, which Theorem 3 amplifies quadratically.)\n");

    // ---------- A3: the k² constant in W ----------
    // Soundness is unconditional; measure detection of a heavy cycle as
    // the W-threshold shrinks (completeness degrades gracefully on easy
    // instances, but the k² constant is what the Density Lemma's
    // counting needs in the worst case).
    let (g, planted) = generators::plant_cycle_on_heavy_hub(&generators::empty(24), 4, 80, 3);
    let n = g.node_count();
    let mut rows = Vec::new();
    for w_threshold in [1usize, 2, 4] {
        let mut detected = 0;
        let trials = 12u64;
        for seed in 0..trials {
            // Force S to a fixed half of the hub's leaves, then define W
            // with the ablated threshold.
            let mut s_mask = vec![false; n];
            s_mask[24..24 + 40].fill(true);
            let w_mask: Vec<bool> = (0..n)
                .map(|v| {
                    !s_mask[v]
                        && g.neighbors(congest_graph::NodeId::new(v as u32))
                            .iter()
                            .filter(|u| s_mask[u.index()])
                            .count()
                            >= w_threshold
                })
                .collect();
            let not_s: Vec<bool> = s_mask.iter().map(|&b| !b).collect();
            let inst = Params::practical(2).instantiate(n);
            let mut hit = false;
            for r in 0..200u64 {
                let colors = random_coloring(n, 4, seed ^ (r << 9));
                let res = run_color_bfs(
                    &g,
                    2,
                    &colors,
                    &not_s,
                    &w_mask,
                    None,
                    inst.tau,
                    seed ^ (r << 3),
                );
                if res.rejection.is_some() {
                    hit = true;
                    break;
                }
            }
            if hit {
                detected += 1;
            }
        }
        rows.push(vec![
            format!("{w_threshold}"),
            format!("{detected}/{trials}"),
        ]);
    }
    println!(
        "{}",
        render_table(
            "A3 — heavy-phase detection vs W-membership threshold (k² = 4 is the paper's)",
            &["|N(u) ∩ S| >=", "detected"],
            &rows
        )
    );
    let _ = planted;
}
