//! Running detectors on gadget graphs and metering the cut.
//!
//! The reduction argument: a `T(n)`-round CONGEST algorithm on the gadget
//! graph can be simulated by Alice and Bob exchanging only what crosses
//! the cut — `O(T · cut · log n)` bits. Solving Set-Disjointness needs
//! `Ω(N)` bits classically (`Ω(r + N/r)` qubits over `r` rounds,
//! Braverman et al. \[4\]), so `T = Ω(N / (cut · log n))` classically and
//! `T = Ω(√(N / (cut · log n)))` quantumly. This module measures the
//! left-hand side empirically.

use congest_graph::CycleWitness;
use congest_sim::{derive_seed, Backend, Executor};
use even_cycle::{random_coloring, run_color_bfs_backend, Budget, CycleDetector, Params};

use crate::gadgets::BuiltGadget;

/// The measured communication of one detector execution on a gadget.
#[derive(Debug, Clone)]
pub struct ReductionMeasurement {
    /// Whether the detector rejected (found the target cycle).
    pub rejected: bool,
    /// The witness, when found.
    pub witness: Option<CycleWitness>,
    /// CONGEST rounds spent.
    pub rounds: u64,
    /// Words that crossed the Alice/Bob cut.
    pub cut_words: u64,
    /// `⌈log₂ n⌉`, the bits-per-word conversion.
    pub bits_per_word: u32,
    /// The gadget's cut size.
    pub cut_size: usize,
}

impl ReductionMeasurement {
    /// Total bits across the cut.
    pub fn cut_bits(&self) -> u64 {
        self.cut_words * u64::from(self.bits_per_word)
    }

    /// The two-party protocol cost bound `T · cut · log n` this execution
    /// certifies — the quantity the lower bound compares to `N`.
    pub fn protocol_bound(&self) -> u64 {
        self.rounds * self.cut_size as u64 * u64::from(self.bits_per_word)
    }
}

/// Runs Algorithm 1 (with the given parameters) on a built gadget with a
/// cut meter installed and reports the measured communication.
///
/// Algorithm 1 is run one coloring iteration at a time so the cut meter
/// captures exactly the rounds executed (the driver's own orchestration
/// is free in the two-party simulation).
pub fn measure_even_detection(
    gadget: &BuiltGadget,
    params: &Params,
    iterations: usize,
    seed: u64,
) -> ReductionMeasurement {
    let g = &gadget.graph;
    let n = g.node_count();
    let k = params.k;
    let inst = params.instantiate(n);
    let bits_per_word = (n as f64).log2().ceil() as u32;

    // Set construction (as in CycleDetector, but the cut meter must see
    // the color-BFS traffic, so we run the calls directly).
    let detector = CycleDetector::new(params.clone());
    let (_, memberships) =
        detector.build_memberships(g, seed, &Budget::classical(), &Default::default());
    let all_mask = vec![true; n];
    let not_s: Vec<bool> = memberships.s_mask.iter().map(|&b| !b).collect();

    let mut rounds = 0u64;
    let mut cut_words = 0u64;
    let mut rejected = false;
    let mut witness = None;
    let mut session = Executor::new(Backend::Sequential);
    session.set_cut(gadget.cut_meter());

    'outer: for r in 0..iterations as u64 {
        let colors = random_coloring(n, 2 * k, derive_seed(seed, 0xC0 + r));
        let phases: [(&[bool], &[bool]); 3] = [
            (&memberships.u_mask, &memberships.u_mask),
            (&all_mask, &memberships.s_mask),
            (&not_s, &memberships.w_mask),
        ];
        for (idx, (h_mask, x_mask)) in phases.into_iter().enumerate() {
            let result = run_color_bfs_backend(
                &mut session,
                g,
                k,
                &colors,
                h_mask,
                x_mask,
                None,
                inst.tau,
                derive_seed(seed, 0xF000 + r * 3 + idx as u64),
            );
            rounds += result.report.rounds;
            cut_words += result.report.cut_words.unwrap_or(0);
            if let Some((v, origin)) = result.rejection {
                rejected = true;
                witness = even_cycle::extract_even_witness(g, h_mask, &colors, k, origin, v);
                break 'outer;
            }
        }
    }

    ReductionMeasurement {
        rejected,
        witness,
        rounds,
        cut_words,
        bits_per_word,
        cut_size: gadget.cut_size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disjointness::Disjointness;
    use crate::gadgets::C4Gadget;

    #[test]
    fn cut_traffic_measured_and_bounded() {
        let gadget = C4Gadget::new(3);
        let (inst, _) = Disjointness::random_with_planted_intersection(gadget.universe(), 3);
        let built = gadget.build(&inst);
        let params = Params::practical(2).with_repetitions(64);
        let m = measure_even_detection(&built, &params, 64, 7);
        // Cut traffic obeys the information-theoretic shape:
        // words ≤ rounds · cut (each crossing edge carries ≤ 1 word per
        // round at bandwidth 1).
        assert!(m.cut_words <= m.rounds * m.cut_size as u64);
        assert!(m.cut_words > 0, "color-BFS must cross the matching");
        assert!(m.protocol_bound() > 0);
    }

    #[test]
    fn detection_on_intersecting_gadget() {
        let gadget = C4Gadget::new(3);
        let (inst, _) = Disjointness::random_with_planted_intersection(gadget.universe(), 5);
        let built = gadget.build(&inst);
        let params = Params::practical(2).with_repetitions(256);
        let mut any = false;
        for seed in 0..4 {
            let m = measure_even_detection(&built, &params, 256, seed);
            if m.rejected {
                assert!(m.witness.as_ref().unwrap().is_valid(&built.graph));
                any = true;
                break;
            }
        }
        assert!(any, "planted intersection never detected");
    }

    #[test]
    fn soundness_on_disjoint_gadget() {
        let gadget = C4Gadget::new(3);
        let inst = Disjointness::random_disjoint(gadget.universe(), 1);
        let built = gadget.build(&inst);
        let params = Params::practical(2).with_repetitions(32);
        let m = measure_even_detection(&built, &params, 32, 2);
        assert!(!m.rejected, "one-sided error violated on the gadget");
    }
}
