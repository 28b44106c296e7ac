//! The deterministic baseline (Table 1 rows [15, 30]): `C_ℓ` detection by
//! full-graph gathering with honest `O(m + D)` round accounting.
//!
//! **Substitution note** (DESIGN.md §2.6). Korhonen–Rybicki \[30\] decide
//! `C_ℓ`-freeness deterministically in `Õ(n)` rounds of broadcast
//! CONGEST via derandomized color-coding. We substitute the simplest
//! deterministic algorithm with the same upper-bound shape on the sparse
//! families the experiments use (`m = O(n)`): pipeline every edge record
//! to every node (`O(m + D)` rounds — each node must receive `m` tokens
//! over at least one incident edge, so this is also optimal for full
//! gathering), then decide locally by exact search. On sparse inputs the
//! measured rounds grow as `Θ(n)`, matching the `Θ̃(n)` row; the
//! experiments only ever compare *shapes*.

use congest_graph::{analysis, CycleWitness, Graph, NodeId};
use congest_sim::{run_with_backend, Control, Ctx, Decision, Outbox, Program, RunReport, SimError};
use even_cycle::{Budget, Descriptor, DetectResult, Detection, Detector, Model, RunCost, Target};

/// An edge record `(u, v)` flooded through the network; two identifier
/// words.
type EdgeRecord = (u32, u32);

/// The gathering program: every node floods all edge records it knows;
/// after quiescence every node knows the whole graph and decides locally.
#[derive(Debug, Clone)]
struct GatherProgram {
    /// Target cycle length to decide.
    cycle_len: usize,
    /// Every edge record this node has seen (sorted).
    known: Vec<EdgeRecord>,
    /// Records not yet forwarded.
    fresh: Vec<EdgeRecord>,
    /// Verdict after the final local decision.
    found: Option<CycleWitness>,
    /// Rounds of silence before a node assumes quiescence. In a real
    /// network termination uses an `O(D)`-round echo wave; the simulator
    /// reaches global quiescence naturally, and the executor stops when
    /// all nodes halt.
    quiet: usize,
}

impl Program for GatherProgram {
    type Msg = Vec<EdgeRecord>;

    fn init(&mut self, ctx: &mut Ctx, out: &mut Outbox<Vec<EdgeRecord>>) {
        // Seed with the local incident edges.
        let me = ctx.node.raw();
        for &nbr in ctx.neighbors {
            let rec = ordered(me, nbr.raw());
            self.known.push(rec);
            self.fresh.push(rec);
        }
        self.known.sort_unstable();
        self.known.dedup();
        out.broadcast(self.fresh.drain(..).collect::<Vec<_>>());
    }

    fn step(
        &mut self,
        _ctx: &mut Ctx,
        _superstep: usize,
        inbox: &[(NodeId, Vec<EdgeRecord>)],
        out: &mut Outbox<Vec<EdgeRecord>>,
    ) -> Control {
        for (_, records) in inbox {
            for &rec in records {
                if self.known.binary_search(&rec).is_err() {
                    let pos = self.known.partition_point(|&r| r < rec);
                    self.known.insert(pos, rec);
                    self.fresh.push(rec);
                }
            }
        }
        if !self.fresh.is_empty() {
            self.quiet = 0;
            out.broadcast(self.fresh.drain(..).collect::<Vec<_>>());
            return Control::Continue;
        }
        self.quiet += 1;
        if self.quiet >= 2 {
            // Quiescent: decide locally from the gathered graph.
            let n = self
                .known
                .iter()
                .map(|&(a, b)| a.max(b) as usize + 1)
                .max()
                .unwrap_or(0);
            if n > 0 {
                let g = Graph::from_edges(n, self.known.iter().copied())
                    .expect("gathered records form a graph");
                self.found = analysis::find_cycle_exact(&g, self.cycle_len, None);
            }
            Control::Halt
        } else {
            Control::Continue
        }
    }

    fn decision(&self) -> Decision {
        if self.found.is_some() {
            Decision::Reject
        } else {
            Decision::Accept
        }
    }
}

fn ordered(a: u32, b: u32) -> EdgeRecord {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The outcome of the deterministic gather-and-decide baseline.
#[derive(Debug, Clone)]
pub struct GatherOutcome {
    /// Whether a `C_ℓ` exists (exact — this baseline has no error at
    /// all).
    pub rejected: bool,
    /// The witness found by the (arbitrary) first rejecting node.
    pub witness: Option<CycleWitness>,
    /// CONGEST costs (`rounds = Θ(m + D)` by construction).
    pub report: RunReport,
}

/// The gather-and-decide baseline: decides a single cycle length `ℓ`
/// exactly (no error at all), at `Θ(m + D)` rounds.
///
/// This is the one detector whose simulation can genuinely fail (the
/// flooding step count depends on the input); [`GatherDetector::run`]
/// and [`Detector::detect`] surface that as the shared fallible path
/// instead of a panic.
///
/// ```
/// use congest_graph::generators;
/// use congest_baselines::deterministic::GatherDetector;
/// use even_cycle::Budget;
/// let g = generators::cycle(7);
/// let outcome = GatherDetector::new(7).run(&g, 1, &Budget::classical())?;
/// assert!(outcome.rejected);
/// let outcome = GatherDetector::new(5).run(&g, 1, &Budget::classical())?;
/// assert!(!outcome.rejected);
/// # Ok::<(), congest_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GatherDetector {
    cycle_len: usize,
}

impl GatherDetector {
    /// Creates the detector for `C_ℓ` (`ℓ ≥ 3`).
    ///
    /// # Panics
    ///
    /// Panics if `cycle_len < 3`.
    pub fn new(cycle_len: usize) -> Self {
        assert!(cycle_len >= 3, "cycles start at C3");
        GatherDetector { cycle_len }
    }

    /// The decided cycle length.
    pub fn cycle_length(&self) -> usize {
        self.cycle_len
    }

    /// Decides `C_ℓ`-freeness by full gathering, simulated on the
    /// budget's backend and charged at its bandwidth. Deterministic and
    /// exact: the protocol reads no randomness, the repetition override
    /// has nothing to repeat, and caps apply only through
    /// [`Budget::enforce`].
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (step-limit; cannot happen with the
    /// default limit of `4(m + n) + 64` supersteps).
    pub fn run(&self, g: &Graph, seed: u64, budget: &Budget) -> Result<GatherOutcome, SimError> {
        let limit = 4 * (g.edge_count() as u64 + g.node_count() as u64) + 64;
        let (report, nodes) = run_with_backend(
            g,
            seed,
            budget.backend,
            budget.bandwidth,
            None,
            |_, _| GatherProgram {
                cycle_len: self.cycle_len,
                known: Vec::new(),
                fresh: Vec::new(),
                found: None,
                quiet: 0,
            },
            limit,
        )?;
        let witness = report
            .rejecting_nodes
            .first()
            .and_then(|&v| nodes[v as usize].found.clone());
        Ok(GatherOutcome {
            rejected: report.rejected(),
            witness,
            report,
        })
    }
}

impl Detector for GatherDetector {
    fn descriptor(&self) -> Descriptor {
        // Table 1's [15,30] deterministic row is specifically the odd
        // family; the even-length gather has no Table 1 row of its own.
        let (target, table1) = if self.cycle_len.is_multiple_of(2) {
            (
                Target::Even {
                    k: self.cycle_len / 2,
                },
                None,
            )
        } else {
            (
                Target::Odd {
                    k: (self.cycle_len - 1) / 2,
                },
                Some(even_cycle::theory::Table1Row::KorhonenRybickiOdd),
            )
        };
        Descriptor {
            name: "deterministic gather",
            reference: "[15,30]",
            model: Model::Classical,
            target,
            exponent: 1.0,
            table1,
        }
    }

    fn detect(&self, g: &Graph, seed: u64, budget: &Budget) -> DetectResult {
        let o = self.run(g, seed, budget)?;
        let cost = RunCost::from_report(&o.report, 1);
        Ok(budget.enforce(Detection::of_run(self.descriptor(), o.witness, false, cost)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;

    fn gather(g: &Graph, cycle_len: usize, seed: u64) -> Result<GatherOutcome, SimError> {
        GatherDetector::new(cycle_len).run(g, seed, &Budget::classical())
    }

    #[test]
    fn exact_on_cycles() {
        let g = generators::cycle(9);
        assert!(gather(&g, 9, 0).unwrap().rejected);
        assert!(!gather(&g, 7, 0).unwrap().rejected);
        assert!(!gather(&g, 4, 0).unwrap().rejected);
    }

    #[test]
    fn witness_is_valid() {
        let host = generators::random_tree(25, 2);
        let (g, _) = generators::plant_cycle(&host, 5, 2);
        let o = gather(&g, 5, 1).unwrap();
        assert!(o.rejected);
        let w = o.witness.unwrap();
        assert_eq!(w.len(), 5);
        assert!(w.is_valid(&g));
    }

    #[test]
    fn rounds_scale_with_edges() {
        // Gathering m records through a bottleneck edge costs Ω(m).
        let a = gather(&generators::cycle(16), 3, 0).unwrap();
        let b = gather(&generators::cycle(64), 3, 0).unwrap();
        assert!(
            b.report.rounds >= 3 * a.report.rounds,
            "rounds must grow ~linearly: {} vs {}",
            a.report.rounds,
            b.report.rounds
        );
    }

    #[test]
    fn deterministic_across_seeds() {
        // The decision is seed-independent (no randomness in the
        // protocol at all).
        let g = generators::erdos_renyi(24, 0.15, 5);
        let a = gather(&g, 4, 1).unwrap();
        let c = gather(&g, 4, 2).unwrap();
        assert_eq!(a.rejected, c.rejected);
        assert_eq!(a.report.rounds, c.report.rounds);
    }
}
