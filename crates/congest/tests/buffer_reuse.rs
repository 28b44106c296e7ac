//! `sim.buffer.reuse_hits` across the runs of one session. The counter
//! is process-wide, so this file holds a single test: nothing else in
//! its process moves the counter while the deltas are read.

use congest_graph::{generators, NodeId};
use congest_sim::{Backend, Control, Ctx, Executor, Outbox, Program};
use congest_telemetry::Registry;

/// Sends its id point-to-point twice to every neighbor in init — more
/// than the one message per edge a session reserves room for — then
/// halts.
struct Chatty;

impl Program for Chatty {
    type Msg = u32;
    fn init(&mut self, ctx: &mut Ctx, out: &mut Outbox<u32>) {
        for &to in ctx.neighbors.iter().chain(ctx.neighbors) {
            out.send(to, ctx.node.raw());
        }
    }
    fn step(
        &mut self,
        _ctx: &mut Ctx,
        _superstep: usize,
        _inbox: &[(NodeId, u32)],
        _out: &mut Outbox<u32>,
    ) -> Control {
        Control::Halt
    }
}

#[test]
fn a_retained_outbox_is_reused_on_the_first_superstep_of_a_later_run() {
    let hits = Registry::global().counter("sim.buffer.reuse_hits");
    let g = generators::cycle(10);
    for backend in [Backend::Sequential, Backend::Parallel { threads: 2 }] {
        let mut session = Executor::new(backend);
        let before = hits.value();
        session.run(&g, 0, |_, _| Chatty, 4).unwrap();
        assert_eq!(
            hits.value() - before,
            0,
            "{backend}: in a fresh session every outbox outgrows its reservation"
        );
        let before = hits.value();
        session.run(&g, 1, |_, _| Chatty, 4).unwrap();
        assert_eq!(
            hits.value() - before,
            10,
            "{backend}: every outbox keeps the room the first run grew it to"
        );
    }
}
