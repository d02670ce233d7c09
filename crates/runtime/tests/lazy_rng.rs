//! Lazy per-process RNG slots on both substrates: a hook receives a
//! handle that derives the process's stream on its first draw, so a
//! protocol that never draws never materialises a generator, and one
//! that does draws exactly the stream the eager layout would have given
//! it.

use da_core::rng_for_process;
use da_runtime::{Runtime, RuntimeConfig};
use da_simnet::{Ctx, Engine, ProcessId, Protocol, SimConfig, WireSize};
use damulticast::{Exec, ExecProtocol};
use rand::Rng as _;

const N: u32 = 48;
const TICKS: u64 = 24;
const SEED: u64 = 31;

#[derive(Clone, Debug)]
struct Ping;

impl WireSize for Ping {
    fn wire_size(&self) -> usize {
        1
    }
}

/// Pings the next pid every round; draws only when `draws` is set.
#[derive(Clone, Debug, Default)]
struct Ring {
    draws: bool,
    drawn: Vec<u64>,
    heard: u64,
}

impl ExecProtocol for Ring {
    type Msg = Ping;

    fn on_message<X: Exec<Msg = Ping>>(&mut self, _from: ProcessId, _msg: Ping, ctx: &mut X) {
        self.heard += 1;
        ctx.bump("ring.heard");
    }

    fn on_round<X: Exec<Msg = Ping>>(&mut self, _round: u64, ctx: &mut X) {
        if self.draws {
            self.drawn.push(ctx.rng().gen());
        }
        ctx.send(ProcessId((ctx.me().0 + 1) % N), Ping);
    }
}

impl Protocol for Ring {
    type Msg = Ping;

    fn on_message(&mut self, from: ProcessId, msg: Ping, ctx: &mut Ctx<'_, Ping>) {
        ExecProtocol::on_message(self, from, msg, ctx);
    }

    fn on_round(&mut self, round: u64, ctx: &mut Ctx<'_, Ping>) {
        ExecProtocol::on_round(self, round, ctx);
    }
}

/// Every odd pid draws when `odd_draw` is set; nobody draws otherwise.
fn population(odd_draw: bool) -> Vec<Ring> {
    (0..N)
        .map(|i| Ring {
            draws: odd_draw && i % 2 == 1,
            ..Ring::default()
        })
        .collect()
}

/// Runs the population under the simulator and the live pool; returns
/// each substrate's processes and resident RNG count.
fn run_both(odd_draw: bool) -> [(Vec<Ring>, usize); 2] {
    let mut engine = Engine::new(SimConfig::default().with_seed(SEED), population(odd_draw));
    engine.run_rounds(TICKS);
    let sim_resident = engine.rng_resident();
    let sim = engine.into_processes();

    let config = RuntimeConfig::default().with_seed(SEED).with_workers(2);
    let mut rt = Runtime::spawn(config, population(odd_draw));
    rt.run_ticks(TICKS);
    let out = rt.shutdown();
    [(sim, sim_resident), (out.processes, out.rng_resident)]
}

#[test]
fn a_protocol_that_never_draws_materialises_no_rng_slot() {
    for (procs, resident) in run_both(false) {
        assert!(
            procs.iter().all(|p| p.heard > 0),
            "every hook ran and every process heard pings"
        );
        assert_eq!(resident, 0, "no draw, no slot");
    }
}

#[test]
fn a_protocol_that_draws_matches_its_eager_stream() {
    for (procs, resident) in run_both(true) {
        assert_eq!(resident, N as usize / 2, "only the drawing half");
        for (i, p) in procs.iter().enumerate() {
            let mut eager = rng_for_process(SEED, ProcessId::from_index(i));
            let want: Vec<u64> = (0..p.drawn.len()).map(|_| eager.gen()).collect();
            assert_eq!(p.drawn, want, "pid {i}");
            assert_eq!(p.drawn.len() as u64, if i % 2 == 1 { TICKS } else { 0 });
        }
    }
}
