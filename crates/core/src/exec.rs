//! The execution-context abstraction: protocol logic written once, run
//! on any substrate.
//!
//! The paper's evaluation runs daMulticast under a synchronous round
//! simulator; a production deployment runs it on real threads with real
//! message passing. Both substrates offer the same five capabilities to
//! the protocol — identity, virtual time, best-effort send, a
//! deterministic per-process RNG, and labelled metrics — captured here as
//! the [`Exec`] trait. Protocol state machines implement [`ExecProtocol`]
//! against it and are thereby portable:
//!
//! * `da_simnet::Ctx` implements [`Exec`] (below), so every
//!   [`ExecProtocol`] runs under the deterministic simulator — the
//!   `da_simnet::Protocol` impls of [`crate::DaProcess`] and
//!   [`crate::DagProcess`] are one-line delegations;
//! * `da-runtime`'s live context implements [`Exec`] over an in-memory
//!   threaded transport, so the *same* tables, bootstrap, maintenance,
//!   and dissemination code serves live traffic.
//!
//! The trait is deliberately minimal: anything substrate-specific
//! (channel loss models, failure plans, thread placement) stays out of
//! the protocol's sight, exactly as the paper's Sec. III system model
//! prescribes (processes see only send/receive over unreliable channels).

use da_simnet::ProcessId;
use rand::rngs::SmallRng;

/// One process' view of its execution substrate during a protocol
/// callback.
///
/// `round` is virtual time: gossip rounds under the simulator, scheduler
/// ticks under the live runtime. Messages sent here are best-effort — the
/// substrate may drop, delay, or reorder them, and the protocol must not
/// assume otherwise.
pub trait Exec {
    /// The message type travelling between processes.
    type Msg;

    /// The process this callback runs at.
    fn me(&self) -> ProcessId;

    /// Current virtual time (simulator round / runtime tick).
    fn round(&self) -> u64;

    /// Queues a best-effort message to `to`.
    fn send(&mut self, to: ProcessId, msg: Self::Msg);

    /// The deterministic RNG stream of this process.
    fn rng(&mut self) -> &mut SmallRng;

    /// Increments the metrics counter `label` by one.
    ///
    /// Pass long-lived label strings, shared by every process that
    /// counts under the label (e.g. one interned set per topic), and
    /// never a string formatted per call: the registry resolves a label
    /// it has seen at the same address in O(1), and falls back to
    /// hashing its bytes for any other string.
    fn bump(&mut self, label: &str);

    /// Adds `delta` to the metrics counter `label`.
    fn add(&mut self, label: &str, delta: u64);
}

impl<M> Exec for da_simnet::Ctx<'_, M> {
    type Msg = M;

    fn me(&self) -> ProcessId {
        da_simnet::Ctx::me(self)
    }

    fn round(&self) -> u64 {
        da_simnet::Ctx::round(self)
    }

    fn send(&mut self, to: ProcessId, msg: M) {
        da_simnet::Ctx::send(self, to, msg);
    }

    fn rng(&mut self) -> &mut SmallRng {
        da_simnet::Ctx::rng(self)
    }

    fn bump(&mut self, label: &str) {
        self.counters().bump(label);
    }

    fn add(&mut self, label: &str, delta: u64) {
        self.counters().add_named(label, delta);
    }
}

/// A substrate-portable protocol state machine.
///
/// The hook contract matches `da_simnet::Protocol`: `on_start` once
/// before virtual time 0, `on_message` per delivered message, `on_round`
/// once per round/tick — but every hook is generic over the execution
/// context, so one implementation serves both the simulator and the live
/// runtime.
pub trait ExecProtocol {
    /// The protocol's message type.
    type Msg;

    /// Called once before round/tick 0. Default: no-op.
    fn on_start<X: Exec<Msg = Self::Msg>>(&mut self, ctx: &mut X) {
        let _ = ctx;
    }

    /// Called when a message addressed to this process is delivered.
    fn on_message<X: Exec<Msg = Self::Msg>>(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut X,
    );

    /// Called once per round/tick, after the round's deliveries. Default:
    /// no-op.
    fn on_round<X: Exec<Msg = Self::Msg>>(&mut self, round: u64, ctx: &mut X) {
        let _ = (round, ctx);
    }

    /// Called when the substrate's failure plan recovers this process
    /// (it was crashed and comes back), at the start of the recovery
    /// round/tick and before any delivery. The protocol's re-entry
    /// path: [`crate::DaProcess`] restarts its super-contact bootstrap
    /// here, since its tables may have gone stale while it was down.
    /// Default: no-op.
    fn on_recover<X: Exec<Msg = Self::Msg>>(&mut self, ctx: &mut X) {
        let _ = ctx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_simnet::{Engine, SimConfig, WireSize};

    /// A protocol written purely against [`ExecProtocol`], checked here
    /// under the simulator adapter.
    struct Echo {
        heard: Vec<(ProcessId, u8)>,
    }

    #[derive(Clone, Debug)]
    struct Byte(u8);
    impl WireSize for Byte {
        fn wire_size(&self) -> usize {
            1
        }
    }

    impl ExecProtocol for Echo {
        type Msg = Byte;

        fn on_start<X: Exec<Msg = Byte>>(&mut self, ctx: &mut X) {
            if ctx.me() == ProcessId(0) {
                ctx.send(ProcessId(1), Byte(7));
                ctx.bump("echo.pings");
            }
        }

        fn on_message<X: Exec<Msg = Byte>>(&mut self, from: ProcessId, msg: Byte, ctx: &mut X) {
            self.heard.push((from, msg.0));
            if msg.0 > 0 {
                ctx.send(from, Byte(msg.0 - 1));
            }
            ctx.add("echo.bytes", 1);
        }
    }

    /// The simulator-side adapter is a pure delegation, like the ones the
    /// real protocols use.
    impl da_simnet::Protocol for Echo {
        type Msg = Byte;
        fn on_start(&mut self, ctx: &mut da_simnet::Ctx<'_, Byte>) {
            ExecProtocol::on_start(self, ctx);
        }
        fn on_message(&mut self, from: ProcessId, msg: Byte, ctx: &mut da_simnet::Ctx<'_, Byte>) {
            ExecProtocol::on_message(self, from, msg, ctx);
        }
        fn on_round(&mut self, round: u64, ctx: &mut da_simnet::Ctx<'_, Byte>) {
            ExecProtocol::on_round(self, round, ctx);
        }
    }

    #[test]
    fn exec_protocol_runs_under_the_simulator() {
        let procs = vec![Echo { heard: vec![] }, Echo { heard: vec![] }];
        let mut engine = Engine::new(SimConfig::default().with_seed(1), procs);
        engine.run_until_quiescent(32);
        // The byte ping-pongs 7 → 0: eight deliveries in total.
        assert_eq!(engine.counters().get("echo.bytes"), 8);
        assert_eq!(engine.counters().get("echo.pings"), 1);
        assert_eq!(engine.process(ProcessId(1)).heard.len(), 4);
        assert_eq!(engine.process(ProcessId(0)).heard.len(), 4);
    }

    #[test]
    fn ctx_exec_exposes_identity_time_and_rng() {
        struct Probe {
            ok: bool,
        }
        #[derive(Clone, Debug)]
        struct Nothing;
        impl WireSize for Nothing {
            fn wire_size(&self) -> usize {
                0
            }
        }
        impl ExecProtocol for Probe {
            type Msg = Nothing;
            fn on_message<X: Exec<Msg = Nothing>>(
                &mut self,
                _f: ProcessId,
                _m: Nothing,
                _c: &mut X,
            ) {
            }
            fn on_round<X: Exec<Msg = Nothing>>(&mut self, round: u64, ctx: &mut X) {
                use rand::Rng as _;
                let _draw: u64 = ctx.rng().gen();
                self.ok = ctx.round() == round && ctx.me() == ProcessId(0);
            }
        }
        impl da_simnet::Protocol for Probe {
            type Msg = Nothing;
            fn on_message(
                &mut self,
                f: ProcessId,
                m: Nothing,
                c: &mut da_simnet::Ctx<'_, Nothing>,
            ) {
                ExecProtocol::on_message(self, f, m, c);
            }
            fn on_round(&mut self, round: u64, ctx: &mut da_simnet::Ctx<'_, Nothing>) {
                ExecProtocol::on_round(self, round, ctx);
            }
        }
        let mut engine = Engine::new(SimConfig::default(), vec![Probe { ok: false }]);
        engine.run_rounds(3);
        assert!(engine.process(ProcessId(0)).ok);
    }
}
