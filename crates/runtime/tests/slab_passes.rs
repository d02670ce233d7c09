//! The two per-tick population passes against their references: the
//! lifecycle's stripe pass (scripted fates, then the churn kernel)
//! against the per-process `FailurePlan::transition` step, and the
//! runtime's slab hook passes against the simulator's, process by
//! process.

use da_core::failure::{FailureModel, FailurePlan, Fate};
use da_runtime::{LifecycleController, LifecycleTransitions, Runtime, RuntimeConfig};
use da_simnet::{Ctx, Engine, ProcessId, Protocol, SimConfig, WireSize};
use damulticast::{Exec, ExecProtocol};
use proptest::prelude::*;
use rand::Rng as _;
use std::sync::Arc;

const TICKS: u64 = 8;

/// What `begin_tick` must report for the stripe of `worker` (of
/// `stride`), derived one process at a time from `transition`, which
/// also advances `alive` (indexed by pid).
fn reference_tick(
    plan: &FailurePlan,
    alive: &mut [bool],
    worker: usize,
    stride: usize,
    tick: u64,
) -> LifecycleTransitions {
    let mut out = LifecycleTransitions::default();
    for (slot, pid) in (worker..alive.len()).step_by(stride).enumerate() {
        let was_alive = alive[pid];
        let t = plan.transition(ProcessId::from_index(pid), tick, was_alive);
        alive[pid] = t.alive;
        out.churn_crashes += u64::from(t.churn_crashed);
        out.churn_recoveries += u64::from(t.churn_recovered);
        if t.recovered {
            out.recovered.push(slot);
        }
        if was_alive && !t.alive {
            out.crashed.push(slot);
        }
    }
    out
}

/// Builds the plan: a scripted schedule (out-of-range pids included),
/// optionally on top of churn, with a same-round crash and recover of one
/// pid in either order.
fn build_plan(
    population: usize,
    fates: &[(u64, u32, bool)],
    flicker: (u64, u32, bool),
    churn: Option<(f64, f64)>,
    seed: u64,
) -> FailurePlan {
    let mut script: Vec<Fate> = fates
        .iter()
        .map(|&(round, pid, crash)| Fate {
            round,
            pid: ProcessId(pid),
            crash,
        })
        .collect();
    let (round, pid, crash_first) = flicker;
    for crash in [crash_first, !crash_first] {
        script.push(Fate {
            round,
            pid: ProcessId(pid),
            crash,
        });
    }
    match churn {
        None => FailureModel::Schedule(script).materialize(population, seed),
        Some((crash_probability, recover_probability)) => {
            let mut plan = FailureModel::Churn {
                crash_probability,
                recover_probability,
            }
            .materialize(population, seed);
            for fate in script {
                if fate.pid.index() < population {
                    plan.push_fate(fate);
                }
            }
            plan
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `begin_tick` on 1–3-worker stripes reports exactly the
    /// transitions, and leaves exactly the statuses, of the per-process
    /// `transition` reference — under random schedules with and without
    /// churn.
    #[test]
    fn begin_tick_matches_the_per_process_reference(
        population in 1usize..12,
        workers in 1usize..=3,
        fates in prop::collection::vec((0u64..TICKS, 0u32..13, any::<bool>()), 0..16),
        flicker in (0u64..TICKS, 0u32..12, any::<bool>()),
        churny in any::<bool>(),
        crash in 0.0f64..0.6,
        recover in 0.0f64..0.6,
        seed in any::<u64>(),
    ) {
        let churn = churny.then_some((crash, recover));
        let plan = Arc::new(build_plan(population, &fates, flicker, churn, seed));
        let mut alive = vec![true; population];
        let mut controllers: Vec<LifecycleController> = (0..workers)
            .map(|w| {
                let owned = population.saturating_sub(w).div_ceil(workers);
                LifecycleController::new(Arc::clone(&plan), w, workers, owned)
            })
            .collect();
        for tick in 0..TICKS {
            for (w, lc) in controllers.iter_mut().enumerate() {
                let expected = reference_tick(&plan, &mut alive, w, workers, tick);
                prop_assert_eq!(lc.begin_tick(tick), expected, "worker {} tick {}", w, tick);
                let stripe: Vec<bool> = (w..population).step_by(workers).map(|p| alive[p]).collect();
                let statuses: Vec<bool> =
                    lc.statuses().iter().map(|s| s.is_alive()).collect();
                prop_assert_eq!(statuses, stripe, "worker {} tick {}", w, tick);
            }
        }
    }
}

/// Logs every hook call with the process's first draw of that call.
#[derive(Clone, Debug, Default)]
struct DrawLog {
    log: Vec<(ProcessId, u64, u64)>,
}

#[derive(Clone, Debug)]
struct Nothing;

impl WireSize for Nothing {
    fn wire_size(&self) -> usize {
        0
    }
}

impl ExecProtocol for DrawLog {
    type Msg = Nothing;

    fn on_start<X: Exec<Msg = Nothing>>(&mut self, ctx: &mut X) {
        let draw = ctx.rng().gen();
        self.log.push((ctx.me(), u64::MAX, draw));
    }

    fn on_message<X: Exec<Msg = Nothing>>(&mut self, _: ProcessId, _: Nothing, _: &mut X) {}

    fn on_round<X: Exec<Msg = Nothing>>(&mut self, round: u64, ctx: &mut X) {
        let draw = ctx.rng().gen();
        self.log.push((ctx.me(), round, draw));
    }
}

impl Protocol for DrawLog {
    type Msg = Nothing;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Nothing>) {
        ExecProtocol::on_start(self, ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: Nothing, ctx: &mut Ctx<'_, Nothing>) {
        ExecProtocol::on_message(self, from, msg, ctx);
    }

    fn on_round(&mut self, round: u64, ctx: &mut Ctx<'_, Nothing>) {
        ExecProtocol::on_round(self, round, ctx);
    }
}

/// The runtime's slab hook passes skip crashed slots and map uneven
/// stripes to the right pids: every process logs the same
/// `(me, round, first draw)` sequence as on the simulator, at 1, 2 and
/// 3 workers over a population divisible by neither 2 nor 3.
#[test]
fn hook_passes_match_the_simulator_under_churn() {
    const N: usize = 13;
    const ROUNDS: u64 = 30;
    let failures = || FailureModel::Churn {
        crash_probability: 0.2,
        recover_probability: 0.3,
    };
    let mut engine = Engine::new(
        SimConfig::default().with_seed(17).with_failures(failures()),
        vec![DrawLog::default(); N],
    );
    engine.run_rounds(ROUNDS);
    let sim: Vec<DrawLog> = engine.into_processes();
    for (pid, p) in sim.iter().enumerate() {
        assert!(p.log.iter().all(|&(me, _, _)| me.index() == pid));
    }
    let skipped = sim
        .iter()
        .map(|p| ROUNDS as usize + 1 - p.log.len())
        .sum::<usize>();
    assert!(skipped > 0, "churn must crash some process for some round");

    for workers in 1..=3 {
        let config = RuntimeConfig::default()
            .with_workers(workers)
            .with_seed(17)
            .with_failures(failures());
        let mut rt = Runtime::spawn(config, vec![DrawLog::default(); N]);
        rt.run_ticks(ROUNDS);
        let live = rt.shutdown().processes;
        for (pid, (s, l)) in sim.iter().zip(&live).enumerate() {
            assert_eq!(s.log, l.log, "p{pid} at {workers} workers");
        }
    }
}
