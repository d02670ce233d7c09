//! The live counterpart of the simulator's failure handling: a
//! [`LifecycleController`] per worker applies the shared
//! `da_core::failure::FailurePlan` to the worker's stripe of processes.
//!
//! The controller is deliberately dumb: all randomness lives in the
//! plan, whose churn draws are stateless `(pid, round)` hashes
//! ([`FailurePlan::churn_flips`]), run over the stripe by the plan's own
//! churn kernel ([`FailurePlan::churn_sweep`]) — the same kernel the
//! simulator runs over its whole population. Each worker therefore
//! advances the liveness of its own processes without coordination, and
//! the resulting fates are **identical** to a single-threaded simulator
//! run over the same seed, whatever the worker count — the lifecycle
//! analogue of the transport's per-edge channel streams.

use da_core::failure::FailurePlan;
use da_core::process::{ProcessId, ProcessStatus};
use da_core::seed::{derive_seed, rng_from_seed};
use rand::rngs::SmallRng;
use std::sync::Arc;

/// Seed stream tag separating the per-worker observer streams from the
/// plan's own observation stream.
const WORKER_OBSERVER_STREAM: u64 = 0x0B5E_0000_0000_0100;

/// What one [`LifecycleController::begin_tick`] changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LifecycleTransitions {
    /// Churn-driven crashes this tick (scripted fates are not counted —
    /// mirroring the simulator's `sim.churn_crashes`).
    pub churn_crashes: u64,
    /// Churn-driven recoveries this tick.
    pub churn_recoveries: u64,
    /// Local (stripe) indices of every process that came back this tick
    /// — scripted or churn-driven — and is still alive after all
    /// transitions applied. The worker runs their `on_recover` hooks.
    pub recovered: Vec<usize>,
    /// Local (stripe) indices of every process that went down this tick
    /// — scripted or churn-driven. The worker's flight recorder stamps
    /// them as `Crashed` lifecycle events.
    pub crashed: Vec<usize>,
}

/// Applies a [`FailurePlan`] to one worker's stripe of processes.
///
/// Owned by the worker thread alongside its processes: stillborn fates
/// apply at construction (a stillborn process never runs `on_start`),
/// and [`LifecycleController::begin_tick`] advances scripted fates and
/// churn draws at the start of every tick, before any delivery — the
/// exact point the simulator applies them in `step_round`.
///
/// ```
/// use da_core::failure::{Fate, FailureModel};
/// use da_core::ProcessId;
/// use da_runtime::LifecycleController;
/// use std::sync::Arc;
///
/// // p1 crashes at tick 2 and recovers at tick 5.
/// let plan = Arc::new(
///     FailureModel::Schedule(vec![
///         Fate { round: 2, pid: ProcessId(1), crash: true },
///         Fate { round: 5, pid: ProcessId(1), crash: false },
///     ])
///     .materialize(2, 42),
/// );
/// // One worker owning the whole population (stride 1).
/// let mut lc = LifecycleController::new(plan, 0, 1, 2);
/// assert!(lc.is_alive(1));
/// lc.begin_tick(2);
/// assert!(!lc.is_alive(1), "scripted crash applied");
/// lc.begin_tick(3);
/// lc.begin_tick(4);
/// let t = lc.begin_tick(5);
/// assert!(lc.is_alive(1));
/// assert_eq!(t.recovered, vec![1], "worker must run p1's on_recover");
/// ```
#[derive(Debug)]
pub struct LifecycleController {
    plan: Arc<FailurePlan>,
    /// Liveness of each owned process, indexed by local stripe slot
    /// (`pid = worker + slot * stride`).
    status: Vec<ProcessStatus>,
    /// Per-worker observation stream of the per-observer model; `None`
    /// when the plan never samples observers.
    observer_rng: Option<SmallRng>,
    /// Pid of local slot 0 (the worker's id); slot `i` is
    /// `first + i * stride`.
    first: ProcessId,
    stride: u32,
}

impl LifecycleController {
    /// Builds the controller for the worker owning processes
    /// `worker + i * stride` for `i < owned`, applying the plan's
    /// stillborn fates immediately.
    ///
    /// # Panics
    ///
    /// Panics if a pid of the stripe exceeds `u32::MAX` — checked once
    /// here, so the per-tick churn pass needs no check.
    #[must_use]
    pub fn new(plan: Arc<FailurePlan>, worker: usize, stride: usize, owned: usize) -> Self {
        let stride = stride.max(1);
        let first = ProcessId::from_index(worker);
        let last = owned
            .saturating_sub(1)
            .saturating_mul(stride)
            .saturating_add(worker);
        let _ = ProcessId::from_index(last);
        // One pass over the plan's crashed list (not one scan per owned
        // process): flip exactly the stillborn pids of this stripe.
        let mut status = vec![ProcessStatus::Alive; owned];
        for pid in plan.initially_crashed() {
            let idx = pid.index();
            if idx % stride == worker {
                let slot = (idx - worker) / stride;
                if slot < owned {
                    status[slot] = ProcessStatus::Crashed;
                }
            }
        }
        let observer_rng = plan.observer_alive_probability().map(|_| {
            rng_from_seed(derive_seed(
                plan.observation_seed(),
                WORKER_OBSERVER_STREAM + worker as u64,
            ))
        });
        LifecycleController {
            plan,
            status,
            observer_rng,
            first,
            // Only the stride between two owned pids matters, and with
            // two or more slots the last pid bounds it to `u32`.
            stride: u32::try_from(stride).unwrap_or(u32::MAX),
        }
    }

    /// Liveness of the process at local stripe slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics when `slot` is out of range for the stripe.
    #[must_use]
    pub fn is_alive(&self, slot: usize) -> bool {
        self.status[slot].is_alive()
    }

    /// Status of the process at local stripe slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics when `slot` is out of range for the stripe.
    #[must_use]
    pub fn status(&self, slot: usize) -> ProcessStatus {
        self.status[slot]
    }

    /// The statuses of the whole stripe, indexed by local slot — what
    /// the worker's hook passes zip with its process slab.
    #[must_use]
    pub fn statuses(&self) -> &[ProcessStatus] {
        &self.status
    }

    /// Number of currently alive processes in the stripe.
    #[must_use]
    pub fn alive_count(&self) -> usize {
        self.status.iter().filter(|s| s.is_alive()).count()
    }

    /// True when the plan can never change anyone's liveness — the
    /// whole controller is then a no-op the worker can skip thinking
    /// about.
    #[must_use]
    pub fn is_inert(&self) -> bool {
        self.plan.is_inert()
    }

    /// Samples whether one particular transmission observes its target
    /// as alive — the per-observer model (paper Fig. 11), drawn on this
    /// worker's own observation stream. Always `true` outside
    /// `FailureModel::PerObserver`.
    ///
    /// Per-observer failures are *per transmission by definition*
    /// (independent Bernoulli draws, uncorrelated across observers), so
    /// a per-worker stream reproduces the model exactly; only the — by
    /// construction meaningless — global draw order differs from the
    /// simulator's single stream.
    #[must_use]
    pub fn observes_alive(&mut self) -> bool {
        match self.observer_rng.as_mut() {
            None => true,
            Some(rng) => self.plan.observes_alive(rng),
        }
    }

    /// Applies the transitions due at the start of `tick` to the owned
    /// stripe and reports what changed, reaching exactly the fates of
    /// the per-process reference `FailurePlan::transition`.
    ///
    /// It has the simulator's structure: the tick's scripted fates (a
    /// slice of the plan's schedule) apply to the stripe's slots they
    /// name, then the plan's churn kernel sweeps the whole stripe. The
    /// sweep is the only per-process work, one hash and one integer
    /// compare each; scripted fates cost what the tick's schedule costs.
    pub fn begin_tick(&mut self, tick: u64) -> LifecycleTransitions {
        let mut out = LifecycleTransitions::default();
        let plan = &*self.plan;
        if !plan.has_transitions() {
            return out;
        }
        let (worker, stride) = (self.first.index(), self.stride as usize);
        // Slots the scripted fates touched, ascending (the schedule is
        // sorted by pid within a round): `(slot, alive before the tick,
        // came back this tick)`.
        let mut touched: Vec<(usize, bool, bool)> = Vec::new();
        for fate in plan.fates_at(tick) {
            let idx = fate.pid.index();
            if idx % stride != worker {
                continue;
            }
            let slot = idx / stride;
            let Some(status) = self.status.get_mut(slot) else {
                continue;
            };
            let came_back = !fate.crash && !status.is_alive();
            match touched.last_mut() {
                Some(t) if t.0 == slot => t.2 |= came_back,
                _ => touched.push((slot, status.is_alive(), came_back)),
            }
            *status = if fate.crash {
                ProcessStatus::Crashed
            } else {
                ProcessStatus::Alive
            };
        }
        let mut next = 0;
        plan.churn_sweep(
            tick,
            &mut self.status,
            self.first,
            self.stride,
            |slot, _, alive| {
                if alive {
                    out.churn_recoveries += 1;
                } else {
                    out.churn_crashes += 1;
                }
                while touched.get(next).is_some_and(|t| t.0 < slot) {
                    next += 1;
                }
                match touched.get_mut(next) {
                    // A scripted slot is reported below, from its state
                    // before the tick and after every transition.
                    Some(t) if t.0 == slot => t.2 |= alive,
                    _ if alive => out.recovered.push(slot),
                    _ => out.crashed.push(slot),
                }
            },
        );
        if !touched.is_empty() {
            for (slot, was_alive, came_back) in touched {
                let alive = self.status[slot].is_alive();
                if came_back && alive {
                    out.recovered.push(slot);
                }
                if was_alive && !alive {
                    out.crashed.push(slot);
                }
            }
            out.recovered.sort_unstable();
            out.crashed.sort_unstable();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_core::failure::{FailureModel, Fate};

    fn plan(model: FailureModel, population: usize, seed: u64) -> Arc<FailurePlan> {
        Arc::new(model.materialize(population, seed))
    }

    #[test]
    fn stillborn_applies_at_construction() {
        let p = plan(
            FailureModel::Stillborn {
                alive_fraction: 0.5,
            },
            10,
            3,
        );
        // Two workers, stride 2: the stripes' dead counts sum to the
        // plan's.
        let lc0 = LifecycleController::new(Arc::clone(&p), 0, 2, 5);
        let lc1 = LifecycleController::new(Arc::clone(&p), 1, 2, 5);
        let dead = (5 - lc0.alive_count()) + (5 - lc1.alive_count());
        assert_eq!(dead, p.initially_crashed().len());
        assert_eq!(dead, 5);
    }

    #[test]
    fn scheduled_fates_route_to_the_owning_stripe() {
        let p = plan(
            FailureModel::Schedule(vec![
                Fate {
                    round: 1,
                    pid: ProcessId(3),
                    crash: true,
                },
                Fate {
                    round: 1,
                    pid: ProcessId(4),
                    crash: true,
                },
            ]),
            6,
            0,
        );
        let mut lc0 = LifecycleController::new(Arc::clone(&p), 0, 2, 3); // pids 0,2,4
        let mut lc1 = LifecycleController::new(Arc::clone(&p), 1, 2, 3); // pids 1,3,5
        lc0.begin_tick(1);
        lc1.begin_tick(1);
        assert!(!lc0.is_alive(2), "pid 4 crashed on worker 0");
        assert!(!lc1.is_alive(1), "pid 3 crashed on worker 1");
        assert!(lc0.is_alive(0) && lc0.is_alive(1));
        assert!(lc1.is_alive(0) && lc1.is_alive(2));
    }

    #[test]
    fn churn_fates_are_stripe_independent() {
        // The full liveness trajectory over any striping equals the
        // single-stripe (simulator-shaped) trajectory.
        let model = FailureModel::Churn {
            crash_probability: 0.3,
            recover_probability: 0.3,
        };
        let p = plan(model, 12, 99);
        let trajectory = |workers: usize| -> Vec<Vec<bool>> {
            let mut controllers: Vec<LifecycleController> = (0..workers)
                .map(|w| {
                    let owned = (12 - w).div_ceil(workers);
                    LifecycleController::new(Arc::clone(&p), w, workers, owned)
                })
                .collect();
            (0..20u64)
                .map(|tick| {
                    for lc in &mut controllers {
                        lc.begin_tick(tick);
                    }
                    (0..12)
                        .map(|pid| {
                            let w = pid % workers;
                            controllers[w].is_alive((pid - w) / workers)
                        })
                        .collect()
                })
                .collect()
        };
        let single = trajectory(1);
        assert_eq!(single, trajectory(3));
        assert_eq!(single, trajectory(5));
        // The run actually saw transitions.
        assert!(single.iter().any(|row| row.iter().any(|a| !a)));
    }

    #[test]
    fn recovered_slots_reported_once_and_alive() {
        let p = plan(
            FailureModel::Schedule(vec![
                Fate {
                    round: 0,
                    pid: ProcessId(0),
                    crash: true,
                },
                Fate {
                    round: 2,
                    pid: ProcessId(0),
                    crash: false,
                },
                // Recovering an alive process is a no-op, not a re-entry.
                Fate {
                    round: 2,
                    pid: ProcessId(1),
                    crash: false,
                },
            ]),
            2,
            0,
        );
        let mut lc = LifecycleController::new(p, 0, 1, 2);
        let t0 = lc.begin_tick(0);
        assert_eq!(t0.recovered, Vec::<usize>::new());
        assert_eq!(t0.crashed, vec![0], "scripted crash reported");
        let t1 = lc.begin_tick(1);
        assert_eq!(t1.recovered, Vec::<usize>::new());
        assert_eq!(t1.crashed, Vec::<usize>::new(), "no re-report while down");
        let t2 = lc.begin_tick(2);
        assert_eq!(t2.recovered, vec![0]);
        assert_eq!(t2.crashed, Vec::<usize>::new());
    }

    #[test]
    fn observer_sampling_draws_at_the_configured_rate() {
        let p = plan(
            FailureModel::PerObserver {
                alive_fraction: 0.7,
            },
            4,
            9,
        );
        let mut lc0 = LifecycleController::new(Arc::clone(&p), 0, 2, 2);
        let mut lc1 = LifecycleController::new(Arc::clone(&p), 1, 2, 2);
        let alive0 = (0..10_000).filter(|_| lc0.observes_alive()).count();
        let alive1 = (0..10_000).filter(|_| lc1.observes_alive()).count();
        for alive in [alive0, alive1] {
            assert!((6_600..7_400).contains(&alive), "got {alive}/10000");
        }
        // Nobody is actually crashed in this model, and workers draw on
        // independent streams.
        assert_eq!(lc0.alive_count(), 2);
        assert!(!p.is_inert());

        // Outside PerObserver the sampler is a constant true.
        let mut none = LifecycleController::new(plan(FailureModel::None, 4, 9), 0, 1, 4);
        assert!((0..100).all(|_| none.observes_alive()));
    }

    #[test]
    fn inert_plans_are_flagged() {
        let none = LifecycleController::new(plan(FailureModel::None, 4, 0), 0, 1, 4);
        assert!(none.is_inert());
        let churny = LifecycleController::new(
            plan(
                FailureModel::Churn {
                    crash_probability: 0.1,
                    recover_probability: 0.1,
                },
                4,
                0,
            ),
            0,
            1,
            4,
        );
        assert!(!churny.is_inert());
        assert_eq!(churny.status(0), ProcessStatus::Alive);
    }
}
