//! Failure models — shared by both execution substrates.
//!
//! The paper evaluates two regimes (Sec. VII):
//!
//! * **stillborn** (Figs. 8–10): "the state of a process (alive/failed) is
//!   set at the beginning of the simulation and does not change" — a fixed
//!   fraction of processes is crashed before round 0;
//! * **per-observer** (Fig. 11): "a process can appear to be failed for a
//!   process while appearing alive for another one (to simulate a weakly
//!   consistent membership algorithm)" — aliveness is sampled
//!   independently per transmission, so failures are uncorrelated across
//!   observers.
//!
//! [`FailureModel`] is the declarative description; [`FailurePlan`] is its
//! materialisation for one seeded run. Like `crate::channel`, the module
//! sits below both substrates: `da_simnet::Engine` applies the plan at
//! the start of every round, and `da_runtime`'s `LifecycleController`
//! applies the *identical* plan per worker stripe. To that end every
//! per-round draw is **positionally deterministic**: churn transitions
//! are sampled from a stateless `(pid, round)` hash
//! ([`FailurePlan::churn_flips`]), never from a shared sequential RNG
//! stream, so the fate of process 7 at round 12 is the same number on a
//! single-threaded simulator and on any worker striping of the live
//! pool.
//!
//! Both substrates apply churn through one kernel,
//! [`FailurePlan::churn_sweep`], which walks a stripe of statuses once
//! per round. A draw keeps the hash's top 53 bits `k` and flips when
//! `k < ⌈p·2⁵³⌉`, an integer threshold fixed when the plan is
//! materialised. This is exactly the float test `k·2⁻⁵³ < p` (for an
//! integer `k`, `k < p·2⁵³ ⇔ k < ⌈p·2⁵³⌉`, and every quantity involved
//! is exact in `f64`), so the fates are bit-identical to a float draw.
//!
//! The draw order within [`FailureModel::materialize`] is pinned:
//! stillborn selection shuffles the population on the dedicated
//! `0xFA11` stream, per-observer sampling owns the `0x0B5E` stream, and
//! churn hangs off the `0xC402` stream family — changing any of these
//! silently re-rolls committed experiment numbers.

use crate::process::{ProcessId, ProcessStatus};
use crate::seed::{derive_seed, rng_from_seed};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Seed stream tag of the stillborn population shuffle.
const STILLBORN_STREAM: u64 = 0xFA11;
/// Seed stream tag of per-observer aliveness sampling.
const OBSERVER_STREAM: u64 = 0x0B5E;
/// Seed stream tag rooting the per-`(pid, round)` churn draws.
const CHURN_STREAM: u64 = 0xC402;
/// `2⁵³`: a churn draw keeps the top 53 bits of its hash, the mantissa
/// width of an `f64` in `[0, 1)`.
const DRAW_SCALE: f64 = (1u64 << 53) as f64;

/// A scripted liveness transition used by [`FailureModel::Schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fate {
    /// Round at the start of which the transition applies.
    pub round: u64,
    /// The affected process.
    pub pid: ProcessId,
    /// `true` = crash, `false` = recover.
    pub crash: bool,
}

/// Declarative failure model of a run (simulated or live).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
#[derive(Default)]
pub enum FailureModel {
    /// All processes stay alive for the whole run.
    #[default]
    None,
    /// A uniformly random `1 - alive_fraction` of the population is crashed
    /// before round 0 and never recovers (paper Figs. 8–10).
    Stillborn {
        /// Fraction of processes that remain alive, in `[0, 1]`.
        alive_fraction: f64,
    },
    /// Every transmission independently observes its target as failed with
    /// probability `1 - alive_fraction` (paper Fig. 11). No process is
    /// globally crashed.
    PerObserver {
        /// Per-observation probability that the target appears alive.
        alive_fraction: f64,
    },
    /// Scripted crash/recovery events, applied at the start of their
    /// round. Fates naming processes outside the materialised population
    /// are dropped at [`FailureModel::materialize`] time, so both
    /// substrates see the identical (valid) schedule.
    Schedule(Vec<Fate>),
    /// Continuous churn (the paper's model assumption: "processes might
    /// crash and recover", Sec. III-A): at the start of every round each
    /// alive process crashes with `crash_probability` and each crashed
    /// process recovers with `recover_probability`. The stationary alive
    /// fraction is `recover / (crash + recover)`.
    Churn {
        /// Per-round probability that an alive process crashes.
        crash_probability: f64,
        /// Per-round probability that a crashed process recovers.
        recover_probability: f64,
    },
}

impl FailureModel {
    /// Materialises the model for a run over `population` processes,
    /// deriving all randomness from `seed`. Probabilities outside
    /// `[0, 1]` are clamped into it.
    ///
    /// # Panics
    ///
    /// Panics if a probability-valued field (`alive_fraction`,
    /// `crash_probability`, `recover_probability`) is NaN, naming the
    /// field: no clamp can give NaN a meaning, and letting it through
    /// would crash every process or panic a worker mid-run.
    #[must_use]
    pub fn materialize(&self, population: usize, seed: u64) -> FailurePlan {
        let base = FailurePlan {
            initially_crashed: Vec::new(),
            observer_alive_probability: None,
            schedule: Vec::new(),
            churn: None,
            observation_seed: seed,
            churn_seed: derive_seed(seed, CHURN_STREAM),
        };
        match self {
            FailureModel::None => base,
            FailureModel::Stillborn { alive_fraction } => {
                let alive_fraction = probability(*alive_fraction, "Stillborn::alive_fraction");
                let mut rng = rng_from_seed(derive_seed(seed, STILLBORN_STREAM));
                let mut ids: Vec<ProcessId> = (0..population).map(ProcessId::from_index).collect();
                ids.shuffle(&mut rng);
                // Round half-up so alive_fraction=1.0 keeps everyone alive
                // and 0.0 crashes everyone.
                let crashed = population - (alive_fraction * population as f64).round() as usize;
                ids.truncate(crashed);
                FailurePlan {
                    initially_crashed: ids,
                    ..base
                }
            }
            FailureModel::PerObserver { alive_fraction } => FailurePlan {
                observer_alive_probability: Some(probability(
                    *alive_fraction,
                    "PerObserver::alive_fraction",
                )),
                observation_seed: derive_seed(seed, OBSERVER_STREAM),
                ..base
            },
            FailureModel::Schedule(fates) => {
                let mut schedule = fates.clone();
                // Out-of-range fates are dropped here, once, so the
                // simulator and the runtime cannot diverge on them.
                schedule.retain(|f| f.pid.index() < population);
                schedule.sort_by_key(|f| (f.round, f.pid));
                FailurePlan { schedule, ..base }
            }
            FailureModel::Churn {
                crash_probability,
                recover_probability,
            } => FailurePlan {
                churn: Some(Churn::new(ChurnRates {
                    crash: probability(*crash_probability, "Churn::crash_probability"),
                    recover: probability(*recover_probability, "Churn::recover_probability"),
                })),
                ..base
            },
        }
    }
}

/// Clamps a probability-valued model field into `[0, 1]`, rejecting NaN
/// (which `clamp` would pass through) with a message naming `field`.
fn probability(value: f64, field: &str) -> f64 {
    assert!(
        !value.is_nan(),
        "FailureModel::{field} is NaN; it must be a probability in [0, 1]"
    );
    value.clamp(0.0, 1.0)
}

/// Per-round crash/recovery probabilities of the churn model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnRates {
    /// Per-round crash probability of alive processes.
    pub crash: f64,
    /// Per-round recovery probability of crashed processes.
    pub recover: f64,
}

/// Churn rates plus their integer draw thresholds, computed once per
/// plan so the per-process draw is one hash and one integer compare.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Churn {
    rates: ChurnRates,
    /// An alive process crashes when its draw is below this.
    crash_below: u64,
    /// A crashed process recovers when its draw is below this.
    recover_below: u64,
}

impl Churn {
    fn new(rates: ChurnRates) -> Self {
        Churn {
            rates,
            crash_below: threshold(rates.crash),
            recover_below: threshold(rates.recover),
        }
    }

    /// The threshold the draw of a process in state `alive` must beat.
    #[inline]
    fn below(&self, alive: bool) -> u64 {
        if alive {
            self.crash_below
        } else {
            self.recover_below
        }
    }
}

/// The integer threshold of probability `p` in `[0, 1]`: `⌈p·2⁵³⌉`.
///
/// A churn draw is `k = hash >> 11`, an integer below `2⁵³`, and its
/// uniform value `k·2⁻⁵³` is exact in `f64`. For an integer `k`,
/// `k·2⁻⁵³ < p ⇔ k < p·2⁵³ ⇔ k < ⌈p·2⁵³⌉`, and `p·2⁵³` and its ceiling
/// are exact too (a power-of-two scaling), so comparing `k` with the
/// threshold decides exactly what comparing the float with `p` did.
/// `p = 0` maps to 0 (never flips) and `p = 1` to `2⁵³` (always flips).
fn threshold(p: f64) -> u64 {
    (p * DRAW_SCALE).ceil() as u64
}

/// The churn draw of `pid` at `round`: the top 53 bits of a stateless
/// hash of `(churn seed, pid, round)`.
#[inline]
fn churn_draw(seed: u64, pid: u32, round: u64) -> u64 {
    derive_seed(derive_seed(seed, u64::from(pid)), round) >> 11
}

/// The outcome of one process's plan transitions for one round — what
/// [`FailurePlan::transition`] reports back to the substrate applying
/// the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Liveness entering the rest of the round, after scripted fates
    /// and the churn draw.
    pub alive: bool,
    /// True when the process came back this round and stayed up — the
    /// substrate must run its `on_recover` re-entry hook.
    pub recovered: bool,
    /// True when the churn draw crashed the process (scripted fates are
    /// not counted — mirrors the `churn_crashes` counters).
    pub churn_crashed: bool,
    /// True when the churn draw recovered the process.
    pub churn_recovered: bool,
}

/// A materialised failure plan for one seeded run. Produced by
/// [`FailureModel::materialize`]; consumed by `da_simnet::Engine` and by
/// `da_runtime`'s `LifecycleController`.
#[derive(Debug, Clone)]
pub struct FailurePlan {
    initially_crashed: Vec<ProcessId>,
    observer_alive_probability: Option<f64>,
    schedule: Vec<Fate>,
    churn: Option<Churn>,
    observation_seed: u64,
    churn_seed: u64,
}

impl FailurePlan {
    /// Processes crashed before round 0.
    #[must_use]
    pub fn initially_crashed(&self) -> &[ProcessId] {
        &self.initially_crashed
    }

    /// True when `pid` is crashed before round 0 (stillborn).
    #[must_use]
    pub fn is_initially_crashed(&self, pid: ProcessId) -> bool {
        self.initially_crashed.contains(&pid)
    }

    /// True when the plan can never change anyone's liveness nor drop an
    /// observation — the [`FailureModel::None`] materialisation. Lets a
    /// substrate skip all per-round lifecycle work.
    #[must_use]
    pub fn is_inert(&self) -> bool {
        self.initially_crashed.is_empty()
            && self.observer_alive_probability.is_none()
            && self.schedule.is_empty()
            && self.churn.is_none()
    }

    /// Per-observation aliveness probability, if the model is
    /// [`FailureModel::PerObserver`].
    #[must_use]
    pub fn observer_alive_probability(&self) -> Option<f64> {
        self.observer_alive_probability
    }

    /// The churn rates, when the model is [`FailureModel::Churn`].
    #[must_use]
    pub fn churn(&self) -> Option<ChurnRates> {
        self.churn.map(|c| c.rates)
    }

    /// Scripted transitions applying at the start of `round`, in
    /// schedule order: a binary-searched slice of the schedule, so the
    /// cost follows the schedule's length logarithmically, not linearly.
    #[must_use]
    pub fn fates_at(&self, round: u64) -> &[Fate] {
        let start = self.schedule.partition_point(|f| f.round < round);
        let rest = &self.schedule[start..];
        &rest[..rest.partition_point(|f| f.round == round)]
    }

    /// Inserts one scripted fate into an already-materialized plan,
    /// keeping the schedule sorted by `(round, pid)` — the order
    /// [`FailureModel::Schedule`] materializes in, so a plan grown fate
    /// by fate is indistinguishable from one scripted up front.
    ///
    /// This is the model checker's crash/recover injection point: the
    /// explorer pushes a fate for the *next* round, steps the engine,
    /// and the fate applies through the exact same code path a replayed
    /// `FailureModel::Schedule` would use. Callers are responsible for
    /// only naming pids inside the population, as
    /// [`FailureModel::materialize`] enforces for up-front schedules.
    pub fn push_fate(&mut self, fate: Fate) {
        let at = self
            .schedule
            .partition_point(|f| (f.round, f.pid) <= (fate.round, fate.pid));
        self.schedule.insert(at, fate);
    }

    /// The full scripted schedule, sorted by `(round, pid)`.
    #[must_use]
    pub fn schedule(&self) -> &[Fate] {
        &self.schedule
    }

    /// Whether the churn model flips the liveness of `pid` at the start
    /// of `round`, given the process is currently `alive`.
    ///
    /// The draw is a stateless hash of `(churn seed, pid, round)`, not a
    /// shared RNG stream, so **both substrates agree on every fate**
    /// regardless of execution order or worker striping — the lifecycle
    /// analogue of `crate::channel::EdgeRngs`. Given the same
    /// [`FailurePlan`] and the same starting status, a process's entire
    /// liveness trajectory is therefore identical on the simulator and on
    /// any live worker pool:
    ///
    /// ```
    /// use da_core::failure::FailureModel;
    /// use da_core::ProcessId;
    ///
    /// let plan = FailureModel::Churn {
    ///     crash_probability: 0.5,
    ///     recover_probability: 0.5,
    /// }
    /// .materialize(8, 42);
    /// let walk = |pid| -> Vec<bool> {
    ///     let mut alive = true;
    ///     (0..16)
    ///         .map(|round| {
    ///             if plan.churn_flips(pid, round, alive) {
    ///                 alive = !alive;
    ///             }
    ///             alive
    ///         })
    ///         .collect()
    /// };
    /// assert_eq!(walk(ProcessId(3)), walk(ProcessId(3)), "replay agrees");
    /// assert_ne!(walk(ProcessId(3)), walk(ProcessId(4)), "streams differ");
    /// ```
    ///
    /// The draw keeps the hash's top 53 bits `k` and flips when `k` is
    /// below the rate's integer threshold `⌈p·2⁵³⌉`, fixed when the plan
    /// is materialised. That is exactly the float test `k·2⁻⁵³ < p` (see
    /// the module docs), so rates of 0 and 1 need no special case. This
    /// is the per-process form of [`churn_sweep`](Self::churn_sweep),
    /// which both substrates run.
    #[must_use]
    #[inline]
    pub fn churn_flips(&self, pid: ProcessId, round: u64, alive: bool) -> bool {
        self.churn
            .is_some_and(|c| churn_draw(self.churn_seed, pid.0, round) < c.below(alive))
    }

    /// Runs the churn draw of `round` over a stripe of statuses — the
    /// churn kernel both substrates share. `status[i]` belongs to
    /// process `first + i × stride`; every process whose draw flips it
    /// has its status toggled and is reported to `flipped` as
    /// `(i, pid, alive now)`, in ascending `i`. A no-op without churn.
    ///
    /// Each process costs one hash and one integer compare: the seed and
    /// both thresholds are read once per call, and the pid advances by
    /// wrapping `u32` addition, so the loop has no bounds check and
    /// nothing that can panic. Pids past `u32::MAX` wrap; both
    /// substrates bound their population to `u32` at spawn.
    ///
    /// ```
    /// use da_core::failure::FailureModel;
    /// use da_core::{ProcessId, ProcessStatus};
    ///
    /// let plan = FailureModel::Churn {
    ///     crash_probability: 0.3,
    ///     recover_probability: 0.3,
    /// }
    /// .materialize(9, 7);
    /// // The stripe of pids 1, 4, 7 (worker 1 of 3), all alive.
    /// let mut stripe = [ProcessStatus::Alive; 3];
    /// let mut flips = Vec::new();
    /// plan.churn_sweep(5, &mut stripe, ProcessId(1), 3, |_, pid, _| flips.push(pid));
    /// let expected: Vec<ProcessId> = [1, 4, 7]
    ///     .map(ProcessId)
    ///     .into_iter()
    ///     .filter(|&pid| plan.churn_flips(pid, 5, true))
    ///     .collect();
    /// assert_eq!(flips, expected);
    /// ```
    #[inline]
    pub fn churn_sweep(
        &self,
        round: u64,
        status: &mut [ProcessStatus],
        first: ProcessId,
        stride: u32,
        mut flipped: impl FnMut(usize, ProcessId, bool),
    ) {
        let Some(churn) = self.churn else {
            return;
        };
        let seed = self.churn_seed;
        let mut pid = first.0;
        for (slot, s) in status.iter_mut().enumerate() {
            let alive = s.is_alive();
            if churn_draw(seed, pid, round) < churn.below(alive) {
                *s = if alive {
                    ProcessStatus::Crashed
                } else {
                    ProcessStatus::Alive
                };
                flipped(slot, ProcessId(pid), !alive);
            }
            pid = pid.wrapping_add(stride);
        }
    }

    /// True when the plan can ever change a process's liveness after
    /// round 0 — i.e. it carries scripted fates or churn. Lets a
    /// substrate skip the per-round transition scan entirely.
    #[must_use]
    pub fn has_transitions(&self) -> bool {
        !self.schedule.is_empty() || self.churn.is_some()
    }

    /// Applies one round's worth of plan transitions to `pid`: scripted
    /// fates first (in schedule order), then the churn draw — and
    /// reports everything a substrate needs to act on them.
    ///
    /// This is the per-process reference of a round: the simulator's
    /// `step_round` and the runtime's `LifecycleController::begin_tick`
    /// apply the round's [`fates_at`](Self::fates_at) and then
    /// [`churn_sweep`](Self::churn_sweep) to their whole population or
    /// stripe, which reaches the same fates, and the
    /// [`FailurePlan::alive_at`] replay walks this step directly.
    #[must_use]
    #[inline]
    pub fn transition(&self, pid: ProcessId, round: u64, mut alive: bool) -> Transition {
        let mut came_back = false;
        for fate in self.fates_at(round) {
            if fate.pid == pid {
                if !fate.crash && !alive {
                    came_back = true;
                }
                alive = !fate.crash;
            }
        }
        let mut churn_crashed = false;
        let mut churn_recovered = false;
        if self.churn_flips(pid, round, alive) {
            if alive {
                churn_crashed = true;
            } else {
                churn_recovered = true;
                came_back = true;
            }
            alive = !alive;
        }
        Transition {
            alive,
            // A process only re-enters (runs `on_recover`) when some
            // transition brought it back AND it is still up once every
            // transition of the round has applied.
            recovered: came_back && alive,
            churn_crashed,
            churn_recovered,
        }
    }

    /// Applies one round's worth of plan transitions to `pid` and
    /// returns only the resulting liveness — [`FailurePlan::transition`]
    /// without the bookkeeping.
    #[must_use]
    pub fn step_alive(&self, pid: ProcessId, round: u64, alive: bool) -> bool {
        self.transition(pid, round, alive).alive
    }

    /// Whether `pid` is alive during `round`, i.e. after the plan's
    /// transitions for rounds `0..=round` have applied — an exact replay
    /// of the trajectory either substrate executes, usable to pick
    /// publishers that are up at their publish tick without running
    /// anything.
    #[must_use]
    pub fn alive_at(&self, pid: ProcessId, round: u64) -> bool {
        let mut alive = !self.is_initially_crashed(pid);
        for r in 0..=round {
            alive = self.step_alive(pid, r, alive);
        }
        alive
    }

    /// Samples whether one particular transmission observes its target as
    /// alive. Deterministic in `(seed, sequence)` so replays agree.
    #[must_use]
    pub fn observes_alive<R: Rng>(&self, rng: &mut R) -> bool {
        match self.observer_alive_probability {
            None => true,
            Some(p) => rng.gen_bool(p),
        }
    }

    /// Seed reserved for observation sampling.
    #[must_use]
    pub fn observation_seed(&self) -> u64 {
        self.observation_seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Maps a 64-bit hash to a uniform `f64` in `[0, 1)` using the top 53
    /// bits — the float draw the integer thresholds must reproduce.
    pub(super) fn unit_f64(x: u64) -> f64 {
        (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    #[test]
    fn none_crashes_nobody() {
        let plan = FailureModel::None.materialize(100, 1);
        assert!(plan.initially_crashed().is_empty());
        assert_eq!(plan.observer_alive_probability(), None);
        assert!(plan.is_inert());
    }

    #[test]
    fn stillborn_crashes_expected_count() {
        let plan = FailureModel::Stillborn {
            alive_fraction: 0.7,
        }
        .materialize(1000, 1);
        assert_eq!(plan.initially_crashed().len(), 300);
        assert!(!plan.is_inert());
        let a_crashed = plan.initially_crashed()[0];
        assert!(plan.is_initially_crashed(a_crashed));
    }

    #[test]
    fn stillborn_extremes() {
        let all_alive = FailureModel::Stillborn {
            alive_fraction: 1.0,
        }
        .materialize(50, 9);
        assert!(all_alive.initially_crashed().is_empty());
        let all_dead = FailureModel::Stillborn {
            alive_fraction: 0.0,
        }
        .materialize(50, 9);
        assert_eq!(all_dead.initially_crashed().len(), 50);
    }

    #[test]
    fn stillborn_is_seed_deterministic() {
        let m = FailureModel::Stillborn {
            alive_fraction: 0.5,
        };
        let a = m.materialize(100, 7);
        let b = m.materialize(100, 7);
        assert_eq!(a.initially_crashed(), b.initially_crashed());
        let c = m.materialize(100, 8);
        assert_ne!(a.initially_crashed(), c.initially_crashed());
    }

    #[test]
    fn per_observer_samples_with_probability() {
        let plan = FailureModel::PerObserver {
            alive_fraction: 0.5,
        }
        .materialize(10, 3);
        let mut rng = rng_from_seed(plan.observation_seed());
        let alive = (0..10_000)
            .filter(|_| plan.observes_alive(&mut rng))
            .count();
        assert!((4_500..5_500).contains(&alive), "got {alive}");
    }

    #[test]
    fn per_observer_one_always_observes_alive() {
        let plan = FailureModel::PerObserver {
            alive_fraction: 1.0,
        }
        .materialize(10, 3);
        let mut rng = rng_from_seed(0);
        assert!((0..100).all(|_| plan.observes_alive(&mut rng)));
    }

    #[test]
    fn schedule_sorted_and_filtered() {
        let plan = FailureModel::Schedule(vec![
            Fate {
                round: 5,
                pid: ProcessId(1),
                crash: true,
            },
            Fate {
                round: 2,
                pid: ProcessId(0),
                crash: true,
            },
            Fate {
                round: 5,
                pid: ProcessId(0),
                crash: false,
            },
        ])
        .materialize(10, 0);
        assert_eq!(plan.fates_at(2).len(), 1);
        assert_eq!(plan.fates_at(5).len(), 2);
        assert_eq!(plan.fates_at(9).len(), 0);
    }

    #[test]
    fn push_fate_matches_upfront_schedule() {
        // A plan grown fate-by-fate must be indistinguishable from one
        // scripted up front: same sort, same fates_at answers.
        let fates = [
            Fate {
                round: 5,
                pid: ProcessId(1),
                crash: true,
            },
            Fate {
                round: 2,
                pid: ProcessId(0),
                crash: true,
            },
            Fate {
                round: 5,
                pid: ProcessId(0),
                crash: false,
            },
        ];
        let upfront = FailureModel::Schedule(fates.to_vec()).materialize(10, 0);
        let mut grown = FailureModel::None.materialize(10, 0);
        for fate in fates {
            grown.push_fate(fate);
        }
        assert_eq!(grown.schedule(), upfront.schedule());
        assert!(!grown.is_inert(), "a pushed fate makes the plan active");
    }

    #[test]
    fn clamps_out_of_range_fractions() {
        let plan = FailureModel::Stillborn {
            alive_fraction: 2.0,
        }
        .materialize(10, 0);
        assert!(plan.initially_crashed().is_empty());
        let plan = FailureModel::PerObserver {
            alive_fraction: -1.0,
        }
        .materialize(10, 0);
        assert_eq!(plan.observer_alive_probability(), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "Stillborn::alive_fraction is NaN")]
    fn stillborn_rejects_nan() {
        let _ = FailureModel::Stillborn {
            alive_fraction: f64::NAN,
        }
        .materialize(10, 0);
    }

    #[test]
    #[should_panic(expected = "PerObserver::alive_fraction is NaN")]
    fn per_observer_rejects_nan() {
        let _ = FailureModel::PerObserver {
            alive_fraction: f64::NAN,
        }
        .materialize(10, 0);
    }

    #[test]
    #[should_panic(expected = "Churn::crash_probability is NaN")]
    fn churn_rejects_nan_crash_probability() {
        let _ = FailureModel::Churn {
            crash_probability: f64::NAN,
            recover_probability: 0.5,
        }
        .materialize(10, 0);
    }

    #[test]
    #[should_panic(expected = "Churn::recover_probability is NaN")]
    fn churn_rejects_nan_recover_probability() {
        let _ = FailureModel::Churn {
            crash_probability: 0.5,
            recover_probability: f64::NAN,
        }
        .materialize(10, 0);
    }

    #[test]
    fn unit_f64_stays_in_range() {
        for x in [0u64, 1, u64::MAX, 0x8000_0000_0000_0000] {
            let u = unit_f64(x);
            assert!((0.0..1.0).contains(&u), "{x} mapped to {u}");
        }
        assert!(unit_f64(u64::MAX) > 0.999);
    }
}

#[cfg(test)]
mod churn_tests {
    use super::tests::unit_f64;
    use super::*;

    #[test]
    fn churn_materialises_rates() {
        let plan = FailureModel::Churn {
            crash_probability: 0.1,
            recover_probability: 0.4,
        }
        .materialize(10, 1);
        let rates = plan.churn().expect("churn rates present");
        assert!((rates.crash - 0.1).abs() < 1e-12);
        assert!((rates.recover - 0.4).abs() < 1e-12);
        assert!(plan.initially_crashed().is_empty());
    }

    #[test]
    fn churn_rates_clamped() {
        let plan = FailureModel::Churn {
            crash_probability: 2.0,
            recover_probability: -1.0,
        }
        .materialize(10, 1);
        let rates = plan.churn().unwrap();
        assert_eq!(rates.crash, 1.0);
        assert_eq!(rates.recover, 0.0);
        // Saturated rates decide every draw: threshold 2⁵³ and 0.
        assert!(plan.churn_flips(ProcessId(0), 0, true), "crash p = 1");
        assert!(!plan.churn_flips(ProcessId(0), 0, false), "recover p = 0");
    }

    #[test]
    fn non_churn_models_have_no_rates() {
        assert!(FailureModel::None.materialize(5, 0).churn().is_none());
        assert!(FailureModel::Stillborn {
            alive_fraction: 0.5
        }
        .materialize(5, 0)
        .churn()
        .is_none());
        assert!(!FailureModel::None
            .materialize(5, 0)
            .churn_flips(ProcessId(0), 3, true));
    }

    #[test]
    fn churn_draws_hit_the_configured_rate() {
        let plan = FailureModel::Churn {
            crash_probability: 0.3,
            recover_probability: 0.7,
        }
        .materialize(100, 5);
        let crashes = (0..100u32)
            .flat_map(|p| (0..100u64).map(move |r| (p, r)))
            .filter(|&(p, r)| plan.churn_flips(ProcessId(p), r, true))
            .count();
        assert!(
            (2_700..3_300).contains(&crashes),
            "crash draws {crashes}/10000, expected ≈ 3000"
        );
        let recoveries = (0..100u32)
            .flat_map(|p| (0..100u64).map(move |r| (p, r)))
            .filter(|&(p, r)| plan.churn_flips(ProcessId(p), r, false))
            .count();
        assert!(
            (6_700..7_300).contains(&recoveries),
            "recovery draws {recoveries}/10000, expected ≈ 7000"
        );
    }

    /// Probabilities at and around the edges of the 53-bit draw grid,
    /// plus the metropolis crash rate and two interior rates.
    const EDGE_RATES: [f64; 7] = [
        0.0,
        1.0 / DRAW_SCALE,
        0.0002,
        0.05,
        0.5,
        1.0 - 1.0 / DRAW_SCALE,
        1.0,
    ];

    #[test]
    fn integer_threshold_equals_the_float_draw() {
        let mut rng = rng_from_seed(0x7E57);
        for p in EDGE_RATES {
            let t = threshold(p);
            // Draws whose top 53 bits sit just below, at and just above
            // the threshold, with random low bits; then random draws.
            let mut hashes: Vec<u64> = [t.wrapping_sub(1), t, t + 1]
                .into_iter()
                .filter(|&k| k < 1 << 53)
                .map(|k| (k << 11) | (rng.gen::<u64>() & 0x7FF))
                .collect();
            hashes.extend((0..10_000).map(|_| rng.gen::<u64>()));
            for h in hashes {
                assert_eq!(
                    (h >> 11) < t,
                    unit_f64(h) < p,
                    "p = {p:e}, threshold {t}, hash {h:#x}"
                );
            }
        }
        assert_eq!(threshold(0.0), 0, "p = 0 never flips");
        assert_eq!(threshold(1.0), 1 << 53, "p = 1 always flips");
    }

    #[test]
    fn churn_sweep_reproduces_the_float_draw_on_any_stripe() {
        // The plan-level draw, swept and per process, against the float
        // formula it replaced, `unit_f64(hash(seed, pid, round)) < p`, on
        // the simulator's identity stripe and two strided worker stripes.
        for crash in EDGE_RATES {
            let recover = 1.0 - crash;
            let plan = FailureModel::Churn {
                crash_probability: crash,
                recover_probability: recover,
            }
            .materialize(64, 31);
            let float = |pid: u32, round: u64, alive: bool| {
                let h = derive_seed(derive_seed(plan.churn_seed, u64::from(pid)), round);
                unit_f64(h) < if alive { crash } else { recover }
            };
            for (first, stride) in [(0u32, 1u32), (1, 3), (2, 3)] {
                for round in 0..8 {
                    // Alternate states so both thresholds are drawn.
                    let before: Vec<ProcessStatus> = (0..64 / stride)
                        .map(|i| {
                            if (i + round as u32).is_multiple_of(2) {
                                ProcessStatus::Alive
                            } else {
                                ProcessStatus::Crashed
                            }
                        })
                        .collect();
                    let mut stripe = before.clone();
                    let mut swept = Vec::new();
                    plan.churn_sweep(
                        round,
                        &mut stripe,
                        ProcessId(first),
                        stride,
                        |i, pid, now| {
                            swept.push((i, pid.0, now));
                        },
                    );
                    let mut expected = Vec::new();
                    for (i, status) in before.iter().enumerate() {
                        let (pid, alive) = (first + i as u32 * stride, status.is_alive());
                        let flips = float(pid, round, alive);
                        assert_eq!(plan.churn_flips(ProcessId(pid), round, alive), flips);
                        assert_eq!(stripe[i].is_alive(), alive != flips);
                        if flips {
                            expected.push((i, pid, !alive));
                        }
                    }
                    assert_eq!(swept, expected, "p = {crash:e}, stripe {first}/{stride}");
                }
            }
        }
        // Without churn the sweep touches nothing.
        let mut stripe = [ProcessStatus::Alive; 4];
        FailureModel::None.materialize(4, 0).churn_sweep(
            0,
            &mut stripe,
            ProcessId(0),
            1,
            |_, _, _| panic!("no churn, no flips"),
        );
    }

    #[test]
    fn out_of_range_fates_are_dropped_at_materialisation() {
        let plan = FailureModel::Schedule(vec![
            Fate {
                round: 1,
                pid: ProcessId(10), // beyond the population of 10
                crash: true,
            },
            Fate {
                round: 1,
                pid: ProcessId(9),
                crash: true,
            },
        ])
        .materialize(10, 0);
        assert_eq!(plan.fates_at(1).len(), 1, "only the valid fate kept");
        assert!(!plan.step_alive(ProcessId(9), 1, true));
    }

    #[test]
    fn transition_reports_recovery_only_when_still_alive() {
        // Crash at 1, recover at 3: the recovery round reports it.
        let plan = FailureModel::Schedule(vec![
            Fate {
                round: 1,
                pid: ProcessId(0),
                crash: true,
            },
            Fate {
                round: 3,
                pid: ProcessId(0),
                crash: false,
            },
            // Same-round recover-then-crash: no re-entry.
            Fate {
                round: 5,
                pid: ProcessId(1),
                crash: false,
            },
            Fate {
                round: 5,
                pid: ProcessId(1),
                crash: true,
            },
        ])
        .materialize(2, 0);
        assert!(!plan.transition(ProcessId(0), 1, true).alive);
        let back = plan.transition(ProcessId(0), 3, false);
        assert!(back.alive && back.recovered);
        assert!(!back.churn_crashed && !back.churn_recovered);
        // Recovering an alive process is not a re-entry.
        assert!(!plan.transition(ProcessId(0), 3, true).recovered);
        // p1 was crashed entering round 5, flickers up, ends crashed.
        let flicker = plan.transition(ProcessId(1), 5, false);
        assert!(!flicker.alive && !flicker.recovered);
        assert!(plan.has_transitions());
        assert!(!FailureModel::None.materialize(2, 0).has_transitions());
    }

    #[test]
    fn step_alive_and_alive_at_replay_mixed_plans() {
        // A scripted crash and recovery walk through step_alive exactly
        // as through fates_at application.
        let plan = FailureModel::Schedule(vec![
            Fate {
                round: 1,
                pid: ProcessId(0),
                crash: true,
            },
            Fate {
                round: 4,
                pid: ProcessId(0),
                crash: false,
            },
        ])
        .materialize(2, 0);
        assert!(plan.alive_at(ProcessId(0), 0));
        assert!(!plan.alive_at(ProcessId(0), 1));
        assert!(!plan.alive_at(ProcessId(0), 3));
        assert!(plan.alive_at(ProcessId(0), 4));
        assert!(plan.alive_at(ProcessId(1), 3), "untouched pid stays up");

        // Under churn, folding step_alive equals the direct per-round
        // walk over churn_flips.
        let churny = FailureModel::Churn {
            crash_probability: 0.4,
            recover_probability: 0.4,
        }
        .materialize(4, 21);
        for pid in (0..4).map(ProcessId) {
            let mut alive = true;
            for round in 0..30 {
                if churny.churn_flips(pid, round, alive) {
                    alive = !alive;
                }
                assert_eq!(churny.alive_at(pid, round), alive, "{pid} round {round}");
            }
        }
    }

    #[test]
    fn churn_draws_are_positionally_deterministic() {
        // The same (seed, pid, round) triple yields the same draw from
        // two independently materialised plans — the property the live
        // runtime's stripe independence rests on.
        let a = FailureModel::Churn {
            crash_probability: 0.5,
            recover_probability: 0.5,
        }
        .materialize(10, 77);
        let b = FailureModel::Churn {
            crash_probability: 0.5,
            recover_probability: 0.5,
        }
        .materialize(10, 77);
        for pid in 0..10u32 {
            for round in 0..50u64 {
                assert_eq!(
                    a.churn_flips(ProcessId(pid), round, true),
                    b.churn_flips(ProcessId(pid), round, true)
                );
            }
        }
        // A different master seed re-rolls the draws.
        let c = FailureModel::Churn {
            crash_probability: 0.5,
            recover_probability: 0.5,
        }
        .materialize(10, 78);
        let agree = (0..10u32)
            .flat_map(|p| (0..50u64).map(move |r| (p, r)))
            .filter(|&(p, r)| {
                a.churn_flips(ProcessId(p), r, true) == c.churn_flips(ProcessId(p), r, true)
            })
            .count();
        assert!(agree < 500, "seeds 77 and 78 must not share all draws");
    }
}
