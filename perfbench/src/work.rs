//! The three workloads. A run repeats *segments* of fixed work: build the
//! population, spawn the substrate, drive the schedule to quiescence and
//! shut down. Every segment draws its topology, publisher schedule and
//! runtime seed from `(workload seed, segment index)`.

use crate::probe::{self, encode_stamp, now_ns, Sub, ThreadLog, METRO_T0};
use crate::sys;
use da_core::channel::{ChannelConfig, Latency};
use da_core::failure::FailureModel;
use da_core::seed::derive_seed;
use da_runtime::{Runtime, RuntimeConfig};
use da_simnet::{Counters, Engine, ProcessId, SimConfig};
use da_topics::TopicHierarchy;
use damulticast::{DaProcess, GroupSpec, MetroProcess, ParamMap, StaticNetwork};
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Publications per tick on `stream`.
pub const STREAM_PER_TICK: u32 = 2;
/// Publishing ticks per `stream` segment.
pub const STREAM_TICKS: u64 = 200;
/// Closed-loop alerts per `alerts` segment.
pub const ALERTS: u32 = 500;
/// Metropolis population, headlines, hop budget and ticks per segment.
/// At a million citizens the per-tick scan streams ~100 MB; on a 2-vCPU VM
/// that shares its host, run medians of `ticks_per_s` then spread by 0.29
/// (quartile distance ÷ median) over ten seeds, as memory traffic from the
/// rest of the host came and went. At 100,000 the working set stays in
/// cache.
pub const METRO_N: usize = 100_000;
pub const METRO_HEADLINES: usize = 64;
pub const METRO_TTL: u8 = 24;
pub const METRO_TICKS: u64 = 128;
/// A segment that is not quiet after this many extra ticks fails.
pub const QUIESCE_CAP: u64 = 10_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Stream,
    Alerts,
    Metropolis,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Stream, Workload::Alerts, Workload::Metropolis];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Stream => "stream",
            Workload::Alerts => "alerts",
            Workload::Metropolis => "metropolis",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Wall seconds one segment takes on the 2-CPU host the benchmark was
    /// sized on, untraced and traced (an untraced segment, its traced
    /// rerun and their checks).
    fn segment_cost_s(self) -> (f64, f64) {
        match self {
            Workload::Stream => (0.75, 1.7),
            Workload::Alerts => (0.155, 0.36),
            Workload::Metropolis => (0.105, 0.33),
        }
    }

    /// Measured segments in a run of about `seconds` on that host. The
    /// count depends on the arguments alone, never on a clock, so a seed
    /// fixes all of a run's work and its `attempted`/`failed` counts.
    pub fn segments(self, seconds: f64, traced: bool) -> u64 {
        let (untraced, traced_cost) = self.segment_cost_s();
        let cost = if traced { traced_cost } else { untraced };
        let least = if traced { 2 } else { 3 };
        ((seconds / cost).round() as u64).max(least)
    }

    /// The workload's channel.
    pub fn channel(self) -> ChannelConfig {
        match self {
            Workload::Stream => ChannelConfig::reliable()
                .with_success_probability(0.98)
                .with_latency(Latency::UniformRounds { min: 1, max: 2 }),
            Workload::Alerts => ChannelConfig::reliable(),
            Workload::Metropolis => ChannelConfig::reliable()
                .with_success_probability(0.95)
                .with_latency(Latency::UniformRounds { min: 1, max: 3 }),
        }
    }

    /// The workload's failure model.
    pub fn failures(self) -> FailureModel {
        match self {
            Workload::Metropolis => FailureModel::Churn {
                crash_probability: 0.0002,
                recover_probability: 0.05,
            },
            _ => FailureModel::None,
        }
    }

    /// One measured segment on the workload's own substrate (`workers = 0`
    /// is the runtime's auto-sized pool).
    pub fn segment(self, seed: u64, traced: bool) -> Seg {
        match (self, traced) {
            (Workload::Stream | Workload::Alerts, false) => live_da::<false>(self, seed, 0),
            (Workload::Stream | Workload::Alerts, true) => live_da::<true>(self, seed, 0),
            (Workload::Metropolis, false) => live_metro::<false>(seed, 0, METRO_TICKS),
            (Workload::Metropolis, true) => live_metro::<true>(seed, 0, METRO_TICKS),
        }
    }
}

/// The seed of segment `k` of a run.
pub fn segment_seed(seed: u64, k: u64) -> u64 {
    derive_seed(seed, k)
}

/// Deterministic stream of the benchmark's own draws (publishers).
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One timed call the benchmark thread made into a substrate, for the
/// span file.
#[derive(Debug, Clone, Copy)]
pub struct CallSpan {
    pub name: &'static str,
    pub start: u64,
    pub dur: u64,
}

/// Envelope ledger of one segment: sent, then every terminal bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ledger {
    pub sent: u64,
    pub buckets: Vec<(&'static str, u64)>,
}

impl Ledger {
    const LIVE: [&'static str; 7] = [
        "delivered",
        "dropped_channel",
        "dropped_partitioned",
        "dropped_crashed",
        "dropped_observed_failed",
        "dropped_shutdown",
        "dropped_closed",
    ];
    const SIM: [&'static str; 5] = [
        "delivered",
        "dropped_channel",
        "dropped_partitioned",
        "dropped_dead",
        "dropped_observed_failed",
    ];

    fn live(c: &Counters) -> Self {
        Ledger {
            sent: c.get("rt.sent"),
            buckets: Self::LIVE
                .iter()
                .map(|b| (*b, c.get(&format!("rt.{b}"))))
                .collect(),
        }
    }

    /// The simulator's ledger; envelopes still queued in the engine count
    /// as `in_flight`.
    fn sim(c: &Counters, in_flight: u64) -> Self {
        let mut buckets: Vec<_> = Self::SIM
            .iter()
            .map(|b| (*b, c.get(&format!("sim.{b}"))))
            .collect();
        buckets.push(("in_flight", in_flight));
        Ledger {
            sent: c.get("sim.sent"),
            buckets,
        }
    }

    pub fn get(&self, bucket: &str) -> u64 {
        self.buckets
            .iter()
            .find(|(b, _)| *b == bucket)
            .map_or(0, |(_, v)| *v)
    }

    pub fn is_exact(&self) -> bool {
        self.buckets.iter().map(|(_, v)| v).sum::<u64>() == self.sent
    }
}

/// Everything the benchmark thread observed during one segment.
#[derive(Debug)]
pub struct Seg {
    pub seed: u64,
    pub workers: usize,
    pub population: usize,
    /// Population build plus spawn / `Engine::new`.
    pub setup_s: f64,
    /// Spawn / `Engine::new` alone.
    pub spawn_s: f64,
    /// The measured phase: publications and substrate calls up to quiescence.
    pub drive_s: f64,
    pub cpu_s: f64,
    pub shutdown_s: f64,
    pub ticks: u64,
    /// Wall time inside `run_ticks` / `run_until_quiescent` / `step_round`.
    pub drive_call_ns: u64,
    pub injects: u64,
    pub inject_ns: u64,
    /// Sum and count of `pending` over the tick reports `run_ticks` returned.
    pub pending_sum: u64,
    pub pending_reports: u64,
    /// Audience size of every publication, by publication index.
    pub audience: Vec<u32>,
    /// Metropolis only: the (headline, pid) pairs inside each flood's hop
    /// budget, the reference the deliveries are checked against.
    pub reach: Option<HashSet<(u32, u32)>>,
    pub counters: Counters,
    pub ledger: Ledger,
    /// Application deliveries as the protocol counted them.
    pub protocol_deliveries: u64,
    /// Application deliveries the subscribers drained (set when analysed).
    pub deliveries: u64,
    pub parasites: u64,
    pub quiescent: bool,
    pub logs: Vec<ThreadLog>,
    /// Heap the subscribers' delivery records took (set when analysed).
    pub rec_bytes: u64,
    /// `VmRSS` (KiB) before the build, after spawn and after the drive.
    pub rss_kb: [u64; 3],
    pub call_spans: Vec<CallSpan>,
}

impl Seg {
    fn new(seed: u64) -> Self {
        Seg {
            seed,
            workers: 1,
            population: 0,
            setup_s: 0.0,
            spawn_s: 0.0,
            drive_s: 0.0,
            cpu_s: 0.0,
            shutdown_s: 0.0,
            ticks: 0,
            drive_call_ns: 0,
            injects: 0,
            inject_ns: 0,
            pending_sum: 0,
            pending_reports: 0,
            audience: Vec::new(),
            reach: None,
            counters: Counters::new(),
            ledger: Ledger {
                sent: 0,
                buckets: Vec::new(),
            },
            protocol_deliveries: 0,
            deliveries: 0,
            parasites: 0,
            quiescent: true,
            logs: Vec::new(),
            rec_bytes: 0,
            rss_kb: [0; 3],
            call_spans: Vec::new(),
        }
    }

    fn span(&mut self, name: &'static str, start: u64) -> u64 {
        let dur = now_ns() - start;
        if self.call_spans.len() < 4096 {
            self.call_spans.push(CallSpan { name, start, dur });
        }
        dur
    }
}

/// A static daMulticast population with the paper's default parameters,
/// and the audience size of a publication by each process.
fn da_population(w: Workload, seed: u64) -> (Vec<DaProcess>, Vec<u32>) {
    let net = match w {
        Workload::Alerts => StaticNetwork::linear(&[4, 20, 100], ParamMap::default(), seed),
        _ => {
            // The newsroom: `.news` 10, `.news.sport` 100,
            // `.news.sport.football` 900, `.news.politics` 100.
            let mut h = TopicHierarchy::new();
            let desks = [
                ".news",
                ".news.sport",
                ".news.sport.football",
                ".news.politics",
            ]
            .map(|p| h.insert(p).expect("valid topic path"));
            let sizes = [10u32, 100, 900, 100];
            let mut next = 0u32;
            let groups = desks
                .iter()
                .zip(sizes)
                .map(|(&topic, n)| {
                    let members = (next..next + n).map(ProcessId).collect();
                    next += n;
                    GroupSpec { topic, members }
                })
                .collect();
            StaticNetwork::from_groups(Arc::new(h), groups, ParamMap::default(), seed)
        }
    }
    .expect("benchmark topology is valid");
    let mut audience_of = vec![0u32; net.population()];
    for g in net.groups() {
        let audience: usize = net
            .groups()
            .iter()
            .filter(|h| net.hierarchy().includes_or_eq(h.topic, g.topic))
            .map(|h| h.members.len())
            .sum();
        for m in &g.members {
            audience_of[m.index()] = audience as u32;
        }
    }
    (net.into_processes(), audience_of)
}

/// A publication: stamped by the generator, published at `pid`.
fn stamp(seg: &mut Seg, audience_of: &[u32], pid: usize, tick: u64) -> (ProcessId, Vec<u8>) {
    let index = seg.audience.len() as u32;
    seg.audience.push(audience_of[pid]);
    (ProcessId(pid as u32), encode_stamp(index, tick, now_ns()))
}

fn live_config(w: Workload, seed: u64, workers: usize) -> RuntimeConfig {
    RuntimeConfig::default()
        .with_workers(workers)
        .with_seed(seed)
        .with_channel(w.channel())
        .with_failures(w.failures())
}

/// `stream` or `alerts` on the live runtime.
pub fn live_da<const T: bool>(w: Workload, seed: u64, workers: usize) -> Seg {
    let mut seg = Seg::new(seed);
    seg.rss_kb[0] = sys::status_kb("VmRSS");
    let t0 = now_ns();
    let (procs, audience_of) = da_population(w, seed);
    let procs: Vec<Sub<DaProcess, T>> = procs.into_iter().map(Sub::new).collect();
    seg.population = procs.len();
    let t1 = now_ns();
    let mut rt = Runtime::spawn(live_config(w, seed, workers), procs);
    seg.spawn_s = seg.span("runtime.spawn", t1) as f64 * 1e-9;
    seg.setup_s = (now_ns() - t0) as f64 * 1e-9;
    seg.workers = rt.workers();
    seg.rss_kb[1] = sys::status_kb("VmRSS");

    let mut rng = SplitMix::new(derive_seed(seed, 0x0050_B115));
    let cpu0 = sys::cpu_s();
    let d0 = now_ns();
    let publish = |seg: &mut Seg, rt: &mut Runtime<Sub<DaProcess, T>>, rng: &mut SplitMix| {
        let (pid, payload) = stamp(
            seg,
            &audience_of,
            rng.below(audience_of.len()),
            rt.current_tick(),
        );
        let c0 = now_ns();
        rt.inject(pid, move |s| {
            s.inner.publish(payload);
        });
        seg.inject_ns += seg.span("runtime.inject", c0);
        seg.injects += 1;
    };
    let quiesce = |seg: &mut Seg, rt: &mut Runtime<Sub<DaProcess, T>>| {
        let c0 = now_ns();
        let n = rt.run_until_quiescent(QUIESCE_CAP);
        seg.drive_call_ns += seg.span("runtime.run_until_quiescent", c0);
        seg.ticks += n;
        seg.quiescent &= n < QUIESCE_CAP;
    };
    if w == Workload::Alerts {
        for _ in 0..ALERTS {
            publish(&mut seg, &mut rt, &mut rng);
            quiesce(&mut seg, &mut rt);
        }
    } else {
        for _ in 0..STREAM_TICKS {
            for _ in 0..STREAM_PER_TICK {
                publish(&mut seg, &mut rt, &mut rng);
            }
            let c0 = now_ns();
            let reports = rt.run_ticks(1);
            seg.drive_call_ns += seg.span("runtime.run_ticks", c0);
            seg.ticks += 1;
            for r in reports {
                seg.pending_sum += r.pending;
                seg.pending_reports += 1;
            }
        }
        quiesce(&mut seg, &mut rt);
    }
    seg.drive_s = (now_ns() - d0) as f64 * 1e-9;
    seg.cpu_s = sys::cpu_s() - cpu0;
    seg.rss_kb[2] = sys::status_kb("VmRSS");

    let s0 = now_ns();
    let out = rt.shutdown();
    seg.shutdown_s = seg.span("runtime.shutdown", s0) as f64 * 1e-9;
    seg.logs = probe::collect();
    seg.ledger = Ledger::live(&out.counters);
    seg.protocol_deliveries = out.counters.sum_prefix("da.delivered.");
    seg.parasites = out.counters.get("da.parasite")
        + out
            .processes
            .iter()
            .map(|p| p.inner.parasite_count())
            .sum::<u64>();
    seg.counters = out.counters;
    seg
}

/// The `stream` or `alerts` schedule on the round simulator, for the
/// engine-layer replay and the live/sim divergence report.
pub fn sim_da(w: Workload, seed: u64, ticks: u64) -> Seg {
    let mut seg = Seg::new(seed);
    seg.rss_kb[0] = sys::status_kb("VmRSS");
    let t0 = now_ns();
    let (procs, audience_of) = da_population(w, seed);
    let procs: Vec<Sub<DaProcess, false>> = procs.into_iter().map(Sub::new).collect();
    seg.population = procs.len();
    let t1 = now_ns();
    let config = SimConfig::default()
        .with_seed(seed)
        .with_channel(w.channel())
        .with_failures(w.failures());
    let mut engine = Engine::new(config, procs);
    seg.spawn_s = seg.span("engine.new", t1) as f64 * 1e-9;
    seg.setup_s = (now_ns() - t0) as f64 * 1e-9;
    seg.rss_kb[1] = sys::status_kb("VmRSS");

    let mut rng = SplitMix::new(derive_seed(seed, 0x0050_B115));
    let cpu0 = sys::cpu_s();
    let d0 = now_ns();
    let step = |seg: &mut Seg, engine: &mut Engine<Sub<DaProcess, false>>| {
        let c0 = now_ns();
        let report = engine.step_round();
        seg.drive_call_ns += seg.span("engine.step_round", c0);
        seg.ticks += 1;
        seg.pending_sum += engine.in_flight() as u64;
        seg.pending_reports += 1;
        report.is_quiet() && engine.in_flight() == 0
    };
    let publishes = if w == Workload::Alerts {
        1
    } else {
        STREAM_PER_TICK
    };
    for _ in 0..ticks {
        for _ in 0..publishes {
            let tick = engine.current_round();
            let (pid, payload) = stamp(&mut seg, &audience_of, rng.below(audience_of.len()), tick);
            let c0 = now_ns();
            engine.process_mut(pid).inner.publish(payload);
            seg.inject_ns += seg.span("engine.process_mut", c0);
            seg.injects += 1;
        }
        step(&mut seg, &mut engine);
        if w == Workload::Alerts {
            // Closed loop: each alert runs to quiescence before the next.
            let mut extra = 0;
            while !step(&mut seg, &mut engine) && extra < QUIESCE_CAP {
                extra += 1;
            }
            seg.quiescent &= extra < QUIESCE_CAP;
        }
    }
    let mut extra = 0;
    while !step(&mut seg, &mut engine) && extra < QUIESCE_CAP {
        extra += 1;
    }
    seg.quiescent &= extra < QUIESCE_CAP;
    seg.drive_s = (now_ns() - d0) as f64 * 1e-9;
    seg.cpu_s = sys::cpu_s() - cpu0;
    seg.rss_kb[2] = sys::status_kb("VmRSS");

    let counters = engine.counters().clone();
    seg.ledger = Ledger::sim(&counters, engine.in_flight() as u64);
    seg.parasites = counters.get("da.parasite")
        + engine
            .processes()
            .map(|(_, p)| p.inner.parasite_count())
            .sum::<u64>();
    let s0 = now_ns();
    drop(engine);
    seg.shutdown_s = seg.span("engine.drop", s0) as f64 * 1e-9;
    seg.logs = probe::collect();
    seg.protocol_deliveries = counters.sum_prefix("da.delivered.");
    seg.counters = counters;
    seg
}

/// The metropolis with its publishers at seeded positions; also returns
/// those positions, headline by headline.
fn metro_population(seed: u64) -> (Vec<MetroProcess>, Vec<usize>) {
    let mut rng = SplitMix::new(derive_seed(seed, 0x3E70));
    let mut publishers = Vec::with_capacity(METRO_HEADLINES);
    while publishers.len() < METRO_HEADLINES {
        let p = rng.below(METRO_N);
        if !publishers.contains(&p) {
            publishers.push(p);
        }
    }
    let mut procs = vec![MetroProcess::new(METRO_N, METRO_TTL); METRO_N];
    for (h, &p) in publishers.iter().enumerate() {
        procs[p] = MetroProcess::new(METRO_N, METRO_TTL).publishing(h as u8);
    }
    (procs, publishers)
}

/// The flood reference: every (headline, citizen) pair within the hop
/// budget of the headline's publisher on the computed overlay (ring link
/// `+1`, skip link `+⌈√n⌉`).
fn metro_reach(publishers: &[usize]) -> HashSet<(u32, u32)> {
    let skip = ((METRO_N as f64).sqrt().ceil() as usize).max(1);
    let hops = usize::from(METRO_TTL);
    let mut reach = HashSet::new();
    for (h, &p) in publishers.iter().enumerate() {
        for a in 0..=hops {
            for b in 0..=hops - a {
                let q = (p + a + b * skip) % METRO_N;
                if q != p {
                    reach.insert((h as u32, q as u32));
                }
            }
        }
    }
    reach
}

/// `metropolis` on the live runtime.
pub fn live_metro<const T: bool>(seed: u64, workers: usize, ticks: u64) -> Seg {
    let mut seg = Seg::new(seed);
    seg.rss_kb[0] = sys::status_kb("VmRSS");
    let t0 = now_ns();
    let (procs, publishers) = metro_population(seed);
    let procs: Vec<Sub<MetroProcess, T>> = procs.into_iter().map(Sub::new).collect();
    seg.population = procs.len();
    let t1 = now_ns();
    let mut rt = Runtime::spawn(live_config(Workload::Metropolis, seed, workers), procs);
    seg.spawn_s = seg.span("runtime.spawn", t1) as f64 * 1e-9;
    seg.setup_s = (now_ns() - t0) as f64 * 1e-9;
    seg.workers = rt.workers();
    seg.rss_kb[1] = sys::status_kb("VmRSS");
    let reach = metro_reach(&publishers);
    seg.audience = (0..METRO_HEADLINES as u32)
        .map(|h| reach.iter().filter(|(rh, _)| *rh == h).count() as u32)
        .collect();
    seg.reach = Some(reach);

    let cpu0 = sys::cpu_s();
    let d0 = now_ns();
    METRO_T0.store(d0, Ordering::Relaxed);
    let reports = rt.run_ticks(ticks);
    seg.drive_call_ns += seg.span("runtime.run_ticks", d0);
    seg.ticks = ticks;
    for r in &reports {
        seg.pending_sum += r.pending;
        seg.pending_reports += 1;
    }
    seg.quiescent = reports.last().is_some_and(|r| r.is_quiet());
    seg.drive_s = (now_ns() - d0) as f64 * 1e-9;
    seg.cpu_s = sys::cpu_s() - cpu0;
    seg.rss_kb[2] = sys::status_kb("VmRSS");

    // The metropolis publishes at start and takes no injections; time the
    // injection path with no-op closures after the measured phase.
    for pid in 0..METRO_HEADLINES as u32 {
        let c0 = now_ns();
        rt.inject(ProcessId(pid), |_| {});
        seg.inject_ns += seg.span("runtime.inject", c0);
        seg.injects += 1;
    }
    let s0 = now_ns();
    let out = rt.shutdown();
    seg.shutdown_s = seg.span("runtime.shutdown", s0) as f64 * 1e-9;
    seg.logs = probe::collect();
    seg.ledger = Ledger::live(&out.counters);
    seg.protocol_deliveries = out.counters.get("metro.first_delivery");
    seg.counters = out.counters;
    seg
}

/// `metropolis` on the round simulator, for the engine-layer replay.
pub fn sim_metro(seed: u64, rounds: u64) -> Seg {
    let mut seg = Seg::new(seed);
    let t0 = now_ns();
    let (procs, _) = metro_population(seed);
    let procs: Vec<Sub<MetroProcess, false>> = procs.into_iter().map(Sub::new).collect();
    seg.population = procs.len();
    let t1 = now_ns();
    let config = SimConfig::default()
        .with_seed(seed)
        .with_channel(Workload::Metropolis.channel())
        .with_failures(Workload::Metropolis.failures());
    let mut engine = Engine::new(config, procs);
    seg.spawn_s = (now_ns() - t1) as f64 * 1e-9;
    seg.setup_s = (now_ns() - t0) as f64 * 1e-9;
    METRO_T0.store(now_ns(), Ordering::Relaxed);
    for _ in 0..rounds {
        let c0 = now_ns();
        engine.step_round();
        seg.drive_call_ns += now_ns() - c0;
        seg.ticks += 1;
    }
    drop(engine);
    probe::collect();
    seg
}
