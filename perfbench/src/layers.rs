//! The traced run's per-layer view: callback spans aggregated per worker,
//! replays of the runtime's public layer functions at the shapes the
//! workload produced, the add-up table and the span file.

use crate::probe::{Sampled, ThreadLog};
use crate::stats::{median, percentile};
use crate::work::{self, Seg, SplitMix, Workload};
use da_core::channel::EdgeRngs;
use da_core::topology::NetworkModel;
use da_runtime::{lane_matrix, EdgeWatermarks, FaultyRouter, LifecycleController, ShardedCounters};
use da_simnet::ProcessId;
use da_topics::TopicId;
use damulticast::{DaMsg, Event, MetroMsg};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// A named metric value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// Worker-side totals of one traced segment.
#[derive(Debug, Default)]
pub struct WorkerView {
    pub workers: usize,
    pub message: Sampled,
    pub round: Sampled,
    pub other: Sampled,
    pub send: Sampled,
    pub bump: Sampled,
    pub app_ns: u64,
    pub gap_ns: u64,
    pub gaps: u64,
    pub skews: Vec<u64>,
}

impl WorkerView {
    /// Threads that ran protocol callbacks: the runtime's workers.
    pub fn of(seg: &Seg) -> Self {
        let logs: Vec<&ThreadLog> = seg
            .logs
            .iter()
            .filter(|l| !l.prof.ticks.is_empty())
            .collect();
        let mut v = WorkerView {
            workers: logs.len(),
            ..WorkerView::default()
        };
        let mut finish: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
        for log in &logs {
            let p = &log.prof;
            v.message.absorb(&p.message);
            v.round.absorb(&p.round);
            v.other.absorb(&p.other);
            v.send.absorb(&p.send);
            v.bump.absorb(&p.bump);
            v.app_ns += p.app_ns;
            for (i, t) in p.ticks.iter().enumerate() {
                finish.entry(t.tick).or_default().push(t.last);
                if let Some(next) = p.ticks.get(i + 1) {
                    if next.tick == t.tick + 1 {
                        v.gap_ns += next.first.saturating_sub(t.last);
                        v.gaps += 1;
                    }
                }
            }
        }
        v.skews = finish
            .values()
            .filter(|ends| ends.len() == v.workers)
            .map(|ends| ends.iter().max().unwrap_or(&0) - ends.iter().min().unwrap_or(&0))
            .collect();
        v
    }

    /// Protocol self time, extrapolated from the timed callbacks.
    pub fn protocol_self_ns(&self) -> f64 {
        self.message.self_ns_total() + self.round.self_ns_total() + self.other.self_ns_total()
    }

    /// Time in protocol callbacks, `Exec` calls included.
    pub fn busy_ns(&self) -> f64 {
        self.protocol_self_ns() + self.send.self_ns_total() + self.bump.self_ns_total()
    }

    /// Worker time the spans account for: callbacks, the subscriber's
    /// drain, and the gaps between ticks.
    pub fn explained_ns(&self) -> f64 {
        self.busy_ns() + (self.app_ns + self.gap_ns) as f64
    }
}

fn per_call(ns: u64, calls: u64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        ns as f64 / calls as f64
    }
}

/// Times `f` (which performs `ops` operations) five times and returns the
/// median nanoseconds per operation.
fn time_per_op(ops: u64, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// The replays of the runtime's public layer functions.
pub struct Replays {
    pub begin_tick_ns_per_process: f64,
    pub router_ns_per_envelope: f64,
    pub pool_minted: u64,
    pub fate_ns: f64,
    pub counters_publish_ns: f64,
    pub watermark_ns: f64,
    pub engine_step_round_ns: f64,
}

/// A message of the workload's type, as the protocol sends it.
trait Sample: Clone {
    fn sample() -> Self;
}

impl Sample for DaMsg {
    fn sample() -> Self {
        DaMsg::Event {
            event: Event::new(
                ProcessId(0),
                0,
                TopicId::ROOT,
                crate::probe::encode_stamp(0, 0, 0),
            ),
            sender_topic: TopicId::ROOT,
        }
    }
}

impl Sample for MetroMsg {
    fn sample() -> Self {
        MetroMsg {
            headline: 0,
            hops: 1,
        }
    }
}

/// `FaultyRouter::send` + `flush` on every worker, then `EdgeInbox::sweep`
/// on every inbox, over a `lane_matrix` of the run's width. Returns ns per
/// envelope and the batch buffers minted after warm-up.
fn router_replay<M: Sample + Send>(
    w: Workload,
    seed: u64,
    workers: usize,
    population: usize,
    sends_per_worker_tick: u64,
) -> (f64, u64) {
    let (hubs, mut inboxes) = lane_matrix::<M>(workers, 4);
    let mut routers: Vec<FaultyRouter<M>> = hubs
        .into_iter()
        .map(|h| FaultyRouter::new(h, w.channel(), seed))
        .collect();
    let mut rng = SplitMix::new(seed);
    let msg = M::sample();
    let mut tick = 0u64;
    let mut run = |ticks: u64, routers: &mut Vec<FaultyRouter<M>>| {
        for _ in 0..ticks {
            for (wid, r) in routers.iter_mut().enumerate() {
                for _ in 0..sends_per_worker_tick {
                    let from = ProcessId((wid + workers * rng.below(population / workers)) as u32);
                    let to = ProcessId(rng.below(population) as u32);
                    black_box(r.send(from, to, tick, msg.clone()));
                }
                black_box(r.flush());
            }
            for inbox in inboxes.iter_mut() {
                inbox.sweep(|_, env| {
                    black_box(env);
                });
            }
            tick += 1;
        }
    };
    run(16, &mut routers);
    let minted0: u64 = routers.iter_mut().map(|r| r.hub().pool().minted()).sum();
    let ticks = (200_000 / (sends_per_worker_tick * workers as u64).max(1)).clamp(8, 2_000);
    let ns = time_per_op(ticks * sends_per_worker_tick * workers as u64, || {
        run(ticks, &mut routers)
    });
    let minted: u64 = routers.iter_mut().map(|r| r.hub().pool().minted()).sum();
    (ns, minted - minted0)
}

impl Replays {
    pub fn run(w: Workload, seg: &Seg) -> Self {
        let workers = seg.workers.max(1);
        let population = seg.population;
        let seed = seg.seed;

        let plan = Arc::new(w.failures().materialize(population, seed));
        let stripe = population / workers;
        let mut lc = LifecycleController::new(plan, 0, workers, stripe);
        let ticks = (2_000_000 / stripe.max(1) as u64).clamp(8, 1_000);
        let mut t = 0u64;
        let begin_tick_ns_per_process = time_per_op(ticks * stripe as u64, || {
            for _ in 0..ticks {
                black_box(lc.begin_tick(t));
                t += 1;
            }
        });

        let sends = (seg.ledger.sent / seg.ticks.max(1) / workers as u64).max(1);
        let (router_ns_per_envelope, pool_minted) = if w == Workload::Metropolis {
            router_replay::<MetroMsg>(w, seed, workers, population, sends)
        } else {
            router_replay::<DaMsg>(w, seed, workers, population, sends)
        };

        let rngs = EdgeRngs::new(seed);
        let network = NetworkModel::from(w.channel());
        let mut rng = SplitMix::new(seed ^ 0xFA7E);
        let fate_ns = time_per_op(100_000, || {
            for i in 0..100_000u64 {
                let (from, to) = (rng.below(population) as u32, rng.below(population) as u32);
                let mut draw = rngs.draw_rng(u64::from(from), u64::from(to), i, 0);
                black_box(network.decide_fate(ProcessId(from), ProcessId(to), i, 0, &mut draw));
            }
        });

        let shards = ShardedCounters::new(workers);
        let local = seg.counters.clone();
        let counters_publish_ns = time_per_op(10_000, || {
            for _ in 0..10_000 {
                shards.publish(0, &local).expect("shard 0 exists");
                black_box(shards.merged());
            }
        });

        let marks = EdgeWatermarks::new(workers);
        let mut tick = 0u64;
        let watermark_ns = time_per_op(100_000, || {
            for _ in 0..100_000 {
                tick += 1;
                marks.publish((tick as usize) % workers, tick);
                black_box(marks.all_published((tick as usize + 1) % workers, tick / 2));
            }
        });

        // The live workloads do not run the simulator; replay a slice of
        // their schedule on it.
        let engine = match w {
            Workload::Stream | Workload::Alerts => work::sim_da(w, seed, 20),
            Workload::Metropolis => work::sim_metro(seed, 4),
        };
        let engine_step_round_ns = per_call(engine.drive_call_ns, engine.ticks);

        Replays {
            begin_tick_ns_per_process,
            router_ns_per_envelope,
            pool_minted,
            fate_ns,
            counters_publish_ns,
            watermark_ns,
            engine_step_round_ns,
        }
    }
}

/// Per-layer metrics of a traced run. `base` holds the untraced segments
/// (paired with `traced` by segment index), `warm` the first segment of
/// the fresh process.
pub fn per_layer(
    w: Workload,
    warm: &Seg,
    base: &[Seg],
    traced: &[Seg],
    replays: &Replays,
) -> (Vec<Metric>, String) {
    let views: Vec<WorkerView> = traced.iter().map(WorkerView::of).collect();
    let first = &traced[0];
    let v0 = &views[0];
    let med = |f: &dyn Fn(&Seg, &WorkerView) -> f64| {
        median(
            &traced
                .iter()
                .zip(&views)
                .map(|(s, v)| f(s, v))
                .collect::<Vec<_>>(),
        )
    };
    let med_base = |f: &dyn Fn(&Seg) -> f64| median(&base.iter().map(f).collect::<Vec<_>>());
    let wall = |s: &Seg, v: &WorkerView| v.workers.max(1) as f64 * s.drive_s * 1e9;
    let skews: Vec<f64> = views
        .iter()
        .flat_map(|v| v.skews.iter().map(|&x| x as f64))
        .collect();
    let events = warm.audience.len().max(1) as f64;
    let overheads: Vec<f64> = traced
        .iter()
        .zip(base)
        .map(|(t, b)| t.drive_s / b.drive_s - 1.0)
        .collect();

    let mut m: Vec<Metric> = vec![
        ("runtime.spawn_s", med_base(&|s| s.spawn_s), "s"),
        (
            "runtime.drive_ns_per_tick",
            med_base(&|s| per_call(s.drive_call_ns, s.ticks)),
            "ns",
        ),
        (
            "runtime.inject_ns",
            med_base(&|s| per_call(s.inject_ns, s.injects)),
            "ns",
        ),
        ("runtime.shutdown_s", med_base(&|s| s.shutdown_s), "s"),
        (
            "worker.busy_frac",
            med(&|s, v| v.busy_ns() / wall(s, v)),
            "fraction",
        ),
        (
            "worker.gap_ns_per_tick",
            med(&|_, v| per_call(v.gap_ns, v.gaps)),
            "ns",
        ),
        ("worker.skew_ns_p99", percentile(&skews, 0.99), "ns"),
        (
            "protocol.on_message_calls",
            v0.message.calls as f64,
            "count",
        ),
        (
            "protocol.on_message_self_ns",
            med(&|_, v| v.message.self_ns_per_call()),
            "ns",
        ),
        ("protocol.on_round_calls", v0.round.calls as f64, "count"),
        (
            "protocol.on_round_self_ns",
            med(&|_, v| v.round.self_ns_per_call()),
            "ns",
        ),
        (
            "protocol.useful_ratio",
            first.deliveries as f64 / first.ledger.get("delivered").max(1) as f64,
            "fraction",
        ),
        (
            "app.drain_ns_per_delivery",
            med(&|s, v| per_call(v.app_ns, s.deliveries)),
            "ns",
        ),
        ("transport.send_calls", v0.send.calls as f64, "count"),
        (
            "transport.send_ns",
            med(&|_, v| v.send.self_ns_per_call()),
            "ns",
        ),
        (
            "transport.router_ns_per_envelope",
            replays.router_ns_per_envelope,
            "ns",
        ),
        ("transport.pool_minted", replays.pool_minted as f64, "count"),
        ("channel.fate_ns", replays.fate_ns, "ns"),
        ("metrics.bump_calls", v0.bump.calls as f64, "count"),
        (
            "metrics.bump_ns",
            med(&|_, v| v.bump.self_ns_per_call()),
            "ns",
        ),
        ("metrics.publish_ns", replays.counters_publish_ns, "ns"),
        (
            "lifecycle.begin_tick_ns_per_process",
            replays.begin_tick_ns_per_process,
            "ns",
        ),
        (
            "lifecycle.crashes",
            first.counters.get("rt.churn_crashes") as f64,
            "count",
        ),
        (
            "lifecycle.recoveries",
            first.counters.get("rt.churn_recoveries") as f64,
            "count",
        ),
        ("sched.watermark_ns", replays.watermark_ns, "ns"),
        (
            "wheel.pending_per_tick",
            first.pending_sum as f64 / first.pending_reports.max(1) as f64,
            "count",
        ),
        ("engine.step_round_ns", replays.engine_step_round_ns, "ns"),
        (
            "memory.rss_b_per_event",
            (warm.rss_kb[2].saturating_sub(warm.rss_kb[1]) * 1024).saturating_sub(warm.rec_bytes)
                as f64
                / events,
            "B",
        ),
        (
            "memory.rss_b_per_process",
            (warm.rss_kb[1].saturating_sub(warm.rss_kb[0]) * 1024) as f64
                / warm.population.max(1) as f64,
            "B",
        ),
        ("ledger.sent", first.ledger.sent as f64, "count"),
    ];
    for (name, bucket) in LEDGER {
        m.push((name, first.ledger.get(bucket) as f64, "count"));
    }
    m.push(("trace.overhead_frac", median(&overheads), "fraction"));
    m.push((
        "unexplained_frac",
        med(&|s, v| 1.0 - v.explained_ns() / wall(s, v)),
        "fraction",
    ));

    // The add-up table for the median-wall traced segment.
    let mid = {
        let mut idx: Vec<usize> = (0..traced.len()).collect();
        idx.sort_by(|&a, &b| traced[a].drive_s.total_cmp(&traced[b].drive_s));
        idx[idx.len() / 2]
    };
    let (s, v) = (&traced[mid], &views[mid]);
    let total = wall(s, v);
    let mut t = String::new();
    let _ = writeln!(
        t,
        "add-up ({}, traced segment {mid}): {} worker(s) x {:.3} s wall = {:.1} ms",
        w.name(),
        v.workers,
        s.drive_s,
        total * 1e-6
    );
    let mut row = |name: &str, ns: f64| {
        let _ = writeln!(
            t,
            "  {name:<44} {:>10.1} ms {:>6.1} %",
            ns * 1e-6,
            100.0 * ns / total
        );
    };
    row(
        "protocol self (on_message, on_round, other)",
        v.protocol_self_ns(),
    );
    row("transport: Exec::send", v.send.self_ns_total());
    row("metrics: Exec::bump/add", v.bump.self_ns_total());
    row("benchmark subscriber drain", v.app_ns as f64);
    row("runtime between ticks (worker gap)", v.gap_ns as f64);
    row(
        "unexplained (runtime inside ticks, edges)",
        total - v.explained_ns(),
    );
    let per_worker_ticks = (s.ticks * v.workers as u64) as f64;
    let _ = writeln!(
        t,
        "  replay estimates of runtime time (inside the gap and unexplained rows):"
    );
    let mut est = |name: &str, ns: f64| {
        let _ = writeln!(
            t,
            "    {name:<42} {:>10.1} ms {:>6.1} %",
            ns * 1e-6,
            100.0 * ns / total
        );
    };
    est(
        "lifecycle begin_tick",
        replays.begin_tick_ns_per_process * s.population as f64 * s.ticks as f64,
    );
    est(
        "router flush + lane sweep (incl. send)",
        replays.router_ns_per_envelope * s.ledger.sent as f64,
    );
    est(
        "watermark publish + check",
        replays.watermark_ns * per_worker_ticks,
    );
    est(
        "counter publish + merge",
        replays.counters_publish_ns * per_worker_ticks,
    );
    let _ = writeln!(
        t,
        "  trace.overhead_frac {:.3}  unexplained_frac {:.3}",
        median(&overheads),
        1.0 - v.explained_ns() / total
    );
    (m, t)
}

/// Per-layer ledger metrics and the runtime (`rt.*`) bucket each one
/// reports.
const LEDGER: [(&str, &str); 7] = [
    ("ledger.delivered", "delivered"),
    ("ledger.dropped_channel", "dropped_channel"),
    ("ledger.dropped_partitioned", "dropped_partitioned"),
    ("ledger.dropped_crashed", "dropped_crashed"),
    ("ledger.dropped_observed_failed", "dropped_observed_failed"),
    ("ledger.dropped_shutdown", "dropped_shutdown"),
    ("ledger.dropped_closed", "dropped_closed"),
];

/// Writes the traced segment's spans as a Chrome trace (`chrome://tracing`,
/// Perfetto): the benchmark thread's calls on thread 0, one tick span per
/// worker and tick, callback spans (capped per thread) parented to their
/// tick span and tagged with the publication they carry.
pub fn write_spans(path: &std::path::Path, seg: &Seg) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let us = |ns: u64| ns as f64 / 1e3;
    let mut first = true;
    let mut emit =
        |out: &mut std::io::BufWriter<std::fs::File>, s: String| -> std::io::Result<()> {
            out.write_all(if first { b"[\n" } else { b",\n" })?;
            first = false;
            out.write_all(s.as_bytes())
        };
    for d in &seg.call_spans {
        emit(
            &mut out,
            format!(
                r#"{{"name":"{}","ph":"X","ts":{:.3},"dur":{:.3},"pid":1,"tid":0}}"#,
                d.name,
                us(d.start),
                us(d.dur)
            ),
        )?;
    }
    for (i, log) in seg
        .logs
        .iter()
        .filter(|l| !l.prof.ticks.is_empty())
        .enumerate()
    {
        let tid = i + 1;
        for t in &log.prof.ticks {
            emit(
                &mut out,
                format!(
                    r#"{{"name":"tick","ph":"X","ts":{:.3},"dur":{:.3},"pid":1,"tid":{tid},"args":{{"id":"{tid}:{}","thread":"{}"}}}}"#,
                    us(t.first),
                    us(t.last - t.first),
                    t.tick,
                    log.thread
                ),
            )?;
        }
        for s in &log.prof.spans {
            let event = if s.event == crate::probe::NO_EVENT {
                "null".to_string()
            } else {
                s.event.to_string()
            };
            emit(
                &mut out,
                format!(
                    r#"{{"name":"{}","ph":"X","ts":{:.3},"dur":{:.3},"pid":1,"tid":{tid},"args":{{"parent":"{tid}:{}","process":{},"event":{event},"exec_ns":{}}}}}"#,
                    s.hook.name(),
                    us(s.start),
                    us(s.dur),
                    s.tick,
                    s.pid,
                    s.exec_ns
                ),
            )?;
        }
    }
    out.write_all(b"\n]\n")?;
    out.flush()
}
