//! The repository benchmark: three daMulticast workloads driven through
//! the public runtime and simulator APIs, end-to-end metrics from untraced
//! segments, per-layer metrics from a traced rerun.
//!
//! ```text
//! perfbench --workload <stream|alerts|metropolis>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted` and `failed` ((event, interested subscriber) pairs and the
//! missed ones) and `metrics`. An output check that fails makes the exit
//! code 1. See `perfbench/README.md` for the workloads and metrics.

mod layers;
mod probe;
mod stats;
mod sys;
mod work;

use stats::{median, percentile};
use std::collections::HashMap;
use std::time::Instant;
use work::{segment_seed, Seg, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing {k}"));
    let workload = Workload::parse(get("--workload")?)
        .ok_or_else(|| format!("unknown workload {}", flags["--workload"]))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: need 0 < s <= 600"));
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: need 0 or 1")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What the output checks and the end-to-end metrics need from one
/// segment; the segment's delivery records are dropped after this.
#[derive(Default)]
struct Outcome {
    /// Publications delivered at least once.
    publications: u64,
    attempted: u64,
    delivered_pairs: u64,
    /// Publish-to-drain latency quantiles over every delivery (ns).
    delivery_p50: f64,
    delivery_p99: f64,
    /// Publish-to-last-delivery quantiles over every delivered publication.
    complete_p50: f64,
    complete_p90: f64,
    errors: Vec<String>,
}

/// Checks one segment's outputs and summarizes its deliveries.
fn analyse(w: Workload, seg: &mut Seg) -> Outcome {
    let mut o = Outcome::default();
    let mut err = |cond: bool, msg: String| {
        if !cond {
            o.errors.push(msg);
        }
    };
    let l = &seg.ledger;
    err(l.is_exact(), format!("envelope ledger is not exact: {l:?}"));
    err(
        l.get("dropped_shutdown") == 0 && l.get("in_flight") == 0,
        format!("envelopes still in flight after the final quiescence: {l:?}"),
    );
    err(seg.quiescent, "the run did not reach quiescence".into());
    err(
        seg.parasites == 0,
        format!("{} parasite deliveries", seg.parasites),
    );
    let leaks: u64 = seg.logs.iter().map(|l| l.leaks).sum();
    err(
        leaks == 0,
        format!("{leaks} deliveries outside the event's audience"),
    );

    seg.rec_bytes = seg
        .logs
        .iter()
        .map(|l| (l.recs.capacity() * std::mem::size_of::<probe::Rec>()) as u64)
        .sum();
    let mut recs: Vec<probe::Rec> = seg
        .logs
        .iter_mut()
        .flat_map(|l| std::mem::take(&mut l.recs))
        .collect();
    seg.deliveries = recs.len() as u64;
    err(
        seg.deliveries == seg.protocol_deliveries,
        format!(
            "subscribers drained {} deliveries, the protocol counted {}",
            seg.deliveries, seg.protocol_deliveries
        ),
    );
    recs.sort_unstable();
    let dups = recs
        .windows(2)
        .filter(|p| (p[0].event, p[0].pid) == (p[1].event, p[1].pid))
        .count();
    err(
        dups == 0,
        format!("{dups} duplicate (event, subscriber) deliveries"),
    );
    if let Some(reach) = seg.reach.take() {
        let outside = recs
            .iter()
            .filter(|r| !reach.contains(&(r.event, r.pid)))
            .count();
        err(
            outside == 0,
            format!("{outside} deliveries beyond the flood's hop budget"),
        );
    }
    let events = seg.audience.len();
    err(
        recs.last().is_none_or(|r| (r.event as usize) < events),
        "a delivery names an unknown publication".into(),
    );
    let mut per_event = vec![(0u32, 0u64); events];
    let mut lat = Vec::with_capacity(recs.len());
    for r in &recs {
        lat.push(r.lat_ns as f64);
        if let Some(e) = per_event.get_mut(r.event as usize) {
            e.0 += 1;
            e.1 = e.1.max(r.lat_ns);
        }
    }
    if w != Workload::Metropolis {
        let silent = per_event.iter().filter(|e| e.0 == 0).count();
        err(
            silent == 0,
            format!("{silent} publications not even delivered at their publisher"),
        );
    }
    let mut complete = Vec::with_capacity(events);
    for (&(n, last), &audience) in per_event.iter().zip(&seg.audience) {
        o.attempted += u64::from(audience);
        o.delivered_pairs += u64::from(n.min(audience));
        if n > 0 {
            complete.push(last as f64);
        }
    }
    o.delivery_p50 = percentile(&lat, 0.5);
    o.delivery_p99 = percentile(&lat, 0.99);
    o.complete_p50 = percentile(&complete, 0.5);
    o.complete_p90 = percentile(&complete, 0.9);
    o.publications = complete.len() as u64;
    o
}

/// The determinism check: a repeated seed at a fixed pool width gives
/// identical delivery totals.
fn totals(seg: &Seg) -> (u64, u64, u64) {
    (seg.ledger.sent, seg.ledger.get("delivered"), seg.deliveries)
}

fn json_metrics(metrics: &[layers::Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!(r#""{name}": {{"value": {v}, "unit": "{unit}"}}"#)
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    probe::now_ns();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "perfbench {} seed {} seconds {} trace {} (available parallelism {nproc})",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if args.trace {
        println!(
            "clock read costs {} ns; traced spans subtract it",
            probe::calibrate()
        );
    }

    let mut errors: Vec<String> = Vec::new();
    let mut check = |label: String, seg: &mut Seg| {
        let o = analyse(w, seg);
        for e in &o.errors {
            errors.push(format!("{label}: {e}"));
        }
        o
    };

    // Segment 0 once in the fresh process: warms caches and lazy set-up,
    // gives the memory probes a clean baseline, and is the reference for
    // the determinism check against the measured segment 0.
    let mut warm = w.segment(segment_seed(args.seed, 0), false);
    // Peak memory of the fresh process over one segment of fixed work.
    let warm_peak_kb = sys::status_kb("VmHWM");
    check("warm-up".into(), &mut warm);

    let mut base: Vec<Seg> = Vec::new();
    let mut base_out: Vec<Outcome> = Vec::new();
    let mut traced: Vec<Seg> = Vec::new();
    let mut traced_out: Vec<Outcome> = Vec::new();
    let start = Instant::now();
    for k in 0..w.segments(args.seconds, args.trace) {
        let seed = segment_seed(args.seed, k);
        let mut seg = w.segment(seed, false);
        let o = check(format!("segment {k}"), &mut seg);
        println!(
            "  segment {k}: setup {:.4} s, drive {:.4} s, cpu {:.4} s, {} ticks, {} deliveries, \
             delivery ms p50 {:.3} p99 {:.3}, complete ms p50 {:.3} p90 {:.3}",
            seg.setup_s,
            seg.drive_s,
            seg.cpu_s,
            seg.ticks,
            seg.deliveries,
            o.delivery_p50 * 1e-6,
            o.delivery_p99 * 1e-6,
            o.complete_p50 * 1e-6,
            o.complete_p90 * 1e-6
        );
        base.push(seg);
        base_out.push(o);
        if args.trace {
            let mut seg = w.segment(seed, true);
            traced_out.push(check(format!("traced segment {k}"), &mut seg));
            traced.push(seg);
        }
    }
    let measured_s = start.elapsed().as_secs_f64();

    let (a, b) = (totals(&warm), totals(&base[0]));
    println!("determinism (sent, envelopes delivered, deliveries): {a:?} vs {b:?}");
    if a != b {
        errors.push(format!(
            "segment 0 repeated with the same seed gave {a:?} then {b:?}"
        ));
    }
    if w == Workload::Stream {
        live_sim_divergence(&warm, &mut errors);
    }

    let attempted: u64 = base_out.iter().map(|o| o.attempted).sum();
    let delivered: u64 = base_out.iter().map(|o| o.delivered_pairs).sum();
    println!(
        "{} segments in {measured_s:.2} s, {} worker(s), population {}; pairs: {delivered} delivered of {attempted} attempted",
        base.len(),
        base[0].workers,
        base[0].population
    );

    let metrics = if args.trace {
        let replays = layers::Replays::run(w, &base[0]);
        let (m, table) = layers::per_layer(w, &warm, &base, &traced, &replays);
        print!("{table}");
        let _ = std::fs::create_dir_all(".bench_out");
        let path = std::path::PathBuf::from(format!(
            ".bench_out/{}-seed{}-spans.json",
            w.name(),
            args.seed
        ));
        let last = traced.last().expect("at least two traced segments");
        match layers::write_spans(&path, last) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => errors.push(format!("writing {}: {e}", path.display())),
        }
        m
    } else {
        end_to_end(&base, &base_out, warm_peak_kb)
    };
    for (name, value, unit) in &metrics {
        println!("  {name:<36} {value:>16.6} {unit}");
    }
    for e in &errors {
        println!("CHECK FAILED: {e}");
    }
    let correct = errors.is_empty();
    println!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {}, "metrics": {}}}"#,
        attempted - delivered,
        json_metrics(&metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

fn end_to_end(base: &[Seg], outs: &[Outcome], peak_kb: u64) -> Vec<layers::Metric> {
    let med = |f: &dyn Fn(&Seg, &Outcome) -> f64| {
        median(
            &base
                .iter()
                .zip(outs)
                .map(|(s, o)| f(s, o))
                .collect::<Vec<_>>(),
        )
    };
    let sum = |f: &dyn Fn(&Seg, &Outcome) -> u64| {
        base.iter().zip(outs).map(|(s, o)| f(s, o)).sum::<u64>() as f64
    };
    println!(
        "latency samples: {} deliveries, {} publications",
        sum(&|s, _| s.deliveries),
        sum(&|_, o| o.publications)
    );
    vec![
        ("setup_s", med(&|s, _| s.setup_s), "s"),
        (
            "deliveries_per_s",
            med(&|s, _| s.deliveries as f64 / s.drive_s),
            "1/s",
        ),
        (
            "ticks_per_s",
            med(&|s, _| s.ticks as f64 / s.drive_s),
            "1/s",
        ),
        ("delivery_ms_p50", med(&|_, o| o.delivery_p50) * 1e-6, "ms"),
        ("delivery_ms_p99", med(&|_, o| o.delivery_p99) * 1e-6, "ms"),
        ("complete_ms_p50", med(&|_, o| o.complete_p50) * 1e-6, "ms"),
        ("complete_ms_p90", med(&|_, o| o.complete_p90) * 1e-6, "ms"),
        (
            "delivery_ratio",
            sum(&|_, o| o.delivered_pairs) / sum(&|_, o| o.attempted).max(1.0),
            "fraction",
        ),
        (
            "sends_per_delivery",
            sum(&|s, _| s.ledger.sent) / sum(&|s, _| s.deliveries).max(1.0),
            "count",
        ),
        ("cpu_s", med(&|s, _| s.cpu_s), "s"),
        ("peak_rss_mb", peak_kb as f64 / 1024.0, "MiB"),
    ]
}

/// Reruns the live segment-0 schedule on the simulator and on the live
/// runtime at one worker, and prints how far the same-seed totals differ
/// from the simulator's. A known defect, reported rather than checked:
/// with several publications in flight the live delivery order depends on
/// the worker count.
fn live_sim_divergence(live: &Seg, errors: &mut Vec<String>) {
    println!("live/sim divergence, same seed and schedule (known defect, not a check):");
    println!(
        "  {:<10} {:>12} {:>12} {:>12}",
        "substrate", "sent", "env.deliv", "deliveries"
    );
    let mut sim = work::sim_da(Workload::Stream, live.seed, work::STREAM_TICKS);
    let o = analyse(Workload::Stream, &mut sim);
    errors.extend(o.errors.iter().map(|e| format!("simulator rerun: {e}")));
    let (sent, env, app) = totals(&sim);
    println!("  {:<10} {sent:>12} {env:>12} {app:>12}", "sim");
    let mut one = work::live_da::<false>(Workload::Stream, live.seed, 1);
    let o = analyse(Workload::Stream, &mut one);
    errors.extend(o.errors.iter().map(|e| format!("one-worker rerun: {e}")));
    for live in [live, &one] {
        let (s, e, a) = totals(live);
        println!(
            "  {:<10} {s:>12} {e:>12} {a:>12}   delta vs sim: sent {:+}, env.deliv {:+}, deliveries {:+}",
            format!("live w{}", live.workers),
            s as i64 - sent as i64,
            e as i64 - env as i64,
            a as i64 - app as i64
        );
    }
}
