//! Benchmark-side instrumentation, all of it outside the program under
//! test:
//!
//! * [`Sub`] wraps a protocol instance the way an application would: it
//!   drains the instance's first-time deliveries after every callback and
//!   stamps each one with the wall clock, so latency is measured from the
//!   publish stamp the generator wrote into the payload to the moment the
//!   subscriber sees the event;
//! * with `TRACE = true` the same wrapper also records a span around every
//!   protocol callback, and hands the protocol a [`Timed`] execution
//!   context that times each call into the transport (`Exec::send`) and
//!   metrics (`Exec::bump`/`add`) layers. With `TRACE = false` both
//!   collapse to plain delegation at compile time;
//! * every thread appends to its own [`ThreadLog`]; the logs are collected
//!   after the runtime's workers have been joined.

use da_simnet::{Ctx, ProcessId, Protocol};
use damulticast::{DaMsg, DaProcess, Exec, ExecProtocol, MetroMsg, MetroProcess};
use rand::rngs::SmallRng;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the benchmark's epoch (the first call).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What one [`now_ns`] call adds to a span it brackets, measured by
/// [`calibrate`]; timed spans subtract it.
static CLOCK_NS: AtomicU64 = AtomicU64::new(0);

/// Measures the clock's own cost: the median of back-to-back readings.
pub fn calibrate() -> u64 {
    let mut deltas: Vec<u64> = (0..100_000)
        .map(|_| {
            let t0 = now_ns();
            now_ns() - t0
        })
        .collect();
    deltas.sort_unstable();
    let cost = deltas[deltas.len() / 2];
    CLOCK_NS.store(cost, Ordering::Relaxed);
    cost
}

fn clock_ns() -> u64 {
    CLOCK_NS.load(Ordering::Relaxed)
}

/// Callback spans kept per thread and segment, for the span file.
const SPAN_CAP: usize = 20_000;

/// A traced thread times one callback in `SAMPLE`, plus the first
/// callback of every tick; the others are only counted. Reading the clock
/// costs more than a whole `on_round` of the metropolis protocol, so timing
/// every callback would mostly measure the clock.
pub const SAMPLE: u64 = 16;

/// Marks a span that carries no event id.
pub const NO_EVENT: u32 = u32::MAX;

/// One first-time delivery seen by a subscriber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Rec {
    /// Publication index (stream, alerts) or headline (metropolis).
    pub event: u32,
    /// The subscriber.
    pub pid: u32,
    /// Publish stamp to delivery drain, in nanoseconds.
    pub lat_ns: u64,
}

/// Which protocol hook a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hook {
    Start,
    Message,
    Round,
    Recover,
}

impl Hook {
    pub fn name(self) -> &'static str {
        match self {
            Hook::Start => "protocol.on_start",
            Hook::Message => "protocol.on_message",
            Hook::Round => "protocol.on_round",
            Hook::Recover => "protocol.on_recover",
        }
    }
}

/// One recorded callback span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub hook: Hook,
    pub start: u64,
    pub dur: u64,
    pub tick: u64,
    pub pid: u32,
    pub event: u32,
    /// Part of `dur` spent inside `Exec` calls.
    pub exec_ns: u64,
}

/// First callback start and last (timed) callback end of one tick on one
/// thread.
#[derive(Debug, Clone, Copy)]
pub struct TickSpan {
    pub tick: u64,
    pub first: u64,
    pub last: u64,
}

/// Calls of one kind, and the time of the sampled ones.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sampled {
    pub calls: u64,
    pub timed: u64,
    pub ns: u64,
    /// Part of `ns` spent inside `Exec` calls (callbacks only).
    pub exec_ns: u64,
}

impl Sampled {
    /// Mean self time (time outside `Exec` calls) of a timed call.
    pub fn self_ns_per_call(&self) -> f64 {
        if self.timed == 0 {
            return 0.0;
        }
        self.ns.saturating_sub(self.exec_ns) as f64 / self.timed as f64
    }

    /// Self time of all calls, extrapolated from the timed ones.
    pub fn self_ns_total(&self) -> f64 {
        self.self_ns_per_call() * self.calls as f64
    }

    pub fn absorb(&mut self, o: &Sampled) {
        self.calls += o.calls;
        self.timed += o.timed;
        self.ns += o.ns;
        self.exec_ns += o.exec_ns;
    }
}

/// How a traced thread times one callback. It times one callback in
/// [`SAMPLE`] with the `Exec` calls inside, and the first callback of every
/// tick for the tick's span alone; it only counts the others.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Timing {
    Off,
    TickStart,
    Sample,
}

/// Per-thread profile, filled only by traced segments.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    pub message: Sampled,
    pub round: Sampled,
    /// `on_start` and `on_recover`.
    pub other: Sampled,
    pub send: Sampled,
    pub bump: Sampled,
    /// Time the benchmark's subscriber spent draining and stamping.
    pub app_ns: u64,
    pub ticks: Vec<TickSpan>,
    pub spans: Vec<Span>,
    /// Callbacks seen, for the sampling decision.
    seq: u64,
}

impl Profile {
    fn hook_mut(&mut self, hook: Hook) -> &mut Sampled {
        match hook {
            Hook::Message => &mut self.message,
            Hook::Round => &mut self.round,
            Hook::Start | Hook::Recover => &mut self.other,
        }
    }

    /// Counts a callback and decides how to time it.
    fn sample(&mut self, hook: Hook, tick: u64) -> Timing {
        self.hook_mut(hook).calls += 1;
        self.seq += 1;
        if self.ticks.last().is_none_or(|t| t.tick != tick) {
            Timing::TickStart
        } else if self.seq.is_multiple_of(SAMPLE) {
            Timing::Sample
        } else {
            Timing::Off
        }
    }

    /// Books application time that began at `start` and extends the
    /// current tick's span to cover it.
    fn app_done(&mut self, start: u64) {
        let end = now_ns();
        self.app_ns += end - start;
        if let Some(cur) = self.ticks.last_mut() {
            cur.last = end;
        }
    }

    fn calls(&mut self, t: &CallStats) {
        self.send.absorb(&t.send);
        self.bump.absorb(&t.bump);
    }

    /// Books a timed callback. Only [`Timing::Sample`] callbacks enter the
    /// per-call figures: a tick's first callback runs on cold caches.
    fn callback(&mut self, span: Span, timing: Timing, t: &CallStats) {
        if timing == Timing::Sample {
            let stat = self.hook_mut(span.hook);
            stat.timed += 1;
            stat.ns += span.dur;
            stat.exec_ns += span.exec_ns;
        }
        self.calls(t);
        let end = span.start + span.dur;
        match self.ticks.last_mut() {
            Some(cur) if cur.tick == span.tick => cur.last = end,
            _ => self.ticks.push(TickSpan {
                tick: span.tick,
                first: span.start,
                last: end,
            }),
        }
        if self.spans.len() < SPAN_CAP {
            self.spans.push(span);
        }
    }
}

/// Everything one thread recorded during one segment.
#[derive(Debug, Default)]
pub struct ThreadLog {
    pub thread: String,
    pub recs: Vec<Rec>,
    /// Deliveries to a subscriber not interested in the event's topic.
    pub leaks: u64,
    pub prof: Profile,
}

type Slot = Arc<Mutex<Option<ThreadLog>>>;

static REGISTRY: Mutex<Vec<Slot>> = Mutex::new(Vec::new());

/// A thread's log plus the shared slot it is handed over in when the
/// thread exits (or when the main thread collects its own).
struct Local {
    log: RefCell<ThreadLog>,
    slot: Slot,
}

impl Local {
    fn new() -> Self {
        let slot: Slot = Arc::new(Mutex::new(None));
        REGISTRY
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::clone(&slot));
        let thread = std::thread::current().name().unwrap_or("?").to_string();
        Local {
            log: RefCell::new(ThreadLog {
                thread,
                ..ThreadLog::default()
            }),
            slot,
        }
    }

    fn hand_over(&self) {
        let log = std::mem::take(&mut *self.log.borrow_mut());
        *self.slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(log);
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.hand_over();
    }
}

thread_local! {
    static LOCAL: Local = Local::new();
}

fn with_log<R>(f: impl FnOnce(&mut ThreadLog) -> R) -> R {
    LOCAL.with(|l| f(&mut l.log.borrow_mut()))
}

/// Takes every thread's log recorded since the last call. Call only when
/// no other thread still records: after `Runtime::shutdown` has joined the
/// workers (a thread hands its log over when it exits), or after a
/// simulator segment on this thread.
pub fn collect() -> Vec<ThreadLog> {
    LOCAL.with(|l| {
        let thread = l.log.borrow().thread.clone();
        l.hand_over();
        l.log.borrow_mut().thread = thread;
    });
    let mut logs = Vec::new();
    REGISTRY
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .retain(|slot| {
            if let Some(log) = slot.lock().unwrap_or_else(PoisonError::into_inner).take() {
                logs.push(log);
            }
            // A live thread still holds the other reference.
            Arc::strong_count(slot) > 1
        });
    logs
}

/// Publish stamp of the metropolis headlines: the instant the benchmark thread
/// starts the first tick, during which every publisher announces.
pub static METRO_T0: AtomicU64 = AtomicU64::new(0);

/// Payload of a benchmark publication: index, publish tick and publish
/// wall-clock stamp, little-endian.
pub fn encode_stamp(index: u32, tick: u64, stamp_ns: u64) -> Vec<u8> {
    let mut b = Vec::with_capacity(20);
    b.extend_from_slice(&index.to_le_bytes());
    b.extend_from_slice(&tick.to_le_bytes());
    b.extend_from_slice(&stamp_ns.to_le_bytes());
    b
}

/// Inverse of [`encode_stamp`]: `(index, tick, stamp_ns)`.
pub fn decode_stamp(b: &[u8]) -> (u32, u64, u64) {
    let word = |r: std::ops::Range<usize>| {
        let mut w = [0u8; 8];
        w[..r.len()].copy_from_slice(&b[r]);
        u64::from_le_bytes(w)
    };
    (word(0..4) as u32, word(4..12), word(12..20))
}

/// `Exec` calls made during one callback.
#[derive(Debug, Default)]
struct CallStats {
    send: Sampled,
    bump: Sampled,
}

/// The execution context handed to a wrapped protocol: plain delegation;
/// when `TRACE` is set it also counts the transport and metrics calls, and
/// times them inside a timed callback.
pub struct Timed<'a, X, const TRACE: bool> {
    ctx: &'a mut X,
    time: bool,
    stats: CallStats,
}

impl<X, const TRACE: bool> Timed<'_, X, TRACE> {
    fn call(time: bool, stat: &mut Sampled, f: impl FnOnce()) {
        if !TRACE {
            return f();
        }
        stat.calls += 1;
        if time {
            let t0 = now_ns();
            f();
            stat.ns += (now_ns() - t0).saturating_sub(clock_ns());
            stat.timed += 1;
        } else {
            f();
        }
    }
}

impl<X: Exec, const TRACE: bool> Exec for Timed<'_, X, TRACE> {
    type Msg = X::Msg;

    fn me(&self) -> ProcessId {
        self.ctx.me()
    }

    fn round(&self) -> u64 {
        self.ctx.round()
    }

    fn send(&mut self, to: ProcessId, msg: X::Msg) {
        let ctx = &mut *self.ctx;
        Self::call(self.time, &mut self.stats.send, || ctx.send(to, msg));
    }

    fn rng(&mut self) -> &mut SmallRng {
        self.ctx.rng()
    }

    fn bump(&mut self, label: &str) {
        let ctx = &mut *self.ctx;
        Self::call(self.time, &mut self.stats.bump, || ctx.bump(label));
    }

    fn add(&mut self, label: &str, delta: u64) {
        let ctx = &mut *self.ctx;
        Self::call(self.time, &mut self.stats.bump, || ctx.add(label, delta));
    }
}

/// A subscriber: the protocol instance plus the application around it.
#[derive(Debug, Clone)]
pub struct Sub<P, const TRACE: bool> {
    pub inner: P,
}

impl<P: ExecProtocol, const TRACE: bool> Sub<P, TRACE> {
    pub fn new(inner: P) -> Self {
        Sub { inner }
    }

    /// Runs one protocol hook, recording its span when tracing.
    fn hook<X: Exec<Msg = P::Msg>>(
        &mut self,
        hook: Hook,
        event: u32,
        ctx: &mut X,
        f: impl FnOnce(&mut P, &mut Timed<'_, X, TRACE>),
    ) {
        let mut timed = Timed {
            ctx,
            time: false,
            stats: CallStats::default(),
        };
        if !TRACE {
            return f(&mut self.inner, &mut timed);
        }
        let (tick, pid) = (timed.ctx.round(), timed.ctx.me().0);
        let timing = with_log(|log| log.prof.sample(hook, tick));
        if timing == Timing::Off {
            f(&mut self.inner, &mut timed);
            let stats = timed.stats;
            return with_log(|log| log.prof.calls(&stats));
        }
        timed.time = timing == Timing::Sample;
        let start = now_ns();
        f(&mut self.inner, &mut timed);
        let raw = now_ns() - start;
        let stats = timed.stats;
        // Each timed `Exec` call inside read the clock twice.
        let dur = raw.saturating_sub(clock_ns() * (1 + 2 * (stats.send.timed + stats.bump.timed)));
        let span = Span {
            hook,
            start,
            dur,
            tick,
            pid,
            event,
            exec_ns: stats.send.ns + stats.bump.ns,
        };
        with_log(|log| log.prof.callback(span, timing, &stats));
    }
}

impl<const TRACE: bool> Sub<DaProcess, TRACE> {
    /// The application side: drain first-time deliveries and stamp them.
    fn drain(&mut self, me: ProcessId) {
        let events = self.inner.take_delivered();
        if events.is_empty() {
            return;
        }
        let at = now_ns();
        with_log(|log| {
            for e in &events {
                let (index, _tick, stamp) = decode_stamp(e.payload());
                if !self.inner.is_interested_in(e.topic()) {
                    log.leaks += 1;
                }
                log.recs.push(Rec {
                    event: index,
                    pid: me.0,
                    lat_ns: at.saturating_sub(stamp),
                });
            }
            if TRACE {
                log.prof.app_done(at);
            }
        });
    }
}

fn da_event(msg: &DaMsg) -> u32 {
    match msg {
        DaMsg::Event { event, .. } => decode_stamp(event.payload()).0,
        _ => NO_EVENT,
    }
}

impl<const TRACE: bool> ExecProtocol for Sub<DaProcess, TRACE> {
    type Msg = DaMsg;

    fn on_start<X: Exec<Msg = DaMsg>>(&mut self, ctx: &mut X) {
        self.hook(Hook::Start, NO_EVENT, ctx, |p, c| {
            ExecProtocol::on_start(p, c)
        });
        self.drain(ctx.me());
    }

    fn on_message<X: Exec<Msg = DaMsg>>(&mut self, from: ProcessId, msg: DaMsg, ctx: &mut X) {
        let event = if TRACE { da_event(&msg) } else { NO_EVENT };
        self.hook(Hook::Message, event, ctx, |p, c| {
            ExecProtocol::on_message(p, from, msg, c)
        });
        self.drain(ctx.me());
    }

    fn on_round<X: Exec<Msg = DaMsg>>(&mut self, round: u64, ctx: &mut X) {
        self.hook(Hook::Round, NO_EVENT, ctx, |p, c| {
            ExecProtocol::on_round(p, round, c)
        });
        self.drain(ctx.me());
    }

    fn on_recover<X: Exec<Msg = DaMsg>>(&mut self, ctx: &mut X) {
        self.hook(Hook::Recover, NO_EVENT, ctx, |p, c| {
            ExecProtocol::on_recover(p, c)
        });
        self.drain(ctx.me());
    }
}

impl<const TRACE: bool> ExecProtocol for Sub<MetroProcess, TRACE> {
    type Msg = MetroMsg;

    fn on_start<X: Exec<Msg = MetroMsg>>(&mut self, ctx: &mut X) {
        self.hook(Hook::Start, NO_EVENT, ctx, |p, c| {
            ExecProtocol::on_start(p, c)
        });
    }

    fn on_message<X: Exec<Msg = MetroMsg>>(&mut self, from: ProcessId, msg: MetroMsg, ctx: &mut X) {
        let before = self.inner.delivered();
        let headline = u32::from(msg.headline);
        self.hook(Hook::Message, headline, ctx, |p, c| {
            ExecProtocol::on_message(p, from, msg, c)
        });
        if self.inner.delivered() != before {
            let at = now_ns();
            let pid = ctx.me().0;
            with_log(|log| {
                log.recs.push(Rec {
                    event: headline,
                    pid,
                    lat_ns: at.saturating_sub(METRO_T0.load(Ordering::Relaxed)),
                });
                if TRACE {
                    log.prof.app_done(at);
                }
            });
        }
    }

    fn on_round<X: Exec<Msg = MetroMsg>>(&mut self, round: u64, ctx: &mut X) {
        self.hook(Hook::Round, NO_EVENT, ctx, |p, c| {
            ExecProtocol::on_round(p, round, c)
        });
    }

    fn on_recover<X: Exec<Msg = MetroMsg>>(&mut self, ctx: &mut X) {
        self.hook(Hook::Recover, NO_EVENT, ctx, |p, c| {
            ExecProtocol::on_recover(p, c)
        });
    }
}

/// Simulator adapter: pure delegation, as for the wrapped protocols.
impl<P, const TRACE: bool> Protocol for Sub<P, TRACE>
where
    Sub<P, TRACE>: ExecProtocol,
    <Sub<P, TRACE> as ExecProtocol>::Msg: Clone + std::fmt::Debug + da_simnet::WireSize,
{
    type Msg = <Sub<P, TRACE> as ExecProtocol>::Msg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        ExecProtocol::on_start(self, ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg>) {
        ExecProtocol::on_message(self, from, msg, ctx);
    }

    fn on_round(&mut self, round: u64, ctx: &mut Ctx<'_, Self::Msg>) {
        ExecProtocol::on_round(self, round, ctx);
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        ExecProtocol::on_recover(self, ctx);
    }
}
