//! The traced run's instrumentation, kept entirely outside the program.
//!
//! Three decorators wrap the interfaces the simulator already has:
//! [`TracedProcess`] around every `MarpNode` and `ClientProcess`,
//! a `Context` decorator handed to each handler, and [`TracedTransport`]
//! around the transport. Each records spans — name, start, end, parent
//! and, where the message decodes to one, a request or agent id — into
//! a recorder that lives on the benchmark's one thread. Spans stay in
//! memory until the simulation ends; a layer's self time is its spans'
//! duration minus the time their children cover.
//!
//! Every sent message copy is also decoded and re-encoded here, inside
//! `wire.*` spans of its own, to attribute its bytes (see [`crate::split`]).

use crate::split::{ByteSplit, Decoded, Handler};
use bytes::Bytes;
use marp_sim::{Context, Delivery, NodeId, Process, SimTime, TimerId, TraceEvent, Transport};
use std::any::Any;
use std::cell::RefCell;
use std::io::Write;
use std::time::{Duration, Instant};

/// What a span covers. The label prefix is the layer it is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// Building a deployment (benchmark set-up).
    Setup,
    /// One `Simulation::run_until` slice: the engine.
    Run,
    /// Reading state gauges between slices.
    Gauge,
    /// The post-run check (audit, paper metrics, lost-ack check).
    Check,
    /// The benchmark's own trace analysis after the check.
    Analyze,
    /// `Transport::route`.
    Route,
    /// `MarpNode` handling a client request.
    CoreClient,
    /// `MarpNode` handling agent traffic, lock queries and releases.
    CoreAgent,
    /// `MarpNode` handling an UPDATE.
    CoreUpdate,
    /// `MarpNode` handling a COMMIT.
    CoreCommit,
    /// `MarpNode` handling anti-entropy.
    CoreSync,
    /// `MarpNode` timers, start, failure notices and recovery.
    CoreTimer,
    /// Any `ClientProcess` handler.
    Client,
    /// `Context::send`.
    Send,
    /// `Context::trace`.
    Trace,
    /// `Context::set_timer` and `Context::cancel_timer`.
    Timer,
    /// Decoding a message copy.
    Decode,
    /// Re-encoding a decoded copy.
    Encode,
}

/// Span labels, indexed by `Name as usize`.
pub const LABELS: [&str; 18] = [
    "bench.setup",
    "sim.run",
    "bench.gauge",
    "metrics.check",
    "bench.analyze",
    "net.route",
    "core.handler.client",
    "core.handler.agent",
    "core.handler.update",
    "core.handler.commit",
    "core.handler.sync",
    "core.handler.timer",
    "replica.client",
    "sim.send",
    "sim.trace",
    "sim.timer",
    "wire.decode",
    "wire.encode",
];

const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What the span covers.
    pub name: Name,
    /// Index of the enclosing span in the same simulation, or `u32::MAX`.
    pub parent: u32,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
    /// Request id or agent key the span concerns, 0 when none.
    pub id: u64,
}

/// Per-name totals over many spans.
#[derive(Debug, Clone, Default)]
pub struct SelfTimes {
    /// Self time per name, ns.
    pub self_ns: [u64; LABELS.len()],
    /// Spans per name.
    pub count: [u64; LABELS.len()],
}

impl SelfTimes {
    /// Self time of `name` in microseconds.
    pub fn us(&self, name: Name) -> f64 {
        self.self_ns[name as usize] as f64 / 1e3
    }

    /// Summed self time over all names, ns.
    pub fn total_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }

    /// Fold one simulation's spans in.
    fn add_spans(&mut self, spans: &[Span]) {
        let mut children = vec![0u64; spans.len()];
        for span in spans {
            if span.parent != NO_PARENT {
                children[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        for (span, covered) in spans.iter().zip(children) {
            let i = span.name as usize;
            self.self_ns[i] += (span.end_ns - span.start_ns) - covered;
            self.count[i] += 1;
        }
    }

    /// Add another set of totals into this one.
    pub fn add(&mut self, other: &SelfTimes) {
        for i in 0..LABELS.len() {
            self.self_ns[i] += other.self_ns[i];
            self.count[i] += other.count[i];
        }
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    split: ByteSplit,
    error: Option<String>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

fn with_recorder<R>(f: impl FnOnce(&mut Recorder) -> R) -> R {
    RECORDER.with(|cell| {
        f(cell
            .borrow_mut()
            .as_mut()
            .expect("a span recorded outside a traced simulation"))
    })
}

/// Run `f` inside a span called `name`.
pub fn span<R>(name: Name, id: u64, f: impl FnOnce() -> R) -> R {
    let index = with_recorder(|rec| {
        let index = rec.spans.len() as u32;
        let parent = rec.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            id,
        });
        rec.stack.push(index);
        index
    });
    let out = f();
    with_recorder(|rec| {
        rec.spans[index as usize].end_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.stack.pop();
    });
    out
}

fn fail(error: String) {
    with_recorder(|rec| {
        rec.error.get_or_insert(error);
    });
}

/// The spans and byte split of one traced simulation.
pub struct Recording {
    /// Every span, in start order.
    pub spans: Vec<Span>,
    /// Bytes of every sent message copy, by part.
    pub split: ByteSplit,
    /// The first message the split could not account for, if any.
    pub error: Option<String>,
}

impl Recording {
    /// Self times of this recording's spans.
    pub fn self_times(&self) -> SelfTimes {
        let mut times = SelfTimes::default();
        times.add_spans(&self.spans);
        times
    }

    /// Write the spans to `out` as tab-separated lines
    /// `index  parent  name  start_ns  end_ns  id`, with parent `-` for a
    /// root span.
    pub fn write(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                LABELS[s.name as usize], s.start_ns, s.end_ns, s.id
            )?;
        }
        Ok(())
    }
}

/// Start recording one simulation.
pub fn begin() {
    RECORDER.with(|cell| {
        *cell.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
            split: ByteSplit::default(),
            error: None,
        });
    });
}

/// Stop recording and hand back what was recorded.
pub fn end() -> Recording {
    let rec = RECORDER
        .with(|cell| cell.borrow_mut().take())
        .expect("end() without begin()");
    assert!(rec.stack.is_empty(), "a span was left open");
    Recording {
        spans: rec.spans,
        split: rec.split,
        error: rec.error,
    }
}

/// Wraps the processes and the transport of a traced deployment with
/// `n_servers` replicas (node ids at or above it are clients).
pub struct Tracer {
    /// Replica servers in the deployment.
    pub n_servers: usize,
}

impl crate::deploy::Instrument for Tracer {
    fn process(&mut self, inner: Box<dyn Process>, server: bool) -> Box<dyn Process> {
        Box::new(TracedProcess {
            inner,
            server,
            n_servers: self.n_servers,
        })
    }
    fn transport(&mut self, inner: Box<dyn Transport>) -> Box<dyn Transport> {
        Box::new(TracedTransport { inner })
    }
}

/// A process decorator: times every handler and delegates everything,
/// `as_any` included, so post-run downcasts still reach the inner type.
pub struct TracedProcess {
    inner: Box<dyn Process>,
    server: bool,
    n_servers: usize,
}

impl TracedProcess {
    fn context<'a>(&self, inner: &'a mut dyn Context) -> TracedContext<'a> {
        TracedContext {
            inner,
            n_servers: self.n_servers,
        }
    }

    fn handler_name(&self, handler: Handler) -> Name {
        if !self.server {
            return Name::Client;
        }
        match handler {
            Handler::Client => Name::CoreClient,
            Handler::Agent => Name::CoreAgent,
            Handler::Update => Name::CoreUpdate,
            Handler::Commit => Name::CoreCommit,
            Handler::Sync => Name::CoreSync,
        }
    }

    fn timer_name(&self) -> Name {
        if self.server {
            Name::CoreTimer
        } else {
            Name::Client
        }
    }
}

impl Process for TracedProcess {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        span(self.timer_name(), 0, || {
            self.inner.on_start(&mut self.context(ctx))
        });
    }

    fn on_message(&mut self, from: NodeId, msg: Bytes, ctx: &mut dyn Context) {
        let (handler, id) = match span(Name::Decode, 0, || Decoded::decode(&msg, !self.server)) {
            Ok(decoded) => (decoded.handler(), decoded.id()),
            Err(error) => {
                fail(error);
                (Handler::Agent, 0)
            }
        };
        span(self.handler_name(handler), id, || {
            self.inner.on_message(from, msg, &mut self.context(ctx))
        });
    }

    fn on_timer(&mut self, timer: TimerId, tag: u64, ctx: &mut dyn Context) {
        span(self.timer_name(), 0, || {
            self.inner.on_timer(timer, tag, &mut self.context(ctx))
        });
    }

    fn on_node_status(&mut self, node: NodeId, up: bool, ctx: &mut dyn Context) {
        span(self.timer_name(), 0, || {
            self.inner.on_node_status(node, up, &mut self.context(ctx))
        });
    }

    fn on_recover(&mut self, ctx: &mut dyn Context) {
        span(self.timer_name(), 0, || {
            self.inner.on_recover(&mut self.context(ctx))
        });
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// A context decorator: times the effects a handler asks for and
/// attributes the bytes of every message it sends.
struct TracedContext<'a> {
    inner: &'a mut dyn Context,
    n_servers: usize,
}

impl Context for TracedContext<'_> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn me(&self) -> NodeId {
        self.inner.me()
    }

    fn send(&mut self, to: NodeId, msg: Bytes) {
        let to_client = usize::from(to) >= self.n_servers;
        let decoded = span(Name::Decode, 0, || {
            let decoded = Decoded::decode(&msg, to_client)?;
            with_recorder(|rec| rec.split.charge(&decoded, msg.len()))?;
            Ok::<_, String>(decoded)
        });
        let id = match decoded {
            Ok(decoded) => {
                let id = decoded.id();
                if !span(Name::Encode, id, || decoded.encode() == msg) {
                    fail(format!("a message about {id} re-encodes differently"));
                }
                id
            }
            Err(error) => {
                fail(error);
                0
            }
        };
        span(Name::Send, id, || self.inner.send(to, msg));
    }

    fn set_timer(&mut self, after: Duration, tag: u64) -> TimerId {
        span(Name::Timer, 0, || self.inner.set_timer(after, tag))
    }

    fn cancel_timer(&mut self, id: TimerId) {
        span(Name::Timer, 0, || self.inner.cancel_timer(id));
    }

    fn trace(&mut self, event: TraceEvent) {
        span(Name::Trace, 0, || self.inner.trace(event));
    }

    fn halt(&mut self) {
        self.inner.halt();
    }
}

/// A transport decorator timing `route`.
struct TracedTransport {
    inner: Box<dyn Transport>,
}

impl Transport for TracedTransport {
    fn route(&mut self, now: SimTime, from: NodeId, to: NodeId, size: usize) -> Delivery {
        span(Name::Route, 0, || self.inner.route(now, from, to, size))
    }
}
