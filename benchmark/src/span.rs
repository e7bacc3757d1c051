//! Spans around the calls into each layer, recorded only by benchmark
//! code.
//!
//! A [`Recorder`] belongs to one thread. Every span is folded into a
//! per-[`Kind`] aggregate when it closes (count, total time, self time
//! = total minus the part its child spans cover), so layer self times
//! are exact however many spans a run opens; the spans themselves are
//! kept in a pre-sized `Vec` up to its capacity and written as Chrome
//! trace-event JSON when the run ends.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// The layer a span's self time is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Benchmark bookkeeping: rep, set-up, transfer, check.
    Bench,
    /// `SimNet::run`: `simnet` scheduler and fabric plus the
    /// `rdma-verbs` HCA model, everything between app callbacks.
    SimRun,
    /// The benchmark's own `NodeApp` callbacks (the load generator).
    Harness,
    /// `exs` entry points called from a callback.
    Exs,
    /// `VerbsPort` methods called by `exs` (`rdma-verbs` node API).
    Port,
    /// `ThreadStream` calls from the load-generator threads.
    ExsThread,
}

impl Layer {
    /// Chrome trace category.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::SimRun => "rdma-verbs.sim",
            Layer::Harness => "bench.harness",
            Layer::Exs => "exs",
            Layer::Port => "rdma-verbs.port",
            Layer::ExsThread => "exs.thread",
        }
    }
}

/// What a span measures. A closed set, so aggregates live in an array
/// indexed by kind and opening a span hashes nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    Rep,
    Setup,
    Transfer,
    Check,
    SimRun,
    AppCallback,
    ExsSend,
    ExsRecv,
    HandleWake,
    TakeEvents,
    PostSend,
    PostSendList,
    PostRecv,
    PollCq,
    ReadMr,
    CopyMr,
    ChargeCqeCost,
    SqOutstanding,
    RegisterMr,
    DeregisterMr,
    RegisterMrCharged,
    DeregisterMrCharged,
    WriteMr,
    CqPressure,
    StreamSend,
    StreamWaitSend,
    StreamRecv,
    StreamWaitRecv,
    SendBytes,
    RecvExact,
}

impl Kind {
    /// Every kind, in discriminant order.
    pub const ALL: [Kind; 30] = [
        Kind::Rep,
        Kind::Setup,
        Kind::Transfer,
        Kind::Check,
        Kind::SimRun,
        Kind::AppCallback,
        Kind::ExsSend,
        Kind::ExsRecv,
        Kind::HandleWake,
        Kind::TakeEvents,
        Kind::PostSend,
        Kind::PostSendList,
        Kind::PostRecv,
        Kind::PollCq,
        Kind::ReadMr,
        Kind::CopyMr,
        Kind::ChargeCqeCost,
        Kind::SqOutstanding,
        Kind::RegisterMr,
        Kind::DeregisterMr,
        Kind::RegisterMrCharged,
        Kind::DeregisterMrCharged,
        Kind::WriteMr,
        Kind::CqPressure,
        Kind::StreamSend,
        Kind::StreamWaitSend,
        Kind::StreamRecv,
        Kind::StreamWaitRecv,
        Kind::SendBytes,
        Kind::RecvExact,
    ];

    /// Span name in the trace.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Rep => "rep",
            Kind::Setup => "setup",
            Kind::Transfer => "transfer",
            Kind::Check => "check",
            Kind::SimRun => "SimNet::run",
            Kind::AppCallback => "NodeApp callback",
            Kind::ExsSend => "exs_send",
            Kind::ExsRecv => "exs_recv",
            Kind::HandleWake => "handle_wake",
            Kind::TakeEvents => "take_events",
            Kind::PostSend => "post_send",
            Kind::PostSendList => "post_send_list",
            Kind::PostRecv => "post_recv",
            Kind::PollCq => "poll_cq",
            Kind::ReadMr => "read_mr",
            Kind::CopyMr => "copy_mr",
            Kind::ChargeCqeCost => "charge_cqe_cost",
            Kind::SqOutstanding => "sq_outstanding",
            Kind::RegisterMr => "register_mr",
            Kind::DeregisterMr => "deregister_mr",
            Kind::RegisterMrCharged => "register_mr_charged",
            Kind::DeregisterMrCharged => "deregister_mr_charged",
            Kind::WriteMr => "write_mr",
            Kind::CqPressure => "cq_pressure",
            Kind::StreamSend => "ThreadStream::send",
            Kind::StreamWaitSend => "ThreadStream::wait_send",
            Kind::StreamRecv => "ThreadStream::recv",
            Kind::StreamWaitRecv => "ThreadStream::wait_recv",
            Kind::SendBytes => "ThreadStream::send_bytes",
            Kind::RecvExact => "ThreadStream::recv_exact",
        }
    }

    /// The layer this kind's self time belongs to.
    pub fn layer(self) -> Layer {
        match self {
            Kind::Rep | Kind::Setup | Kind::Transfer | Kind::Check => Layer::Bench,
            Kind::SimRun => Layer::SimRun,
            Kind::AppCallback => Layer::Harness,
            Kind::ExsSend | Kind::ExsRecv | Kind::HandleWake | Kind::TakeEvents => Layer::Exs,
            Kind::PostSend
            | Kind::PostSendList
            | Kind::PostRecv
            | Kind::PollCq
            | Kind::ReadMr
            | Kind::CopyMr
            | Kind::ChargeCqeCost
            | Kind::SqOutstanding
            | Kind::RegisterMr
            | Kind::DeregisterMr
            | Kind::RegisterMrCharged
            | Kind::DeregisterMrCharged
            | Kind::WriteMr
            | Kind::CqPressure => Layer::Port,
            Kind::StreamSend
            | Kind::StreamWaitSend
            | Kind::StreamRecv
            | Kind::StreamWaitRecv
            | Kind::SendBytes
            | Kind::RecvExact => Layer::ExsThread,
        }
    }
}

/// `parent` of a span with no recorded parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Recorder::spans`], or
    /// [`NO_PARENT`].
    pub parent: u32,
    /// Message (or rep) the span belongs to; spans of one message share
    /// it.
    pub msg_id: u64,
}

/// Totals over every span of one kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by direct child spans.
    pub self_ns: u64,
}

struct Open {
    kind: Kind,
    start_ns: u64,
    child_ns: u64,
    slot: u32,
}

/// Counts taken at the port boundary, where the work happens.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PortCounters {
    /// WQEs handed to `post_send` or inside a `post_send_list`.
    pub send_wqes: u64,
    /// `poll_cq` calls that returned nothing.
    pub empty_polls: u64,
    /// Completions returned by `poll_cq`.
    pub cqes: u64,
    /// Bytes moved by `copy_mr` (the intermediate-buffer copy-out).
    pub copy_bytes: u64,
}

/// A single thread's span recorder.
pub struct Recorder {
    origin: Instant,
    /// Chrome trace `tid`: one track per recorder.
    track: u32,
    spans: Vec<Span>,
    capacity: usize,
    /// Spans opened after the `Vec` filled (aggregated, not kept).
    dropped: u64,
    open: Vec<Open>,
    agg: [Agg; Kind::ALL.len()],
    pub counters: PortCounters,
}

impl Recorder {
    /// A recorder keeping at most `capacity` spans (allocated now, so
    /// recording never allocates); aggregates cover every span
    /// regardless.
    pub fn new(origin: Instant, track: u32, capacity: usize) -> Recorder {
        Recorder {
            origin,
            track,
            spans: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
            open: Vec::with_capacity(16),
            agg: [Agg::default(); Kind::ALL.len()],
            counters: PortCounters::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::exit`]. Spans nest
    /// strictly (last opened, first closed).
    pub fn enter(&mut self, kind: Kind, msg_id: u64) {
        let now = self.now_ns();
        self.enter_at(kind, msg_id, now);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let now = self.now_ns();
        self.exit_at(now);
    }

    fn enter_at(&mut self, kind: Kind, msg_id: u64, now: u64) {
        let slot = if self.spans.len() < self.capacity {
            let parent = self.open.last().map_or(NO_PARENT, |o| o.slot);
            self.spans.push(Span {
                kind,
                start_ns: now,
                end_ns: now,
                parent,
                msg_id,
            });
            (self.spans.len() - 1) as u32
        } else {
            self.dropped += 1;
            NO_PARENT
        };
        self.open.push(Open {
            kind,
            start_ns: now,
            child_ns: 0,
            slot,
        });
    }

    fn exit_at(&mut self, now: u64) {
        let open = self.open.pop().expect("exit without a matching enter");
        let total = now.saturating_sub(open.start_ns);
        let agg = &mut self.agg[open.kind as usize];
        agg.count += 1;
        agg.total_ns += total;
        agg.self_ns += total.saturating_sub(open.child_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += total;
        }
        if open.slot != NO_PARENT {
            self.spans[open.slot as usize].end_ns = now;
        }
    }

    /// Records a span of `kind` that began with the innermost open span
    /// and lasted `dur_ns`: a first phase the callee timed itself (the
    /// fan-in harness reports its own set-up time).
    pub fn leading_child(&mut self, kind: Kind, msg_id: u64, dur_ns: u64) {
        let start = self
            .open
            .last()
            .expect("leading_child needs an open parent")
            .start_ns;
        self.enter_at(kind, msg_id, start);
        self.exit_at(start + dur_ns);
    }

    /// Totals for one kind.
    pub fn agg(&self, kind: Kind) -> Agg {
        self.agg[kind as usize]
    }

    /// Self time summed over every kind of `layer`.
    pub fn layer_self_ns(&self, layer: Layer) -> u64 {
        Kind::ALL
            .iter()
            .filter(|k| k.layer() == layer)
            .map(|&k| self.agg(k).self_ns)
            .sum()
    }

    /// The recorded spans, in opening order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Runs `f` inside a span of `kind` on a shared recorder. The recorder
/// is borrowed only to open and close the span, so `f` may record
/// nested spans through the same cell.
pub fn in_span<R>(rec: &RefCell<Recorder>, kind: Kind, msg_id: u64, f: impl FnOnce() -> R) -> R {
    rec.borrow_mut().enter(kind, msg_id);
    let r = f();
    rec.borrow_mut().exit();
    r
}

/// Renders recorders as one Chrome trace-event JSON document (the
/// format Perfetto and `chrome://tracing` open directly): one complete
/// (`"ph":"X"`) event per span, one track per recorder.
pub fn chrome_trace(workload: &str, recorders: &[&Recorder]) -> String {
    let spans: usize = recorders.iter().map(|r| r.spans.len()).sum();
    let mut out = String::with_capacity(64 + spans * 150);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":\"");
    out.push_str(workload);
    write!(
        out,
        "\",\"dropped_spans\":{}}},\"traceEvents\":[",
        recorders.iter().map(|r| r.dropped).sum::<u64>()
    )
    .expect("String write");
    let mut first = true;
    for rec in recorders {
        for (index, span) in rec.spans.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            // `ts`/`dur` are microseconds; three decimals keep the ns.
            write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"span\":{},\"parent\":{},\"msg_id\":{}}}}}",
                span.kind.name(),
                span.kind.layer().label(),
                span.start_ns / 1000,
                span.start_ns % 1000,
                (span.end_ns - span.start_ns) / 1000,
                (span.end_ns - span.start_ns) % 1000,
                rec.track,
                index,
                if span.parent == NO_PARENT {
                    -1
                } else {
                    i64::from(span.parent)
                },
                span.msg_id,
            )
            .expect("String write");
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn recorder(capacity: usize) -> Recorder {
        Recorder::new(Instant::now(), 7, capacity)
    }

    #[test]
    fn kinds_are_indexed_by_discriminant() {
        for (i, kind) in Kind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i);
        }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let mut r = recorder(16);
        r.enter_at(Kind::SimRun, 0, 100);
        r.enter_at(Kind::AppCallback, 1, 150);
        r.enter_at(Kind::ExsSend, 1, 160);
        r.enter_at(Kind::PostSend, 1, 170);
        r.exit_at(180); // post_send: 10 total, 10 self
        r.exit_at(200); // exs_send: 40 total, 30 self
        r.enter_at(Kind::TakeEvents, 1, 210);
        r.exit_at(215); // take_events: 5
        r.exit_at(250); // callback: 100 total, 100 - 40 - 5 = 55 self
        r.enter_at(Kind::AppCallback, 2, 300);
        r.exit_at(320); // callback: 20
        r.exit_at(400); // run: 300 total, 300 - 100 - 20 = 180 self

        assert_eq!(
            r.agg(Kind::PostSend),
            Agg {
                count: 1,
                total_ns: 10,
                self_ns: 10
            }
        );
        assert_eq!(r.agg(Kind::ExsSend).self_ns, 30);
        assert_eq!(
            r.agg(Kind::AppCallback),
            Agg {
                count: 2,
                total_ns: 120,
                self_ns: 75
            }
        );
        assert_eq!(r.agg(Kind::SimRun).self_ns, 180);
        // Self times partition the root span.
        let layers = [Layer::SimRun, Layer::Harness, Layer::Exs, Layer::Port];
        let sum: u64 = layers.iter().map(|&l| r.layer_self_ns(l)).sum();
        assert_eq!(sum, r.agg(Kind::SimRun).total_ns);
        assert_eq!(r.layer_self_ns(Layer::Exs), 35);
        // Parent links follow the nesting.
        let parents: Vec<u32> = r.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [NO_PARENT, 0, 1, 2, 1, 0]);
        assert_eq!(r.spans()[2].msg_id, 1);
    }

    #[test]
    fn leading_child_is_charged_to_the_open_parent() {
        let mut r = recorder(4);
        r.enter_at(Kind::Transfer, 1, 1_000);
        r.leading_child(Kind::Setup, 1, 300);
        r.exit_at(2_000);
        assert_eq!(r.agg(Kind::Setup).total_ns, 300);
        assert_eq!(r.agg(Kind::Transfer).self_ns, 700);
        assert_eq!(r.spans()[1].start_ns, 1_000);
        assert_eq!(r.spans()[1].end_ns, 1_300);
        assert_eq!(r.spans()[1].parent, 0);
    }

    #[test]
    fn aggregates_survive_a_full_span_buffer() {
        let mut r = recorder(2);
        r.enter_at(Kind::Rep, 0, 0);
        for i in 0..5 {
            r.enter_at(Kind::Transfer, i, 10 * i);
            r.exit_at(10 * i + 4);
        }
        r.exit_at(100);
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.dropped, 4);
        assert_eq!(r.agg(Kind::Transfer).count, 5);
        assert_eq!(r.agg(Kind::Transfer).total_ns, 20);
        assert_eq!(r.agg(Kind::Rep).self_ns, 80);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let mut r = recorder(8);
        r.enter_at(Kind::Rep, 3, 1_000);
        r.enter_at(Kind::Setup, 3, 1_500);
        r.exit_at(2_750);
        r.exit_at(9_001);
        let doc = Json::parse(&chrome_trace("w", &[&r])).expect("valid JSON");
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("traceEvents missing");
        };
        assert_eq!(events.len(), 2);
        let setup = &events[1];
        assert_eq!(setup.get("name").and_then(Json::as_str), Some("setup"));
        assert_eq!(setup.get("cat").and_then(Json::as_str), Some("bench"));
        assert_eq!(setup.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(setup.get("ts").and_then(Json::as_f64), Some(1.5));
        assert_eq!(setup.get("dur").and_then(Json::as_f64), Some(1.25));
        assert_eq!(setup.get("tid").and_then(Json::as_f64), Some(7.0));
        let args = setup.get("args").expect("args");
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(args.get("msg_id").and_then(Json::as_f64), Some(3.0));
    }
}
