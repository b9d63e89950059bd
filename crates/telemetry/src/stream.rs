//! Multi-sink fan-out recording and live trace streaming.
//!
//! One run can record to N destinations at once through a
//! [`FanoutRecorder`]: a single [`SinkCore`] stamps every event exactly
//! once (clock tick, span id, state id), then broadcasts the finished
//! [`TraceEvent`] to each attached [`EventSink`]. Because all sinks see
//! the *same* stamped events, a [`FileSink`] inside a fan-out writes
//! bytes identical to a standalone [`FileRecorder`](crate::FileRecorder)
//! of the same run — byte-identity by construction, not by luck.
//!
//! Sinks:
//!
//! * [`FileSink`] — canonical JSONL to any `Write` target (the
//!   [`FileRecorder`](crate::FileRecorder) behaviour, factored out).
//! * [`MemSink`] — collects events behind a shared handle for in-memory
//!   aggregation (live `TraceSummary`, tests).
//! * [`StreamSink`] — frames the canonical JSONL lines over a TCP or
//!   Unix socket through a bounded, non-blocking queue. The engine is
//!   never stalled by a slow consumer: when the queue is full the line
//!   is dropped and counted, and the final drop count rides out on the
//!   end-of-run frame (and, when nonzero, the
//!   `telemetry.stream.dropped` counter).
//!
//! # Wire format
//!
//! A stream is newline-delimited JSON. Trace events use the `"k"`
//! discriminator and are byte-identical to the trace file lines. The
//! stream adds exactly two *frames*, distinguished by an `"s"` key so
//! no trace parser can confuse them with events:
//!
//! ```text
//! {"s":"hello","version":1,"run":"<run id>"}     (first line)
//! ... canonical trace event lines ...
//! {"s":"end","dropped":<n>}                      (last line)
//! ```
//!
//! The `end` frame is the authoritative end-of-run signal — consumers
//! no longer need the "metrics flush seen ⇒ run done" heuristic the
//! file-polling dashboard uses. A stream that closes without an `end`
//! frame died mid-run.

use std::cell::RefCell;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::net::TcpStream;
use std::path::Path;
use std::rc::Rc;
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::clock::{Clock, ClockMode};
use crate::event::{json, push_json_str, FieldValue, SpanId, TraceEvent};
use crate::metrics::Metrics;
use crate::recorder::{LineageEvent, QueryEvent, Recorder, SinkCore, TraceBuffer, TRACE_VERSION};

/// Counter materialized at trace end when (and only when) a
/// [`StreamSink`] dropped events under backpressure. Zero-drop runs
/// emit nothing, so a streamed trace stays byte-identical to an
/// unstreamed one.
pub const STREAM_DROPPED: &str = "telemetry.stream.dropped";

/// One destination for the stamped event stream of a [`FanoutRecorder`].
///
/// Sinks receive every event exactly once, in recording order, starting
/// with the trace meta event. They are driven from the recording thread
/// and may be `!Send`.
pub trait EventSink {
    /// Delivers one stamped event.
    fn emit(&mut self, ev: &TraceEvent);

    /// Called after lineage-state events: a hint to make buffered output
    /// visible (the tailability contract of
    /// [`FileRecorder`](crate::FileRecorder)). Default no-op.
    fn flush_hint(&mut self) {}

    /// Finalizes the sink after the metrics snapshot has been emitted.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error the sink hit at any point.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Events this sink discarded under backpressure (0 for lossless
    /// sinks).
    fn dropped(&self) -> u64 {
        0
    }
}

/// Canonical JSONL to a `Write` target; the file half of
/// [`FileRecorder`](crate::FileRecorder), usable standalone inside any
/// fan-out. Writes are best-effort while the run is in flight; the
/// first I/O error is latched and surfaced by [`EventSink::finish`].
pub struct FileSink {
    out: BufWriter<Box<dyn Write>>,
    error: Option<io::Error>,
}

impl FileSink {
    /// Creates (truncating) the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the `File::create` failure.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<FileSink> {
        let file = File::create(path)?;
        Ok(FileSink::from_writer(Box::new(file)))
    }

    /// Wraps an arbitrary writer (tests trace into memory this way).
    pub fn from_writer(w: Box<dyn Write>) -> FileSink {
        FileSink {
            out: BufWriter::new(w),
            error: None,
        }
    }
}

impl EventSink for FileSink {
    fn emit(&mut self, ev: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        let line = ev.to_json_line();
        if let Err(e) = self
            .out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"))
        {
            self.error = Some(e);
        }
    }

    fn flush_hint(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
    }

    fn finish(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()
    }
}

/// Shared handle to the events captured by a [`MemSink`].
#[derive(Debug, Clone, Default)]
pub struct SharedEvents(Rc<RefCell<Vec<TraceEvent>>>);

impl SharedEvents {
    /// The events captured so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.0.borrow().clone()
    }
}

/// An in-memory sink: the aggregation leg of a fan-out. Events are
/// readable mid-run through the [`SharedEvents`] handle.
#[derive(Debug, Default)]
pub struct MemSink(SharedEvents);

impl MemSink {
    /// A fresh sink and the handle to read it.
    pub fn new() -> (MemSink, SharedEvents) {
        let handle = SharedEvents::default();
        (MemSink(handle.clone()), handle)
    }
}

impl EventSink for MemSink {
    fn emit(&mut self, ev: &TraceEvent) {
        self.0 .0.borrow_mut().push(ev.clone());
    }
}

/// The non-event frames a [`StreamSink`] adds around the trace lines.
///
/// Frames use an `"s"` discriminator where events use `"k"`, so a frame
/// line is invisible to every trace parser — and stripping frames from
/// a captured stream yields the canonical trace byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamFrame {
    /// First line of a stream: run metadata.
    Hello {
        /// Trace format version ([`TRACE_VERSION`]).
        version: u64,
        /// Caller-chosen run identifier (e.g. the trace file stem).
        run: String,
    },
    /// Last line of a stream: the authoritative end-of-run signal.
    End {
        /// Events dropped under backpressure over the stream's life.
        dropped: u64,
    },
}

impl StreamFrame {
    /// Renders the canonical single-line form (no trailing newline).
    pub fn to_json_line(&self) -> String {
        match self {
            StreamFrame::Hello { version, run } => {
                let mut s = format!("{{\"s\":\"hello\",\"version\":{version},\"run\":");
                push_json_str(&mut s, run);
                s.push('}');
                s
            }
            StreamFrame::End { dropped } => {
                format!("{{\"s\":\"end\",\"dropped\":{dropped}}}")
            }
        }
    }

    /// Parses a stream line as a frame. `None` means the line is not a
    /// frame (most likely an ordinary trace event line).
    pub fn parse(line: &str) -> Option<StreamFrame> {
        let obj = json::parse(line).ok()?;
        let obj = obj.as_object()?;
        let get = |key: &str| obj.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        match get("s")?.as_str()? {
            "hello" => Some(StreamFrame::Hello {
                version: get("version")?.as_u64()?,
                run: get("run")?.as_str()?.to_string(),
            }),
            "end" => Some(StreamFrame::End {
                dropped: get("dropped")?.as_u64()?,
            }),
            _ => None,
        }
    }
}

/// How many lines a [`StreamSink`] buffers before dropping.
pub const STREAM_QUEUE_CAPACITY: usize = 8192;

/// Frames the canonical JSONL event stream over a socket (or any `Write`)
/// without ever blocking the recording thread.
///
/// Lines are handed to a background writer thread through a bounded
/// queue via `try_send`: a full queue (slow or stalled consumer) drops
/// the line and bumps the drop counter instead of stalling the engine.
/// [`EventSink::finish`] sends the [`StreamFrame::End`] frame carrying
/// the final drop count, joins the writer, and reports its first I/O
/// error.
pub struct StreamSink {
    tx: Option<SyncSender<String>>,
    dropped: u64,
    writer: Option<JoinHandle<io::Result<()>>>,
}

impl StreamSink {
    /// Connects to `addr` — a Unix socket path if it contains `/`, else
    /// a TCP `host:port` — retrying for a few seconds so a consumer
    /// started in parallel (`statsym-inspect live`) wins the race.
    ///
    /// # Errors
    ///
    /// Returns the last connection error once retries are exhausted.
    pub fn connect(addr: &str, run: &str) -> io::Result<StreamSink> {
        let mut last = None;
        for attempt in 0..100u32 {
            if attempt > 0 {
                std::thread::sleep(Duration::from_millis(50));
            }
            match Self::connect_once(addr) {
                Ok(w) => return Ok(StreamSink::start(w, run)),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| io::Error::other("no connection attempt made")))
    }

    fn connect_once(addr: &str) -> io::Result<Box<dyn Write + Send>> {
        #[cfg(unix)]
        if addr.contains('/') {
            let s = std::os::unix::net::UnixStream::connect(addr)?;
            return Ok(Box::new(s));
        }
        let s = TcpStream::connect(addr)?;
        Ok(Box::new(s))
    }

    /// Streams into an arbitrary writer (tests capture the framed bytes
    /// this way).
    pub fn from_writer(w: Box<dyn Write + Send>, run: &str) -> StreamSink {
        StreamSink::start(w, run)
    }

    fn start(w: Box<dyn Write + Send>, run: &str) -> StreamSink {
        let (tx, rx) = sync_channel::<String>(STREAM_QUEUE_CAPACITY);
        let hello = StreamFrame::Hello {
            version: TRACE_VERSION,
            run: run.to_string(),
        }
        .to_json_line();
        let writer = std::thread::spawn(move || -> io::Result<()> {
            let mut w = w;
            w.write_all(hello.as_bytes())?;
            w.write_all(b"\n")?;
            w.flush()?;
            // Drain until every sender hangs up (finish() drops the tx
            // after queueing the end frame).
            for line in rx {
                w.write_all(line.as_bytes())?;
                w.write_all(b"\n")?;
                w.flush()?;
            }
            w.flush()
        });
        StreamSink {
            tx: Some(tx),
            dropped: 0,
            writer: Some(writer),
        }
    }
}

impl EventSink for StreamSink {
    fn emit(&mut self, ev: &TraceEvent) {
        let Some(tx) = &self.tx else {
            return;
        };
        match tx.try_send(ev.to_json_line()) {
            Ok(()) => {}
            // Full queue (slow consumer) or dead writer (broken socket):
            // either way the engine must not stall — drop and count.
            Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                self.dropped += 1;
            }
        }
    }

    fn finish(&mut self) -> io::Result<()> {
        if let Some(tx) = self.tx.take() {
            let end = StreamFrame::End {
                dropped: self.dropped,
            }
            .to_json_line();
            // Blocking send: end-of-run is off the hot path and the
            // consumer deserves the final frame. A dead writer already
            // dropped the receiver, in which case this fails cleanly.
            let _ = tx.send(end);
        }
        match self.writer.take() {
            Some(h) => h
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("stream writer thread panicked"))),
            None => Ok(()),
        }
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Drop for StreamSink {
    fn drop(&mut self) {
        // finish() not called — a panic unwound the run. Still send the
        // end frame (best effort, never blocking) so the consumer can
        // tell "run crashed after N events" from "stream died mid-run":
        // `inspect live` must not report a lost stream for a crashed
        // run. Then close the queue so the writer thread exits.
        if let Some(tx) = self.tx.take() {
            let end = StreamFrame::End {
                dropped: self.dropped,
            }
            .to_json_line();
            let _ = tx.try_send(end);
        }
        if let Some(h) = self.writer.take() {
            let _ = h.join();
        }
    }
}

/// Records one run to N sinks at once.
///
/// A single [`SinkCore`] stamps each event exactly once and the result
/// is broadcast to every sink, so all destinations carry the same
/// bytes. With a [`FileSink`] attached this *is*
/// [`FileRecorder`](crate::FileRecorder) (which delegates here); adding
/// a [`StreamSink`] or [`MemSink`] cannot perturb the file output.
///
/// Zero sinks is legal and cheap, but callers wanting true zero cost
/// when tracing is off should keep using
/// [`NOOP`](crate::NOOP)/[`Recorder::enabled`].
pub struct FanoutRecorder {
    core: SinkCore,
    sinks: RefCell<Vec<Box<dyn EventSink>>>,
}

impl std::fmt::Debug for FanoutRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanoutRecorder")
            .field("core", &self.core)
            .field("sinks", &self.sinks.borrow().len())
            .finish()
    }
}

impl FanoutRecorder {
    /// An empty fan-out stamping events with the given clock.
    pub fn new(clock: Clock) -> FanoutRecorder {
        FanoutRecorder {
            core: SinkCore::new(clock),
            sinks: RefCell::new(Vec::new()),
        }
    }

    /// Attaches a sink. The trace meta event is delivered immediately,
    /// so every sink's stream starts identically no matter when it was
    /// attached (attach all sinks before recording anything else).
    pub fn add_sink(&mut self, mut sink: Box<dyn EventSink>) {
        sink.emit(&self.core.meta_event());
        self.sinks.get_mut().push(sink);
    }

    /// Builder-style [`FanoutRecorder::add_sink`].
    #[must_use]
    pub fn with_sink(mut self, sink: Box<dyn EventSink>) -> FanoutRecorder {
        self.add_sink(sink);
        self
    }

    /// Read-only access to the metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    fn broadcast(&self, ev: &TraceEvent) {
        for sink in self.sinks.borrow_mut().iter_mut() {
            sink.emit(ev);
        }
    }

    /// Emits the metrics snapshot and finalizes every sink.
    ///
    /// If any [`StreamSink`] dropped events, a `telemetry.stream.dropped`
    /// counter is materialized first so the drop is visible in the trace
    /// itself (drops of the snapshot lines themselves are only visible
    /// in the end frame).
    ///
    /// # Errors
    ///
    /// Returns the first error any sink reported; all sinks are
    /// finalized regardless.
    pub fn finish(self) -> io::Result<()> {
        let mut sinks = self.sinks.into_inner();
        let dropped: u64 = sinks.iter().map(|s| s.dropped()).sum();
        if dropped > 0 {
            self.core.metrics.counter_add(STREAM_DROPPED, dropped);
        }
        for ev in self.core.metrics.snapshot() {
            for sink in sinks.iter_mut() {
                sink.emit(&ev);
            }
        }
        let mut first_err = None;
        for sink in sinks.iter_mut() {
            if let Err(e) = sink.finish() {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Recorder for FanoutRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn span_open(&self, name: &str) -> SpanId {
        let (id, ev) = self.core.open(name);
        self.broadcast(&ev);
        id
    }

    fn span_close(&self, id: SpanId) {
        if let Some(ev) = self.core.close(id) {
            self.broadcast(&ev);
        }
    }

    fn event(&self, name: &str, fields: &[(&str, FieldValue)]) {
        let ev = self.core.point(name, fields);
        self.broadcast(&ev);
    }

    fn counter_add(&self, name: &str, delta: u64) {
        self.core.metrics.counter_add(name, delta);
    }

    fn gauge_max(&self, name: &str, v: i64) {
        self.core.metrics.gauge_max(name, v);
    }

    fn observe(&self, name: &str, v: u64) {
        self.core.metrics.observe(name, v);
    }

    fn observe_wall(&self, name: &str, d: Duration) {
        if !self.core.clock.is_deterministic() {
            self.core.metrics.observe(name, d.as_micros() as u64);
        }
    }

    fn tick(&self, delta: u64) {
        self.core.clock.advance(delta);
    }

    fn alloc_state_id(&self) -> u64 {
        self.core.alloc_state()
    }

    fn state(&self, ev: &LineageEvent<'_>) {
        let ev = self.core.state_event(ev);
        self.broadcast(&ev);
        // Keep tailing consumers current: the file half flushes so
        // `statsym-inspect watch` sees a growing trace mid-run.
        for sink in self.sinks.borrow_mut().iter_mut() {
            sink.flush_hint();
        }
    }

    fn query(&self, ev: &QueryEvent<'_>) {
        // No flush hint: queries are far too frequent for per-event
        // flushing; a tailing consumer catches up at the next lineage
        // event or at finish().
        let ev = self.core.query_event(ev);
        self.broadcast(&ev);
    }

    fn clock_mode(&self) -> ClockMode {
        self.core.clock.mode()
    }

    fn merge_buffer(&self, buf: &TraceBuffer, prefix: Option<&str>) {
        for ev in self.core.splice(buf, prefix) {
            self.broadcast(&ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{FileRecorder, SharedBuf};
    use std::sync::{Arc, Mutex};

    /// A `Write` that captures bytes behind an Arc so the writer thread
    /// can own it while the test reads the result after finish().
    #[derive(Clone, Default)]
    struct CapturedBytes(Arc<Mutex<Vec<u8>>>);

    impl CapturedBytes {
        fn contents(&self) -> Vec<u8> {
            self.0.lock().unwrap().clone()
        }
    }

    impl Write for CapturedBytes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn drive(rec: &dyn Recorder) {
        let run = rec.span_open("engine.run");
        rec.tick(10);
        rec.event("engine.outcome", &[("outcome", FieldValue::from("found"))]);
        let id = rec.alloc_state_id();
        rec.state(&LineageEvent {
            op: crate::lineage_op::ROOT,
            id,
            parent: 0,
            loc: "main:b0",
            hops: 0,
            depth: 0,
            steps: 0,
            snodes: 0,
            solver_us: 0,
        });
        rec.span_close(run);
        rec.counter_add("symex.steps", 10);
        rec.gauge_max("symex.peak_live_states", 3);
        rec.observe("lat", 7);
    }

    #[test]
    fn frames_render_and_parse_roundtrip() {
        let hello = StreamFrame::Hello {
            version: TRACE_VERSION,
            run: "ci \"quoted\"".into(),
        };
        let end = StreamFrame::End { dropped: 3 };
        assert_eq!(StreamFrame::parse(&hello.to_json_line()), Some(hello));
        assert_eq!(StreamFrame::parse(&end.to_json_line()), Some(end));
        // Ordinary trace lines are not frames.
        assert_eq!(
            StreamFrame::parse("{\"k\":\"meta\",\"clock\":\"steps\",\"version\":1}"),
            None
        );
        assert_eq!(StreamFrame::parse("not json"), None);
    }

    #[test]
    fn frame_lines_are_invisible_to_trace_parsers() {
        let hello = StreamFrame::Hello {
            version: 1,
            run: "r".into(),
        };
        assert!(TraceEvent::parse_line(&hello.to_json_line()).is_err());
        assert!(TraceEvent::parse_line(&StreamFrame::End { dropped: 0 }.to_json_line()).is_err());
    }

    #[test]
    fn fanout_file_sink_matches_file_recorder_bytes() {
        let solo = SharedBuf::new();
        let rec = FileRecorder::from_writer(Box::new(solo.clone()), Clock::steps());
        drive(&rec);
        rec.finish().unwrap();

        let (mem, handle) = MemSink::new();
        let fan_buf = SharedBuf::new();
        let fan = FanoutRecorder::new(Clock::steps())
            .with_sink(Box::new(FileSink::from_writer(Box::new(fan_buf.clone()))))
            .with_sink(Box::new(mem));
        drive(&fan);
        fan.finish().unwrap();

        assert_eq!(solo.contents(), fan_buf.contents());
        // The mem sink saw the same events the file did.
        let text = String::from_utf8(fan_buf.contents()).unwrap();
        assert_eq!(crate::event::parse_trace(&text).unwrap(), handle.events());
    }

    #[test]
    fn stream_sink_frames_and_strips_back_to_canonical_trace() {
        let solo = SharedBuf::new();
        let rec = FileRecorder::from_writer(Box::new(solo.clone()), Clock::steps());
        drive(&rec);
        rec.finish().unwrap();

        let wire = CapturedBytes::default();
        let fan = FanoutRecorder::new(Clock::steps()).with_sink(Box::new(StreamSink::from_writer(
            Box::new(wire.clone()),
            "unit",
        )));
        drive(&fan);
        fan.finish().unwrap();

        let text = String::from_utf8(wire.contents()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            StreamFrame::parse(lines[0]),
            Some(StreamFrame::Hello {
                version: TRACE_VERSION,
                run: "unit".into()
            })
        );
        assert_eq!(
            StreamFrame::parse(lines[lines.len() - 1]),
            Some(StreamFrame::End { dropped: 0 })
        );
        // Stripping the frames yields the FileRecorder trace exactly.
        let mut recorded = String::new();
        for line in &lines[1..lines.len() - 1] {
            assert!(StreamFrame::parse(line).is_none());
            recorded.push_str(line);
            recorded.push('\n');
        }
        assert_eq!(recorded.into_bytes(), solo.contents());
    }

    #[test]
    fn stream_sink_over_tcp_delivers_the_framed_stream() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let reader = std::thread::spawn(move || {
            let (sock, _) = listener.accept().unwrap();
            let mut text = String::new();
            let mut sock = sock;
            io::Read::read_to_string(&mut sock, &mut text).unwrap();
            text
        });

        let fan = FanoutRecorder::new(Clock::steps())
            .with_sink(Box::new(StreamSink::connect(&addr, "tcp-run").unwrap()));
        drive(&fan);
        fan.finish().unwrap();

        let text = reader.join().unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(matches!(
            StreamFrame::parse(lines[0]),
            Some(StreamFrame::Hello { run, .. }) if run == "tcp-run"
        ));
        assert_eq!(
            StreamFrame::parse(lines[lines.len() - 1]),
            Some(StreamFrame::End { dropped: 0 })
        );
        for line in &lines[1..lines.len() - 1] {
            TraceEvent::parse_line(line).unwrap();
        }
    }

    #[test]
    fn dropped_stream_sink_still_delivers_the_end_frame() {
        // A panic unwinding the run drops the sink without finish();
        // the consumer must still receive a terminal end frame so
        // `inspect live` reports a crashed run, not a lost stream.
        let wire = CapturedBytes::default();
        {
            let mut sink = StreamSink::from_writer(Box::new(wire.clone()), "crashed");
            sink.emit(&TraceEvent::Counter {
                name: "symex.steps".into(),
                value: 7,
            });
            // No finish(): scope end drops the sink mid-run.
        }
        let text = String::from_utf8(wire.contents()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(matches!(
            StreamFrame::parse(lines[0]),
            Some(StreamFrame::Hello { run, .. }) if run == "crashed"
        ));
        assert_eq!(
            StreamFrame::parse(lines[lines.len() - 1]),
            Some(StreamFrame::End { dropped: 0 })
        );
    }

    #[test]
    fn full_queue_drops_lines_counts_them_and_never_blocks() {
        /// A writer whose first write parks until allowed, simulating a
        /// stalled consumer.
        struct Stalled(Arc<Mutex<()>>);
        impl Write for Stalled {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let _g = self.0.lock().unwrap();
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let gate = Arc::new(Mutex::new(()));
        let held = gate.lock().unwrap();
        let mut sink = StreamSink::from_writer(Box::new(Stalled(gate.clone())), "stall");
        // Writer thread blocks inside the hello write; fill the queue
        // past capacity. emit() must return instantly every time.
        let ev = TraceEvent::Counter {
            name: "c".into(),
            value: 1,
        };
        for _ in 0..(STREAM_QUEUE_CAPACITY + 100) {
            sink.emit(&ev);
        }
        assert!(sink.dropped() >= 100);
        drop(held);
        sink.finish().unwrap();
    }

    #[test]
    fn fanout_materializes_drop_counter_only_when_drops_happened() {
        struct NullSink {
            drops: u64,
        }
        impl EventSink for NullSink {
            fn emit(&mut self, _ev: &TraceEvent) {}
            fn dropped(&self) -> u64 {
                self.drops
            }
        }

        let (mem, handle) = MemSink::new();
        let fan = FanoutRecorder::new(Clock::steps())
            .with_sink(Box::new(mem))
            .with_sink(Box::new(NullSink { drops: 0 }));
        fan.counter_add("x", 1);
        fan.finish().unwrap();
        assert!(!handle
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::Counter { name, .. } if name == STREAM_DROPPED)));

        let (mem, handle) = MemSink::new();
        let fan = FanoutRecorder::new(Clock::steps())
            .with_sink(Box::new(mem))
            .with_sink(Box::new(NullSink { drops: 7 }));
        fan.finish().unwrap();
        assert!(handle.events().iter().any(
            |e| matches!(e, TraceEvent::Counter { name, value: 7 } if name == STREAM_DROPPED)
        ));
    }

    #[test]
    fn file_sink_latches_first_error_until_finish() {
        struct FailingWriter;
        impl Write for FailingWriter {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let fan = FanoutRecorder::new(Clock::steps())
            .with_sink(Box::new(FileSink::from_writer(Box::new(FailingWriter))));
        // The state event's flush hint pushes buffered bytes into the
        // failing writer mid-run; the error must surface at finish().
        let id = fan.alloc_state_id();
        fan.state(&LineageEvent {
            op: crate::lineage_op::ROOT,
            id,
            parent: 0,
            loc: "main:b0",
            hops: 0,
            depth: 0,
            steps: 0,
            snodes: 0,
            solver_us: 0,
        });
        let err = fan.finish().unwrap_err();
        assert_eq!(err.to_string(), "disk full");
    }
}
