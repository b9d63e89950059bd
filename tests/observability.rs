//! Fleet-observability contracts (DESIGN.md §17): the run-history
//! manifest must be byte-identical no matter how the run was scheduled,
//! and a crashing engine must still leave a usable diagnostic trail —
//! a complete crash bundle on disk and a well-formed terminal `end`
//! frame on any attached telemetry stream.

use statsym::concrete::{ExecutionLog, InputValue, VmConfig};
use statsym::core::pipeline::{config_fingerprint, StatSym, StatSymConfig};
use statsym::sir::Module;
use statsym::telemetry::crash::{CrashContext, CrashGuard};
use statsym::telemetry::manifest::{ManifestMeta, RunManifest};
use statsym::telemetry::{Clock, MemRecorder, StreamFrame, NOOP};
use std::sync::{Arc, Mutex};

/// Thread-safe byte sink standing in for a live `--stream` socket.
#[derive(Clone, Default)]
struct SyncBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SyncBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

const SRC: &str = r#"
    global track: int = 0;
    fn helper_a(x: int) -> int { track = track + 1; return x + 1; }
    fn helper_b(x: int) -> int { track = track + 2; return x * 2; }
    fn convert(s: str) {
        let b: buf[6];
        let i: int = 0;
        while (char_at(s, i) != 0) {
            buf_set(b, i, char_at(s, i));
            i = i + 1;
        }
    }
    fn main() {
        let m: int = input_int("mode");
        let s: str = input_str("name", 12);
        if (m > 0) { print(helper_a(m)); } else { print(helper_b(m)); }
        convert(s);
    }
"#;

fn module() -> Module {
    statsym::sir::lower(&statsym::minic::parse_program(SRC).unwrap()).unwrap()
}

fn corpus(module: &Module) -> Vec<ExecutionLog> {
    let mut logs = Vec::new();
    for len in [0usize, 2, 4, 6, 7, 9, 11, 12] {
        let name: Vec<u8> = std::iter::repeat_n(b'a', len).collect();
        let inputs = [
            ("mode".to_string(), InputValue::Int(len as i64 - 5)),
            ("name".to_string(), InputValue::Str(name)),
        ]
        .into_iter()
        .collect();
        let run = statsym::concrete::run_logged_traced(
            module,
            &inputs,
            1.0,
            0,
            VmConfig::default(),
            &NOOP,
        )
        .unwrap();
        logs.push(run.log);
    }
    logs
}

/// Deterministic config: no cancellation races, no shared solver cache,
/// so worker buffers are scheduling-independent.
fn config(workers: usize) -> StatSymConfig {
    StatSymConfig {
        workers,
        cancel_on_found: false,
        share_cache: false,
        ..StatSymConfig::default()
    }
}

fn meta(cfg: &StatSymConfig) -> ManifestMeta {
    ManifestMeta {
        source: "test".to_string(),
        run: "observability".to_string(),
        git: "deadbeef0000".to_string(),
        seed: 7,
        config: config_fingerprint(cfg),
    }
}

/// The tentpole identity contract: the manifest a run folds down to is
/// a property of the *workload*, not of how it was scheduled. Every
/// portfolio worker count must render the same bytes — config
/// fingerprint included, because the fingerprint canonicalizes
/// scheduling knobs away.
#[test]
fn manifests_are_byte_identical_across_worker_counts() {
    let m = module();
    let logs = corpus(&m);
    let analysis = StatSym::new(config(1)).analyze(&logs);

    let manifest_for = |workers: usize| {
        let cfg = config(workers);
        let meta = meta(&cfg);
        let rec = MemRecorder::new(Clock::steps());
        let _ = StatSym::new(cfg).run_with_analysis_traced(&m, analysis.clone(), &rec);
        RunManifest::from_events(&rec.finish(), &meta).render()
    };

    let baseline = manifest_for(1);
    assert!(
        baseline.contains("\"kind\":\"statsym.manifest\""),
        "manifest must carry its kind tag: {baseline}"
    );
    for workers in [2usize, 4] {
        let got = manifest_for(workers);
        assert_eq!(
            baseline, got,
            "manifest must be byte-identical at workers={workers}"
        );
    }
    // Rendering is itself deterministic: same run, same bytes.
    assert_eq!(baseline, manifest_for(1));
}

/// A forced engine panic (the `--panic-after` chaos knob) must leave
/// the full diagnostic trail: the panic hook writes a complete crash
/// bundle (panic text, config, reproduce line, partial trace, crashed
/// manifest), and dropping the streaming recorder during unwind still
/// emits a parseable terminal `end` frame after the `hello`.
#[test]
fn engine_panic_yields_crash_bundle_and_stream_end_frame() {
    let m = module();
    let logs = corpus(&m);
    let analysis = StatSym::new(config(1)).analyze(&logs);

    let dir = std::env::temp_dir().join(format!("statsym-obs-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let crash_dir = dir.join("crash");
    let trace_path = dir.join("partial.jsonl");
    std::fs::create_dir_all(&dir).unwrap();

    let mut cfg = config(1);
    cfg.engine.panic_after = Some(40);
    let guard = CrashGuard::install(CrashContext {
        dir: crash_dir.to_string_lossy().into_owned(),
        run: "obs-drill".to_string(),
        reproduce: "statsym-portfolio --workers 1 --panic-after 40".to_string(),
        config: format!("{cfg:#?}"),
        trace_path: Some(trace_path.to_string_lossy().into_owned()),
        meta: ManifestMeta {
            run: "obs-drill".to_string(),
            ..meta(&cfg)
        },
    });

    // Stream the run into a shared buffer, as `--stream` would into a
    // live socket; the trace file doubles as the bundle's partial trace.
    let buf = SyncBuf::default();
    let stream = statsym::telemetry::StreamSink::from_writer(Box::new(buf.clone()), "obs-drill");
    let file = statsym::telemetry::FileSink::create(&trace_path).unwrap();
    let mut rec = statsym::telemetry::FanoutRecorder::new(Clock::steps());
    rec.add_sink(Box::new(file));
    rec.add_sink(Box::new(stream));

    let analysis2 = analysis.clone();
    let module2 = module();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = StatSym::new(cfg).run_with_analysis_traced(&module2, analysis2, &rec);
    }));
    assert!(outcome.is_err(), "panic_after=40 must actually panic");
    guard.disarm();
    drop(rec); // unwound recorder: flush sinks, emit the end frame

    // The bundle is complete: every required member is on disk and the
    // manifest records the crashed disposition.
    let bundle = crash_dir.join("obs-drill");
    for member in [
        "panic.txt",
        "config.txt",
        "reproduce.txt",
        "trace.partial.jsonl",
    ] {
        assert!(
            bundle.join(member).is_file(),
            "crash bundle must contain {member}"
        );
    }
    let manifest_line = std::fs::read_to_string(bundle.join("manifest.jsonl")).unwrap();
    let parsed = RunManifest::parse_line(manifest_line.trim(), 1).unwrap();
    assert_eq!(parsed.budget, "crashed");
    assert_eq!(parsed.run, "obs-drill");
    let panic_txt = std::fs::read_to_string(bundle.join("panic.txt")).unwrap();
    assert!(
        panic_txt.contains("forced engine panic"),
        "panic.txt must carry the payload: {panic_txt}"
    );

    // The stream is properly framed: hello first, end last, events (if
    // any survived the cut) in between — a `live` listener sees a clean
    // shutdown, not a dangling connection.
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 2, "stream must carry hello + end: {text}");
    assert!(
        matches!(StreamFrame::parse(lines[0]), Some(StreamFrame::Hello { ref run, .. }) if run == "obs-drill"),
        "first frame must be hello: {}",
        lines[0]
    );
    assert!(
        matches!(
            StreamFrame::parse(lines[lines.len() - 1]),
            Some(StreamFrame::End { .. })
        ),
        "last frame must be end: {}",
        lines[lines.len() - 1]
    );

    let _ = std::fs::remove_dir_all(&dir);
}
