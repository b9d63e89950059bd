//! End-to-end pipeline claims for the protocol-parser benchapps — the
//! heap-model fault families (off-by-one, alloc overflow, use-after-free,
//! format string) driven through the same statistics-guided pipeline as
//! the paper programs:
//!
//! 1. the pipeline localizes each parser's fault site (function + class);
//! 2. the winning candidate's rank is pinned per app (ranking
//!    calibration covers the new families);
//! 3. the merged telemetry trace is byte-identical across repeated runs
//!    at 1, 2, and 4 portfolio workers, and the found fault (inputs,
//!    kind, trace) is identical across worker counts.

use statsym::benchapps::{by_name, generate_corpus, BenchApp, CorpusSpec};
use statsym::concrete::FaultKind;
use statsym::core::pipeline::{StatSym, StatSymConfig, StatSymReport};
use statsym::core::AnalysisReport;
use statsym::sir::Module;
use statsym::telemetry::{Clock, FileRecorder, SharedBuf};

const SEED: u64 = 2017;

fn analysis_for(app: &BenchApp) -> AnalysisReport {
    let logs = generate_corpus(
        app,
        CorpusSpec {
            n_correct: 30,
            n_faulty: 30,
            sampling_rate: 0.3,
            seed: SEED,
        },
    );
    let analysis = StatSym::default().analyze(&logs);
    assert!(
        analysis.candidates.is_some(),
        "{}: no candidate paths",
        app.name
    );
    analysis
}

/// Deterministic portfolio config: no cancellation races, no shared
/// solver cache, so traces are scheduling-independent.
fn deterministic_config(workers: usize) -> StatSymConfig {
    StatSymConfig {
        workers,
        cancel_on_found: false,
        share_cache: false,
        ..StatSymConfig::default()
    }
}

fn traced_run(
    module: &Module,
    analysis: &AnalysisReport,
    config: StatSymConfig,
) -> (Vec<u8>, StatSymReport) {
    let buf = SharedBuf::new();
    let rec = FileRecorder::from_writer(Box::new(buf.clone()), Clock::steps());
    let report = StatSym::new(config).run_with_analysis_traced(module, analysis.clone(), &rec);
    rec.finish().unwrap();
    (buf.contents(), report)
}

fn class_matches(name: &str, kind: &FaultKind) -> bool {
    match name {
        "http_header" => matches!(kind, FaultKind::OffByOne { cap: 8 }),
        "http_chunked" => matches!(kind, FaultKind::AllocOverflow { .. }),
        "urldecode" => matches!(kind, FaultKind::UseAfterFree),
        "base64" => matches!(kind, FaultKind::FormatString { .. }),
        other => panic!("unknown app {other}"),
    }
}

/// (app, fault function, pinned winner rank at SEED).
const CASES: [(&str, &str, usize); 4] = [
    ("http_header", "store_value", 0),
    ("http_chunked", "read_chunk", 0),
    ("urldecode", "decode", 0),
    ("base64", "log_reject", 0),
];

#[test]
fn pipeline_localizes_every_parser_fault_with_pinned_winner_rank() {
    for (name, fault_func, winner_rank) in CASES {
        let app = by_name(name).unwrap();
        let analysis = analysis_for(&app);
        let report = StatSym::new(deterministic_config(1)).run_with_analysis(&app.module, analysis);
        let found = report
            .found
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: fault not found"));
        assert_eq!(found.fault.func, fault_func, "{name}");
        assert!(
            class_matches(name, &found.fault.kind),
            "{name}: {:?}",
            found.fault.kind
        );
        assert_eq!(
            report.candidate_used,
            Some(winner_rank),
            "{name}: winner rank"
        );
        // The found model replays concretely to the same fault.
        let vm = statsym::concrete::Vm::new(&app.module, statsym::concrete::VmConfig::default());
        let replay = vm.run(&found.inputs).unwrap();
        let rf = replay.outcome.fault().expect("replay faults");
        assert_eq!(rf.func, fault_func, "{name}: replay site");
        assert!(class_matches(name, &rf.kind), "{name}: replay class");
    }
}

#[test]
fn parser_traces_are_byte_identical_per_worker_count_and_agree_across() {
    for (name, fault_func, _) in CASES {
        let app = by_name(name).unwrap();
        let analysis = analysis_for(&app);
        let mut baseline: Option<StatSymReport> = None;
        for workers in [1usize, 2, 4] {
            let (a, ra) = traced_run(&app.module, &analysis, deterministic_config(workers));
            let (b, rb) = traced_run(&app.module, &analysis, deterministic_config(workers));
            assert!(!a.is_empty(), "{name}@{workers}: empty trace");
            assert_eq!(a, b, "{name}@{workers}: trace not byte-identical");
            assert_eq!(ra.candidate_used, rb.candidate_used);
            let fa = ra.found.as_ref().expect("found");
            assert_eq!(fa.fault.func, fault_func, "{name}@{workers}");
            match &baseline {
                None => baseline = Some(ra),
                Some(base) => {
                    let bf = base.found.as_ref().unwrap();
                    assert_eq!(ra.candidate_used, base.candidate_used, "{name}@{workers}");
                    assert_eq!(fa.inputs, bf.inputs, "{name}@{workers}: inputs");
                    assert_eq!(fa.fault, bf.fault, "{name}@{workers}: fault");
                    assert_eq!(fa.trace, bf.trace, "{name}@{workers}: call trace");
                }
            }
        }
    }
}
