//! Trace analytics for StatSym JSONL traces (`statsym-inspect`).
//!
//! Views over a recorded run:
//!
//! * [`report`](mod@crate) — the Table II/III-style run report
//!   ([`statsym_telemetry::TraceSummary::render`]).
//! * [`diff`] — per-phase / per-counter deltas between two traces (or
//!   two numeric JSON reports such as `BENCH_portfolio.json`), with a
//!   configurable regression threshold. The CI perf gate.
//! * [`critical`] — which candidate attempt bounded the wall time of a
//!   portfolio run, and how much of the total work was wasted on
//!   attempts that did not produce the winning path.
//! * [`top`] — the solver hot-spot profile from the per-callsite
//!   `solver.site.*` counters and query-latency histograms.
//! * [`hotspots`] — the per-source-line cost table from `attr.*`
//!   attribution counters (`--attribution` traces), with flame-
//!   compatible and cmp-gateable JSON output.
//! * [`explain`] — one ranked candidate end to end: why it was ranked,
//!   what its attempt cost, and (with `--provenance`) where its solver
//!   queries went and where it died or won.
//! * [`calib`] — the predicted-vs-actual ranking-calibration table from
//!   `calib.candidate` records, with a `--min-corr` CI gate on the
//!   rank-vs-cost correlation.
//!
//! Over `--lineage` traces ([`forest`] rebuilds the exploration tree
//! from the `state` event stream):
//!
//! * [`tree`] — the exploration forest with suspend-cause annotations
//!   and per-subtree work rollups.
//! * [`coverage`] — candidate-path node coverage maps (reached /
//!   predicate-conjoined / conflicted / never-reached per rank), with a
//!   `--min` CI gate.
//! * [`flame`] — collapsed-stack flamegraph export of solver effort
//!   keyed by fork lineage.
//! * [`watch`] — a live dashboard that tails a growing trace file.
//! * [`live`] — the same dashboard fed by `--stream` telemetry sockets
//!   (any number of concurrent runs), with `--record` teeing each
//!   stream back to a byte-identical trace file.
//!
//! Over the persistent run-history archive
//! ([`statsym_telemetry::manifest`]):
//!
//! * [`history`] — list/filter the archive, and `history add` for
//!   appending records without running a workload (the CI synthetic-
//!   regression injector).
//! * [`trend`] — windowed median/MAD drift analysis of the last run vs
//!   its predecessors, with a `--gate` CI exit code; `regress` isolates
//!   the first archive run that broke a metric.
//!
//! Traces are loaded with the *strict* parser: unbalanced or duplicate
//! spans are rejected with line-numbered errors rather than silently
//! skewing the analytics. `watch` (and `report --allow-truncated`) use
//! the truncation-tolerant variant, which additionally accepts exactly
//! one half-written trailing line.

pub mod calib;
pub mod coverage;
pub mod critical;
pub mod diff;
pub mod explain;
pub mod flame;
pub mod forest;
pub mod history;
pub mod hotspots;
pub mod live;
pub mod numjson;
pub mod tail;
pub mod top;
pub mod tree;
pub mod trend;
pub mod watch;

use statsym_telemetry::{parse_trace_strict, parse_trace_truncated, TraceEvent, TraceSummary};

/// Reads and strictly parses a JSONL trace, prefixing errors with the
/// file path (`path:line: reason`).
///
/// # Errors
///
/// Returns a rendered error for unreadable files and for malformed or
/// structurally invalid (unbalanced / duplicate-span) traces.
pub fn load_trace(path: &str) -> Result<Vec<TraceEvent>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read trace: {e}"))?;
    parse_trace_strict(&text).map_err(|e| format!("{path}:{}: {}", e.line, e.reason))
}

/// [`load_trace`] with the truncation-tolerant parser: accepts exactly
/// one half-written trailing line (and spans/states still open), as a
/// live or crash-cut trace has. Returns the events and whether a
/// partial tail line was dropped.
///
/// # Errors
///
/// Returns a rendered error for unreadable files and for interior
/// corruption.
pub fn load_trace_truncated(path: &str) -> Result<(Vec<TraceEvent>, bool), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read trace: {e}"))?;
    parse_trace_truncated(&text).map_err(|e| format!("{path}:{}: {}", e.line, e.reason))
}

/// Renders the run report for the trace at `path`. `allow_truncated`
/// switches to the tolerant parser (the `--allow-truncated` flag), for
/// reporting on traces cut short by a crash or still being written.
///
/// # Errors
///
/// Propagates [`load_trace`] / [`load_trace_truncated`] failures.
pub fn report(path: &str, allow_truncated: bool) -> Result<String, String> {
    let events = if allow_truncated {
        load_trace_truncated(path)?.0
    } else {
        load_trace(path)?
    };
    Ok(TraceSummary::from_events(&events).render())
}

/// The machine-readable run report: one JSON object with stable key
/// order ([`statsym_telemetry::TraceSummary::render_json`]), newline
/// terminated. Same parser contract as [`report`].
///
/// # Errors
///
/// Propagates [`load_trace`] / [`load_trace_truncated`] failures.
pub fn report_json(path: &str, allow_truncated: bool) -> Result<String, String> {
    let events = if allow_truncated {
        load_trace_truncated(path)?.0
    } else {
        load_trace(path)?
    };
    let mut out = TraceSummary::from_events(&events).render_json();
    out.push('\n');
    Ok(out)
}
