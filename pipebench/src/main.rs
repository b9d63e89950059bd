//! Whole-pipeline StatSym benchmark.
//!
//! Runs the pipeline as a user runs it — compile the app, collect
//! sampled logs with the monitor, run the statistical analysis, run
//! guided symbolic execution to a verified fault — on one workload, as
//! a closed loop: a single process runs the cases back to back, one at
//! a time. Each case is set up just before its verdict and dropped after
//! it, so one case's logs are in memory at a time. Every verdict is
//! checked against a hand-written known answer and its witness is
//! replayed on the concrete VM.
//!
//! ```text
//! cargo run --release --manifest-path pipebench/Cargo.toml -- \
//!     --workload <triage|dense-logs|late-hit> --seed <n> [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics (`verdict_s`, `setup_s`,
//! `correct_ratio`, `paths_explored`, `peak_rss_mb`) from untraced
//! passes; the two times are scaled to a reference host speed (see
//! `speed.rs`). `--trace 1` prints the per-layer metrics from a separate
//! traced run (see `layers.rs`). Standard output ends with a stamp line
//! (machine and run settings) and then the one-line JSON result.

mod answers;
mod cli;
mod layers;
mod report;
mod speed;
mod stamp;
mod stats;
mod workload;

use cli::{Args, USAGE};
use report::{result_line, Metric};
use speed::Speed;
use statsym_core::StatSymReport;
use std::time::{Duration, Instant};
use workload::{Case, Workload};

/// Fewest timed passes per run, however long a pass takes.
const MIN_PASSES: usize = 3;

/// What a run produced.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Run-length settings and summaries for the stamp, as JSON values.
    settings: Vec<(&'static str, String)>,
}

/// Known-answer bookkeeping across every verdict of a run.
#[derive(Default)]
pub(crate) struct Tally {
    /// Verdicts checked.
    pub(crate) attempted: u64,
    /// Verdicts that did not match the known answer.
    pub(crate) failed: u64,
}

impl Tally {
    /// Records one verdict check, printing any mismatch.
    pub(crate) fn record(&mut self, workload: Workload, case: &Case, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = result {
            self.failed += 1;
            eprintln!(
                "pipebench: MISMATCH {} {}: {msg}",
                workload.name(),
                case.app.name
            );
        }
    }
}

/// One pass over every case through the untraced product path (the
/// known-answer checks are untimed).
#[derive(Default)]
pub(crate) struct Pass {
    /// Seconds of set-up, summed over cases.
    pub(crate) setup_s: f64,
    /// The same, each case scaled to the reference speed.
    pub(crate) setup_scaled_s: f64,
    /// Seconds from prepared inputs to all verdicts, summed over cases.
    pub(crate) verdict_s: f64,
    /// The same, each case scaled to the reference speed.
    pub(crate) verdict_scaled_s: f64,
    /// Paths explored, summed over the attempts that count.
    pub(crate) paths: u64,
    /// Winning candidate per case.
    pub(crate) winners: Vec<Option<usize>>,
}

impl Pass {
    /// Folds in one case's verdict, which took `secs` (`scaled` at the
    /// reference speed), and checks it against the known answer;
    /// `verbose` prints a line for the case to standard error.
    pub(crate) fn add(
        &mut self,
        workload: Workload,
        case: &Case,
        report: &StatSymReport,
        (secs, scaled): (f64, f64),
        tally: &mut Tally,
        verbose: bool,
    ) {
        if verbose {
            eprintln!(
                "pipebench:   {} {secs:.4}s, {} paths, winner {:?}",
                case.app.name,
                report.total_paths_explored(),
                report.candidate_used,
            );
        }
        tally.record(workload, case, workload::check(workload, case, report));
        self.verdict_s += secs;
        self.verdict_scaled_s += scaled;
        self.paths += report.total_paths_explored();
        self.winners.push(report.candidate_used);
    }

    /// Errs unless this pass explored exactly what `first` did: path
    /// counts and winners are deterministic.
    pub(crate) fn repeats(&self, first: &Pass) -> Result<(), String> {
        if self.paths != first.paths || self.winners != first.winners {
            return Err(format!(
                "nondeterministic pass: {} paths / winners {:?}, first pass {} / {:?}",
                self.paths, self.winners, first.paths, first.winners
            ));
        }
        Ok(())
    }
}

/// One untraced pass. Each case is set up, run and checked, then
/// dropped; `speed` probes after the set-up and after the verdict, so
/// both are scaled to the reference speed.
fn untraced_pass(
    workload: Workload,
    seed: u64,
    tally: &mut Tally,
    speed: &mut Speed,
    verbose: bool,
) -> Result<Pass, String> {
    let mut pass = Pass::default();
    for index in 0..workload.apps().len() {
        let start = Instant::now();
        let case = workload::setup_case(workload, seed, index)?;
        let wall = start.elapsed().as_secs_f64();
        pass.setup_s += wall;
        pass.setup_scaled_s += speed.normalise(wall);
        let (report, secs) = workload::verdict(workload, &case);
        let scaled = speed.normalise(secs);
        pass.add(workload, &case, &report, (secs, scaled), tally, verbose);
    }
    Ok(pass)
}

/// Renders numbers as a JSON array.
fn json_array(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(f64::to_string).collect();
    format!("[{}]", items.join(", "))
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end_metrics(
    verdict_s: f64,
    setup_s: f64,
    correct_ratio: f64,
    paths_explored: u64,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    vec![
        Metric::new("verdict_s", verdict_s, "s"),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("correct_ratio", correct_ratio, "ratio"),
        Metric::new("paths_explored", paths_explored as f64, "count"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

/// `--trace 0`: untraced passes until the budget is spent (at least
/// [`MIN_PASSES`]). `verdict_s` and `setup_s` are the medians over the
/// passes of their times scaled to the reference speed.
fn end_to_end(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let mut tally = Tally::default();
    let mut speed = Speed::new();
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed() < budget {
        let pass = untraced_pass(w, args.seed, &mut tally, &mut speed, passes.is_empty())?;
        if let Some(first) = passes.first() {
            pass.repeats(first)?;
        }
        eprintln!(
            "pipebench: pass {}: set-up {:.4}s ({:.4}s scaled), verdict {:.4}s ({:.4}s scaled), {} paths",
            passes.len() + 1,
            pass.setup_s,
            pass.setup_scaled_s,
            pass.verdict_s,
            pass.verdict_scaled_s,
            pass.paths
        );
        passes.push(pass);
    }
    let column = |f: fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let verdicts = column(|p| p.verdict_scaled_s);
    let setups = column(|p| p.setup_scaled_s);
    let median = |v: &[f64]| stats::median(v).ok_or("no samples");
    let quartiles = |v: &[f64]| json_array(&stats::quartiles(v).unwrap_or_default());
    let correct_ratio = (tally.attempted - tally.failed) as f64 / tally.attempted as f64;
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: end_to_end_metrics(
            median(&verdicts)?,
            median(&setups)?,
            correct_ratio,
            passes[0].paths,
            peak_rss_mb()?,
        ),
        settings: vec![
            ("cases", w.apps().len().to_string()),
            ("passes", passes.len().to_string()),
            ("workers", w.workers().to_string()),
            ("reference_probe_s", speed::REFERENCE_PROBE_S.to_string()),
            ("verdict_s_quartiles", quartiles(&verdicts)),
            (
                "verdict_wall_s_quartiles",
                quartiles(&column(|p| p.verdict_s)),
            ),
            ("setup_s_quartiles", quartiles(&setups)),
            ("setup_wall_s_quartiles", quartiles(&column(|p| p.setup_s))),
            ("probe_s_quartiles", quartiles(speed.probes())),
        ],
    })
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = if args.trace {
        layers::per_layer(&args)
    } else {
        end_to_end(&args)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!(
                "pipebench: {} seed {}: {e}",
                args.workload.name(),
                args.seed
            );
            std::process::exit(1);
        }
    };
    let line = match result_line(
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        &outcome.metrics,
    ) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("pipebench: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", stamp::stamp_line(&args, &outcome.settings));
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The entries of list `section` in the repository's
    /// `BENCHMARK.json`, as `(name, unit)`; the unit is empty for
    /// entries without one.
    pub(crate) fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        let field = |entry: &str, key: &str| {
            let tag = format!("\"{key}\": \"");
            entry.find(&tag).map_or(String::new(), |at| {
                entry[at + tag.len()..]
                    .split('"')
                    .next()
                    .unwrap()
                    .to_string()
            })
        };
        body.split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    pub(crate) fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn declared_workloads_are_runnable() {
        let names = declared("workloads");
        assert!(names.len() >= 2);
        for (name, _) in names {
            assert!(Workload::parse(&name).is_some(), "{name}");
        }
    }

    #[test]
    fn end_to_end_metrics_match_the_declaration() {
        let metrics = end_to_end_metrics(1.0, 1.0, 1.0, 1, 1.0);
        assert_eq!(emitted(&metrics), declared("end_to_end"));
        assert!(metrics.iter().all(|m| report::valid_name(&m.name)));
    }
}
