//! Portfolio scaling bench: sequential vs parallel candidate-path
//! execution on a late-ranked-hit workload, emitting
//! `BENCH_portfolio.json`.
//!
//! The workload prepends `DECOYS` hopeless candidates ahead of the real
//! ranking: each injects the *inverted* length separator at the fault
//! function's entry (`len(buffer) < σ` instead of `> σ`), confining
//! exploration to the sub-threshold input space. That space is
//! exponentially large (every char forks the toupper branch), the
//! faulting branch is suspended on the soft-constraint conflict, and the
//! attempt deterministically exhausts its step budget without finding.
//! The sequential loop must burn through every decoy before reaching
//! the winner; the portfolio runs them concurrently, shares solver
//! verdicts across workers, and returns the identical result.
//!
//! The sweep has two columns. `parallel` runs the default
//! configuration at 2, 4 and 8 workers. `sliced` runs at 1, 2, 4 and 8
//! workers with constraint-independence slicing (`SolverConfig::slice`)
//! and a shared unsat cache (`StatSymConfig::share_unsat_cache`) on top,
//! and reports their `solver.indep.*` / `solver.ucache.*` counters next
//! to the executor-vs-solver wall split. Sliced runs are never traced,
//! so the exported trace is the same as without them. A `machine` stamp
//! (nproc, CPU model, `rustc -V`, git revision) heads the report.
//!
//! Pass `--out <path>` to redirect the JSON report (default
//! `BENCH_portfolio.json` in the current directory), `--decoys <n>` to
//! shrink or grow the workload, and the shared trace flags (`--trace
//! <path>`, `--clock steps|wall`, `--workers <n>`, `--lineage`,
//! `--attr`, `--no-share-cache`) to export a JSONL trace — with
//! `--workers` both columns collapse to that single count, which is how
//! CI runs a small traced portfolio workload.

use bench::{statsym_config, TraceSink, PAPER_SEED};
use benchapps::{generate_corpus, CorpusSpec};
use concrete::Measure;
use solver::SolverConfig;
use statsym_core::pipeline::{CandidateAttempt, StatSym, StatSymConfig};
use statsym_core::portfolio::run_portfolio;
use statsym_core::{AnalysisReport, CandidatePath, GuidanceConfig, PathNode, PredOp};
use statsym_telemetry::{push_json_str, NOOP};
use std::process::{Command, Stdio};
use std::time::Instant;
use symex::{EngineConfig, EngineStats};

/// Hopeless candidates ranked ahead of the real ones.
const DECOYS: usize = 6;
/// Per-candidate step budget: decoys exhaust it, the winner does not.
const MAX_STEPS: u64 = 60_000;
/// Worker counts benchmarked against the sequential loop.
const WORKER_COUNTS: [usize; 3] = [2, 4, 8];
/// Worker counts of the sliced column (1 is the sequential loop).
const SLICED_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn config(workers: usize, sink: &TraceSink) -> StatSymConfig {
    let base = statsym_config();
    StatSymConfig {
        workers,
        share_cache: sink.share_cache(),
        engine: EngineConfig {
            max_steps: MAX_STEPS,
            lineage: sink.lineage(),
            attribution: sink.attr(),
            provenance: sink.attr(),
            panic_after: sink.panic_after(),
            ..base.engine
        },
        // The pinned pre-fault prefix (pattern matching over concrete
        // lines) emits many function events; a large τ keeps decoy
        // states alive until they reach the poisoned fault region.
        guidance: GuidanceConfig {
            tau: 1_000_000,
            ..base.guidance
        },
        ..base
    }
}

/// [`config`] plus constraint-independence slicing, a shared unsat
/// cache, and solver-side query timing for the executor/solver split.
fn sliced_config(workers: usize, sink: &TraceSink) -> StatSymConfig {
    let base = config(workers, sink);
    StatSymConfig {
        share_unsat_cache: true,
        engine: EngineConfig {
            solver: SolverConfig {
                slice: true,
                time_queries: true,
                ..base.engine.solver
            },
            ..base.engine
        },
        ..base
    }
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

/// The machine the numbers were measured on, as one JSON object:
/// nproc, CPU model, `rustc -V`, git revision.
fn machine_stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        });
    let text = |v: Option<String>| {
        let mut out = String::new();
        push_json_str(&mut out, v.as_deref().unwrap_or("unknown"));
        out
    };
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": {}, \"rustc\": {}, \"git_rev\": {}}}",
        text(cpu),
        text(command_line("rustc", &["-V"])),
        text(Some(statsym_telemetry::manifest::git_rev())),
    )
}

/// One sliced-column point: wall time, the executor/solver split, and
/// the slicing and unsat-cache counters, all summed over the attempts.
/// Each attempt's executor self time is its own wall time minus its
/// own solver time (measured inside the solver), so with more than one
/// worker the two shares add up to the busy time, not the wall time.
fn sliced_row(workers: usize, wall: f64, seq_wall: f64, attempts: &[CandidateAttempt]) -> String {
    let sum =
        |get: fn(&EngineStats) -> u64| -> u64 { attempts.iter().map(|a| get(&a.stats)).sum() };
    let solver_us = sum(|s| s.solver.query_us);
    let executor_us: u64 = attempts
        .iter()
        .map(|a| (a.wall_time.as_micros() as u64).saturating_sub(a.stats.solver.query_us))
        .sum();
    format!(
        "    {{\"workers\": {workers}, \"wall_s\": {wall:.4}, \"speedup\": {:.3}, \
         \"executor_us\": {executor_us}, \"solver_us\": {solver_us}, \
         \"indep_queries\": {}, \"indep_components\": {}, \"indep_comp_hits\": {}, \
         \"ucache_sub_hits\": {}, \"ucache_sup_hits\": {}, \"ucache_stores\": {}}}",
        seq_wall / wall,
        sum(|s| s.solver.indep_queries),
        sum(|s| s.solver.indep_components),
        sum(|s| s.solver.indep_comp_hits),
        sum(|s| s.solver.ucache_sub_hits),
        sum(|s| s.solver.ucache_sup_hits),
        sum(|s| s.solver.ucache_stores),
    )
}

/// A candidate whose single node inverts the analysis' top length
/// separator at the fault function's entry: the injected soft constraint
/// `len(buffer) < σ` suspends the faulting branch and steers the whole
/// attempt into the exponential sub-threshold subspace, which cannot be
/// drained within the step budget.
fn decoy(analysis: &AnalysisReport) -> CandidatePath {
    let failure = analysis
        .failure_location
        .clone()
        .expect("analysis pinpoints the failure");
    let template = analysis
        .predicates
        .ranked
        .iter()
        .find(|p| !p.is_degenerate() && p.loc == failure && p.var.measure == Measure::Length)
        .expect("a length predicate at the failure point");
    let mut poison = template.clone();
    poison.op = PredOp::Lt;
    CandidatePath {
        nodes: vec![PathNode {
            loc: failure,
            predicates: vec![poison],
        }],
        score: 9.0,
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut sink = TraceSink::extract(&mut args);
    let mut out = String::from("BENCH_portfolio.json");
    let mut decoys = DECOYS;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(p) => out = p.clone(),
                None => {
                    eprintln!("error: --out requires a file path");
                    std::process::exit(2);
                }
            },
            "--decoys" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) => decoys = n,
                _ => {
                    eprintln!("error: --decoys requires a non-negative integer");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("error: unknown argument `{other}`");
                eprintln!(
                    "usage: [--out <path>] [--decoys <n>] \
                     [--trace <path>] [--clock steps|wall] [--workers <n>] [--lineage] \
                     [--attr] [--no-share-cache] [--history <dir>] \
                     [--crash-dir <dir>] [--panic-after <steps>]"
                );
                std::process::exit(2);
            }
        }
    }
    // An explicit --workers collapses the sweep to that single count —
    // the shape CI uses for its small traced workload.
    let (worker_counts, sliced_counts): (Vec<usize>, Vec<usize>) = match sink.explicit_workers() {
        Some(w) => (vec![w], vec![w]),
        None => (WORKER_COUNTS.to_vec(), SLICED_COUNTS.to_vec()),
    };
    // Manifest/crash-bundle identity: fingerprint the sequential-shape
    // config — scheduling canonicalization makes the worker count moot.
    let fingerprint_cfg = config(1, &sink);
    sink.set_manifest_meta(
        PAPER_SEED,
        &statsym_core::pipeline::config_fingerprint(&fingerprint_cfg),
        &format!("{fingerprint_cfg:#?}"),
    );
    let sink = sink;
    let rec = sink.recorder();

    let app = benchapps::grep();
    let logs = generate_corpus(
        &app,
        CorpusSpec {
            n_correct: 100,
            n_faulty: 100,
            sampling_rate: 1.0,
            seed: PAPER_SEED,
        },
    );
    let mut analysis = StatSym::new(config(1, &sink)).analyze(&logs);
    let d = decoy(&analysis);
    let paths = &mut analysis.candidates.as_mut().expect("candidates").paths;
    for _ in 0..decoys {
        paths.insert(0, d.clone());
    }
    let n_candidates = paths.len();

    // Sequential baseline through the pipeline's workers == 1 loop.
    let seq_start = Instant::now();
    let seq = StatSym::new(config(1, &sink)).run_with_analysis_pinned_traced(
        &app.module,
        analysis.clone(),
        &app.pins,
        rec,
    );
    let seq_wall = seq_start.elapsed().as_secs_f64();
    assert_eq!(
        seq.candidate_used,
        Some(decoys),
        "the first real candidate must win"
    );

    println!(
        "portfolio scaling bench: {} ({n_candidates} candidates, {decoys} decoys)",
        app.name
    );
    println!("  sequential: {seq_wall:.3}s, winner rank {}", decoys);

    let mut rows = Vec::new();
    for workers in worker_counts {
        let cfg = config(workers, &sink);
        let paths = &analysis.candidates.as_ref().expect("candidates").paths;
        let start = Instant::now();
        let outcome = run_portfolio(&app.module, paths, &cfg, &app.pins, rec);
        let wall = start.elapsed().as_secs_f64();
        assert_eq!(
            outcome.candidate_used,
            Some(decoys),
            "portfolio must select the same winner"
        );
        let cache = outcome.cache;
        let consults = cache.hits + cache.misses;
        let hit_rate = if consults == 0 {
            0.0
        } else {
            cache.hits as f64 / consults as f64
        };
        let speedup = seq_wall / wall;
        println!(
            "  workers {workers}: {wall:.3}s, speedup {speedup:.2}x, \
             shared cache {}/{consults} hits ({:.1}%)",
            cache.hits,
            100.0 * hit_rate
        );
        rows.push(format!(
            "    {{\"workers\": {workers}, \"wall_s\": {wall:.4}, \"speedup\": {speedup:.3}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \"cache_stores\": {}, \
             \"cache_entries\": {}, \"cache_contention\": {}, \"hit_rate\": {hit_rate:.4}}}",
            cache.hits, cache.misses, cache.stores, cache.entries, cache.contention
        ));
    }

    // Sliced column: untraced, so the exported trace does not change.
    let mut sliced_rows = Vec::new();
    for workers in sliced_counts {
        let start = Instant::now();
        let r = StatSym::new(sliced_config(workers, &sink)).run_with_analysis_pinned_traced(
            &app.module,
            analysis.clone(),
            &app.pins,
            &NOOP,
        );
        let wall = start.elapsed().as_secs_f64();
        assert_eq!(
            r.candidate_used,
            Some(decoys),
            "sliced workers={workers}: same winner required"
        );
        let row = sliced_row(workers, wall, seq_wall, &r.attempts);
        println!(
            "  sliced workers {workers}: {wall:.3}s, speedup {:.2}x",
            seq_wall / wall
        );
        sliced_rows.push(row);
    }

    let json = format!(
        "{{\n  \"machine\": {},\n  \"app\": \"{}\",\n  \"seed\": {PAPER_SEED},\n  \
         \"decoys\": {decoys},\n  \"candidates\": {n_candidates},\n  \
         \"max_steps\": {MAX_STEPS},\n  \"winner_rank\": {decoys},\n  \
         \"sequential_wall_s\": {seq_wall:.4},\n  \"parallel\": [\n{}\n  ],\n  \
         \"sliced\": [\n{}\n  ]\n}}\n",
        machine_stamp(),
        app.name,
        rows.join(",\n"),
        sliced_rows.join(",\n"),
    );
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("report written to {out}");
    sink.finish();
}
