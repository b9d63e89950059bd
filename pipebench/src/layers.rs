//! The traced run behind `--trace 1`: per-layer self times and counts.
//!
//! Nothing here adds spans inside the program. Each layer's public
//! function is called from this file and timed around the call:
//!
//! * compile — `minic::parse_program`, then `sir::lower` + `sir::verify`;
//! * monitor — `benchapps::generate_corpus`;
//! * analysis — `LogCorpus::build`, `PredicateSet::build`,
//!   `TransitionGraph::mine`, `Skeleton::build` (with the product's
//!   fallback to the full corpus), `find_detours`, `CandidateSet::build`;
//! * guided symbolic execution — `run_with_analysis_pinned_traced` with
//!   `SolverConfig::time_queries` on and an in-memory recorder, whose
//!   `solver.site.*` counters split the solver by call site. Each
//!   attempt's executor self time is its own wall time minus its own
//!   solver time, so parallel workers never cancel each other out.
//!
//! The rebuilt analysis must equal `StatSym::analyze`, and the traced
//! verdicts must equal the untraced product run's. On single-worker
//! workloads the layer self times plus `glue_s` reconcile to the pass
//! wall; on `late-hit` the busy time summed over workers must fit in
//! workers × wall.
//!
//! Times here are wall times, not scaled to the reference speed as the
//! end-to-end times are: the layers of one pass share its conditions.

use crate::cli::Args;
use crate::report::Metric;
use crate::workload::{self, app_with_answer, corpus_spec, Case, Workload};
use crate::{stats, Outcome, Pass, Tally};
use benchapps::generate_corpus;
use concrete::ExecutionLog;
use statsym_core::candidate::CandidateSet;
use statsym_core::detour::find_detours;
use statsym_core::pipeline::{CandidateAttempt, StatSym, StatSymConfig, StatSymReport};
use statsym_core::{AnalysisReport, LogCorpus, PredicateSet, Skeleton, TransitionGraph};
use statsym_telemetry::{names::SOLVER_SITE_PREFIX, Clock, MemRecorder};
use std::time::{Duration, Instant};

/// Largest share of a single-worker pass left to glue: the timed layers
/// must account for the rest.
pub(crate) const MAX_GLUE_SHARE: f64 = 0.1;

/// Solver call sites, as tagged by the executor and engine.
pub(crate) const SOLVER_SITES: [&str; 4] =
    ["feasibility", "concretize", "fault_model", "report_model"];

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Self times and counts of the analysis layers for one or more cases.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AnalysisLayers {
    pub(crate) preprocess_s: f64,
    pub(crate) predicate_s: f64,
    pub(crate) mine_s: f64,
    pub(crate) skeleton_s: f64,
    pub(crate) detour_s: f64,
    pub(crate) candidate_s: f64,
    pub(crate) observations: usize,
    pub(crate) predicates: usize,
    pub(crate) graph_edges: usize,
    pub(crate) detours: usize,
    pub(crate) candidates: usize,
}

impl AnalysisLayers {
    /// Sum of the layer self times.
    pub(crate) fn self_s(&self) -> f64 {
        self.preprocess_s
            + self.predicate_s
            + self.mine_s
            + self.skeleton_s
            + self.detour_s
            + self.candidate_s
    }

    fn add(&mut self, o: &AnalysisLayers) {
        self.preprocess_s += o.preprocess_s;
        self.predicate_s += o.predicate_s;
        self.mine_s += o.mine_s;
        self.skeleton_s += o.skeleton_s;
        self.detour_s += o.detour_s;
        self.candidate_s += o.candidate_s;
        self.observations += o.observations;
        self.predicates += o.predicates;
        self.graph_edges += o.graph_edges;
        self.detours += o.detours;
        self.candidates += o.candidates;
    }
}

/// Rebuilds `StatSym::analyze` from the individual layer calls, timing
/// each one. Mirrors the product stage for stage, including the
/// skeleton's fallback to a graph mined from the full corpus.
pub(crate) fn analyze_by_layers(
    config: &StatSymConfig,
    logs: &[ExecutionLog],
) -> (AnalysisReport, AnalysisLayers) {
    let total = Instant::now();
    let mut l = AnalysisLayers::default();

    let t = Instant::now();
    let corpus = LogCorpus::build(logs);
    l.preprocess_s = secs(t);

    let t = Instant::now();
    let predicates = PredicateSet::build(&corpus);
    l.predicate_s = secs(t);

    let t = Instant::now();
    let graph = TransitionGraph::mine(corpus.faulty_traces.iter(), config.mine);
    l.mine_s = secs(t);

    let failure_location = corpus.failure_location.clone();
    let mut candidates = None;
    if let Some(failure) = &failure_location {
        let t = Instant::now();
        let skeleton =
            Skeleton::build(&graph, &predicates, failure, config.skeleton).or_else(|| {
                let full = TransitionGraph::mine(
                    corpus.faulty_traces.iter().chain(&corpus.correct_traces),
                    config.mine,
                );
                Skeleton::build(&full, &predicates, failure, config.skeleton)
            });
        l.skeleton_s = secs(t);
        if let Some(skeleton) = skeleton {
            let t = Instant::now();
            let detours = find_detours(&graph, &predicates, &skeleton, config.detour);
            l.detour_s = secs(t);
            let t = Instant::now();
            candidates = Some(CandidateSet::build(
                skeleton,
                detours,
                &predicates,
                config.candidate,
            ));
            l.candidate_s = secs(t);
        }
    }

    l.observations = corpus.observations.len();
    l.predicates = predicates.ranked.len();
    l.graph_edges = graph.edge_count();
    l.detours = candidates.as_ref().map_or(0, |c| c.detours.len());
    l.candidates = candidates.as_ref().map_or(0, |c| c.paths.len());
    let report = AnalysisReport {
        n_correct: corpus.n_correct,
        n_faulty: corpus.n_faulty,
        predicates,
        graph,
        candidates,
        failure_location,
        analysis_time: total.elapsed(),
    };
    (report, l)
}

/// Errs unless the rebuilt analysis equals the product's.
pub(crate) fn same_analysis(
    rebuilt: &AnalysisReport,
    product: &AnalysisReport,
) -> Result<(), String> {
    let differs = |what: &str| {
        Err(format!(
            "rebuilt analysis differs from StatSym::analyze: {what}"
        ))
    };
    if (rebuilt.n_correct, rebuilt.n_faulty) != (product.n_correct, product.n_faulty) {
        return differs("run counts");
    }
    if rebuilt.failure_location != product.failure_location {
        return differs("failure location");
    }
    if rebuilt.predicates.ranked != product.predicates.ranked {
        return differs("predicates");
    }
    if format!("{:?}", rebuilt.graph) != format!("{:?}", product.graph) {
        return differs("transition graph");
    }
    match (&rebuilt.candidates, &product.candidates) {
        (None, None) => Ok(()),
        (Some(a), Some(b))
            if a.paths == b.paths && a.skeleton == b.skeleton && a.detours == b.detours =>
        {
            Ok(())
        }
        _ => differs("candidate list"),
    }
}

/// Guided-execution accounting over the attempts that count.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SymexAccount {
    pub(crate) attempts: u64,
    /// Attempt wall time summed over attempts (and so over workers).
    pub(crate) busy_s: f64,
    /// Executor self time: each attempt's wall minus its own solver time.
    pub(crate) self_s: f64,
    /// Solver time measured inside the solver (`time_queries`).
    pub(crate) solver_s: f64,
    pub(crate) steps: u64,
    pub(crate) forks: u64,
    pub(crate) states: u64,
    pub(crate) peak_live_states: u64,
    pub(crate) queries: u64,
    pub(crate) nodes: u64,
    pub(crate) cache_hits: u64,
    pub(crate) unknown: u64,
}

impl SymexAccount {
    /// Folds in one case's attempts.
    pub(crate) fn add_attempts(&mut self, attempts: &[CandidateAttempt]) {
        for a in attempts {
            let wall = a.wall_time;
            let solver = Duration::from_micros(a.stats.solver.query_us);
            self.attempts += 1;
            self.busy_s += wall.as_secs_f64();
            self.self_s += wall.saturating_sub(solver).as_secs_f64();
            self.solver_s += solver.as_secs_f64();
            self.steps += a.stats.exec.steps;
            self.forks += a.stats.exec.forks;
            self.states += a.stats.states_created;
            self.peak_live_states = self.peak_live_states.max(a.stats.peak_live_states as u64);
            self.queries += a.stats.solver.queries;
            self.nodes += a.stats.solver.nodes;
            self.cache_hits += a.stats.solver.cache_hits + a.stats.solver.shared_hits;
            self.unknown += a.stats.solver.unknown;
        }
    }
}

/// Per-site solver totals read from the in-memory recorder.
#[derive(Debug, Clone, Copy, Default)]
struct SiteAccount {
    queries: [u64; 4],
    query_s: [f64; 4],
}

impl SiteAccount {
    fn add(&mut self, rec: &MemRecorder) {
        let m = rec.metrics();
        for (i, site) in SOLVER_SITES.iter().enumerate() {
            let key = |what: &str| format!("{SOLVER_SITE_PREFIX}{site}.{what}");
            self.queries[i] += m.counter(&key("queries")).unwrap_or(0);
            self.query_s[i] += m.hist(&key("query_us")).map_or(0, |h| h.sum) as f64 / 1e6;
        }
    }
}

/// One traced pass over every case.
#[derive(Default)]
struct TracedPass {
    /// Compile and monitor layers of the pass's set-ups.
    setup: SetupLayers,
    /// Analysis layers timed in set-up (on `late-hit` only).
    setup_analysis: AnalysisLayers,
    /// Wall time from prepared inputs to all verdicts, summed over cases.
    pass_s: f64,
    /// Analysis layers timed inside the pass (empty on `late-hit`).
    analysis: AnalysisLayers,
    symex: SymexAccount,
    sites: SiteAccount,
    winner_rank: u64,
}

/// Compile and monitor layers, timed during the traced set-up.
#[derive(Debug, Clone, Copy, Default)]
struct SetupLayers {
    parse_s: f64,
    lower_s: f64,
    insts: usize,
    monitor_s: f64,
    logs: usize,
    records: usize,
}

/// Set-up of case `index` with each layer timed into `s`; on
/// `late-hit` the analysis is rebuilt by layers into `analysis_layers`
/// and checked against `StatSym::analyze` before the decoys go in.
fn traced_setup_case(
    w: Workload,
    seed: u64,
    index: usize,
    s: &mut SetupLayers,
    analysis_layers: &mut AnalysisLayers,
) -> Result<Case, String> {
    let name = w.apps()[index];
    let (app, answer) = app_with_answer(name)?;

    let t = Instant::now();
    let program = minic::parse_program(app.source).map_err(|e| format!("{name}: {e}"))?;
    s.parse_s += secs(t);
    let t = Instant::now();
    let module = sir::lower(&program).map_err(|e| format!("{name}: {e}"))?;
    sir::verify(&module).map_err(|e| format!("{name}: {e}"))?;
    s.lower_s += secs(t);
    if module != app.module {
        return Err(format!(
            "{name}: timed compile differs from the app's module"
        ));
    }
    s.insts += module
        .funcs
        .iter()
        .flat_map(|f| &f.blocks)
        .map(|b| b.insts.len() + 1)
        .sum::<usize>();

    let t = Instant::now();
    let logs = generate_corpus(&app, corpus_spec(w, seed, index));
    s.monitor_s += secs(t);
    s.logs += logs.len();
    s.records += logs.iter().map(|l| l.records.len()).sum::<usize>();

    let prepared = if w.analysis_in_setup() {
        let config = w.config();
        let (mut rebuilt, layers) = analyze_by_layers(&config, &logs);
        same_analysis(&rebuilt, &StatSym::new(config).analyze(&logs))?;
        analysis_layers.add(&layers);
        workload::inject_decoys(&mut rebuilt)?;
        Some(rebuilt)
    } else {
        None
    };
    Ok(Case {
        app,
        answer,
        logs,
        prepared,
    })
}

/// The traced pipeline configuration: the workload's, with solver
/// queries timed.
fn traced_config(w: Workload) -> StatSymConfig {
    let mut c = w.config();
    c.engine.solver.time_queries = true;
    c
}

/// One traced pass. Each case is set up with its layers timed, run once
/// through the untraced product path (returned as the second value) and
/// once traced, then dropped. Each traced verdict is checked against the
/// known answer and against the product's verdict on the same case.
fn traced_pass(
    w: Workload,
    seed: u64,
    tally: &mut Tally,
    verbose: bool,
) -> Result<(TracedPass, Pass), String> {
    let config = w.config();
    let statsym = StatSym::new(traced_config(w));
    let mut p = TracedPass::default();
    let mut product = Pass::default();
    for index in 0..w.apps().len() {
        let case = traced_setup_case(w, seed, index, &mut p.setup, &mut p.setup_analysis)?;
        let (want, want_s) = workload::verdict(w, &case);
        product.add(w, &case, &want, (want_s, want_s), tally, verbose);

        let prepared = case.prepared.clone();
        let start = Instant::now();
        let analysis = match prepared {
            Some(a) => a,
            None => {
                let (a, layers) = analyze_by_layers(&config, &case.logs);
                p.analysis.add(&layers);
                a
            }
        };
        let rec = MemRecorder::new(Clock::wall());
        let report = statsym.run_with_analysis_pinned_traced(
            &case.app.module,
            analysis,
            &case.app.pins,
            &rec,
        );
        p.pass_s += secs(start);

        tally.record(w, &case, workload::check(w, &case, &report));
        let name = case.app.name;
        let paths = |r: &'_ StatSymReport| r.analysis.candidates.as_ref().map(|c| c.paths.clone());
        if paths(&report) != paths(&want) {
            return Err(format!(
                "{name}: traced candidate list differs from the product's"
            ));
        }
        if report.candidate_used != want.candidate_used
            || report.found.as_ref().map(|f| &f.fault) != want.found.as_ref().map(|f| &f.fault)
            || report.total_paths_explored() != want.total_paths_explored()
        {
            return Err(format!("{name}: traced verdict differs from the product's"));
        }
        p.symex.add_attempts(&report.attempts);
        p.sites.add(&rec);
        p.winner_rank = p
            .winner_rank
            .max(report.candidate_used.map_or(0, |r| r as u64 + 1));
    }
    Ok((p, product))
}

/// Checks a traced pass's accounting and returns its glue time (pass
/// wall minus layer self times; guided execution counts its busy time
/// divided by the workers). Parallel passes must fit their busy time in
/// workers × wall. Single-worker passes must reconcile: no layer time
/// is counted twice, so the glue is never negative, and the timed
/// layers cover all but at most [`MAX_GLUE_SHARE`] of the wall.
fn reconcile(w: Workload, p: &TracedPass) -> Result<f64, String> {
    let workers = w.workers() as f64;
    let busy = p.symex.self_s + p.symex.solver_s;
    if busy > workers * p.pass_s {
        return Err(format!(
            "busy {busy:.6}s exceeds {workers} workers x wall {:.6}s",
            p.pass_s
        ));
    }
    let layers = p.analysis.self_s() + busy / workers;
    let glue = p.pass_s - layers;
    if w.workers() == 1 && !(0.0..=MAX_GLUE_SHARE * p.pass_s).contains(&glue) {
        return Err(format!(
            "layers {layers:.6}s + glue {glue:.6}s do not reconcile to wall {:.6}s",
            p.pass_s
        ));
    }
    let site_s: f64 = p.sites.query_s.iter().sum();
    if site_s > p.symex.solver_s + 1e-6 * p.symex.attempts as f64 {
        return Err(format!(
            "per-site solver time {site_s:.6}s exceeds solver total {:.6}s",
            p.symex.solver_s
        ));
    }
    Ok(glue)
}

/// Per-layer metrics of one traced pass; `a` is the analysis layers of
/// the pass, or of the set-up where analysis belongs to set-up.
fn pass_metrics(
    p: &TracedPass,
    a: &AnalysisLayers,
    glue_s: f64,
    overhead: f64,
    setup: &SetupLayers,
) -> Vec<Metric> {
    let s = &p.symex;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut m = vec![
        Metric::new("minic.parse_s", setup.parse_s, "s"),
        Metric::new("sir.lower_s", setup.lower_s, "s"),
        Metric::new("sir.insts", setup.insts as f64, "count"),
        Metric::new("concrete.monitor_s", setup.monitor_s, "s"),
        Metric::new("concrete.logs", setup.logs as f64, "count"),
        Metric::new("concrete.records", setup.records as f64, "count"),
        Metric::new(
            "concrete.records_per_s",
            ratio(setup.records as f64, setup.monitor_s),
            "1/s",
        ),
        Metric::new("core.log_preprocess_s", a.preprocess_s, "s"),
        Metric::new("core.observations", a.observations as f64, "count"),
        Metric::new("core.predicate_s", a.predicate_s, "s"),
        Metric::new("core.predicates", a.predicates as f64, "count"),
        Metric::new("core.mine_s", a.mine_s, "s"),
        Metric::new("core.graph_edges", a.graph_edges as f64, "count"),
        Metric::new("core.skeleton_s", a.skeleton_s, "s"),
        Metric::new("core.detour_s", a.detour_s, "s"),
        Metric::new("core.candidate_s", a.candidate_s, "s"),
        Metric::new("core.detours", a.detours as f64, "count"),
        Metric::new("core.candidates", a.candidates as f64, "count"),
        Metric::new("core.attempts", s.attempts as f64, "count"),
        Metric::new("core.winner_rank", p.winner_rank as f64, "rank"),
        Metric::new("symex.self_s", s.self_s, "s"),
        Metric::new("symex.busy_s", s.busy_s, "s"),
        Metric::new("symex.steps", s.steps as f64, "count"),
        Metric::new("symex.forks", s.forks as f64, "count"),
        Metric::new("symex.states", s.states as f64, "count"),
        Metric::new("symex.peak_live_states", s.peak_live_states as f64, "count"),
        Metric::new("symex.steps_per_s", ratio(s.steps as f64, s.self_s), "1/s"),
        Metric::new("solver.query_s", s.solver_s, "s"),
        Metric::new("solver.queries", s.queries as f64, "count"),
        Metric::new("solver.nodes", s.nodes as f64, "count"),
        Metric::new(
            "solver.us_per_query",
            ratio(s.solver_s * 1e6, s.queries as f64),
            "us",
        ),
        Metric::new(
            "solver.cache_hit_ratio",
            ratio(s.cache_hits as f64, s.queries as f64),
            "ratio",
        ),
        Metric::new("solver.unknown", s.unknown as f64, "count"),
    ];
    // Only the feasibility site gets a time: the others answer a
    // handful of sub-microsecond queries per pass (none at all on some
    // workloads), and the recorder keeps whole microseconds, so their
    // time would read a constant 0.
    m.push(Metric::new(
        "solver.site.feasibility.query_s",
        p.sites.query_s[0],
        "s",
    ));
    for (site, queries) in SOLVER_SITES.iter().zip(p.sites.queries) {
        m.push(Metric::new(
            format!("solver.site.{site}.queries"),
            queries as f64,
            "count",
        ));
    }
    m.push(Metric::new("pass_s", p.pass_s, "s"));
    m.push(Metric::new("glue_s", glue_s, "s"));
    m.push(Metric::new("trace_overhead_ratio", overhead, "ratio"));
    m
}

/// `--trace 1`: traced passes until the budget is spent. Within a pass
/// each case runs untraced and traced back to back, so both see the same
/// machine conditions. Each per-layer metric is the median over the
/// passes.
pub(crate) fn per_layer(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let mut tally = Tally::default();
    let mut traced: Vec<(TracedPass, f64)> = Vec::new();
    let mut untraced: Vec<Pass> = Vec::new();
    let start = Instant::now();
    while traced.is_empty() || start.elapsed() < Duration::from_secs(args.seconds) {
        let (p, product) = traced_pass(w, args.seed, &mut tally, traced.is_empty())?;
        if let Some(first) = untraced.first() {
            product.repeats(first)?;
        }
        let glue = reconcile(w, &p)?;
        eprintln!(
            "pipebench: traced pass {}: wall {:.4}s (untraced {:.4}s), glue {glue:.4}s",
            traced.len() + 1,
            p.pass_s,
            product.verdict_s
        );
        traced.push((p, glue));
        untraced.push(product);
    }
    let traced_wall: Vec<f64> = traced.iter().map(|(p, _)| p.pass_s).collect();
    let untraced_wall: Vec<f64> = untraced.iter().map(|u| u.verdict_s).collect();
    let overhead = stats::median(&traced_wall).ok_or("no traced pass")?
        / stats::median(&untraced_wall).ok_or("no untraced pass")?;

    let per_pass: Vec<Vec<Metric>> = traced
        .iter()
        .map(|(p, glue)| {
            let analysis = if w.analysis_in_setup() {
                &p.setup_analysis
            } else {
                &p.analysis
            };
            pass_metrics(p, analysis, *glue, overhead, &p.setup)
        })
        .collect();
    let metrics = per_pass[0]
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = per_pass.iter().map(|pm| pm[i].value).collect();
            Metric::new(
                m.name.clone(),
                stats::median(&values).unwrap_or(m.value),
                m.unit,
            )
        })
        .collect();
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        settings: vec![
            ("cases", w.apps().len().to_string()),
            ("passes", traced.len().to_string()),
            ("workers", w.workers().to_string()),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchapps::CorpusSpec;

    /// A 2-worker portfolio with real executor work: every attempt's
    /// executor self time is its own wall minus its own solver time, so
    /// it can never come out as 0 — unlike pass wall minus solver time
    /// summed over threads, which goes to 0 once workers overlap.
    #[test]
    fn two_worker_symex_self_time_is_never_zero() {
        let app = benchapps::polymorph();
        let logs = generate_corpus(
            &app,
            CorpusSpec {
                n_correct: 20,
                n_faulty: 20,
                sampling_rate: 1.0,
                seed: 3,
            },
        );
        let mut config = Workload::LateHit.config();
        config.engine.solver.time_queries = true;
        let mut analysis = StatSym::new(config).analyze(&logs);
        workload::inject_decoys(&mut analysis).expect("polymorph has a length predicate");
        let report = StatSym::new(config).run_with_analysis_pinned_traced(
            &app.module,
            analysis,
            &app.pins,
            &statsym_telemetry::NOOP,
        );
        assert!(
            report.attempts.len() >= 2,
            "the portfolio ran several attempts"
        );
        let mut acct = SymexAccount::default();
        acct.add_attempts(&report.attempts);
        assert!(acct.steps > 0 && acct.queries > 0);
        assert!(acct.self_s > 0.0, "{acct:?}");
        for a in &report.attempts {
            let mut one = SymexAccount::default();
            one.add_attempts(std::slice::from_ref(a));
            assert!(one.self_s > 0.0, "attempt {}: {one:?}", a.index);
        }
    }

    #[test]
    fn analysis_rebuilt_by_layers_equals_the_product() {
        let app = benchapps::ctree();
        let logs = generate_corpus(
            &app,
            CorpusSpec {
                n_correct: 20,
                n_faulty: 20,
                sampling_rate: 0.3,
                seed: 5,
            },
        );
        let config = bench::statsym_config();
        let (rebuilt, layers) = analyze_by_layers(&config, &logs);
        same_analysis(&rebuilt, &StatSym::new(config).analyze(&logs)).unwrap();
        assert!(layers.observations > 0 && layers.candidates > 0);
        assert!(layers.self_s() > 0.0);
    }

    #[test]
    fn a_changed_candidate_list_is_caught() {
        let app = benchapps::ctree();
        let logs = generate_corpus(
            &app,
            CorpusSpec {
                n_correct: 20,
                n_faulty: 20,
                sampling_rate: 0.3,
                seed: 5,
            },
        );
        let config = bench::statsym_config();
        let (mut rebuilt, _) = analyze_by_layers(&config, &logs);
        let product = StatSym::new(config).analyze(&logs);
        rebuilt.candidates.as_mut().unwrap().paths.reverse();
        rebuilt
            .candidates
            .as_mut()
            .unwrap()
            .paths
            .push(product.candidates.as_ref().unwrap().paths[0].clone());
        assert!(same_analysis(&rebuilt, &product).is_err());
    }

    #[test]
    fn per_layer_metrics_match_the_declaration() {
        let p = TracedPass {
            pass_s: 1.0,
            winner_rank: 1,
            ..TracedPass::default()
        };
        let metrics = pass_metrics(
            &p,
            &AnalysisLayers::default(),
            0.0,
            1.0,
            &SetupLayers::default(),
        );
        assert_eq!(
            crate::tests::emitted(&metrics),
            crate::tests::declared("per_layer")
        );
        assert!(metrics.iter().all(|m| crate::report::valid_name(&m.name)));
    }

    #[test]
    fn reconcile_rejects_overlapping_layers() {
        let mut p = TracedPass {
            pass_s: 1.0,
            analysis: AnalysisLayers {
                preprocess_s: 0.45,
                ..AnalysisLayers::default()
            },
            symex: SymexAccount {
                self_s: 0.3,
                solver_s: 0.2,
                ..SymexAccount::default()
            },
            winner_rank: 1,
            ..TracedPass::default()
        };
        let glue = reconcile(Workload::Triage, &p).unwrap();
        assert!((glue - 0.05).abs() < 1e-12);
        p.analysis.preprocess_s = 0.6;
        assert!(reconcile(Workload::Triage, &p).is_err(), "negative glue");
        p.analysis.preprocess_s = 0.3;
        assert!(reconcile(Workload::Triage, &p).is_err(), "untimed work");
        // Two workers may overlap up to twice the wall, not beyond.
        p.analysis.preprocess_s = 0.0;
        p.symex.self_s = 1.5;
        assert!(reconcile(Workload::LateHit, &p).is_ok());
        p.symex.self_s = 2.5;
        assert!(reconcile(Workload::LateHit, &p).is_err());
    }
}
