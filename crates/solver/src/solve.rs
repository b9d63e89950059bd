//! The decision procedure: interval propagation + backtracking search.

use crate::cache::{CachedVerdict, QueryCache, UcAnswer, UnsatCache};
use crate::interval::Interval;
use crate::term::{CmpOp, Constraint, Term, TermCtx, TermId, VarId};
use std::collections::HashMap;
use std::sync::Arc;

/// Resource limits for one `check` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverConfig {
    /// Maximum propagation rounds per fixpoint (defensive bound; real
    /// fixpoints converge much earlier).
    pub max_rounds: usize,
    /// Maximum search-tree nodes before giving up with `Unknown`.
    pub max_nodes: u64,
    /// Constraint-independence slicing: partition each query's conjuncts
    /// into components that share no variables and decide each component
    /// separately (component verdicts and models land in the private
    /// cache, so sibling queries that extend one component reuse the
    /// others for free). Off by default: slicing can decide a query
    /// whose whole-conjunction search would exhaust its node budget, so
    /// enabling it may turn `Unknown` into a definitive verdict and
    /// thereby change exploration against pinned legacy baselines.
    pub slice: bool,
    /// Accumulate `query_us` even when no recorder is attached, so
    /// untraced bench runs still get an executor-vs-solver wall
    /// breakdown. Off by default (the historical behavior: untraced
    /// queries skip the clock reads entirely).
    pub time_queries: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_rounds: 64,
            max_nodes: 50_000,
            slice: false,
            time_queries: false,
        }
    }
}

/// Counters accumulated across `check` calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverStats {
    /// Total queries (including cache hits).
    pub queries: u64,
    /// Queries answered `Sat`.
    pub sat: u64,
    /// Queries answered `Unsat`.
    pub unsat: u64,
    /// Queries answered `Unknown`.
    pub unknown: u64,
    /// Queries answered from the private (per-solver) cache.
    pub cache_hits: u64,
    /// Queries answered from the injected shared cache.
    pub shared_hits: u64,
    /// Queries that consulted the shared cache without getting an
    /// answer (no entry, or a `Sat` verdict when a model was required).
    pub shared_misses: u64,
    /// Search nodes explored.
    pub nodes: u64,
    /// HC4 propagation iterations (fixpoint rounds) across all queries.
    pub propagation_rounds: u64,
    /// Backtracks: a search node falling through to its second domain
    /// partition after the first failed.
    pub backtracks: u64,
    /// Wall-clock µs spent inside traced queries. Only accumulates when
    /// a live recorder is attached (untraced runs skip the clock reads
    /// entirely) or [`SolverConfig::time_queries`] is set, and is
    /// inherently nondeterministic — deterministic trace sinks zero it
    /// before it reaches disk; never compare it across runs.
    pub query_us: u64,
    /// Queries that independence slicing split into ≥ 2 components.
    pub indep_queries: u64,
    /// Total components produced across sliced queries.
    pub indep_components: u64,
    /// Sliced components answered from the private cache instead of a
    /// fresh search.
    pub indep_comp_hits: u64,
    /// Unsat-cache hits: a cached unsat core was a subset of the query.
    pub ucache_sub_hits: u64,
    /// Unsat-cache hits: a cached model of a superset query verified
    /// against this query and was served.
    pub ucache_sup_hits: u64,
    /// Superset candidate models that failed verification (the entry
    /// constrained different conjuncts; never served).
    pub ucache_sup_rejects: u64,
    /// Definitive results published to the unsat cache.
    pub ucache_stores: u64,
    /// Unsat-cache lookups that found no usable entry.
    pub ucache_misses: u64,
}

/// A satisfying assignment for the variables that appear in the query.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Model {
    values: HashMap<VarId, i64>,
}

impl Model {
    /// The assigned value of `v`, if `v` appeared in the query.
    pub fn get(&self, v: VarId) -> Option<i64> {
        self.values.get(&v).copied()
    }

    /// The assigned value of `v`, falling back to the low end of its
    /// declared domain — the completion used to materialize test inputs.
    pub fn get_or_default(&self, v: VarId, ctx: &TermCtx) -> i64 {
        self.get(v).unwrap_or_else(|| ctx.var_domain(v).lo)
    }

    /// Evaluates `t` under this model (unassigned variables default to
    /// the low end of their domain). Returns `None` only for division or
    /// remainder by zero.
    pub fn value_of(&self, t: TermId, ctx: &TermCtx) -> Option<i64> {
        Some(match ctx.term(t) {
            Term::Const(v) => v,
            Term::Var(v) => self.get_or_default(v, ctx),
            Term::Add(a, b) => self.value_of(a, ctx)?.wrapping_add(self.value_of(b, ctx)?),
            Term::Sub(a, b) => self.value_of(a, ctx)?.wrapping_sub(self.value_of(b, ctx)?),
            Term::Mul(a, b) => self.value_of(a, ctx)?.wrapping_mul(self.value_of(b, ctx)?),
            Term::Div(a, b) => {
                let d = self.value_of(b, ctx)?;
                if d == 0 {
                    return None;
                }
                self.value_of(a, ctx)?.wrapping_div(d)
            }
            Term::Rem(a, b) => {
                let d = self.value_of(b, ctx)?;
                if d == 0 {
                    return None;
                }
                self.value_of(a, ctx)?.wrapping_rem(d)
            }
            Term::Neg(a) => self.value_of(a, ctx)?.wrapping_neg(),
        })
    }

    /// True if every constraint holds under the model.
    pub fn satisfies(&self, ctx: &TermCtx, constraints: &[Constraint]) -> bool {
        constraints.iter().all(
            |c| match (self.value_of(c.lhs, ctx), self.value_of(c.rhs, ctx)) {
                (Some(a), Some(b)) => c.op.concrete(a, b),
                _ => false,
            },
        )
    }
}

/// The answer to a satisfiability query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with a verified model.
    Sat(Model),
    /// Provably unsatisfiable.
    Unsat,
    /// Budget exhausted before a decision.
    Unknown,
}

impl SatResult {
    /// True for `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    /// True for `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, SatResult::Unsat)
    }
}

/// The solver, with a per-instance query cache and an optional injected
/// shared verdict cache (see [`crate::cache`]).
#[derive(Default)]
pub struct Solver {
    config: SolverConfig,
    stats: SolverStats,
    cache: HashMap<u64, SatResult>,
    shared: Option<Arc<dyn QueryCache + Send + Sync>>,
    ucache: Option<Arc<UnsatCache>>,
    prov: Prov,
    /// Per-site metric names for traced queries (see `site_names`).
    site_names: Vec<(&'static str, [String; 3])>,
}

/// Transient provenance context stamped onto query events (see
/// [`Solver::set_provenance`]).
#[derive(Default)]
struct Prov {
    enabled: bool,
    sid: u64,
    loc: String,
    rank: u32,
    /// Cache disposition of the most recent `check_inner` answer, one
    /// of [`statsym_telemetry::query_disposition::ALL`].
    last_cache: &'static str,
}

impl std::fmt::Debug for Solver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Solver")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .field("cache_len", &self.cache.len())
            .field("shared", &self.shared.is_some())
            .field("ucache", &self.ucache.is_some())
            .finish()
    }
}

impl Solver {
    /// Creates a solver with explicit limits.
    pub fn with_config(config: SolverConfig) -> Solver {
        Solver {
            config,
            ..Solver::default()
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Clears the query cache (e.g. between unrelated programs).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Injects a shared verdict cache, consulted on private-cache misses
    /// and fed every definitive local result. See [`crate::cache`] for
    /// the soundness rules (model-free verdicts only, never `Unknown`).
    pub fn set_query_cache(&mut self, cache: Arc<dyn QueryCache + Send + Sync>) {
        self.shared = Some(cache);
    }

    /// The injected shared verdict cache, if any (so owners can thread
    /// it into further solvers they spawn).
    pub fn query_cache(&self) -> Option<Arc<dyn QueryCache + Send + Sync>> {
        self.shared.clone()
    }

    /// Injects an unsat-core / counterexample cache, consulted after the
    /// private cache and fed every definitive search result. Contents
    /// are shared across threads and therefore schedule-dependent: a hit
    /// can decide a query whose local search would have returned
    /// `Unknown`, so attach one only on perf runs, never on runs that
    /// must be byte-reproducible. See [`crate::cache::UnsatCache`].
    pub fn set_unsat_cache(&mut self, cache: Arc<UnsatCache>) {
        self.ucache = Some(cache);
    }

    /// The injected unsat cache, if any.
    pub fn unsat_cache(&self) -> Option<Arc<UnsatCache>> {
        self.ucache.clone()
    }

    /// Approximate memory footprint of the cache, in entries.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Enables solver-query provenance: every traced query emits a
    /// canonical `query` event carrying the originating state id, source
    /// location, candidate `rank`, callsite, verdict, and cache
    /// disposition. Off by default — committed trace baselines predate
    /// the event family, and provenance roughly doubles a solver-heavy
    /// trace's line count.
    pub fn set_provenance(&mut self, rank: u32) {
        self.prov.enabled = true;
        self.prov.rank = rank;
        // Queries issued before the first `set_query_origin` (initial
        // state construction, entry guidance) belong to no instruction.
        if self.prov.loc.is_empty() {
            self.prov.loc.push_str("entry:0");
        }
    }

    /// Updates the originating-state context stamped onto subsequent
    /// query events: the engine-local state id and the `function:line`
    /// source location of the instruction about to run. Cheap when the
    /// location is unchanged (no allocation).
    pub fn set_query_origin(&mut self, sid: u64, loc: &str) {
        self.prov.sid = sid;
        if self.prov.loc != loc {
            self.prov.loc.clear();
            self.prov.loc.push_str(loc);
        }
    }

    /// Decides `constraints` (a conjunction) over `ctx`, producing a
    /// verified model when satisfiable.
    pub fn check(&mut self, ctx: &TermCtx, constraints: &[Constraint]) -> SatResult {
        self.check_traced(ctx, constraints, &statsym_telemetry::NOOP)
    }

    /// Decides satisfiability only: the caller promises not to read the
    /// model out of a `Sat` answer. This unlocks shared-cache `Sat`
    /// verdicts (which are model-free by construction); `Sat` results
    /// answered from the shared cache carry an empty model.
    pub fn check_sat(&mut self, ctx: &TermCtx, constraints: &[Constraint]) -> SatResult {
        self.check_sat_traced(ctx, constraints, &statsym_telemetry::NOOP)
    }

    /// [`Solver::check`] with per-query latency telemetry: the query's
    /// wall-clock time lands in the `solver.query_us` histogram (only
    /// under a wall-clock trace; deterministic traces skip it). Counter
    /// totals are *not* emitted here — callers snapshot [`Solver::stats`]
    /// and emit deltas, which keeps counts exactly reconcilable.
    pub fn check_traced(
        &mut self,
        ctx: &TermCtx,
        constraints: &[Constraint],
        rec: &dyn statsym_telemetry::Recorder,
    ) -> SatResult {
        self.dispatch_traced(ctx, constraints, rec, true, None)
    }

    /// [`Solver::check_sat`] with per-query latency telemetry.
    pub fn check_sat_traced(
        &mut self,
        ctx: &TermCtx,
        constraints: &[Constraint],
        rec: &dyn statsym_telemetry::Recorder,
    ) -> SatResult {
        self.dispatch_traced(ctx, constraints, rec, false, None)
    }

    /// [`Solver::check_traced`] tagged with the callsite issuing the
    /// query. Besides the global latency histogram, the query lands in
    /// the per-site hot-spot profile: `solver.site.<site>.queries` and
    /// `.nodes` counters plus a `.query_us` latency histogram
    /// (wall-clock traces only). `statsym-inspect top` renders these.
    pub fn check_traced_at(
        &mut self,
        ctx: &TermCtx,
        constraints: &[Constraint],
        rec: &dyn statsym_telemetry::Recorder,
        site: &'static str,
    ) -> SatResult {
        self.dispatch_traced(ctx, constraints, rec, true, Some(site))
    }

    /// [`Solver::check_sat_traced`] tagged with the issuing callsite.
    pub fn check_sat_traced_at(
        &mut self,
        ctx: &TermCtx,
        constraints: &[Constraint],
        rec: &dyn statsym_telemetry::Recorder,
        site: &'static str,
    ) -> SatResult {
        self.dispatch_traced(ctx, constraints, rec, false, Some(site))
    }

    fn dispatch_traced(
        &mut self,
        ctx: &TermCtx,
        constraints: &[Constraint],
        rec: &dyn statsym_telemetry::Recorder,
        needs_model: bool,
        site: Option<&'static str>,
    ) -> SatResult {
        if !rec.enabled() {
            if self.config.time_queries {
                let start = std::time::Instant::now();
                let result = self.check_inner(ctx, constraints, needs_model);
                self.stats.query_us += start.elapsed().as_micros() as u64;
                return result;
            }
            return self.check_inner(ctx, constraints, needs_model);
        }
        let nodes_before = self.stats.nodes;
        let start = std::time::Instant::now();
        let result = self.check_inner(ctx, constraints, needs_model);
        let elapsed = start.elapsed();
        self.stats.query_us += elapsed.as_micros() as u64;
        rec.observe_wall(statsym_telemetry::names::SOLVER_QUERY_US, elapsed);
        if self.prov.enabled {
            let verdict = match &result {
                SatResult::Sat(_) => "sat",
                SatResult::Unsat => "unsat",
                SatResult::Unknown => "unknown",
            };
            rec.query(&statsym_telemetry::QueryEvent {
                sid: self.prov.sid,
                loc: &self.prov.loc,
                rank: self.prov.rank,
                site: site.unwrap_or("check"),
                verdict,
                cache: self.prov.last_cache,
                nodes: self.stats.nodes - nodes_before,
                us: elapsed.as_micros() as u64,
            });
        }
        if let Some(site) = site {
            let nodes = self.stats.nodes - nodes_before;
            let [queries, nodes_name, query_us] = self.site_names(site);
            rec.counter_add(queries, 1);
            rec.counter_add(nodes_name, nodes);
            rec.observe_wall(query_us, elapsed);
        }
        result
    }

    /// The `.queries`, `.nodes` and `.query_us` metric names of `site`,
    /// built on the site's first traced query.
    fn site_names(&mut self, site: &'static str) -> &[String; 3] {
        let i = match self.site_names.iter().position(|(s, _)| *s == site) {
            Some(i) => i,
            None => {
                use statsym_telemetry::names::SOLVER_SITE_PREFIX;
                self.site_names.push((
                    site,
                    [
                        format!("{SOLVER_SITE_PREFIX}{site}.queries"),
                        format!("{SOLVER_SITE_PREFIX}{site}.nodes"),
                        format!("{SOLVER_SITE_PREFIX}{site}.query_us"),
                    ],
                ));
                self.site_names.len() - 1
            }
        };
        &self.site_names[i].1
    }

    fn check_inner(
        &mut self,
        ctx: &TermCtx,
        constraints: &[Constraint],
        needs_model: bool,
    ) -> SatResult {
        use statsym_telemetry::query_disposition as qd;
        self.stats.queries += 1;
        if constraints.is_empty() {
            self.stats.sat += 1;
            self.prov.last_cache = qd::EMPTY;
            return SatResult::Sat(Model::default());
        }
        let key = ctx.query_fingerprint(constraints);
        if let Some(hit) = self.cache.get(&key) {
            self.stats.cache_hits += 1;
            self.prov.last_cache = qd::PRIVATE;
            match hit {
                SatResult::Sat(_) => self.stats.sat += 1,
                SatResult::Unsat => self.stats.unsat += 1,
                SatResult::Unknown => self.stats.unknown += 1,
            }
            // A model-free caller gets an empty model, as on a shared
            // `Sat` hit, instead of a copy of the cached one.
            return match hit {
                SatResult::Sat(_) if !needs_model => SatResult::Sat(Model::default()),
                _ => hit.clone(),
            };
        }
        if let Some(uc) = self.ucache.clone() {
            let hashes = sorted_hashes(ctx, constraints);
            match uc.lookup(&hashes) {
                Some(UcAnswer::Unsat) => {
                    // Some cached unsat core is a sub-multiset of this
                    // conjunction: the conjunction is unsat.
                    self.stats.ucache_sub_hits += 1;
                    self.stats.unsat += 1;
                    self.prov.last_cache = qd::UCACHE_SUB;
                    self.cache.insert(key, SatResult::Unsat);
                    return SatResult::Unsat;
                }
                Some(UcAnswer::Sat(model)) => {
                    // A model of a superset query may satisfy this one;
                    // verification is the soundness guard (the entry's
                    // extra conjuncts never relax anything, but its
                    // VarIds may come from another context, so check
                    // concretely before serving).
                    if model.satisfies(ctx, constraints) {
                        self.stats.ucache_sup_hits += 1;
                        self.stats.sat += 1;
                        self.prov.last_cache = qd::UCACHE_SUP;
                        self.cache.insert(key, SatResult::Sat(model.clone()));
                        return SatResult::Sat(model);
                    }
                    self.stats.ucache_sup_rejects += 1;
                }
                None => self.stats.ucache_misses += 1,
            }
        }
        if let Some(shared) = &self.shared {
            match shared.lookup(key) {
                Some(CachedVerdict::Unsat) => {
                    // Unsat carries no model, so it answers every query.
                    // Mirror it into the private cache: repeats become
                    // ordinary private hits, exactly as without sharing.
                    self.stats.shared_hits += 1;
                    self.stats.unsat += 1;
                    self.prov.last_cache = qd::SHARED;
                    self.cache.insert(key, SatResult::Unsat);
                    return SatResult::Unsat;
                }
                Some(CachedVerdict::Sat) if !needs_model => {
                    // Deliberately NOT mirrored into the private cache:
                    // the private cache stores full results, and a later
                    // model-needing call must re-solve, not read an
                    // empty model.
                    self.stats.shared_hits += 1;
                    self.stats.sat += 1;
                    self.prov.last_cache = qd::SHARED;
                    return SatResult::Sat(Model::default());
                }
                // A model is required but the shared cache only has the
                // verdict — solve locally (deterministic, so the model
                // matches what a sequential run would produce).
                Some(CachedVerdict::Sat) | None => self.stats.shared_misses += 1,
            }
        }
        if self.config.slice && constraints.len() > 1 {
            if let Some(result) = self.check_sliced(ctx, constraints, key) {
                self.prov.last_cache = qd::SLICED;
                return result;
            }
        }
        self.prov.last_cache = qd::SEARCH;

        let mut search = Search::new(ctx, constraints, self.config);
        let result = search.run();
        self.stats.nodes += search.nodes;
        self.stats.propagation_rounds += search.rounds;
        self.stats.backtracks += search.backtracks;
        match &result {
            SatResult::Sat(_) => self.stats.sat += 1,
            SatResult::Unsat => self.stats.unsat += 1,
            SatResult::Unknown => self.stats.unknown += 1,
        }
        self.cache.insert(key, result.clone());
        if let Some(shared) = &self.shared {
            if let Some(verdict) = CachedVerdict::from_result(&result) {
                shared.publish(key, verdict);
            }
        }
        self.store_ucache(ctx, constraints, &result);
        result
    }

    /// Constraint-independence slicing: partitions the conjuncts into
    /// components that share no variables (union-find over conjunct
    /// indices) and decides each component separately. Returns `None`
    /// when the query is a single component, in which case the caller
    /// falls back to the whole-conjunction search.
    ///
    /// Soundness: components are variable-disjoint, so the conjunction
    /// is satisfiable iff every component is, and the union of the
    /// component models is a model of the whole (each conjunct only
    /// reads variables of its own component). Any unsat component
    /// refutes the whole. An `Unknown` component makes the whole
    /// `Unknown` unless some other component is unsat.
    fn check_sliced(
        &mut self,
        ctx: &TermCtx,
        constraints: &[Constraint],
        key: u64,
    ) -> Option<SatResult> {
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        let n = constraints.len();
        let mut parent: Vec<usize> = (0..n).collect();
        let mut owner: HashMap<VarId, usize> = HashMap::new();
        for (i, c) in constraints.iter().enumerate() {
            for t in [c.lhs, c.rhs] {
                for v in ctx.vars_of(t) {
                    match owner.entry(v) {
                        std::collections::hash_map::Entry::Occupied(e) => {
                            let a = find(&mut parent, *e.get());
                            let b = find(&mut parent, i);
                            if a != b {
                                parent[b] = a;
                            }
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(i);
                        }
                    }
                }
            }
        }
        // Components ordered by first conjunct occurrence; conjuncts
        // keep their original relative order within each component —
        // both matter for determinism of stats and fingerprints.
        let mut comp_of_root: HashMap<usize, usize> = HashMap::new();
        let mut components: Vec<Vec<Constraint>> = Vec::new();
        for (i, c) in constraints.iter().enumerate() {
            let root = find(&mut parent, i);
            let slot = *comp_of_root.entry(root).or_insert_with(|| {
                components.push(Vec::new());
                components.len() - 1
            });
            components[slot].push(*c);
        }
        if components.len() < 2 {
            return None;
        }
        self.stats.indep_queries += 1;
        self.stats.indep_components += components.len() as u64;
        let mut merged: HashMap<VarId, i64> = HashMap::new();
        let mut unknown = false;
        for comp in &components {
            match self.solve_component(ctx, comp) {
                SatResult::Unsat => {
                    // The unsat component refutes the whole query. No
                    // whole-query ucache store: the component entry
                    // (already stored, and narrower) subsumes it.
                    self.stats.unsat += 1;
                    self.cache.insert(key, SatResult::Unsat);
                    if let Some(shared) = &self.shared {
                        shared.publish(key, CachedVerdict::Unsat);
                    }
                    return Some(SatResult::Unsat);
                }
                SatResult::Unknown => unknown = true,
                SatResult::Sat(m) => merged.extend(m.values.iter().map(|(v, x)| (*v, *x))),
            }
        }
        if unknown {
            self.stats.unknown += 1;
            self.cache.insert(key, SatResult::Unknown);
            return Some(SatResult::Unknown);
        }
        let model = Model { values: merged };
        debug_assert!(model.satisfies(ctx, constraints));
        self.stats.sat += 1;
        self.cache.insert(key, SatResult::Sat(model.clone()));
        if let Some(shared) = &self.shared {
            shared.publish(key, CachedVerdict::Sat);
        }
        self.store_ucache(ctx, constraints, &SatResult::Sat(model.clone()));
        Some(SatResult::Sat(model))
    }

    /// Decides one variable-disjoint component, going through the
    /// private cache under the component's own fingerprint and feeding
    /// definitive component results to the shared and unsat caches (so
    /// sibling queries that extend one component reuse the others for
    /// free). Per-query verdict counters are NOT touched here — the
    /// enclosing query counts once; only work counters and
    /// `indep_comp_hits` accumulate.
    fn solve_component(&mut self, ctx: &TermCtx, comp: &[Constraint]) -> SatResult {
        let ck = ctx.query_fingerprint(comp);
        if let Some(hit) = self.cache.get(&ck) {
            self.stats.indep_comp_hits += 1;
            return hit.clone();
        }
        let mut search = Search::new(ctx, comp, self.config);
        let result = search.run();
        self.stats.nodes += search.nodes;
        self.stats.propagation_rounds += search.rounds;
        self.stats.backtracks += search.backtracks;
        self.cache.insert(ck, result.clone());
        if let Some(shared) = &self.shared {
            if let Some(verdict) = CachedVerdict::from_result(&result) {
                shared.publish(ck, verdict);
            }
        }
        self.store_ucache(ctx, comp, &result);
        result
    }

    /// Publishes a definitive result to the unsat cache, if attached:
    /// `Unsat` conjunct multisets act as unsat cores, `Sat` ones carry
    /// their model for superset reuse. `Unknown` is never published.
    fn store_ucache(&mut self, ctx: &TermCtx, constraints: &[Constraint], result: &SatResult) {
        let Some(uc) = &self.ucache else { return };
        match result {
            SatResult::Unsat => {
                uc.store_unsat(sorted_hashes(ctx, constraints));
                self.stats.ucache_stores += 1;
            }
            SatResult::Sat(m) => {
                uc.store_sat(sorted_hashes(ctx, constraints), m.clone());
                self.stats.ucache_stores += 1;
            }
            SatResult::Unknown => {}
        }
    }
}

/// Structural hashes of each conjunct, sorted — the multiset key the
/// unsat cache matches on. Structural hashes are context-free, so the
/// multiset is comparable across `TermCtx`s (models are not, which is
/// why sat reuse re-verifies).
fn sorted_hashes(ctx: &TermCtx, constraints: &[Constraint]) -> Vec<u64> {
    let mut v: Vec<u64> = constraints.iter().map(|c| ctx.constraint_hash(c)).collect();
    v.sort_unstable();
    v
}

/// One node of a compiled query: a term whose children are indices into
/// [`Search::terms`] and whose variable is a query-local index.
#[derive(Clone, Copy)]
enum Node {
    Const(i64),
    Var(u32),
    Add(u32, u32),
    Sub(u32, u32),
    Mul(u32, u32),
    Div(u32, u32),
    Rem(u32, u32),
    Neg(u32),
}

/// A query compiled once for the search: the conjuncts' term DAG as a
/// local node array, domains as a `Vec` indexed by local variable, and a
/// watch list from each variable to the conjuncts that read it.
///
/// Propagation keeps a dirty flag per conjunct and revises only dirty
/// ones. A conjunct is clean when its last revise changed nothing and
/// none of its variables changed since; `revise` is deterministic in
/// those domains, so revising it again would change nothing either.
/// Skipping it therefore leaves verdicts, models and every counter as a
/// full sweep would, including on nodes cut off by `max_rounds`.
struct Search<'a> {
    ctx: &'a TermCtx,
    constraints: &'a [Constraint],
    config: SolverConfig,
    terms: Vec<Node>,
    /// Local variable index to global id.
    vars: Vec<VarId>,
    /// `(op, lhs, rhs)` per conjunct, in query order.
    cons: Vec<(CmpOp, u32, u32)>,
    /// Local variable index to the conjuncts that read it.
    watch: Vec<Vec<u32>>,
    nodes: u64,
    rounds: u64,
    backtracks: u64,
    budget_hit: bool,
}

enum PropOutcome {
    Ok,
    Contradiction,
}

impl<'a> Search<'a> {
    /// Compiles `constraints`, walking each distinct term once.
    fn new(ctx: &'a TermCtx, constraints: &'a [Constraint], config: SolverConfig) -> Search<'a> {
        let mut s = Search {
            ctx,
            constraints,
            config,
            terms: Vec::new(),
            vars: Vec::new(),
            cons: Vec::with_capacity(constraints.len()),
            watch: Vec::new(),
            nodes: 0,
            rounds: 0,
            backtracks: 0,
            budget_hit: false,
        };
        let mut memo = HashMap::new();
        for c in constraints {
            let lhs = s.compile(c.lhs, &mut memo);
            let rhs = s.compile(c.rhs, &mut memo);
            s.cons.push((c.op, lhs, rhs));
        }
        // Each conjunct's variables, found by a walk over its local DAG
        // that visits every node at most once per conjunct.
        let mut seen = vec![u32::MAX; s.terms.len()];
        let mut stack = Vec::new();
        for (ci, &(_, lhs, rhs)) in s.cons.iter().enumerate() {
            let ci = ci as u32;
            stack.extend([lhs, rhs]);
            while let Some(n) = stack.pop() {
                if std::mem::replace(&mut seen[n as usize], ci) == ci {
                    continue;
                }
                match s.terms[n as usize] {
                    Node::Const(_) => {}
                    Node::Var(v) => s.watch[v as usize].push(ci),
                    Node::Add(a, b)
                    | Node::Sub(a, b)
                    | Node::Mul(a, b)
                    | Node::Div(a, b)
                    | Node::Rem(a, b) => stack.extend([a, b]),
                    Node::Neg(a) => stack.push(a),
                }
            }
        }
        s
    }

    fn compile(&mut self, t: TermId, memo: &mut HashMap<TermId, u32>) -> u32 {
        if let Some(&n) = memo.get(&t) {
            return n;
        }
        let node = match self.ctx.term(t) {
            Term::Const(v) => Node::Const(v),
            // Variables are interned, so the memo also dedupes them.
            Term::Var(v) => {
                self.vars.push(v);
                self.watch.push(Vec::new());
                Node::Var(self.vars.len() as u32 - 1)
            }
            Term::Add(a, b) => Node::Add(self.compile(a, memo), self.compile(b, memo)),
            Term::Sub(a, b) => Node::Sub(self.compile(a, memo), self.compile(b, memo)),
            Term::Mul(a, b) => Node::Mul(self.compile(a, memo), self.compile(b, memo)),
            Term::Div(a, b) => Node::Div(self.compile(a, memo), self.compile(b, memo)),
            Term::Rem(a, b) => Node::Rem(self.compile(a, memo), self.compile(b, memo)),
            Term::Neg(a) => Node::Neg(self.compile(a, memo)),
        };
        let n = self.terms.len() as u32;
        self.terms.push(node);
        memo.insert(t, n);
        n
    }

    fn run(&mut self) -> SatResult {
        let domains = self.vars.iter().map(|&v| self.ctx.var_domain(v)).collect();
        let dirty = vec![true; self.cons.len()];
        match self.search(domains, dirty) {
            Some(model) => SatResult::Sat(model),
            None if self.budget_hit => SatResult::Unknown,
            None => SatResult::Unsat,
        }
    }

    fn search(&mut self, mut domains: Vec<Interval>, mut dirty: Vec<bool>) -> Option<Model> {
        self.nodes += 1;
        if self.nodes > self.config.max_nodes {
            self.budget_hit = true;
            return None;
        }
        if let PropOutcome::Contradiction = self.propagate(&mut domains, &mut dirty) {
            return None;
        }
        // Pick the unfixed variable with the smallest domain.
        let branch_var = (0..self.vars.len())
            .filter(|&i| !domains[i].is_point())
            .min_by_key(|&i| (domains[i].width(), self.vars[i].0));
        let Some(var) = branch_var else {
            // All variables fixed: verify concretely (propagation over
            // div/rem is conservative, so this check is load-bearing).
            let values = self.vars.iter().zip(&domains).map(|(v, d)| (*v, d.lo));
            let model = Model {
                values: values.collect(),
            };
            return model.satisfies(self.ctx, self.constraints).then_some(model);
        };
        // Lo-first splitting: try the smallest value, else the rest of
        // the domain. Complete, and reaches a model in O(#vars) nodes on
        // the byte-constraint chains symbolic string exploration emits.
        // The second child reuses this node's vectors.
        let dom = domains[var];
        let (mut lo_domains, mut lo_dirty) = (domains.clone(), dirty.clone());
        self.set_domain(var, Interval::point(dom.lo), &mut lo_domains, &mut lo_dirty);
        if let Some(m) = self.search(lo_domains, lo_dirty) {
            return Some(m);
        }
        if self.budget_hit {
            return None;
        }
        self.backtracks += 1;
        let rest = Interval::new(dom.lo.saturating_add(1), dom.hi);
        self.set_domain(var, rest, &mut domains, &mut dirty);
        self.search(domains, dirty)
    }

    /// Sets the domain of local variable `var` and dirties its watchers.
    fn set_domain(&self, var: usize, d: Interval, domains: &mut [Interval], dirty: &mut [bool]) {
        domains[var] = d;
        for &c in &self.watch[var] {
            dirty[c as usize] = true;
        }
    }

    /// Revises dirty constraints until fixpoint (or the round bound).
    fn propagate(&mut self, domains: &mut [Interval], dirty: &mut [bool]) -> PropOutcome {
        for _ in 0..self.config.max_rounds {
            self.rounds += 1;
            let mut changed = false;
            for c in 0..self.cons.len() {
                if !std::mem::take(&mut dirty[c]) {
                    continue;
                }
                match self.revise(c, domains, dirty) {
                    Ok(ch) => changed |= ch,
                    Err(()) => return PropOutcome::Contradiction,
                }
            }
            if !changed {
                break;
            }
        }
        PropOutcome::Ok
    }

    fn eval(&self, t: u32, domains: &[Interval]) -> Interval {
        match self.terms[t as usize] {
            Node::Const(v) => Interval::point(v),
            Node::Var(v) => domains[v as usize],
            Node::Add(a, b) => self.eval(a, domains).add(self.eval(b, domains)),
            Node::Sub(a, b) => self.eval(a, domains).sub(self.eval(b, domains)),
            Node::Mul(a, b) => self.eval(a, domains).mul(self.eval(b, domains)),
            Node::Div(a, b) => self.eval(a, domains).div(self.eval(b, domains)),
            Node::Rem(a, b) => self.eval(a, domains).rem(self.eval(b, domains)),
            Node::Neg(a) => self.eval(a, domains).neg(),
        }
    }

    fn as_const(&self, t: u32) -> Option<i64> {
        match self.terms[t as usize] {
            Node::Const(v) => Some(v),
            _ => None,
        }
    }

    /// One HC4 revise of conjunct `c`. `Err(())` = contradiction.
    fn revise(&self, c: usize, domains: &mut [Interval], dirty: &mut [bool]) -> Result<bool, ()> {
        let (op, lhs, rhs) = self.cons[c];
        let l = self.eval(lhs, domains);
        let r = self.eval(rhs, domains);
        if l.is_empty() || r.is_empty() {
            return Err(());
        }
        let (l_target, r_target) = match op {
            CmpOp::Le => {
                if l.lo > r.hi {
                    return Err(());
                }
                (Interval::new(i64::MIN, r.hi), Interval::new(l.lo, i64::MAX))
            }
            CmpOp::Lt => {
                if l.lo >= r.hi {
                    return Err(());
                }
                (
                    Interval::new(i64::MIN, r.hi.saturating_sub(1)),
                    Interval::new(l.lo.saturating_add(1), i64::MAX),
                )
            }
            CmpOp::Eq => {
                let meet = l.intersect(r);
                if meet.is_empty() {
                    return Err(());
                }
                (meet, meet)
            }
            CmpOp::Ne => {
                if l.is_point() && r.is_point() && l.lo == r.lo {
                    return Err(());
                }
                // Shave an endpoint when the other side is a singleton.
                let mut lt = l;
                let mut rt = r;
                if r.is_point() {
                    if lt.lo == r.lo {
                        lt.lo = lt.lo.saturating_add(1);
                    }
                    if lt.hi == r.lo {
                        lt.hi = lt.hi.saturating_sub(1);
                    }
                    if lt.is_empty() {
                        return Err(());
                    }
                }
                if l.is_point() {
                    if rt.lo == l.lo {
                        rt.lo = rt.lo.saturating_add(1);
                    }
                    if rt.hi == l.lo {
                        rt.hi = rt.hi.saturating_sub(1);
                    }
                    if rt.is_empty() {
                        return Err(());
                    }
                }
                (lt, rt)
            }
        };
        let mut changed = self.narrow(lhs, l_target, domains, dirty)?;
        changed |= self.narrow(rhs, r_target, domains, dirty)?;
        Ok(changed)
    }

    /// Backward (HC4) narrowing: force `eval(t) ⊆ target`. A narrowed
    /// variable dirties every conjunct that watches it.
    fn narrow(
        &self,
        t: u32,
        target: Interval,
        domains: &mut [Interval],
        dirty: &mut [bool],
    ) -> Result<bool, ()> {
        let cur = self.eval(t, domains);
        let meet = cur.intersect(target);
        if meet.is_empty() {
            return Err(());
        }
        if meet == cur {
            return Ok(false);
        }
        match self.terms[t as usize] {
            Node::Const(_) => Ok(false),
            Node::Var(v) => {
                self.set_domain(v as usize, meet, domains, dirty);
                Ok(true)
            }
            Node::Add(a, b) => {
                let eb = self.eval(b, domains);
                let mut ch = self.narrow(a, meet.sub(eb), domains, dirty)?;
                let ea = self.eval(a, domains);
                ch |= self.narrow(b, meet.sub(ea), domains, dirty)?;
                Ok(ch)
            }
            Node::Sub(a, b) => {
                let eb = self.eval(b, domains);
                let mut ch = self.narrow(a, meet.add(eb), domains, dirty)?;
                let ea = self.eval(a, domains);
                ch |= self.narrow(b, ea.sub(meet), domains, dirty)?;
                Ok(ch)
            }
            Node::Neg(a) => self.narrow(a, meet.neg(), domains, dirty),
            Node::Mul(a, b) => {
                let mut ch = false;
                if let Some(cb) = self.as_const(b) {
                    if cb != 0 {
                        ch |= self.narrow(a, div_range_for_mul(meet, cb), domains, dirty)?;
                    }
                }
                if let Some(ca) = self.as_const(a) {
                    if ca != 0 {
                        ch |= self.narrow(b, div_range_for_mul(meet, ca), domains, dirty)?;
                    }
                }
                Ok(ch)
            }
            // Division/remainder: evaluation-only (no backward narrowing);
            // the final concrete verification keeps this sound.
            Node::Div(_, _) | Node::Rem(_, _) => Ok(false),
        }
    }
}

/// The tightest interval `X` such that `x ∈ X ⇒ x * c` may lie in
/// `target` (for constant `c != 0`).
fn div_range_for_mul(target: Interval, c: i64) -> Interval {
    debug_assert!(c != 0);
    let (lo, hi) = if c > 0 {
        (ceil_div(target.lo, c), floor_div(target.hi, c))
    } else {
        (ceil_div(target.hi, c), floor_div(target.lo, c))
    };
    Interval::new(lo, hi)
}

fn floor_div(a: i64, b: i64) -> i64 {
    let q = a.wrapping_div(b);
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

fn ceil_div(a: i64, b: i64) -> i64 {
    let q = a.wrapping_div(b);
    if (a % b != 0) && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

/// The search as it was before queries were compiled: `HashMap`
/// domains, every conjunct revised in every round, terms read through
/// the `TermCtx`. Kept as the reference the compiled search must match
/// exactly (verdict, model and work counters).
#[cfg(test)]
mod reference {
    use super::{div_range_for_mul, Model, PropOutcome, SatResult, SolverConfig};
    use crate::interval::Interval;
    use crate::term::{CmpOp, Constraint, Term, TermCtx, TermId, VarId};
    use std::collections::HashMap;

    pub(super) struct Search<'a> {
        pub(super) ctx: &'a TermCtx,
        pub(super) constraints: &'a [Constraint],
        pub(super) config: SolverConfig,
        pub(super) nodes: u64,
        pub(super) rounds: u64,
        pub(super) backtracks: u64,
        pub(super) budget_hit: bool,
    }

    /// Domains are indexed by `VarId`; only variables relevant to the query
    /// are tracked.
    type Domains = HashMap<VarId, Interval>;

    impl<'a> Search<'a> {
        pub(super) fn run(&mut self) -> SatResult {
            let mut domains: Domains = HashMap::new();
            for c in self.constraints {
                for t in [c.lhs, c.rhs] {
                    for v in self.ctx.vars_of(t) {
                        domains.entry(v).or_insert_with(|| self.ctx.var_domain(v));
                    }
                }
            }
            match self.search(domains) {
                Some(model) => SatResult::Sat(model),
                None if self.budget_hit => SatResult::Unknown,
                None => SatResult::Unsat,
            }
        }

        fn search(&mut self, mut domains: Domains) -> Option<Model> {
            self.nodes += 1;
            if self.nodes > self.config.max_nodes {
                self.budget_hit = true;
                return None;
            }
            if let PropOutcome::Contradiction = self.propagate(&mut domains) {
                return None;
            }
            // Pick the unfixed variable with the smallest domain.
            let branch_var = domains
                .iter()
                .filter(|(_, d)| !d.is_point())
                .min_by_key(|(v, d)| (d.width(), v.0))
                .map(|(v, d)| (*v, *d));
            let Some((var, dom)) = branch_var else {
                // All variables fixed: verify concretely (propagation over
                // div/rem is conservative, so this check is load-bearing).
                let model = Model {
                    values: domains.iter().map(|(v, d)| (*v, d.lo)).collect(),
                };
                return model.satisfies(self.ctx, self.constraints).then_some(model);
            };
            // Lo-first splitting: try the smallest value, else the rest of
            // the domain. Complete, and reaches a model in O(#vars) nodes on
            // the byte-constraint chains symbolic string exploration emits.
            for (i, part) in [
                Interval::point(dom.lo),
                Interval::new(dom.lo.saturating_add(1), dom.hi),
            ]
            .into_iter()
            .enumerate()
            {
                if i > 0 {
                    self.backtracks += 1;
                }
                let mut next = domains.clone();
                next.insert(var, part);
                if let Some(m) = self.search(next) {
                    return Some(m);
                }
                if self.budget_hit {
                    return None;
                }
            }
            None
        }

        /// Revises all constraints until fixpoint (or the round bound).
        fn propagate(&mut self, domains: &mut Domains) -> PropOutcome {
            for _ in 0..self.config.max_rounds {
                self.rounds += 1;
                let mut changed = false;
                for c in self.constraints {
                    match self.revise(c, domains) {
                        Ok(ch) => changed |= ch,
                        Err(()) => return PropOutcome::Contradiction,
                    }
                }
                if !changed {
                    break;
                }
            }
            PropOutcome::Ok
        }

        fn eval(&self, t: TermId, domains: &Domains) -> Interval {
            match self.ctx.term(t) {
                Term::Const(v) => Interval::point(v),
                Term::Var(v) => domains
                    .get(&v)
                    .copied()
                    .unwrap_or_else(|| self.ctx.var_domain(v)),
                Term::Add(a, b) => self.eval(a, domains).add(self.eval(b, domains)),
                Term::Sub(a, b) => self.eval(a, domains).sub(self.eval(b, domains)),
                Term::Mul(a, b) => self.eval(a, domains).mul(self.eval(b, domains)),
                Term::Div(a, b) => self.eval(a, domains).div(self.eval(b, domains)),
                Term::Rem(a, b) => self.eval(a, domains).rem(self.eval(b, domains)),
                Term::Neg(a) => self.eval(a, domains).neg(),
            }
        }

        /// One HC4 revise of a single constraint. `Err(())` = contradiction.
        fn revise(&self, c: &Constraint, domains: &mut Domains) -> Result<bool, ()> {
            let l = self.eval(c.lhs, domains);
            let r = self.eval(c.rhs, domains);
            if l.is_empty() || r.is_empty() {
                return Err(());
            }
            let (l_target, r_target) = match c.op {
                CmpOp::Le => {
                    if l.lo > r.hi {
                        return Err(());
                    }
                    (Interval::new(i64::MIN, r.hi), Interval::new(l.lo, i64::MAX))
                }
                CmpOp::Lt => {
                    if l.lo >= r.hi {
                        return Err(());
                    }
                    (
                        Interval::new(i64::MIN, r.hi.saturating_sub(1)),
                        Interval::new(l.lo.saturating_add(1), i64::MAX),
                    )
                }
                CmpOp::Eq => {
                    let meet = l.intersect(r);
                    if meet.is_empty() {
                        return Err(());
                    }
                    (meet, meet)
                }
                CmpOp::Ne => {
                    if l.is_point() && r.is_point() && l.lo == r.lo {
                        return Err(());
                    }
                    // Shave an endpoint when the other side is a singleton.
                    let mut lt = l;
                    let mut rt = r;
                    if r.is_point() {
                        if lt.lo == r.lo {
                            lt.lo = lt.lo.saturating_add(1);
                        }
                        if lt.hi == r.lo {
                            lt.hi = lt.hi.saturating_sub(1);
                        }
                        if lt.is_empty() {
                            return Err(());
                        }
                    }
                    if l.is_point() {
                        if rt.lo == l.lo {
                            rt.lo = rt.lo.saturating_add(1);
                        }
                        if rt.hi == l.lo {
                            rt.hi = rt.hi.saturating_sub(1);
                        }
                        if rt.is_empty() {
                            return Err(());
                        }
                    }
                    (lt, rt)
                }
            };
            let mut changed = self.narrow(c.lhs, l_target, domains)?;
            changed |= self.narrow(c.rhs, r_target, domains)?;
            Ok(changed)
        }

        /// Backward (HC4) narrowing: force `eval(t) ⊆ target`.
        fn narrow(&self, t: TermId, target: Interval, domains: &mut Domains) -> Result<bool, ()> {
            let cur = self.eval(t, domains);
            let meet = cur.intersect(target);
            if meet.is_empty() {
                return Err(());
            }
            if meet == cur {
                return Ok(false);
            }
            match self.ctx.term(t) {
                Term::Const(_) => Ok(false),
                Term::Var(v) => {
                    domains.insert(v, meet);
                    Ok(true)
                }
                Term::Add(a, b) => {
                    let eb = self.eval(b, domains);
                    let mut ch = self.narrow(a, meet.sub(eb), domains)?;
                    let ea = self.eval(a, domains);
                    ch |= self.narrow(b, meet.sub(ea), domains)?;
                    Ok(ch)
                }
                Term::Sub(a, b) => {
                    let eb = self.eval(b, domains);
                    let mut ch = self.narrow(a, meet.add(eb), domains)?;
                    let ea = self.eval(a, domains);
                    ch |= self.narrow(b, ea.sub(meet), domains)?;
                    Ok(ch)
                }
                Term::Neg(a) => self.narrow(a, meet.neg(), domains),
                Term::Mul(a, b) => {
                    let mut ch = false;
                    if let Some(cb) = self.ctx.as_const(b) {
                        if cb != 0 {
                            ch |= self.narrow(a, div_range_for_mul(meet, cb), domains)?;
                        }
                    }
                    if let Some(ca) = self.ctx.as_const(a) {
                        if ca != 0 {
                            ch |= self.narrow(b, div_range_for_mul(meet, ca), domains)?;
                        }
                    }
                    Ok(ch)
                }
                // Division/remainder: evaluation-only (no backward narrowing);
                // the final concrete verification keeps this sound.
                Term::Div(_, _) | Term::Rem(_, _) => Ok(false),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sat(ctx: &TermCtx, cs: &[Constraint]) -> Model {
        match Solver::default().check(ctx, cs) {
            SatResult::Sat(m) => {
                assert!(m.satisfies(ctx, cs), "returned model must satisfy");
                m
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    fn unsat(ctx: &TermCtx, cs: &[Constraint]) {
        assert_eq!(Solver::default().check(ctx, cs), SatResult::Unsat);
    }

    #[test]
    fn empty_query_is_sat() {
        let ctx = TermCtx::new();
        assert!(Solver::default().check(&ctx, &[]).is_sat());
    }

    #[test]
    fn simple_bounds() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 255);
        let c100 = ctx.int(100);
        let c200 = ctx.int(200);
        let m = sat(
            &ctx,
            &[
                Constraint::new(CmpOp::Lt, c100, x),
                Constraint::new(CmpOp::Lt, x, c200),
            ],
        );
        let v = m.value_of(x, &ctx).unwrap();
        assert!(v > 100 && v < 200);
    }

    #[test]
    fn contradictory_bounds_unsat() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 255);
        let c10 = ctx.int(10);
        let c5 = ctx.int(5);
        unsat(
            &ctx,
            &[
                Constraint::new(CmpOp::Lt, x, c5),
                Constraint::new(CmpOp::Lt, c10, x),
            ],
        );
    }

    #[test]
    fn equality_chain_propagates() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 1000);
        let y = ctx.new_var("y", 0, 1000);
        let c7 = ctx.int(7);
        let sum = ctx.add(x, c7);
        let c42 = ctx.int(42);
        let m = sat(
            &ctx,
            &[
                Constraint::new(CmpOp::Eq, sum, c42), // x + 7 == 42
                Constraint::new(CmpOp::Eq, y, x),     // y == x
            ],
        );
        assert_eq!(m.get(var_of(&ctx, x)), Some(35));
        assert_eq!(m.get(var_of(&ctx, y)), Some(35));
    }

    fn var_of(ctx: &TermCtx, t: TermId) -> VarId {
        match ctx.term(t) {
            Term::Var(v) => v,
            _ => panic!("not a var"),
        }
    }

    #[test]
    fn ne_constraints_on_bytes() {
        // Models the strlen pattern: bytes 0..3 nonzero, byte 3 == 0.
        let mut ctx = TermCtx::new();
        let zero = ctx.int(0);
        let bytes: Vec<TermId> = (0..4)
            .map(|i| ctx.new_var(format!("b{i}"), 0, 255))
            .collect();
        let mut cs: Vec<Constraint> = bytes[..3]
            .iter()
            .map(|&b| Constraint::new(CmpOp::Ne, b, zero))
            .collect();
        cs.push(Constraint::new(CmpOp::Eq, bytes[3], zero));
        let m = sat(&ctx, &cs);
        for b in &bytes[..3] {
            assert_ne!(m.value_of(*b, &ctx).unwrap(), 0);
        }
        assert_eq!(m.value_of(bytes[3], &ctx).unwrap(), 0);
    }

    #[test]
    fn multiplication_by_constant_narrows() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 1_000_000);
        let c3 = ctx.int(3);
        let prod = ctx.mul(x, c3);
        let c300 = ctx.int(300);
        let m = sat(&ctx, &[Constraint::new(CmpOp::Eq, prod, c300)]);
        assert_eq!(m.value_of(x, &ctx).unwrap(), 100);
        // 3x == 301 has no integer solution.
        let c301 = ctx.int(301);
        unsat(&ctx, &[Constraint::new(CmpOp::Eq, prod, c301)]);
    }

    #[test]
    fn division_needs_search_but_verifies() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 40);
        let c4 = ctx.int(4);
        let q = ctx.div(x, c4);
        let c7 = ctx.int(7);
        let m = sat(&ctx, &[Constraint::new(CmpOp::Eq, q, c7)]);
        let v = m.value_of(x, &ctx).unwrap();
        assert_eq!(v / 4, 7);
    }

    #[test]
    fn subtraction_with_negatives() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", -100, 100);
        let y = ctx.new_var("y", -100, 100);
        let diff = ctx.sub(x, y);
        let c150 = ctx.int(150);
        let m = sat(&ctx, &[Constraint::new(CmpOp::Eq, diff, c150)]);
        let (vx, vy) = (m.value_of(x, &ctx).unwrap(), m.value_of(y, &ctx).unwrap());
        assert_eq!(vx - vy, 150);
    }

    #[test]
    fn negation_narrowing() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", -50, 50);
        let nx = ctx.neg(x);
        let c30 = ctx.int(30);
        let m = sat(&ctx, &[Constraint::new(CmpOp::Eq, nx, c30)]);
        assert_eq!(m.value_of(x, &ctx).unwrap(), -30);
    }

    #[test]
    fn cache_hits_are_counted() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 9);
        let c5 = ctx.int(5);
        let cs = [Constraint::new(CmpOp::Eq, x, c5)];
        let mut solver = Solver::default();
        solver.check(&ctx, &cs);
        solver.check(&ctx, &cs);
        assert_eq!(solver.stats().cache_hits, 1);
        assert_eq!(solver.stats().queries, 2);
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        // x * y == large prime-ish over huge domains, with a 1-node budget.
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 2, 1_000_000_000);
        let y = ctx.new_var("y", 2, 1_000_000_000);
        let prod = ctx.mul(x, y);
        let target = ctx.int(999_999_937);
        let mut solver = Solver::with_config(SolverConfig {
            max_nodes: 1,
            ..SolverConfig::default()
        });
        let r = solver.check(&ctx, &[Constraint::new(CmpOp::Eq, prod, target)]);
        assert_eq!(r, SatResult::Unknown);
    }

    #[test]
    fn le_lt_boundaries_exact() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 10);
        let c10 = ctx.int(10);
        // x >= 10 (as 10 <= x) has exactly one solution in [0,10].
        let m = sat(&ctx, &[Constraint::new(CmpOp::Le, c10, x)]);
        assert_eq!(m.value_of(x, &ctx).unwrap(), 10);
        // x > 10 is unsat.
        unsat(&ctx, &[Constraint::new(CmpOp::Lt, c10, x)]);
    }

    #[test]
    fn propagation_rounds_and_backtracks_are_counted() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 40);
        let c4 = ctx.int(4);
        let q = ctx.div(x, c4);
        let c7 = ctx.int(7);
        let mut solver = Solver::default();
        // Division defeats narrowing, forcing the search to enumerate
        // x lo-first: 28 failed first partitions before x == 28 works.
        let r = solver.check(&ctx, &[Constraint::new(CmpOp::Eq, q, c7)]);
        assert!(r.is_sat());
        let stats = solver.stats();
        assert!(stats.propagation_rounds > 0, "{stats:?}");
        assert_eq!(stats.backtracks, 28, "{stats:?}");
        // A pure-propagation query adds rounds but no backtracks.
        let before = solver.stats();
        let c5 = ctx.int(5);
        solver.check(&ctx, &[Constraint::new(CmpOp::Eq, x, c5)]);
        let after = solver.stats();
        assert!(after.propagation_rounds > before.propagation_rounds);
        assert_eq!(after.backtracks, before.backtracks);
    }

    #[test]
    fn check_traced_matches_check() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 9);
        let c5 = ctx.int(5);
        let cs = [Constraint::new(CmpOp::Eq, x, c5)];
        let mut a = Solver::default();
        let mut b = Solver::default();
        let rec = statsym_telemetry::MemRecorder::new(statsym_telemetry::Clock::wall());
        assert_eq!(a.check(&ctx, &cs), b.check_traced(&ctx, &cs, &rec));
        // Identical work counters; only the traced solver accumulates
        // wall-clock query time, so normalize it out.
        assert_eq!(
            a.stats(),
            SolverStats {
                query_us: 0,
                ..b.stats()
            }
        );
        // Wall-clock trace captured the query latency.
        let h = rec
            .metrics()
            .hist(statsym_telemetry::names::SOLVER_QUERY_US)
            .expect("latency histogram present");
        assert_eq!(h.count, 1);
    }

    #[test]
    fn shared_cache_answers_unsat_across_solvers() {
        use crate::cache::SharedCache;
        use std::sync::Arc;
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 255);
        let c5 = ctx.int(5);
        let c10 = ctx.int(10);
        let cs = [
            Constraint::new(CmpOp::Lt, x, c5),
            Constraint::new(CmpOp::Lt, c10, x),
        ];
        let shared: Arc<SharedCache> = Arc::new(SharedCache::new(4));
        let mut a = Solver::default();
        a.set_query_cache(shared.clone());
        assert_eq!(a.check(&ctx, &cs), SatResult::Unsat);
        assert_eq!(a.stats().shared_misses, 1);

        // A different solver over a *different* context with the same
        // structural constraints answers from the shared cache.
        let mut ctx2 = TermCtx::new();
        let x2 = ctx2.new_var("x", 0, 255);
        let c5b = ctx2.int(5);
        let c10b = ctx2.int(10);
        let cs2 = [
            Constraint::new(CmpOp::Lt, x2, c5b),
            Constraint::new(CmpOp::Lt, c10b, x2),
        ];
        let mut b = Solver::default();
        b.set_query_cache(shared.clone());
        assert_eq!(b.check(&ctx2, &cs2), SatResult::Unsat);
        assert_eq!(b.stats().shared_hits, 1);
        assert_eq!(b.stats().nodes, 0, "no local search on a shared hit");
    }

    #[test]
    fn shared_sat_hit_is_model_free_only() {
        use crate::cache::SharedCache;
        use std::sync::Arc;
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 255);
        let c5 = ctx.int(5);
        let cs = [Constraint::new(CmpOp::Eq, x, c5)];
        let shared: Arc<SharedCache> = Arc::new(SharedCache::new(1));
        let mut a = Solver::default();
        a.set_query_cache(shared.clone());
        assert!(a.check_sat(&ctx, &cs).is_sat());

        // check_sat on another solver: answered from the shared cache.
        let mut b = Solver::default();
        b.set_query_cache(shared.clone());
        assert!(b.check_sat(&ctx, &cs).is_sat());
        assert_eq!(b.stats().shared_hits, 1);

        // check (model required) must NOT use the shared Sat verdict:
        // it solves locally and returns a real, verified model.
        let mut c = Solver::default();
        c.set_query_cache(shared);
        match c.check(&ctx, &cs) {
            SatResult::Sat(m) => {
                assert!(m.satisfies(&ctx, &cs));
                assert_eq!(m.value_of(x, &ctx), Some(5));
            }
            other => panic!("expected sat, got {other:?}"),
        }
        assert_eq!(c.stats().shared_hits, 0);
        assert_eq!(c.stats().shared_misses, 1);
    }

    #[test]
    fn private_sat_hit_is_model_free_for_check_sat() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 255);
        let c5 = ctx.int(5);
        let cs = [Constraint::new(CmpOp::Eq, x, c5)];
        let mut solver = Solver::default();
        assert!(solver.check(&ctx, &cs).is_sat());
        // A model-free hit carries an empty model ...
        assert_eq!(
            solver.check_sat(&ctx, &cs),
            SatResult::Sat(Model::default())
        );
        // ... and leaves the cached model for callers that need it.
        match solver.check(&ctx, &cs) {
            SatResult::Sat(m) => assert_eq!(m.value_of(x, &ctx), Some(5)),
            other => panic!("expected sat, got {other:?}"),
        }
        let s = solver.stats();
        assert_eq!((s.queries, s.cache_hits, s.sat), (3, 2, 3), "{s:?}");
    }

    #[test]
    fn unknown_results_are_not_shared() {
        use crate::cache::SharedCache;
        use std::sync::Arc;
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 2, 1_000_000_000);
        let y = ctx.new_var("y", 2, 1_000_000_000);
        let prod = ctx.mul(x, y);
        let target = ctx.int(999_999_937);
        let shared: Arc<SharedCache> = Arc::new(SharedCache::new(1));
        let mut solver = Solver::with_config(SolverConfig {
            max_nodes: 1,
            ..SolverConfig::default()
        });
        solver.set_query_cache(shared.clone());
        let r = solver.check(&ctx, &[Constraint::new(CmpOp::Eq, prod, target)]);
        assert_eq!(r, SatResult::Unknown);
        assert_eq!(shared.entries(), 0, "Unknown must not be published");
    }

    #[test]
    fn check_sat_matches_check_verdicts_without_sharing() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 9);
        let c5 = ctx.int(5);
        let c20 = ctx.int(20);
        for cs in [
            vec![Constraint::new(CmpOp::Eq, x, c5)],
            vec![Constraint::new(CmpOp::Eq, x, c20)],
        ] {
            let mut a = Solver::default();
            let mut b = Solver::default();
            assert_eq!(a.check(&ctx, &cs).is_sat(), b.check_sat(&ctx, &cs).is_sat());
            assert_eq!(
                a.check(&ctx, &cs).is_unsat(),
                b.check_sat(&ctx, &cs).is_unsat()
            );
        }
    }

    #[test]
    fn slicing_decides_disjoint_components_and_merges_models() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 255);
        let y = ctx.new_var("y", 0, 255);
        let c5 = ctx.int(5);
        let c9 = ctx.int(9);
        let cs = [
            Constraint::new(CmpOp::Eq, x, c5),
            Constraint::new(CmpOp::Eq, y, c9),
        ];
        let mut sliced = Solver::with_config(SolverConfig {
            slice: true,
            ..SolverConfig::default()
        });
        match sliced.check(&ctx, &cs) {
            SatResult::Sat(m) => {
                assert!(m.satisfies(&ctx, &cs));
                assert_eq!(m.value_of(x, &ctx), Some(5));
                assert_eq!(m.value_of(y, &ctx), Some(9));
            }
            other => panic!("expected sat, got {other:?}"),
        }
        let s = sliced.stats();
        assert_eq!(s.indep_queries, 1);
        assert_eq!(s.indep_components, 2);
        assert_eq!(s.sat, 1, "the whole query counts once");
        assert_eq!(s.queries, 1);

        // A later query extending one component reuses the other's
        // cached component verdict.
        let c7 = ctx.int(7);
        let cs2 = [
            Constraint::new(CmpOp::Eq, x, c5),
            Constraint::new(CmpOp::Lt, y, c7),
        ];
        sliced.check(&ctx, &cs2);
        assert_eq!(sliced.stats().indep_comp_hits, 1, "{:?}", sliced.stats());
    }

    #[test]
    fn slicing_unsat_component_refutes_whole() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 255);
        let y = ctx.new_var("y", 0, 255);
        let c5 = ctx.int(5);
        let c10 = ctx.int(10);
        let cs = [
            Constraint::new(CmpOp::Eq, x, c5),
            Constraint::new(CmpOp::Lt, y, c5),
            Constraint::new(CmpOp::Lt, c10, y),
        ];
        let mut sliced = Solver::with_config(SolverConfig {
            slice: true,
            ..SolverConfig::default()
        });
        assert_eq!(sliced.check(&ctx, &cs), SatResult::Unsat);
        let s = sliced.stats();
        assert_eq!(s.indep_queries, 1);
        assert_eq!(s.indep_components, 2);
        assert_eq!(s.unsat, 1);
    }

    #[test]
    fn slicing_matches_unsliced_verdicts() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 255);
        let y = ctx.new_var("y", 0, 255);
        let z = ctx.new_var("z", -50, 50);
        let c5 = ctx.int(5);
        let c10 = ctx.int(10);
        let sum = ctx.add(x, y);
        let nz = ctx.neg(z);
        let queries: Vec<Vec<Constraint>> = vec![
            vec![
                Constraint::new(CmpOp::Lt, x, c10),
                Constraint::new(CmpOp::Eq, z, c5),
            ],
            vec![
                Constraint::new(CmpOp::Eq, sum, c10),
                Constraint::new(CmpOp::Lt, nz, c5),
            ],
            vec![
                Constraint::new(CmpOp::Lt, x, c5),
                Constraint::new(CmpOp::Lt, c10, x),
                Constraint::new(CmpOp::Eq, y, c5),
            ],
            vec![
                Constraint::new(CmpOp::Ne, x, c5),
                Constraint::new(CmpOp::Ne, y, c10),
                Constraint::new(CmpOp::Eq, z, c5),
            ],
        ];
        for cs in &queries {
            let mut plain = Solver::default();
            let mut sliced = Solver::with_config(SolverConfig {
                slice: true,
                ..SolverConfig::default()
            });
            let a = plain.check(&ctx, cs);
            let b = sliced.check(&ctx, cs);
            assert_eq!(a.is_sat(), b.is_sat(), "{cs:?}");
            assert_eq!(a.is_unsat(), b.is_unsat(), "{cs:?}");
            if let SatResult::Sat(m) = &b {
                assert!(m.satisfies(&ctx, cs), "sliced model must verify: {cs:?}");
            }
        }
    }

    #[test]
    fn ucache_subset_answers_unsat_without_search() {
        use crate::cache::UnsatCache;
        use std::sync::Arc;
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 255);
        let c5 = ctx.int(5);
        let c10 = ctx.int(10);
        let core = [
            Constraint::new(CmpOp::Lt, x, c5),
            Constraint::new(CmpOp::Lt, c10, x),
        ];
        let uc = Arc::new(UnsatCache::default());
        let mut a = Solver::default();
        a.set_unsat_cache(uc.clone());
        assert_eq!(a.check(&ctx, &core), SatResult::Unsat);
        assert_eq!(a.stats().ucache_stores, 1);

        // A *superset* query on a fresh solver (cold private cache) is
        // answered by subset matching, with zero search nodes.
        let y = ctx.new_var("y", 0, 255);
        let mut wider = core.to_vec();
        wider.push(Constraint::new(CmpOp::Eq, y, c5));
        let mut b = Solver::default();
        b.set_unsat_cache(uc);
        assert_eq!(b.check(&ctx, &wider), SatResult::Unsat);
        assert_eq!(b.stats().ucache_sub_hits, 1);
        assert_eq!(b.stats().nodes, 0, "no local search on a subset hit");
    }

    #[test]
    fn ucache_superset_model_reuse_verifies_before_serving() {
        use crate::cache::UnsatCache;
        use std::sync::Arc;
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 255);
        let y = ctx.new_var("y", 0, 255);
        let c5 = ctx.int(5);
        let c9 = ctx.int(9);
        let both = [
            Constraint::new(CmpOp::Eq, x, c5),
            Constraint::new(CmpOp::Eq, y, c9),
        ];
        let uc = Arc::new(UnsatCache::default());
        let mut a = Solver::default();
        a.set_unsat_cache(uc.clone());
        assert!(a.check(&ctx, &both).is_sat());

        // The subset query {x == 5} reuses the superset entry's model.
        let sub = [Constraint::new(CmpOp::Eq, x, c5)];
        let mut b = Solver::default();
        b.set_unsat_cache(uc);
        match b.check(&ctx, &sub) {
            SatResult::Sat(m) => {
                assert!(m.satisfies(&ctx, &sub));
                assert_eq!(m.value_of(x, &ctx), Some(5));
            }
            other => panic!("expected sat, got {other:?}"),
        }
        assert_eq!(b.stats().ucache_sup_hits, 1);
        assert_eq!(b.stats().nodes, 0, "no local search on a verified reuse");
    }

    #[test]
    fn ucache_never_serves_unverified_model_across_slices() {
        use crate::cache::UnsatCache;
        use std::sync::Arc;
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 255);
        let c10 = ctx.int(10);
        // Query: 10 <= x.
        let cs = [Constraint::new(CmpOp::Le, c10, x)];
        // Poison the cache with a superset entry whose model violates
        // the query (as if it came from a different conjunct slice or a
        // colliding context): hashes = query's hash + one extra, model
        // assigns x = 3.
        let uc = Arc::new(UnsatCache::default());
        let h = ctx.constraint_hash(&cs[0]);
        let bad = Model {
            values: HashMap::from([(var_of(&ctx, x), 3)]),
        };
        uc.store_sat(vec![h, h ^ 0xdead], bad);
        let mut solver = Solver::default();
        solver.set_unsat_cache(uc);
        match solver.check(&ctx, &cs) {
            SatResult::Sat(m) => {
                // The poisoned model was rejected by verification and a
                // real search produced a correct one.
                assert!(m.satisfies(&ctx, &cs));
                assert!(m.value_of(x, &ctx).unwrap() >= 10);
            }
            other => panic!("expected sat, got {other:?}"),
        }
        let s = solver.stats();
        assert_eq!(s.ucache_sup_rejects, 1, "{s:?}");
        assert_eq!(s.ucache_sup_hits, 0);
        assert!(s.nodes > 0, "rejection must fall through to search");
    }

    #[test]
    fn provenance_events_carry_disposition_and_context() {
        use statsym_telemetry::{Clock, MemRecorder, TraceEvent};
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 9);
        let c5 = ctx.int(5);
        let cs = [Constraint::new(CmpOp::Eq, x, c5)];
        let rec = MemRecorder::new(Clock::steps());
        let mut solver = Solver::default();
        solver.set_provenance(2);
        solver.set_query_origin(7, "convert:4");
        solver.check_traced_at(&ctx, &cs, &rec, "feasibility");
        solver.check_traced_at(&ctx, &cs, &rec, "feasibility");
        solver.check_traced(&ctx, &[], &rec);
        let queries: Vec<_> = rec
            .events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Query {
                    sid,
                    loc,
                    rank,
                    site,
                    verdict,
                    cache,
                    us,
                    ..
                } => Some((sid, loc, rank, site, verdict, cache, us)),
                _ => None,
            })
            .collect();
        assert_eq!(queries.len(), 3);
        assert_eq!(
            queries[0],
            (
                7,
                "convert:4".to_string(),
                2,
                "feasibility".to_string(),
                "sat".to_string(),
                "search".to_string(),
                0, // µs zeroed under the deterministic step clock
            )
        );
        assert_eq!(queries[1].5, "private");
        assert_eq!(queries[2].3, "check", "untagged callsite falls back");
        assert_eq!(queries[2].5, "empty");
        // Every emitted line survives the strict parser.
        for ev in rec.events() {
            let line = ev.to_json_line();
            statsym_telemetry::parse_trace_strict(&line).unwrap_or_else(|e| {
                panic!("strict parse failed for {line}: {e}");
            });
        }

        // Without set_provenance, no query events are emitted.
        let rec2 = MemRecorder::new(Clock::steps());
        let mut plain = Solver::default();
        plain.check_traced_at(&ctx, &cs, &rec2, "feasibility");
        assert!(rec2
            .events()
            .iter()
            .all(|e| !matches!(e, TraceEvent::Query { .. })));
    }

    #[test]
    fn floor_ceil_div_helpers() {
        assert_eq!(floor_div(7, 2), 3);
        assert_eq!(floor_div(-7, 2), -4);
        assert_eq!(ceil_div(7, 2), 4);
        assert_eq!(ceil_div(-7, 2), -3);
        assert_eq!(floor_div(6, 3), 2);
        assert_eq!(ceil_div(6, 3), 2);
        assert_eq!(floor_div(7, -2), -4);
        assert_eq!(ceil_div(-7, -2), 4);
    }

    /// What one search returns and the work it counted:
    /// `(result, nodes, rounds, backtracks, budget_hit)`.
    type Outcome = (SatResult, u64, u64, u64, bool);

    /// Runs the compiled search and the reference on one query.
    fn run_both(ctx: &TermCtx, cs: &[Constraint], config: SolverConfig) -> (Outcome, Outcome) {
        let mut s = Search::new(ctx, cs, config);
        let r = s.run();
        let new = (r, s.nodes, s.rounds, s.backtracks, s.budget_hit);
        let mut s = reference::Search {
            ctx,
            constraints: cs,
            config,
            nodes: 0,
            rounds: 0,
            backtracks: 0,
            budget_hit: false,
        };
        let r = s.run();
        (new, (r, s.nodes, s.rounds, s.backtracks, s.budget_hit))
    }

    #[test]
    fn mutual_lt_truncates_at_max_rounds_like_reference() {
        // Each revise of x < y ∧ y < x over [0, 1000] shaves one value
        // off each end, so every node hits the 64-round cap before the
        // domains cross; only splitting refutes the query.
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 1000);
        let y = ctx.new_var("y", 0, 1000);
        let cs = [
            Constraint::new(CmpOp::Lt, x, y),
            Constraint::new(CmpOp::Lt, y, x),
        ];
        let (new, old) = run_both(&ctx, &cs, SolverConfig::default());
        assert_eq!(new, old);
        assert_eq!(new, (SatResult::Unsat, 7, 253, 3, false));
    }

    #[test]
    fn child_inherits_dirty_flags_of_truncated_parent() {
        // One round per node: the root stops with x < y and y < x still
        // dirty, then branches on the narrower `a`, which neither reads.
        // The children must still revise them.
        let mut ctx = TermCtx::new();
        let a = ctx.new_var("a", 0, 3);
        let x = ctx.new_var("x", 0, 1000);
        let y = ctx.new_var("y", 0, 1000);
        let one = ctx.int(1);
        let cs = [
            Constraint::new(CmpOp::Ne, a, one),
            Constraint::new(CmpOp::Lt, x, y),
            Constraint::new(CmpOp::Lt, y, x),
        ];
        let config = SolverConfig {
            max_rounds: 1,
            ..SolverConfig::default()
        };
        let (new, old) = run_both(&ctx, &cs, config);
        assert_eq!(new, old);
        assert_eq!(new, (SatResult::Unsat, 1195, 1195, 597, false));
    }

    /// A random term over up to six variables.
    #[derive(Debug, Clone)]
    enum Expr {
        Var(usize),
        Const(i64),
        Neg(Box<Expr>),
        /// Operator 0..5: add, sub, mul, div, rem.
        Bin(u8, Box<Expr>, Box<Expr>),
    }

    fn expr() -> impl proptest::Strategy<Value = Expr> {
        use proptest::prelude::*;
        prop_oneof![
            (0usize..6).prop_map(Expr::Var),
            (0usize..6).prop_map(Expr::Var),
            (-12i64..=12).prop_map(Expr::Const),
        ]
        .prop_recursive(3, 16, 2, |inner| {
            prop_oneof![
                inner.clone().prop_map(|e| Expr::Neg(Box::new(e))),
                (0u8..5, inner.clone(), inner).prop_map(|(op, a, b)| Expr::Bin(
                    op,
                    Box::new(a),
                    Box::new(b)
                )),
            ]
        })
    }

    fn build(ctx: &mut TermCtx, vars: &[TermId], e: &Expr) -> TermId {
        match e {
            Expr::Var(i) => vars[i % vars.len()],
            Expr::Const(v) => ctx.int(*v),
            Expr::Neg(a) => {
                let a = build(ctx, vars, a);
                ctx.neg(a)
            }
            Expr::Bin(op, a, b) => {
                let (a, b) = (build(ctx, vars, a), build(ctx, vars, b));
                match op {
                    0 => ctx.add(a, b),
                    1 => ctx.sub(a, b),
                    2 => ctx.mul(a, b),
                    3 => ctx.div(a, b),
                    _ => ctx.rem(a, b),
                }
            }
        }
    }

    proptest::proptest! {
        // The case count follows `PROPTEST_CASES` (CI runs this test
        // with 20000 cases in release mode).
        #[test]
        fn compiled_search_matches_reference(
            domains in proptest::collection::vec(
                (-20i64..=20, proptest::prop_oneof![0i64..=40, 0i64..=3, proptest::Just(1000)]),
                1..7,
            ),
            atoms in proptest::collection::vec((0u8..6, expr(), expr()), 1..7),
            max_rounds in proptest::prop_oneof![1usize..=4, proptest::Just(64)],
            max_nodes in proptest::prop_oneof![1u64..=8, proptest::Just(64), proptest::Just(2000)],
        ) {
            let mut ctx = TermCtx::new();
            let vars: Vec<TermId> = domains
                .iter()
                .enumerate()
                .map(|(i, &(lo, w))| ctx.new_var(format!("v{i}"), lo, lo + w))
                .collect();
            let cs: Vec<Constraint> = atoms
                .iter()
                .map(|(op, l, r)| {
                    let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Le, CmpOp::Ne][*op as usize];
                    Constraint::new(op, build(&mut ctx, &vars, l), build(&mut ctx, &vars, r))
                })
                .collect();
            let config = SolverConfig {
                max_rounds,
                max_nodes,
                ..SolverConfig::default()
            };
            let (new, old) = run_both(&ctx, &cs, config);
            proptest::prop_assert_eq!(new, old, "{cs:?} under {config:?}");
        }
    }
}
