//! Log corpus preprocessing (algorithm steps (a)–(b) in the paper's
//! Figure 5): partition runs into correct and faulty executions and
//! index the numeric observations per (location, variable).

use concrete::{ExecutionLog, Location, VarId, Verdict};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Numeric observations of one variable at one location, split by run
/// verdict.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Observations {
    /// Values seen in correct executions.
    pub correct: Vec<f64>,
    /// Values seen in faulty executions.
    pub faulty: Vec<f64>,
}

/// A preprocessed corpus of execution logs.
#[derive(Debug, Clone, Default)]
pub struct LogCorpus {
    /// Number of correct runs (with at least one record).
    pub n_correct: usize,
    /// Number of faulty runs.
    pub n_faulty: usize,
    /// Observations per (location, variable). Deterministically ordered.
    pub observations: BTreeMap<(Location, VarId), Observations>,
    /// The event traces of faulty runs (for transition mining).
    pub faulty_traces: Vec<Vec<Location>>,
    /// The event traces of correct runs.
    pub correct_traces: Vec<Vec<Location>>,
    /// The inferred failure point: the entry of the modal crash function
    /// reported by faulty runs (falling back to the most common final
    /// sampled location when no crash report is available).
    pub failure_location: Option<Location>,
    /// All locations seen anywhere in the corpus.
    pub locations: Vec<Location>,
}

impl LogCorpus {
    /// Builds a corpus from annotated logs. Inconclusive runs (resource
    /// limits) are excluded, mirroring the paper's correct/faulty
    /// partition.
    ///
    /// Observation columns are indexed by borrowed keys while the logs
    /// are scanned; each distinct key is cloned once, into the final map.
    pub fn build(logs: &[ExecutionLog]) -> LogCorpus {
        let mut corpus = LogCorpus::default();
        let mut last_locs: BTreeMap<Location, usize> = BTreeMap::new();
        let mut fault_locs: BTreeMap<Location, usize> = BTreeMap::new();
        let mut seen_locs: BTreeSet<Location> = BTreeSet::new();
        let mut columns: Vec<Observations> = Vec::new();
        let mut column_of: HashMap<(&Location, &VarId), usize> = HashMap::new();
        // Records at one location repeat the same variable list, so each
        // location remembers the column of the variable at each position.
        let mut at_loc: HashMap<&Location, Vec<(&VarId, usize)>> = HashMap::new();

        for log in logs {
            let faulty = match log.verdict {
                Verdict::Correct => false,
                Verdict::Faulty => true,
                Verdict::Inconclusive => continue,
            };
            let trace: Vec<Location> = log.locations().cloned().collect();
            for rec in &log.records {
                let slots = at_loc.entry(&rec.loc).or_insert_with(|| {
                    seen_locs.insert(rec.loc.clone());
                    Vec::new()
                });
                for (i, (var, value)) in rec.vars.iter().enumerate() {
                    let col = match slots.get(i) {
                        Some(&(v, col)) if v == var => col,
                        _ => {
                            let col = *column_of.entry((&rec.loc, var)).or_insert_with(|| {
                                columns.push(Observations::default());
                                columns.len() - 1
                            });
                            if i == slots.len() {
                                slots.push((var, col));
                            }
                            col
                        }
                    };
                    let obs = &mut columns[col];
                    if faulty {
                        obs.faulty.push(*value);
                    } else {
                        obs.correct.push(*value);
                    }
                }
            }
            if faulty {
                corpus.n_faulty += 1;
                if let Some(last) = trace.last() {
                    *last_locs.entry(last.clone()).or_default() += 1;
                }
                if let Some(fault) = &log.fault {
                    *fault_locs
                        .entry(Location::enter(fault.func.as_str()))
                        .or_default() += 1;
                }
                corpus.faulty_traces.push(trace);
            } else {
                corpus.n_correct += 1;
                corpus.correct_traces.push(trace);
            }
        }

        corpus.observations = column_of
            .into_iter()
            .map(|((loc, var), col)| {
                (
                    (loc.clone(), var.clone()),
                    std::mem::take(&mut columns[col]),
                )
            })
            .collect();

        // Prefer the crash report (the observable failure point); fall
        // back to the modal last sampled record.
        corpus.failure_location = fault_locs
            .into_iter()
            .max_by_key(|(loc, n)| (*n, std::cmp::Reverse(loc.clone())))
            .map(|(loc, _)| loc)
            .or_else(|| {
                last_locs
                    .into_iter()
                    .max_by_key(|(loc, n)| (*n, std::cmp::Reverse(loc.clone())))
                    .map(|(loc, _)| loc)
            });
        corpus.locations = seen_locs.into_iter().collect();
        corpus
    }

    /// Observations for one (location, variable), if any.
    pub fn observation(&self, loc: &Location, var: &VarId) -> Option<&Observations> {
        self.observations.get(&(loc.clone(), var.clone()))
    }

    /// Total number of usable runs.
    pub fn n_runs(&self) -> usize {
        self.n_correct + self.n_faulty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concrete::{LogRecord, Measure, VarRole};

    fn rec(loc: Location, vars: &[(&str, VarRole, f64)]) -> LogRecord {
        LogRecord {
            loc,
            vars: vars
                .iter()
                .map(|(n, r, v)| (VarId::new(*n, *r, Measure::Value), *v))
                .collect(),
        }
    }

    fn log(verdict: Verdict, records: Vec<LogRecord>) -> ExecutionLog {
        ExecutionLog {
            records,
            verdict,
            fault: None,
        }
    }

    /// The map-per-record build the indexed build replaced: two key
    /// clones and a `BTreeMap` probe per observation. Kept as the
    /// reference the indexed build must reproduce exactly.
    fn build_reference(logs: &[ExecutionLog]) -> LogCorpus {
        let mut corpus = LogCorpus::default();
        let mut last_locs: BTreeMap<Location, usize> = BTreeMap::new();
        let mut fault_locs: BTreeMap<Location, usize> = BTreeMap::new();
        let mut seen_locs: BTreeMap<Location, ()> = BTreeMap::new();
        for log in logs {
            let faulty = match log.verdict {
                Verdict::Correct => false,
                Verdict::Faulty => true,
                Verdict::Inconclusive => continue,
            };
            let trace: Vec<Location> = log.locations().cloned().collect();
            for rec in &log.records {
                seen_locs.insert(rec.loc.clone(), ());
                for (var, value) in &rec.vars {
                    let obs = corpus
                        .observations
                        .entry((rec.loc.clone(), var.clone()))
                        .or_default();
                    if faulty {
                        obs.faulty.push(*value);
                    } else {
                        obs.correct.push(*value);
                    }
                }
            }
            if faulty {
                corpus.n_faulty += 1;
                if let Some(last) = trace.last() {
                    *last_locs.entry(last.clone()).or_default() += 1;
                }
                if let Some(fault) = &log.fault {
                    *fault_locs
                        .entry(Location::enter(fault.func.clone()))
                        .or_default() += 1;
                }
                corpus.faulty_traces.push(trace);
            } else {
                corpus.n_correct += 1;
                corpus.correct_traces.push(trace);
            }
        }
        corpus.failure_location = fault_locs
            .into_iter()
            .max_by_key(|(loc, n)| (*n, std::cmp::Reverse(loc.clone())))
            .map(|(loc, _)| loc)
            .or_else(|| {
                last_locs
                    .into_iter()
                    .max_by_key(|(loc, n)| (*n, std::cmp::Reverse(loc.clone())))
                    .map(|(loc, _)| loc)
            });
        corpus.locations = seen_locs.into_keys().collect();
        corpus
    }

    fn assert_same_corpus(got: &LogCorpus, want: &LogCorpus) {
        assert_eq!(
            (got.n_correct, got.n_faulty),
            (want.n_correct, want.n_faulty)
        );
        // Keys, and the value order inside each column.
        assert!(got.observations.keys().eq(want.observations.keys()));
        for (key, obs) in &want.observations {
            let g = &got.observations[key];
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&g.correct), bits(&obs.correct), "{key:?}");
            assert_eq!(bits(&g.faulty), bits(&obs.faulty), "{key:?}");
        }
        assert_eq!(got.faulty_traces, want.faulty_traces);
        assert_eq!(got.correct_traces, want.correct_traces);
        assert_eq!(got.locations, want.locations);
        assert_eq!(got.failure_location, want.failure_location);
    }

    #[test]
    fn indexed_build_matches_reference_on_benchapp_corpora() {
        for (app, rate, seed) in [(benchapps::grep(), 1.0, 11), (benchapps::thttpd(), 0.3, 12)] {
            let logs = benchapps::generate_corpus(
                &app,
                benchapps::CorpusSpec {
                    sampling_rate: rate,
                    seed,
                    ..Default::default()
                },
            );
            let corpus = LogCorpus::build(&logs);
            assert!(!corpus.observations.is_empty(), "{}", app.name);
            assert_same_corpus(&corpus, &build_reference(&logs));
        }
    }

    #[test]
    fn indexed_build_handles_variable_lists_that_differ_per_record() {
        // The same location logs `a, b` in one record and `b` or `c, a`
        // in others: the per-position fast path must fall back to the
        // key index without mixing up columns.
        let logs = vec![
            log(
                Verdict::Correct,
                vec![
                    rec(
                        Location::enter("f"),
                        &[("a", VarRole::Param, 1.0), ("b", VarRole::Param, 2.0)],
                    ),
                    rec(Location::enter("f"), &[("b", VarRole::Param, 3.0)]),
                ],
            ),
            log(
                Verdict::Faulty,
                vec![
                    rec(
                        Location::enter("f"),
                        &[("c", VarRole::Param, 4.0), ("a", VarRole::Param, 5.0)],
                    ),
                    rec(Location::leave("f"), &[("a", VarRole::Param, 6.0)]),
                ],
            ),
        ];
        assert_same_corpus(&LogCorpus::build(&logs), &build_reference(&logs));
    }

    #[test]
    fn partitions_and_indexes_observations() {
        let logs = vec![
            log(
                Verdict::Correct,
                vec![
                    rec(Location::enter("main"), &[("g", VarRole::Global, 1.0)]),
                    rec(Location::leave("main"), &[("g", VarRole::Global, 2.0)]),
                ],
            ),
            log(
                Verdict::Faulty,
                vec![rec(Location::enter("main"), &[("g", VarRole::Global, 9.0)])],
            ),
            log(Verdict::Inconclusive, vec![]),
        ];
        let corpus = LogCorpus::build(&logs);
        assert_eq!(corpus.n_correct, 1);
        assert_eq!(corpus.n_faulty, 1);
        assert_eq!(corpus.n_runs(), 2);
        let obs = corpus
            .observation(
                &Location::enter("main"),
                &VarId::new("g", VarRole::Global, Measure::Value),
            )
            .unwrap();
        assert_eq!(obs.correct, vec![1.0]);
        assert_eq!(obs.faulty, vec![9.0]);
    }

    #[test]
    fn failure_location_is_modal_last_faulty_record() {
        let logs = vec![
            log(
                Verdict::Faulty,
                vec![
                    rec(Location::enter("a"), &[]),
                    rec(Location::enter("boom"), &[]),
                ],
            ),
            log(Verdict::Faulty, vec![rec(Location::enter("boom"), &[])]),
            log(Verdict::Faulty, vec![rec(Location::enter("other"), &[])]),
        ];
        let corpus = LogCorpus::build(&logs);
        assert_eq!(corpus.failure_location, Some(Location::enter("boom")));
    }

    #[test]
    fn empty_corpus_is_well_formed() {
        let corpus = LogCorpus::build(&[]);
        assert_eq!(corpus.n_runs(), 0);
        assert!(corpus.failure_location.is_none());
        assert!(corpus.locations.is_empty());
    }

    #[test]
    fn locations_are_deduplicated_and_sorted() {
        let logs = vec![log(
            Verdict::Correct,
            vec![
                rec(Location::enter("b"), &[]),
                rec(Location::enter("a"), &[]),
                rec(Location::enter("b"), &[]),
            ],
        )];
        let corpus = LogCorpus::build(&logs);
        assert_eq!(corpus.locations.len(), 2);
        assert_eq!(corpus.locations[0], Location::enter("a"));
    }
}
