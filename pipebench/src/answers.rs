//! Hand-written known answers: the fault every benchmark app must be
//! found to have. The functions are the ones pinned by the repository's
//! end-to-end tests (`tests/end_to_end.rs`, `tests/parser_claims.rs`);
//! the fault classes are the documented vulnerability of each app
//! (stack-buffer overflow for the four paper programs, one heap-model
//! family per protocol parser). None of it comes from a pipeline run.

use concrete::FaultKind;

/// The fault class an app's vulnerability belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Class {
    /// Stack-buffer overflow (the paper's programs).
    BufferOverflow,
    /// Off-by-one write at exactly `cap` on a heap buffer.
    OffByOne { cap: u32 },
    /// Allocation size outside `[0, MAX_ALLOC]`.
    AllocOverflow,
    /// Access to a freed heap buffer.
    UseAfterFree,
    /// A `%` byte reaching the `format(..)` sink.
    FormatString,
}

impl Class {
    /// Whether `kind` belongs to this class.
    pub(crate) fn matches(self, kind: &FaultKind) -> bool {
        match self {
            Class::BufferOverflow => matches!(kind, FaultKind::BufferOverflow { .. }),
            Class::OffByOne { cap } => matches!(kind, FaultKind::OffByOne { cap: c } if *c == cap),
            Class::AllocOverflow => matches!(kind, FaultKind::AllocOverflow { .. }),
            Class::UseAfterFree => matches!(kind, FaultKind::UseAfterFree),
            Class::FormatString => matches!(kind, FaultKind::FormatString { .. }),
        }
    }
}

/// The expected verdict for one app.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Answer {
    /// `benchapps::by_name` key.
    pub(crate) app: &'static str,
    /// Function holding the fault point.
    pub(crate) func: &'static str,
    /// Fault class.
    pub(crate) class: Class,
}

/// Every app a workload may run, with its known answer.
pub(crate) const ANSWERS: [Answer; 8] = [
    Answer {
        app: "polymorph",
        func: "convert_fileName",
        class: Class::BufferOverflow,
    },
    Answer {
        app: "ctree",
        func: "initlinedraw",
        class: Class::BufferOverflow,
    },
    Answer {
        app: "thttpd",
        func: "defang",
        class: Class::BufferOverflow,
    },
    Answer {
        app: "grep",
        func: "stonesoup_handle_taint",
        class: Class::BufferOverflow,
    },
    Answer {
        app: "http_header",
        func: "store_value",
        class: Class::OffByOne { cap: 8 },
    },
    Answer {
        app: "http_chunked",
        func: "read_chunk",
        class: Class::AllocOverflow,
    },
    Answer {
        app: "urldecode",
        func: "decode",
        class: Class::UseAfterFree,
    },
    Answer {
        app: "base64",
        func: "log_reject",
        class: Class::FormatString,
    },
];

/// The known answer for `app`, if the table has one.
pub(crate) fn answer_for(app: &str) -> Option<&'static Answer> {
    ANSWERS.iter().find(|a| a.app == app)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_names_real_apps_once_each() {
        for (i, a) in ANSWERS.iter().enumerate() {
            assert!(
                benchapps::by_name(a.app).is_some(),
                "{} is not an app",
                a.app
            );
            assert!(
                ANSWERS[..i].iter().all(|b| b.app != a.app),
                "{} listed twice",
                a.app
            );
        }
    }

    #[test]
    fn classes_discriminate() {
        let bo = FaultKind::BufferOverflow { cap: 12, idx: 12 };
        assert!(Class::BufferOverflow.matches(&bo));
        assert!(!Class::UseAfterFree.matches(&bo));
        assert!(Class::OffByOne { cap: 8 }.matches(&FaultKind::OffByOne { cap: 8 }));
        assert!(!Class::OffByOne { cap: 8 }.matches(&FaultKind::OffByOne { cap: 9 }));
    }
}
