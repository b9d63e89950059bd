//! The benchmark's output: named metrics with units, the machine stamp,
//! and the one-line JSON result.

/// One reported metric.
#[derive(Debug)]
pub(crate) struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub(crate) name: String,
    /// Measured value.
    pub(crate) value: f64,
    /// Unit (`s`, `count`, `ratio`, ...).
    pub(crate) unit: &'static str,
}

impl Metric {
    /// A metric.
    pub(crate) fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Whether `name` is a legal metric name: a letter or digit first, then
/// at most 63 more of `[A-Za-z0-9_.-]`.
pub(crate) fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// Escapes a string for a JSON string literal.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders the result line. Errors when a metric name is illegal or a
/// value is not a finite number (JSON has no NaN).
pub(crate) fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !valid_name(&m.name) {
            return Err(format!("illegal metric name `{}`", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric `{}` is not finite: {}", m.name, m.value));
        }
        body.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&m.name),
            m.value,
            json_str(m.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_only_the_allowed_alphabet() {
        for ok in [
            "verdict_s",
            "solver.site.report_model.query_s",
            "a-b.c_d9",
            "0x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".lead",
            "_lead",
            "sp ace",
            "sl/ash",
            "uni\u{e9}",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(
            true,
            3,
            0,
            &[
                Metric::new("verdict_s", 1.25, "s"),
                Metric::new("paths_explored", 24063.0, "count"),
            ],
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"verdict_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"paths_explored\": {\"value\": 24063, \"unit\": \"count\"}}}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn result_line_rejects_bad_metrics() {
        assert!(result_line(true, 1, 0, &[Metric::new("bad name", 1.0, "s")]).is_err());
        assert!(result_line(true, 1, 0, &[Metric::new("nan_s", f64::NAN, "s")]).is_err());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
