//! The machine and run stamp printed ahead of every result, so numbers
//! from different boxes or settings are never compared blindly.

use crate::cli::Args;
use crate::report::json_str;
use std::process::{Command, Stdio};

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

/// The `model name` of the first processor in `/proc/cpuinfo`.
fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Renders the stamp as one JSON line. `settings` are the run-length
/// settings of this run (passes, set-up repeats, worker count, ...),
/// each value already rendered as JSON.
pub(crate) fn stamp_line(args: &Args, settings: &[(&str, String)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let text = |v: Option<String>| json_str(v.as_deref().unwrap_or("unknown"));
    let mut fields = vec![
        format!("\"nproc\": {nproc}"),
        format!("\"cpu_model\": {}", text(cpu_model())),
        format!("\"rustc\": {}", text(command_line("rustc", &["-V"]))),
        format!(
            "\"git_rev\": {}",
            text(command_line("git", &["rev-parse", "HEAD"]))
        ),
        format!("\"workload\": {}", json_str(args.workload.name())),
        format!("\"seed\": {}", args.seed),
        format!("\"seconds\": {}", args.seconds),
        format!("\"trace\": {}", u8::from(args.trace)),
    ];
    fields.extend(
        settings
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k))),
    );
    format!("{{\"stamp\": {{{}}}}}", fields.join(", "))
}
