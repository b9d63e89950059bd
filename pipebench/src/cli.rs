//! Command-line parsing. Bad input is an `Err` with a message, never a
//! panic.

use crate::workload::Workload;

/// Usage line printed with every argument error.
pub(crate) const USAGE: &str =
    "usage: pipebench --workload <triage|dense-logs|late-hit> --seed <u64> [--seconds <n>] [--trace <0|1>]";

/// Parsed arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Args {
    /// Which workload to run.
    pub(crate) workload: Workload,
    /// Workload seed: every generated input derives from it.
    pub(crate) seed: u64,
    /// Measurement length in seconds.
    pub(crate) seconds: u64,
    /// `false`: end-to-end metrics; `true`: per-layer metrics.
    pub(crate) trace: bool,
}

/// Longest accepted `--seconds`.
pub(crate) const MAX_SECONDS: u64 = 3600;

impl Args {
    /// Parses the arguments after the program name.
    pub(crate) fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            let slot_taken = match flag.as_str() {
                "--workload" => workload
                    .replace(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                    .is_some(),
                "--seed" => seed
                    .replace(
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("bad seed `{value}`: want an unsigned integer"))?,
                    )
                    .is_some(),
                "--seconds" => seconds
                    .replace(
                        value
                            .parse::<u64>()
                            .ok()
                            .filter(|s| (1..=MAX_SECONDS).contains(s))
                            .ok_or_else(|| {
                                format!("bad seconds `{value}`: want 1..={MAX_SECONDS}")
                            })?,
                    )
                    .is_some(),
                "--trace" => trace
                    .replace(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad trace `{value}`: want 0 or 1")),
                    })
                    .is_some(),
                _ => return Err(format!("unknown flag `{flag}`")),
            };
            if slot_taken {
                return Err(format!("`{flag}` given twice"));
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.unwrap_or(10),
            trace: trace.unwrap_or(false),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn accepts_the_full_flag_set() {
        let a = parse("--workload late-hit --seed 42 --seconds 7 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::LateHit,
                seed: 42,
                seconds: 7,
                trace: true
            }
        );
        let d = parse("--seed 0 --workload triage").unwrap();
        assert_eq!((d.seconds, d.trace), (10, false));
    }

    #[test]
    fn rejects_bad_input_with_an_error() {
        for bad in [
            "",
            "--workload triage",
            "--seed 1",
            "--workload nope --seed 1",
            "--workload triage --seed -1",
            "--workload triage --seed 1x",
            "--workload triage --seed 18446744073709551616",
            "--workload triage --seed 1 --seconds 0",
            "--workload triage --seed 1 --seconds 3601",
            "--workload triage --seed 1 --trace 2",
            "--workload triage --seed 1 --bogus 1",
            "--workload triage --seed 1 --seed 2",
            "--workload triage --seed",
        ] {
            assert!(parse(bad).is_err(), "accepted `{bad}`");
        }
    }
}
