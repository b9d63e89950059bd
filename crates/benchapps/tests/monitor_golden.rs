//! Golden monitor output: the rendered text of whole benchapp corpora
//! must not change when the monitor or the VM is optimised.

use benchapps::{generate_corpus, BenchApp, CorpusSpec};
use concrete::write_log;
use statsym_telemetry::manifest::fnv64;

fn corpus_text(app: &BenchApp, sampling_rate: f64) -> String {
    let spec = CorpusSpec {
        sampling_rate,
        seed: 7,
        ..CorpusSpec::default()
    };
    generate_corpus(app, spec).iter().map(write_log).collect()
}

/// FNV-1a 64 of the concatenated `write_log` text of four corpora (seed
/// 7, 100 correct + 100 faulty runs each). The pinned value was computed
/// before names were interned and before the VM stopped cloning
/// instructions, so it guards byte-identical monitor output across that
/// change.
#[test]
fn monitor_output_matches_golden_hash() {
    let mut text = String::new();
    text += &corpus_text(&benchapps::grep(), 1.0);
    text += &corpus_text(&benchapps::grep(), 0.3);
    text += &corpus_text(&benchapps::thttpd(), 0.3);
    text += &corpus_text(&benchapps::http_header(), 0.3);
    assert_eq!(
        format!("{:016x}", fnv64(text.as_bytes())),
        "6e8a9b1b7f237199",
        "{} bytes of monitor output",
        text.len()
    );
}
