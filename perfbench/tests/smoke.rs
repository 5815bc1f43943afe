//! Smoke test of the benchmark command: every workload on small inputs,
//! untraced and traced, with a seed other than the default. Every
//! metric `BENCHMARK.json` names must print with its unit, every answer
//! must match the oracle, and the traced run must write its spans file.

use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["serve-miss", "serve-repeat", "ingest-publish"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
/// which lists one metric object per line.
fn contract(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    let metrics: Vec<(String, String)> = body
        .lines()
        .filter(|line| line.contains("\"unit\""))
        .map(|line| {
            let parts: Vec<&str> = line.split('"').collect();
            assert_eq!((parts[1], parts[5]), ("name", "unit"), "{line}");
            (parts[3].to_string(), parts[7].to_string())
        })
        .collect();
    assert!(!metrics.is_empty(), "{section} lists metrics");
    metrics
}

fn run(workload: &str, trace: bool, spans: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_multirag-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .arg("--spans")
        .arg(spans)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn check(workload: &str, trace: bool) {
    let spans: PathBuf =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("spans-{workload}-{trace}.jsonl"));
    let _ = std::fs::remove_file(&spans);
    let stdout = run(workload, trace, &spans);
    let lines: Vec<&str> = stdout.lines().collect();
    let result = lines.last().expect("a result line");
    let stamp = lines[lines.len() - 2];
    assert!(
        result.starts_with("{\"correct\":true,\"attempted\":"),
        "{workload}: {result}"
    );
    assert!(result.contains(",\"failed\":0,"), "{workload}: {result}");
    assert!(stamp.contains("\"failure_rate\":0,"), "{workload}: {stamp}");
    assert!(stamp.contains("\"seed\":7,"), "{workload}: {stamp}");
    let section = if trace { "per_layer" } else { "end_to_end" };
    let metrics = contract(section);
    for (name, unit) in &metrics {
        let entry = format!("\"{name}\":{{\"value\":");
        let at = result
            .find(&entry)
            .unwrap_or_else(|| panic!("{workload}: {name} missing from {result}"));
        let rest = &result[at + entry.len()..];
        let value = &rest[..rest.find(',').expect("value ends")];
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("{workload}: {name} = {value}"));
        assert!(
            rest.starts_with(&format!("{value},\"unit\":\"{unit}\"}}")),
            "{workload}: {name} must have unit {unit}"
        );
        // The human-readable lines name every metric with its unit too.
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with(&format!("{name} ")) && l.ends_with(&format!(" {unit}"))),
            "{workload}: no readable line for {name}"
        );
    }
    assert_eq!(
        result.matches("\"unit\":").count(),
        metrics.len(),
        "{workload}: exactly the {section} metrics"
    );
    if trace {
        let written = std::fs::read_to_string(&spans).expect("traced run writes its spans");
        assert!(written.lines().count() > 1, "{workload}: spans recorded");
    } else {
        assert!(!spans.exists(), "{workload}: untraced run writes no spans");
    }
}

#[test]
fn end_to_end_metrics_print_with_units_and_every_answer_checks() {
    for workload in WORKLOADS {
        check(workload, false);
    }
}

#[test]
fn traced_run_prints_per_layer_metrics_and_writes_spans() {
    for workload in WORKLOADS {
        check(workload, true);
    }
}
