//! Self-test of the benchmark: every workload runs a couple of requests
//! untraced and traced, emits exactly the metrics `BENCHMARK.json`
//! declares with their units, and counts a tampered output ciphertext as
//! a failed request.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::{Config, Report};

/// `(name, unit)` pairs of one section of `BENCHMARK.json`, which lists
/// one object per line (workloads have no unit).
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let field = |line: &str, key: &str| {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    let mut current = "";
    let mut out = Vec::new();
    for line in text.lines() {
        for s in ["\"workloads\"", "\"end_to_end\"", "\"per_layer\""] {
            if line.trim_start().starts_with(s) {
                current = s;
            }
        }
        if current.trim_matches('"') == section {
            if let Some(name) = field(line, "name") {
                out.push((name, field(line, "unit").unwrap_or_default()));
            }
        }
    }
    assert!(!out.is_empty(), "no {section} metrics found in {path}");
    out
}

fn emitted(report: &Report) -> Vec<(String, String)> {
    report.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect()
}

fn check_workload(workload: &str) {
    // Untraced, with the second measured request's output tampered with
    // (a failed request counts as infinitely slow, so three requests keep
    // the median finite).
    let cfg = Config {
        max_requests: Some(3),
        tamper_request: Some(1),
        ..Config::new(workload, 7, 600.0, false)
    };
    let report = perfbench::run(&cfg).expect("untraced run");
    assert_eq!(emitted(&report), declared("end_to_end"), "{workload}: end-to-end metrics");
    assert_eq!(report.failed, 1, "{workload}: the tampered request must count as failed");
    assert!(report.attempted >= 4, "{workload}: warm-up plus three measured requests");
    assert!(
        !report.result_json().contains("\"correct\": true"),
        "{workload}: a failure is not correct"
    );
    for m in &report.metrics {
        assert!(m.value.is_finite() && m.value > 0.0, "{workload}: {} = {}", m.name, m.value);
    }

    // Traced, untampered: every per-layer metric, no failures.
    let cfg = Config { max_requests: Some(2), ..Config::new(workload, 8, 600.0, true) };
    let report = perfbench::run(&cfg).expect("traced run");
    assert_eq!(emitted(&report), declared("per_layer"), "{workload}: per-layer metrics");
    assert_eq!(report.failed, 0, "{workload}: {:?}", report.provenance);
    assert!(report.result_json().starts_with("{\"correct\": true"));
    assert!(!report.spans.is_empty(), "{workload}: a traced run records spans");
    for name in
        ["netlist.bootstraps_per_request", "tfhe.bootstrap_s", "core.execute_s", "serve.submit_s"]
    {
        let m = report.metrics.iter().find(|m| m.name == name);
        assert!(m.is_some_and(|m| m.value > 0.0), "{workload}: {name}");
    }
}

#[test]
fn workloads_match_the_declaration() {
    let names: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, perfbench::WORKLOADS);
}

#[test]
fn nn_128() {
    check_workload("nn_128");
}

#[test]
fn vip_deep() {
    check_workload("vip_deep");
}

#[test]
fn serve_mix() {
    check_workload("serve_mix");
}

#[test]
fn lut_wide() {
    check_workload("lut_wide");
}

#[test]
fn unknown_workload_is_refused() {
    assert!(perfbench::run(&Config::new("nope", 1, 1.0, false)).is_err());
}
