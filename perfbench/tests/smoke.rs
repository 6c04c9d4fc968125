//! Short runs of every workload: each must pass its output checks and
//! print exactly the metrics `BENCHMARK.json` declares, with tracing off
//! (end-to-end) and on (per-layer).

use std::path::PathBuf;
use std::process::Command;

use autotype_serve::json::{self, Json};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

/// Metric names of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = json::parse(&text).expect("BENCHMARK.json is JSON");
    spec.get(section)
        .and_then(Json::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("metric name")
                .to_string()
        })
        .collect()
}

/// Run one workload for one second; returns the run record lines and the
/// parsed result line.
fn run(workload: &str, seed: u64, trace: bool) -> (Vec<String>, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let result = json::parse(lines.last().expect("a result line")).expect("result line is JSON");
    (lines, result)
}

fn check(workload: &str, seed: u64, trace: bool) -> Vec<String> {
    let (record, result) = run(workload, seed, trace);
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: {record:?}"
    );
    assert_eq!(result.get("failed").and_then(Json::as_number), Some(0.0));
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_number)
            .unwrap_or(0.0)
            >= 1.0
    );
    let Some(Json::Object(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    let mut printed: Vec<String> = metrics.keys().cloned().collect();
    let mut expected = declared(if trace { "per_layer" } else { "end_to_end" });
    printed.sort();
    expected.sort();
    assert_eq!(printed, expected, "{workload} (trace {trace}) metric names");
    for (name, m) in metrics {
        assert!(m.get("value").and_then(Json::as_number).is_some(), "{name}");
        assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
    }
    for key in [
        "available_parallelism",
        "git_revision",
        "seed",
        "run_seconds",
        "attempted",
        "failed",
        "cache_hit_rate",
        "probes_per_value",
    ] {
        assert!(
            record.iter().any(|l| l.starts_with(&format!("# {key}: "))),
            "{workload}: run record lacks {key}"
        );
    }
    record
}

fn record_value<'a>(record: &'a [String], key: &str) -> &'a str {
    let prefix = format!("# {key}: ");
    record
        .iter()
        .find_map(|l| l.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("no {key} in the run record"))
}

#[test]
fn synth_smoke_and_pack_ids_repeat_per_seed() {
    let first = check("synth", 21, false);
    let again = check("synth", 21, true);
    assert_eq!(
        record_value(&first, "pack_digest"),
        record_value(&again, "pack_digest")
    );
}

#[test]
fn serve_cold_smoke() {
    let record = check("serve_cold", 22, false);
    let hit_rate: f64 = record_value(&record, "cache_hit_rate").parse().unwrap();
    assert!(hit_rate <= 0.10, "serve_cold hit rate {hit_rate}");
    check("serve_cold", 22, true);
}

#[test]
fn serve_hot_smoke() {
    let record = check("serve_hot", 23, false);
    let hit_rate: f64 = record_value(&record, "cache_hit_rate").parse().unwrap();
    assert!(hit_rate >= 0.95, "serve_hot hit rate {hit_rate}");
    check("serve_hot", 23, true);
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
