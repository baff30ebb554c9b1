//! `ledger compare`: verdicts and exit codes on hand-made result files.

mod common;

use std::path::PathBuf;

use common::ledger;

const BENCHMARK: &str = r#"{"end_to_end": [
  {"name": "p50_ms.lo", "unit": "ms", "better": "lower", "bound": 0.1},
  {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}
]}"#;

fn line(workload: &str, p50: f64, rate: f64, failed: u64) -> String {
    format!(
        "{{\"workload\": \"{workload}\", \"trace\": false, \"attempted\": 1000, \"failed\": {failed}, \
         \"end_to_end\": {{\"p50_ms.lo\": {{\"value\": {p50}, \"unit\": \"ms\"}}, \
         \"rate\": {{\"value\": {rate}, \"unit\": \"1/s\"}}}}}}\n"
    )
}

fn write(name: &str, text: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("write fixture");
    path
}

fn compare(tag: &str, a: &str, b: &str) -> (bool, String) {
    let bench = write(&format!("{tag}-bench.json"), BENCHMARK);
    let a = write(&format!("{tag}-a.jsonl"), a);
    let b = write(&format!("{tag}-b.jsonl"), b);
    let out = ledger()
        .arg("compare")
        .arg(a)
        .arg(b)
        .arg("--benchmark")
        .arg(bench)
        .output()
        .expect("run ledger compare");
    (out.status.success(), common::stdout(&out))
}

fn runs(workload: &str, p50s: [f64; 3], rates: [f64; 3]) -> String {
    p50s.iter()
        .zip(rates)
        .map(|(&p, r)| line(workload, p, r, 0))
        .collect()
}

#[test]
fn equal_runs_are_ok() {
    let a = runs("w", [9.0, 9.1, 9.2], [100.0, 101.0, 102.0]);
    let (ok, text) = compare("ok", &a, &a);
    assert!(ok, "{text}");
    assert!(
        !text.contains("worse") && !text.contains("unresolved"),
        "{text}"
    );
}

#[test]
fn a_shift_beyond_the_bound_is_worse_in_the_metrics_direction() {
    let a = runs("w", [9.0, 9.1, 9.2], [100.0, 101.0, 102.0]);
    // Latency up 20 %: worse. Rate up 20 %: better, so ok.
    let b = runs("w", [10.9, 11.0, 11.1], [120.0, 121.0, 122.0]);
    let (ok, text) = compare("worse", &a, &b);
    assert!(!ok, "{text}");
    let verdict = |metric: &str| {
        text.lines()
            .find(|l| l.contains(metric))
            .unwrap_or_else(|| panic!("no {metric} row in {text}"))
            .to_string()
    };
    assert!(verdict("p50_ms.lo").contains("worse"), "{text}");
    assert!(verdict("rate").contains("ok"), "{text}");
}

#[test]
fn a_spread_wider_than_the_bound_is_unresolved_not_ok() {
    let a = runs("w", [9.0, 9.1, 9.2], [100.0, 101.0, 102.0]);
    let b = runs("w", [7.0, 9.1, 12.0], [100.0, 101.0, 102.0]);
    let (ok, text) = compare("wide", &a, &b);
    assert!(ok, "unresolved alone does not fail: {text}");
    assert!(text.contains("unresolved"), "{text}");
}

#[test]
fn more_failed_records_fail_the_comparison() {
    let a = runs("w", [9.0, 9.1, 9.2], [100.0, 101.0, 102.0]);
    let b = a.clone() + &line("w", 9.1, 101.0, 3);
    let (ok, text) = compare("failed", &a, &b);
    assert!(!ok, "{text}");
}
