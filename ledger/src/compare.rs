//! `ledger compare <a.jsonl> <b.jsonl>` — the repeat-run and
//! no-regression check, by the benchmark's own bounds.
//!
//! Each file holds the lines `ledger run --out` appended, several runs
//! per workload. Per workload × end-to-end metric this prints both
//! medians, the ratio with its base, both spreads (interquartile range
//! over median, the quartiles as Python's `statistics.quantiles` gives
//! them), the bound from `BENCHMARK.json`, and a verdict:
//!
//! * `worse` — b's median is worse than a's by more than the bound;
//! * `unresolved` — a spread is wider than the bound, so the runs cannot
//!   tell a change of that size from noise;
//! * `ok` — otherwise.
//!
//! Exits non-zero on any `worse`, or when b failed more records than a.
//!
//! The metrics `BENCHMARK.json` lists under `per_layer` carry no bound
//! (on the reference box the capacity and tail metrics among them are
//! too noisy for one). Those both files hold are printed the same way
//! without a verdict: a claim on one of them needs paired runs, not two
//! medians.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::stats::{median_f64, spread};

struct MetricDef {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

/// Values of every end-to-end metric, per workload, plus failures.
#[derive(Default)]
struct Runs {
    metrics: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    failed: BTreeMap<String, f64>,
    attempted: BTreeMap<String, f64>,
}

/// The judged metrics (`end_to_end`) and the names of the unjudged ones
/// (`per_layer`), as `BENCHMARK.json` lists them.
fn load_defs(path: &Path) -> Result<(Vec<MetricDef>, Vec<String>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let bench = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let name_of = |m: &Json| {
        m.get("name")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or("metric without a name")
    };
    let judged = bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(MetricDef {
                name: name_of(m)?,
                unit: m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect::<Result<_, String>>()?;
    let unjudged = bench
        .get("per_layer")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|m| name_of(m).map_err(String::from))
        .collect::<Result<_, String>>()?;
    Ok((judged, unjudged))
}

fn load_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::default();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{path}:{}: no workload", n + 1))?
            .to_string();
        *runs.failed.entry(workload.clone()).or_default() += rec.num("failed");
        *runs.attempted.entry(workload.clone()).or_default() += rec.num("attempted");
        // A traced run's end-to-end numbers carry tracing's overhead and
        // are never compared.
        if rec.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        let per_metric = runs.metrics.entry(workload).or_default();
        let sections = ["end_to_end", "per_layer"]
            .into_iter()
            .filter_map(|s| rec.get(s).and_then(Json::as_obj));
        for metrics in sections {
            for (name, m) in metrics {
                // A value JSON could not carry (an infinite latency) is
                // the worst one.
                let v = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::INFINITY);
                per_metric.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

pub fn compare(a_path: &str, b_path: &str, benchmark: &Path) -> Result<bool, String> {
    let (defs, unjudged) = load_defs(benchmark)?;
    let (a, b) = (load_runs(a_path)?, load_runs(b_path)?);
    println!(
        "{:<14} {:<36} {:>14} {:>14} {:>9} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "iqr a", "iqr b", "bound"
    );
    let mut all_ok = true;
    for (workload, a_metrics) in &a.metrics {
        let Some(b_metrics) = b.metrics.get(workload) else {
            println!("{workload:<14} missing from {b_path}");
            all_ok = false;
            continue;
        };
        for def in &defs {
            let (Some(av), Some(bv)) = (a_metrics.get(&def.name), b_metrics.get(&def.name)) else {
                println!("{workload:<14} {:<36} missing", def.name);
                all_ok = false;
                continue;
            };
            let (am, bm) = (median_f64(av), median_f64(bv));
            let ratio = bm / am;
            let worse_by = if def.higher_is_better {
                1.0 - ratio
            } else {
                ratio - 1.0
            };
            let (sa, sb) = (spread(av), spread(bv));
            let wide = |s: Option<f64>| s.is_some_and(|s| s > def.bound);
            let verdict = if worse_by > def.bound || !ratio.is_finite() {
                all_ok = false;
                "worse"
            } else if wide(sa) || wide(sb) {
                "unresolved"
            } else {
                "ok"
            };
            let pct = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
            println!(
                "{workload:<14} {:<36} {am:>14.4} {bm:>14.4} {ratio:>9.4} {:>7} {:>7} {:>5.0}%  {verdict}  [{}]",
                def.name,
                pct(sa),
                pct(sb),
                def.bound * 100.0,
                def.unit,
            );
        }
        for name in &unjudged {
            if let (Some(av), Some(bv)) = (a_metrics.get(name), b_metrics.get(name)) {
                let (am, bm) = (median_f64(av), median_f64(bv));
                let pct =
                    |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
                println!(
                    "{workload:<14} {name:<36} {am:>14.4} {bm:>14.4} {:>9.4} {:>7} {:>7} {:>6}  (not judged)",
                    bm / am,
                    pct(spread(av)),
                    pct(spread(bv)),
                    "-",
                );
            }
        }
        let share = |r: &Runs| {
            r.failed.get(workload).copied().unwrap_or(0.0)
                / r.attempted.get(workload).copied().unwrap_or(0.0).max(1.0)
        };
        let (fa, fb) = (share(&a), share(&b));
        let verdict = if fb > fa {
            all_ok = false;
            "worse"
        } else {
            "ok"
        };
        println!(
            "{workload:<14} {:<36} {fa:>14.6} {fb:>14.6} {:>9} {:>7} {:>7} {:>6}  {verdict}  [share]",
            "failed_share", "-", "-", "-", "0%"
        );
    }
    Ok(all_ok)
}
