//! `ledger` — one open-loop TCP-in → `LiveDag` → TCP-out benchmark with a
//! per-layer cost ledger. See `ledger/README.md` for every metric and
//! workload by name.
//!
//! ```text
//! ledger run --seed <S> [--workload <W>] [--seconds <N>] [--trace [0|1]] [--out <file>]
//! ledger layers --workload <W>
//! ledger compare <a.jsonl> <b.jsonl>
//! ledger serve ...            (internal: the system under test)
//! ```

mod alloc;
mod child;
mod compare;
mod gen;
mod harness;
mod json;
mod layers;
mod oracle;
mod procstat;
mod run;
mod spec;
mod stats;
mod trace;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

use std::io::Write;
use std::process::ExitCode;

use json::Json;
use run::{Metric, RunOpts, RunResult};

/// `--name value` pairs and bare words, in order.
struct Args {
    words: Vec<String>,
}

impl Args {
    /// Removes `--name <value>` and returns the value.
    fn value(&mut self, name: &str) -> Option<String> {
        let i = self.words.iter().position(|w| w == name)?;
        if i + 1 >= self.words.len() {
            return None;
        }
        self.words.remove(i);
        Some(self.words.remove(i))
    }

    /// Removes `--name` and a following `0`/`1` if there is one; a bare
    /// flag means on.
    fn switch(&mut self, name: &str) -> bool {
        let Some(i) = self.words.iter().position(|w| w == name) else {
            return false;
        };
        self.words.remove(i);
        match self.words.get(i).map(String::as_str) {
            Some("0") => {
                self.words.remove(i);
                false
            }
            Some("1") => {
                self.words.remove(i);
                true
            }
            _ => true,
        }
    }
}

impl Args {
    /// `--workload <W>`, or every workload.
    fn workloads(&mut self) -> Result<Vec<spec::Spec>, String> {
        let names: Vec<String> = match self.value("--workload") {
            Some(w) => vec![w],
            None => spec::WORKLOADS.iter().map(|s| s.to_string()).collect(),
        };
        names
            .iter()
            .map(|n| spec::spec(n).ok_or(format!("unknown workload: {n}")))
            .collect()
    }

    /// `--fault <kind>`, if given.
    fn fault(&mut self) -> Result<Option<child::Fault>, String> {
        self.value("--fault")
            .map(|f| child::Fault::parse(&f).ok_or(format!("unknown fault: {f}")))
            .transpose()
    }
}

fn parse_num<T: std::str::FromStr>(what: &str, v: Option<String>, default: T) -> Result<T, String> {
    match v {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| format!("{what}: not a number: {s}")),
    }
}

/// JSON has no infinity or NaN. A latency is infinite when records went
/// missing (the run is incorrect anyway) and prints as 1e12; a ratio is
/// NaN when its layer did not run on this workload and prints as 0.
fn finite(v: f64) -> f64 {
    if v.is_nan() {
        0.0
    } else {
        v.clamp(-1e12, 1e12)
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([
                ("value", Json::Num(finite(m.value))),
                ("unit", Json::Str(m.unit.to_string())),
            ]),
        )
    }))
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for m in metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
fn result_line(r: &RunResult, trace: bool) -> String {
    Json::obj([
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        (
            "metrics",
            metrics_json(if trace { &r.per_layer } else { &r.end_to_end }),
        ),
    ])
    .dump()
}

/// One line of a result file, as `ledger compare` reads it.
fn record_line(r: &RunResult, trace: bool) -> String {
    Json::obj([
        ("workload", Json::Str(r.workload.to_string())),
        ("seed", Json::Num(r.seed as f64)),
        ("digest", Json::Str(format!("{:016x}", r.digest))),
        ("trace", Json::Bool(trace)),
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("end_to_end", metrics_json(&r.end_to_end)),
        ("per_layer", metrics_json(&r.per_layer)),
    ])
    .dump()
}

fn cmd_run(mut args: Args) -> Result<ExitCode, String> {
    let seed: u64 = parse_num("--seed", args.value("--seed"), 1)?;
    let seconds: u64 = parse_num("--seconds", args.value("--seconds"), 30)?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    let trace = args.switch("--trace");
    let out = args.value("--out");
    let fault = args.fault()?;
    let specs = args.workloads()?;
    if let Some(extra) = args.words.first() {
        return Err(format!("unexpected argument: {extra}"));
    }

    let mut all_correct = true;
    for spec in specs {
        let name = spec.name;
        let opts = RunOpts {
            spec,
            seed,
            seconds,
            trace,
            fault,
        };
        let mut result = run::run(&opts)?;
        if !result.invalid.is_empty() {
            println!(
                "# generator ran late in {:?}; running {name} once more",
                result.invalid
            );
            result = run::run(&opts)?;
        }
        if trace {
            result.per_layer.extend(layers::layers(&opts.spec, seed)?);
            // The reconciliation row: what no isolated layer owns.
            let cpu = run::value_of(&result.per_layer, "cpu_us_per_rec");
            let sum = run::value_of(&result.per_layer, "ledger.layer_sum_us_per_rec");
            result.per_layer.push(run::metric(
                "ledger.unexplained_share",
                (cpu - sum) / cpu,
                "share",
            ));
        }
        print_table("end to end", &result.end_to_end);
        print_table("per layer", &result.per_layer);
        if !result.invalid.is_empty() {
            println!("# INVALID: generator late in {:?}", result.invalid);
        }
        if let Some(path) = &out {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("open {path}: {e}"))?;
            writeln!(f, "{}", record_line(&result, trace))
                .map_err(|e| format!("write {path}: {e}"))?;
        }
        all_correct &= result.correct();
        println!("{}", result_line(&result, trace));
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn cmd_serve(mut args: Args) -> Result<ExitCode, String> {
    let fault = args.fault()?;
    let [spec] =
        <[spec::Spec; 1]>::try_from(args.workloads()?).map_err(|_| "serve: --workload missing")?;
    child::serve(child::ServeArgs {
        spec,
        seconds: parse_num("--seconds", args.value("--seconds"), 30)?,
        sink: args.value("--sink").ok_or("serve: --sink missing")?,
        dir: args.value("--dir").ok_or("serve: --dir missing")?.into(),
        fault,
        trace: args.switch("--trace"),
    })?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_layers(mut args: Args) -> Result<ExitCode, String> {
    let seed: u64 = parse_num("--seed", args.value("--seed"), 1)?;
    for spec in args.workloads()? {
        print_table(
            &format!("{}: isolated layers", spec.name),
            &layers::layers(&spec, seed)?,
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(mut args: Args) -> Result<ExitCode, String> {
    let benchmark = args.value("--benchmark").map_or_else(
        || std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        Into::into,
    );
    let [a, b] = args.words.as_slice() else {
        return Err(
            "usage: ledger compare <a.jsonl> <b.jsonl> [--benchmark <BENCHMARK.json>]".into(),
        );
    };
    Ok(if compare::compare(a, b, &benchmark)? {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn main() -> ExitCode {
    // The generator links the same crates the child does (the egress
    // server, for one): neither process reads their environment switches.
    child::scrub_env();
    let mut words: Vec<String> = std::env::args().skip(1).collect();
    let cmd = if words.is_empty() {
        String::new()
    } else {
        words.remove(0)
    };
    let args = Args { words };
    let outcome = match cmd.as_str() {
        "run" => cmd_run(args),
        "serve" => cmd_serve(args),
        "layers" => cmd_layers(args),
        "compare" => cmd_compare(args),
        _ => Err("usage: ledger run|layers|compare|serve ... (see ledger/README.md)".into()),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(1)
        }
    }
}
