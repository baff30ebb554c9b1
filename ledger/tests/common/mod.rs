//! Helpers shared by the integration tests: run the built `ledger`
//! binary on a miniature workload and read its result line.

// Each test binary compiles this module and uses its own subset.
#![allow(dead_code)]

use std::process::{Command, Output};

/// A 2 s miniature of `small_uniform`: the frozen workload, phases a
/// fifteenth as long. A debug build falls behind its ramp and flood,
/// which delays records and loses none.
pub const MINI: [&str; 4] = ["--workload", "small_uniform", "--seconds", "2"];

pub fn ledger() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ledger"))
}

pub fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The number after `"key": ` in the run's last stdout line.
pub fn result_number(out: &Output, key: &str) -> f64 {
    let text = stdout(out);
    let last = text.lines().last().expect("a result line");
    let at = last
        .find(&format!("\"{key}\": "))
        .unwrap_or_else(|| panic!("no {key} in {last}"));
    last[at + key.len() + 4..]
        .split([',', '}'])
        .next()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("{key} is not a number in {last}"))
}

/// The input digest a run printed.
pub fn digest(out: &Output) -> String {
    stdout(out)
        .lines()
        .find_map(|l| l.split("input digest ").nth(1))
        .and_then(|rest| rest.split_whitespace().next())
        .expect("a digest line")
        .to_string()
}
