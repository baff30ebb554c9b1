//! The oracle must be able to fail: a child whose `count` wrapper is
//! deliberately broken has to show up as failed records and a non-zero
//! exit, and a clean child as neither.

mod common;

use common::{ledger, result_number, MINI};

fn run_with(fault: Option<&str>) -> std::process::Output {
    let mut cmd = ledger();
    cmd.arg("run").args(MINI).args(["--seed", "11"]);
    if let Some(f) = fault {
        cmd.args(["--fault", f]);
    }
    cmd.output().expect("run ledger")
}

#[test]
fn clean_child_passes() {
    let out = run_with(None);
    assert!(out.status.success(), "{}", common::stdout(&out));
    assert_eq!(result_number(&out, "failed"), 0.0);
    assert!(result_number(&out, "attempted") > 10_000.0);
}

fn assert_caught(fault: &str) {
    let out = run_with(Some(fault));
    assert!(
        !out.status.success(),
        "--fault {fault} went unnoticed:\n{}",
        common::stdout(&out)
    );
    assert!(result_number(&out, "failed") > 0.0, "--fault {fault}");
    assert!(common::stdout(&out).contains("\"correct\": false"));
}

#[test]
fn dropped_records_are_caught() {
    assert_caught("drop");
}

#[test]
fn duplicated_records_are_caught() {
    assert_caught("dup");
}

#[test]
fn reordered_records_are_caught() {
    assert_caught("reorder");
}

#[test]
fn flipped_payload_bits_are_caught() {
    assert_caught("flip");
}

#[test]
fn wrong_counts_are_caught() {
    assert_caught("miscount");
}
