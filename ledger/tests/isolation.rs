//! Determinism and isolation: the seed fixes the input and never
//! reaches the child; the environment cannot change what is measured;
//! a run leaves nothing behind.

mod common;

use std::path::Path;
use std::process::Stdio;
use std::time::{Duration, Instant};

use common::{digest, ledger, result_number, MINI};

#[test]
fn the_seed_fixes_the_input() {
    let run = |seed: &str| {
        let out = ledger()
            .arg("run")
            .args(MINI)
            .args(["--seed", seed])
            .output()
            .expect("run ledger");
        assert!(out.status.success(), "{}", common::stdout(&out));
        digest(&out)
    };
    let a = run("5");
    assert_eq!(a, run("5"));
    assert_ne!(a, run("6"));
}

/// PIDs whose parent is `parent`, from `/proc/*/stat`.
fn children_of(parent: u32) -> Vec<u32> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir("/proc").expect("read /proc").flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|n| n.parse::<u32>().ok())
        else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        let ppid = stat
            .rfind(')')
            .and_then(|i| stat[i + 2..].split(' ').nth(1))
            .and_then(|p| p.parse::<u32>().ok());
        if ppid == Some(parent) {
            out.push(pid);
        }
    }
    out
}

#[test]
fn the_child_sees_neither_the_seed_nor_the_environment() {
    const SEED: &str = "987654321";
    let run = ledger()
        .arg("run")
        .args(MINI)
        .args(["--seed", SEED])
        // Each of these changes what the crates do — were it to arrive.
        .env("ELASTICUTOR_BASELINE", "1")
        .env("ELASTICUTOR_DURABILITY", "tmpdir")
        .env("ELASTICUTOR_TEST_PARALLELISM", "3")
        .env("ELASTICUTOR_FAILPOINTS", "egress.write=err@0.5")
        .env("ELASTICUTOR_FAILPOINTS_SEED", "1")
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn ledger");

    // Catch the serving child while the load runs.
    let deadline = Instant::now() + Duration::from_secs(20);
    let child = loop {
        if let Some(&pid) = children_of(run.id()).first() {
            break pid;
        }
        assert!(Instant::now() < deadline, "no child appeared");
        std::thread::sleep(Duration::from_millis(5));
    };
    let read = |what: &str| {
        String::from_utf8_lossy(&std::fs::read(format!("/proc/{child}/{what}")).unwrap_or_default())
            .replace('\0', " ")
    };
    let (cmdline, environ) = (read("cmdline"), read("environ"));
    assert!(cmdline.contains("serve"), "not the child: {cmdline}");
    assert!(!cmdline.contains(SEED), "seed in argv: {cmdline}");
    assert!(
        !cmdline.contains("--seed"),
        "seed option in argv: {cmdline}"
    );
    assert!(!environ.contains(SEED), "seed in the child's environment");
    assert!(
        !environ.contains("ELASTICUTOR_"),
        "crate switches reached the child: {environ}"
    );

    let out = run.wait_with_output().expect("wait for ledger");
    assert!(out.status.success(), "{}", common::stdout(&out));
    assert_eq!(result_number(&out, "failed"), 0.0);
}

#[test]
fn a_run_removes_its_scratch_directories() {
    let out = ledger()
        .arg("run")
        .args(MINI)
        .args(["--seed", "3"])
        .output()
        .expect("run ledger");
    assert!(out.status.success(), "{}", common::stdout(&out));
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    // Other tests' runs may be alive right now; this run's own
    // directories carry its pid, which no longer exists.
    let leftovers: Vec<_> = std::fs::read_dir(&out_dir)
        .map(|d| d.flatten().collect())
        .unwrap_or_else(|_| Vec::new())
        .into_iter()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("run-"))
        .filter(|n| {
            let pid = n.split('-').nth(1).unwrap_or("");
            !Path::new("/proc").join(pid).exists()
        })
        .collect();
    assert!(leftovers.is_empty(), "left behind: {leftovers:?}");
}
