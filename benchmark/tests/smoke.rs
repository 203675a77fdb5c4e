//! `opbench --smoke`: all six workloads through a short traced run, each
//! in a process of its own, checked for correct results, for no more
//! threads than CPUs and for zero failed operations. Needs two CPUs, as
//! the benchmark does.

use std::process::Command;
use std::time::{Duration, Instant};

#[test]
fn smoke_runs_all_six_workloads_correctly_and_quickly() {
    let t = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_opbench"))
        .arg("--smoke")
        .output()
        .expect("opbench starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "smoke failed:\n{stdout}\n{stderr}");
    assert_eq!(
        stdout
            .lines()
            .filter(|l| l.starts_with("smoke ") && l.contains(" ok "))
            .count(),
        6,
        "{stdout}"
    );
    assert!(
        t.elapsed() < Duration::from_secs(15),
        "smoke took {:?}",
        t.elapsed()
    );
}

#[test]
fn unknown_workload_and_bad_flags_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--trace", "2"][..],
        &["--frobnicate"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_opbench"))
            .args(args)
            .output()
            .expect("opbench starts");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
