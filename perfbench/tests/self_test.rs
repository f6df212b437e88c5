//! The benchmark's self-test: one corrupted reference value must make
//! a run fail, and the same run without it must pass.

use std::process::Command;

fn run(extra: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "vm_compute",
            "--seed",
            "1",
            "--seconds",
            "0.3",
        ])
        .args(["--trace", "0"])
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or_default().to_owned();
    (out.status.success(), last)
}

#[test]
fn a_corrupted_expected_value_fails_the_run() {
    let (ok, last) = run(&["--corrupt-expected"]);
    assert!(!ok, "the run must exit with an error status");
    assert!(last.starts_with("{\"correct\": false"), "{last}");
}

#[test]
fn the_same_run_passes_with_true_references() {
    let (ok, last) = run(&[]);
    assert!(ok, "{last}");
    assert!(last.starts_with("{\"correct\": true"), "{last}");
}
