//! The `hupc-bench` command line: experiment-name handling.

use std::process::Command;

use hupc_bench::exp::EXPERIMENTS;

#[test]
fn unknown_experiment_exits_2_and_lists_every_name() {
    let out = Command::new(env!("CARGO_BIN_EXE_hupc-bench"))
        .args(["fig_9_9", "--quick"])
        .output()
        .expect("run hupc-bench");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown experiment: fig_9_9"), "{err}");
    let listed = err
        .lines()
        .find_map(|l| l.strip_prefix("experiments: "))
        .unwrap_or_else(|| panic!("no experiment list in {err}"));
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(listed.split(' ').collect::<Vec<_>>(), names);
    assert!(out.stdout.is_empty());
}

#[test]
fn check_on_an_ungated_experiment_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_hupc-bench"))
        .args(["fig_3_3", "--check", "BENCH_apps.json"])
        .output()
        .expect("run hupc-bench");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("fig_3_3 has no gates"));
}
