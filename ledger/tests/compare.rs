//! `ledger compare` compares like with like only.

use std::path::PathBuf;
use std::process::Command;

fn result_set(name: &str, host_cpus: u32, host_s: f64) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let text = format!(
        "env host_cpus={host_cpus} profile=release trace_feature=true git_rev=unknown \
         sim_backend=Sequential actor_backend=Coroutine\n\
         run workload=serve-kv seed=1 trace=0\n\
         host_s = {host_s} s\n\
         virtual_s = 0.03 s_virt\n"
    );
    std::fs::write(&path, text).expect("write result set");
    path
}

fn compare(a: &PathBuf, b: &PathBuf) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .arg("compare")
        .arg(a)
        .arg(b)
        .output()
        .expect("run ledger");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn refuses_result_sets_from_hosts_with_different_cpu_counts() {
    let two = result_set("compare_two_cpus.json", 2, 0.5);
    let four = result_set("compare_four_cpus.json", 4, 0.25);
    let (code, stdout, stderr) = compare(&two, &four);
    assert_eq!(code, 2, "stdout: {stdout}");
    assert!(
        stderr.contains("refusing to compare: host_cpus"),
        "{stderr}"
    );
    assert!(stdout.is_empty());
}

#[test]
fn compares_result_sets_from_like_hosts() {
    let a = result_set("compare_a.json", 2, 0.5);
    let b = result_set("compare_b.json", 2, 0.25);
    let (code, stdout, stderr) = compare(&a, &b);
    assert_eq!(code, 0, "stderr: {stderr}");
    let row = stdout
        .lines()
        .find(|l| l.starts_with("host_s"))
        .expect("host_s row");
    assert!(row.trim_end().ends_with("0.5000"), "{row}");
}

#[test]
fn refuses_result_sets_of_different_workloads() {
    let a = result_set("compare_serve.json", 2, 0.5);
    let b = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("compare_ft.json");
    let text = std::fs::read_to_string(&a).expect("read result set");
    std::fs::write(&b, text.replace("serve-kv", "ft-hybrid")).expect("write result set");
    let (code, _, stderr) = compare(&a, &b);
    assert_eq!(code, 2);
    assert!(stderr.contains("refusing to compare: workload"), "{stderr}");
}
