//! The workload-registry sweep: every registered application × fault plan,
//! through the `hupc-app` SDK's generic runner.
//!
//! Each cell runs the workload's own oracle and reports pass/fail plus the
//! end-of-run virtual time; the whole sweep serializes to one JSON report
//! (`BENCH_apps.json`) whose `runs` array is directly comparable across
//! commits — virtual time is bit-deterministic, so any drift is a real
//! semantic or performance change, not host noise.
//!
//! The committed baseline gates the three breadth-wave apps (`md`, `cg`,
//! `stencil2d`): their fault-free virtual seconds must stay within 2x of
//! the baseline, and every sweep cell must pass its oracle
//! (`failed_runs` ≤ 0).

use hupc::app::{run_by_name, Params, Registry};
use hupc::gasnet::FaultPlan;

use crate::{Metrics, Table};

/// The sweep's fault dimension: fault-free, plus (on full runs) a 3x CPU
/// straggler on node 1 — timing-only, so every oracle must still pass.
fn fault_plans(quick: bool) -> Vec<(&'static str, Option<FaultPlan>)> {
    let mut plans = vec![("none", None)];
    if !quick {
        plans.push(("straggler", Some(FaultPlan::new(0xFA57).straggler(1, 3.0))));
    }
    plans
}

/// Headline metrics: the fault-free virtual seconds of `md`, `cg` and
/// `stencil2d`, the pass counters, and every cell's `RunReport` as `runs`.
pub fn run(quick: bool) -> (Vec<Table>, Metrics) {
    let reg = Registry::builtin();
    let mut t = Table::new(
        "Workload sweep (registry x fault, virtual time)",
        &["workload", "fault", "passed", "virtual s", "oracle"],
    );
    let mut m = Metrics::default();
    let (mut passed, mut total) = (0.0, 0.0);

    for w in reg.iter() {
        for (fault_label, fault) in fault_plans(quick) {
            let mut env = w.default_env();
            env.fault = fault;
            let report = run_by_name(&reg, w.name(), &env, &Params::empty(), fault_label)
                .unwrap_or_else(|e| panic!("{} failed to run: {e}", w.name()));
            let v = &report.verified;
            total += 1.0;
            if v.passed {
                passed += 1.0;
            }
            // The gated per-app numbers come from the fault-free cell — the
            // canonical configuration.
            if fault_label == "none" && ["md", "cg", "stencil2d"].contains(&w.name()) {
                m.push(format!("{}_seconds", w.name()), v.end_seconds);
            }
            t.row(vec![
                report.workload.clone(),
                report.fault.clone(),
                if v.passed { "yes".into() } else { "NO".into() },
                format!("{:.6}", v.end_seconds),
                v.oracle.chars().take(60).collect(),
            ]);
            m.runs.push(report.to_json());
        }
    }
    m.push("passed_runs", passed);
    m.push("total_runs", total);
    m.push("failed_runs", total - passed);
    (vec![t], m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn builtin_registry_has_breadth_apps(reg: &Registry) -> bool {
        ["md", "cg", "stencil2d"]
            .iter()
            .all(|n| reg.get(n).is_some())
    }

    #[test]
    fn quick_sweep_all_pass() {
        let reg = Registry::builtin();
        assert!(builtin_registry_has_breadth_apps(&reg));
        let (_tables, m) = run(true);
        assert_eq!(m.get("failed_runs"), Some(0.0), "{}", m.to_json());
        assert_eq!(m.get("passed_runs"), m.get("total_runs"));
        assert_eq!(m.runs.len() as f64, m.get("total_runs").unwrap());
        for key in ["md_seconds", "cg_seconds", "stencil2d_seconds"] {
            assert!(m.get(key).unwrap() > 0.0, "{key}");
        }
    }

    /// The full sweep adds the straggler fault dimension — timing-only, so
    /// every oracle must still pass. Run explicitly with `--ignored` (CI
    /// perf-smoke covers the quick sweep on every push).
    #[test]
    #[ignore = "full sweep; run with --ignored"]
    fn full_sweep_with_faults_all_pass() {
        let (_tables, m) = run(false);
        assert_eq!(m.get("failed_runs"), Some(0.0), "{}", m.to_json());
        assert_eq!(m.get("total_runs"), Some((Registry::builtin().len() * 2) as f64));
    }
}
