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
//! `stencil2d`): their fault-free virtual seconds must
//! stay within 2x of the baseline, and every sweep cell must pass its
//! oracle.

use hupc::app::{run_by_name, Params, Registry};
use hupc::gasnet::FaultPlan;

use crate::Table;

/// Headline metrics for `BENCH_apps.json`: the per-app virtual seconds the
/// CI gate ratios, the pass counters, and the full per-run report array.
#[derive(Clone, Debug, Default)]
pub struct AppsMetrics {
    pub md_seconds: f64,
    pub cg_seconds: f64,
    pub stencil2d_seconds: f64,
    /// Sweep cells whose workload oracle passed / total cells run.
    pub passed_runs: f64,
    pub total_runs: f64,
    /// `RunReport::to_json` for every cell, in sweep order.
    pub runs: Vec<String>,
}

impl AppsMetrics {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"md_seconds\":{:.9},\"cg_seconds\":{:.9},\"stencil2d_seconds\":{:.9},\
             \"passed_runs\":{:.0},\"total_runs\":{:.0},\"runs\":[{}]}}",
            self.md_seconds,
            self.cg_seconds,
            self.stencil2d_seconds,
            self.passed_runs,
            self.total_runs,
            self.runs.join(","),
        )
    }
}

/// The sweep's fault dimension: fault-free, plus (on full runs) a 3x CPU
/// straggler on node 1 — timing-only, so every oracle must still pass.
fn fault_plans(quick: bool) -> Vec<(&'static str, Option<FaultPlan>)> {
    let mut plans = vec![("none", None)];
    if !quick {
        plans.push(("straggler", Some(FaultPlan::new(0xFA57).straggler(1, 3.0))));
    }
    plans
}

pub fn run(quick: bool) -> (Vec<Table>, AppsMetrics) {
    let reg = Registry::builtin();
    let mut t = Table::new(
        "Workload sweep (registry x fault, virtual time)",
        &["workload", "fault", "passed", "virtual s", "oracle"],
    );
    let mut m = AppsMetrics::default();

    for w in reg.iter() {
        for (fault_label, fault) in fault_plans(quick) {
            let mut env = w.default_env();
            env.fault = fault;
            let report = run_by_name(&reg, w.name(), &env, &Params::empty(), fault_label)
                .unwrap_or_else(|e| panic!("{} failed to run: {e}", w.name()));
            let v = &report.verified;
            m.total_runs += 1.0;
            if v.passed {
                m.passed_runs += 1.0;
            }
            // The gated per-app numbers come from the fault-free cell — the
            // canonical configuration.
            if fault_label == "none" {
                match w.name() {
                    "md" => m.md_seconds = v.end_seconds,
                    "cg" => m.cg_seconds = v.end_seconds,
                    "stencil2d" => m.stencil2d_seconds = v.end_seconds,
                    _ => {}
                }
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
        assert_eq!(m.passed_runs, m.total_runs, "{}", m.to_json());
        assert!(m.md_seconds > 0.0);
        assert!(m.cg_seconds > 0.0);
        assert!(m.stencil2d_seconds > 0.0);
        // The gated keys must survive a to_json round trip.
        let j = m.to_json();
        for key in ["md_seconds", "cg_seconds", "stencil2d_seconds"] {
            assert!(crate::report::json_number(&j, key).unwrap() > 0.0);
        }
        assert_eq!(
            crate::report::json_number(&j, "passed_runs"),
            crate::report::json_number(&j, "total_runs")
        );
    }

    /// The full sweep adds the straggler fault dimension — timing-only, so
    /// every oracle must still pass. Run explicitly with `--ignored` (CI
    /// perf-smoke covers the quick sweep on every push).
    #[test]
    #[ignore = "full sweep; run with --ignored"]
    fn full_sweep_with_faults_all_pass() {
        let (_tables, m) = run(false);
        assert_eq!(m.passed_runs, m.total_runs, "{}", m.to_json());
        assert_eq!(m.total_runs, (Registry::builtin().len() * 2) as f64);
    }
}
