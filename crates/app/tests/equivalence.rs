//! Migration-safety pins: each adapter must produce results bit-identical
//! to the direct (pre-SDK) driver invoked with the same configuration, and
//! the breadth-wave apps must be bit-deterministic across reruns.
//!
//! Every test takes [`serial`] first: the runner and the rerun check install
//! a process-global tracer, which any simulation another test starts at the
//! same time would adopt and write into.

use std::sync::{Arc, Mutex, MutexGuard};

use hupc_app::adapters::{
    ft_config, gups_config, stream_config, uts_config, FtWorkload, GupsWorkload, StreamWorkload,
    UtsWorkload,
};
use hupc_app::cg::CgWorkload;
use hupc_app::md::MdWorkload;
use hupc_app::stencil2d::Stencil2dWorkload;
use hupc_app::{run_workload, Params, Verified, Workload};

fn bits(v: f64) -> u64 {
    v.to_bits()
}

/// Serializes the tests of this binary (see the module docs).
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One direct run of `w` in its default environment, plus the full
/// structured event log of that run. A ring that evicted events would make
/// two truncated logs compare equal, so the run must record every event.
fn run_logged(w: &dyn Workload) -> (Verified, String) {
    let env = w.default_env();
    let t = Arc::new(hupc_trace::Tracer::new(hupc_trace::TraceLevel::Full));
    let guard = t.install();
    let v = w.run(&env, &Params::empty()).unwrap();
    drop(guard);
    assert_eq!(t.events_dropped(), 0, "{}: the trace ring evicted events", w.name());
    (v, hupc_trace::to_jsonl(&t.merge()))
}

/// Run `w` twice on the one dispatch engine: every metric, the end virtual
/// time and the event log must be bit-identical.
fn assert_rerun_identical(w: &dyn Workload) {
    let (a, log_a) = run_logged(w);
    let (b, log_b) = run_logged(w);
    assert!(a.passed, "{}", a.oracle);
    assert_eq!(a.metrics.len(), b.metrics.len());
    for ((name, x), (_, y)) in a.metrics.iter().zip(&b.metrics) {
        assert_eq!(bits(*x), bits(*y), "metric {name} diverges between reruns");
    }
    assert_eq!(bits(a.end_seconds), bits(b.end_seconds));
    assert!(log_a == log_b, "{}: event log diverges between reruns", w.name());
    assert!(!log_a.is_empty(), "{}: no events recorded", w.name());
}

#[test]
fn uts_adapter_matches_direct_driver() {
    let _serial = serial();
    let w = UtsWorkload;
    let env = w.default_env();
    let params = Params::empty();
    let direct = hupc_uts::run_uts(uts_config(&env, &params).unwrap());
    let v = run_workload(&w, &env, &params).unwrap();
    assert!(v.passed, "{}", v.oracle);
    assert_eq!(v.metric("total_nodes").unwrap() as u64, direct.total_nodes);
    assert_eq!(v.metric("max_depth").unwrap() as u64, direct.max_depth);
    assert_eq!(v.metric("leaves").unwrap() as u64, direct.leaves);
    assert_eq!(bits(v.metric("mnodes_per_sec").unwrap()), bits(direct.mnodes_per_sec));
    assert_eq!(bits(v.end_seconds), bits(direct.seconds));
}

#[test]
fn ft_adapter_matches_direct_driver() {
    let _serial = serial();
    let w = FtWorkload;
    let env = w.default_env();
    let params = Params::empty();
    let direct = hupc_fft::run_ft_upc(ft_config(&env, &params).unwrap());
    let v = run_workload(&w, &env, &params).unwrap();
    assert!(v.passed, "{}", v.oracle);
    assert_eq!(bits(v.metric("gflops").unwrap()), bits(direct.gflops));
    assert_eq!(bits(v.metric("comm_seconds").unwrap()), bits(direct.comm_seconds));
    assert_eq!(bits(v.end_seconds), bits(direct.total_seconds));
}

#[test]
fn gups_adapter_matches_direct_driver() {
    let _serial = serial();
    let w = GupsWorkload;
    let env = w.default_env();
    let params = Params::empty();
    let direct = hupc_gups::run_gups(gups_config(&env, &params).unwrap());
    let v = run_workload(&w, &env, &params).unwrap();
    assert!(v.passed, "{}", v.oracle);
    assert_eq!(v.metric("errors").unwrap() as u64, direct.errors);
    assert_eq!(v.metric("total_updates").unwrap() as u64, direct.total_updates);
    assert_eq!(bits(v.metric("gups").unwrap()), bits(direct.gups));
    assert_eq!(bits(v.end_seconds), bits(direct.seconds));
}

#[test]
fn stream_adapter_matches_direct_driver() {
    let _serial = serial();
    let w = StreamWorkload;
    let env = w.default_env();
    let params = Params::empty();
    let direct = hupc_stream::run_twisted_triad(stream_config(&env, &params).unwrap());
    let v = run_workload(&w, &env, &params).unwrap();
    assert!(v.passed, "{}", v.oracle);
    assert_eq!(bits(v.metric("gbps").unwrap()), bits(direct.gbps));
    assert_eq!(bits(v.metric("max_error").unwrap()), bits(direct.max_error));
    assert_eq!(bits(v.end_seconds), bits(direct.seconds));
}

/// Each adapter re-parses params per call; defaults must round-trip with
/// the explicit spelling of those defaults.
#[test]
fn explicit_defaults_equal_empty_params() {
    let _serial = serial();
    let w = UtsWorkload;
    let env = w.default_env();
    let a = run_workload(&w, &env, &Params::empty()).unwrap();
    let p = Params::parse(&["seed=5", "strategy=local"]).unwrap();
    let b = run_workload(&w, &env, &p).unwrap();
    assert_eq!(bits(a.end_seconds), bits(b.end_seconds));
    assert_eq!(a.metric("total_nodes"), b.metric("total_nodes"));
}

#[test]
fn md_energy_identical_across_reruns() {
    let _serial = serial();
    assert_rerun_identical(&MdWorkload);
}

#[test]
fn cg_residual_identical_across_reruns() {
    let _serial = serial();
    assert_rerun_identical(&CgWorkload);
}

#[test]
fn stencil2d_heat_identical_across_reruns() {
    let _serial = serial();
    assert_rerun_identical(&Stencil2dWorkload);
}
