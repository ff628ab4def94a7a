//! Serving-latency experiment: throughput-vs-offered-load knee curve and
//! fault-plan tail-latency deltas for the hupc-serve KV service.
//!
//! Everything here is measured in *virtual* time, so the numbers are a
//! deterministic function of the config — the committed baseline gates
//! semantic regressions in the serving path (a scheduling change that
//! doubles p99 fails CI on any host), not host speed.
//!
//! Three sections:
//! 1. **Knee curve** — the open-loop arrival rate sweeps from well under
//!    capacity to past it; achieved throughput flattens while p99/p999
//!    explode, locating the knee the ROADMAP's SLO scenarios care about.
//! 2. **Overload shedding** — the past-knee point rerun with the admission
//!    bound: served p999 collapses back down, demand is shed instead of
//!    queued.
//! 3. **Faults as tail experiments** — the sub-saturation point under a
//!    straggler plan (one node at 3x CPU slowdown): p999 degrades while
//!    p50 barely moves, the classic tail-at-scale signature.

use hupc::serve::{
    run_serve, ArrivalProcess, KeyDist, OpMix, ServeConfig, ServeResult, TrafficConfig,
};
use hupc::prelude::{time, FaultPlan, UpcConfig};

use crate::{Metrics, Table};

const US: f64 = 1_000.0; // ns per µs

fn us(ns: u64) -> f64 {
    ns as f64 / US
}

fn base_cfg(quick: bool, mean_gap: hupc::sim::Time, seed: u64) -> ServeConfig {
    ServeConfig {
        upc: UpcConfig::test_default(16, 4),
        traffic: TrafficConfig {
            process: ArrivalProcess::Poisson { mean_gap },
            mix: OpMix::read_heavy(),
            requests_per_frontend: if quick { 120 } else { 400 },
            batch_len: 4,
            keys: KeyDist::Uniform,
            seed,
        },
        partitions_per_thread: 2,
        keys_per_partition: 64,
        epochs: 1,
        shed_after: None,
        apply_ns: 200,
        get_compute_ns: 100,
        poll_gap: time::us(1),
    }
}

fn krps(r: &ServeResult) -> f64 {
    r.throughput_rps() / 1_000.0
}

pub fn run(quick: bool) -> (Vec<Table>, Metrics) {
    let mut m = Metrics::default();
    m.push("threads", 16.0);

    // --- 1. Knee curve -----------------------------------------------------
    // Per-frontend mean inter-arrival gaps, sub-saturation → past the knee.
    let gaps = [time::us(16), time::us(8), time::us(4), time::us(2)];
    let mut knee = Table::new(
        "serve: throughput vs offered load (16 threads / 4 nodes, 70/20/10 GET/PUT/BATCH)",
        &[
            "offered krps",
            "achieved krps",
            "p50 µs",
            "p99 µs",
            "p999 µs",
            "shed %",
        ],
    );
    let mut last_result = None;
    let mut sub_saturation_p99_us = 0.0;
    let mut peak_krps = 0.0f64;
    for (i, gap) in gaps.iter().enumerate() {
        let r = run_serve(base_cfg(quick, *gap, 0xBE5E ^ i as u64));
        let offered = 16.0 / hupc::sim::time::as_secs_f64(*gap) / 1_000.0;
        let achieved = krps(&r);
        let (p50, p99, p999) = (us(r.hist.p50()), us(r.hist.p99()), us(r.hist.p999()));
        let n = i + 1;
        m.push(format!("offered_krps_{n}"), offered);
        m.push(format!("achieved_krps_{n}"), achieved);
        m.push(format!("p50_us_{n}"), p50);
        m.push(format!("p99_us_{n}"), p99);
        m.push(format!("p999_us_{n}"), p999);
        if i == 0 {
            sub_saturation_p99_us = p99;
        }
        peak_krps = peak_krps.max(achieved);
        knee.row(vec![
            format!("{offered:.0}"),
            format!("{achieved:.0}"),
            format!("{p50:.1}"),
            format!("{p99:.1}"),
            format!("{p999:.1}"),
            format!("{:.1}", 100.0 * r.shed as f64 / r.generated as f64),
        ]);
        last_result = Some(r);
    }
    // Gated: p99 at the sub-saturation point and the best achieved
    // throughput across the sweep.
    m.push("sub_saturation_p99_us", sub_saturation_p99_us);
    m.push("peak_krps", peak_krps);

    // --- 2. Overload shedding ---------------------------------------------
    let mut shed_cfg = base_cfg(quick, gaps[3], 0xBE5E ^ 3);
    shed_cfg.shed_after = Some(time::us(200));
    let shed_run = run_serve(shed_cfg);
    let shed_pct = 100.0 * shed_run.shed as f64 / shed_run.generated as f64;
    let shed_p999 = us(shed_run.hist.p999());
    m.push("shed_pct_overload", shed_pct);
    m.push("shed_p999_us", shed_p999);
    let unbounded = last_result.expect("knee sweep ran");
    let mut shed_t = Table::new(
        "serve: past-knee point with / without the admission bound (200µs)",
        &["variant", "served p999 µs", "shed %"],
    );
    shed_t.row(vec![
        "unbounded queueing".into(),
        format!("{:.1}", us(unbounded.hist.p999())),
        "0.0".into(),
    ]);
    shed_t.row(vec![
        "shed_after = 200µs".into(),
        format!("{shed_p999:.1}"),
        format!("{shed_pct:.1}"),
    ]);

    // --- 3. Straggler tail experiment -------------------------------------
    // Compute-heavy variant (apply cost dominates the wire RTT) at
    // sub-saturation: slowing one node's CPUs 3x queues requests behind its
    // shards' applies while the other three nodes are untouched — the tail
    // fattens, the median barely moves.
    let mut ff_cfg = base_cfg(quick, time::us(32), 0x51DE);
    ff_cfg.apply_ns = 4_000;
    ff_cfg.get_compute_ns = 2_000;
    let fault_free = run_serve(ff_cfg.clone());
    let mut strag_cfg = ff_cfg;
    strag_cfg.upc.gasnet.fault = Some(FaultPlan::new(0xAF).straggler(1, 3.0));
    let straggler = run_serve(strag_cfg);
    let (ff_p50, ff_p999) = (us(fault_free.hist.p50()), us(fault_free.hist.p999()));
    let (st_p50, st_p999) = (us(straggler.hist.p50()), us(straggler.hist.p999()));
    m.push("fault_free_p50_us", ff_p50);
    m.push("fault_free_p999_us", ff_p999);
    m.push("straggler_p50_us", st_p50);
    m.push("straggler_p999_us", st_p999);
    // Gated: the tail-at-scale shape.
    m.push("straggler_p999_ratio", st_p999 / ff_p999);
    m.push("straggler_p50_ratio", st_p50 / ff_p50);
    let mut fault_t = Table::new(
        "serve: straggler (node 1 at 3x slowdown) vs fault-free, sub-saturation",
        &["variant", "p50 µs", "p99 µs", "p999 µs"],
    );
    fault_t.row(vec![
        "fault-free".into(),
        format!("{ff_p50:.1}"),
        format!("{:.1}", us(fault_free.hist.p99())),
        format!("{ff_p999:.1}"),
    ]);
    fault_t.row(vec![
        "straggler".into(),
        format!("{st_p50:.1}"),
        format!("{:.1}", us(straggler.hist.p99())),
        format!("{st_p999:.1}"),
    ]);

    (vec![knee, shed_t, fault_t], m)
}
