//! Trace capture — run the three small conformance workloads (UTS, FT,
//! GUPS) under a full-level tracer and dump the artifacts next to the
//! working directory:
//!
//! * `trace_<app>.jsonl`   — the merged event stream (golden format);
//! * `trace_<app>.chrome.json` — load in `chrome://tracing` / Perfetto;
//! * `trace_<app>.metrics.json` — the metrics-registry snapshot.
//!
//! The printed tables summarize event volume per app and, for UTS, the
//! per-group-distance steal breakdown (distance 0 = victim on the thief's
//! own node). Not a thesis figure: this is the observability layer's
//! smoke run, and what CI uploads as its trace artifact.

use std::sync::Arc;

use hupc::fft::{run_ft_upc, FtConfig};
use hupc::gups::{run_gups, GupsConfig, Routing};
use hupc::trace::{to_chrome_trace, to_jsonl, Loc, TraceLevel, Tracer};
use hupc::uts::{run_uts, StealStrategy, UtsConfig};

use crate::{Metrics, Table};

/// Capture one workload under a fresh full-level tracer; returns
/// (events recorded, events dropped, jsonl lines) after writing artifacts.
fn capture(app: &str, work: impl FnOnce()) -> (u64, u64, usize, Arc<Tracer>) {
    let t = Arc::new(Tracer::new(TraceLevel::Full));
    let g = t.install();
    work();
    drop(g);
    let merged = t.merge();
    let jsonl = to_jsonl(&merged);
    let lines = jsonl.lines().count();
    std::fs::write(format!("trace_{app}.jsonl"), &jsonl)
        .unwrap_or_else(|e| panic!("write trace_{app}.jsonl: {e}"));
    std::fs::write(format!("trace_{app}.chrome.json"), to_chrome_trace(&merged))
        .unwrap_or_else(|e| panic!("write trace_{app}.chrome.json: {e}"));
    std::fs::write(
        format!("trace_{app}.metrics.json"),
        t.metrics().snapshot().to_json(),
    )
    .unwrap_or_else(|e| panic!("write trace_{app}.metrics.json: {e}"));
    (t.events_recorded(), t.events_dropped(), lines, t)
}

pub fn run(quick: bool) -> (Vec<Table>, Metrics) {
    let uts_threads = if quick { 8 } else { 16 };
    let mut volume = Table::new(
        "Trace capture — event volume per app (full level, unbounded rings)",
        &["app", "events", "dropped", "jsonl lines", "steals"],
    );

    // UTS: big enough to force real cross-node stealing. The full run uses
    // a deeper tree so the steal-distance histogram has a populated tail.
    let mut cfg = UtsConfig::small(uts_threads, 4, StealStrategy::LocalFirstRapid, 7);
    if !quick {
        cfg.tree = hupc::uts::TreeParams::Binomial {
            b0: 500,
            m: 6,
            q: 0.16,
            seed: 7,
        };
    }
    let mut steals = 0;
    let (ev, dr, lines, tracer) = capture("uts", || {
        let r = run_uts(cfg);
        steals = r.local_steals + r.remote_steals;
    });
    volume.row(vec![
        "uts".into(),
        ev.to_string(),
        dr.to_string(),
        lines.to_string(),
        steals.to_string(),
    ]);

    // Steal-locality breakdown from the metrics registry: counters are
    // keyed by topology location, so summing per thread keeps the table
    // deterministic.
    let m = tracer.metrics();
    let mut locality = Table::new(
        format!(
            "UTS steal locality — {uts_threads} threads on 4 nodes, \
             Local-stealing + Rapid-diffusion"
        ),
        &["metric", "total", "distance histogram (hops: count)"],
    );
    let dist_hist = |name: &'static str| -> String {
        let mut merged = vec![0u64; 65];
        let (mut count, mut sum) = (0u64, 0u64);
        for thread in 0..uts_threads as u32 {
            for node in 0..4u32 {
                if let Some(h) = m.histogram(name, Loc::new(node, thread)) {
                    for (i, b) in h.buckets.iter().enumerate() {
                        merged[i] += b;
                    }
                    count += h.count;
                    sum += h.sum;
                }
            }
        }
        // Bucket 0 is distance 0 (same node); bucket i>0 covers hop
        // distances [2^(i-1), 2^i).
        let mut parts = Vec::new();
        for (i, b) in merged.iter().enumerate() {
            if *b > 0 {
                let label = if i == 0 {
                    "0".to_string()
                } else {
                    format!("{}..{}", 1u64 << (i - 1), 1u64 << i)
                };
                parts.push(format!("{label}: {b}"));
            }
        }
        format!("n={count} sum={sum} [{}]", parts.join(", "))
    };
    locality.row(vec![
        "uts.steal_attempts".into(),
        m.counter_total("uts.steal_attempts").to_string(),
        dist_hist("uts.probe_distance"),
    ]);
    locality.row(vec![
        "uts.steals".into(),
        m.counter_total("uts.steals").to_string(),
        dist_hist("uts.steal_distance"),
    ]);
    locality.row(vec![
        "uts.steals_local".into(),
        m.counter_total("uts.steals_local").to_string(),
        String::new(),
    ]);
    locality.row(vec![
        "uts.steals_remote".into(),
        m.counter_total("uts.steals_remote").to_string(),
        String::new(),
    ]);

    // FT: exchange/compute span structure.
    let (ev, dr, lines, _t) = capture("ft", || {
        let r = run_ft_upc(FtConfig::test_custom(16, 16, 16, 2, 2, 2));
        assert!(r.total_seconds > 0.0);
    });
    volume.row(vec![
        "ft".into(),
        ev.to_string(),
        dr.to_string(),
        lines.to_string(),
        "-".into(),
    ]);

    // GUPS: exchange/apply spans over the hierarchical router.
    let (ev, dr, lines, _t) = capture("gups", || {
        let r = run_gups(GupsConfig::small(8, 2, Routing::Hierarchical));
        assert_eq!(r.errors, 0);
    });
    volume.row(vec![
        "gups".into(),
        ev.to_string(),
        dr.to_string(),
        lines.to_string(),
        "-".into(),
    ]);

    eprintln!(
        "[trace artifacts written: trace_{{uts,ft,gups}}.{{jsonl,chrome.json,metrics.json}}]"
    );
    (vec![volume, locality], Metrics::default())
}
