//! Robustness sweep — UTS throughput under injected packet loss on GigE.
//!
//! Not a thesis figure: this exercises the fault-injection subsystem end
//! to end. Each dropped packet costs the thief a retransmission (with
//! exponential backoff), so throughput should degrade *gracefully* as the
//! loss rate rises while the counted tree stays exact — work stealing
//! reroutes around lossy links instead of losing nodes.

use hupc::gasnet::FaultPlan;
use hupc::net::Conduit;
use hupc::uts::{run_uts, sequential_traverse, StealStrategy, TreeParams, UtsConfig};

use crate::{Metrics, Table};

/// Loss rates of the sweep (the ISSUE's 1–5% band plus the fault-free
/// baseline the others are normalized against).
pub const LOSS_RATES: [f64; 4] = [0.0, 0.01, 0.02, 0.05];

pub fn run(quick: bool) -> (Vec<Table>, Metrics) {
    let threads = if quick { 16 } else { 32 };
    let expected = sequential_traverse(&TreeParams::thesis_binomial()).0;
    let mut t = Table::new(
        format!(
            "Fault sweep — UTS (Mnodes/s), {threads} threads, 16 Pyramid nodes, \
             Ethernet (GigE), Local-stealing + Rapid-diffusion"
        ),
        &["loss %", "Mnodes/s", "vs fault-free", "comm failures", "nodes exact"],
    );
    let mut baseline = None;
    for &p in &LOSS_RATES {
        let mut cfg = UtsConfig::thesis(
            threads,
            Conduit::gige(),
            StealStrategy::LocalFirstRapid,
        );
        if p > 0.0 {
            cfg.fault = Some(FaultPlan::new(0xD15EA5ED).loss(p));
        }
        let r = run_uts(cfg);
        let base = *baseline.get_or_insert(r.mnodes_per_sec);
        t.row(vec![
            format!("{:.0}", p * 100.0),
            format!("{:.1}", r.mnodes_per_sec),
            format!("{:.2}x", r.mnodes_per_sec / base),
            r.comm_failures.to_string(),
            if r.total_nodes == expected { "yes" } else { "NO" }.to_string(),
        ]);
    }
    (vec![t], Metrics::default())
}
