//! Table 3.1 — the twisted STREAM triad: pointer-to-shared translation vs
//! privatized access on one dual-socket Nehalem node.

use hupc::stream::{run_twisted_triad, TriadVariant, TwistedConfig};

use crate::{Metrics, Table};

/// Thesis values (GB/s), same row order as [`TriadVariant::all`].
pub const PAPER: [f64; 4] = [3.2, 7.2, 23.2, 23.4];

pub fn run(quick: bool) -> (Vec<Table>, Metrics) {
    let mut t = Table::new(
        "Table 3.1 — Twisted STREAM Triad, 8 threads, 2×Nehalem, bound",
        &["variant", "measured GB/s", "thesis GB/s", "max |err|"],
    );
    for (v, paper) in TriadVariant::all().into_iter().zip(PAPER) {
        let mut cfg = TwistedConfig::table_3_1(v);
        if quick {
            cfg.elems_per_thread = 1 << 15;
            cfg.iters = 3;
        }
        let r = run_twisted_triad(cfg);
        t.row(vec![
            r.variant.clone(),
            format!("{:.1}", r.gbps),
            format!("{paper:.1}"),
            format!("{:.1e}", r.max_error),
        ]);
    }
    (vec![t], Metrics::default())
}
