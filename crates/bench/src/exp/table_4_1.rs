//! Table 4.1 — STREAM triad under hybrid UPC×sub-thread placement.

use hupc::stream::{run_hybrid_triad, HybridConfig, HybridLayout};

use crate::{Metrics, Table};

/// The thesis rows: (layout, published GB/s).
pub fn layouts() -> Vec<(HybridLayout, f64)> {
    vec![
        (HybridLayout::PureUpc { threads: 8 }, 24.5),
        (HybridLayout::PureOpenMp { threads: 8 }, 23.7),
        (
            HybridLayout::Hybrid {
                upc: 1,
                subs: 8,
                bound: false,
            },
            13.9,
        ),
        (
            HybridLayout::Hybrid {
                upc: 2,
                subs: 4,
                bound: true,
            },
            24.7,
        ),
        (
            HybridLayout::Hybrid {
                upc: 4,
                subs: 2,
                bound: true,
            },
            24.7,
        ),
    ]
}

pub fn run(quick: bool) -> (Vec<Table>, Metrics) {
    let mut t = Table::new(
        "Table 4.1 — STREAM Triad placement study, 1 Lehman node",
        &["configuration", "measured GB/s", "thesis GB/s", "max |err|"],
    );
    for (layout, paper) in layouts() {
        let mut cfg = HybridConfig::table_4_1(layout);
        if quick {
            cfg.elems_total = 1 << 17;
            cfg.iters = 3;
        }
        let r = run_hybrid_triad(cfg);
        t.row(vec![
            r.variant.clone(),
            format!("{:.1}", r.gbps),
            format!("{paper:.1}"),
            format!("{:.1e}", r.max_error),
        ]);
    }
    (vec![t], Metrics::default())
}
