//! Table 3.2 — UTS profiling: overall improvement and local-steal ratios,
//! baseline vs optimized (local-stealing + rapid diffusion).

use hupc::net::Conduit;
use hupc::uts::{run_uts, StealStrategy, UtsConfig};

use crate::{Metrics, Table};

/// Thesis values per row `(threads, overall %, base local %, opt local %)`.
pub const PAPER_IB: [(usize, f64, f64, f64); 3] = [
    (32, 3.4, 36.2, 59.0),
    (64, 7.1, 58.1, 82.9),
    (128, 11.2, 72.2, 90.9),
];
pub const PAPER_ETH: [(usize, f64, f64, f64); 3] = [
    (32, 49.4, 18.2, 57.8),
    (64, 66.5, 40.5, 81.1),
    (128, 99.5, 58.1, 89.7),
];

pub fn run(quick: bool) -> (Vec<Table>, Metrics) {
    let mut t = Table::new(
        "Table 3.2 — UTS profiling, 16 Pyramid nodes (optimized = local-stealing + rapid-diffusion)",
        &[
            "config",
            "improvement %",
            "thesis %",
            "local steal % (base)",
            "thesis",
            "local steal % (opt)",
            "thesis",
        ],
    );
    for (name, conduit, rows) in [
        ("Infiniband", Conduit::ib_ddr(), PAPER_IB),
        ("Ethernet", Conduit::gige(), PAPER_ETH),
    ] {
        for (threads, p_imp, p_base, p_opt) in rows {
            if quick && threads > 32 {
                continue;
            }
            let base = run_uts(UtsConfig::thesis(
                threads,
                conduit.clone(),
                StealStrategy::Random,
            ));
            let opt = run_uts(UtsConfig::thesis(
                threads,
                conduit.clone(),
                StealStrategy::LocalFirstRapid,
            ));
            let imp = (base.seconds / opt.seconds - 1.0) * 100.0;
            t.row(vec![
                format!("{name} {threads}/{}", threads / 16),
                format!("{imp:.1}"),
                format!("{p_imp:.1}"),
                format!("{:.1}", 100.0 * base.local_steal_ratio()),
                format!("{p_base:.1}"),
                format!("{:.1}", 100.0 * opt.local_steal_ratio()),
                format!("{p_opt:.1}"),
            ]);
        }
    }
    (vec![t], Metrics::default())
}
