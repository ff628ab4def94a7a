//! Fig 3.3 — UTS parallel scalability on 16 nodes (8-way SMPs), InfiniBand
//! and Ethernet, three stealing strategies.

use hupc::net::Conduit;
use hupc::uts::{run_uts, StealStrategy, UtsConfig};

use crate::{Metrics, Table};

pub const STRATEGIES: [StealStrategy; 3] = [
    StealStrategy::Random,
    StealStrategy::LocalFirst,
    StealStrategy::LocalFirstRapid,
];

pub fn run(quick: bool) -> (Vec<Table>, Metrics) {
    let threads: &[usize] = if quick { &[16, 32] } else { &[16, 32, 64, 128] };
    let mut tables = Vec::new();
    for (label, conduit) in [
        ("InfiniBand (DDR), steal granularity 8", Conduit::ib_ddr()),
        ("Ethernet (GigE), steal granularity 20", Conduit::gige()),
    ] {
        let mut t = Table::new(
            format!("Fig 3.3 — UTS throughput (Mnodes/s), 16 Pyramid nodes, {label}"),
            &["threads", "Baseline", "Local-stealing", "Local+Rapid-diffusion"],
        );
        for &n in threads {
            let mut cells = vec![n.to_string()];
            for s in STRATEGIES {
                let r = run_uts(UtsConfig::thesis(n, conduit.clone(), s));
                cells.push(format!("{:.1}", r.mnodes_per_sec));
            }
            t.row(cells);
        }
        tables.push(t);
    }
    (tables, Metrics::default())
}
