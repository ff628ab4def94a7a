//! Ablation studies of the design parameters the thesis calls out but does
//! not sweep:
//!
//! * **steal granularity** — §3.3.2.1: "the work stealing granularity
//!   parameter has a strong impact on performance" (the thesis fixes 8 on
//!   InfiniBand and 20 on Ethernet; here the whole range is swept);
//! * **overlap benefit vs decomposition width** — how much the §4.3.3.1
//!   overlap algorithm buys as per-plane messages shrink.

use hupc::fft::{run_ft_upc, ComputeMode, ExchangeKind, FtClass, FtConfig};
use hupc::gasnet::Backend;
use hupc::net::Conduit;
use hupc::topo::{BindPolicy, MachineSpec};
use hupc::uts::{run_uts, StealStrategy, UtsConfig};

use crate::{Metrics, Table};

fn granularity_table(quick: bool) -> Table {
    let mut t = Table::new(
        "Ablation — UTS steal granularity (64 threads, 16 Pyramid nodes, local+rapid)",
        &["granularity", "IB Mnodes/s", "Ethernet Mnodes/s"],
    );
    let grans: &[usize] = if quick { &[4, 16] } else { &[2, 4, 8, 16, 32, 64] };
    for &g in grans {
        let mut row = vec![g.to_string()];
        for conduit in [Conduit::ib_ddr(), Conduit::gige()] {
            let mut cfg = UtsConfig::thesis(64, conduit, StealStrategy::LocalFirstRapid);
            cfg.steal_granularity = g;
            let r = run_uts(cfg);
            row.push(format!("{:.1}", r.mnodes_per_sec));
        }
        t.row(row);
    }
    t
}

fn overlap_table(quick: bool) -> Table {
    let mut t = Table::new(
        "Ablation — overlap vs split-phase comm seconds by thread count (FT class B, 8 Lehman nodes)",
        &["threads", "split-phase", "overlap", "overlap gain"],
    );
    let threads: &[usize] = if quick { &[16] } else { &[8, 16, 32, 64] };
    for &n in threads {
        let mk = |ex: ExchangeKind| FtConfig {
            class: FtClass::B,
            machine: MachineSpec::lehman().with_nodes(8),
            threads: n,
            nodes_used: 8.min(n),
            conduit: Conduit::ib_qdr(),
            backend: Backend::processes_pshm(),
            bind: BindPolicy::PackedCores,
            exchange: ex,
            subthreads: None,
            mode: ComputeMode::Model,
            iters_override: Some(if quick { 2 } else { 5 }),
            overheads: None,
            fault: None,
        };
        let split = run_ft_upc(mk(ExchangeKind::SplitPhase)).comm_seconds;
        let olap = run_ft_upc(mk(ExchangeKind::Overlap)).comm_seconds;
        t.row(vec![
            n.to_string(),
            format!("{split:.3}"),
            format!("{olap:.3}"),
            format!("{:.2}x", split / olap),
        ]);
    }
    t
}

pub fn run(quick: bool) -> (Vec<Table>, Metrics) {
    (vec![granularity_table(quick), overlap_table(quick)], Metrics::default())
}
