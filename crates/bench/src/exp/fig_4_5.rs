//! Fig 4.5 — time spent in communication calls of the split-phase FT
//! (class B): MPI vs UPC processes vs UPC pthreads vs hierarchical
//! UPC×sub-threads, on both clusters.

use hupc::fft::{
    run_ft_mpi, run_ft_upc, ComputeMode, ExchangeKind, FtClass, FtConfig, SubthreadSpec,
};
use hupc::gasnet::Backend;
use hupc::net::Conduit;
use hupc::subthreads::SubthreadModel;
use hupc::topo::{BindPolicy, MachineSpec};

use crate::{Metrics, Table};

fn base_cfg(machine: MachineSpec, nodes: usize, threads: usize, quick: bool) -> FtConfig {
    FtConfig {
        class: FtClass::B,
        machine,
        threads,
        nodes_used: nodes,
        conduit: Conduit::ib_qdr(),
        backend: Backend::processes_pshm(),
        bind: BindPolicy::PackedCores,
        exchange: ExchangeKind::SplitPhase,
        subthreads: None,
        mode: ComputeMode::Model,
        iters_override: Some(if quick { 5 } else { 20 }),
        overheads: None,
        fault: None,
    }
}

fn platform_table(
    name: &str,
    machine: MachineSpec,
    conduit: Conduit,
    nodes: usize,
    totals: &[usize],
    quick: bool,
) -> Table {
    let mut t = Table::new(
        format!("Fig 4.5 — FT class B split-phase comm seconds, {nodes} {name} nodes"),
        &["cores", "MPI", "UPC (processes)", "UPC (pthreads)", "UPC*Threads (hybrid)"],
    );
    for &total in totals {
        let mut cfg = base_cfg(machine.clone(), nodes, total, quick);
        cfg.conduit = conduit.clone();

        let mpi = run_ft_mpi(cfg.clone()).comm_seconds;
        let proc = run_ft_upc(cfg.clone()).comm_seconds;

        let mut pth = cfg.clone();
        pth.backend = Backend::pthreads(total / nodes);
        let pth = run_ft_upc(pth).comm_seconds;

        // Hybrid: two UPC threads per node (one per socket, the thesis'
        // numactl practice), sub-threads filling each socket.
        let masters = (2 * nodes).min(total);
        let mut hyb = base_cfg(machine.clone(), nodes, masters, quick);
        hyb.conduit = conduit.clone();
        hyb.bind = BindPolicy::RoundRobinSockets;
        hyb.subthreads = Some(SubthreadSpec {
            n: total / masters,
            model: SubthreadModel::OpenMp,
        });
        let hyb = run_ft_upc(hyb).comm_seconds;

        t.row(vec![
            total.to_string(),
            format!("{mpi:.3}"),
            format!("{proc:.3}"),
            format!("{pth:.3}"),
            format!("{hyb:.3}"),
        ]);
    }
    t
}

pub fn run(quick: bool) -> (Vec<Table>, Metrics) {
    let lehman_totals: &[usize] = if quick { &[8, 32] } else { &[8, 16, 32, 64, 128] };
    let pyramid_totals: &[usize] = if quick { &[16, 32] } else { &[16, 32, 64, 128] };
    let tables = vec![
        platform_table(
            "Lehman",
            MachineSpec::lehman().with_nodes(8),
            Conduit::ib_qdr(),
            8,
            lehman_totals,
            quick,
        ),
        platform_table(
            "Pyramid",
            MachineSpec::pyramid().with_nodes(16),
            Conduit::ib_ddr(),
            16,
            pyramid_totals,
            quick,
        ),
    ];
    (tables, Metrics::default())
}
