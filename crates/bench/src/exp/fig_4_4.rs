//! Fig 4.4 — NAS FT class B runtime breakdown: per-phase speedups from 1 to
//! 128 threads on 8 Lehman nodes (SMT beyond 64).

use hupc::fft::{run_ft_upc, ComputeMode, ExchangeKind, FtClass, FtConfig, FtResult};
use hupc::gasnet::Backend;
use hupc::net::Conduit;
use hupc::topo::{BindPolicy, MachineSpec};

use crate::{Metrics, Table};

fn run_one(threads: usize, exchange: ExchangeKind, quick: bool) -> FtResult {
    let nodes = threads.min(8);
    run_ft_upc(FtConfig {
        class: FtClass::B,
        machine: MachineSpec::lehman().with_nodes(8),
        threads,
        nodes_used: nodes,
        conduit: Conduit::ib_qdr(),
        backend: Backend::processes_pshm(),
        bind: BindPolicy::PackedCores,
        exchange,
        subthreads: None,
        mode: ComputeMode::Model,
        iters_override: Some(if quick { 2 } else { 5 }),
        overheads: None,
        fault: None,
    })
}

pub fn run(quick: bool) -> (Vec<Table>, Metrics) {
    let threads: &[usize] = if quick {
        &[1, 4, 16, 64]
    } else {
        &[1, 2, 4, 8, 16, 32, 64, 128]
    };
    let mut t = Table::new(
        "Fig 4.4 — FT class B phase speedups vs 1 thread (8 Lehman nodes; >64 threads = SMT)",
        &["threads", "evolve", "transpose", "FFT 2D", "FFT 1D", "all-to-all (split)", "all-to-all (overlap)"],
    );
    let base_split = run_one(1, ExchangeKind::SplitPhase, quick);
    let base_olap = run_one(1, ExchangeKind::Overlap, quick);
    for &n in threads {
        let s = run_one(n, ExchangeKind::SplitPhase, quick);
        let o = run_one(n, ExchangeKind::Overlap, quick);
        let sp = |a: f64, b: f64| format!("{:.1}", a / b.max(1e-12));
        t.row(vec![
            n.to_string(),
            sp(base_split.evolve_seconds, s.evolve_seconds),
            sp(base_split.transpose_seconds, s.transpose_seconds),
            sp(base_split.fft2d_seconds, s.fft2d_seconds),
            sp(base_split.fft1d_seconds, s.fft1d_seconds),
            sp(base_split.comm_seconds, s.comm_seconds),
            sp(base_olap.comm_seconds, o.comm_seconds),
        ]);
    }
    (vec![t], Metrics::default())
}
