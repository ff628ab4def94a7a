//! Fig 3.4 — NAS FT (class B) all-to-all communication under runtime
//! shared-memory optimizations (PSHM, pthreads) and manual pointer-cast
//! optimization, on 4 cluster nodes.
//!
//! Panel (a): blocking `upc_memput` exchange, % improvement over the plain
//! process backend. Panel (b): non-blocking `upc_memput_async` exchange,
//! absolute seconds per configuration.

use hupc::fft::{run_ft_upc, ComputeMode, ExchangeKind, FtClass, FtConfig};
use hupc::gasnet::{Backend, Overheads};
use hupc::net::Conduit;
use hupc::topo::{BindPolicy, MachineSpec};

use crate::{Metrics, Table};

/// The thesis' thread layouts: `total (procs × pthreads-per-proc)`.
pub const LAYOUTS: [(usize, usize, usize); 5] =
    [(4, 4, 1), (8, 4, 2), (16, 8, 2), (32, 8, 4), (64, 8, 8)];

/// Zeroed intra-node software costs: the manual `bupc_cast` + `memcpy`
/// optimization.
fn cast_overheads() -> Overheads {
    Overheads {
        same_process_call: 0,
        pshm_call: 0,
        ..Overheads::default()
    }
}

struct Variant {
    name: &'static str,
    backend_of: fn(pthreads_per_proc: usize) -> Backend,
    cast: bool,
}

const VARIANTS: [Variant; 5] = [
    Variant {
        name: "PSHM",
        backend_of: |_| Backend::processes_pshm(),
        cast: false,
    },
    Variant {
        name: "PSHM + cast",
        backend_of: |_| Backend::processes_pshm(),
        cast: true,
    },
    Variant {
        name: "pthreads",
        backend_of: |pp| Backend::mixed(pp, false),
        cast: false,
    },
    Variant {
        name: "pthr+PSHM",
        backend_of: |pp| Backend::mixed(pp, true),
        cast: false,
    },
    Variant {
        name: "pthr+PSHM + cast",
        backend_of: |pp| Backend::mixed(pp, true),
        cast: true,
    },
];

fn comm_seconds(
    total: usize,
    backend: Backend,
    cast: bool,
    exchange: ExchangeKind,
    quick: bool,
) -> f64 {
    let cfg = FtConfig {
        class: FtClass::B,
        machine: MachineSpec::lehman().with_nodes(4),
        threads: total,
        nodes_used: 4,
        conduit: Conduit::ib_qdr(),
        backend,
        bind: BindPolicy::PackedCores,
        exchange,
        subthreads: None,
        mode: ComputeMode::Model,
        iters_override: Some(if quick { 2 } else { 5 }),
        overheads: cast.then(cast_overheads),
        fault: None,
    };
    run_ft_upc(cfg).comm_seconds
}

pub fn run(quick: bool) -> (Vec<Table>, Metrics) {
    let mut a = Table::new(
        "Fig 3.4(a) — FT class B all-to-all, blocking memput: % improvement over UPC processes (4 Lehman nodes)",
        &{
            let mut h = vec!["threads"];
            h.extend(VARIANTS.iter().map(|v| v.name));
            h
        },
    );
    let mut b = Table::new(
        "Fig 3.4(b) — FT class B all-to-all, async memput: comm seconds",
        &{
            let mut h = vec!["config", "base"];
            h.extend(VARIANTS.iter().map(|v| v.name));
            h
        },
    );
    let layouts: &[(usize, usize, usize)] = if quick { &LAYOUTS[..3] } else { &LAYOUTS };
    for &(total, _procs, pp) in layouts {
        // Panel (a): blocking.
        let base = comm_seconds(total, Backend::processes(), false, ExchangeKind::SplitPhaseBlocking, quick);
        let mut cells = vec![total.to_string()];
        for v in &VARIANTS {
            let s = comm_seconds(total, (v.backend_of)(pp), v.cast, ExchangeKind::SplitPhaseBlocking, quick);
            cells.push(format!("{:.1}%", (base / s - 1.0) * 100.0));
        }
        a.row(cells);
        // Panel (b): async, absolute seconds.
        let base_b = comm_seconds(total, Backend::processes(), false, ExchangeKind::SplitPhase, quick);
        let mut cells = vec![format!("{total}({_procs}*{pp})"), format!("{base_b:.3}")];
        for v in &VARIANTS {
            let s = comm_seconds(total, (v.backend_of)(pp), v.cast, ExchangeKind::SplitPhase, quick);
            cells.push(format!("{s:.3}"));
        }
        b.row(cells);
    }
    (vec![a, b], Metrics::default())
}
