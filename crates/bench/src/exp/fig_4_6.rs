//! Fig 4.6 — overall NAS FT class B performance on 8 Lehman nodes:
//! (a/b) per-configuration improvement over process-based UPC for the
//! hierarchical variants, split-phase and overlap; (c/d) strong-scaling
//! speedups.

use std::collections::HashMap;

use hupc::fft::{
    run_ft_upc, ComputeMode, ExchangeKind, FtClass, FtConfig, FtResult, SubthreadSpec,
};
use hupc::gasnet::Backend;
use hupc::net::Conduit;
use hupc::subthreads::SubthreadModel;
use hupc::topo::{BindPolicy, MachineSpec};

use crate::{Metrics, Table};

/// (UPC threads × sub-threads) configurations of panels (a)/(b).
pub const CONFIGS: [(usize, usize); 9] = [
    (8, 1),
    (8, 2),
    (8, 4),
    (8, 8),
    (16, 2),
    (16, 4),
    (16, 8),
    (32, 2),
    (64, 2),
];

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Variant {
    Processes,
    Pthreads,
    Hybrid(SubKind),
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum SubKind {
    OpenMp,
    Cilk,
    Pool,
}

impl SubKind {
    fn model(self) -> SubthreadModel {
        match self {
            SubKind::OpenMp => SubthreadModel::OpenMp,
            SubKind::Cilk => SubthreadModel::Cilk,
            SubKind::Pool => SubthreadModel::Pool,
        }
    }
}

/// Memoizing runner (panels share many configurations).
struct Runner {
    cache: HashMap<(Variant, usize, usize, ExchangeKind), f64>,
    quick: bool,
}

impl Runner {
    fn new(quick: bool) -> Runner {
        Runner {
            cache: HashMap::new(),
            quick,
        }
    }

    /// Total seconds for `variant` at `upc × subs` threads.
    fn total(&mut self, variant: Variant, upc: usize, subs: usize, ex: ExchangeKind) -> f64 {
        if let Some(&v) = self.cache.get(&(variant, upc, subs, ex)) {
            return v;
        }
        let total_threads = upc * subs;
        let mut cfg = FtConfig {
            class: FtClass::B,
            machine: MachineSpec::lehman().with_nodes(8),
            threads: total_threads,
            nodes_used: 8,
            conduit: Conduit::ib_qdr(),
            backend: Backend::processes_pshm(),
            bind: BindPolicy::PackedCores,
            exchange: ex,
            subthreads: None,
            mode: ComputeMode::Model,
            iters_override: Some(if self.quick { 3 } else { 10 }),
            overheads: None,
            fault: None,
        };
        match variant {
            Variant::Processes => {}
            Variant::Pthreads => {
                cfg.backend = Backend::pthreads(total_threads / 8);
            }
            Variant::Hybrid(kind) => {
                cfg.threads = upc;
                // Pools slice the whole node's PUs (disjoint per master).
                cfg.bind = BindPolicy::Unbound;
                cfg.subthreads = Some(SubthreadSpec {
                    n: subs,
                    model: kind.model(),
                });
            }
        }
        let r: FtResult = run_ft_upc(cfg);
        let v = r.total_seconds;
        self.cache.insert((variant, upc, subs, ex), v);
        v
    }
}

fn improvement_table(runner: &mut Runner, ex: ExchangeKind, quick: bool, panel: &str) -> Table {
    let mut t = Table::new(
        format!(
            "Fig 4.6({panel}) — FT class B {}: % improvement over UPC processes (8 Lehman nodes)",
            ex.name()
        ),
        &["config (UPC*subs)", "UPC pthreads", "UPC*OpenMP", "UPC*Cilk++", "UPC*Thread-Pool"],
    );
    let configs: &[(usize, usize)] = if quick { &CONFIGS[..4] } else { &CONFIGS };
    for &(upc, subs) in configs {
        let total = upc * subs;
        let base = runner.total(Variant::Processes, total, 1, ex);
        let pct = |v: f64| format!("{:+.1}%", (base / v - 1.0) * 100.0);
        let pth = runner.total(Variant::Pthreads, total, 1, ex);
        let omp = runner.total(Variant::Hybrid(SubKind::OpenMp), upc, subs, ex);
        let cilk = runner.total(Variant::Hybrid(SubKind::Cilk), upc, subs, ex);
        let pool = runner.total(Variant::Hybrid(SubKind::Pool), upc, subs, ex);
        t.row(vec![
            format!("{upc}*{subs}"),
            pct(pth),
            pct(omp),
            pct(cilk),
            pct(pool),
        ]);
    }
    t
}

fn scalability_table(runner: &mut Runner, ex: ExchangeKind, quick: bool, panel: &str) -> Table {
    let mut t = Table::new(
        format!(
            "Fig 4.6({panel}) — FT class B {}: speedup vs 8 UPC processes",
            ex.name()
        ),
        &["threads", "UPC processes", "UPC pthreads", "UPC*OpenMP", "UPC*Cilk++", "UPC*Thread-Pool"],
    );
    let totals: &[usize] = if quick { &[8, 32] } else { &[8, 16, 32, 64, 128] };
    let base = runner.total(Variant::Processes, 8, 1, ex);
    for &total in totals {
        // Hybrids use the thesis' best practice: two masters per node
        // (sockets) once the width allows it.
        let masters = if total >= 16 { 16 } else { 8 };
        let subs = total / masters;
        let sp = |v: f64| format!("{:.1}", base / v);
        let proc = runner.total(Variant::Processes, total, 1, ex);
        let pth = runner.total(Variant::Pthreads, total, 1, ex);
        let omp = runner.total(Variant::Hybrid(SubKind::OpenMp), masters, subs, ex);
        let cilk = runner.total(Variant::Hybrid(SubKind::Cilk), masters, subs, ex);
        let pool = runner.total(Variant::Hybrid(SubKind::Pool), masters, subs, ex);
        t.row(vec![
            total.to_string(),
            sp(proc),
            sp(pth),
            sp(omp),
            sp(cilk),
            sp(pool),
        ]);
    }
    t
}

pub fn run(quick: bool) -> (Vec<Table>, Metrics) {
    let mut runner = Runner::new(quick);
    let tables = vec![
        improvement_table(&mut runner, ExchangeKind::SplitPhase, quick, "a"),
        improvement_table(&mut runner, ExchangeKind::Overlap, quick, "b"),
        scalability_table(&mut runner, ExchangeKind::SplitPhase, quick, "c"),
        scalability_table(&mut runner, ExchangeKind::Overlap, quick, "d"),
    ];
    (tables, Metrics::default())
}
