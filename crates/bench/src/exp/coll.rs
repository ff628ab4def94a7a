//! Flat vs hierarchical collectives — virtual-time comparison.
//!
//! Not a thesis figure: this pins the `hupc-coll` subsystem's reason to
//! exist. Every operation runs twice on the same machine and payload —
//! once through the flat reference algorithms in `hupc-upc` (no provider
//! installed) and once through the installed [`CollDomain`] (intra-node
//! shared-memory phase + inter-leader network phase) — and the table
//! reports the virtual-time ratio.
//!
//! Broadcast, allreduce, allgather and the staged barrier run at Pyramid
//! scale (128 nodes × 8 cores = 1024 threads; `--quick` uses a 16-node
//! slice). The coalesced all-to-all runs on Lehman, where the per-node
//! message coalescing (one message per destination *node*) is the whole
//! effect.
//!
//! The metrics go to `BENCH_coll.json`; `--check` fails when the headline
//! broadcast/allreduce speedups drop below 2x (or below half the committed
//! baseline on full runs) — the CI perf-smoke gate.

use std::sync::Arc;

use hupc::prelude::*;
use hupc::sim::time;

use crate::{Metrics, Table};

/// Virtual seconds one collective `op` takes: barrier, timestamp, op,
/// barrier, timestamp — measured on thread 0 (the closing barrier makes
/// the end time global). `hier` installs the [`CollDomain`] provider;
/// without it the `Upc` methods run their flat reference algorithms.
fn op_seconds(
    spec: &MachineSpec,
    threads: usize,
    nodes: usize,
    hier: bool,
    op: impl Fn(&Upc<'_>) + Send + Sync + 'static,
) -> f64 {
    let mut cfg = UpcConfig::test_default(threads, nodes);
    cfg.gasnet.machine = spec.clone();
    let job = UpcJob::new(cfg);
    if hier {
        CollDomain::for_job(&job, CollPlan::Auto).install(&job);
    }
    let dt: Arc<SimCell<u64>> = Arc::new(SimCell::default());
    let sink = Arc::clone(&dt);
    job.run(move |upc| {
        upc.barrier();
        let t0 = upc.now();
        op(&upc);
        upc.barrier();
        if upc.mythread() == 0 {
            let d = upc.now() - t0;
            sink.with_mut(|v| *v = d);
        }
    });
    time::as_secs_f64(Arc::try_unwrap(dt).expect("job done").into_inner())
}

/// Virtual seconds of one all-to-all over PGAS arrays (`bw` words per
/// thread pair), flat pairwise vs the coalesced hierarchical path.
fn exchange_seconds(spec: &MachineSpec, threads: usize, nodes: usize, hier: bool, bw: usize) -> f64 {
    let p = threads;
    let mut cfg = UpcConfig::test_default(threads, nodes);
    cfg.gasnet.machine = spec.clone();
    let job = UpcJob::new(cfg);
    let src = job.alloc_shared::<u64>(p * p * bw, p * bw);
    let dst = job.alloc_shared::<u64>(p * p * bw, p * bw);
    if hier {
        CollDomain::for_job(&job, CollPlan::Auto)
            .reserve_exchange(&job, bw)
            .install(&job);
    }
    let dt: Arc<SimCell<u64>> = Arc::new(SimCell::default());
    let sink = Arc::clone(&dt);
    job.run(move |upc| {
        let me = upc.mythread() as u64;
        src.with_local_words(&upc, |w| {
            for (i, x) in w.iter_mut().enumerate() {
                *x = me.wrapping_mul(0x9e37).wrapping_add(i as u64);
            }
        });
        upc.barrier();
        let t0 = upc.now();
        upc.all_exchange(src, dst, bw, false);
        upc.barrier();
        if upc.mythread() == 0 {
            let d = upc.now() - t0;
            sink.with_mut(|v| *v = d);
        }
    });
    time::as_secs_f64(Arc::try_unwrap(dt).expect("job done").into_inner())
}

pub fn run(quick: bool) -> (Vec<Table>, Metrics) {
    // Pyramid slice for the rooted/staged ops; Lehman for the all-to-all.
    let pyramid = MachineSpec::pyramid();
    let lehman = MachineSpec::lehman();
    let (py_nodes, le_nodes) = if quick { (16, 4) } else { (128, 12) };
    let py_threads = py_nodes * 8; // 2 sockets × 4 cores, SMT off
    let le_threads = le_nodes * 8; // one thread per core
    let (bcast_words, red_words, gather_words, bw, barrier_reps) =
        if quick { (1024, 32, 8, 4, 4) } else { (4096, 64, 16, 8, 8) };

    let bcast = move |upc: &Upc<'_>| {
        let mut w = if upc.mythread() == 0 {
            (0..bcast_words as u64).collect()
        } else {
            vec![0u64; bcast_words]
        };
        upc.broadcast_words(0, &mut w);
    };
    let allreduce = move |upc: &Upc<'_>| {
        let me = upc.mythread() as u64;
        let mut v: Vec<u64> = (0..red_words as u64).map(|i| me + i).collect();
        upc.allreduce_word_vec(&mut v, &|a, b| a.wrapping_add(b));
    };
    let allgather = move |upc: &Upc<'_>| {
        let me = upc.mythread() as u64;
        let mine: Vec<u64> = (0..gather_words as u64).map(|i| me * 100 + i).collect();
        let mut out = vec![0u64; py_threads * gather_words];
        upc.allgather_words(&mine, &mut out);
    };
    let barrier = move |upc: &Upc<'_>| {
        for _ in 0..barrier_reps {
            upc.staged_barrier();
        }
    };

    let bcast_flat = op_seconds(&pyramid, py_threads, py_nodes, false, bcast);
    let bcast_hier = op_seconds(&pyramid, py_threads, py_nodes, true, bcast);
    let red_flat = op_seconds(&pyramid, py_threads, py_nodes, false, allreduce);
    let red_hier = op_seconds(&pyramid, py_threads, py_nodes, true, allreduce);
    let gat_flat = op_seconds(&pyramid, py_threads, py_nodes, false, allgather);
    let gat_hier = op_seconds(&pyramid, py_threads, py_nodes, true, allgather);
    let bar_flat = op_seconds(&pyramid, py_threads, py_nodes, false, barrier);
    let bar_hier = op_seconds(&pyramid, py_threads, py_nodes, true, barrier);
    let exch_flat = exchange_seconds(&lehman, le_threads, le_nodes, false, bw);
    let exch_hier = exchange_seconds(&lehman, le_threads, le_nodes, true, bw);

    let barrier_us = |s: f64| s * 1e6 / barrier_reps as f64;
    let mut m = Metrics::default();
    m.push("threads", py_threads as f64);
    for (op, flat, hier) in [
        ("bcast", bcast_flat, bcast_hier),
        ("allreduce", red_flat, red_hier),
        ("allgather", gat_flat, gat_hier),
        ("exchange", exch_flat, exch_hier),
    ] {
        m.push(format!("{op}_flat_ms"), flat * 1e3);
        m.push(format!("{op}_hier_ms"), hier * 1e3);
        m.push(format!("{op}_speedup"), flat / hier);
    }
    m.push("barrier_flat_us", barrier_us(bar_flat));
    m.push("barrier_hier_us", barrier_us(bar_hier));
    m.push("barrier_speedup", bar_flat / bar_hier);

    let mut t = Table::new(
        format!(
            "Collectives — flat vs hierarchical (pyramid {py_nodes} nodes × 8 = {py_threads} \
             threads; all-to-all on lehman {le_nodes} × 8 = {le_threads})"
        ),
        &["operation", "payload", "flat (virt)", "hier (virt)", "speedup"],
    );
    let ms = |s: f64| format!("{:.3} ms", s * 1e3);
    t.row(vec![
        "broadcast".into(),
        format!("{bcast_words} words"),
        ms(bcast_flat),
        ms(bcast_hier),
        format!("{:.2}x", bcast_flat / bcast_hier),
    ]);
    t.row(vec![
        "allreduce (vec)".into(),
        format!("{red_words} words"),
        ms(red_flat),
        ms(red_hier),
        format!("{:.2}x", red_flat / red_hier),
    ]);
    t.row(vec![
        "allgather".into(),
        format!("{gather_words} words/thread"),
        ms(gat_flat),
        ms(gat_hier),
        format!("{:.2}x", gat_flat / gat_hier),
    ]);
    t.row(vec![
        "all-to-all".into(),
        format!("{bw} words/pair"),
        ms(exch_flat),
        ms(exch_hier),
        format!("{:.2}x", exch_flat / exch_hier),
    ]);
    t.row(vec![
        "barrier".into(),
        format!("{barrier_reps} reps"),
        ms(bar_flat),
        ms(bar_hier),
        format!("{:.2}x", bar_flat / bar_hier),
    ]);

    (vec![t], m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_reports_hierarchical_wins() {
        // A small multi-node shape still shows the effect and keeps the
        // test cheap: 4 testbox nodes × 4 PUs.
        let spec = MachineSpec::small_test(4);
        let flat = op_seconds(&spec, 16, 4, false, |upc| {
            let mut v = [upc.mythread() as u64; 8];
            upc.allreduce_word_vec(&mut v, &|a, b| a.wrapping_add(b));
        });
        let hier = op_seconds(&spec, 16, 4, true, |upc| {
            let mut v = [upc.mythread() as u64; 8];
            upc.allreduce_word_vec(&mut v, &|a, b| a.wrapping_add(b));
        });
        assert!(flat > 0.0 && hier > 0.0);
        assert!(
            hier < flat,
            "hierarchical allreduce not faster: {hier} vs {flat}"
        );
    }
}
