//! Fig 4.2 — multi-link network microbenchmark on 2 Lehman nodes (QDR IB):
//! round-trip latency and unidirectional flood bandwidth for 1–8 link
//! pairs, processes vs pthreads.

use std::sync::Arc;

use hupc::prelude::*;
use hupc::sim::SimCell;

use crate::{Metrics, Table};

const LINKS: [usize; 4] = [1, 2, 4, 8];
const LAT_SIZES: [usize; 6] = [8, 64, 512, 1 << 12, 1 << 15, 1 << 17];
const BW_SIZES: [usize; 5] = [1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 21];

fn job(links: usize, pthreads: bool) -> UpcJob {
    let threads = 2 * links;
    UpcJob::new(UpcConfig {
        gasnet: GasnetConfig {
            machine: MachineSpec::lehman().with_nodes(2),
            n_threads: threads,
            nodes_used: 2,
            bind: BindPolicy::PackedCores,
            backend: if pthreads {
                Backend::pthreads(links)
            } else {
                Backend::processes_pshm()
            },
            conduit: Conduit::ib_qdr(),
            segment_words: 1 << 20,
            overheads: None,
            fault: None,
            retry: Default::default(),
            barrier_timeout: None,
        },
        safety: ThreadSafety::Multiple,
    })
}

/// Average round-trip `upc_memget` latency per link-pair, µs.
fn latency_us(links: usize, pthreads: bool, bytes: usize, reps: usize) -> f64 {
    let j = job(links, pthreads);
    let out = Arc::new(SimCell::new(0.0f64));
    let o2 = Arc::clone(&out);
    let words = (bytes / 8).max(1);
    j.run(move |upc| {
        let me = upc.mythread();
        let links = upc.threads() / 2;
        upc.barrier();
        if me < links {
            let partner = links + me;
            let mut buf = vec![0u64; words];
            let t0 = upc.now();
            for _ in 0..reps {
                upc.memget(partner, 0, &mut buf);
            }
            let per_op = (upc.now() - t0) as f64 / reps as f64 / 1e3;
            let total = upc.allreduce_sum_f64(per_op);
            if me == 0 {
                o2.with_mut(|v| *v = total / links as f64);
            }
        } else {
            let zero = upc.allreduce_sum_f64(0.0);
            let _ = zero;
        }
        upc.barrier();
    });
    out.get()
}

/// Aggregate flood bandwidth across all link pairs, MB/s.
fn flood_mbps(links: usize, pthreads: bool, bytes: usize, reps: usize) -> f64 {
    let j = job(links, pthreads);
    let out = Arc::new(SimCell::new(0.0f64));
    let o2 = Arc::clone(&out);
    let words = (bytes / 8).max(1);
    j.run(move |upc| {
        let me = upc.mythread();
        let links = upc.threads() / 2;
        upc.barrier();
        let t0 = upc.now();
        if me < links {
            let partner = links + me;
            let data = vec![0u64; words];
            let hs: Vec<Handle> = (0..reps).map(|_| upc.memput_nb(partner, 0, &data)).collect();
            for h in hs {
                upc.wait_sync(h);
            }
        }
        upc.barrier(); // everyone observes the last delivery
        let dt = upc.now() - t0; // equal across threads after the barrier
        if me == 0 {
            let total_bytes = (links * reps * words * 8) as f64;
            o2.with_mut(|v| *v = total_bytes / (dt as f64 / 1e9) / 1e6);
        }
    });
    out.get()
}

pub fn run(quick: bool) -> (Vec<Table>, Metrics) {
    let reps = if quick { 4 } else { 16 };
    let mut lat = Table::new(
        "Fig 4.2(a) — round-trip memget latency (µs), 2 Lehman nodes, QDR IB",
        &["size", "1 link", "2 proc", "4 proc", "8 proc", "2 pthr", "4 pthr", "8 pthr"],
    );
    for &sz in &LAT_SIZES {
        let mut cells = vec![human(sz)];
        cells.push(format!("{:.1}", latency_us(1, false, sz, reps)));
        for &l in &LINKS[1..] {
            cells.push(format!("{:.1}", latency_us(l, false, sz, reps)));
        }
        for &l in &LINKS[1..] {
            cells.push(format!("{:.1}", latency_us(l, true, sz, reps)));
        }
        lat.row(cells);
    }
    let mut bw = Table::new(
        "Fig 4.2(b) — unidirectional flood bandwidth (MB/s)",
        &["size", "1 link", "2 proc", "4 proc", "8 proc", "2 pthr", "4 pthr", "8 pthr"],
    );
    for &sz in &BW_SIZES {
        let mut cells = vec![human(sz)];
        cells.push(format!("{:.0}", flood_mbps(1, false, sz, reps)));
        for &l in &LINKS[1..] {
            cells.push(format!("{:.0}", flood_mbps(l, false, sz, reps)));
        }
        for &l in &LINKS[1..] {
            cells.push(format!("{:.0}", flood_mbps(l, true, sz, reps)));
        }
        bw.row(cells);
    }
    (vec![lat, bw], Metrics::default())
}

fn human(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{}M", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{}k", bytes >> 10)
    } else {
        format!("{bytes}B")
    }
}
