//! A 1-D heat-diffusion stencil with hierarchical communication: ghost-cell
//! exchange uses the thread-group cast table inside a node (plain memory
//! copies) and one-sided puts across nodes — the Chapter 3 pattern applied
//! to a regular computation.
//!
//! Run with `cargo run --release --example stencil`.
//!
//! The 2-D version of this pattern is a registered workload
//! (`stencil2d` in `crates/app/src/stencil2d.rs`) — run it through the
//! SDK sweep: `cargo run --release -p hupc-bench -- apps`.

use std::sync::Arc;

use hupc::prelude::*;

const N_PER: usize = 256; // interior cells per thread
const STEPS: usize = 50;
const ALPHA: f64 = 0.25;

fn main() {
    let job = UpcJob::new(UpcConfig::test_default(8, 2));
    // Each thread's row: [left ghost, N_PER interior, right ghost]
    let a = job.alloc_shared::<f64>(8 * (N_PER + 2), N_PER + 2);
    let b = job.alloc_shared::<f64>(8 * (N_PER + 2), N_PER + 2);
    let groups = Arc::new(GroupSet::partition(
        &mut job.kernel(),
        job.runtime(),
        GroupLevel::Node,
    ));

    job.run(move |upc| {
        let me = upc.mythread();
        let p = upc.threads();
        // Initial condition: a hot spike on thread 0.
        a.with_local_words(&upc, |w| {
            for (k, x) in w.iter_mut().enumerate() {
                *x = if me == 0 && k == N_PER / 2 { 1000.0f64 } else { 0.0 }.to_bits();
            }
        });
        upc.barrier();

        let (mut cur, mut next) = (a, b);
        for _step in 0..STEPS {
            // Ghost exchange: my first/last interior cells go to my
            // neighbours' ghost slots.
            let first = f64::from_bits(cur.with_local_words(&upc, |w| w[1]));
            let last = f64::from_bits(cur.with_local_words(&upc, |w| w[N_PER]));
            if me > 0 {
                send_ghost(&upc, &groups, cur, me - 1, N_PER + 1, first);
            }
            if me + 1 < p {
                send_ghost(&upc, &groups, cur, me + 1, 0, last);
            }
            upc.barrier();

            // Local sweep (privatized access, charged as memory traffic).
            // Both arrays live in the same segment, so borrow sequentially.
            let vals: Vec<f64> =
                cur.with_local_words(&upc, |src| src.iter().map(|&x| f64::from_bits(x)).collect());
            next.with_local_words(&upc, |dst| {
                for k in 1..=N_PER {
                    let v = vals[k] + ALPHA * (vals[k - 1] - 2.0 * vals[k] + vals[k + 1]);
                    dst[k] = v.to_bits();
                }
            });
            upc.charge_mem_traffic(upc.segment_home(me), N_PER * 24);
            upc.barrier();
            std::mem::swap(&mut cur, &mut next);
        }

        // Heat is conserved (insulated ends): global sum unchanged.
        let local: f64 = cur.with_local_words(&upc, |w| {
            w[1..=N_PER].iter().map(|&x| f64::from_bits(x)).sum()
        });
        let total = upc.allreduce_sum_f64(local);
        if me == 0 {
            println!("total heat after {STEPS} steps: {total:.6} (expected 1000)");
            assert!((total - 1000.0).abs() < 1e-9);
            println!("virtual time: {}", time::format(upc.now()));
        }
    });
}

/// Write one ghost value into `neighbor`'s slot `slot`: through the cast
/// table when the neighbour shares memory, via a one-sided put otherwise.
fn send_ghost(
    upc: &Upc<'_>,
    groups: &GroupSet,
    arr: SharedArray<f64>,
    neighbor: usize,
    slot: usize,
    v: f64,
) {
    let me = upc.mythread();
    let g = groups.group_of(me);
    if g.rank_of(neighbor).is_some() && g.has_cast_table() {
        g.with_member_words(upc, &arr, neighbor, |w| w[slot] = v.to_bits());
        upc.note_socket_traffic(upc.segment_home(neighbor), 8);
    } else {
        upc.memput(neighbor, arr.word_offset() + slot, &[v.to_bits()]);
    }
}
