//! The per-actor virtual-time split against times known independently of
//! it: the waits of a hand-built simulation, and the end virtual time of a
//! real run.
//!
//! A traced run installs a process-global tracer, so the tests of this
//! binary take turns.

use std::sync::{Arc, Mutex};

use hupc::sim::{time, Simulation};
use hupc::trace::{Event, TraceLevel, Tracer};
use hupc_ledger::env::pin_backends;
use hupc_ledger::layers::{ActorTime, Layers, VtSplit};
use hupc_ledger::workloads::{Output, Scale, Work};

static TRACING: Mutex<()> = Mutex::new(());

fn traced<T>(f: impl FnOnce() -> T) -> (T, Vec<Event>) {
    let _turn = TRACING.lock().unwrap_or_else(|e| e.into_inner());
    pin_backends();
    let tracer = Arc::new(Tracer::new(TraceLevel::Full));
    let guard = tracer.install();
    let out = f();
    drop(guard);
    (out, tracer.merge())
}

#[test]
fn split_matches_the_waits_of_a_hand_built_simulation() {
    let (end, events) = traced(|| {
        let mut sim = Simulation::new();
        let (bar, done) = {
            let mut k = sim.kernel();
            (k.new_barrier(2), k.new_completion())
        };
        // `a` works 10 ns, waits for `b`'s completion until 30 ns, then
        // for `b` at the barrier until 35 ns.
        sim.spawn("a", move |ctx| {
            ctx.advance(time::ns(10));
            ctx.wait(done);
            ctx.barrier_wait(bar);
        });
        // `b` works 30 ns, fires the completion, works 5 ns more and
        // arrives at the barrier last.
        sim.spawn("b", move |ctx| {
            ctx.advance(time::ns(30));
            ctx.with_kernel(|k| {
                let now = k.now();
                k.complete_at(now, done);
            });
            ctx.advance(time::ns(5));
            ctx.barrier_wait(bar);
        });
        sim.run().end_time
    });
    assert_eq!(end, time::ns(35));
    let split = |compute, comm, sync| VtSplit {
        compute,
        comm,
        sync,
    };
    assert_eq!(
        Layers::from_events(&events).per_actor,
        [
            ActorTime {
                actor: 0,
                first: 0,
                last: 35,
                split: split(10, 20, 5),
            },
            ActorTime {
                actor: 1,
                first: 0,
                last: 35,
                split: split(35, 0, 0),
            },
        ]
    );
}

#[test]
fn upc_threads_of_a_real_run_span_its_virtual_time() {
    let work = Work::new("serve-kv", 0, Scale::Tiny).expect("known workload");
    let Work::Serve(cfg) = &work else {
        unreachable!("a serving workload")
    };
    let threads = cfg.upc.gasnet.n_threads;
    let (out, events) = traced(|| work.run());
    let Output::Serve(r) = &out else {
        unreachable!("a serving run")
    };
    let layers = Layers::from_events(&events);
    // UPC threads are spawned first, at time 0, and each ends leaving the
    // run's final barrier, at the end time the run reports.
    let upc: Vec<&ActorTime> = layers
        .per_actor
        .iter()
        .filter(|a| (a.actor as usize) < threads)
        .collect();
    assert_eq!(upc.len(), threads);
    for a in upc {
        assert_eq!((a.first, a.last), (0, r.end_time), "{a:?}");
        assert_eq!(a.split.total(), r.end_time, "{a:?}");
        assert!(a.split.compute > 0 && a.split.sync > 0, "{a:?}");
    }
}
