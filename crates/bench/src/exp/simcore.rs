//! Engine microbenchmark — host-speed cost of the simcall machinery.
//!
//! Not a thesis figure: this measures the *simulator itself*, pinning the
//! scheduler-bypass fast path's win. Three probes:
//!
//! 1. **simcall throughput** — one actor issuing back-to-back `advance`
//!    simcalls, fast path on vs off. With the bypass every advance resolves
//!    inline within one kernel borrow; without it each one is a full
//!    park → scheduler → heap → wake round trip.
//! 2. **handoff latency** — two actors ping-ponging through a [`SimQueue`],
//!    which forces the scheduler onto the critical path of every hop; this
//!    prices the spin-then-park `Handoff` rendezvous.
//! 3. **actor scale** — the coroutine-core headline: a flat spawn storm
//!    that registers a million actors (spawn rate + max live actor count)
//!    and a million-actor UTS-style dynamic spawn tree, one actor per tree
//!    node, that must complete on a default CI runner. Both run at the full
//!    million even under `--quick`; lazy context creation and the
//!    finished-stack pool are what make that cheap.
//!
//! The fast path's end-to-end effect on a real application is measured by
//! the benchmark ledger (`ledger/`), whose uts-groups run lasts ≥0.7 s of
//! host time. The metrics go to `BENCH_simcore.json`; `--check` gates
//! simcall throughput and handoff latency against the committed baseline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hupc::sim::{time, ActorBackend, SimQueue, Simulation};

use crate::{Metrics, Table};

/// One actor, `n` plain advances: the pure simcall path.
fn advance_storm(n: u64, fast: bool) -> (f64, u64) {
    let mut sim = Simulation::new();
    sim.set_fast_path(fast);
    sim.spawn("storm", move |ctx| {
        for _ in 0..n {
            ctx.advance(time::ns(10));
        }
    });
    let t0 = Instant::now();
    let stats = sim.run();
    let dt = t0.elapsed().as_secs_f64();
    (n as f64 / dt, stats.fast_path_hits)
}

/// Two actors ping-ponging one token through a pair of queues; every hop
/// crosses the scheduler, so host-time/hop prices the handoff rendezvous
/// (two `Handoff` round trips plus one heap event per hop).
fn pingpong(rounds: u64) -> f64 {
    let mut sim = Simulation::new();
    let ab = Arc::new(SimQueue::new(&mut sim.kernel()));
    let ba = Arc::new(SimQueue::new(&mut sim.kernel()));
    {
        let (ab, ba) = (Arc::clone(&ab), Arc::clone(&ba));
        sim.spawn("ping", move |ctx| {
            for i in 0..rounds {
                ab.push(ctx, i);
                ba.pop(ctx);
            }
        });
    }
    sim.spawn("pong", move |ctx| {
        for _ in 0..rounds {
            let v = ab.pop(ctx);
            ba.push(ctx, v);
        }
    });
    let t0 = Instant::now();
    sim.run();
    t0.elapsed().as_secs_f64() * 1e9 / (2.0 * rounds as f64)
}

/// Flat spawn storm: register `n` trivial actors up front, then run them
/// all to completion. Registration is cheap by design (actor meta + one
/// wake event; no stack until first dispatch), so all `n` are live at once
/// when the run starts — this is the max-actor-count probe. Returns
/// (registrations/s, run host seconds).
fn spawn_storm(n: u64) -> (f64, f64) {
    let mut sim = Simulation::new();
    // The scale probes measure the coroutine core; a million OS threads
    // would exhaust the host whatever the build's default backend is.
    sim.set_actor_backend(ActorBackend::Coroutine);
    sim.set_stack_size(16 * 1024);
    let t0 = Instant::now();
    for i in 0..n {
        sim.spawn(format!("s{i}"), move |ctx| ctx.advance(time::ns(1 + (i & 7))));
    }
    let spawn_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let stats = sim.run();
    let run_s = t1.elapsed().as_secs_f64();
    assert_eq!(stats.actors as u64, n, "storm lost actors");
    (n as f64 / spawn_s, run_s)
}

/// Million-actor UTS-style tree: one actor per tree node, children spawned
/// dynamically from running actors with a deterministic 2-or-3 branching
/// factor, capped by a shared budget at exactly `total` nodes. Parents
/// don't join — a finished node's stack goes back to the pool, so live
/// stacks track the dispatch frontier, not the tree size. Returns host
/// seconds for the whole simulation.
fn actor_tree(total: u64) -> f64 {
    fn node(ctx: &hupc::sim::Ctx, id: u64, budget: &Arc<AtomicU64>, seen: &Arc<AtomicU64>) {
        seen.fetch_add(1, Ordering::Relaxed);
        // splitmix-style hash: deterministic per-node work and branching.
        let h = (id.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 33;
        ctx.advance(time::ns(1 + (h & 15)));
        let kids = 2 + (h & 1);
        for c in 0..kids {
            if budget
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
                .is_err()
            {
                return;
            }
            let (b, s) = (Arc::clone(budget), Arc::clone(seen));
            ctx.spawn_with_stack(format!("n{id}.{c}"), 16 * 1024, move |cctx| {
                node(cctx, id.wrapping_mul(3).wrapping_add(c + 1), &b, &s)
            });
        }
    }
    let budget = Arc::new(AtomicU64::new(total - 1));
    let seen = Arc::new(AtomicU64::new(0));
    let mut sim = Simulation::new();
    sim.set_actor_backend(ActorBackend::Coroutine);
    let (b, s) = (Arc::clone(&budget), Arc::clone(&seen));
    sim.spawn_with_stack("root", 16 * 1024, move |ctx| node(ctx, 1, &b, &s));
    let t0 = Instant::now();
    let stats = sim.run();
    let host = t0.elapsed().as_secs_f64();
    assert_eq!(seen.load(Ordering::Relaxed), total, "tree lost nodes");
    assert_eq!(stats.actors as u64, total);
    host
}

pub fn run(quick: bool) -> (Vec<Table>, Metrics) {
    let n: u64 = if quick { 200_000 } else { 2_000_000 };
    let rounds: u64 = if quick { 20_000 } else { 200_000 };

    // Warm up the allocator / thread machinery once so the first timed run
    // isn't paying one-time costs.
    advance_storm(1_000, true);

    let (fast_tput, hits) = advance_storm(n, true);
    let (slow_tput, _) = advance_storm(n, false);
    assert_eq!(hits, n, "every storm advance should take the bypass");
    let hop_ns = pingpong(rounds);
    // The scale probes run at the full million even under --quick: the CI
    // perf-smoke job is exactly where "a 1M-actor simulation completes on a
    // default runner" gets proven.
    let scale_n: u64 = 1_000_000;
    let (spawn_rate, _storm_run_s) = spawn_storm(scale_n);
    let tree_s = actor_tree(scale_n);

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut m = Metrics::default();
    m.push("simcalls_per_sec_fast", fast_tput);
    m.push("simcalls_per_sec_slow", slow_tput);
    m.push("simcall_speedup", fast_tput / slow_tput);
    m.push("handoff_ns", hop_ns);
    m.push("spawn_rate_per_s", spawn_rate);
    m.push("max_actors", scale_n as f64);
    m.push("tree_actors", scale_n as f64);
    m.push("tree_host_s", tree_s);
    // What the host times were measured on, so a committed baseline says.
    m.push("host_cpus", host_cpus as f64);

    let mut t1 = Table::new(
        format!("Engine microbench — simcall throughput ({n} advances, one actor)"),
        &["mode", "simcalls/s", "speedup"],
    );
    t1.row(vec![
        "scheduler round trip".into(),
        format!("{slow_tput:.0}"),
        "1.00x".into(),
    ]);
    t1.row(vec![
        "bypass fast path".into(),
        format!("{fast_tput:.0}"),
        format!("{:.2}x", fast_tput / slow_tput),
    ]);

    let mut t2 = Table::new(
        format!("Engine microbench — scheduler handoff ({rounds} ping-pong rounds)"),
        &["metric", "value"],
    );
    t2.row(vec!["host ns / hop".into(), format!("{hop_ns:.0}")]);

    let mut t3 = Table::new(
        format!("Actor scale — coroutine core, {scale_n} actors"),
        &["metric", "value"],
    );
    t3.row(vec![
        "spawn rate (actors/s)".into(),
        format!("{spawn_rate:.0}"),
    ]);
    t3.row(vec![
        "max live actors (flat storm)".into(),
        format!("{scale_n}"),
    ]);
    t3.row(vec![
        "dynamic tree run (host s)".into(),
        format!("{tree_s:.3}"),
    ]);

    (vec![t1, t2, t3], m)
}
