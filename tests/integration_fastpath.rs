//! The scheduler-bypass fast path is a pure host-speed optimization: with
//! it on or off, a simulation must produce the *same* virtual-time
//! execution — same events, same times, same sequence numbers, same
//! per-actor results. These tests pin that contract.

use std::sync::Arc;

use proptest::prelude::*;

use hupc::gasnet::FaultPlan;
use hupc::sim::{set_fast_path_default, time, Simulation, SimulationStats, TraceEvent};
use hupc::trace::{TraceLevel, Tracer};
use hupc::uts::{run_uts, StealStrategy, UtsConfig};

/// splitmix64 — the test's own op-stream generator, so one `seed` pins an
/// entire random program.
fn next(s: &mut u64) -> u64 {
    *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *s;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run one seed-derived random program and return its full event trace plus
/// the stats. The program mixes every simcall shape the bypass touches:
/// plain advances, lazy advances, contended resource charges, mutex-guarded
/// work, child spawn/join — with a barrier closing each round so lazy time
/// is always flushed and all actors stay in lockstep rounds.
fn run_program(seed: u64, fast: bool) -> (Vec<TraceEvent>, SimulationStats) {
    let mut sim = Simulation::new();
    sim.set_fast_path(fast);
    let tracer = Arc::new(Tracer::new(TraceLevel::Full));
    sim.set_tracer(Some(Arc::clone(&tracer)));
    let (res, bar, mtx, n_actors, rounds) = {
        let mut k = sim.kernel();
        let n_actors = 2 + (seed % 3) as usize;
        (
            k.new_resource("shared-link"),
            k.new_barrier(n_actors),
            k.new_mutex(),
            n_actors,
            1 + (seed >> 8) % 4,
        )
    };
    for a in 0..n_actors {
        sim.spawn(format!("actor{a}"), move |ctx| {
            let mut s = seed ^ (a as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
            for _ in 0..rounds {
                let n_ops = next(&mut s) % 8;
                for _ in 0..n_ops {
                    match next(&mut s) % 5 {
                        0 => ctx.advance(time::ns(1 + next(&mut s) % 1_000)),
                        1 => ctx.advance_lazy(time::ns(1 + next(&mut s) % 1_000)),
                        2 => ctx.acquire(res, time::ns(1 + next(&mut s) % 500)),
                        3 => {
                            ctx.mutex_lock(mtx);
                            ctx.advance(time::ns(1 + next(&mut s) % 200));
                            ctx.mutex_unlock(mtx);
                        }
                        _ => {
                            let dt = time::ns(1 + next(&mut s) % 300);
                            let child =
                                ctx.spawn("child", move |c| c.advance(dt));
                            ctx.join(child);
                        }
                    }
                }
                ctx.barrier_wait(bar);
            }
        });
    }
    let stats = sim.run();
    (TraceEvent::log_of(&tracer), stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bit-identical virtual-time behavior, fast path on vs off: the full
    /// `(time, seq, kind)` event trace matches, along with end time, event
    /// count and actor count. Only the host-speed counters may differ.
    #[test]
    fn fast_path_trace_identical(seed in any::<u64>()) {
        let (trace_on, stats_on) = run_program(seed, true);
        let (trace_off, stats_off) = run_program(seed, false);
        prop_assert_eq!(trace_on, trace_off);
        prop_assert_eq!(stats_on.end_time, stats_off.end_time);
        prop_assert_eq!(stats_on.events, stats_off.events);
        prop_assert_eq!(stats_on.actors, stats_off.actors);
        // The fast path must actually relieve the scheduler when it fires.
        prop_assert_eq!(
            stats_off.fast_path_hits, 0,
            "slow mode must never bypass"
        );
        prop_assert!(stats_on.handoffs <= stats_off.handoffs);
    }
}

/// End-to-end regression at application scale: a faulty UTS run (packet
/// loss, retransmissions, backoff) lands on the exact same virtual-time
/// results with the bypass on or off. Uses the process-global default
/// because `run_uts` builds its own `Simulation`; every other test in this
/// binary sets the per-simulation flag explicitly, so toggling the global
/// here cannot perturb them.
#[test]
fn fault_uts_results_unchanged_by_fast_path() {
    let run = |fast: bool| {
        set_fast_path_default(fast);
        let mut cfg = UtsConfig::small(4, 2, StealStrategy::LocalFirstRapid, 13);
        cfg.fault = Some(FaultPlan::new(0xFEED).loss(0.05));
        let r = run_uts(cfg);
        set_fast_path_default(true);
        r
    };
    let fast = run(true);
    let slow = run(false);
    assert_eq!(fast.total_nodes, slow.total_nodes);
    assert_eq!(fast.max_depth, slow.max_depth);
    assert_eq!(fast.leaves, slow.leaves);
    assert_eq!(fast.comm_failures, slow.comm_failures);
    assert!(
        (fast.seconds - slow.seconds).abs() < 1e-12,
        "virtual time diverged: {} vs {}",
        fast.seconds,
        slow.seconds
    );
}

/// The near-bucket + lazy clock must not leak into observable time: a
/// simple two-actor producer/consumer program's end time is a closed-form
/// value, independent of the fast-path setting.
#[test]
fn closed_form_end_time_both_modes() {
    for fast in [true, false] {
        let mut sim = Simulation::new();
        sim.set_fast_path(fast);
        let bar = sim.kernel().new_barrier(2);
        for id in 0..2u64 {
            sim.spawn(format!("w{id}"), move |ctx| {
                for _ in 0..100 {
                    ctx.advance_lazy(time::us(1) * (id + 1));
                }
                ctx.barrier_wait(bar);
            });
        }
        let stats = sim.run();
        assert_eq!(stats.end_time, time::us(200));
    }
}
