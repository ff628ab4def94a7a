//! Schedule-perturbation determinism (property tests):
//!
//! 1. The same `SchedulePolicy` seed yields a byte-identical kernel event
//!    log — a perturbed run is still a fully deterministic run.
//! 2. The scheduler-bypass fast path is invisible to exploration: the same
//!    policy seed with the fast path on and off produces the identical
//!    event log, decision log, end state and end time.

use std::sync::Arc;

use hupc_check::{find_scenario, Decision, PolicyHandle};
use hupc_sim::trace::{TraceLevel, Tracer};
use hupc_sim::{time, SimCell, Simulation, TraceEvent};
use proptest::prelude::*;

/// A tie-rich raw-sim workload: four workers advance in lockstep (every
/// wake ties) and fight over a mutex-protected counter. Returns the full
/// kernel event log, the end time, the counter, and the decision log.
fn tie_rich_run(seed: u64, fast_path: bool) -> (Vec<TraceEvent>, u64, u64, Vec<Decision>) {
    let mut sim = Simulation::new();
    let policy = PolicyHandle::random(seed);
    let tracer = Arc::new(Tracer::new(TraceLevel::Full));
    let m = {
        let mut k = sim.kernel();
        policy.install(&mut k);
        k.set_fast_path(fast_path);
        k.set_tracer(Some(Arc::clone(&tracer)));
        k.new_mutex()
    };
    let counter = Arc::new(SimCell::new(0u64));
    for a in 0..4 {
        let c = Arc::clone(&counter);
        sim.spawn(format!("worker{a}"), move |ctx| {
            for _ in 0..6 {
                ctx.advance(time::ns(10));
                ctx.mutex_lock(m);
                let v = c.get();
                ctx.advance(time::ns(2));
                c.set(v + 1);
                ctx.mutex_unlock(m);
            }
        });
    }
    let stats = sim.run_result().expect("workload cannot deadlock");
    (TraceEvent::log_of(&tracer), stats.end_time, counter.get(), policy.log())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same seed, two fresh simulations: byte-identical event logs.
    #[test]
    fn same_seed_same_trace(seed in any::<u64>()) {
        let a = tie_rich_run(seed, true);
        let b = tie_rich_run(seed, true);
        prop_assert_eq!(&a.0, &b.0, "event logs diverged for seed {}", seed);
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(a.3, b.3);
    }

    /// Fast path on vs off under the same explored schedule: identical
    /// event log (bypassed events are logged as the scheduler would have),
    /// identical decisions, identical end state.
    #[test]
    fn fast_path_is_invisible_to_exploration(seed in any::<u64>()) {
        let on = tie_rich_run(seed, true);
        let off = tie_rich_run(seed, false);
        prop_assert_eq!(&on.0, &off.0, "event logs diverged for seed {}", seed);
        prop_assert_eq!(on.1, off.1, "end times diverged");
        prop_assert_eq!(on.2, off.2, "counter diverged");
        prop_assert_eq!(on.3, off.3, "decision logs diverged");
    }

    /// The mutex keeps the counter exact on every explored schedule.
    #[test]
    fn mutex_counter_is_exact_under_perturbation(seed in any::<u64>()) {
        let (_, _, counter, _) = tie_rich_run(seed, true);
        prop_assert_eq!(counter, 24);
    }
}

/// Full-stack fast-path agreement: explored runs of the UPC scenarios end
/// in the same state with the bypass on and off.
#[test]
fn scenarios_agree_across_fast_path() {
    for name in ["split_barrier", "allreduce2", "retry_loss"] {
        let s = find_scenario(name).unwrap();
        for seed in [1u64, 7, 42] {
            let run = |fast: bool| {
                let p = PolicyHandle::random(seed);
                let out = s.run(&p, 0, fast);
                assert!(
                    out.violation.is_none(),
                    "{name} seed {seed} fast={fast}: {:?}",
                    out.violation
                );
                (out.end_state, out.end_time, out.decisions)
            };
            let on = run(true);
            let off = run(false);
            assert_eq!(on, off, "{name} seed {seed}: fast path changed the run");
        }
    }
}
