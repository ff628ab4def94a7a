//! Thread→coroutine equivalence pins: the coroutine actor core must be
//! observationally identical to the one-OS-thread-per-actor backend it
//! replaced. Same `(t, seq)` total order in the kernel event log, same
//! policy decision logs, same corpus `.schedule` replays — byte for byte.
//!
//! (The committed golden JSONL traces in `tests/golden/` are the other half
//! of this pin: they were blessed under the thread backend and must keep
//! passing under the coroutine default.)

use std::sync::{Arc, Mutex};

use hupc_check::{find_scenario, Artifact, Decision, PolicyHandle, ARTIFACT_EXT};
use hupc_sim::trace::{TraceLevel, Tracer};
use hupc_sim::{
    set_actor_backend_default, time, ActorBackend, SimCell, Simulation, TraceEvent,
};
use proptest::prelude::*;

/// Run `f` with the process-wide default backend forced to `b`, restoring
/// the auto default afterwards (even on panic). Serialized so concurrent
/// tests in this binary don't fight over the global.
fn with_backend<T>(b: ActorBackend, f: impl FnOnce() -> T) -> T {
    static LOCK: Mutex<()> = Mutex::new(());
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            set_actor_backend_default(None);
        }
    }
    let _r = Restore;
    set_actor_backend_default(Some(b));
    f()
}

/// The tie-rich workload from `determinism.rs`, parameterized over the
/// actor backend via the per-simulation override.
fn tie_rich_run(
    seed: u64,
    backend: ActorBackend,
) -> (Vec<TraceEvent>, u64, u64, Vec<Decision>) {
    let mut sim = Simulation::new();
    sim.set_actor_backend(backend);
    let policy = PolicyHandle::random(seed);
    let tracer = Arc::new(Tracer::new(TraceLevel::Full));
    let m = {
        let mut k = sim.kernel();
        policy.install(&mut k);
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
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same explored schedule on coroutines vs OS threads: byte-identical
    /// kernel event log, end time, end state, and decision log.
    #[test]
    fn backends_agree_on_explored_schedules(seed in any::<u64>()) {
        let coro = tie_rich_run(seed, ActorBackend::Coroutine);
        let os = tie_rich_run(seed, ActorBackend::OsThread);
        prop_assert_eq!(&coro.0, &os.0, "event logs diverged for seed {}", seed);
        prop_assert_eq!(coro.1, os.1, "end times diverged");
        prop_assert_eq!(coro.2, os.2, "counter diverged");
        prop_assert_eq!(coro.3, os.3, "decision logs diverged");
    }
}

/// Every committed corpus `.schedule` reproduces the *same* violation on
/// both backends: same kind, same detail string.
#[test]
fn corpus_replays_identically_on_both_backends() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("corpus dir must exist") {
        let path = entry.unwrap().path();
        if !path.extension().is_some_and(|x| x == ARTIFACT_EXT) {
            continue;
        }
        let art = Artifact::parse(&std::fs::read_to_string(&path).unwrap())
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let replay = |b| {
            with_backend(b, || {
                let v = art
                    .replay()
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                format!("{:?}", v)
            })
        };
        assert_eq!(
            replay(ActorBackend::Coroutine),
            replay(ActorBackend::OsThread),
            "{}: backends disagree on the replayed violation",
            path.display()
        );
        checked += 1;
    }
    assert!(checked >= 2, "corpus should hold the two mutation schedules");
}

/// Full-stack UPC scenarios, explored with the same policy seed on both
/// backends: identical end state, end time, and tie-break decisions.
#[test]
fn scenarios_agree_across_backends() {
    for name in ["split_barrier", "allreduce2", "retry_loss"] {
        let s = find_scenario(name).unwrap();
        for seed in [1u64, 7, 42] {
            let run = |b| {
                with_backend(b, || {
                    let p = PolicyHandle::random(seed);
                    let out = s.run(&p, 0, true);
                    assert!(
                        out.violation.is_none(),
                        "{name} seed {seed}: {:?}",
                        out.violation
                    );
                    (out.end_state, out.end_time, out.decisions)
                })
            };
            assert_eq!(
                run(ActorBackend::Coroutine),
                run(ActorBackend::OsThread),
                "{name} seed {seed}: backend changed the run"
            );
        }
    }
}
