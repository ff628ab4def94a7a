//! Engine microbenchmark: simcall throughput, handoff latency, UTS host
//! wall-clock with the scheduler-bypass fast path on vs off, and the
//! million-actor scale probes.
//!
//! Writes `BENCH_simcore.json` in the working directory; with `--check
//! <baseline.json>` the fresh metrics go beside the `--csv` output instead
//! (see `report::metrics_out`), and the run fails (exit 1) when any gate
//! trips:
//!
//! * simcall throughput below half the baseline's;
//! * scheduler handoff latency more than double the baseline's.
//!
//! On failure every gate's measured value, bound and verdict is printed as
//! one JSON line so CI logs capture the whole picture in one grep — not
//! just whichever gate happened to trip first.

use hupc_bench::{baseline_metrics, enforce_gates, write_metrics, Gate};

fn main() {
    let args = hupc_bench::parse_args();
    let baseline = args
        .check
        .as_ref()
        .map(|p| baseline_metrics(p, &["simcalls_per_sec_fast", "handoff_ns"]));

    let (tables, metrics) = hupc_bench::exp::simcore::run(args.quick);
    hupc_bench::report::emit(&args, &tables);

    write_metrics(&args, "BENCH_simcore.json", &metrics.to_json());

    if let Some(base) = baseline {
        enforce_gates(
            &[("host_cpus", metrics.host_cpus)],
            &[
                Gate::at_least(
                    "simcalls_per_sec_fast",
                    metrics.simcalls_per_sec_fast,
                    base[0] / 2.0,
                ),
                Gate::at_most("handoff_ns", metrics.handoff_ns, base[1] * 2.0),
            ],
        );
    }
}
