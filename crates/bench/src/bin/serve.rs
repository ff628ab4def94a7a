//! Serving-path benchmark: throughput-vs-offered-load knee curve for the
//! sharded PGAS KV service, overload shedding, and straggler tail-latency
//! experiments.
//!
//! Writes `BENCH_serve.json` in the working directory; with `--check
//! <baseline.json>` the fresh metrics go beside the `--csv` output instead
//! (see `report::metrics_out`), and the run fails (exit 1) when:
//!   - sub-saturation p99 exceeds 2x the committed baseline,
//!   - peak achieved throughput drops below half the committed baseline,
//!   - the straggler experiment stops showing the tail-at-scale shape
//!     (p999 must degrade ≥ 1.2x while p50 stays within 1.5x fault-free).
//!
//! All times are virtual, so the gate catches semantic regressions in the
//! serving/runtime path, independent of host speed.

use hupc_bench::{baseline_metrics, enforce_gates, write_metrics, Gate};

const GATED: [&str; 2] = ["sub_saturation_p99_us", "peak_krps"];

fn main() {
    let args = hupc_bench::parse_args();
    let baseline = args.check.as_ref().map(|p| baseline_metrics(p, &GATED));

    let (tables, m) = hupc_bench::exp::serve::run(args.quick);
    hupc_bench::report::emit(&args, &tables);

    write_metrics(&args, "BENCH_serve.json", &m.to_json());

    if let Some(base) = baseline {
        let (base_p99, base_peak) = (base[0], base[1]);
        // Latency ceiling is 2x the baseline (quick runs sample fewer
        // requests, so keep a generous fixed floor on the ceiling); the
        // throughput floor is half the baseline (a quarter on quick runs).
        let p99_ceiling = if args.quick {
            (base_p99 * 2.0).max(200.0)
        } else {
            base_p99 * 2.0
        };
        let peak_floor = if args.quick {
            base_peak / 4.0
        } else {
            base_peak / 2.0
        };
        enforce_gates(
            &[],
            &[
                Gate::at_most("sub_saturation_p99_us", m.sub_saturation_p99_us, p99_ceiling),
                Gate::at_least("peak_krps", m.peak_krps, peak_floor),
                // Tail-at-scale shape: the straggler must fatten the tail
                // without moving the median much — the thesis' motivating
                // asymmetry.
                Gate::at_least(
                    "straggler_p999_ratio",
                    m.straggler_p999_us / m.fault_free_p999_us,
                    1.2,
                ),
                Gate::at_most(
                    "straggler_p50_ratio",
                    m.straggler_p50_us / m.fault_free_p50_us,
                    1.5,
                ),
            ],
        );
    }
}
