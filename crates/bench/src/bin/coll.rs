//! Flat vs hierarchical collectives benchmark: broadcast, allreduce,
//! allgather and the staged barrier at Pyramid scale, plus the coalesced
//! all-to-all on Lehman.
//!
//! Writes `BENCH_coll.json` in the working directory; with `--check
//! <baseline.json>` the fresh metrics go beside the `--csv` output instead
//! (see `report::metrics_out`), and the run fails (exit 1) when the
//! broadcast or allreduce speedup drops below 2x — or, on full (non
//! `--quick`) runs, below half the committed baseline — the CI perf-smoke
//! gate.

use hupc_bench::{baseline_metrics, enforce_gates, write_metrics, Gate};

/// The gated metrics: hierarchical must stay at least 2x ahead of flat.
const GATED: [&str; 2] = ["bcast_speedup", "allreduce_speedup"];

fn main() {
    let args = hupc_bench::parse_args();
    let baseline = args.check.as_ref().map(|p| baseline_metrics(p, &GATED));

    let (tables, metrics) = hupc_bench::exp::coll::run(args.quick);
    hupc_bench::report::emit(&args, &tables);

    write_metrics(&args, "BENCH_coll.json", &metrics.to_json());

    if let Some(base) = baseline {
        let now = [metrics.bcast_speedup, metrics.allreduce_speedup];
        let gates: Vec<Gate> = GATED
            .iter()
            .zip(now)
            .zip(&base)
            .map(|((key, now), base)| {
                // Quick runs use a smaller machine slice, so the committed
                // full-scale baseline only tightens the floor on full runs.
                let floor = if args.quick { 2.0 } else { (base / 2.0).max(2.0) };
                Gate::at_least(*key, now, floor)
            })
            .collect();
        enforce_gates(&[], &gates);
    }
}
