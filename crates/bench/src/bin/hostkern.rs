//! Host-kernel microbenchmark: SHA-1 child derivation, FFT butterflies and
//! bulk PGAS element transfers, batched/zero-copy vs the scalar baselines.
//!
//! Writes `BENCH_hostkern.json` in the working directory; with `--check
//! <baseline.json>` the fresh metrics go beside the `--csv` output instead
//! (see `report::metrics_out`), and the run fails (exit 1) when any
//! headline metric fell below half the baseline's — the CI perf-smoke gate.

use hupc_bench::{baseline_metrics, enforce_gates, write_metrics, Gate};

/// The gated metrics: each must stay above half its baseline value.
const GATED: [&str; 3] = [
    "sha1_batched_mb_s",
    "fft_radix4_mflops",
    "bulk_zero_copy_melems_s",
];

fn main() {
    let args = hupc_bench::parse_args();
    let baseline = args.check.as_ref().map(|p| baseline_metrics(p, &GATED));

    let (tables, metrics) = hupc_bench::exp::hostkern::run(args.quick);
    hupc_bench::report::emit(&args, &tables);

    write_metrics(&args, "BENCH_hostkern.json", &metrics.to_json());

    if let Some(base) = baseline {
        let now = [
            metrics.sha1_batched_mb_s,
            metrics.fft_radix4_mflops,
            metrics.bulk_zero_copy_melems_s,
        ];
        let gates: Vec<Gate> = GATED
            .iter()
            .zip(now)
            .zip(&base)
            .map(|((key, now), base)| Gate::at_least(*key, now, base / 2.0))
            .collect();
        enforce_gates(&[], &gates);
    }
}
