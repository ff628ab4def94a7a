//! `hupc-bench` — the experiment harness: one module per table / figure of
//! the thesis' evaluation chapters, plus the perf-smoke probes, all run
//! through one binary:
//!
//! ```text
//! hupc-bench <experiment> [--quick] [--csv <path>] [--check <baseline.json>]
//! ```
//!
//! * `--quick` — a reduced sweep (fewer configurations / iterations) for
//!   smoke runs;
//! * `--csv <path>` — also append machine-readable series;
//! * `--check <baseline.json>` — gate the run's metrics against a committed
//!   `BENCH_<x>.json` with the experiment's rows in [`exp::EXPERIMENTS`].
//!
//! Every experiment prints the regenerated rows/series next to the thesis'
//! published values. `all_experiments` runs the thesis suite, then the
//! workload-registry sweep; `apps` runs the sweep alone at quick size.

pub mod exp;
pub mod report;

pub use report::{Args, Metrics, Table};
