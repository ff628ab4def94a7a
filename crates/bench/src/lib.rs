//! `hupc-bench` — the experiment harness: one module (and one binary) per
//! table / figure of the thesis' evaluation chapters.
//!
//! Every binary prints the regenerated rows/series next to the thesis'
//! published values and accepts:
//!
//! * `--csv <path>` — also dump machine-readable series;
//! * `--quick` — a reduced sweep (fewer configurations / iterations) for
//!   smoke runs.
//!
//! `all_experiments` runs the full set.

pub mod exp;
pub mod report;

pub use report::{
    baseline_metrics, check_gates, enforce_gates, json_number, parse_args, write_metrics, Args,
    Gate, Table,
};
