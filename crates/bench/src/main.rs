//! `hupc-bench <experiment> [--quick] [--csv <path>] [--check <baseline.json>]`
//!
//! Runs one row of [`EXPERIMENTS`]: prints its tables (appending them to
//! `--csv`), writes its metrics to its `BENCH_<x>.json` (beside the CSV
//! instead under `--check`, see `report::metrics_out`) and, with `--check`,
//! enforces its gate rows against the baseline, exiting 1 on a regression.
//! A workload sweep with a failed oracle exits 1 even without `--check`.

use std::process::exit;
use std::time::Instant;

use hupc_bench::exp::{Experiment, ALL, EXPERIMENTS};
use hupc_bench::report::{baseline_values, emit, enforce_gates, gates, write_metrics};
use hupc_bench::{Args, Metrics};

/// Print `msg`, the usage line and every experiment name; exit with `code`.
fn usage(code: i32, msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("{msg}");
    }
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    eprintln!(
        "usage: hupc-bench <experiment> [--quick] [--csv <path>] [--check <baseline.json>]\n\
         experiments: {}",
        names.join(" ")
    );
    exit(code)
}

fn parse_args() -> (&'static Experiment, Args) {
    let mut name = None;
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut path = || match it.next() {
            Some(p) => p.into(),
            None => usage(2, &format!("{a} requires a path argument")),
        };
        match a.as_str() {
            "--csv" => args.csv = Some(path()),
            "--check" => args.check = Some(path()),
            "--quick" => args.quick = true,
            "--help" | "-h" => usage(0, ""),
            flag if flag.starts_with('-') => usage(2, &format!("unknown argument: {flag}")),
            exp if name.is_none() => name = Some(exp.to_string()),
            extra => usage(2, &format!("unexpected argument: {extra}")),
        }
    }
    let Some(name) = name else {
        usage(2, "no experiment given")
    };
    match EXPERIMENTS.iter().find(|e| e.name == name) {
        Some(e) => (e, args),
        None => usage(2, &format!("unknown experiment: {name}")),
    }
}

fn run(e: &Experiment, args: &Args) -> Metrics {
    eprintln!("[running {} ...]", e.name);
    let t0 = Instant::now();
    let (tables, m) = (e.run)(args.quick);
    emit(args, &tables);
    eprintln!("[{} done in {:.1}s]", e.name, t0.elapsed().as_secs_f64());
    m
}

fn main() {
    let (e, args) = parse_args();
    if args.check.is_some() && e.gates.is_empty() {
        usage(2, &format!("{} has no gates to --check", e.name));
    }
    // Read the baseline first: a missing key fails before a long run.
    let baseline = args.check.as_ref().map(|p| baseline_values(p, e.gates));

    if e.name == ALL {
        for s in EXPERIMENTS.iter().filter(|s| s.suite) {
            run(s, &args);
        }
    }
    let m = run(e, &args);
    if let Some(bench) = e.bench {
        write_metrics(&args, bench, &m.to_json());
    }

    if let Some(base) = baseline {
        let context: Vec<(&str, f64)> = ["host_cpus", "total_runs"]
            .into_iter()
            .filter_map(|k| Some((k, m.get(k)?)))
            .collect();
        enforce_gates(&context, &gates(e.gates, &m, &base, args.quick));
    } else if m.get("failed_runs").is_some_and(|f| f > 0.0) {
        let count = |k| m.get(k).unwrap_or(0.0);
        eprintln!(
            "WORKLOAD FAILURE: {}/{} sweep cells passed",
            count("passed_runs"),
            count("total_runs")
        );
        exit(1);
    }
}
