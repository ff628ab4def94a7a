//! One module per table / figure of the thesis' evaluation, plus the
//! perf-smoke probes, and [`EXPERIMENTS`]: the table `hupc-bench <exp>`
//! dispatches on, with each experiment's metrics file and gate rows.

pub mod ablation;
pub mod apps;
pub mod coll;
pub mod fault_uts;
pub mod fig_3_3;
pub mod fig_3_4;
pub mod fig_4_2;
pub mod fig_4_4;
pub mod fig_4_5;
pub mod fig_4_6;
pub mod hostkern;
pub mod serve;
pub mod simcore;
pub mod table_3_1;
pub mod table_3_2;
pub mod table_4_1;
pub mod trace;

use crate::report::{Bound, GateRow, Metrics, Table};

/// One `hupc-bench <name>` experiment.
pub struct Experiment {
    pub name: &'static str,
    pub run: fn(quick: bool) -> (Vec<Table>, Metrics),
    /// Run by [`ALL`] ahead of its workload sweep.
    pub suite: bool,
    /// The `BENCH_<x>.json` a plain run writes its metrics to.
    pub bench: Option<&'static str>,
    /// What `--check <baseline.json>` enforces.
    pub gates: &'static [GateRow],
}

/// The experiment that runs the whole [`Experiment::suite`], then the
/// workload sweep at the requested size.
pub const ALL: &str = "all_experiments";

const fn suite(name: &'static str, run: fn(bool) -> (Vec<Table>, Metrics)) -> Experiment {
    Experiment {
        name,
        run,
        suite: true,
        bench: None,
        gates: &[],
    }
}

const fn plain(name: &'static str, run: fn(bool) -> (Vec<Table>, Metrics)) -> Experiment {
    Experiment {
        name,
        run,
        suite: false,
        bench: None,
        gates: &[],
    }
}

const fn gated(
    name: &'static str,
    run: fn(bool) -> (Vec<Table>, Metrics),
    bench: &'static str,
    gates: &'static [GateRow],
) -> Experiment {
    Experiment {
        name,
        run,
        suite: false,
        bench: Some(bench),
        gates,
    }
}

const HALF: Bound = Bound::scaled(0.5);
const DOUBLE: Bound = Bound::scaled(2.0);
/// Hierarchical collectives must stay at least 2x ahead of flat; full runs
/// also hold half the committed (full-scale) baseline.
const COLL_FULL: Bound = Bound::scaled(0.5).with_floor(2.0);
const COLL_QUICK: Bound = Bound::fixed(2.0);
const NONE_FAILED: Bound = Bound::fixed(0.0);

/// Every sweep cell passes its oracle, and the breadth-wave apps' virtual
/// seconds stay within 2x of the baseline (virtual time is deterministic,
/// so that headroom is for intentional model changes, not noise).
const APPS_GATES: &[GateRow] = &[
    GateRow::at_most("failed_runs", NONE_FAILED, NONE_FAILED),
    GateRow::at_most("md_seconds", DOUBLE, DOUBLE),
    GateRow::at_most("cg_seconds", DOUBLE, DOUBLE),
    GateRow::at_most("stencil2d_seconds", DOUBLE, DOUBLE),
];

/// Every experiment, in the order [`ALL`] runs the suite.
pub static EXPERIMENTS: &[Experiment] = &[
    suite("table_3_1", table_3_1::run),
    suite("fig_3_3", fig_3_3::run),
    suite("table_3_2", table_3_2::run),
    suite("fig_3_4", fig_3_4::run),
    suite("table_4_1", table_4_1::run),
    suite("fig_4_2", fig_4_2::run),
    suite("fig_4_4", fig_4_4::run),
    suite("fig_4_5", fig_4_5::run),
    suite("fig_4_6", fig_4_6::run),
    suite("fault_uts", fault_uts::run),
    plain("ablation", ablation::run),
    plain("trace", trace::run),
    // Host-speed probes: a >2x regression against the baseline fails.
    gated(
        "simcore",
        simcore::run,
        "BENCH_simcore.json",
        &[
            GateRow::at_least("simcalls_per_sec_fast", HALF, HALF),
            GateRow::at_most("handoff_ns", DOUBLE, DOUBLE),
        ],
    ),
    gated(
        "hostkern",
        hostkern::run,
        "BENCH_hostkern.json",
        &[
            GateRow::at_least("sha1_batched_mb_s", HALF, HALF),
            GateRow::at_least("fft_radix4_mflops", HALF, HALF),
            GateRow::at_least("bulk_zero_copy_melems_s", HALF, HALF),
        ],
    ),
    gated(
        "coll",
        coll::run,
        "BENCH_coll.json",
        &[
            GateRow::at_least("bcast_speedup", COLL_FULL, COLL_QUICK),
            GateRow::at_least("allreduce_speedup", COLL_FULL, COLL_QUICK),
        ],
    ),
    // Quick runs sample fewer requests: the p99 ceiling keeps a fixed
    // 200 µs floor and the throughput floor drops to a quarter. The
    // straggler must fatten the tail without moving the median much.
    gated(
        "serve",
        serve::run,
        "BENCH_serve.json",
        &[
            GateRow::at_most("sub_saturation_p99_us", DOUBLE, DOUBLE.with_floor(200.0)),
            GateRow::at_least("peak_krps", HALF, Bound::scaled(0.25)),
            GateRow::at_least("straggler_p999_ratio", Bound::fixed(1.2), Bound::fixed(1.2)),
            GateRow::at_most("straggler_p50_ratio", Bound::fixed(1.5), Bound::fixed(1.5)),
        ],
    ),
    gated("apps", |_| apps::run(true), "BENCH_apps.json", APPS_GATES),
    gated(ALL, apps::run, "BENCH_apps.json", APPS_GATES),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::json_number;

    fn committed(bench: &str) -> String {
        let path = format!("{}/../../{bench}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
    }

    fn gated_experiments() -> impl Iterator<Item = &'static Experiment> {
        EXPERIMENTS.iter().filter(|e| !e.gates.is_empty())
    }

    #[test]
    fn names_are_unique_and_gated_experiments_write_metrics() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|o| o.name != e.name),
                "{}",
                e.name
            );
            assert!(e.gates.is_empty() || e.bench.is_some(), "{}", e.name);
        }
    }

    /// A renamed metric must fail here, not as a panic in CI perf-smoke.
    #[test]
    fn every_scaled_gate_key_is_in_its_committed_baseline() {
        for e in gated_experiments() {
            let bench = e.bench.unwrap();
            let json = committed(bench);
            for row in e.gates.iter().filter(|r| r.scales()) {
                assert!(
                    json_number(&json, row.key).is_some(),
                    "{} has no {}",
                    bench,
                    row.key
                );
            }
        }
    }

    /// Every gate's bound written out longhand: (baseline file, key,
    /// full-size bound, quick bound) as functions of the committed value
    /// `b`, so a bound cannot drift silently.
    type Formula = (&'static str, &'static str, fn(f64) -> f64, fn(f64) -> f64);
    #[rustfmt::skip]
    const FORMULAS: &[Formula] = &[
        ("BENCH_simcore.json", "simcalls_per_sec_fast", |b| b / 2.0, |b| b / 2.0),
        ("BENCH_simcore.json", "handoff_ns", |b| b * 2.0, |b| b * 2.0),
        ("BENCH_hostkern.json", "sha1_batched_mb_s", |b| b / 2.0, |b| b / 2.0),
        ("BENCH_hostkern.json", "fft_radix4_mflops", |b| b / 2.0, |b| b / 2.0),
        ("BENCH_hostkern.json", "bulk_zero_copy_melems_s", |b| b / 2.0, |b| b / 2.0),
        ("BENCH_coll.json", "bcast_speedup", |b| (b / 2.0).max(2.0), |_| 2.0),
        ("BENCH_coll.json", "allreduce_speedup", |b| (b / 2.0).max(2.0), |_| 2.0),
        ("BENCH_serve.json", "sub_saturation_p99_us", |b| b * 2.0, |b| (b * 2.0).max(200.0)),
        ("BENCH_serve.json", "peak_krps", |b| b / 2.0, |b| b / 4.0),
        ("BENCH_serve.json", "straggler_p999_ratio", |_| 1.2, |_| 1.2),
        ("BENCH_serve.json", "straggler_p50_ratio", |_| 1.5, |_| 1.5),
        ("BENCH_apps.json", "failed_runs", |_| 0.0, |_| 0.0),
        ("BENCH_apps.json", "md_seconds", |b| b * 2.0, |b| b * 2.0),
        ("BENCH_apps.json", "cg_seconds", |b| b * 2.0, |b| b * 2.0),
        ("BENCH_apps.json", "stencil2d_seconds", |b| b * 2.0, |b| b * 2.0),
    ];

    #[test]
    fn gate_table_reproduces_the_per_binary_bounds() {
        let mut covered = 0;
        for e in gated_experiments() {
            let bench = e.bench.unwrap();
            let json = committed(bench);
            let want: Vec<&Formula> = FORMULAS.iter().filter(|f| f.0 == bench).collect();
            let keys: Vec<&str> = e.gates.iter().map(|r| r.key).collect();
            assert_eq!(
                keys,
                want.iter().map(|f| f.1).collect::<Vec<_>>(),
                "{}",
                e.name
            );
            for (row, &&(_, _, full, quick)) in e.gates.iter().zip(&want) {
                let b = if row.scales() {
                    json_number(&json, row.key).unwrap()
                } else {
                    0.0
                };
                assert_eq!(row.bound(b, false), full(b), "{} {} full", e.name, row.key);
                assert_eq!(row.bound(b, true), quick(b), "{} {} quick", e.name, row.key);
                covered += 1;
            }
        }
        // simcore 2, hostkern 3, coll 2, serve 4, apps and all_experiments 4 each.
        assert_eq!(covered, 19);
    }
}
