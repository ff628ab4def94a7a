//! The metric catalogue in `BENCHMARK.json` against what the ledger emits,
//! on tiny runs of every workload in both modes.
//!
//! One test function: a traced run installs a process-global tracer, so
//! simulations in this binary must not run concurrently.

use std::path::Path;

use hupc_ledger::env::{peak_rss_of_one_run, pin_backends};
use hupc_ledger::measure::{end_to_end, traced, Report};
use hupc_ledger::workloads::{Scale, Work, NAMES};

/// Every JSON string in `text`, in order. Nothing scanned here holds an
/// escaped quote, so splitting on quotes will do.
fn strings(text: &str) -> Vec<&str> {
    assert!(!text.contains("\\\""), "escaped quote in {text}");
    text.split('"').skip(1).step_by(2).collect()
}

/// `(name, unit)` of every entry of one `BENCHMARK.json` list (`unit` is
/// empty for workloads).
fn entries(doc: &str, list: &str) -> Vec<(String, String)> {
    let start = doc
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"));
    let end = start + doc[start..].find(']').expect("list closes");
    let words = strings(&doc[start..end]);
    let mut out: Vec<(String, String)> = Vec::new();
    for pair in words.windows(2) {
        match pair {
            ["name", name] => out.push((name.to_string(), String::new())),
            ["unit", unit] => out.last_mut().expect("unit after name").1 = unit.to_string(),
            _ => {}
        }
    }
    out
}

/// `(name, unit)` of every metric in a report's result line, sorted.
fn emitted(report: &Report) -> Vec<(String, String)> {
    let line = report.result_line();
    let metrics = line.split_once("\"metrics\": {").expect("metrics object").1;
    let mut v: Vec<(String, String)> = strings(metrics)
        .chunks(4)
        .map(|m| match m {
            [name, "value", "unit", unit] => (name.to_string(), unit.to_string()),
            _ => panic!("malformed metric {m:?} in {line}"),
        })
        .collect();
    v.sort();
    v
}

#[test]
fn every_catalogued_metric_is_emitted_and_nothing_else() {
    pin_backends();
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the ledger");
    let workloads: Vec<String> = entries(&doc, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, NAMES);
    let mut e2e = entries(&doc, "end_to_end");
    let mut layer = entries(&doc, "per_layer");
    e2e.sort();
    layer.sort();

    for name in NAMES {
        let work = Work::new(name, 3, Scale::Tiny).expect("known workload");
        let exe = Path::new(env!("CARGO_BIN_EXE_ledger"));
        let r = end_to_end(&work, 0.0, || {
            peak_rss_of_one_run(exe, name, 3, Scale::Tiny)
        });
        assert!(r.correct(), "{name} e2e: {:?}", r.checked.problems);
        assert_eq!(emitted(&r), e2e, "{name}: end-to-end metrics");
        assert!(
            r.metrics.iter().all(|(_, v)| *v > 0.0),
            "{name}: an e2e metric is 0: {:?}",
            r.metrics
        );

        let r = traced(&work, 0.0);
        assert!(r.correct(), "{name} traced: {:?}", r.checked.problems);
        assert_eq!(emitted(&r), layer, "{name}: per-layer metrics");
        let get = |m: &str| r.metrics.iter().find(|(n, _)| *n == m).map(|(_, v)| *v);
        assert_eq!(get("trace.dropped"), Some(0.0));
    }
}
