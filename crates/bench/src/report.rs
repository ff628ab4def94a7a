//! Table rendering, CSV output, the metrics writer and the `--check`
//! regression-gate machinery shared by every experiment.

use std::io::Write;
use std::path::{Path, PathBuf};

/// Command-line options of `hupc-bench <experiment>`.
#[derive(Clone, Debug, Default)]
pub struct Args {
    pub csv: Option<PathBuf>,
    pub quick: bool,
    /// Baseline JSON to gate against (experiments with gate rows).
    pub check: Option<PathBuf>,
}

/// Pull one numeric field out of a flat JSON object (the shape every
/// `BENCH_*.json` metrics file writes). Enough of a parser for `--check`;
/// no strings, no nesting.
pub fn json_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// An experiment's metrics: ordered `(key, value)` pairs, written as one
/// flat JSON object, plus the workload sweep's per-run reports as a
/// trailing `runs` array.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    pub values: Vec<(String, f64)>,
    /// Raw JSON objects, one per sweep cell (`RunReport::to_json`).
    pub runs: Vec<String>,
}

impl Metrics {
    pub fn push(&mut self, key: impl Into<String>, value: f64) {
        self.values.push((key.into(), value));
    }

    pub fn get(&self, key: &str) -> Option<f64> {
        self.values.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// The `BENCH_<x>.json` text. Values print in their shortest
    /// round-trip form, so [`json_number`] reads back exactly what was
    /// measured.
    pub fn to_json(&self) -> String {
        let mut fields: Vec<String> = self
            .values
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect();
        if !self.runs.is_empty() {
            fields.push(format!("  \"runs\": [{}]", self.runs.join(",")));
        }
        format!("{{\n{}\n}}\n", fields.join(",\n"))
    }
}

/// Where a run writes its fresh metrics JSON, `default` being its
/// `BENCH_<x>.json` name. Without `--check` that is `default` in the working
/// directory. With `--check <path>` the run is a comparison, so the fresh
/// metrics go next to the `--csv` output (same stem, `.json`) and never to
/// `<path>`: a quick run must not replace the committed baseline it reads.
/// Without `--csv` a checked run writes no metrics file.
pub fn metrics_out(args: &Args, default: &str) -> Option<PathBuf> {
    let Some(baseline) = &args.check else {
        return Some(PathBuf::from(default));
    };
    let out = args.csv.as_ref()?.with_extension("json");
    (out != *baseline).then_some(out)
}

/// Write a run's fresh metrics JSON where [`metrics_out`] says.
pub fn write_metrics(args: &Args, default: &str, json: &str) {
    match metrics_out(args, default) {
        Some(path) => {
            std::fs::write(&path, json)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            eprintln!("[wrote {}]", path.display());
        }
        None => eprintln!("[--check without --csv: fresh metrics not written]"),
    }
}

/// How a gate's bound follows the committed baseline value `b` at one run
/// size: `max(scale · b, floor)`. With `scale == 0` the bound is the fixed
/// `floor` and the gate reads no baseline value.
#[derive(Clone, Copy, Debug)]
pub struct Bound {
    pub scale: f64,
    pub floor: f64,
}

impl Bound {
    /// `scale · b`.
    pub const fn scaled(scale: f64) -> Bound {
        Bound { scale, floor: 0.0 }
    }

    /// `floor`, whatever the baseline.
    pub const fn fixed(floor: f64) -> Bound {
        Bound { scale: 0.0, floor }
    }

    /// This bound, raised to at least `floor`.
    pub const fn with_floor(self, floor: f64) -> Bound {
        Bound { floor, ..self }
    }

    pub fn of(self, baseline: f64) -> f64 {
        (self.scale * baseline).max(self.floor)
    }
}

/// One row of an experiment's gate table: metric `key` must stay at least
/// (or at most) its bound, which may differ between full and `--quick`
/// runs.
#[derive(Clone, Copy, Debug)]
pub struct GateRow {
    pub key: &'static str,
    pub at_least: bool,
    pub full: Bound,
    pub quick: Bound,
}

impl GateRow {
    /// Gate demanding `value >= bound` (throughputs, speedups).
    pub const fn at_least(key: &'static str, full: Bound, quick: Bound) -> GateRow {
        GateRow {
            key,
            at_least: true,
            full,
            quick,
        }
    }

    /// Gate demanding `value <= bound` (latencies, times, failures).
    pub const fn at_most(key: &'static str, full: Bound, quick: Bound) -> GateRow {
        GateRow {
            key,
            at_least: false,
            full,
            quick,
        }
    }

    /// Whether the bound reads the baseline at either run size.
    pub fn scales(&self) -> bool {
        self.full.scale != 0.0 || self.quick.scale != 0.0
    }

    pub fn bound(&self, baseline: f64, quick: bool) -> f64 {
        if quick { self.quick } else { self.full }.of(baseline)
    }
}

/// Read a committed baseline file and pick out each row's baseline value
/// (0 for a fixed row), panicking with the offending path/key on any miss.
pub fn baseline_values(path: &Path, rows: &[GateRow]) -> Vec<f64> {
    let s = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", path.display()));
    rows.iter()
        .map(|row| {
            if !row.scales() {
                return 0.0;
            }
            json_number(&s, row.key)
                .unwrap_or_else(|| panic!("no {} in {}", row.key, path.display()))
        })
        .collect()
}

/// Evaluate `rows` on a run's metrics against `baseline` (as read by
/// [`baseline_values`]).
pub fn gates(rows: &[GateRow], m: &Metrics, baseline: &[f64], quick: bool) -> Vec<Gate> {
    rows.iter()
        .zip(baseline)
        .map(|(row, &base)| {
            let value = m
                .get(row.key)
                .unwrap_or_else(|| panic!("the run emitted no {} metric", row.key));
            Gate {
                name: row.key.to_string(),
                value,
                bound: row.bound(base, quick),
                at_least: row.at_least,
            }
        })
        .collect()
}

/// One perf-smoke regression gate: a measured value against a bound.
#[derive(Clone, Debug)]
pub struct Gate {
    pub name: String,
    pub value: f64,
    pub bound: f64,
    /// `true` when the gate wants `value >= bound`, `false` for `<=`.
    pub at_least: bool,
}

impl Gate {
    pub fn ok(&self) -> bool {
        if self.at_least {
            self.value >= self.bound
        } else {
            self.value <= self.bound
        }
    }

    pub fn json(&self) -> String {
        // `{:?}` prints the shortest round-trip form, so nanosecond-scale
        // virtual times and million-scale throughputs both stay readable.
        format!(
            "{{\"gate\":\"{}\",\"value\":{:?},\"{}\":{:?},\"verdict\":\"{}\"}}",
            self.name,
            self.value,
            if self.at_least { "min" } else { "max" },
            self.bound,
            if self.ok() { "ok" } else { "fail" },
        )
    }
}

/// Evaluate every gate and report all of them as one machine-readable line
/// — pass or fail, CI logs capture the whole picture in one grep. Returns
/// `false` (after printing `PERF REGRESSION`) when any gate trips;
/// `context` key/value pairs are embedded in the regression JSON.
pub fn check_gates(context: &[(&str, f64)], gates: &[Gate]) -> bool {
    let joined = |sep: &str| gates.iter().map(Gate::json).collect::<Vec<_>>().join(sep);
    if gates.iter().all(Gate::ok) {
        eprintln!("[perf check ok: {}]", joined(" "));
        true
    } else {
        let ctx: String = context
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v:.0},"))
            .collect();
        eprintln!("PERF REGRESSION: {{{ctx}\"gates\":[{}]}}", joined(","));
        false
    }
}

/// [`check_gates`], exiting 1 on regression.
pub fn enforce_gates(context: &[(&str, f64)], gates: &[Gate]) {
    if !check_gates(context, gates) {
        std::process::exit(1);
    }
}

/// A titled table with aligned text rendering and CSV dumping.
#[derive(Clone, Debug)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render to stdout with aligned columns.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        println!("\n== {} ==", self.title);
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    s.push_str(&format!("{:<w$}", c, w = widths[i]));
                } else {
                    s.push_str(&format!("  {:>w$}", c, w = widths[i]));
                }
            }
            s
        };
        println!("{}", line(&self.headers));
        println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        for r in &self.rows {
            println!("{}", line(r));
        }
    }

    /// CSV rendering (title as a comment line).
    pub fn to_csv(&self) -> String {
        let mut s = format!("# {}\n{}\n", self.title, self.headers.join(","));
        for r in &self.rows {
            s.push_str(&r.join(","));
            s.push('\n');
        }
        s
    }
}

/// Print all tables; append them to the CSV file if requested.
pub fn emit(args: &Args, tables: &[Table]) {
    for t in tables {
        t.print();
    }
    if let Some(path) = &args.csv {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap_or_else(|e| panic!("cannot open {path:?}: {e}"));
        for t in tables {
            writeln!(f, "{}", t.to_csv()).expect("csv write failed");
        }
        eprintln!("[csv appended to {}]", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_and_dumps() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["x".into(), "1.5".into()]);
        t.row(vec!["long-label".into(), "2".into()]);
        let csv = t.to_csv();
        assert!(csv.starts_with("# demo\na,b\n"));
        assert!(csv.contains("x,1.5"));
        t.print(); // should not panic
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn check_never_overwrites_its_baseline() {
        let args = |csv: Option<&str>, check: Option<&str>| Args {
            csv: csv.map(PathBuf::from),
            check: check.map(PathBuf::from),
            ..Args::default()
        };
        let out = |a: &Args| metrics_out(a, "BENCH_simcore.json");
        // A plain run refreshes the baseline file in the working directory.
        assert_eq!(out(&args(None, None)), Some("BENCH_simcore.json".into()));
        assert_eq!(
            out(&args(Some("results_simcore.csv"), None)),
            Some("BENCH_simcore.json".into())
        );
        // A checked run writes beside its CSV, never to the baseline.
        assert_eq!(
            out(&args(Some("results_simcore.csv"), Some("BENCH_simcore.json"))),
            Some("results_simcore.json".into())
        );
        assert_eq!(out(&args(None, Some("BENCH_simcore.json"))), None);
        assert_eq!(out(&args(Some("BENCH_simcore.csv"), Some("BENCH_simcore.json"))), None);
    }

    #[test]
    fn json_number_extracts_flat_fields() {
        let j = r#"{"a":1.5,"b":-2e3,"nested":{"c":7},"d":42}"#;
        assert_eq!(json_number(j, "a"), Some(1.5));
        assert_eq!(json_number(j, "b"), Some(-2000.0));
        assert_eq!(json_number(j, "c"), Some(7.0));
        assert_eq!(json_number(j, "d"), Some(42.0));
        assert_eq!(json_number(j, "missing"), None);
    }

    #[test]
    fn metrics_writer_round_trips_through_json_number() {
        let mut m = Metrics::default();
        for (k, v) in [
            ("tput", 16_688_761.234_567_8),
            ("lat_ns", 291.0),
            ("virt_s", 1.7653e-5),
            ("ratio", 2.0 / 3.0),
            ("zero", 0.0),
            ("huge", 1.5e21),
        ] {
            m.push(k, v);
        }
        m.runs = vec![r#"{"workload":"a","end_seconds":0.5}"#.into()];
        let j = m.to_json();
        for (k, v) in &m.values {
            assert_eq!(json_number(&j, k), Some(*v), "{k} in {j}");
            assert_eq!(m.get(k), Some(*v));
        }
        assert!(
            j.contains(r#""runs": [{"workload":"a","end_seconds":0.5}]"#),
            "{j}"
        );
        assert_eq!(json_number(&j, "missing"), None);
        assert_eq!(m.get("missing"), None);
        // No runs, no `runs` array.
        assert!(!Metrics::default().to_json().contains("runs"));
    }

    fn gate(at_least: bool, value: f64, bound: f64) -> Gate {
        Gate {
            name: "g".into(),
            value,
            bound,
            at_least,
        }
    }

    #[test]
    fn gates_evaluate_and_waive() {
        assert!(gate(true, 10.0, 5.0).ok());
        assert!(!gate(true, 4.0, 5.0).ok());
        assert!(gate(false, 4.0, 5.0).ok());
        assert!(!gate(false, 6.0, 5.0).ok());
        // Nothing is waived: a tripped gate reports "fail".
        assert!(gate(true, 1.0, 1.8)
            .json()
            .ends_with(r#""min":1.8,"verdict":"fail"}"#));
        assert!(gate(false, 0.0, 0.0)
            .json()
            .ends_with(r#""max":0.0,"verdict":"ok"}"#));
    }

    #[test]
    fn gate_rows_bound_by_run_size() {
        let row = GateRow::at_least("k", Bound::scaled(0.5).with_floor(2.0), Bound::fixed(2.0));
        assert!(row.scales());
        assert_eq!(row.bound(10.0, false), 5.0);
        assert_eq!(row.bound(3.0, false), 2.0);
        assert_eq!(row.bound(10.0, true), 2.0);
        let fixed = GateRow::at_most("f", Bound::fixed(1.5), Bound::fixed(1.5));
        assert!(!fixed.scales());
        let m = Metrics {
            values: vec![("k".into(), 4.0), ("f".into(), 1.0)],
            runs: vec![],
        };
        let g = gates(&[row, fixed], &m, &[10.0, 0.0], false);
        assert_eq!((g[0].bound, g[0].ok()), (5.0, false));
        assert_eq!((g[1].bound, g[1].ok()), (1.5, true));
    }

    #[test]
    fn check_gates_reports_all() {
        assert!(check_gates(&[], &[gate(true, 2.0, 1.0)]));
        assert!(!check_gates(
            &[("host_cpus", 8.0)],
            &[gate(true, 2.0, 1.0), gate(false, 9.0, 5.0)]
        ));
    }
}
