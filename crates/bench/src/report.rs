//! Table rendering, CSV output and the shared `--check` regression-gate
//! machinery for the experiment binaries.

use std::io::Write;
use std::path::{Path, PathBuf};

/// Command-line options shared by every experiment binary.
#[derive(Clone, Debug, Default)]
pub struct Args {
    pub csv: Option<PathBuf>,
    pub quick: bool,
    /// Baseline JSON to compare against (the perf-smoke binaries).
    pub check: Option<PathBuf>,
    /// `all_experiments` only: run just the workload-registry sweep.
    pub smoke: bool,
}

/// Parse `--csv <path>`, `--quick`, `--smoke` and `--check <path>` from
/// `std::env::args`.
pub fn parse_args() -> Args {
    let mut out = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--csv" => {
                out.csv = Some(PathBuf::from(
                    it.next().expect("--csv requires a path argument"),
                ));
            }
            "--check" => {
                out.check = Some(PathBuf::from(
                    it.next().expect("--check requires a path argument"),
                ));
            }
            "--quick" => out.quick = true,
            "--smoke" => out.smoke = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: <experiment> [--quick] [--smoke] [--csv <path>] \
                     [--check <baseline.json>]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    out
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

/// Read a committed baseline file and extract `keys`, panicking with the
/// offending path/key on any miss — the shared head of every perf-smoke
/// binary's `--check` path.
pub fn baseline_metrics(path: &Path, keys: &[&str]) -> Vec<f64> {
    let s = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", path.display()));
    keys.iter()
        .map(|key| {
            json_number(&s, key).unwrap_or_else(|| panic!("no {key} in {}", path.display()))
        })
        .collect()
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

/// One perf-smoke regression gate: a measured value against a bound.
#[derive(Clone, Debug)]
pub struct Gate {
    pub name: String,
    pub value: f64,
    pub bound: f64,
    /// `true` when the gate wants `value >= bound`, `false` for `<=`.
    pub at_least: bool,
    /// `None` = enforced; `Some(why)` = reported but not enforced.
    pub waived: Option<String>,
}

impl Gate {
    /// Gate demanding `value >= bound` (throughputs, speedups).
    pub fn at_least(name: impl Into<String>, value: f64, bound: f64) -> Gate {
        Gate {
            name: name.into(),
            value,
            bound,
            at_least: true,
            waived: None,
        }
    }

    /// Gate demanding `value <= bound` (latencies, times).
    pub fn at_most(name: impl Into<String>, value: f64, bound: f64) -> Gate {
        Gate {
            name: name.into(),
            value,
            bound,
            at_least: false,
            waived: None,
        }
    }

    /// Report this gate without enforcing it when `cond` holds (e.g. the
    /// host cannot physically pass it).
    pub fn waive_if(mut self, cond: bool, why: impl Into<String>) -> Gate {
        if cond {
            self.waived = Some(why.into());
        }
        self
    }

    pub fn ok(&self) -> bool {
        if self.waived.is_some() {
            return true;
        }
        if self.at_least {
            self.value >= self.bound
        } else {
            self.value <= self.bound
        }
    }

    pub fn json(&self) -> String {
        let verdict = if self.waived.is_some() {
            "waived"
        } else if self.ok() {
            "ok"
        } else {
            "fail"
        };
        let waived = match &self.waived {
            Some(why) => format!(",\"waived\":\"{why}\""),
            None => String::new(),
        };
        // `{:?}` prints the shortest round-trip form, so nanosecond-scale
        // virtual times and million-scale throughputs both stay readable.
        format!(
            "{{\"gate\":\"{}\",\"value\":{:?},\"{}\":{:?},\"verdict\":\"{verdict}\"{waived}}}",
            self.name,
            self.value,
            if self.at_least { "min" } else { "max" },
            self.bound,
        )
    }
}

/// Evaluate every gate and report all of them as one machine-readable line
/// — pass or fail, CI logs capture the whole picture in one grep. Returns
/// `false` (after printing `PERF REGRESSION`) when any enforced gate trips;
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

/// [`check_gates`], exiting 1 on regression — the tail of every perf-smoke
/// binary.
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
    fn gates_evaluate_and_waive() {
        assert!(Gate::at_least("tput", 10.0, 5.0).ok());
        assert!(!Gate::at_least("tput", 4.0, 5.0).ok());
        assert!(Gate::at_most("lat", 4.0, 5.0).ok());
        assert!(!Gate::at_most("lat", 6.0, 5.0).ok());
        let waived = Gate::at_least("speedup", 1.0, 1.8).waive_if(true, "1-core host");
        assert!(waived.ok());
        assert!(waived.json().contains("\"verdict\":\"waived\""));
        assert!(!Gate::at_least("speedup", 1.0, 1.8)
            .waive_if(false, "n/a")
            .ok());
    }

    #[test]
    fn check_gates_reports_all() {
        assert!(check_gates(&[], &[Gate::at_least("a", 2.0, 1.0)]));
        assert!(!check_gates(
            &[("host_cpus", 8.0)],
            &[Gate::at_least("a", 2.0, 1.0), Gate::at_most("b", 9.0, 5.0)]
        ));
    }
}
