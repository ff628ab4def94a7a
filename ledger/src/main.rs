//! `ledger run --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! measures one workload and prints, last, one JSON result line.
//! `ledger compare <a> <b>` compares two result sets saved with `--out`, and
//! refuses to when they come from hosts with different CPU counts.
//! `ledger peak-rss <workload> <seed> <full|tiny>` runs a workload once and
//! prints the process's peak resident set in MiB; `run` starts it for
//! `peak_rss_mb`.

use std::collections::BTreeMap;
use std::process::ExitCode;

use hupc_ledger::env::{peak_rss_mb, peak_rss_of_one_run, pin_backends, RunEnv};
use hupc_ledger::measure::{end_to_end, traced};
use hupc_ledger::workloads::{Scale, Work};

const USAGE: &str = "usage: ledger run --workload <uts-groups|ft-hybrid|serve-kv> --seed <n> \
--seconds <s> --trace <0|1> [--git-rev <rev>] [--out <file>]\n       ledger compare <a> <b>\n       \
ledger peak-rss <workload> <seed> <full|tiny>";

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    git_rev: String,
    out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workload: String::new(),
        seed: 34,
        seconds: 10.0,
        trace: false,
        git_rev: "unknown".into(),
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val:?}: {e}");
        match flag.as_str() {
            "--workload" => r.workload = val.clone(),
            "--seed" => r.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                r.seconds = val.parse().map_err(|e| bad(&e))?;
                if !(r.seconds >= 0.0 && r.seconds <= 3600.0) {
                    return Err(bad(&"must be within 0..=3600"));
                }
            }
            "--trace" => {
                r.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--git-rev" => r.git_rev = val.clone(),
            "--out" => r.out = Some(val.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if r.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(r)
}

fn run(args: RunArgs) -> Result<bool, String> {
    pin_backends();
    let env = RunEnv::detect(&args.git_rev);
    let work = Work::new(&args.workload, args.seed, Scale::Full)?;
    let mut saved = vec![
        format!("env {}", env.line()),
        format!(
            "run workload={} seed={} trace={}",
            args.workload,
            args.seed,
            u8::from(args.trace)
        ),
    ];
    println!("{}", saved[0]);
    println!(
        "workload {} seed {}: {}",
        args.workload,
        args.seed,
        work.describe()
    );
    let report = if args.trace {
        traced(&work, args.seconds)
    } else {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        end_to_end(&work, args.seconds, || {
            peak_rss_of_one_run(&exe, &args.workload, args.seed, Scale::Full)
        })
    };
    for n in &report.notes {
        println!("{n}");
    }
    saved.extend(
        report
            .metrics
            .iter()
            .map(|(name, v)| format!("{name} = {v} {}", report.unit(name))),
    );
    for line in &saved[2..] {
        println!("{line}");
    }
    println!(
        "fail_ratio = {} ({} failed of {} attempted)",
        report.checked.failed as f64 / report.checked.attempted.max(1) as f64,
        report.checked.failed,
        report.checked.attempted
    );
    for p in &report.checked.problems {
        println!("CHECK FAILED: {p}");
    }
    if let Some(path) = &args.out {
        saved.push(String::new());
        std::fs::write(path, saved.join("\n")).map_err(|e| format!("write {path}: {e}"))?;
    }
    println!("{}", report.result_line());
    Ok(report.correct())
}

/// A result set saved with `--out`: the `key=value` words of its `env` and
/// `run` lines, and its `name = value unit` metric lines in order.
#[derive(Default)]
struct Saved {
    facts: BTreeMap<String, String>,
    metrics: Vec<(String, f64)>,
}

fn load(path: &str) -> Result<Saved, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut s = Saved::default();
    for line in text.lines() {
        let bad = || format!("{path}: unrecognised line {line:?}");
        match line.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["env" | "run", pairs @ ..] => {
                for pair in pairs {
                    let (k, v) = pair.split_once('=').ok_or_else(bad)?;
                    s.facts.insert(k.into(), v.into());
                }
            }
            [name, "=", value, _unit] => {
                s.metrics
                    .push((name.to_string(), value.parse().map_err(|_| bad())?));
            }
            _ => return Err(bad()),
        }
    }
    Ok(s)
}

/// Compare two saved result sets metric by metric; refuses unless both
/// come from hosts with the same CPU count and measure the same thing.
fn compare(a_path: &str, b_path: &str) -> Result<(), String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    for key in ["host_cpus", "workload", "trace"] {
        let (x, y) = (a.facts.get(key), b.facts.get(key));
        if x.is_none() || x != y {
            return Err(format!(
                "refusing to compare: {key} {x:?} in {a_path} vs {y:?} in {b_path}"
            ));
        }
    }
    let theirs: BTreeMap<&str, f64> = b.metrics.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    println!("{:<28} {:>16} {:>16} {:>10}", "metric", "a", "b", "b/a");
    for (name, x) in &a.metrics {
        let Some(&y) = theirs.get(name.as_str()) else {
            continue;
        };
        let r = if *x == 0.0 {
            String::from("-")
        } else {
            format!("{:.4}", y / x)
        };
        println!("{name:<28} {x:>16.6} {y:>16.6} {r:>10}");
    }
    Ok(())
}

/// One run in a fresh process, for [`peak_rss_of_one_run`].
fn peak_rss(workload: &str, seed: &str, scale: &str) -> Result<(), String> {
    pin_backends();
    let seed = seed.parse().map_err(|e| format!("seed {seed:?}: {e}"))?;
    let scale = Scale::parse(scale).ok_or_else(|| format!("unknown scale {scale:?}"))?;
    let out = Work::new(workload, seed, scale)?.run();
    let mb = peak_rss_mb().ok_or("/proc/self/status has no VmHWM")?;
    drop(out);
    println!("{mb}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(run),
        Some("compare") if args.len() == 3 => compare(&args[1], &args[2]).map(|()| true),
        Some("peak-rss") if args.len() == 4 => {
            peak_rss(&args[1], &args[2], &args[3]).map(|()| true)
        }
        _ => Err(USAGE.into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}
