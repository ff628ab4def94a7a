//! The two measuring modes. End-to-end runs never install a tracer; the
//! traced mode installs a full-level tracer around the same call and
//! derives the per-layer metrics from its events.

use std::sync::Arc;
use std::time::Instant;

use hupc::trace::{to_jsonl, TraceLevel, Tracer};
use hupc::uts::{sequential_traverse, TreeParams};

use crate::env::peak_rss_mb;
use crate::json::{num, quote};
use crate::layers::{ratio, Layers};
use crate::stats::median;
use crate::workloads::{
    serve_latency, Checked, Output, Work, SLO_LADDER_KRPS, SLO_P99_US, THESIS_TREE,
};
use crate::{END_TO_END, PER_LAYER};

/// Timed repetitions a measurement takes at least, however short `seconds`.
pub const MIN_REPS: usize = 3;

/// Empty-body job launches after each timed run.
pub const SETUP_PER_REP: usize = 8;

/// Per-actor ring capacity of the traced run: far above the largest actor's
/// event count here, so nothing is dropped.
pub const TRACE_RING_CAPACITY: usize = 1 << 26;

/// A served load point counts toward `serve.slo_krps` only if it completes
/// at least this share of the offered rate (no growing backlog).
pub const SLO_MIN_ACHIEVED: f64 = 0.95;

/// What one invocation measured.
#[derive(Debug)]
pub struct Report {
    pub traced: bool,
    pub checked: Checked,
    /// `(name, value)` in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.checked.failed == 0 && self.checked.problems.is_empty()
    }

    /// The catalogued unit of a metric this report carries.
    pub fn unit(&self, name: &str) -> &'static str {
        let catalogue: &[(&str, &str)] = if self.traced { &PER_LAYER } else { &END_TO_END };
        catalogue
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .expect("every reported metric is catalogued")
    }

    /// The final result line.
    pub fn result_line(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(name),
                    num(*v),
                    quote(self.unit(name))
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.checked.attempted.max(1),
            self.checked.failed,
            body.join(", ")
        )
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Run `work` untraced until `seconds` have passed (at least [`MIN_REPS`]
/// times), each run followed by `setup_per_rep` set-up launches so both
/// timings sample the same stretch of host time. Every run must reproduce
/// `reference` bit for bit; returns (run seconds, set-up seconds).
fn timed_reps(
    work: &Work,
    seconds: f64,
    setup_per_rep: usize,
    reference: &Output,
    checked: &mut Checked,
) -> (Vec<f64>, Vec<f64>) {
    let want = reference.fingerprint();
    let start = Instant::now();
    let (mut host, mut setup) = (Vec::new(), Vec::new());
    while host.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let (dt, out) = timed(|| work.run());
        host.push(dt);
        if out.fingerprint() != want {
            checked.failed += 1;
            checked.problems.push(format!(
                "timed run {}: virtual results differ from the first run",
                host.len()
            ));
        }
        drop(out);
        setup.extend((0..setup_per_rep).map(|_| timed(|| work.setup_once()).0));
    }
    (host, setup)
}

/// Scale the first run's verdict to `runs` bit-identical runs.
fn verdict(first: Checked, runs: usize) -> Checked {
    let n = runs as u64;
    Checked {
        attempted: first.attempted * n,
        failed: first.failed * n,
        problems: first.problems,
    }
}

fn serve_notes(out: &Output, notes: &mut Vec<String>) {
    if let Output::Serve(r) = out {
        let l = serve_latency(r);
        notes.push(format!(
            "serve latency (exact, from {} records): p50 {:.3} us, p99 {:.3} us, p999 {:.3} us; achieved {:.1} krps",
            r.generated, l.p50_us, l.p99_us, l.p999_us, l.achieved_krps
        ));
    }
}

/// End-to-end mode: set-up, host and virtual time, memory; no tracer.
/// `peak_rss` measures the memory of one run, in a process of its own.
pub fn end_to_end(
    work: &Work,
    seconds: f64,
    peak_rss: impl FnOnce() -> Result<f64, String>,
) -> Report {
    let mut checked = Checked::default();
    let mut notes = Vec::new();
    // The first run warms the allocator and stack pool and is the
    // reference every timed run must reproduce exactly.
    let first = work.run();
    let (host, setup) = timed_reps(work, seconds, SETUP_PER_REP, &first, &mut checked);
    let rss = peak_rss().unwrap_or_else(|e| {
        checked.problems.push(format!("peak RSS unavailable: {e}"));
        0.0
    });
    // The oracles run last, untimed: the first run's verdict holds for
    // every bit-identical timed run.
    let uts_ref = work.uts_reference();
    checked.merge(verdict(work.check(&first, uts_ref), 1 + host.len()));
    if let Some(c) = work.ft_oracle() {
        checked.merge(c);
    }
    serve_notes(&first, &mut notes);
    notes.push(format!(
        "host_s: median of {} runs, min {:.4} s, max {:.4} s; setup_s: median of {}",
        host.len(),
        host.iter().cloned().fold(f64::INFINITY, f64::min),
        host.iter().cloned().fold(0.0, f64::max),
        setup.len()
    ));
    Report {
        traced: false,
        metrics: vec![
            ("host_s", median(&host)),
            ("setup_s", median(&setup)),
            ("peak_rss_mb", rss),
            ("virtual_s", first.virtual_s()),
        ],
        checked,
        notes,
    }
}

/// One traced run: the run's host seconds, its output, the derived layers,
/// events recorded, events dropped and the export's host seconds.
struct Traced {
    host_s: f64,
    out: Output,
    layers: Layers,
    events: u64,
    dropped: u64,
    export_s: f64,
}

fn traced_run(work: &Work) -> Traced {
    let tracer = Arc::new(Tracer::with_capacity(TraceLevel::Full, TRACE_RING_CAPACITY));
    let guard = tracer.install();
    let (host_s, out) = timed(|| work.run());
    drop(guard);
    let events = tracer.events_recorded();
    let dropped = tracer.events_dropped();
    let (merge_s, merged) = timed(|| tracer.merge());
    drop(tracer);
    let (jsonl_s, bytes) = timed(|| to_jsonl(&merged).len());
    std::hint::black_box(bytes);
    let layers = Layers::from_events(&merged);
    Traced {
        host_s,
        out,
        layers,
        events,
        dropped,
        export_s: merge_s + jsonl_s,
    }
}

/// Traced mode: per-layer counts and shares, the virtual-time split, and
/// host timings of the ledger's own calls into each layer.
pub fn traced(work: &Work, seconds: f64) -> Report {
    let mut checked = Checked::default();
    let mut notes = Vec::new();

    // The workload's oracle, timed: for UTS the sequential traversal is
    // also the application-compute yardstick.
    let (oracle_s, uts_ref) = match work {
        Work::Uts(c) => {
            let (dt, counts) = timed(|| sequential_traverse(&c.tree));
            if c.tree == TreeParams::thesis_binomial() && counts != THESIS_TREE {
                checked.failed += 1;
                checked.problems.push(format!(
                    "sequential traversal {counts:?} != thesis tree {THESIS_TREE:?}"
                ));
            }
            (dt, Some(counts))
        }
        Work::Ft(_) => {
            let (dt, c) = timed(|| work.ft_oracle().expect("FT has an oracle"));
            checked.merge(c);
            (dt, None)
        }
        Work::Serve(_) => (0.0, None),
    };
    let compute_host_s = if matches!(work, Work::Uts(_)) {
        oracle_s
    } else {
        0.0
    };

    let first = work.run();
    let (check_s, first_checked) = timed(|| work.check(&first, uts_ref));
    let oracle_s = if matches!(work, Work::Serve(_)) {
        check_s
    } else {
        oracle_s
    };
    let (host, _) = timed_reps(work, seconds / 3.0, 0, &first, &mut checked);
    let host_s = median(&host);

    // Two traced runs: their counts must agree with each other, their
    // virtual results with the untraced runs, and neither may drop events.
    let a = traced_run(work);
    let b = traced_run(work);
    checked.merge(verdict(first_checked, 3 + host.len()));
    let mut fail = |problem: String| {
        checked.failed += 1;
        checked.problems.push(problem);
    };
    if b.layers != a.layers || b.events != a.events {
        fail("two traced runs gave different per-layer counts".into());
    }
    for t in [&a, &b] {
        if t.out.fingerprint() != first.fingerprint() {
            fail("traced run: virtual results differ from untraced".into());
        }
        if t.dropped != 0 {
            fail(format!("trace ring dropped {} events", t.dropped));
        }
    }
    let traced_s = median(&[a.host_s, b.host_s]);
    let l = &a.layers;
    let split = l.total_split();
    let vt_total = split.total();

    let mut m: Vec<(&'static str, f64)> = vec![
        ("sim.events", l.events() as f64),
        ("sim.wakes", l.wakes as f64),
        ("sim.fast_path_ratio", ratio(l.bypasses, l.events())),
        ("sim.actors", l.actors as f64),
        (
            "sim.host_ns_per_event",
            (host_s - compute_host_s).max(0.0) / l.events().max(1) as f64 * 1e9,
        ),
        ("gasnet.puts", l.puts as f64),
        ("gasnet.gets", l.gets as f64),
        ("gasnet.bytes", l.bytes as f64),
        ("gasnet.retries", l.retries as f64),
        ("gasnet.network_share", ratio(l.network_charges, l.charges)),
        ("upc.locks", l.locks as f64),
        ("upc.lock_castable_ratio", ratio(l.castable_locks, l.locks)),
        ("coll.ops", l.coll_ops as f64),
        ("coll.vt_share", ratio(l.coll_ns, vt_total)),
        ("vt.compute_share", ratio(split.compute, vt_total)),
        ("vt.comm_share", ratio(split.comm, vt_total)),
        ("vt.sync_share", ratio(split.sync, vt_total)),
        ("vt.sync_share_max", l.sync_share_max()),
        ("app.compute_host_s", compute_host_s),
        ("app.compute_share", compute_host_s / host_s),
    ];
    let (attempts, success, local) = match &first {
        Output::Uts(r) => (
            l.steal_attempts as f64,
            ratio(l.steal_successes, l.steal_attempts),
            r.local_steal_ratio(),
        ),
        _ => (0.0, 0.0, 0.0),
    };
    m.extend([
        ("uts.steal_attempts", attempts),
        ("uts.steal_success_ratio", success),
        ("uts.local_steal_ratio", local),
    ]);
    let (comm, fft) = match &first {
        Output::Ft(r) => (
            r.comm_seconds / r.total_seconds,
            (r.fft2d_seconds + r.fft1d_seconds) / r.total_seconds,
        ),
        _ => (0.0, 0.0),
    };
    m.extend([("ft.comm_share", comm), ("ft.fft_share", fft)]);
    match &first {
        Output::Serve(r) => {
            let lat = serve_latency(r);
            let slo = slo_krps(work, &mut checked, &mut notes);
            m.extend([
                ("serve.requests", r.generated as f64),
                ("serve.retries", r.retries as f64),
                ("serve.p50_us", lat.p50_us),
                ("serve.p99_us", lat.p99_us),
                ("serve.p999_us", lat.p999_us),
                ("serve.get_p99_us", lat.get_p99_us),
                ("serve.update_p99_us", lat.update_p99_us),
                ("serve.achieved_krps", lat.achieved_krps),
                ("serve.slo_krps", slo),
            ]);
        }
        _ => m.extend(
            PER_LAYER
                .iter()
                .filter(|(n, _)| n.starts_with("serve."))
                .map(|(n, _)| (*n, 0.0)),
        ),
    }
    m.extend([
        ("trace.events", a.events as f64),
        ("trace.dropped", a.dropped as f64),
        ("trace.export_s", a.export_s),
        ("trace.overhead_pct", (traced_s / host_s - 1.0) * 100.0),
        ("span.traced_run_s", traced_s),
        ("span.oracle_s", oracle_s),
    ]);
    notes.push(format!(
        "untraced host_s {host_s:.4} s (median of {}), traced {traced_s:.4} s (median of 2), this process's peak RSS {:.1} MB",
        host.len(),
        peak_rss_mb().unwrap_or(0.0)
    ));
    Report {
        traced: true,
        checked,
        metrics: m,
        notes,
    }
}

/// The highest rate on [`SLO_LADDER_KRPS`] whose exact p99 stays within
/// [`SLO_P99_US`] without a growing backlog (0 if none does).
fn slo_krps(work: &Work, checked: &mut Checked, notes: &mut Vec<String>) -> f64 {
    let mut best = 0.0;
    for &offered in &SLO_LADDER_KRPS {
        let point = work.serve_at(offered).expect("serving workload");
        let out = point.run();
        checked.merge(point.check(&out, None));
        let Output::Serve(r) = &out else {
            unreachable!("serving run")
        };
        let lat = serve_latency(r);
        let ok = lat.p99_us <= SLO_P99_US && lat.achieved_krps >= SLO_MIN_ACHIEVED * offered;
        notes.push(format!(
            "slo ladder: offered {offered:.0} krps -> achieved {:.1} krps, p99 {:.3} us{}",
            lat.achieved_krps,
            lat.p99_us,
            if ok { "" } else { " (misses)" }
        ));
        if ok {
            best = offered;
        }
    }
    best
}
