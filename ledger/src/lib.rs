//! `hupc-ledger`: the repository's benchmark. It drives the UTS thread-group,
//! hybrid NAS FT and open-loop KV-serving workloads through the public
//! `hupc` API and reports each on two clocks: host time (how fast the
//! simulator produces a result) and virtual time (what the modelled UPC
//! runtime achieves). A separate traced run supplies per-layer counts and
//! the per-actor virtual-time split. See `README.md` beside this crate.

pub mod env;
pub mod json;
pub mod layers;
pub mod measure;
pub mod stats;
pub mod workloads;

/// End-to-end metrics `(name, unit)`, reported by untraced runs.
pub const END_TO_END: [(&str, &str); 4] = [
    ("host_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    // Virtual seconds are the model's deterministic output, not a host
    // measurement, so they carry their own unit.
    ("virtual_s", "s_virt"),
];

/// Per-layer metrics `(name, unit)`, reported by traced runs. Serving
/// latencies are virtual time, like `virtual_s`.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("sim.events", "count"),
    ("sim.wakes", "count"),
    ("sim.fast_path_ratio", "ratio"),
    ("sim.actors", "count"),
    ("sim.host_ns_per_event", "ns"),
    ("gasnet.puts", "count"),
    ("gasnet.gets", "count"),
    ("gasnet.bytes", "bytes"),
    ("gasnet.retries", "count"),
    ("gasnet.network_share", "ratio"),
    ("upc.locks", "count"),
    ("upc.lock_castable_ratio", "ratio"),
    ("coll.ops", "count"),
    ("coll.vt_share", "ratio"),
    ("vt.compute_share", "ratio"),
    ("vt.comm_share", "ratio"),
    ("vt.sync_share", "ratio"),
    ("vt.sync_share_max", "ratio"),
    ("app.compute_host_s", "s"),
    ("app.compute_share", "ratio"),
    ("uts.steal_attempts", "count"),
    ("uts.steal_success_ratio", "ratio"),
    ("uts.local_steal_ratio", "ratio"),
    ("ft.comm_share", "ratio"),
    ("ft.fft_share", "ratio"),
    ("serve.requests", "count"),
    ("serve.retries", "count"),
    ("serve.p50_us", "us_virt"),
    ("serve.p99_us", "us_virt"),
    ("serve.p999_us", "us_virt"),
    ("serve.get_p99_us", "us_virt"),
    ("serve.update_p99_us", "us_virt"),
    ("serve.achieved_krps", "krps"),
    ("serve.slo_krps", "krps"),
    ("trace.events", "count"),
    ("trace.dropped", "count"),
    ("trace.export_s", "s"),
    ("trace.overhead_pct", "%"),
    ("span.traced_run_s", "s"),
    ("span.oracle_s", "s"),
];
