//! # hupc-serve — a sharded PGAS key-value service under open-loop load
//!
//! The serving-scenario layer of the stack: where UTS/FT/GUPS answer "how
//! fast does a fixed computation finish", this crate answers the
//! million-user question — "what latency does the p99.9 request see when
//! demand arrives on its own clock". It composes the existing layers
//! rather than adding new ones:
//!
//! - keys shard to owner threads through the machine topology
//!   (node→socket→core) — [`shard::ShardMap`];
//! - GET/PUT/BATCH flow through gasnet one-sided ops; epoch snapshots fan
//!   in through the hierarchical collectives — [`service`];
//! - demand comes from a seeded, deterministic open-loop generator
//!   (Poisson and bursty ON/OFF) — [`traffic`];
//! - latency percentiles come from the `hupc-trace` pow2-bucket
//!   histograms; faults (loss, jitter, stragglers, degraded NICs) from
//!   `hupc-fault` turn into tail-latency experiments.
//!
//! Two invariant families are exported for the test wave: byte-level
//! schedule determinism ([`traffic::encode_schedule`]) and the
//! linearizability-lite oracle ([`service::verify_linearizable_lite`]).

pub mod service;
pub mod shard;
pub mod traffic;

pub use service::{
    run_serve, run_serve_prepared, verify_linearizable_lite, Outcome, ReqRecord, ServeConfig,
    ServeResult,
};
pub use shard::ShardMap;
pub use traffic::{
    encode_schedule, ArrivalProcess, KeyDist, OpKind, OpMix, Request, TrafficConfig,
};
