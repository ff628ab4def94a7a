//! The workload contract: environment in, verified result out.

use std::fmt;

use hupc_gasnet::FaultPlan;
use hupc_net::Conduit;
use hupc_topo::MachineSpec;
use hupc_upc::UpcConfig;

use crate::params::{ParamError, Params};

/// Everything outside the workload's own knobs: the simulated platform, the
/// SPMD layout, and an optional fault plan. Workloads
/// build their own [`hupc_upc::UpcJob`] from this (segment sizing is
/// app-specific), normally through [`RunEnv::upc_config`].
#[derive(Clone, Debug)]
pub struct RunEnv {
    pub machine: MachineSpec,
    pub threads: usize,
    pub nodes_used: usize,
    pub conduit: Conduit,
    pub fault: Option<FaultPlan>,
}

impl RunEnv {
    /// A small test platform: `nodes` small-test nodes, QDR InfiniBand, no
    /// faults.
    pub fn small(threads: usize, nodes: usize) -> RunEnv {
        RunEnv {
            machine: MachineSpec::small_test(nodes.max(1)),
            threads,
            nodes_used: nodes,
            conduit: Conduit::ib_qdr(),
            fault: None,
        }
    }

    pub fn with_fault(mut self, f: FaultPlan) -> RunEnv {
        self.fault = Some(f);
        self
    }

    /// The standard launch configuration for this environment (see
    /// [`UpcConfig::standard`]).
    pub fn upc_config(&self, segment_words: usize) -> UpcConfig {
        UpcConfig::standard(
            self.machine.clone(),
            self.threads,
            self.nodes_used,
            self.conduit.clone(),
            segment_words,
            self.fault.clone(),
        )
    }
}

/// The outcome of one workload run: the verification verdict, a flat list
/// of summary metrics, the end-of-run virtual time, and (when tracing is
/// compiled in and the runner installed a tracer) the `MetricsRegistry`
/// snapshot as deterministic JSON.
#[derive(Clone, Debug, Default)]
pub struct Verified {
    /// Did the workload's own oracle pass?
    pub passed: bool,
    /// Human-readable oracle detail (what was checked, with numbers).
    pub oracle: String,
    /// Flat `(name, value)` summary metrics, in workload-chosen order.
    pub metrics: Vec<(String, f64)>,
    /// Virtual seconds at the end of the timed section.
    pub end_seconds: f64,
    /// `MetricsRegistry` snapshot JSON (filled by the runner; `None` from a
    /// direct [`Workload::run`]).
    pub metrics_json: Option<String>,
}

impl Verified {
    /// Look up a summary metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// A workload failure: bad configuration or a run-time error.
#[derive(Clone, Debug)]
pub enum AppError {
    Param(ParamError),
    /// Unknown workload name (registry lookup failed).
    NoSuchWorkload(String),
    /// The environment cannot host this workload (e.g. thread-count shape).
    Unsupported(String),
    Run(String),
}

impl fmt::Display for AppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppError::Param(e) => write!(f, "{e}"),
            AppError::NoSuchWorkload(n) => write!(f, "no such workload: {n}"),
            AppError::Unsupported(s) => write!(f, "unsupported configuration: {s}"),
            AppError::Run(s) => write!(f, "workload failed: {s}"),
        }
    }
}

impl std::error::Error for AppError {}

impl From<ParamError> for AppError {
    fn from(e: ParamError) -> AppError {
        AppError::Param(e)
    }
}

/// One pluggable application. Implementations own their kernel and their
/// oracle; the SDK owns everything around them (registry lookup, tracing,
/// report emission).
///
/// The contract:
/// - `run` must be deterministic: same `(env, params)` ⇒ same [`Verified`]
///   (bit-identical floats).
/// - `run` must consume its params through a [`crate::ParamReader`] and call
///   `finish()`, so unknown keys are rejected.
/// - verification runs inside `run` (untimed where the app distinguishes),
///   and `passed` reflects it; the runner never re-derives oracles.
pub trait Workload: Send + Sync {
    /// Registry key, stable across releases (lowercase, no spaces).
    fn name(&self) -> &'static str;

    /// One-line description for `--list`.
    fn description(&self) -> &'static str;

    /// `(key, default, help)` for every accepted param, for docs/usage.
    fn param_spec(&self) -> Vec<(&'static str, String, &'static str)>;

    /// The environment this workload runs in when the caller has no
    /// opinion (sweeps, smoke tests). Shape constraints live here: e.g.
    /// STREAM wants one node and an even thread count.
    fn default_env(&self) -> RunEnv {
        RunEnv::small(4, 2)
    }

    /// Execute and verify.
    fn run(&self, env: &RunEnv, params: &Params) -> Result<Verified, AppError>;
}
