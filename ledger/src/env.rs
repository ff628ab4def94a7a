//! The run environment: pinned simulator backends and the host facts every
//! result records, so only like is compared with like.

use std::path::Path;
use std::process::{Command, Stdio};

use hupc::sim::{
    actor_backend_default, set_actor_backend_default, set_sim_backend_default, sim_backend_default,
    ActorBackend, SimBackend,
};

use crate::workloads::Scale;

/// Facts about the host and build that a result is only comparable under.
#[derive(Clone, Debug, PartialEq)]
pub struct RunEnv {
    /// `std::thread::available_parallelism` of the measuring host.
    pub host_cpus: usize,
    /// `release` or `debug` (whether debug assertions are compiled in).
    pub profile: &'static str,
    /// The manifest enables `hupc/trace`; recorded so a result set says so.
    pub trace_feature: bool,
    pub git_rev: String,
    /// The backends new simulations get, read back after pinning.
    pub sim_backend: String,
    pub actor_backend: String,
}

/// Pin the sequential dispatch engine and the coroutine actor backend for
/// every simulation this process creates, whatever `HUPC_SIM_BACKEND` or
/// `HUPC_ACTOR_BACKEND` say: all load comes from this one host thread.
pub fn pin_backends() {
    set_sim_backend_default(Some(SimBackend::Sequential));
    set_actor_backend_default(Some(ActorBackend::Coroutine));
}

impl RunEnv {
    pub fn detect(git_rev: &str) -> RunEnv {
        RunEnv {
            host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            trace_feature: true,
            git_rev: git_rev.to_string(),
            sim_backend: format!("{:?}", sim_backend_default()),
            actor_backend: format!("{:?}", actor_backend_default()),
        }
    }

    /// The facts as `key=value` words, the form every result records them
    /// in and `ledger compare` reads them back from.
    pub fn line(&self) -> String {
        format!(
            "host_cpus={} profile={} trace_feature={} git_rev={} sim_backend={} actor_backend={}",
            self.host_cpus,
            self.profile,
            self.trace_feature,
            self.git_rev.replace(char::is_whitespace, "_"),
            self.sim_backend,
            self.actor_backend
        )
    }
}

/// The process's resident-set high-water mark in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set, MiB, of a fresh `<exe> peak-rss` process that makes
/// the inputs of `workload` at `seed` and `scale` and runs it once. Its own
/// process, so the figure is the workload's and not the allocator history
/// of the timed runs; the timed runs keep the allocator's defaults.
pub fn peak_rss_of_one_run(
    exe: &Path,
    workload: &str,
    seed: u64,
    scale: Scale,
) -> Result<f64, String> {
    let out = Command::new(exe)
        .args(["peak-rss", workload, &seed.to_string(), scale.name()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("peak-rss probe {}: {e}", exe.display()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("peak-rss probe exited with {}", out.status));
    }
    text.trim()
        .parse()
        .map_err(|e| format!("peak-rss probe printed {text:?}: {e}"))
}
