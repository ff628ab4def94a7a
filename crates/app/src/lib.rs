//! `hupc-app` — the workload plugin SDK.
//!
//! The thesis' claim is that hierarchical-parallelism machinery pays off
//! *across applications*; this crate makes "across applications" cheap. A
//! workload is anything implementing [`Workload`]: environment
//! ([`RunEnv`]: machine + layout + conduit + fault plan)
//! and typed `key=value` config ([`Params`]) in, a [`Verified`] result
//! (pass/fail oracle, summary metrics, end virtual time, metrics snapshot)
//! out. The [`Registry`] names every app; [`runner::run_workload`] owns
//! tracing and report shaping, so an app is only its kernel plus its
//! oracle.
//!
//! Built-ins: the four migrated thesis apps (`uts`, `ft`, `gups`,
//! `stream` — kernels stay in their own crates, adapters live in
//! [`adapters`]) and the breadth wave (`md` halo-exchange molecular
//! dynamics, `cg` NAS conjugate gradient, `stencil2d` Jacobi heat).
//!
//! # Adding a workload (~50 lines)
//!
//! ```
//! use hupc_app::{AppError, Params, RunEnv, Verified, Workload};
//!
//! struct Pi;
//!
//! impl Workload for Pi {
//!     fn name(&self) -> &'static str { "pi" }
//!     fn description(&self) -> &'static str { "leibniz pi, allreduced" }
//!     fn param_spec(&self) -> Vec<(&'static str, String, &'static str)> {
//!         vec![("terms", "1000".into(), "series terms")]
//!     }
//!     fn run(&self, env: &RunEnv, p: &Params) -> Result<Verified, AppError> {
//!         let mut r = p.reader();
//!         let terms = r.usize_or("terms", 1000)?;
//!         r.finish()?;
//!         let job = hupc_upc::UpcJob::new(env.upc_config(1 << 10));
//!         let out = std::sync::Arc::new(hupc_sim::SimCell::new((0.0, 0.0)));
//!         let out2 = std::sync::Arc::clone(&out);
//!         job.run(move |upc| {
//!             let (me, p) = (upc.mythread(), upc.threads());
//!             let mine: f64 = (me..terms).step_by(p)
//!                 .map(|k| if k % 2 == 0 { 1.0 } else { -1.0 } / (2 * k + 1) as f64)
//!                 .sum();
//!             let pi = 4.0 * upc.allreduce_sum_f64(mine);
//!             if me == 0 {
//!                 out2.with_mut(|o| *o = (pi, hupc_sim::time::as_secs_f64(upc.now())));
//!             }
//!         });
//!         let (pi, secs) = out.with(|o| *o);
//!         Ok(Verified {
//!             passed: (pi - std::f64::consts::PI).abs() < 1e-2,
//!             oracle: format!("pi ≈ {pi}"),
//!             metrics: vec![("pi".into(), pi)],
//!             end_seconds: secs,
//!             metrics_json: None,
//!         })
//!     }
//! }
//!
//! let v = hupc_app::run_workload(&Pi, &RunEnv::small(4, 2), &Params::empty()).unwrap();
//! assert!(v.passed);
//! ```

pub mod adapters;
pub mod cg;
pub mod md;
pub mod params;
pub mod registry;
pub mod runner;
pub mod stencil2d;
pub mod workload;

pub use params::{ParamError, ParamReader, Params};
pub use registry::{register_builtin, Registry};
pub use runner::{run_by_name, run_workload, RunReport};
pub use workload::{AppError, RunEnv, Verified, Workload};
