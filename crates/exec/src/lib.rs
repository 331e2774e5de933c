//! rip-exec: parallel, fault-tolerant experiment execution engine.
//!
//! - [`pool`]: a scoped-thread [`JobPool`](pool::JobPool) with a global job
//!   budget and *ordered* result collection, so parallel runs produce
//!   byte-identical output to serial runs.
//! - The artifact store (private `store` module): a build-once memory
//!   tier over an optional disk tier that classifies failed loads as
//!   [`CacheError`]s, quarantines corrupt files and writes atomically.
//!   Two thin views use it: [`cache`]'s [`CaseCache`] of built
//!   [`Case`]s, and [`trace_store`]'s capture-once [`TraceStore`] of
//!   recorded RIPT traces. [`artifact`] maps their files.
//! - [`runner`]: a [`ShardedRunner`](runner::ShardedRunner) fanning
//!   `(scene, config)` work units across the pool with per-unit timing and
//!   progress telemetry on stderr (stdout stays deterministic), plus a
//!   fault-isolated mode ([`try_run`](runner::ShardedRunner::try_run))
//!   with panic isolation, watchdog deadlines, and bounded retry.
//! - [`fault`]: the structured fault taxonomy
//!   ([`FaultKind`](fault::FaultKind)), the retry/backoff policy, the
//!   `RIP_UNIT_TIMEOUT` watchdog knob, and the `RIP_FAULT_INJECT` test
//!   hook.
//! - [`journal`]: a crash-safe checkpoint journal of completed units so a
//!   killed sweep resumes where it left off.
//!
//! Every diagnostic is a structured [`rip_obs`] event whose stderr text
//! prints verbatim, while the structured part feeds the event log, the
//! `exec.*` counters and the chrome://tracing export. Stores and runners
//! take a scoped [`Obs`](rip_obs::Obs) via `with_obs`; everything else
//! uses the process-wide instance. The stores read no environment:
//! callers pass their directories.

pub mod artifact;
pub mod cache;
pub mod case;
pub mod fault;
pub mod journal;
pub mod pool;
pub mod runner;
mod store;
pub mod trace_store;

pub use artifact::MappedArtifact;
pub use cache::CaseCache;
pub use case::{Case, CaseKey};
pub use fault::{
    apply_injections, unit_timeout_from_env, Fault, FaultKind, InjectionPlan, RetryPolicy,
};
pub use journal::{Journal, JournalEntry};
pub use pool::{available_parallelism, global_budget, set_global_budget, JobPool};
pub use runner::{ShardedRunner, UnitReport};
pub use store::{CacheError, CacheStats};
pub use trace_store::TraceStore;
