//! `lopacityd` — a long-running anonymization service over the session
//! API.
//!
//! The daemon turns the workspace's one-shot pipeline (build APSP → greedy
//! anonymize → exit) into a resident service: jobs arrive over a vendored
//! minimal HTTP/1.1 layer ([`lopacity_util::http`]), run on a bounded
//! worker pool, stream progress through [`lopacity::ProgressObserver`],
//! and can be cancelled or budget-limited mid-run through the cooperative
//! [`lopacity::RunControl`] checkpoints inside the greedy driver — an
//! interrupted job's committed trajectory is always a *prefix* of the
//! uninterrupted run's (see `tests/run_control.rs` at the workspace root).
//!
//! The expensive part of every job is the APSP build. The daemon caches
//! prepared evaluators by `(graph hash, L, engine, store)` so repeat
//! queries — the paper's parameter-sweep workload re-asking the same graph
//! under different θ — skip straight to the greedy phase. Churn-mode jobs
//! hold a certified [`lopacity::ChurnSession`] and accept event batches,
//! each applied with one coalesced fork-sync.
//!
//! See `ARCHITECTURE.md` ("Service layer") for the full design.

pub mod config;
pub mod job;
pub mod journal;
pub mod server;
pub mod state;

pub use config::DaemonConfig;
pub use job::{GraphSource, JobMode, JobSpec};
pub use journal::{Journal, Record};
pub use server::Daemon;
pub use state::{ChurnError, Job, JobStatus, Phase, ServerState, SubmitError};
