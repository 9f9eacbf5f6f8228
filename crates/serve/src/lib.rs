//! `tvp-serve`: a fault-tolerant placement daemon.
//!
//! The daemon wraps the [`tvp_core`] placer in a long-running job
//! service with the robustness features a shared queue needs:
//!
//! - **HTTP/1.1 + JSON API** over [`std::net`] (no external deps):
//!   submit a design, poll status, fetch the placement, cancel, plus
//!   `/healthz` and `/metrics`.
//! - **Admission control**: a bounded queue; a full queue answers `429`
//!   with `Retry-After` instead of growing without bound.
//! - **Deadlines**: per-job `deadline_seconds` maps onto the engine's
//!   time budget, so an overrunning job returns its legal best-so-far
//!   placement instead of being killed.
//! - **Retry with backoff**: retryable typed errors
//!   ([`tvp_core::PlaceError::is_retryable`]) re-enqueue with jittered
//!   exponential backoff up to a capped attempt count; exhaustion parks
//!   the job in a terminal `dead-letter` state with the error preserved.
//! - **Crash recovery**: every state transition rewrites the job record
//!   atomically, and stage checkpoints live under the daemon's state
//!   directory. A restarted daemon re-adopts in-flight jobs and resumes
//!   them bitwise-identically from the newest intact checkpoint.
//! - **Graceful shutdown**: stop admitting, drain within a budget, then
//!   checkpoint-and-park whatever is still running.
//! - **Fair pool sharing**: concurrent placements draw fair-share
//!   thread leases from one [`tvp_parallel::ThreadBudget`] instead of
//!   fighting over the global pool.
//!
//! The `tvp-served` binary and `tvp serve` both run the daemon through
//! [`host`], which parses the flags, handles SIGINT/SIGTERM and drains
//! on the way out. The integration tests drive [`Server`] directly.

pub mod host;
pub mod http;
pub mod job;
pub mod metrics;
pub mod server;

pub use server::{Server, ServerConfig};
/// The JSON codec, which lives in tvp-core beside its other users.
pub use tvp_core::json;
