//! `enld-serve` — the multi-worker detection scheduler.
//!
//! The paper motivates ENLD with platforms that "receive a large number
//! of continuous noisy label detection tasks" (§I) and measures *process
//! time* as the waiting time for results (§V-A3). A single FIFO worker
//! makes that waiting time hostage to the slowest tenant: one
//! Topofilter-sized request stalls everyone behind it. This crate is the
//! serving substrate that fixes the deployment shape:
//!
//! * [`pool::WorkerPool`] — N detector-owning worker threads fed from a
//!   shared dispatch queue, with per-worker utilisation/service-time
//!   telemetry and a graceful shutdown that drains in-flight work;
//! * [`policy`] — pluggable scheduling policies (FIFO, shortest-job-first
//!   via an online service-time estimator, priority classes, earliest
//!   deadline first), selected at construction;
//! * [`estimator::ServiceTimeEstimator`] — per-class EWMA service-time
//!   model learned from completed requests, powering SJF and the
//!   admission controller's `retry_after` hints;
//! * [`admission`] — bounded backlog with explicit
//!   [`Rejected`](admission::SubmitError::Rejected) responses, deadline
//!   expiry, and a client-side retry-with-backoff helper.
//!
//! The scheduler is generic over the job payload, so it carries no
//! data-plane dependencies: the CLI instantiates it with
//! `enld_lake::DetectionRequest` payloads and per-worker clones of a
//! warmed-up ENLD detector, and `enld_lake::queueing` validates the pool
//! shape against an M/G/c simulation.
//!
//! # Example
//!
//! ```
//! use enld_serve::{JobSpec, PolicyKind, PoolConfig, WorkerPool};
//!
//! let config = PoolConfig { workers: 2, policy: PolicyKind::Sjf, ..PoolConfig::default() };
//! let pool = WorkerPool::spawn(config, |_worker| |x: &u64| x * 2);
//! for i in 0..4 {
//!     pool.submit(JobSpec::new(i, i).with_cost(1.0)).expect("admitted");
//! }
//! let outcomes = pool.shutdown().expect("no worker panics");
//! assert_eq!(outcomes.len(), 4);
//! ```

#![forbid(unsafe_code)]

pub mod admission;
pub mod estimator;
pub mod job;
pub mod policy;
pub mod pool;

pub use admission::{submit_with_retry, Rejected, RetryBackoff, SubmitError};
pub use estimator::ServiceTimeEstimator;
pub use job::JobSpec;
pub use policy::{PolicyKind, ReadyQueue};
pub use pool::{
    Completion, ExpiredJob, FailedJob, JobOutcome, PoolConfig, PoolPanic, PoolStats, WorkerPool,
};
