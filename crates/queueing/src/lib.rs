//! # elasticutor-queueing
//!
//! The queueing-theoretic performance model behind Elasticutor's dynamic
//! scheduler (paper §4.1).
//!
//! The topology of `m` elastic executors is modeled as a **Jackson
//! network** in which executor `j` with `k_j` allocated cores is an
//! M/M/k_j queue. The expected end-to-end processing latency of the input
//! stream is
//!
//! ```text
//! E[T](k) = (1/λ0) · Σ_j λ_j · E[T_j](k_j)
//! ```
//!
//! where `λ0` is the external arrival rate, `λ_j` the arrival rate into
//! executor `j`, and `E[T_j](k_j)` the M/M/k sojourn time with per-core
//! service rate `μ_j`.
//!
//! Modules:
//! * [`mmk`] — numerically stable Erlang-C and M/M/k waiting/sojourn
//!   times, and the stability floors of a pooled station and of `k`
//!   key-partitioned tasks.
//! * [`jackson`] — the network model: per-executor measurements, rate
//!   propagation through a topology, and `E[T](k)` evaluation.
//! * [`mod@allocate`] — the greedy core-allocation algorithm (minimize Σk_j
//!   subject to `E[T] ≤ T_max`), shown optimal in the DRS work the paper
//!   builds on.

#![warn(missing_docs)]

pub mod allocate;
pub mod jackson;
pub mod mmk;

pub use allocate::{allocate, AllocationOutcome, AllocationRequest};
pub use jackson::{propagate_rates, ExecutorLoad, JacksonNetwork};
pub use mmk::{
    erlang_c, expected_sojourn, expected_wait, min_partitioned_servers, min_stable_servers,
    utilization,
};
