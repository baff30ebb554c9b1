//! # elasticutor-scheduler
//!
//! The model-based dynamic scheduler of Elasticutor (paper §4).
//!
//! Once the queueing model ([`elasticutor_queueing`]) decides *how many*
//! cores each elastic executor needs, the scheduler decides *which
//! physical cores*: it transitions the cluster-wide CPU-to-executor
//! assignment `X` (a node × executor matrix) to satisfy the new allocation
//! `k` while
//!
//! * minimizing the **state-migration cost** of the transition
//!   (`C(X | X̃)`, proportional to state bytes crossing the network), and
//! * constraining **computation locality**: executors whose per-core data
//!   rate exceeds a threshold `φ` only accept cores on their local node,
//!   bounding future remote-data-transfer cost.
//!
//! The underlying optimization is NP-hard (reduction from multiprocessor
//! scheduling), so the paper's Algorithm 1 greedily reassigns one core at
//! a time; on infeasibility the caller doubles `φ` and retries — both
//! implemented here.
//!
//! Modules:
//! * [`assignment`] — the `X` matrix with capacity accounting and diffs.
//! * [`cost`] — the migration-cost model: `C(X|X̃)`, `C⁺_ij`, `C⁻_ij`.
//! * [`algorithm`] — Algorithm 1 (greedy dynamic allocation).
//! * [`scheduler`] — the full control loop: measurements → queueing model
//!   → allocation → assignment (with φ doubling), plus the *naive-EC*
//!   policy used as an ablation baseline in the paper's §5.4.

#![warn(missing_docs)]

pub mod algorithm;
pub mod assignment;
pub mod cost;
pub mod scheduler;

/// The queueing model the scheduler sizes executors with, for callers
/// that apply its stability floors themselves.
pub use elasticutor_queueing as queueing;

pub use algorithm::{assign_cores, AssignError, AssignmentPlan};
pub use assignment::{Assignment, ClusterSpec, CoreDelta};
pub use cost::{allocation_cost, deallocation_cost, transition_cost};
pub use scheduler::{DynamicScheduler, ExecutorMeasurement, SchedulerDecision, SchedulerPolicy};
