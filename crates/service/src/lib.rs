//! # sfs-service — a sharded, batched fail-stop service layer
//!
//! Everything below this crate runs **one** sFS group: the paper's §5
//! one-round protocol is all-to-all, so message cost is Θ(n²) per
//! detection round and a flat deployment stops scaling around n ≈ 10.
//! This crate scales the *system* instead of the *group*: it partitions
//! a large deployment into many small quorum groups — each locally
//! satisfying Corollary 8's `n > t²` — and composes them behind a
//! replicated directory, exactly the way §1 (leader election) and §6
//! (group membership) describe services being built *on top of* the
//! fail-stop abstraction.
//!
//! The pieces:
//!
//! * [`plan`] — the shard planner: a deterministic, seeded partition of
//!   `N` processes into feasible quorum groups, with infeasible requests
//!   surfaced as typed errors through the same `sfs::quorum` arithmetic
//!   the protocol uses.
//! * [`directory`] — the cross-shard directory: a small membership map
//!   replicated by an sFS group of its own. Replicas merge per-shard
//!   health reports and deterministically rebalance the key space away
//!   from shards whose failure budget is exhausted; because the detector
//!   provides fail-stop semantics, the survivors agree without running
//!   any agreement protocol.
//! * [`load`] — the load generator: open- and closed-loop client-op
//!   drivers (work-pool-style assign/execute/complete with failover),
//!   deterministic on the simulator, wall-clock on the threaded runtime.
//! * [`service`] — the engine: epochs of routed load over every shard
//!   (one rayon task each), health summarization, directory rebalancing,
//!   and a [`ServiceReport`] with throughput and detection-latency
//!   figures. Experiment E11 (`BENCH_E11.json`) is this engine swept
//!   over N ∈ {64, 256, 1024} on both backends.

#![warn(missing_docs)]

pub mod directory;
pub mod load;
pub mod plan;
pub mod service;

pub use directory::{
    DirMsg, Directory, DirectoryApp, DirectoryError, DirectorySpec, RoutingTable, ShardReport,
    NOTE_DIR_TABLE,
};
pub use load::{
    analyze_load, LoadGenApp, LoadMode, LoadMsg, LoadOutcome, LoadProfile, NOTE_LOAD_COMPLETE,
    NOTE_OP_DONE, NOTE_OP_EXEC, NOTE_OP_ISSUED, SPAN_LOAD,
};
pub use plan::{plan_shards, PlanError, ShardId, ShardPlan, ShardSpec};
pub use service::{
    nearest_rank, percentile, run_service, Backend, EpochOutcome, ServiceError, ServiceReport,
    ServiceSpec, ShardOutcome,
};
