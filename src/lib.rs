//! # failstop — simulating fail-stop in asynchronous distributed systems
//!
//! A full reproduction of Laura Sabel and Keith Marzullo, *Simulating
//! Fail-Stop in Asynchronous Distributed Systems* (Cornell TR 94-1413,
//! PODC 1994 line of work), as a Rust workspace:
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`asys`] | asynchronous-system substrate: deterministic simulator, FIFO channels, latency adversaries, threaded runtime |
//! | [`history`] | formal event histories, happens-before, failed-before, the Theorem 5 rearrangement engine |
//! | [`tlogic`] | temporal-logic checker and the FS / sFS property suite |
//! | [`explore`] | schedule-space exploration: bounded-exhaustive DFS with partial-order pruning, random-walk fallback, replayable witnesses |
//! | [`core`] (as [`sfs`]) | the one-round simulated-fail-stop protocol, quorum bounds, comparator detectors |
//! | [`apps`] | leader election, last-to-fail recovery, membership, the Appendix A.3 adversary, exploration scenarios |
//! | [`service`] | scale-out layer: shard planner, replicated cross-shard directory, load generation, the E11 engine |
//!
//! This facade re-exports each crate under a short name; depend on it for
//! everything, or on the individual crates for narrower builds.
//!
//! # Examples
//!
//! ```
//! use failstop::prelude::*;
//!
//! // Five processes, tolerating two failures; one erroneous suspicion.
//! // (Seed 29 schedules the quorum's detections before the victim's
//! // obituary lands, so the raw run visibly violates FS2.)
//! let trace = ClusterSpec::new(5, 2)
//!     .seed(29)
//!     .suspect(ProcessId::new(1), ProcessId::new(0), 10)
//!     .try_run()
//!     .expect("5 > 2²: a feasible shape");
//!
//! // The run is NOT fail-stop (the detection preceded the crash)...
//! let run = History::from_trace(&trace);
//! assert!(!run.is_fs_ordered());
//!
//! // ...but it is indistinguishable from a fail-stop run (Theorem 5):
//! let fs_run = rearrange_to_fs(&run).unwrap().history;
//! assert!(fs_run.is_fs_ordered());
//! assert!(fs_run.isomorphic(&run));
//! ```

#![warn(missing_docs)]

pub use sfs_apps as apps;
pub use sfs_asys as asys;
pub use sfs_explore as explore;
pub use sfs_history as history;
pub use sfs_service as service;
pub use sfs_tlogic as tlogic;

/// The protocol crate, re-exported under its package name.
pub use sfs;

/// One-line import for the common API surface.
pub mod prelude {
    pub use sfs::{
        AppApi, Application, ClusterSpec, DetectionMode, HeartbeatConfig, ModeSpec, NullApp,
        QuorumPolicy, SfsConfig, SfsMsg, SfsProcess,
    };
    pub use sfs_asys::{
        FaultPlan, LatencyModel, Note, Process, ProcessId, Sim, StopReason, Trace, UniformLatency,
        VirtualTime,
    };
    pub use sfs_explore::{explore, random_walks, ExploreConfig, Pruning, WalkConfig};
    pub use sfs_history::{
        rearrange_by_swaps, rearrange_to_fs, Event, FailedBefore, HappensBefore, History,
    };
    pub use sfs_service::{
        plan_shards, run_service, Backend, LoadProfile, ServiceReport, ServiceSpec,
    };
    pub use sfs_tlogic::{properties, Formula, PropertyReport, Verdict};
}
