//! # sfs — the simulated fail-stop protocol
//!
//! A production-quality implementation of the primary contribution of
//! Sabel & Marzullo, *Simulating Fail-Stop in Asynchronous Distributed
//! Systems* (Cornell TR 94-1413, 1994): a failure model that is
//! *internally indistinguishable* from fail-stop, and the one-round
//! quorum protocol (§5) that implements it with the minimum replication
//! the paper proves necessary (§4).
//!
//! ## What the protocol guarantees
//!
//! Running your [`Application`] inside an [`SfsProcess`] gives you:
//!
//! * **FS1** — crashes are eventually detected by every survivor
//!   (heartbeats + obituary propagation);
//! * **sFS2a** — anything detected as failed really does crash, even if
//!   the detection was wrong (the victim is killed by its own obituary);
//! * **sFS2b** — the failed-before order is acyclic (quorum intersection,
//!   Theorems 6–7);
//! * **sFS2c** — no process detects its own failure;
//! * **sFS2d** — failure knowledge travels ahead of application messages
//!   (FIFO obituaries + receive gating).
//!
//! By Theorem 5 these make every run indistinguishable, to every process,
//! from a run of a true fail-stop system — so the application may be
//! written against the fail-stop abstraction even though that abstraction
//! is unimplementable in an asynchronous system (Theorem 1 / FLP).
//!
//! ## Crate map
//!
//! * [`quorum`] — the replication arithmetic (`min_quorum`, the `n > t²`
//!   frontier);
//! * [`SfsConfig`] / [`DetectionMode`] — configuration and the paper's
//!   comparator detectors (unilateral, §6 cheap-broadcast, oracle);
//! * [`SfsProcess`] — the protocol automaton;
//! * [`Application`] / [`AppApi`] — the fail-stop programming interface;
//! * [`ClusterSpec`] — one-call simulated clusters for tests and
//!   experiments.
//!
//! # Examples
//!
//! An erroneous suspicion is "made true" by the protocol:
//!
//! ```
//! use sfs::ClusterSpec;
//! use sfs_asys::ProcessId;
//! use sfs_history::History;
//! use sfs_tlogic::properties;
//!
//! // 5 processes tolerating 2 failures; p1 spuriously suspects p0.
//! let trace = ClusterSpec::new(5, 2)
//!     .suspect(ProcessId::new(1), ProcessId::new(0), 10)
//!     .try_run()
//!     .expect("5 > 2²: a feasible shape");
//! // The victim crashed (sFS2a) and every sFS property holds:
//! assert_eq!(trace.crashed(), vec![ProcessId::new(0)]);
//! let history = History::from_trace(&trace);
//! for report in properties::check_sfs_suite(&history, true) {
//!     assert!(report.is_ok(), "{report}");
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod app;
mod config;
mod harness;
mod msg;
mod protocol;
pub mod quorum;
pub mod udp;

pub use app::{AppApi, Application, NullApp};
pub use config::{DetectionMode, HeartbeatConfig, SfsConfig};
pub use harness::{ClusterSpec, ModeSpec, NetSpec, SpecError};
pub use udp::{udp_node_binary, udp_node_main, UdpError, UdpNodeSpec};
// Re-exported so harness users can parameterize a `NetSpec` without
// depending on `sfs-transport` directly.
pub use msg::{Control, SfsMsg};
pub use protocol::SfsProcess;
pub use quorum::{QuorumError, QuorumPolicy};
pub use sfs_transport::{
    AdaptiveConfig, ArqConfig, ProbeConfig, TransportError, TransportMsg, NOTE_PROBE_SUSPECT,
    NOTE_RETX,
};
