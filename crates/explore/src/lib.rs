//! # sfs-explore — schedule-space exploration for the fail-stop simulation
//!
//! The paper's central claims (Sabel & Marzullo 1994) quantify over *all*
//! runs: FS1 and sFS2a–d (Figure 1) must hold on every schedule, the
//! necessary Conditions 1–3 (Theorem 2) on every run of any
//! indistinguishable model, and the lower bounds (Theorems 6–7) assert
//! what *some* adversarial schedule can force. The seeded-random
//! simulator of `sfs-asys` samples that schedule space; this crate
//! searches it:
//!
//! * [`explore`] — bounded-exhaustive depth-first enumeration of every
//!   delivery order and crash placement, by stateless re-execution over
//!   the [`Strategy`](sfs_asys::Strategy) seam, with
//!   [sleep-set pruning](Pruning::SleepSets) (a DPOR-lite over the
//!   locus-disjointness independence relation) so only one
//!   representative per commutation-equivalence class is executed;
//! * [`class_fingerprint`] — canonical 64-bit class ids built from the
//!   per-process projections plus [`HappensBefore`](sfs_history::HappensBefore)'s
//!   flat vector-clock arena, for O(1) semantic dedup of explored
//!   histories;
//! * [`random_walks`] — the depth/branch-budgeted sampling fallback for
//!   instances past exhaustion, driven by the uniformly-random scheduler;
//! * [`replay`] — byte-exact reproduction of any explored schedule from
//!   its recorded [`ChoiceTrace`](sfs_asys::ChoiceTrace);
//! * [`conform`] — the differential oracle: cross-checks the simulator,
//!   the replay engine, and the threaded runtime against the envelope a
//!   complete exploration establishes (class membership, certified and
//!   universal verdicts, replay fidelity), reporting any disagreement as
//!   a [`Divergence`] with both traces attached;
//! * [`shrink`](mod@shrink) — delta debugging over recorded choice
//!   traces: reduces any violating schedule to a minimal witness, every
//!   candidate re-validated by replay.
//!
//! On a **complete** exploration ([`ExploreStats::complete`]) a property
//! that holds on every visited schedule holds on *every* schedule of the
//! instance — the explorer turns the property checkers of `sfs-tlogic`
//! from violation exhibitors into certifiers (experiment E9). The
//! soundness argument for pruning lives in the [`dfs`] module docs;
//! in one line: every certified verdict is invariant under swapping
//! adjacent concurrent steps, which is the same invariance Theorem 5's
//! rearrangement engine is built on.
//!
//! # Examples
//!
//! Certify a property over every schedule of a two-process handshake:
//!
//! ```
//! use sfs_asys::{Context, FixedLatency, Process, ProcessId, Sim};
//! use sfs_explore::{explore, ExploreConfig};
//! use sfs_history::History;
//! use sfs_tlogic::{properties, Verdict};
//!
//! struct Hello;
//! impl Process<&'static str> for Hello {
//!     fn on_start(&mut self, ctx: &mut Context<'_, &'static str>) {
//!         if ctx.id().index() == 0 {
//!             ctx.send(ProcessId::new(1), "hello");
//!         }
//!     }
//!     fn on_message(&mut self, ctx: &mut Context<'_, &'static str>, from: ProcessId, msg: &'static str) {
//!         if msg == "hello" {
//!             ctx.send(from, "ack");
//!         }
//!     }
//! }
//!
//! let build = || Sim::<&'static str>::builder(2)
//!     .link(FixedLatency(1))
//!     .build(|_| Box::new(Hello));
//! let mut all_ok = true;
//! let stats = explore(&ExploreConfig::default(), build, |run| {
//!     let h = History::from_trace(&run.trace);
//!     all_ok &= properties::check_fs2(&h).verdict == Verdict::Holds;
//! });
//! // No schedule of this (crash-free) system can violate FS2:
//! assert!(stats.complete && all_ok);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod canon;
pub mod conform;
pub mod dfs;
pub mod shrink;
mod walk;

pub use canon::class_fingerprint;
pub use conform::{
    replay_fidelity, DifferentialOracle, Divergence, DivergenceKind, Envelope, PropertyEnvelope,
};
pub use dfs::{
    explore, explore_with_prefix, probe_width, replay, ExploreConfig, ExploreStats, Pruning,
    ScheduleRun,
};
pub use shrink::{shrink, ShrinkConfig, ShrinkOutcome};
pub use walk::{random_walks, WalkConfig};
