//! # sfs-asys — asynchronous distributed system substrate
//!
//! This crate is the execution substrate for the reproduction of Sabel &
//! Marzullo, *Simulating Fail-Stop in Asynchronous Distributed Systems*
//! (1994). It provides the paper's system model (§2) as runnable
//! infrastructure:
//!
//! * [`ProcessId`], [`MsgId`] — processes `P = {1..n}` and unique messages;
//! * [`Process`] / [`Context`] — deterministic reactive process automata;
//! * [`Sim`] — a deterministic discrete-event simulator with reliable,
//!   unbounded-delay FIFO channels between every ordered pair of processes;
//! * [`Strategy`] and the [`strategy`] module — the scheduler seam: the
//!   run loop's "which enabled step executes next?" decision as a
//!   pluggable policy, from the default time-ordered scheduler to the
//!   recorded/replayable adversaries the `sfs-explore` crate drives;
//! * [`LatencyModel`] implementations — the explicit asynchrony adversary,
//!   from benign random delay to the scripted "delayed indefinitely"
//!   constructions of Appendix A.3;
//! * [`LinkModel`] / [`FaultyLink`] / [`PartitionSchedule`] — the faulty
//!   network *beneath* the paper's channel axioms: per-message
//!   deliver/drop/duplicate verdicts and scripted partitions, over which
//!   the `sfs-transport` crate re-earns reliable FIFO;
//! * [`FaultPlan`] — crash and stimulus injection;
//! * [`Trace`] — the total order of observed events, consumed by the
//!   `sfs-history` and `sfs-tlogic` crates;
//! * [`Host`] — a range of processes of a system of hosts, with no
//!   threads and no I/O: its owner supplies the clock and carries the
//!   copies between hosts (the UDP backend's node is a socket loop around
//!   a one-process host);
//! * [`net`] — a threaded runtime: one [`Host`] per process, on a pool
//!   of threads, run in rounds on one virtual clock.
//!
//! There is one driver: [`Sim`] is the host of all `n` processes, under
//! its own stop rules and, optionally, a [`Strategy`]. Every host runs on
//! one crate-private engine core that implements the model once —
//! channels, crashes, detections, receive filters, the link seam and the
//! event stream — and on one calendar queue of its deadlines. The timer
//! wheel stays exported only for its microbenchmark.
//!
//! # Examples
//!
//! A two-process ping/pong run:
//!
//! ```
//! use sfs_asys::{Context, Process, ProcessId, Sim};
//!
//! #[derive(Clone, Debug)]
//! enum Msg { Ping, Pong }
//!
//! struct Pinger;
//! impl Process<Msg> for Pinger {
//!     fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
//!         ctx.send(ProcessId::new(1), Msg::Ping);
//!     }
//!     fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: ProcessId, _msg: Msg) {}
//! }
//!
//! struct Ponger;
//! impl Process<Msg> for Ponger {
//!     fn on_start(&mut self, _ctx: &mut Context<'_, Msg>) {}
//!     fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: ProcessId, _msg: Msg) {
//!         ctx.send(from, Msg::Pong);
//!     }
//! }
//!
//! let sim = Sim::<Msg>::builder(2).seed(1).build(|pid| {
//!     if pid.index() == 0 { Box::new(Pinger) } else { Box::new(Ponger) }
//! });
//! let trace = sim.run();
//! assert_eq!(trace.stats().messages_delivered, 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod calendar;
mod engine;
mod fault;
mod host;
mod id;
mod latency;
mod link;
mod note;
pub mod observe;
mod process;
mod sim;
pub mod strategy;
mod text;
mod time;
mod timers;
mod trace;
mod wheel;

pub mod net;

pub use engine::CrashRegistry;
pub use fault::{FaultPlan, Injection};
pub use host::{Egress, Host};
pub use id::{MsgId, ProcessId, TimerId};
pub use latency::{
    FixedLatency, FnLatency, LatencyError, LatencyModel, OverrideLatency, UniformLatency, NEVER,
};
pub use link::{
    FaultyLink, FnLink, LinkModel, LinkVerdict, PartitionSchedule, SenderLink, StormSchedule,
};
pub use note::{Note, NOTE_LEADER, NOTE_QUORUM};
pub use observe::{EventSink, EventSinkHandle, Interest, MsgClass};
pub use process::{Action, Context, Process, ReceiveFilter};
pub use sim::{Sim, SimBuilder};
pub use strategy::{
    ChoiceTrace, EnabledStep, RandomStrategy, ReplayStrategy, ScheduleLog, StepKind, StepLog,
    Strategy, TimeOrderedStrategy,
};
pub use text::Text;
pub use time::VirtualTime;
pub use trace::{RunSummary, SimStats, StopReason, Trace, TraceEvent, TraceEventKind};
pub use wheel::{TimerWheel, WheelEntryId};
