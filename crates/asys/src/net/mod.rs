//! Event-driven threaded runtime: the same [`Process`](crate::Process)
//! automata over real OS threads, on a virtual clock.
//!
//! The simulator in [`Sim`](crate::Sim) explores adversarial schedules
//! deterministically; this module runs the *identical* protocol code on
//! real concurrency — a pool of worker threads, one per available core,
//! each owning a fixed slice of the processes, with crossbeam channels
//! as the handovers. A central router thread applies every effect through
//! the engine core the simulator drives too — the same channels, crash
//! and detection bookkeeping, receive filters and link seam — so channels
//! are FIFO under any link delays (the property the paper's sFS2d
//! argument depends on) and the runtime records a single coherent
//! [`Trace`](crate::Trace) — or, with `RuntimeConfig::record` off, feeds
//! the same events to its sink and builds none.
//!
//! Time is logical, not wall-clock: the router owns a hierarchical
//! [`TimerWheel`](crate::TimerWheel) holding every pending deadline
//! (channel heads coming due, timer fires, scheduled fault injections) and
//! advances its virtual clock straight to the next due instant whenever
//! nothing is in flight. Each dispatch hands every busy worker one batch
//! of its processes' due events, run back to back and answered with one
//! reply; the clock never moves while a reply is outstanding. A run's
//! wall cost is therefore proportional to the events it executes, not the
//! virtual span it covers — the property experiment E11 benchmarks.
//!
//! The repro substitutes threads + crossbeam for the async-executor
//! plumbing a modern implementation might use (tokio is outside the
//! allowed dependency set); the protocol only needs reliable FIFO
//! point-to-point channels and timers, which this provides.
//!
//! # Examples
//!
//! ```
//! use sfs_asys::net::{Runtime, RuntimeConfig};
//! use sfs_asys::{Context, Process, ProcessId};
//! use std::time::Duration;
//!
//! #[derive(Clone, Debug)]
//! struct Hello;
//!
//! struct Greeter;
//! impl Process<Hello> for Greeter {
//!     fn on_start(&mut self, ctx: &mut Context<'_, Hello>) {
//!         ctx.broadcast(Hello, false);
//!     }
//!     fn on_message(&mut self, _: &mut Context<'_, Hello>, _: ProcessId, _: Hello) {}
//! }
//!
//! let rt = Runtime::spawn(3, RuntimeConfig::default(), |_| Box::new(Greeter));
//! assert!(rt.drain(Duration::from_secs(5)), "greeting quiesces");
//! let trace = rt.shutdown();
//! assert_eq!(trace.stats().messages_sent, 6);
//! ```

mod router;

pub use crate::engine::Measure;
pub use router::{Injector, Runtime, RuntimeConfig};
