//! Event-driven threaded runtime: the same [`Process`](crate::Process)
//! automata over real OS threads, on a virtual clock.
//!
//! Every process is a one-process [`Host`](crate::Host) — the driver the
//! simulator and the UDP node are too, on the simulator's calendar queue,
//! with its fault-plan entries filed first — and the hosts sit in
//! contiguous blocks, one
//! per thread: a coordinator, which runs block 0 itself, and a worker per
//! further block, `available_parallelism().min(n)` threads in all. The
//! coordinator runs the hosts in rounds. A round's instant is the least
//! deadline of any host or copy in transit, never past
//! [`RuntimeConfig::max_time`]; every block with work ingresses its copies
//! (each joins its channel due when its sender's link said, so channels
//! stay FIFO under any link delays) and advances its hosts to the
//! instant. Then the coordinator takes the round's events in host order,
//! numbers them, marks crashes in the shared
//! [`CrashRegistry`](crate::CrashRegistry), offers each to the sink, keeps
//! it when [`RuntimeConfig::record`] is on, and routes the round's copies.
//! Nothing depends on which thread ran a host or when it finished: a run
//! is a function of its configuration, processes and seed, and its wall
//! cost follows the events it executes, not the virtual span it covers.
//! Between rounds the coordinator takes hand injections and judges
//! quiescence for [`Runtime::drain`].
//!
//! # Examples
//!
//! Three greeters broadcast once. The run quiesces when every greeting
//! is in, and, being a function of its configuration, it is the same run
//! every time:
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
//! let run = || {
//!     let rt = Runtime::spawn(3, RuntimeConfig::default(), |_| Box::new(Greeter));
//!     assert!(rt.drain(Duration::from_secs(5)), "greeting quiesces");
//!     rt.shutdown()
//! };
//! let trace = run();
//! assert_eq!(trace.stats().messages_sent, 6);
//! assert_eq!(trace.events(), run().events());
//! ```

mod router;

pub use crate::engine::Measure;
pub use router::{Injector, Runtime, RuntimeConfig};
