//! One process of a system of hosts — on separate OS processes, or on
//! the threaded runtime's threads: the engine core with no threads and
//! no I/O.
//!
//! A [`Host`] holds one [`Process`], the engine core the simulator
//! drives too, and a timer wheel of the core's deadlines with the fault
//! plan filed first. Whoever owns it — a socket loop, or the threaded
//! runtime's coordinator — supplies the clock and the network:
//!
//! * [`Host::advance_to`] moves the host to the instant the owner's clock
//!   reads and runs everything due by then;
//! * [`Host::egress`] hands over the copies the process sent to other
//!   processes, after the link's verdict;
//! * [`Host::ingress`] puts a copy another process sent on its channel
//!   into this one, under the sender's [`MsgId`].
//!
//! Channels into the process, receive filters, crashes, detections, the
//! link and every counter stay with the core, so a system of hosts
//! counts what the simulator counts: the sum of the hosts'
//! [`SimStats`] is the run's.

use crate::engine::{CrashRegistry, Due, EngineState, Hooks, Schedule};
use crate::fault::Injection;
use crate::id::{MsgId, ProcessId, TimerId};
use crate::link::LinkModel;
use crate::net::RuntimeConfig;
use crate::process::{Context, Process};
use crate::time::VirtualTime;
use crate::trace::{SimStats, TraceEvent};
use crate::wheel::{TimerWheel, WheelEntryId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fmt;

/// A copy the link let through for a process on another host.
#[derive(Debug, Clone, PartialEq)]
pub struct Egress<M> {
    /// The receiver.
    pub to: ProcessId,
    /// The sender's id for the message; duplicated copies share it.
    pub msg: MsgId,
    /// When the link says the copy is due at `to`.
    pub at: VirtualTime,
    /// The message.
    pub payload: M,
}

/// The host's [`Schedule`]: its wheel, and the copies leaving it.
struct Edges<M> {
    me: ProcessId,
    wheel: TimerWheel<Due<M>>,
    /// The wheel entries of the timers armed and not yet due, so that a
    /// cancelled one leaves the wheel at once.
    armed: HashMap<TimerId, WheelEntryId>,
    outbox: Vec<Egress<M>>,
}

impl<M> Schedule<M> for Edges<M> {
    fn head_due(&mut self, at: VirtualTime, from: ProcessId, to: ProcessId) {
        self.wheel.insert(at, Due::Head { from, to });
    }

    fn timer_due(&mut self, at: VirtualTime, pid: ProcessId, id: TimerId) {
        let entry = self.wheel.insert(at, Due::Fire { pid, id });
        self.armed.insert(id, entry);
    }

    fn timer_cancelled(&mut self, id: TimerId) {
        if let Some(entry) = self.armed.remove(&id) {
            self.wheel.cancel(entry);
        }
    }

    fn is_local(&self, to: ProcessId) -> bool {
        to == self.me
    }

    fn egress(&mut self, to: ProcessId, msg: MsgId, at: VirtualTime, payload: M) {
        self.outbox.push(Egress {
            to,
            msg,
            at,
            payload,
        });
    }
}

/// One process of an `n`-process system, on the engine core; see the
/// module docs.
pub struct Host<M> {
    me: ProcessId,
    n: usize,
    process: Box<dyn Process<M>>,
    rng: StdRng,
    next_timer: u64,
    core: EngineState<M>,
    edges: Edges<M>,
    max_time: VirtualTime,
    /// Handlers run since the runtime's last round ended.
    handled: u32,
}

impl<M> fmt::Debug for Host<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Host")
            .field("me", &self.me)
            .field("n", &self.n)
            .finish_non_exhaustive()
    }
}

impl<M: Clone + fmt::Debug> Host<M> {
    /// Builds the host of process `me` of `n` and runs its `on_start` at
    /// instant 0.
    ///
    /// `config` means what it means to the threaded runtime, which runs
    /// one host per process: the process's rng and its link's are the
    /// ones the runtime gives process `me`, and delays of zero land at the
    /// instant they are issued. Fault-plan entries for other processes
    /// belong to their hosts and are left out.
    ///
    /// # Panics
    ///
    /// Panics if `me` is not below `n`.
    pub fn start(
        me: ProcessId,
        n: usize,
        config: RuntimeConfig<M>,
        process: Box<dyn Process<M>>,
    ) -> Self {
        assert!(me.index() < n, "{me} is not a process of {n}");
        let hooks = Hooks {
            link: config.link.map(|link| link as Box<dyn LinkModel>),
            classify: config.classify,
            measure: config.measure,
            sink: config.sink,
            registry: config.registry.unwrap_or_else(|| CrashRegistry::new(n)),
            record_payloads: false,
            max_events: config.max_events,
        };
        // The process and its link draw from streams of their own: the
        // process's rng never sees a link draw, and one sender's verdicts
        // do not depend on another's traffic.
        let i = me.index() as u64;
        let rng = StdRng::seed_from_u64(config.seed.wrapping_add(i));
        let link_rng = StdRng::seed_from_u64((config.seed ^ 0x11AC_C01D).wrapping_add(i << 32));
        let held = me.index()..me.index() + 1;
        let mut core = EngineState::new(n, held, 0, link_rng, hooks);
        if config.record {
            core.recorder = Some(Vec::new());
        }
        let mut wheel = TimerWheel::new();
        // Plan entries hold the earliest insertion seqs at their instants,
        // so each precedes every delivery and timer due at its instant.
        for (at, pid, injection) in config.faults.into_items() {
            if pid == me {
                wheel.insert(at, Due::Plan { pid, injection });
            }
        }
        let mut host = Host {
            me,
            n,
            process,
            rng,
            // Timer ids carry their process in the runtime's namespace.
            next_timer: (me.index() as u64) << 40,
            core,
            edges: Edges {
                me,
                wheel,
                armed: HashMap::new(),
                outbox: Vec::new(),
            },
            max_time: config.max_time,
            handled: 0,
        };
        host.dispatch(|p, ctx| p.on_start(ctx));
        host
    }

    /// The process this host runs.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The earliest instant something is due on this host, if anything
    /// is: a channel head, an armed timer or a fault-plan entry.
    pub fn next_deadline(&self) -> Option<VirtualTime> {
        self.edges.wheel.next_deadline()
    }

    /// Whether the process has crashed.
    pub fn is_crashed(&self) -> bool {
        self.core.is_crashed(self.me)
    }

    /// This host's counters: its process's sends, receives, timers,
    /// crash and detections, the link's verdicts on its sends, and the
    /// copies it consumed after crashing.
    pub fn stats(&self) -> SimStats {
        self.core.stats
    }

    /// The events emitted so far, when the configuration records them;
    /// empty otherwise.
    pub fn events(&self) -> &[TraceEvent] {
        self.core.recorder.as_deref().unwrap_or_default()
    }

    /// Moves the clock to `at`, never past the configured horizon, and
    /// runs everything due by then at `at`, in wheel order — fault-plan
    /// entries first, then channel heads and timers in the order they
    /// were filed — with each handler's actions applied before the next
    /// admission, and what they file for `at` run too. A late owner thus
    /// runs overdue work at the instant it reads, and timers re-armed
    /// there count from it. Once the event budget is spent nothing more
    /// is run.
    pub fn advance_to(&mut self, at: VirtualTime) {
        let at = at.min(self.max_time);
        while !self.core.budget_spent() {
            let due = self.edges.wheel.advance_to(at);
            self.core.now = self.edges.wheel.now();
            if due.is_empty() {
                return;
            }
            for (_, item) in due {
                self.admit(item);
            }
        }
    }

    /// The copies sent to processes on other hosts since the last call,
    /// in send order.
    pub fn egress(&mut self) -> std::vec::Drain<'_, Egress<M>> {
        self.edges.outbox.drain(..)
    }

    /// The ingress edge: a copy that process `msg.source()` sent to this
    /// host's process joins their channel at the current instant. It is
    /// received on a later [`Host::advance_to`] — or parked behind the
    /// receive filter, or consumed if the process has crashed — as the
    /// core decides. Refused, with nothing changed, when the source is not
    /// another process of the system.
    pub fn ingress(&mut self, msg: MsgId, payload: M) -> bool {
        let from = msg.source();
        if from.index() >= self.n || from == self.me {
            return false;
        }
        let now = self.core.now;
        self.core
            .ingress(self.me, msg, payload, now, &mut self.edges);
        true
    }

    /// The runtime's ingress at instant `now`, which no earlier call
    /// passed: a copy from another process of the system joins its
    /// channel at once, due when the sender's link said — so the channel
    /// keeps send order whatever the delays.
    pub(crate) fn ingress_at(&mut self, now: VirtualTime, copy: Egress<M>) {
        self.core.now = now;
        let (me, edges) = (self.me, &mut self.edges);
        self.core
            .ingress(me, copy.msg, copy.payload, copy.at, edges);
    }

    /// Files a hand injection on the wheel at instant `at`, which no
    /// earlier call passed, after whatever else is due then.
    pub(crate) fn inject(&mut self, at: VirtualTime, injection: Injection<M>) {
        let pid = self.me;
        self.edges.wheel.insert(at, Due::Plan { pid, injection });
    }

    /// Ends one of the runtime's rounds: appends the events emitted and the
    /// copies sent since the last one, and counts a delivery batch if the
    /// process ran more than one handler in it.
    pub(crate) fn end_round(&mut self, events: &mut Vec<TraceEvent>, egress: &mut Vec<Egress<M>>) {
        if std::mem::take(&mut self.handled) > 1 {
            self.core.stats.delivery_batches += 1;
        }
        if let Some(recorder) = &mut self.core.recorder {
            events.append(recorder);
        }
        egress.append(&mut self.edges.outbox);
    }

    /// Runs one handler on a fresh context and applies what it issued.
    fn dispatch(&mut self, f: impl FnOnce(&mut dyn Process<M>, &mut Context<'_, M>)) {
        self.handled += 1;
        let mut ctx = Context::new(
            self.me,
            self.n,
            self.core.now,
            &mut self.rng,
            &mut self.next_timer,
        );
        f(self.process.as_mut(), &mut ctx);
        let actions = ctx.take_actions();
        self.core.apply(self.me, actions, &mut self.edges);
    }

    /// Admits one due wheel entry through the core and runs its handler,
    /// unless the core dissolved it (crashed process, cancelled timer,
    /// refused head).
    fn admit(&mut self, due: Due<M>) {
        match due {
            Due::Head { from, to } => {
                if let Some(msg) = self.core.admit_head(from, to, &mut self.edges) {
                    self.dispatch(|p, ctx| p.on_message(ctx, from, msg));
                }
            }
            Due::Fire { pid, id } => {
                self.edges.armed.remove(&id);
                if self.core.admit_timer(pid, id) {
                    self.dispatch(|p, ctx| p.on_timer(ctx, id));
                }
            }
            Due::Plan { pid, injection } => {
                if let Some(payload) = self.core.admit_injection(pid, injection) {
                    self.dispatch(|p, ctx| p.on_external(ctx, payload));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::TimerId;

    /// Arms two timers on start and cancels the first.
    struct ArmTwo;

    impl Process<u8> for ArmTwo {
        fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
            let first = ctx.set_timer(40);
            ctx.set_timer(60);
            ctx.cancel_timer(first);
        }
        fn on_message(&mut self, _: &mut Context<'_, u8>, _: ProcessId, _: u8) {}
        fn on_timer(&mut self, _: &mut Context<'_, u8>, _: TimerId) {}
    }

    #[test]
    fn a_cancelled_timer_leaves_the_wheel_at_once() {
        let mut host = Host::start(
            ProcessId::new(0),
            1,
            RuntimeConfig::default(),
            Box::new(ArmTwo),
        );
        assert_eq!(host.next_deadline(), Some(VirtualTime::from_ticks(60)));
        host.advance_to(VirtualTime::from_ticks(100));
        assert_eq!(host.stats().timers_fired, 1);
        assert_eq!(host.next_deadline(), None);
    }
}
