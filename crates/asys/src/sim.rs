//! Deterministic discrete-event simulator for asynchronous message-passing
//! systems.
//!
//! The simulator realizes the paper's system model (§2) exactly:
//!
//! * `n` processes that fail only by crashing and never recover;
//! * a unidirectional, reliable, infinite-buffer FIFO channel between every
//!   ordered pair of processes (including `C_{i,i}` — the paper's protocol
//!   sends to "all processes, including itself");
//! * unbounded message delay, chosen per message by a pluggable
//!   [`LatencyModel`](crate::latency::LatencyModel) (the explicit
//!   asynchrony adversary);
//! * no global clock visible to processes — virtual time orders simulator
//!   bookkeeping and drives the timeout *mechanism* the paper assumes for
//!   FS1, nothing more.
//!
//! The model itself — channels, crashes, detections, receive filters,
//! the link seam and the one `emit` path every event takes — is the
//! engine core the threaded runtime drives too (`engine.rs`); this module
//! is the simulator's scheduling around it: the processes, the event
//! queue, the run loops and the strategy seam. Every run is fully
//! determined by `(processes, latency model, fault plan, seed)` — plus,
//! in scheduled mode, the [`Strategy`]'s choice sequence — and produces a
//! [`Trace`] consumed by the history and property-checking crates. Every
//! event is numbered, offered to the attached
//! [`EventSink`](crate::observe::EventSink), and kept only when a trace
//! recorder is installed — [`Sim::run`] installs one,
//! [`Sim::run_unrecorded`] runs the same loop without it for callers
//! that fold the run through the sink and would drop the trace.
//!
//! # Scheduling modes
//!
//! The engine has two run loops over the same action/delivery machinery:
//!
//! * **Time-ordered** ([`Sim::run`] with no strategy installed) — events
//!   execute in virtual-time order with creation-order tie-breaks, popped
//!   from a calendar queue keyed on the tick (see `calendar.rs`); the
//!   asynchrony adversary acts through the latency model's delay draws.
//!   This is the fast statistical mode used by the E1–E8 sweeps.
//! * **Scheduled** ([`Sim::run_scheduled`], or [`Sim::run`] after a
//!   [`Strategy`] is installed) — at each step the engine materializes
//!   every enabled step (deliverable channel heads, armed timers, pending
//!   injections) and the strategy picks one, with every choice recorded
//!   in a [`ScheduleLog`] for replay. [`TimeOrderedStrategy`] reproduces
//!   the default loop byte-for-byte; the `sfs-explore` crate substitutes
//!   enumerating and randomizing strategies to search the schedule space
//!   (experiment E9).

use crate::calendar::Calendar;
use crate::engine::{CrashRegistry, EngineState, Hooks, Schedule};
use crate::fault::{FaultPlan, Injection};
use crate::id::{ProcessId, TimerId};
use crate::link::LinkModel;
use crate::observe::EventSinkHandle;
use crate::process::{Context, Process};
use crate::strategy::{EnabledStep, ScheduleLog, StepKind, StepLog, Strategy, TimeOrderedStrategy};
use crate::time::VirtualTime;
use crate::trace::{RunSummary, StopReason, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// What a queue entry does when it comes due. Process ids are four
/// bytes and the rare injection payload lives in a side table
/// ([`Sim::injections`]), so an entry is 16 bytes whatever `M` is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Pending {
    Deliver { from: ProcessId, to: ProcessId },
    Timer { pid: ProcessId, id: TimerId },
    Inject { pid: ProcessId, slot: u32 },
}

#[derive(Debug, Clone, Copy)]
struct QueueEntry {
    at: VirtualTime,
    order: u64,
    pending: Pending,
}

/// The simulator's pending steps, numbered in creation order: the
/// calendar queue of the time-ordered loop, or the scheduled loop's
/// working set once a scheduled run starts.
struct Queue {
    calendar: Calendar<Pending>,
    /// The scheduled loop's working set, in creation order.
    pending: Vec<QueueEntry>,
    /// Whether pushes go to `pending` (scheduled loop) instead of the
    /// calendar.
    scheduled: bool,
    order: u64,
}

impl Queue {
    fn push(&mut self, at: VirtualTime, pending: Pending) {
        let order = self.order;
        self.order += 1;
        if self.scheduled {
            self.pending.push(QueueEntry { at, order, pending });
        } else {
            self.calendar.push(at, order, pending);
        }
    }
}

impl Schedule for Queue {
    fn head_due(&mut self, at: VirtualTime, from: ProcessId, to: ProcessId) {
        self.push(at, Pending::Deliver { from, to });
    }

    fn timer_due(&mut self, at: VirtualTime, pid: ProcessId, id: TimerId) {
        self.push(at, Pending::Timer { pid, id });
    }
}

/// The simulation engine. Construct via [`SimBuilder`].
pub struct Sim<M> {
    n: usize,
    processes: Vec<Box<dyn Process<M>>>,
    core: EngineState<M>,
    queue: Queue,
    /// Payloads of the fault plan's injections, taken when they fire.
    injections: Vec<Option<Injection<M>>>,
    next_timer: u64,
    max_time: VirtualTime,
    max_steps: usize,
    /// Installed scheduling strategy; `None` selects the time-ordered
    /// loop.
    strategy: Option<Box<dyn Strategy>>,
}

impl<M> fmt::Debug for Sim<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("n", &self.n)
            .field("now", &self.core.now)
            .field("events", &self.core.emitted)
            .field("pending", &self.queue.calendar.len())
            .finish_non_exhaustive()
    }
}

/// Builder for [`Sim`]; see [`Sim::builder`].
pub struct SimBuilder<M> {
    n: usize,
    seed: u64,
    max_time: VirtualTime,
    max_steps: usize,
    hooks: Hooks<M>,
    plan: FaultPlan<M>,
    strategy: Option<Box<dyn Strategy>>,
}

impl<M> fmt::Debug for SimBuilder<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimBuilder")
            .field("n", &self.n)
            .finish_non_exhaustive()
    }
}

impl<M: Clone + fmt::Debug + 'static> SimBuilder<M> {
    /// Sets the seed for all randomness in the run (link draws and the
    /// processes' rng).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the virtual-time horizon: the run stops with
    /// [`StopReason::MaxTime`] when the next event would occur strictly
    /// after it.
    pub fn max_time(mut self, t: VirtualTime) -> Self {
        self.max_time = t;
        self
    }

    /// Sets the event budget: the run stops with
    /// [`StopReason::MaxEvents`] once this many events have been emitted.
    pub fn max_events(mut self, max: usize) -> Self {
        self.hooks.max_events = max;
        self
    }

    /// Records message payload `Debug` text into the trace (costs memory
    /// on long runs).
    pub fn record_payloads(mut self, on: bool) -> Self {
        self.hooks.record_payloads = on;
        self
    }

    /// Sets the scheduling-decision budget of **scheduled** runs (see
    /// [`Sim::run_scheduled`]): the run stops with
    /// [`StopReason::MaxSteps`] once this many steps have executed — the
    /// schedule explorer's depth bound. Ignored by the time-ordered loop.
    pub fn max_steps(mut self, max: usize) -> Self {
        self.max_steps = max;
        self
    }

    /// Sets the link model: a latency model (the asynchrony adversary;
    /// every [`LatencyModel`](crate::latency::LatencyModel) is a loss-free
    /// link) or a faulty network with per-message verdicts of
    /// deliver/drop/duplicate, e.g. a
    /// [`FaultyLink`](crate::link::FaultyLink) with loss, duplication,
    /// and a partition schedule.
    pub fn link(mut self, model: impl LinkModel + 'static) -> Self {
        self.hooks.link = Some(Box::new(model));
        self
    }

    /// Installs a scheduling [`Strategy`]: the run becomes **scheduled**
    /// ([`Sim::run`] will route through [`Sim::run_scheduled`]), with the
    /// strategy choosing among the enabled steps at every point instead
    /// of the engine following virtual time.
    pub fn strategy(mut self, strategy: impl Strategy + 'static) -> Self {
        self.strategy = Some(Box::new(strategy));
        self
    }

    /// Sets the fault/injection plan.
    pub fn faults(mut self, plan: FaultPlan<M>) -> Self {
        self.plan = plan;
        self
    }

    /// Installs a message classifier: `true` marks a payload as
    /// *infrastructure* (protocol-internal, beneath the paper's formal
    /// model), `false` as a model-level application message. The flag is
    /// recorded on every send/receive trace event so that histories can
    /// be projected onto the model alphabet.
    pub fn classify(mut self, f: impl Fn(&M) -> bool + Send + 'static) -> Self {
        self.hooks.classify = Some(Box::new(f));
        self
    }

    /// Installs a wire-byte measure: the number of bytes sending this
    /// payload would put on a real wire (e.g. `sfs_wire::frame::wire_cost`).
    /// Charged to [`SimStats::wire_bytes`](crate::SimStats::wire_bytes)
    /// once per send, on the sender's side — duplicated and dropped copies
    /// are the network's doing, not the protocol's spend — which makes
    /// simulated byte budgets directly comparable to the UDP backend's
    /// datagram accounting.
    pub fn measure(mut self, f: impl Fn(&M) -> u64 + Send + 'static) -> Self {
        self.hooks.measure = Some(Box::new(f));
        self
    }

    /// Attaches a trace-event sink (see [`crate::observe::EventSink`]):
    /// every event the run emits that the sink declared an interest in is
    /// handed to it by reference — the live feed the streaming sFS
    /// monitors and the service's shard summaries run on. The sink sees
    /// each event once it is decided and has no path back into the rng,
    /// the clock, or the queue, so a monitored run is byte-identical to a
    /// bare one.
    pub fn event_sink(mut self, sink: EventSinkHandle) -> Self {
        self.hooks.sink = Some(sink);
        self
    }

    /// The crash registry for this run, for wiring oracle detectors into
    /// process constructors before the sim is built.
    pub fn crash_registry(&self) -> CrashRegistry {
        self.hooks.registry.clone()
    }

    /// Finalizes the simulator with one process per id, built by `make`.
    pub fn build<F>(self, make: F) -> Sim<M>
    where
        F: FnMut(ProcessId) -> Box<dyn Process<M>>,
    {
        let n = self.n;
        let mut sim = Sim {
            n,
            processes: ProcessId::all(n).map(make).collect(),
            core: EngineState::new(n, 1, StdRng::seed_from_u64(self.seed), self.hooks),
            queue: Queue {
                calendar: Calendar::new(),
                pending: Vec::new(),
                scheduled: false,
                order: 0,
            },
            injections: Vec::new(),
            next_timer: 0,
            max_time: self.max_time,
            max_steps: self.max_steps,
            strategy: self.strategy,
        };
        for (time, pid, injection) in self.plan.into_items() {
            let slot = sim.injections.len() as u32;
            sim.injections.push(Some(injection));
            sim.queue.push(time, Pending::Inject { pid, slot });
        }
        sim
    }
}

impl<M: Clone + fmt::Debug + 'static> Sim<M> {
    /// Starts building an `n`-process simulation.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` (or does not fit 32 bits).
    pub fn builder(n: usize) -> SimBuilder<M> {
        assert!(n > 0, "a system needs at least one process");
        assert!(u32::try_from(n).is_ok(), "process ids are 32-bit");
        SimBuilder {
            n,
            seed: 0,
            max_time: VirtualTime::from_ticks(1_000_000),
            max_steps: usize::MAX,
            hooks: Hooks {
                link: Some(Box::new(crate::latency::UniformLatency::new(1, 10))),
                classify: None,
                measure: None,
                sink: None,
                registry: CrashRegistry::new(n),
                record_payloads: false,
                max_events: 1_000_000,
            },
            plan: FaultPlan::new(),
            strategy: None,
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.core.now
    }

    /// The live crash view shared with oracle detectors.
    pub fn crash_registry(&self) -> CrashRegistry {
        self.core.registry().clone()
    }

    /// Installs (or replaces) the scheduling strategy after construction.
    /// Used by explorers, which build the sim through a factory and then
    /// take over its schedule.
    pub fn set_strategy(&mut self, strategy: impl Strategy + 'static) {
        self.strategy = Some(Box::new(strategy));
    }

    /// Overrides the scheduled-mode step budget after construction (see
    /// [`SimBuilder::max_steps`]); the explorer's per-schedule depth bound.
    pub fn set_max_steps(&mut self, max: usize) {
        self.max_steps = max;
    }

    /// Runs the process callback `f` for `pid` and applies the actions it
    /// issued.
    fn dispatch<F>(&mut self, pid: ProcessId, f: F)
    where
        F: FnOnce(&mut dyn Process<M>, &mut Context<'_, M>),
    {
        debug_assert!(!self.core.is_crashed(pid));
        let core = &mut self.core;
        let mut ctx = Context::new(pid, self.n, core.now, &mut core.rng, &mut self.next_timer);
        f(self.processes[pid.index()].as_mut(), &mut ctx);
        let actions = ctx.take_actions();
        self.core.apply(pid, actions, &mut self.queue);
    }

    /// The engine core, for tests that preset its state.
    #[cfg(test)]
    pub(crate) fn core_mut(&mut self) -> &mut EngineState<M> {
        &mut self.core
    }

    /// Runs the simulation to completion and returns the trace.
    ///
    /// With a [`Strategy`] installed (via [`SimBuilder::strategy`] or
    /// [`Sim::set_strategy`]) the run is scheduled, as under
    /// [`Sim::run_scheduled`], and the schedule log is discarded; without
    /// one it runs the default time-ordered loop.
    pub fn run(mut self) -> Trace {
        self.core.start_recording();
        let (summary, _) = self.execute();
        self.into_trace(summary)
    }

    /// Runs the simulation to completion **without building a trace**:
    /// the same loop and the same events as [`Sim::run`] — every event is
    /// numbered, counted against [`SimBuilder::max_events`] and offered to
    /// the attached [`EventSink`](crate::observe::EventSink) — but none is
    /// retained. For callers that fold the run through a sink and would
    /// drop the trace anyway (the service's shard runs); what they get
    /// back is how the run ended.
    pub fn run_unrecorded(mut self) -> RunSummary {
        self.execute().0
    }

    /// Runs the simulation under the installed [`Strategy`] — installing
    /// [`TimeOrderedStrategy`] when none is — and records every
    /// scheduling decision in a [`ScheduleLog`].
    ///
    /// At each step the engine builds the canonical (creation-ordered)
    /// list of enabled steps: one per non-empty, non-parked channel (its
    /// head), one per armed timer, one per pending injection. The
    /// strategy picks an index; the step executes; repeat. The log pairs
    /// every enabled list with the index chosen from it, so any run can
    /// be replayed exactly by feeding
    /// [`ScheduleLog::choices`] to a
    /// [`ReplayStrategy`](crate::strategy::ReplayStrategy), and schedule
    /// explorers can use the per-step enabled lists as the branching
    /// structure of the schedule tree.
    ///
    /// Under [`TimeOrderedStrategy`] the result is byte-identical to
    /// [`Sim::run`]'s default loop — same events, timestamps, stats, and
    /// stop reason.
    pub fn run_scheduled(mut self) -> (Trace, ScheduleLog) {
        self.strategy
            .get_or_insert_with(|| Box::new(TimeOrderedStrategy));
        self.core.start_recording();
        let (summary, log) = self.execute();
        (self.into_trace(summary), log)
    }

    fn into_trace(mut self, run: RunSummary) -> Trace {
        let events = self.core.recorder.take().unwrap_or_default();
        debug_assert_eq!(events.len(), run.events);
        Trace::from_parts(self.n, events, run.stop, run.end_time, run.stats)
    }

    /// Starts every process and runs the loop the configuration selects.
    fn execute(&mut self) -> (RunSummary, ScheduleLog) {
        let strategy = self.strategy.take();
        if strategy.is_some() {
            // Route all further pushes into the scheduled working set and
            // move the construction-time entries (the fault plan) over,
            // restoring creation order.
            let queue = &mut self.queue;
            queue.scheduled = true;
            while let Some((at, order, pending)) = queue.calendar.pop() {
                queue.pending.push(QueueEntry { at, order, pending });
            }
            queue.pending.sort_by_key(|e| e.order);
        }
        // on_start for every process, in id order, at time zero.
        for pid in ProcessId::all(self.n) {
            if !self.core.is_crashed(pid) {
                self.dispatch(pid, |p, ctx| p.on_start(ctx));
            }
        }
        let mut log = ScheduleLog::default();
        let stop = match strategy {
            None => self.time_ordered_loop(),
            Some(strategy) => self.scheduled_loop(strategy, &mut log),
        };
        let summary = RunSummary {
            stop,
            end_time: self.core.now,
            stats: self.core.stats,
            events: self.core.emitted,
        };
        (summary, log)
    }

    /// Why the run must stop before taking another step, if it must.
    /// The core stops applying actions mid-batch at the event budget, so
    /// the emitted events are an exact prefix there.
    fn finished(&self) -> Option<StopReason> {
        if self.core.budget_spent() {
            Some(StopReason::MaxEvents)
        } else if self.core.all_crashed() {
            Some(StopReason::AllCrashed)
        } else {
            None
        }
    }

    fn time_ordered_loop(&mut self) -> StopReason {
        loop {
            if let Some(stop) = self.finished() {
                return stop;
            }
            let Some((at, _, pending)) = self.queue.calendar.pop() else {
                return StopReason::Quiescent;
            };
            if at > self.max_time {
                return StopReason::MaxTime;
            }
            self.core.now = at;
            self.step(pending);
        }
    }

    fn scheduled_loop(
        &mut self,
        mut strategy: Box<dyn Strategy>,
        log: &mut ScheduleLog,
    ) -> StopReason {
        loop {
            if let Some(stop) = self.finished() {
                return stop;
            }
            if self.queue.pending.is_empty() {
                return StopReason::Quiescent;
            }
            // The step budget is checked after the terminal conditions so
            // that replaying a run under `max_steps = choices.len()`
            // reproduces its stop reason (a quiescent recording stays
            // Quiescent, a truncated one stays truncated).
            if log.steps.len() >= self.max_steps {
                return StopReason::MaxSteps;
            }
            let enabled = self.enabled_steps();
            let chosen = strategy.choose(&enabled);
            assert!(
                chosen < enabled.len(),
                "strategy chose step {chosen} of {}",
                enabled.len()
            );
            let entry = self.queue.pending.remove(chosen);
            // Every consumed decision is logged — including the one that
            // trips the horizon below — so a replay of `log.choices()`
            // consumes the same choices and stops identically.
            log.steps.push(StepLog {
                enabled,
                chosen: chosen as u32,
            });
            if entry.at > self.max_time {
                return StopReason::MaxTime;
            }
            // Time only ever advances: an adversarially re-ordered step
            // executes at the latest of its own ready time and the
            // current clock, mirroring an adversary that withheld it.
            self.core.now = self.core.now.max(entry.at);
            self.step(entry.pending);
        }
    }

    /// Executes one due queue entry — the step body shared by the
    /// time-ordered and the scheduled loop.
    fn step(&mut self, pending: Pending) {
        match pending {
            Pending::Deliver { from, to } => {
                if let Some(msg) = self.core.admit_head(from, to, &mut self.queue) {
                    self.dispatch(to, |p, ctx| p.on_message(ctx, from, msg));
                }
            }
            Pending::Timer { pid: owner, id } => {
                if self.core.admit_timer(owner, id) {
                    self.dispatch(owner, |p, ctx| p.on_timer(ctx, id));
                }
            }
            Pending::Inject { pid: target, slot } => {
                let injection = self.injections[slot as usize]
                    .take()
                    .expect("an injection fires once");
                if let Some(payload) = self.core.admit_injection(target, injection) {
                    self.dispatch(target, |p, ctx| p.on_external(ctx, payload));
                }
            }
        }
    }

    /// The canonical enabled-step list for the current state: one entry
    /// per pending step, in creation order, annotated with the no-op flag
    /// (see [`EnabledStep::noop`]).
    fn enabled_steps(&self) -> Vec<EnabledStep> {
        let crashed = |p| self.core.is_crashed(p);
        self.queue
            .pending
            .iter()
            .map(|e| {
                let (kind, noop) = match e.pending {
                    Pending::Deliver { from, to } => (StepKind::Deliver { from, to }, crashed(to)),
                    Pending::Timer { pid: owner, id } => (
                        StepKind::Timer {
                            pid: owner,
                            timer: id,
                        },
                        crashed(owner) || self.core.is_cancelled(id),
                    ),
                    Pending::Inject { pid: target, .. } => {
                        (StepKind::Inject { pid: target }, crashed(target))
                    }
                };
                EnabledStep {
                    kind,
                    at: e.at,
                    order: e.order,
                    noop,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{FixedLatency, OverrideLatency, UniformLatency};
    use crate::process::ReceiveFilter;
    use crate::trace::TraceEventKind;

    /// Floods `count` messages to a sink on start; sink records nothing.
    struct Flooder {
        count: usize,
        target: ProcessId,
    }

    impl Process<u32> for Flooder {
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            for k in 0..self.count {
                ctx.send(self.target, k as u32);
            }
        }
        fn on_message(&mut self, _: &mut Context<'_, u32>, _: ProcessId, _: u32) {}
    }

    struct Sink {
        received: Vec<u32>,
    }

    impl Process<u32> for Sink {
        fn on_start(&mut self, _: &mut Context<'_, u32>) {}
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, _: ProcessId, msg: u32) {
            // Re-broadcast so the test can observe ordering through the trace.
            let _ = ctx;
            self.received.push(msg);
        }
    }

    fn fifo_trace(seed: u64) -> Trace {
        let sim = Sim::<u32>::builder(2)
            .seed(seed)
            .link(UniformLatency::new(1, 50))
            .build(|pid| {
                if pid.index() == 0 {
                    Box::new(Flooder {
                        count: 20,
                        target: ProcessId::new(1),
                    })
                } else {
                    Box::new(Sink {
                        received: Vec::new(),
                    })
                }
            });
        sim.run()
    }

    #[test]
    fn fifo_order_is_preserved_despite_random_latency() {
        for seed in 0..20 {
            let trace = fifo_trace(seed);
            let recvs: Vec<u64> = trace
                .events()
                .iter()
                .filter_map(|e| match e.kind {
                    TraceEventKind::Recv { by, msg, .. } if by == ProcessId::new(1) => {
                        Some(msg.seq())
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(recvs.len(), 20, "all messages delivered");
            assert!(
                recvs.is_sorted(),
                "FIFO violated with seed {seed}: {recvs:?}"
            );
        }
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = fifo_trace(7);
        let b = fifo_trace(7);
        assert_eq!(a, b);
        let c = fifo_trace(8);
        assert_ne!(
            a.events(),
            c.events(),
            "different seeds should reorder deliveries"
        );
    }

    #[test]
    fn quiescence_is_reported() {
        let trace = fifo_trace(1);
        assert_eq!(trace.stop_reason(), StopReason::Quiescent);
    }

    #[test]
    fn event_budget_is_exact_and_coherent_with_stats() {
        // One on_start batch queues 20 sends; a budget of 5 must cut the
        // batch so the trace holds exactly 5 events AND the stats
        // counters describe the same prefix (no phantom sends counted
        // for events the trace does not contain).
        let sim = Sim::<u32>::builder(2)
            .max_events(5)
            .link(FixedLatency(1))
            .build(|pid| {
                if pid.index() == 0 {
                    Box::new(Flooder {
                        count: 20,
                        target: ProcessId::new(1),
                    }) as Box<dyn Process<u32>>
                } else {
                    Box::new(Sink {
                        received: Vec::new(),
                    })
                }
            });
        let trace = sim.run();
        assert_eq!(trace.stop_reason(), StopReason::MaxEvents);
        assert_eq!(trace.events().len(), 5);
        let recorded_sends = trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::Send { .. }))
            .count() as u64;
        assert_eq!(trace.stats().messages_sent, recorded_sends);
        assert_eq!(trace.stats().messages_delivered, 0);
    }

    /// A process that crashes itself upon receiving any message.
    struct CrashOnMessage;

    impl Process<u32> for CrashOnMessage {
        fn on_start(&mut self, _: &mut Context<'_, u32>) {}
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, _: ProcessId, _: u32) {
            ctx.crash_self();
            // Anything after the crash must be void:
            ctx.send(ProcessId::new(0), 99);
        }
    }

    #[test]
    fn no_events_after_crash() {
        let sim = Sim::<u32>::builder(2)
            .seed(3)
            .link(FixedLatency(1))
            .build(|pid| {
                if pid.index() == 0 {
                    Box::new(Flooder {
                        count: 5,
                        target: ProcessId::new(1),
                    })
                } else {
                    Box::new(CrashOnMessage)
                }
            });
        let trace = sim.run();
        let p1 = ProcessId::new(1);
        let crash_seq = trace
            .events()
            .iter()
            .find_map(|e| match e.kind {
                TraceEventKind::Crash { pid } if pid == p1 => Some(e.seq),
                _ => None,
            })
            .expect("crash recorded");
        for e in trace.events() {
            if e.seq > crash_seq {
                assert_ne!(e.kind.process(), p1, "event after crash: {e}");
            }
        }
        // The four messages behind the first are not received.
        assert_eq!(trace.stats().messages_to_crashed, 4);
        assert_eq!(trace.stats().messages_delivered, 1);
    }

    #[test]
    fn injected_crash_halts_process_at_time() {
        let plan = FaultPlan::new().crash_at(ProcessId::new(0), VirtualTime::from_ticks(1));
        let sim = Sim::<u32>::builder(2)
            .link(FixedLatency(10))
            .faults(plan)
            .build(|pid| {
                if pid.index() == 0 {
                    Box::new(Flooder {
                        count: 1,
                        target: ProcessId::new(1),
                    })
                } else {
                    Box::new(Sink {
                        received: Vec::new(),
                    })
                }
            });
        let trace = sim.run();
        // The message was sent at time 0, before the crash at time 1, and the
        // channel still delivers it (channels are non-faulty).
        assert_eq!(trace.stats().messages_delivered, 1);
        assert_eq!(trace.crashed(), vec![ProcessId::new(0)]);
    }

    #[test]
    fn declare_failed_is_idempotent_in_trace() {
        struct DoubleDeclarer;
        impl Process<u32> for DoubleDeclarer {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.declare_failed(ProcessId::new(1));
                ctx.declare_failed(ProcessId::new(1));
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: ProcessId, _: u32) {}
        }
        let sim = Sim::<u32>::builder(2).build(|pid| {
            if pid.index() == 0 {
                Box::new(DoubleDeclarer)
            } else {
                Box::new(Sink {
                    received: Vec::new(),
                })
            }
        });
        let trace = sim.run();
        assert_eq!(
            trace.detections(),
            vec![(ProcessId::new(0), ProcessId::new(1))]
        );
    }

    #[test]
    fn held_message_blocks_channel_but_not_other_channels() {
        // p0 sends m0 to p1 held NEVER-long, then m1 normally: FIFO means m1
        // cannot overtake, so p1 receives nothing. p0->p2 is unaffected.
        struct TwoSends;
        impl Process<u32> for TwoSends {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.send(ProcessId::new(1), 0);
                ctx.send(ProcessId::new(1), 1);
                ctx.send(ProcessId::new(2), 2);
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: ProcessId, _: u32) {}
        }
        let model = OverrideLatency::new(FixedLatency(1)).hold(
            ProcessId::new(0),
            ProcessId::new(1),
            crate::latency::NEVER,
        );
        let sim = Sim::<u32>::builder(3)
            .link(model)
            .max_time(VirtualTime::from_ticks(1_000))
            .build(|pid| {
                if pid.index() == 0 {
                    Box::new(TwoSends)
                } else {
                    Box::new(Sink {
                        received: Vec::new(),
                    })
                }
            });
        let trace = sim.run();
        assert_eq!(trace.stop_reason(), StopReason::MaxTime);
        let recv_targets: Vec<_> = trace
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::Recv { by, .. } => Some(by),
                _ => None,
            })
            .collect();
        assert_eq!(recv_targets, vec![ProcessId::new(2)]);
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct TimerUser {
            fired: u32,
        }
        impl Process<u32> for TimerUser {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                let keep = ctx.set_timer(5);
                let cancel = ctx.set_timer(6);
                ctx.cancel_timer(cancel);
                let _ = keep;
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: ProcessId, _: u32) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, u32>, _: TimerId) {
                self.fired += 1;
                if self.fired < 3 {
                    ctx.set_timer(5);
                }
            }
        }
        let sim = Sim::<u32>::builder(1).build(|_| Box::new(TimerUser { fired: 0 }));
        let trace = sim.run();
        assert_eq!(trace.stats().timers_fired, 3);
        assert_eq!(trace.stop_reason(), StopReason::Quiescent);
    }

    #[test]
    fn all_crashed_stops_run() {
        let plan = FaultPlan::new()
            .crash_at(ProcessId::new(0), VirtualTime::from_ticks(5))
            .crash_at(ProcessId::new(1), VirtualTime::from_ticks(6));
        let sim = Sim::<u32>::builder(2).faults(plan).build(|_| {
            Box::new(Sink {
                received: Vec::new(),
            })
        });
        let trace = sim.run();
        assert_eq!(trace.stop_reason(), StopReason::AllCrashed);
        assert_eq!(trace.crashed().len(), 2);
    }

    #[test]
    fn crash_registry_tracks_crashes_live() {
        let plan = FaultPlan::new().crash_at(ProcessId::new(1), VirtualTime::from_ticks(2));
        let sim = Sim::<u32>::builder(3).faults(plan).build(|_| {
            Box::new(Sink {
                received: Vec::new(),
            })
        });
        let registry = sim.crash_registry();
        assert!(!registry.is_crashed(ProcessId::new(1)));
        let _ = sim.run();
        assert!(registry.is_crashed(ProcessId::new(1)));
        assert_eq!(registry.crashed(), vec![ProcessId::new(1)]);
        // The non-allocating views agree with the vector variant.
        assert_eq!(
            registry.iter_crashed().collect::<Vec<_>>(),
            registry.crashed()
        );
        let mut visited = Vec::new();
        registry.for_each_crashed(|p| visited.push(p));
        assert_eq!(visited, vec![ProcessId::new(1)]);
    }

    /// A process that refuses odd messages until it sees the value 100.
    struct Picky {
        seen: Vec<u32>,
    }

    impl Process<u32> for Picky {
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.set_receive_filter(Some(ReceiveFilter::new(|m: &u32| m.is_multiple_of(2))));
        }
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, _: ProcessId, msg: u32) {
            self.seen.push(msg);
            if msg == 100 {
                ctx.set_receive_filter(None);
            }
        }
    }

    #[test]
    fn receive_filter_parks_messages_in_fifo_order() {
        // p0 sends 1 (refused), 100 (accepted... but FIFO: 1 is at the head,
        // so 100 waits behind it), then nothing. The channel deadlocks on
        // the refused head until the filter is lifted — which here never
        // happens, so p1 sees nothing.
        struct SendOddThenEven;
        impl Process<u32> for SendOddThenEven {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.send(ProcessId::new(1), 1);
                ctx.send(ProcessId::new(1), 100);
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: ProcessId, _: u32) {}
        }
        let sim = Sim::<u32>::builder(2).link(FixedLatency(1)).build(|pid| {
            if pid.index() == 0 {
                Box::new(SendOddThenEven)
            } else {
                Box::new(Picky { seen: Vec::new() })
            }
        });
        let trace = sim.run();
        assert_eq!(trace.stop_reason(), StopReason::Quiescent);
        assert_eq!(
            trace.stats().messages_delivered,
            0,
            "head-of-line refusal blocks channel"
        );
    }

    #[test]
    fn receive_filter_releases_parked_messages_on_change() {
        // p0 sends 2 (accepted), 3 (refused -> parked), 100 (parked behind),
        // then p2 sends 100 which lifts the filter; 3 and 100 then arrive
        // in order.
        struct Script(usize);
        impl Process<u32> for Script {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                if self.0 == 0 {
                    ctx.send(ProcessId::new(1), 2);
                    ctx.send(ProcessId::new(1), 3);
                    ctx.send(ProcessId::new(1), 6);
                } else if self.0 == 2 {
                    // Arrives long after p0's messages.
                    let t = ctx.set_timer(100);
                    let _ = t;
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: ProcessId, _: u32) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, u32>, _: TimerId) {
                ctx.send(ProcessId::new(1), 100);
            }
        }
        let sim = Sim::<u32>::builder(3).link(FixedLatency(1)).build(|pid| {
            if pid.index() == 1 {
                Box::new(Picky { seen: Vec::new() })
            } else {
                Box::new(Script(pid.index()))
            }
        });
        let trace = sim.run();
        assert_eq!(trace.stop_reason(), StopReason::Quiescent);
        let recvs: Vec<u64> = trace
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::Recv { by, msg, .. } if by == ProcessId::new(1) => Some(msg.seq()),
                _ => None,
            })
            .collect();
        // p1 receives p0's m0 (=2), then p2's m0 (=100), then the parked
        // p0 m1 (=3) and m2 (=6) in FIFO order.
        assert_eq!(
            trace.stats().messages_delivered,
            4,
            "{}",
            trace.to_pretty_string()
        );
        let from_p0: Vec<u64> = trace
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::Recv { by, from, msg, .. }
                    if by == ProcessId::new(1) && from == ProcessId::new(0) =>
                {
                    Some(msg.seq())
                }
                _ => None,
            })
            .collect();
        assert_eq!(from_p0, vec![0, 1, 2], "FIFO preserved through parking");
        let _ = recvs;
    }

    #[test]
    fn parked_messages_to_a_crashed_receiver_count_as_consumed() {
        // p1 refuses everything, so p0's two messages park their channel
        // (no pending delivery attempt remains); p1 then crashes. The
        // parked copies must be consumed as messages_to_crashed — the
        // filter can never change again — so the quiescent run reports
        // its channels drained.
        struct Refuser;
        impl Process<u32> for Refuser {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.set_receive_filter(Some(ReceiveFilter::new(|_: &u32| false)));
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: ProcessId, _: u32) {}
        }
        let plan = FaultPlan::new().crash_at(ProcessId::new(1), VirtualTime::from_ticks(20));
        let sim = Sim::<u32>::builder(2)
            .link(FixedLatency(1))
            .faults(plan)
            .build(|pid| {
                if pid.index() == 0 {
                    Box::new(Flooder {
                        count: 2,
                        target: ProcessId::new(1),
                    }) as Box<dyn Process<u32>>
                } else {
                    Box::new(Refuser)
                }
            });
        let trace = sim.run();
        assert_eq!(trace.stop_reason(), StopReason::Quiescent);
        assert_eq!(trace.stats().messages_sent, 2);
        assert_eq!(trace.stats().messages_delivered, 0);
        assert_eq!(
            trace.stats().messages_to_crashed,
            2,
            "{}",
            trace.to_pretty_string()
        );
        assert!(trace.channels_drained(), "{}", trace.to_pretty_string());
    }

    #[test]
    fn duplicate_copies_outlive_a_partition_cut_after_the_verdict() {
        use crate::link::{FaultyLink, PartitionSchedule};
        // The Duplicate verdict is drawn once, at send time (tick 0); the
        // link is severed from tick 1 forever. A partition drops *new*
        // traffic at the cut, not the queue: both in-flight copies must
        // still deliver, and the accounting must balance.
        let link = FaultyLink::new(FixedLatency(30)).duplicate(1.0).partitions(
            PartitionSchedule::new().split(
                VirtualTime::from_ticks(1),
                VirtualTime::MAX,
                &[ProcessId::new(0)],
            ),
        );
        let sim = Sim::<u32>::builder(2).link(link).build(|pid| {
            Box::new(Flooder {
                count: if pid.index() == 0 { 1 } else { 0 },
                target: ProcessId::new(1 - pid.index()),
            })
        });
        let trace = sim.run();
        assert_eq!(trace.stats().messages_sent, 1);
        assert_eq!(trace.stats().messages_duplicated, 1);
        assert_eq!(
            trace.stats().messages_delivered,
            2,
            "{}",
            trace.to_pretty_string()
        );
        assert!(trace.channels_drained());
        // Both copies arrived while the link was already severed.
        for e in trace.events() {
            if matches!(e.kind, TraceEventKind::Recv { .. }) {
                assert!(e.time >= VirtualTime::from_ticks(1), "{e}");
            }
        }
    }

    #[test]
    fn duplicated_parked_copies_at_a_crashed_receiver_still_balance() {
        use crate::link::FaultyLink;
        // Duplicate verdict -> two parked copies -> receiver crashes.
        // Both copies are consumed at the crash:
        // sent + duplicated == to_crashed.
        struct Refuser;
        impl Process<u32> for Refuser {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.set_receive_filter(Some(ReceiveFilter::new(|_: &u32| false)));
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: ProcessId, _: u32) {}
        }
        let link = FaultyLink::new(FixedLatency(1)).duplicate(1.0);
        let plan = FaultPlan::new().crash_at(ProcessId::new(1), VirtualTime::from_ticks(20));
        let sim = Sim::<u32>::builder(2).link(link).faults(plan).build(|pid| {
            if pid.index() == 0 {
                Box::new(Flooder {
                    count: 1,
                    target: ProcessId::new(1),
                }) as Box<dyn Process<u32>>
            } else {
                Box::new(Refuser)
            }
        });
        let trace = sim.run();
        assert_eq!(trace.stats().messages_sent, 1);
        assert_eq!(trace.stats().messages_duplicated, 1);
        assert_eq!(
            trace.stats().messages_to_crashed,
            2,
            "{}",
            trace.to_pretty_string()
        );
        assert!(trace.channels_drained());
    }

    #[test]
    fn link_model_drops_and_duplicates_at_send_time() {
        use crate::link::{FnLink, LinkVerdict as Verdict};

        // Scripted verdicts: drop the 1st send, duplicate the 2nd,
        // deliver the 3rd — the sim must count and deliver accordingly.
        let mut k = 0u32;
        let link = FnLink(move |_, _, _, _: &mut StdRng| {
            k += 1;
            match k {
                1 => Verdict::Drop,
                2 => Verdict::Duplicate(1, 2),
                _ => Verdict::Deliver(1),
            }
        });
        let sim = Sim::<u32>::builder(2).link(link).build(|pid| {
            if pid.index() == 0 {
                Box::new(Flooder {
                    count: 3,
                    target: ProcessId::new(1),
                }) as Box<dyn Process<u32>>
            } else {
                Box::new(Sink {
                    received: Vec::new(),
                })
            }
        });
        let trace = sim.run();
        let stats = trace.stats();
        assert_eq!(stats.messages_sent, 3);
        assert_eq!(stats.messages_dropped, 1);
        assert_eq!(stats.messages_duplicated, 1);
        // One send lost, one delivered twice, one delivered once.
        assert_eq!(stats.messages_delivered, 3);
        assert!(trace.channels_drained());
        let seqs: Vec<u64> = trace
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::Recv { msg, .. } => Some(msg.seq()),
                _ => None,
            })
            .collect();
        assert_eq!(seqs, vec![1, 1, 2], "dup copies arrive back to back");
    }

    #[test]
    fn healed_partition_drops_during_the_window_only() {
        use crate::link::{FaultyLink, PartitionSchedule};

        // p0 re-sends every 10 ticks; {p0 | p1} are split for [0, 35), so
        // the first sends are lost and later ones arrive.
        struct Resender;
        impl Process<u32> for Resender {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.send(ProcessId::new(1), 0);
                ctx.set_timer(10);
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: ProcessId, _: u32) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, u32>, _: TimerId) {
                ctx.send(ProcessId::new(1), 1);
                if ctx.now() < VirtualTime::from_ticks(60) {
                    ctx.set_timer(10);
                }
            }
        }
        let link = FaultyLink::new(FixedLatency(1)).partitions(PartitionSchedule::new().split(
            VirtualTime::ZERO,
            VirtualTime::from_ticks(35),
            &[ProcessId::new(0)],
        ));
        let sim = Sim::<u32>::builder(2).link(link).build(|pid| {
            if pid.index() == 0 {
                Box::new(Resender) as Box<dyn Process<u32>>
            } else {
                Box::new(Sink {
                    received: Vec::new(),
                })
            }
        });
        let trace = sim.run();
        let stats = trace.stats();
        // Sends at 0, 10, 20, 30 are severed; 40, 50, 60 get through.
        assert_eq!(stats.messages_dropped, 4, "{}", trace.to_pretty_string());
        assert_eq!(stats.messages_delivered, 3);
        assert_eq!(trace.stop_reason(), StopReason::Quiescent);
    }

    #[test]
    fn self_send_is_delivered() {
        struct SelfSender {
            got: bool,
        }
        impl Process<u32> for SelfSender {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                let me = ctx.id();
                ctx.send(me, 1);
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, from: ProcessId, _: u32) {
                assert_eq!(from.index(), 0);
                self.got = true;
            }
        }
        let sim = Sim::<u32>::builder(1).build(|_| Box::new(SelfSender { got: false }));
        let trace = sim.run();
        assert_eq!(trace.stats().messages_delivered, 1);
    }
}
