//! The router-serialized, event-driven threaded runtime.
//!
//! Processes run on a small pool of worker threads and exchange messages
//! through a router thread, but *time* is logical: the router owns a
//! hierarchical [`TimerWheel`] holding every pending deadline — channel
//! heads coming due, timer fires, scheduled fault-plan injections — and
//! advances its virtual clock directly to the next due instant whenever
//! nothing is in flight. Nothing ever sleeps through empty ticks, so a
//! run's wall-clock cost is proportional to the work it does, not to the
//! virtual span it covers.
//!
//! # The simulator's model
//!
//! The router holds the engine core the simulator drives (`engine.rs`):
//! channels, crash and detection flags, receive filters, the link seam,
//! message numbering and — when [`RuntimeConfig::record`] is on — the
//! trace recorder. It applies every reply's actions
//! through the core and files the deadlines the core announces on its
//! wheel. A channel has at most one head on the wheel, and its next head
//! is filed only once that one is admitted, so channels are FIFO under any
//! link delays, as on the simulator. What differs is the delay floor: a
//! zero-delay link or timer lands at the instant it was issued here, one
//! tick later on the simulator.
//!
//! # Workers and batches
//!
//! Each of the `W = available_parallelism().min(n)` workers owns the nodes
//! `k, k + W, k + 2W, …`: their processes, rngs and timer counters. Per
//! dispatch the router admits everything due at the instant, stages each
//! admitted delivery, timer fire and external into its owner's batch, in
//! admission order, and hands each busy worker one batch. The worker runs
//! the handlers back to back and answers with one reply holding each
//! call's actions, tagged by node, in execution order. A node belongs to
//! one worker and a worker runs its batches in the order they were sent,
//! so per-process order holds by construction.
//!
//! # Quiescence protocol
//!
//! The router tracks `outstanding`: the number of batches it has handed to
//! workers whose replies it has not yet received (every batch is answered,
//! even with no actions). Because the router is the only dispatcher, the
//! system is quiescent exactly when, in one router observation: the inbox
//! is empty, `outstanding == 0`, and the wheel holds no deadline.
//! [`Runtime::drain`] is a handshake against that single-threaded
//! judgement — no settle-polling, no grace windows.
//!
//! # Virtual-clock advancement
//!
//! The clock only advances while `outstanding == 0` and the inbox is
//! empty: any pending reply may schedule new work at the *current* instant,
//! so advancing earlier could fire a later deadline first. Delay-zero
//! follow-ups land at the same instant and are dispatched before the clock
//! moves again; once the event budget is spent nothing more is dispatched.

use crate::engine::{Classify, CrashRegistry, Due, EngineState, Hooks, Measure};
use crate::fault::{FaultPlan, Injection};
use crate::id::{ProcessId, TimerId};
use crate::link::LinkModel;
use crate::observe::EventSinkHandle;
use crate::process::{Action, Context, Process};
use crate::time::VirtualTime;
use crate::trace::{RunSummary, StopReason, Trace, TraceEvent};
use crate::wheel::TimerWheel;
use crossbeam::channel::{self, Receiver, Sender};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration for the threaded runtime.
pub struct RuntimeConfig<M = ()> {
    /// Seed feeding each node's deterministic rng (node `i` uses
    /// `seed + i`). Scheduling itself is real-concurrency nondeterminism.
    pub seed: u64,
    /// Optional faulty-network model: the simulator's link seam. The
    /// router consults it once per send, in send order, with its own
    /// seeded rng; verdict delays are virtual ticks on the router's wheel,
    /// so the *same* [`LinkModel`] drives both backends — what E10's
    /// transport-backed conformance leg relies on. `None` delivers every
    /// message at the instant it is sent.
    pub link: Option<Box<dyn LinkModel + Send>>,
    /// Whether the router keeps a trace. On (the default), every emitted
    /// event is kept and [`Runtime::shutdown`] returns them as a
    /// [`Trace`]. Off, no trace is ever built: every event is still
    /// numbered, counted against [`RuntimeConfig::max_events`] and
    /// offered to [`RuntimeConfig::sink`], and the run ends through
    /// [`Runtime::shutdown_unrecorded`], the runtime's twin of
    /// `Sim::run_unrecorded`. Payload `Debug` text is never rendered.
    pub record: bool,
    /// Optional classifier marking payloads as infrastructure (`true`)
    /// vs model-level application messages; see `SimBuilder::classify`.
    pub classify: Option<Classify<M>>,
    /// Optional wire-byte measure, charged to `SimStats::wire_bytes` once
    /// per send on the sender's side (duplicated and dropped copies are
    /// the network's doing); see `SimBuilder::measure`.
    pub measure: Option<Measure<M>>,
    /// Optional live crash view. When set, the router marks every crash
    /// in it — as the simulator marks its built-in registry — so
    /// oracle-configured processes (which poll a [`CrashRegistry`]) can
    /// run on real threads too.
    pub registry: Option<CrashRegistry>,
    /// Optional trace-event sink (see [`crate::observe::EventSink`]), as
    /// `SimBuilder::event_sink`: every event the router emits is handed,
    /// by reference, to the sink — the live feed the streaming sFS
    /// property monitors consume. Execution-neutral: the sink sees
    /// already-decided events and has no path back into scheduling.
    pub sink: Option<EventSinkHandle>,
    /// Scheduled crash/external injections, placed on the wheel at
    /// construction. Entries take the earliest insertion sequence numbers
    /// at their instants, so an injection at tick `T` is applied before
    /// any delivery or timer due at `T` — as the simulator pushes plan
    /// entries at build time.
    pub faults: FaultPlan<M>,
    /// Virtual-time horizon: the wheel never advances past it. Raw
    /// runtimes driven by hand default to [`VirtualTime::MAX`]
    /// (effectively unbounded); spec-driven runs wire their configured
    /// horizon here.
    pub max_time: VirtualTime,
    /// Event budget: once this many events have been emitted no further
    /// action is applied and the router dispatches nothing more, not even
    /// work due at the current instant. The backstop that bounds
    /// free-running systems — self-rearming heartbeats would otherwise
    /// burn CPU forever at virtual speed.
    pub max_events: usize,
}

impl<M> Default for RuntimeConfig<M> {
    fn default() -> Self {
        RuntimeConfig {
            seed: 0,
            link: None,
            record: true,
            classify: None,
            measure: None,
            registry: None,
            sink: None,
            faults: FaultPlan::new(),
            max_time: VirtualTime::MAX,
            max_events: 1_000_000,
        }
    }
}

impl<M: Clone + fmt::Debug> RuntimeConfig<M> {
    /// The rng node `pid`'s handlers draw from: seeded `seed + pid`.
    pub(crate) fn node_rng(&self, pid: ProcessId) -> StdRng {
        StdRng::seed_from_u64(self.seed.wrapping_add(pid.index() as u64))
    }

    /// The engine core this configuration describes for `n` processes,
    /// at the runtime's delay floor of zero and recording when `record`
    /// is on, and the two things its owner's wheel holds instead: the
    /// fault plan and the horizon.
    pub(crate) fn into_core(self, n: usize) -> (EngineState<M>, FaultPlan<M>, VirtualTime) {
        let hooks = Hooks {
            link: self.link.map(|link| link as Box<dyn LinkModel>),
            classify: self.classify,
            measure: self.measure,
            sink: self.sink,
            registry: self.registry.unwrap_or_else(|| CrashRegistry::new(n)),
            record_payloads: false,
            max_events: self.max_events,
        };
        // Link verdicts draw from their own seeded rng: node rngs are
        // independent, so link draws never perturb process behaviour.
        let rng = StdRng::seed_from_u64(self.seed ^ 0x11AC_C01D);
        let mut core = EngineState::new(n, 0, rng, hooks);
        if self.record {
            core.start_recording();
        }
        (core, self.faults, self.max_time)
    }
}

impl<M> fmt::Debug for RuntimeConfig<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RuntimeConfig")
            .field("seed", &self.seed)
            .field("has_link", &self.link.is_some())
            .field("record", &self.record)
            .field("has_sink", &self.sink.is_some())
            .field("faults", &self.faults.len())
            .field("max_time", &self.max_time)
            .field("max_events", &self.max_events)
            .finish()
    }
}

/// One handler call the router stages for a node.
enum Work<M> {
    Start,
    Message { from: ProcessId, msg: M },
    Timer { id: TimerId },
    External { payload: M },
}

/// One handover to a worker: its nodes' work at instant `at`, in
/// admission order.
struct Batch<M> {
    at: VirtualTime,
    items: Vec<(ProcessId, Work<M>)>,
}

enum ToRouter<M> {
    /// A worker's one reply to one batch: every handler call's actions,
    /// tagged by node, in execution order (calls that issued nothing are
    /// left out).
    Actions(Vec<(ProcessId, Vec<Action<M>>)>),
    /// A crash or stimulus injected by hand, applied at the router's
    /// current instant.
    Inject {
        pid: ProcessId,
        injection: Injection<M>,
    },
    /// Quiescence handshake: the router answers `true` the moment it
    /// observes genuine quiescence (empty inbox, no outstanding replies,
    /// empty wheel) and `false` the moment it stalls instead (deadlines
    /// remain but lie beyond the horizon or the event budget is spent).
    WaitQuiescent {
        reply: Sender<bool>,
    },
    Shutdown,
}

/// A running system of `n` processes on a pool of worker threads plus a
/// router thread.
///
/// Construct with [`Runtime::spawn`]; drive with
/// [`Runtime::inject_external`] and [`Runtime::crash`]; wait with
/// [`Runtime::drain`]; finish with [`Runtime::shutdown`], which returns
/// the recorded [`Trace`], or — when [`RuntimeConfig::record`] is off —
/// with [`Runtime::shutdown_unrecorded`], which returns how the run ended.
pub struct Runtime<M> {
    n: usize,
    to_router: Sender<ToRouter<M>>,
    router: Option<JoinHandle<RouterExit>>,
    workers: Vec<JoinHandle<()>>,
}

/// What the router thread hands back: how the run ended, and the events
/// when it recorded them.
type RouterExit = (RunSummary, Option<Vec<TraceEvent>>);

impl<M> fmt::Debug for Runtime<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runtime")
            .field("n", &self.n)
            .finish_non_exhaustive()
    }
}

/// Worker threads for `n` nodes: one per available core, never more than
/// there are nodes.
fn worker_count(n: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(n)
}

impl<M: Clone + fmt::Debug + Send + 'static> Runtime<M> {
    /// Builds the `n` processes (with `make`, in id order), hands them to
    /// the worker threads, and spawns the router.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn spawn<F>(n: usize, config: RuntimeConfig<M>, mut make: F) -> Self
    where
        F: FnMut(ProcessId) -> Box<dyn Process<M> + Send>,
    {
        assert!(n > 0, "a system needs at least one process");
        let w = worker_count(n);
        let mut slices: Vec<Vec<Node<M>>> = (0..w).map(|_| Vec::new()).collect();
        for pid in ProcessId::all(n) {
            slices[pid.index() % w].push(Node {
                pid,
                process: make(pid),
                rng: config.node_rng(pid),
                // Namespace timer ids by process so they are globally unique.
                next_timer: (pid.index() as u64) << 40,
            });
        }
        let (to_router, router_rx) = channel::unbounded::<ToRouter<M>>();
        let mut batch_txs = Vec::with_capacity(w);
        let workers = slices
            .into_iter()
            .enumerate()
            .map(|(k, nodes)| {
                let (tx, rx) = channel::unbounded::<Batch<M>>();
                batch_txs.push(tx);
                let to_router = to_router.clone();
                std::thread::Builder::new()
                    .name(format!("worker-{k}"))
                    .spawn(move || worker_main(n, w, nodes, rx, to_router))
                    .expect("spawn worker thread")
            })
            .collect();
        let router = std::thread::Builder::new()
            .name("router".to_owned())
            .spawn(move || router_main(n, config, router_rx, batch_txs))
            .expect("spawn router thread");
        Runtime {
            n,
            to_router,
            router: Some(router),
            workers,
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// A cloneable, `Send` handle for injecting stimuli from other
    /// threads while this runtime keeps running — the concurrent twin of
    /// [`Runtime::inject_external`] / [`Runtime::crash`].
    pub fn injector(&self) -> Injector<M> {
        Injector {
            to_router: self.to_router.clone(),
        }
    }

    /// Delivers an external stimulus to `pid` (e.g. a forced suspicion).
    /// It is applied at whatever virtual instant the router's clock has
    /// reached when the injection is handled; scripted injections at
    /// exact virtual times belong in [`RuntimeConfig::faults`].
    pub fn inject_external(&self, pid: ProcessId, payload: M) {
        send_injection(&self.to_router, pid, Injection::External(payload));
    }

    /// Crashes `pid` permanently, at the router's current virtual
    /// instant. Scripted crashes at exact virtual times belong in
    /// [`RuntimeConfig::faults`].
    pub fn crash(&self, pid: ProcessId) {
        send_injection(&self.to_router, pid, Injection::Crash);
    }

    /// Blocks until the system is **quiescent** — the router observed, in
    /// one step, an empty inbox, zero outstanding worker replies, and an
    /// empty wheel — or until the run can no longer progress, or until
    /// `timeout` elapses. Returns whether genuine quiescence was reached.
    ///
    /// A `true` guarantees the trace a subsequent [`Runtime::shutdown`]
    /// returns is *maximal*: no recorded receive is missing its handler's
    /// effects, and the run is comparable to a
    /// [`Quiescent`](StopReason::Quiescent) simulator run. Systems with
    /// self-rearming timers (heartbeats, oracle polls) never quiesce;
    /// for them this returns `false` as soon as the run stalls at its
    /// horizon or event budget (or when `timeout` elapses, whichever
    /// comes first).
    pub fn drain(&self, timeout: Duration) -> bool {
        let (reply, done) = channel::unbounded();
        if self
            .to_router
            .send(ToRouter::WaitQuiescent { reply })
            .is_err()
        {
            return false;
        }
        done.recv_timeout(timeout).unwrap_or(false)
    }

    /// Stops all threads and returns the recorded trace.
    ///
    /// # Panics
    ///
    /// Panics if the runtime was spawned with [`RuntimeConfig::record`]
    /// off — it built no trace and ends through
    /// [`Runtime::shutdown_unrecorded`] — or if the router thread or a
    /// worker thread (that is, a process handler) panicked.
    pub fn shutdown(self) -> Trace {
        let n = self.n;
        let (run, events) = self.stop();
        let events = events.expect("an unrecorded runtime ends with `shutdown_unrecorded`");
        Trace::from_parts(n, events, run.stop, run.end_time, run.stats)
    }

    /// Stops all threads and returns how the run ended — everything
    /// [`Runtime::shutdown`]'s trace carries but the events, which went
    /// only to [`RuntimeConfig::sink`]. The end of a runtime spawned with
    /// [`RuntimeConfig::record`] off, as `Sim::run_unrecorded` is the
    /// simulator's; a recorded runtime's events are discarded.
    ///
    /// # Panics
    ///
    /// Panics if the router thread or a worker thread panicked.
    pub fn shutdown_unrecorded(self) -> RunSummary {
        self.stop().0
    }

    fn stop(mut self) -> RouterExit {
        let _ = self.to_router.send(ToRouter::Shutdown);
        let exit = self
            .router
            .take()
            .expect("router already joined")
            .join()
            .expect("router panicked");
        // The router dropped its batch senders on exit, so every worker
        // has finished its last batch and returned.
        for worker in self.workers.drain(..) {
            worker.join().expect("a process handler panicked");
        }
        exit
    }
}

/// Hands a crash or stimulus to the router; dropped after shutdown.
fn send_injection<M>(to_router: &Sender<ToRouter<M>>, pid: ProcessId, injection: Injection<M>) {
    let _ = to_router.send(ToRouter::Inject { pid, injection });
}

/// A cloneable handle for injecting stimuli into a running [`Runtime`]
/// from arbitrary threads; obtained via [`Runtime::injector`]. Injections
/// land at whatever virtual instant the router's clock has reached when
/// they are handled — scripted injections at exact virtual times belong
/// in [`RuntimeConfig::faults`]. Sends after shutdown are silently
/// dropped.
pub struct Injector<M> {
    to_router: Sender<ToRouter<M>>,
}

impl<M> Clone for Injector<M> {
    fn clone(&self) -> Self {
        Injector {
            to_router: self.to_router.clone(),
        }
    }
}

impl<M> fmt::Debug for Injector<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Injector").finish_non_exhaustive()
    }
}

impl<M> Injector<M> {
    /// Delivers an external stimulus to `pid`; see
    /// [`Runtime::inject_external`].
    pub fn inject_external(&self, pid: ProcessId, payload: M) {
        send_injection(&self.to_router, pid, Injection::External(payload));
    }

    /// Crashes `pid` permanently; see [`Runtime::crash`].
    pub fn crash(&self, pid: ProcessId) {
        send_injection(&self.to_router, pid, Injection::Crash);
    }
}

/// A process as its worker holds it, with the rng and timer counter each
/// handler's [`Context`] borrows.
struct Node<M> {
    pid: ProcessId,
    process: Box<dyn Process<M> + Send>,
    rng: StdRng,
    next_timer: u64,
}

impl<M> Node<M> {
    /// Runs one handler on a fresh context and appends what it issued to
    /// `reply`.
    fn run(
        &mut self,
        n: usize,
        at: VirtualTime,
        work: Work<M>,
        reply: &mut Vec<(ProcessId, Vec<Action<M>>)>,
    ) {
        let mut ctx = Context::new(self.pid, n, at, &mut self.rng, &mut self.next_timer);
        match work {
            Work::Start => self.process.on_start(&mut ctx),
            Work::Message { from, msg } => self.process.on_message(&mut ctx, from, msg),
            Work::Timer { id } => self.process.on_timer(&mut ctx, id),
            Work::External { payload } => self.process.on_external(&mut ctx, payload),
        }
        let actions = ctx.take_actions();
        if !actions.is_empty() {
            reply.push((self.pid, actions));
        }
    }
}

/// A worker's loop: run each batch's handlers in order, answer with one
/// reply per batch — the router's `outstanding` count, and with it the
/// whole quiescence protocol, depends on it. Exits when the router drops
/// its sender. Node `pid` sits at `nodes[pid / w]`.
fn worker_main<M>(
    n: usize,
    w: usize,
    mut nodes: Vec<Node<M>>,
    rx: Receiver<Batch<M>>,
    to_router: Sender<ToRouter<M>>,
) {
    while let Ok(Batch { at, items }) = rx.recv() {
        let mut reply = Vec::new();
        for (pid, work) in items {
            nodes[pid.index() / w].run(n, at, work, &mut reply);
        }
        let _ = to_router.send(ToRouter::Actions(reply));
    }
}

struct RouterState<M> {
    core: EngineState<M>,
    /// Every pending deadline — channel heads, timer fires, plan
    /// injections.
    wheel: TimerWheel<Due<M>>,
    /// Batches handed to workers whose replies are still pending.
    outstanding: u64,
    /// [`ToRouter::WaitQuiescent`] callers waiting for the next
    /// quiescence-or-stall observation.
    waiters: Vec<Sender<bool>>,
    max_time: VirtualTime,
    /// One batch sender per worker; worker `k` owns the nodes `pid` with
    /// `pid % workers.len() == k`.
    workers: Vec<Sender<Batch<M>>>,
    /// Per-worker work admitted since the last `flush`, in admission order.
    staged: Vec<Vec<(ProcessId, Work<M>)>>,
}

impl<M: Clone + fmt::Debug + Send + 'static> RouterState<M> {
    /// Queues one handler call for `pid`'s worker; `flush` hands it over.
    fn stage(&mut self, pid: ProcessId, work: Work<M>) {
        self.staged[pid.index() % self.workers.len()].push((pid, work));
    }

    /// Hands every busy worker its staged work as one batch at the
    /// current instant, each batch counting once toward `outstanding`.
    fn flush(&mut self) {
        let at = self.core.now;
        for (tx, staged) in self.workers.iter().zip(&mut self.staged) {
            if staged.is_empty() {
                continue;
            }
            if staged.len() > 1 {
                self.core.stats.delivery_batches += 1;
            }
            self.outstanding += 1;
            let items = std::mem::take(staged);
            let _ = tx.send(Batch { at, items });
        }
    }

    /// Applies an injection through the core, staging the stimulus's
    /// handler unless the target has crashed.
    fn inject(&mut self, pid: ProcessId, injection: Injection<M>) {
        if let Some(payload) = self.core.admit_injection(pid, injection) {
            self.stage(pid, Work::External { payload });
        }
    }

    /// Admits one due wheel entry through the core and stages its handler
    /// call, unless the core dissolved it (crashed target, cancelled
    /// timer, refused head). Plan entries hold the earliest sequence
    /// numbers at their instant, so they precede every same-instant
    /// admission. Admission order IS trace order.
    fn admit(&mut self, due: Due<M>) {
        match due {
            Due::Head { from, to } => {
                if let Some(msg) = self.core.admit_head(from, to, &mut self.wheel) {
                    self.stage(to, Work::Message { from, msg });
                }
            }
            Due::Fire { pid, id } => {
                if self.core.admit_timer(pid, id) {
                    self.stage(pid, Work::Timer { id });
                }
            }
            Due::Plan { pid, injection } => self.inject(pid, injection),
        }
    }

    /// Advances the wheel to `at` and admits everything due by then, in
    /// wheel (deadline, seq) order — including the channel heads those
    /// admissions file at the instant, so a channel's same-instant backlog
    /// goes out in one batch. Returns whether anything was due.
    fn dispatch(&mut self, at: VirtualTime) -> bool {
        let mut any = false;
        loop {
            let due = self.wheel.advance_to(at);
            self.core.now = self.wheel.now();
            if due.is_empty() {
                return any;
            }
            any = true;
            for (_, item) in due {
                self.admit(item);
            }
        }
    }

    /// Whether the wheel may keep advancing: the horizon is ahead and the
    /// event budget is not spent.
    fn may_advance_to(&self, d: VirtualTime) -> bool {
        d <= self.max_time && !self.core.budget_spent()
    }

    /// Answers every parked drain caller with the current judgement.
    fn notify_waiters(&mut self, quiescent: bool) {
        for waiter in self.waiters.drain(..) {
            let _ = waiter.send(quiescent);
        }
    }

    /// Processes one inbox message; returns `true` on shutdown.
    fn handle(&mut self, msg: ToRouter<M>) -> bool {
        match msg {
            ToRouter::Actions(reply) => {
                debug_assert!(self.outstanding > 0);
                self.outstanding -= 1;
                for (from, actions) in reply {
                    self.core.apply(from, actions, &mut self.wheel);
                }
            }
            ToRouter::Inject { pid, injection } => self.inject(pid, injection),
            ToRouter::WaitQuiescent { reply } => self.waiters.push(reply),
            ToRouter::Shutdown => return true,
        }
        false
    }
}

fn router_main<M: Clone + fmt::Debug + Send + 'static>(
    n: usize,
    config: RuntimeConfig<M>,
    rx: Receiver<ToRouter<M>>,
    workers: Vec<Sender<Batch<M>>>,
) -> RouterExit {
    let (core, faults, max_time) = config.into_core(n);
    let mut state = RouterState {
        core,
        wheel: TimerWheel::new(),
        outstanding: 0,
        waiters: Vec::new(),
        max_time,
        staged: workers.iter().map(|_| Vec::new()).collect(),
        workers,
    };
    // Plan entries go on the wheel before anything else so they hold the
    // earliest insertion seqs at their instants: an injection at tick T is
    // applied before any delivery or timer due at T.
    for (at, pid, injection) in faults.into_items() {
        state.wheel.insert(at, Due::Plan { pid, injection });
    }
    // As on the simulator, every `on_start` takes effect before the first
    // event: a receive filter set there must already guard the first
    // admission.
    for pid in ProcessId::all(n) {
        state.stage(pid, Work::Start);
    }
    state.flush();
    let mut shutdown = false;
    while state.outstanding > 0 && !shutdown {
        shutdown = rx.recv().map_or(true, |msg| state.handle(msg));
    }
    while !shutdown {
        // 1. Drain the inbox without blocking: replies retire outstanding
        // counts and schedule follow-up work; injections apply at the
        // current instant.
        loop {
            match rx.try_recv() {
                Ok(msg) => {
                    if state.handle(msg) {
                        shutdown = true;
                        break;
                    }
                }
                Err(channel::TryRecvError::Empty) => break,
                Err(channel::TryRecvError::Disconnected) => {
                    shutdown = true;
                    break;
                }
            }
        }
        if shutdown {
            break;
        }
        // 2. Admit everything due at the current instant (delay-zero
        // follow-ups from the replies just drained land here) unless the
        // event budget is spent, then hand each busy worker its batch.
        let now = state.core.now;
        let admitted = !state.core.budget_spent() && state.dispatch(now);
        state.flush();
        if admitted {
            continue;
        }
        // 3. Replies outstanding: the clock must hold (a pending reply may
        // schedule work at the current instant). Block for one.
        if state.outstanding > 0 {
            shutdown = rx.recv().map_or(true, |msg| state.handle(msg));
            continue;
        }
        // 4. Idle at this instant: advance the clock to the next due
        // deadline, or conclude quiescence/stall and park.
        match state.wheel.next_deadline() {
            Some(d) if state.may_advance_to(d) => {
                state.dispatch(d);
                state.flush();
            }
            next => {
                // Genuinely quiescent (nothing scheduled at all, and no
                // action dropped at the budget) or stalled (deadlines
                // beyond the horizon / event budget spent). Either way the
                // run cannot progress on its own: answer drain callers and
                // park until an injection or shutdown arrives.
                let quiescent = next.is_none() && !state.core.budget_spent();
                state.notify_waiters(quiescent);
                shutdown = rx.recv().map_or(true, |msg| state.handle(msg));
            }
        }
    }
    // Work staged but never handed over is still pending work; the stop
    // reasons are judged in the simulator's order.
    let idle = state.outstanding == 0 && state.staged.iter().all(Vec::is_empty);
    let stop = if state.core.budget_spent() {
        StopReason::MaxEvents
    } else if state.core.all_crashed() {
        StopReason::AllCrashed
    } else if state.wheel.is_empty() && idle {
        StopReason::Quiescent
    } else {
        StopReason::MaxTime
    };
    let run = RunSummary {
        stop,
        end_time: state.core.now,
        stats: state.core.stats,
        events: state.core.emitted,
    };
    // Dropping the state drops the batch senders: every worker returns.
    (run, state.core.recorder.take())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::FixedLatency;
    use crate::process::Process;
    use crate::trace::TraceEventKind;
    use std::sync::{Arc, Mutex};

    #[derive(Clone, Debug)]
    enum Msg {
        Ping,
        Pong,
    }

    struct PingPong {
        is_pinger: bool,
        rounds: u32,
    }

    impl Process<Msg> for PingPong {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            if self.is_pinger {
                ctx.send(ProcessId::new(1), Msg::Ping);
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: ProcessId, msg: Msg) {
            match msg {
                Msg::Ping => ctx.send(from, Msg::Pong),
                Msg::Pong => {
                    self.rounds += 1;
                    if self.rounds < 5 {
                        ctx.send(from, Msg::Ping);
                    }
                }
            }
        }
    }

    #[test]
    fn ping_pong_round_trips() {
        let rt = Runtime::spawn(2, RuntimeConfig::default(), |pid| {
            Box::new(PingPong {
                is_pinger: pid.index() == 0,
                rounds: 0,
            })
        });
        assert!(rt.drain(Duration::from_secs(5)), "ping-pong must quiesce");
        let trace = rt.shutdown();
        // 5 pings and 5 pongs.
        assert_eq!(
            trace.stats().messages_sent,
            10,
            "{}",
            trace.to_pretty_string()
        );
        assert_eq!(trace.stats().messages_delivered, 10);
        assert_eq!(trace.stop_reason(), StopReason::Quiescent);
    }

    #[test]
    fn crash_stops_deliveries() {
        struct Chatter;
        impl Process<Msg> for Chatter {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(10);
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: ProcessId, _: Msg) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _: TimerId) {
                ctx.broadcast(Msg::Ping, false);
                ctx.set_timer(10);
            }
        }
        let config = RuntimeConfig {
            max_time: VirtualTime::from_ticks(200),
            ..RuntimeConfig::default()
        };
        let rt = Runtime::spawn(2, config, |_| Box::new(Chatter));
        rt.crash(ProcessId::new(1));
        assert!(!rt.drain(Duration::from_secs(5)), "chatter never quiesces");
        let trace = rt.shutdown();
        let crash_seq = trace
            .events()
            .iter()
            .find_map(|e| match e.kind {
                TraceEventKind::Crash { pid } if pid == ProcessId::new(1) => Some(e.seq),
                _ => None,
            })
            .expect("crash recorded");
        for e in trace.events() {
            if e.seq > crash_seq {
                if let TraceEventKind::Recv { by, .. } = e.kind {
                    assert_ne!(by, ProcessId::new(1), "delivery to crashed process");
                }
            }
        }
    }

    #[test]
    fn router_keeps_channel_fifo_under_random_latency() {
        // 200 sends on one channel over a 1–10 tick link: the link draws
        // each copy's delay independently, and the channel still hands
        // them over in send order.
        struct Burst;
        impl Process<u32> for Burst {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                if ctx.id().index() == 0 {
                    for k in 0..200 {
                        ctx.send(ProcessId::new(1), k);
                    }
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: ProcessId, _: u32) {}
        }
        let config = RuntimeConfig {
            link: Some(Box::new(crate::latency::UniformLatency::new(1, 10))),
            ..RuntimeConfig::default()
        };
        let rt = Runtime::spawn(2, config, |_| Box::new(Burst));
        assert!(rt.drain(Duration::from_secs(5)), "must quiesce");
        let trace = rt.shutdown();
        let received: Vec<u64> = trace
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::Recv { msg, .. } => Some(msg.seq()),
                _ => None,
            })
            .collect();
        assert_eq!(received, (0..200).collect::<Vec<u64>>());
    }

    #[test]
    fn receive_filter_parks_and_drains_in_fifo_order() {
        use crate::process::ReceiveFilter;

        // p1 refuses odd payloads until it sees 100 from p2; p0's odd
        // message parks its whole channel (FIFO), and everything drains in
        // order once the filter lifts.
        struct Sender(u32);
        impl Process<u32> for Sender {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                if self.0 == 0 {
                    ctx.send(ProcessId::new(1), 2);
                    ctx.send(ProcessId::new(1), 3); // parked
                    ctx.send(ProcessId::new(1), 6); // queues behind 3
                } else if self.0 == 2 {
                    ctx.set_timer(150); // fires long after p0's sends
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: ProcessId, _: u32) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, u32>, _: TimerId) {
                ctx.send(ProcessId::new(1), 100);
            }
        }
        struct Picky;
        impl Process<u32> for Picky {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.set_receive_filter(Some(ReceiveFilter::new(|m: &u32| m.is_multiple_of(2))));
            }
            fn on_message(&mut self, ctx: &mut Context<'_, u32>, _: ProcessId, msg: u32) {
                if msg == 100 {
                    ctx.set_receive_filter(None);
                }
            }
        }
        let rt = Runtime::spawn(3, RuntimeConfig::default(), |pid| {
            if pid.index() == 1 {
                Box::new(Picky) as Box<dyn Process<u32> + Send>
            } else {
                Box::new(Sender(pid.index() as u32))
            }
        });
        assert!(rt.drain(Duration::from_secs(5)), "must quiesce");
        let trace = rt.shutdown();
        // All four messages delivered; p0's arrive at p1 in FIFO order.
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
        assert_eq!(
            from_p0,
            vec![0, 1, 2],
            "FIFO preserved through router parking"
        );
    }

    #[test]
    fn parked_messages_to_a_crashed_receiver_count_as_consumed() {
        use crate::process::ReceiveFilter;
        // p1 refuses everything, so p0's two messages sit in the router's
        // parked map; the fault plan then crashes p1. The parked copies
        // must be consumed as messages_to_crashed (the filter is frozen
        // forever) so the finished run reports its channels drained.
        struct S(usize);
        impl Process<u32> for S {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                if self.0 == 0 {
                    ctx.send(ProcessId::new(1), 7);
                    ctx.send(ProcessId::new(1), 8);
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: ProcessId, _: u32) {}
        }
        struct Refuser;
        impl Process<u32> for Refuser {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.set_receive_filter(Some(ReceiveFilter::new(|_: &u32| false)));
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: ProcessId, _: u32) {}
        }
        let config: RuntimeConfig<u32> = RuntimeConfig {
            faults: FaultPlan::new().crash_at(ProcessId::new(1), VirtualTime::from_ticks(20)),
            ..RuntimeConfig::default()
        };
        let rt = Runtime::spawn(2, config, |pid| {
            if pid.index() == 0 {
                Box::new(S(0)) as Box<dyn Process<u32> + Send>
            } else {
                Box::new(Refuser)
            }
        });
        assert!(rt.drain(Duration::from_secs(5)), "must quiesce");
        let trace = rt.shutdown();
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
        use crate::latency::FixedLatency;
        use crate::link::{FaultyLink, PartitionSchedule};
        // The router consults the link once per send (tick 0); the link
        // is severed from tick 1 forever. Both duplicate copies are
        // already in flight on the wheel and must deliver across the cut,
        // leaving the accounting balanced.
        struct S(usize);
        impl Process<u32> for S {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                if self.0 == 0 {
                    ctx.send(ProcessId::new(1), 7);
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: ProcessId, _: u32) {}
        }
        let link = FaultyLink::new(FixedLatency(30)).duplicate(1.0).partitions(
            PartitionSchedule::new().split(
                VirtualTime::from_ticks(1),
                VirtualTime::MAX,
                &[ProcessId::new(0)],
            ),
        );
        let config: RuntimeConfig<u32> = RuntimeConfig {
            link: Some(Box::new(link)),
            ..RuntimeConfig::default()
        };
        let rt = Runtime::spawn(2, config, |pid| Box::new(S(pid.index())));
        assert!(rt.drain(Duration::from_secs(5)), "must quiesce");
        let trace = rt.shutdown();
        assert_eq!(trace.stats().messages_sent, 1);
        assert_eq!(trace.stats().messages_duplicated, 1);
        assert_eq!(
            trace.stats().messages_delivered,
            2,
            "{}",
            trace.to_pretty_string()
        );
        assert!(trace.channels_drained());
        for e in trace.events() {
            if matches!(e.kind, TraceEventKind::Recv { .. }) {
                assert!(e.time >= VirtualTime::from_ticks(1), "{e}");
            }
        }
    }

    #[test]
    fn drain_detects_quiescence_and_timers_prevent_it() {
        // Ping-pong quiesces after 5 rounds: drain must see it without
        // needing the full window, and the resulting trace is coherent
        // (every delivered message's effects included).
        let rt = Runtime::spawn(2, RuntimeConfig::default(), |pid| {
            Box::new(PingPong {
                is_pinger: pid.index() == 0,
                rounds: 0,
            })
        });
        assert!(rt.drain(Duration::from_secs(5)), "ping-pong must quiesce");
        let trace = rt.shutdown();
        assert_eq!(trace.stats().messages_sent, 10);
        assert_eq!(trace.stats().messages_delivered, 10);
        assert!(trace.channels_drained());

        // A self-rearming timer never quiesces: drain must say so. With a
        // small event budget the run stalls quickly and drain answers
        // false well before its timeout.
        struct Ticker;
        impl Process<Msg> for Ticker {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(10);
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: ProcessId, _: Msg) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _: TimerId) {
                ctx.set_timer(10);
            }
        }
        let config = RuntimeConfig {
            max_events: 500,
            ..RuntimeConfig::default()
        };
        let rt = Runtime::spawn(1, config, |_| Box::new(Ticker));
        assert!(!rt.drain(Duration::from_secs(5)));
        let trace = rt.shutdown();
        assert_eq!(trace.stop_reason(), StopReason::MaxEvents);
    }

    #[test]
    fn horizon_caps_virtual_time() {
        // A perpetual ticker under a virtual-time horizon: the run stalls
        // exactly at the last firing within the horizon and the clock
        // never passes it.
        struct Ticker;
        impl Process<Msg> for Ticker {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(10);
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: ProcessId, _: Msg) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _: TimerId) {
                ctx.set_timer(10);
            }
        }
        let config = RuntimeConfig {
            max_time: VirtualTime::from_ticks(95),
            ..RuntimeConfig::default()
        };
        let rt = Runtime::spawn(1, config, |_| Box::new(Ticker));
        assert!(!rt.drain(Duration::from_secs(5)), "ticker never quiesces");
        let trace = rt.shutdown();
        assert_eq!(trace.stop_reason(), StopReason::MaxTime);
        assert_eq!(trace.stats().timers_fired, 9, "fires at 10, 20, ..., 90");
        assert!(trace.end_time() <= VirtualTime::from_ticks(95));
    }

    #[test]
    fn router_marks_crashes_in_the_shared_registry() {
        let registry = CrashRegistry::new(2);
        let config = RuntimeConfig {
            registry: Some(registry.clone()),
            ..RuntimeConfig::default()
        };
        let rt = Runtime::spawn(2, config, |pid| {
            Box::new(PingPong {
                is_pinger: pid.index() == 0,
                rounds: 0,
            })
        });
        assert!(!registry.is_crashed(ProcessId::new(1)));
        rt.crash(ProcessId::new(1));
        assert!(rt.drain(Duration::from_secs(5)), "must quiesce");
        let trace = rt.shutdown();
        assert!(trace.crashed().contains(&ProcessId::new(1)));
        assert!(registry.is_crashed(ProcessId::new(1)));
        assert_eq!(registry.iter_crashed().count(), 1);
    }

    #[test]
    fn fault_plan_entries_fire_on_the_wheel() {
        // A scripted crash at tick 25 lands at virtual 25 exactly, between
        // the tick-20 and tick-30 broadcasts — deterministically, with no
        // wall clock involved.
        struct Chatter;
        impl Process<Msg> for Chatter {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(10);
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: ProcessId, _: Msg) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _: TimerId) {
                ctx.broadcast(Msg::Ping, false);
                ctx.set_timer(10);
            }
        }
        let config: RuntimeConfig<Msg> = RuntimeConfig {
            faults: FaultPlan::new().crash_at(ProcessId::new(1), VirtualTime::from_ticks(25)),
            max_time: VirtualTime::from_ticks(60),
            ..RuntimeConfig::default()
        };
        let rt = Runtime::spawn(2, config, |_| Box::new(Chatter));
        assert!(!rt.drain(Duration::from_secs(5)), "chatter never quiesces");
        let trace = rt.shutdown();
        let crash = trace
            .events()
            .iter()
            .find(|e| matches!(e.kind, TraceEventKind::Crash { pid } if pid == ProcessId::new(1)))
            .expect("crash recorded");
        assert_eq!(crash.time, VirtualTime::from_ticks(25));
        // No event at tick 26+ involves the victim; in particular nothing
        // is delivered to it and it fires no timers after the crash.
        for e in trace.events() {
            if e.time > VirtualTime::from_ticks(25) {
                match e.kind {
                    TraceEventKind::Recv { by, .. } => assert_ne!(by, ProcessId::new(1)),
                    TraceEventKind::TimerFired { pid, .. } => assert_ne!(pid, ProcessId::new(1)),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn batched_router_coalesces_and_preserves_fifo() {
        // Every node floods every node (itself included) behind a fixed
        // 3-tick link and echoes each message while it has hops left, so
        // each instant hands a worker many events per node. Each node logs
        // what it handled: the log must equal the trace's admission order
        // for that node (per-process order), its send tags must equal the
        // router's message ids (actions applied in execution order), and
        // each channel must deliver in send order (FIFO). The sizes cover
        // fewer nodes than cores, as many, and counts the workers do not
        // divide evenly.
        type Log = Arc<Mutex<Vec<(ProcessId, u64)>>>;
        struct Flood {
            sent: u64,
            log: Log,
        }
        impl Flood {
            fn send(&mut self, ctx: &mut Context<'_, (u64, u32)>, to: ProcessId, hops: u32) {
                ctx.send(to, (self.sent, hops));
                self.sent += 1;
            }
        }
        impl Process<(u64, u32)> for Flood {
            fn on_start(&mut self, ctx: &mut Context<'_, (u64, u32)>) {
                for _ in 0..8 {
                    for to in ProcessId::all(ctx.n()) {
                        self.send(ctx, to, 2);
                    }
                }
            }
            fn on_message(
                &mut self,
                ctx: &mut Context<'_, (u64, u32)>,
                from: ProcessId,
                (tag, hops): (u64, u32),
            ) {
                self.log.lock().unwrap().push((from, tag));
                if hops > 0 {
                    self.send(ctx, from, hops - 1);
                }
            }
        }
        for n in [1, 2, 3, 5, 17] {
            let logs: Vec<Log> = (0..n).map(|_| Log::default()).collect();
            let config = RuntimeConfig {
                link: Some(Box::new(FixedLatency(3))),
                ..RuntimeConfig::default()
            };
            let rt = Runtime::spawn(n, config, |pid| {
                Box::new(Flood {
                    sent: 0,
                    log: logs[pid.index()].clone(),
                })
            });
            assert!(
                rt.drain(Duration::from_secs(10)),
                "n={n}: flood must quiesce"
            );
            let trace = rt.shutdown();
            assert_eq!(
                trace.stats().messages_delivered,
                24 * (n * n) as u64,
                "n={n}"
            );
            for (p, log) in logs.iter().enumerate() {
                let admitted: Vec<(ProcessId, u64)> = trace
                    .events()
                    .iter()
                    .filter_map(|e| match e.kind {
                        TraceEventKind::Recv { by, from, msg, .. } if by.index() == p => {
                            Some((from, msg.seq()))
                        }
                        _ => None,
                    })
                    .collect();
                assert_eq!(*log.lock().unwrap(), admitted, "n={n}: p{p} handling order");
                let mut last = vec![None; n];
                for (from, seq) in admitted {
                    assert!(last[from.index()] < Some(seq), "n={n}: FIFO {from}->p{p}");
                    last[from.index()] = Some(seq);
                }
            }
            assert!(
                trace.stats().delivery_batches >= 1,
                "n={n}: a same-instant flood must actually coalesce; stats: {:?}",
                trace.stats()
            );
        }
    }

    #[test]
    fn crash_self_mid_batch_drops_only_the_crashers_later_actions() {
        // p0 sends to the victim and its worker-mate alternately behind a
        // fixed link, so all ten deliveries reach their one worker as one
        // batch. Both echo every message; the victim crashes on its third.
        // Its later echoes in that batch are dropped, while the mate's —
        // interleaved after the crash in the same reply — all apply.
        struct Source(ProcessId, ProcessId);
        impl Process<u32> for Source {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                for k in 0..5 {
                    ctx.send(self.0, k);
                    ctx.send(self.1, k);
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: ProcessId, _: u32) {}
        }
        struct Echo {
            crash_at: Option<u32>,
        }
        impl Process<u32> for Echo {
            fn on_start(&mut self, _: &mut Context<'_, u32>) {}
            fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: ProcessId, k: u32) {
                ctx.send(from, k);
                if self.crash_at == Some(k) {
                    ctx.crash_self();
                }
            }
        }
        let w = worker_count(usize::MAX);
        let (victim, mate) = (ProcessId::new(1), ProcessId::new(1 + w));
        let config = RuntimeConfig {
            link: Some(Box::new(FixedLatency(5))),
            ..RuntimeConfig::default()
        };
        let rt = Runtime::spawn(2 + w, config, |pid| {
            if pid.index() == 0 {
                Box::new(Source(victim, mate)) as Box<dyn Process<u32> + Send>
            } else {
                Box::new(Echo {
                    crash_at: (pid == victim).then_some(2),
                })
            }
        });
        assert!(rt.drain(Duration::from_secs(5)), "must quiesce");
        let trace = rt.shutdown();
        assert_eq!(trace.crashed(), vec![victim]);
        let crash_seq = trace
            .events()
            .iter()
            .find(|e| matches!(e.kind, TraceEventKind::Crash { .. }))
            .expect("crash recorded")
            .seq;
        let sends_by = |p: ProcessId, after_crash: bool| {
            trace
                .events()
                .iter()
                .filter(|e| !after_crash || e.seq > crash_seq)
                .filter(|e| matches!(e.kind, TraceEventKind::Send { from, .. } if from == p))
                .count()
        };
        assert_eq!(sends_by(victim, false), 3, "{}", trace.to_pretty_string());
        assert_eq!(sends_by(mate, false), 5, "{}", trace.to_pretty_string());
        assert_eq!(sends_by(mate, true), 3, "{}", trace.to_pretty_string());
    }

    #[test]
    fn event_budget_holds_within_an_instant() {
        // A zero-delay echo never leaves instant 0, so only a budget check
        // inside the instant can stop it: drain must report the stall long
        // before its timeout, with the trace close to the budget.
        struct Echo;
        impl Process<Msg> for Echo {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.send(ProcessId::new(1 - ctx.id().index()), Msg::Ping);
            }
            fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: ProcessId, msg: Msg) {
                ctx.send(from, msg);
            }
        }
        let config = RuntimeConfig {
            max_events: 1_000,
            ..RuntimeConfig::default()
        };
        let rt = Runtime::spawn(2, config, |_| Box::new(Echo));
        let started = std::time::Instant::now();
        assert!(!rt.drain(Duration::from_secs(10)), "an echo never quiesces");
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "{:?}",
            started.elapsed()
        );
        let trace = rt.shutdown();
        assert!(
            trace.events().len() < 2_000,
            "{} events",
            trace.events().len()
        );
        assert_eq!(trace.stop_reason(), StopReason::MaxEvents);
    }

    #[test]
    fn router_link_model_drops_and_duplicates() {
        use crate::link::{FnLink, LinkVerdict as Verdict};

        // Scripted verdicts, mirroring the sim test: drop the 1st send,
        // duplicate the 2nd, deliver the rest.
        struct Flood;
        impl Process<u32> for Flood {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                for k in 0..3u32 {
                    ctx.send(ProcessId::new(1), k);
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: ProcessId, _: u32) {}
        }
        struct Quiet;
        impl Process<u32> for Quiet {
            fn on_start(&mut self, _: &mut Context<'_, u32>) {}
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: ProcessId, _: u32) {}
        }
        let mut k = 0u32;
        let config = RuntimeConfig {
            link: Some(Box::new(FnLink(move |_, _, _, _: &mut StdRng| {
                k += 1;
                match k {
                    1 => Verdict::Drop,
                    2 => Verdict::Duplicate(1, 2),
                    _ => Verdict::Deliver(1),
                }
            }))),
            ..RuntimeConfig::default()
        };
        let rt = Runtime::spawn(2, config, |pid| {
            if pid.index() == 0 {
                Box::new(Flood) as Box<dyn Process<u32> + Send>
            } else {
                Box::new(Quiet)
            }
        });
        assert!(rt.drain(Duration::from_secs(5)), "flood must settle");
        let trace = rt.shutdown();
        let stats = trace.stats();
        assert_eq!(stats.messages_sent, 3);
        assert_eq!(stats.messages_dropped, 1);
        assert_eq!(stats.messages_duplicated, 1);
        assert_eq!(stats.messages_delivered, 3, "{}", trace.to_pretty_string());
        assert!(trace.channels_drained());
    }

    #[test]
    fn external_injection_reaches_process() {
        struct Reactor;
        impl Process<Msg> for Reactor {
            fn on_start(&mut self, _: &mut Context<'_, Msg>) {}
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: ProcessId, _: Msg) {}
            fn on_external(&mut self, ctx: &mut Context<'_, Msg>, _: Msg) {
                ctx.declare_failed(ProcessId::new(1));
            }
        }
        let rt = Runtime::spawn(2, RuntimeConfig::default(), |_| Box::new(Reactor));
        rt.inject_external(ProcessId::new(0), Msg::Ping);
        assert!(rt.drain(Duration::from_secs(5)), "must quiesce");
        let trace = rt.shutdown();
        assert_eq!(
            trace.detections(),
            vec![(ProcessId::new(0), ProcessId::new(1))]
        );
    }

    #[test]
    fn plan_external_precedes_same_instant_deliveries() {
        // p0 sends a message that arrives at p1 at tick 5; the plan also
        // injects an external at p1 at tick 5. The injection must be
        // observed first (earliest wheel seq at the instant): p1 reacts to
        // the external before handling the delivery.
        #[derive(Clone, Debug)]
        enum E {
            Data,
            Mark,
        }
        struct Src;
        impl Process<E> for Src {
            fn on_start(&mut self, ctx: &mut Context<'_, E>) {
                ctx.send(ProcessId::new(1), E::Data);
            }
            fn on_message(&mut self, _: &mut Context<'_, E>, _: ProcessId, _: E) {}
        }
        struct Dst {
            marked: bool,
        }
        impl Process<E> for Dst {
            fn on_start(&mut self, _: &mut Context<'_, E>) {}
            fn on_message(&mut self, ctx: &mut Context<'_, E>, _: ProcessId, _: E) {
                assert!(self.marked, "external must land before the delivery");
                ctx.annotate(crate::Note::key_val("order", "data-after-mark"));
            }
            fn on_external(&mut self, _: &mut Context<'_, E>, _: E) {
                self.marked = true;
            }
        }
        let config: RuntimeConfig<E> = RuntimeConfig {
            link: Some(Box::new(FixedLatency(5))),
            faults: FaultPlan::new().external_at(
                ProcessId::new(1),
                VirtualTime::from_ticks(5),
                E::Mark,
            ),
            ..RuntimeConfig::default()
        };
        let rt = Runtime::spawn(2, config, |pid| {
            if pid.index() == 0 {
                Box::new(Src) as Box<dyn Process<E> + Send>
            } else {
                Box::new(Dst { marked: false })
            }
        });
        assert!(rt.drain(Duration::from_secs(5)), "must quiesce");
        let trace = rt.shutdown();
        assert!(trace
            .events()
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::Note { .. })));
    }
}
