//! The threaded runtime: one [`Host`] per process, in blocks on a pool
//! of threads, run in rounds by a coordinator; see the [module
//! docs](super).

use crate::engine::{Classify, CrashRegistry, Measure};
use crate::fault::{FaultPlan, Injection};
use crate::host::{Egress, Host};
use crate::id::ProcessId;
use crate::link::SenderLink;
use crate::observe::EventSinkHandle;
use crate::process::Process;
use crate::time::VirtualTime;
use crate::trace::{RunSummary, SimStats, StopReason, Trace, TraceEvent, TraceEventKind};
use std::fmt;
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration for the threaded runtime, and for a [`Host`].
pub struct RuntimeConfig<M = ()> {
    /// Seed of every rng: process `i`'s handlers draw from one seeded
    /// `seed + i`, its link verdicts from one seeded from `seed` and `i`.
    /// Nothing else varies: a run is a function of its configuration, its
    /// processes and this seed.
    pub seed: u64,
    /// Optional faulty-network model: the simulator's link seam. Every
    /// sender consults its own copy ([`SenderLink::fork`]) once per send,
    /// with its own link rng; verdict delays are virtual ticks, so the
    /// same model drives both backends. `None` delivers every message at
    /// the instant it is sent.
    pub link: Option<Box<dyn SenderLink>>,
    /// Whether the runtime keeps a trace (the default). Off, every event
    /// is still numbered, counted against [`RuntimeConfig::max_events`]
    /// and offered to [`RuntimeConfig::sink`], and the run ends through
    /// [`Runtime::shutdown_unrecorded`], the twin of `Sim::run_unrecorded`.
    /// Payload `Debug` text is never rendered. A [`Host`] keeps its own
    /// events when on.
    pub record: bool,
    /// Optional classifier marking payloads as infrastructure (`true`)
    /// vs model-level application messages; see `SimBuilder::classify`.
    pub classify: Option<Classify<M>>,
    /// Optional wire-byte measure, charged to `SimStats::wire_bytes` once
    /// per send on the sender's side (duplicated and dropped copies are
    /// the network's doing); see `SimBuilder::measure`.
    pub measure: Option<Measure<M>>,
    /// Optional live crash view, marked at the end of each round in host
    /// order, so oracle-configured processes (which poll a
    /// [`CrashRegistry`]) can run on real threads too.
    pub registry: Option<CrashRegistry>,
    /// Optional trace-event sink, as `SimBuilder::event_sink`: handed
    /// every event, numbered and in trace order, on the coordinator's
    /// thread. Execution-neutral: it has no path back into scheduling.
    pub sink: Option<EventSinkHandle>,
    /// Scheduled crash/external injections, filed first in their hosts'
    /// queues, so an injection at tick `T` is applied before any delivery
    /// or timer due at `T`, as on the simulator.
    pub faults: FaultPlan<M>,
    /// Virtual-time horizon: no round runs past it. Defaults to
    /// [`VirtualTime::MAX`]; spec-driven runs wire their horizon here.
    pub max_time: VirtualTime,
    /// Event budget, checked between rounds: a run ends within one round
    /// of it. The backstop for free-running systems, whose self-rearming
    /// heartbeats would otherwise run forever at virtual speed.
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

/// A running system of `n` processes; see the [module docs](super).
///
/// Construct with [`Runtime::spawn`]; drive with
/// [`Runtime::inject_external`] and [`Runtime::crash`]; wait with
/// [`Runtime::drain`]; finish with [`Runtime::shutdown`], which returns
/// the recorded [`Trace`], or — when [`RuntimeConfig::record`] is off —
/// with [`Runtime::shutdown_unrecorded`], which returns how the run ended.
pub struct Runtime<M> {
    n: usize,
    injector: Injector<M>,
    coordinator: Option<JoinHandle<Exit>>,
}

/// How the run ended, and its events when it recorded them.
type Exit = (RunSummary, Option<Vec<TraceEvent>>);

impl<M> fmt::Debug for Runtime<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runtime")
            .field("n", &self.n)
            .finish_non_exhaustive()
    }
}

impl<M: Clone + fmt::Debug + Send + 'static> Runtime<M> {
    /// Builds the `n` processes (with `make`, in id order), hands them to
    /// the threads, and starts the run.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn spawn<F>(n: usize, config: RuntimeConfig<M>, make: F) -> Self
    where
        F: FnMut(ProcessId) -> Box<dyn Process<M> + Send>,
    {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        Self::spawn_on(cores.min(n), n, config, make)
    }

    /// [`Runtime::spawn`] on `w` threads, the coordinator's included: as
    /// many as blocks of `n / w` processes, rounded up, fill.
    fn spawn_on<F>(w: usize, n: usize, config: RuntimeConfig<M>, mut make: F) -> Self
    where
        F: FnMut(ProcessId) -> Box<dyn Process<M> + Send>,
    {
        assert!(n > 0, "a system needs at least one process");
        let size = n.div_ceil(w.max(1));
        let mut pids = ProcessId::all(n);
        let mut block = || -> Vec<Start<M>> {
            let start = |pid| (make(pid), host_config(&config));
            (&mut pids).take(size).map(start).collect()
        };
        let local = block();
        let remotes: Vec<Remote<M>> = (1..n.div_ceil(size))
            .map(|k| {
                let starts = block();
                let (orders, inbox) = mpsc::channel::<Round<M>>();
                let (outbox, reports) = mpsc::channel();
                let thread = std::thread::Builder::new()
                    .name(format!("worker-{k}"))
                    .spawn(move || {
                        let mut block = Block::start(n, k * size, starts);
                        let mut round = Round::new();
                        block.report(&mut round);
                        while outbox.send(round).is_ok() {
                            let Ok(order) = inbox.recv() else { break };
                            round = order;
                            block.run(&mut round);
                        }
                        block.stats()
                    })
                    .expect("spawn worker thread");
                Remote {
                    orders,
                    reports,
                    thread,
                    out: true,
                }
            })
            .collect();
        let (commands, inbox) = mpsc::channel();
        let coordinator = std::thread::Builder::new()
            .name("coordinator".to_owned())
            .spawn(move || {
                let mut rounds: Vec<Round<M>> = (0..=remotes.len()).map(|_| Round::new()).collect();
                let mut local = Block::start(n, 0, local);
                local.report(&mut rounds[0]);
                Coordinator {
                    n,
                    size,
                    local,
                    remotes,
                    rounds,
                    injections: Vec::new(),
                    now: VirtualTime::ZERO,
                    emitted: 0,
                    spent: false,
                    recorder: config.record.then(Vec::new),
                    config,
                }
                .run(&inbox)
            })
            .expect("spawn coordinator thread");
        Runtime {
            n,
            injector: Injector { commands },
            coordinator: Some(coordinator),
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
        self.injector.clone()
    }

    /// Delivers an external stimulus to `pid` (e.g. a forced suspicion)
    /// at whatever virtual instant the run has reached when the
    /// coordinator takes it, between rounds; scripted injections at exact
    /// virtual times belong in [`RuntimeConfig::faults`].
    pub fn inject_external(&self, pid: ProcessId, payload: M) {
        self.injector.inject_external(pid, payload);
    }

    /// Crashes `pid` permanently, at the run's current virtual instant;
    /// see [`Runtime::inject_external`].
    pub fn crash(&self, pid: ProcessId) {
        self.injector.crash(pid);
    }

    /// Blocks until the system is **quiescent** — between rounds, nothing
    /// is due on any host, no copy is in transit and no injection waits —
    /// or until the run can no longer progress, or until `timeout`
    /// elapses. Returns whether genuine quiescence was reached.
    ///
    /// A `true` guarantees the trace a subsequent [`Runtime::shutdown`]
    /// returns is *maximal*: no recorded receive is missing its handler's
    /// effects, and the run is comparable to a
    /// [`Quiescent`](StopReason::Quiescent) simulator run. Systems with
    /// self-rearming timers (heartbeats, oracle polls) never quiesce: for
    /// them this returns `false` as soon as the run stalls at its horizon
    /// or event budget.
    pub fn drain(&self, timeout: Duration) -> bool {
        let (reply, done) = mpsc::channel();
        self.injector.commands.send(Command::Drain(reply)).is_ok()
            && done.recv_timeout(timeout).unwrap_or(false)
    }

    /// Stops all threads and returns the recorded trace.
    ///
    /// # Panics
    ///
    /// Panics if the runtime was spawned with [`RuntimeConfig::record`]
    /// off — it ends through [`Runtime::shutdown_unrecorded`] — or if a
    /// process handler panicked.
    pub fn shutdown(self) -> Trace {
        let n = self.n;
        let (run, events) = self.stop();
        let events = events.expect("an unrecorded runtime ends with `shutdown_unrecorded`");
        Trace::from_parts(n, events, run.stop, run.end_time, run.stats)
    }

    /// Stops all threads and returns how the run ended — everything
    /// [`Runtime::shutdown`]'s trace carries but the events, which went
    /// only to [`RuntimeConfig::sink`]: the end of an unrecorded runtime,
    /// as `Sim::run_unrecorded` is the simulator's.
    ///
    /// # Panics
    ///
    /// Panics if a process handler panicked.
    pub fn shutdown_unrecorded(self) -> RunSummary {
        self.stop().0
    }

    fn stop(mut self) -> Exit {
        let _ = self.injector.commands.send(Command::Shutdown);
        let coordinator = self.coordinator.take().expect("coordinator already joined");
        coordinator
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
}

/// One host's configuration: its own copy of the link, the shared hooks,
/// the whole plan (a host keeps its own entries), and recording on with
/// no sink or registry — the coordinator numbers, marks, offers and keeps
/// every host's events.
fn host_config<M: Clone>(config: &RuntimeConfig<M>) -> RuntimeConfig<M> {
    RuntimeConfig {
        seed: config.seed,
        link: config.link.as_ref().map(|link| link.fork()),
        record: true,
        classify: config.classify.clone(),
        measure: config.measure.clone(),
        registry: None,
        sink: None,
        faults: config.faults.clone(),
        max_time: config.max_time,
        max_events: config.max_events,
    }
}

/// What the runtime's handles ask of the coordinator.
enum Command<M> {
    Inject(ProcessId, Injection<M>),
    /// Answered `true` once the run is quiescent, `false` once it stalls.
    Drain(Sender<bool>),
    Shutdown,
}

/// A cloneable handle for injecting stimuli into a running [`Runtime`]
/// from arbitrary threads, obtained via [`Runtime::injector`]; sends
/// after shutdown are silently dropped.
#[derive(Clone)]
pub struct Injector<M> {
    commands: Sender<Command<M>>,
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
        let _ = self
            .commands
            .send(Command::Inject(pid, Injection::External(payload)));
    }

    /// Crashes `pid` permanently; see [`Runtime::crash`].
    pub fn crash(&self, pid: ProcessId) {
        let _ = self.commands.send(Command::Inject(pid, Injection::Crash));
    }
}

/// One block's share of a round. It goes to the block's thread and back,
/// so its buffers are reused; between rounds it holds the block's last
/// report and the copies waiting for the block's hosts.
struct Round<M> {
    at: VirtualTime,
    /// Copies for the block's hosts, in (sender, send) order.
    copies: Vec<Egress<M>>,
    injections: Vec<(ProcessId, Injection<M>)>,
    /// Reported: what the hosts emitted and sent, in host order.
    events: Vec<TraceEvent>,
    egress: Vec<Egress<M>>,
    /// Reported: the least deadline of the block's hosts.
    next: Option<VirtualTime>,
}

impl<M> Round<M> {
    fn new() -> Self {
        Round {
            at: VirtualTime::ZERO,
            copies: Vec::new(),
            injections: Vec::new(),
            events: Vec::new(),
            egress: Vec::new(),
            next: None,
        }
    }

    /// Whether the block has anything to do at `at`.
    fn busy(&self, at: VirtualTime) -> bool {
        self.next.is_some_and(|due| due <= at)
            || !self.copies.is_empty()
            || !self.injections.is_empty()
    }
}

/// A process and its host's configuration, before the host is built.
type Start<M> = (Box<dyn Process<M> + Send>, RuntimeConfig<M>);

/// A contiguous block of hosts, `first` onward, built on the thread that
/// runs them so that their `on_start`s run there.
struct Block<M> {
    first: usize,
    hosts: Vec<Host<M>>,
}

impl<M: Clone + fmt::Debug> Block<M> {
    fn start(n: usize, first: usize, starts: Vec<Start<M>>) -> Self {
        let hosts = (first..)
            .zip(starts)
            .map(|(i, (process, config))| Host::start(ProcessId::new(i), n, config, process))
            .collect();
        Block { first, hosts }
    }

    /// Runs the block's share of a round and reports it: the copies join
    /// their channels, due when their links said, the injections apply,
    /// and every host with something due advances to the round's instant,
    /// as the UDP node advances its one host.
    fn run(&mut self, round: &mut Round<M>) {
        let at = round.at;
        for copy in round.copies.drain(..) {
            self.hosts[copy.to.index() - self.first].ingress_at(at, copy);
        }
        for (pid, injection) in round.injections.drain(..) {
            self.hosts[pid.index() - self.first].inject(at, pid, injection);
        }
        for host in &mut self.hosts {
            if host.next_deadline().is_some_and(|due| due <= at) {
                host.advance_to(at);
            }
        }
        self.report(round);
    }

    fn report(&mut self, round: &mut Round<M>) {
        for host in &mut self.hosts {
            host.end_round(&mut round.events, &mut round.egress);
        }
        round.next = self.hosts.iter().filter_map(Host::next_deadline).min();
    }

    fn stats(&self) -> SimStats {
        self.hosts.iter().map(Host::stats).sum()
    }
}

/// A block on a worker thread, which returns the block's counters.
struct Remote<M> {
    orders: Sender<Round<M>>,
    reports: Receiver<Round<M>>,
    thread: JoinHandle<SimStats>,
    /// Whether the block's round is out with it.
    out: bool,
}

/// The coordinator: it owns the clock and the run's event stream, routes
/// the copies, and runs block 0 itself.
struct Coordinator<M> {
    n: usize,
    /// Hosts per block: block `k` holds hosts `k * size ..`.
    size: usize,
    local: Block<M>,
    /// Blocks 1 onward.
    remotes: Vec<Remote<M>>,
    /// Per block, its round while it is not out.
    rounds: Vec<Round<M>>,
    injections: Vec<(ProcessId, Injection<M>)>,
    now: VirtualTime,
    emitted: usize,
    /// The event budget is spent: no further round runs.
    spent: bool,
    recorder: Option<Vec<TraceEvent>>,
    /// The run's sink, registry, horizon and budget.
    config: RuntimeConfig<M>,
}

impl<M: Clone + fmt::Debug> Coordinator<M> {
    /// Runs rounds, taking commands between them, until shutdown.
    fn run(mut self, commands: &Receiver<Command<M>>) -> Exit {
        let mut waiters = Vec::new();
        let mut open = self.collect();
        while open && self.take_sent(commands, &mut waiters) {
            open = match self.due() {
                Some(at) => self.round(at),
                None => {
                    let quiescent = self.quiescent();
                    for waiter in waiters.drain(..) {
                        let _ = waiter.send(quiescent);
                    }
                    commands
                        .recv()
                        .is_ok_and(|command| self.take(command, &mut waiters))
                }
            };
        }
        self.finish()
    }

    /// Takes every command sent so far; `false` on shutdown.
    fn take_sent(
        &mut self,
        commands: &Receiver<Command<M>>,
        waiters: &mut Vec<Sender<bool>>,
    ) -> bool {
        loop {
            match commands.try_recv() {
                Ok(command) => {
                    if !self.take(command, waiters) {
                        return false;
                    }
                }
                Err(TryRecvError::Empty) => return true,
                Err(TryRecvError::Disconnected) => return false,
            }
        }
    }

    /// Takes one command; `false` on shutdown.
    fn take(&mut self, command: Command<M>, waiters: &mut Vec<Sender<bool>>) -> bool {
        match command {
            Command::Inject(pid, injection) => self.injections.push((pid, injection)),
            Command::Drain(reply) => waiters.push(reply),
            Command::Shutdown => return false,
        }
        true
    }

    /// The instant of the next round, if one may run: the least deadline
    /// of any host or copy in transit, or now while an injection waits.
    fn due(&self) -> Option<VirtualTime> {
        let hosts = self.rounds.iter().filter_map(|round| round.next);
        let copies = self
            .rounds
            .iter()
            .flat_map(|r| r.copies.iter().map(|c| c.at));
        let next = match self.injections.is_empty() {
            true => hosts.chain(copies).min(),
            false => Some(self.now),
        };
        next.filter(|&at| at <= self.config.max_time && !self.spent)
    }

    fn quiescent(&self) -> bool {
        let idle = |r: &Round<M>| r.next.is_none() && r.copies.is_empty();
        !self.spent && self.injections.is_empty() && self.rounds.iter().all(idle)
    }

    /// Runs one round at `at`: hands the busy remote blocks their shares,
    /// runs block 0's meanwhile, and collects. `false` if a worker died.
    fn round(&mut self, at: VirtualTime) -> bool {
        self.now = at;
        for (pid, injection) in self.injections.drain(..) {
            self.rounds[pid.index() / self.size]
                .injections
                .push((pid, injection));
        }
        for (remote, round) in self.remotes.iter_mut().zip(&mut self.rounds[1..]) {
            remote.out = round.busy(at);
            if remote.out {
                round.at = at;
                if remote
                    .orders
                    .send(std::mem::replace(round, Round::new()))
                    .is_err()
                {
                    return false;
                }
            }
        }
        if self.rounds[0].busy(at) {
            self.rounds[0].at = at;
            self.local.run(&mut self.rounds[0]);
        }
        self.collect()
    }

    /// Waits for every remote block out on the round, then takes the
    /// round's events and egress in block — that is, host — order.
    /// Nothing is marked in the registry before every host has finished
    /// the round.
    fn collect(&mut self) -> bool {
        for (remote, slot) in self.remotes.iter_mut().zip(&mut self.rounds[1..]) {
            if std::mem::take(&mut remote.out) {
                let Ok(round) = remote.reports.recv() else {
                    return false;
                };
                *slot = round;
            }
        }
        for k in 0..self.rounds.len() {
            let round = &mut self.rounds[k];
            for mut event in round.events.drain(..) {
                event.seq = self.emitted;
                self.emitted += 1;
                if let (TraceEventKind::Crash { pid }, Some(registry)) =
                    (&event.kind, &self.config.registry)
                {
                    registry.mark(*pid);
                }
                if let Some(sink) = &self.config.sink {
                    sink.on_event(&event);
                }
                if let Some(recorder) = &mut self.recorder {
                    recorder.push(event);
                }
            }
            let mut egress = std::mem::take(&mut round.egress);
            for copy in egress.drain(..) {
                self.rounds[copy.to.index() / self.size].copies.push(copy);
            }
            self.rounds[k].egress = egress;
        }
        self.spent |= self.emitted >= self.config.max_events;
        true
    }

    /// Stops the workers and says how the run ended, judging the stop
    /// reasons in the simulator's order.
    fn finish(self) -> Exit {
        let quiescent = self.quiescent();
        // Hanging up on the workers ends their loops.
        let threads: Vec<_> = self.remotes.into_iter().map(|r| r.thread).collect();
        let joined = threads.into_iter().map(|thread| {
            let joined = thread.join();
            joined.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        });
        let stats: SimStats = joined.chain([self.local.stats()]).sum();
        let stop = if self.spent {
            StopReason::MaxEvents
        } else if stats.crashes == self.n as u64 {
            StopReason::AllCrashed
        } else if quiescent {
            StopReason::Quiescent
        } else {
            StopReason::MaxTime
        };
        let run = RunSummary {
            stop,
            end_time: self.now,
            stats,
            events: self.emitted,
        };
        (run, self.recorder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CrashRegistry;
    use crate::fault::FaultPlan;
    use crate::id::TimerId;
    use crate::latency::FixedLatency;
    use crate::observe::EventSinkHandle;
    use crate::process::{Context, ReceiveFilter};
    use rand::rngs::StdRng;
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
        assert_eq!(from_p0, vec![0, 1, 2], "FIFO preserved through parking");
    }

    #[test]
    fn parked_messages_to_a_crashed_receiver_count_as_consumed() {
        use crate::process::ReceiveFilter;
        // p1 refuses everything, so p0's two messages sit parked in its
        // channel; the fault plan then crashes p1. The parked copies
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
        // The sender's link is consulted once per send (tick 0); the link
        // is severed from tick 1 forever. Both duplicate copies are
        // already in flight and must deliver across the cut,
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
        // each instant hands a host many events at once. Each node logs
        // what it handled: the log must equal the trace's admission order
        // for that node (per-process order), its send tags must equal the
        // runtime's message ids (actions applied in execution order), and
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
        // p0 sends to the victim and a mate alternately behind a fixed
        // link, so all ten deliveries come due in one round, each host
        // taking its five as one batch. Both echo every message; the
        // victim crashes on its third. Its later echoes in that batch are
        // dropped, while the mate's — after the crash in the round's host
        // order — all apply.
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
        let (victim, mate) = (ProcessId::new(1), ProcessId::new(2));
        let config = RuntimeConfig {
            link: Some(Box::new(FixedLatency(5))),
            ..RuntimeConfig::default()
        };
        let rt = Runtime::spawn(3, config, |pid| {
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
        assert_eq!(sends_by(mate, true), 5, "{}", trace.to_pretty_string());
        // One batch each: the victim's and the mate's round at tick 5,
        // p0's round of echoes at tick 10.
        assert_eq!(trace.stats().delivery_batches, 3);
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

        // Scripted verdicts for the one sender, mirroring the sim test:
        // drop its 1st send, duplicate its 2nd, deliver the rest. Every
        // sender counts on its own copy of the link, so the script is
        // p0's alone.
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

    /// The relay of `tests/engines_agree.rs`: every token goes round the
    /// ring one hop less at a time, odd tokens wait behind each filter
    /// until its timer, and the plan crashes the last process mid-relay
    /// and injects a token at `p0`. In oracle mode each process polls the
    /// shared registry every few ticks, declares every crash it finds and
    /// forwards past the crashed.
    struct Relay {
        oracle: Option<CrashRegistry>,
    }

    impl Relay {
        fn forward(&self, ctx: &mut Context<'_, u32>, hops: u32) {
            let n = ctx.n();
            let next = (1..n)
                .map(|k| ProcessId::new((ctx.id().index() + k) % n))
                .find(|p| !self.oracle.as_ref().is_some_and(|r| r.is_crashed(*p)));
            if let Some(next) = next {
                ctx.send(next, hops);
            }
        }
    }

    impl Process<u32> for Relay {
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.set_receive_filter(Some(ReceiveFilter::new(|h: &u32| h.is_multiple_of(2))));
            ctx.set_timer(9);
            if self.oracle.is_some() {
                ctx.set_timer(3);
            }
            for hops in [4, 3, 6, 5] {
                self.forward(ctx, hops);
            }
        }

        fn on_message(&mut self, ctx: &mut Context<'_, u32>, _: ProcessId, hops: u32) {
            if hops > 0 {
                self.forward(ctx, hops - 1);
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, u32>, _: TimerId) {
            ctx.set_receive_filter(None);
            if let Some(registry) = &self.oracle {
                registry.for_each_crashed(|p| ctx.declare_failed(p));
                if ctx.now() < VirtualTime::from_ticks(30) {
                    ctx.set_timer(3);
                }
            }
        }

        fn on_external(&mut self, ctx: &mut Context<'_, u32>, hops: u32) {
            self.forward(ctx, hops);
        }
    }

    /// Keeps every event it is offered.
    #[derive(Default)]
    struct Keep(Mutex<Vec<TraceEvent>>);

    impl crate::observe::EventSink for Keep {
        fn on_event(&self, event: &TraceEvent) {
            self.0.lock().unwrap().push(event.clone());
        }
    }

    #[test]
    fn a_run_is_a_function_of_its_configuration_not_of_the_worker_count() {
        use crate::latency::UniformLatency;
        use crate::link::{FaultyLink, SenderLink};

        let n = 5;
        let links: [fn() -> Box<dyn SenderLink>; 2] = [
            || Box::new(FixedLatency(2)),
            || {
                let lossy = FaultyLink::new(UniformLatency::new(1, 10));
                Box::new(lossy.loss(0.1).duplicate(0.1))
            },
        ];
        let legs = links.iter().map(|link| (Some(link()), false));
        for (leg, (link, oracle)) in legs.chain([(None, true)]).enumerate() {
            let mut first: Option<Vec<TraceEvent>> = None;
            for w in [1, 2, 4] {
                for run in 0..20 {
                    let registry = oracle.then(|| CrashRegistry::new(n));
                    let sink = Arc::new(Keep::default());
                    let config = RuntimeConfig {
                        seed: 7,
                        link: link.as_ref().map(|link| link.fork()),
                        registry: registry.clone(),
                        sink: Some(EventSinkHandle::new(sink.clone())),
                        faults: FaultPlan::new()
                            .crash_at(ProcessId::new(n - 1), VirtualTime::from_ticks(9))
                            .external_at(ProcessId::new(0), VirtualTime::from_ticks(5), 7),
                        ..RuntimeConfig::default()
                    };
                    let rt = Runtime::spawn_on(w, n, config, |_| {
                        Box::new(Relay {
                            oracle: registry.clone(),
                        })
                    });
                    assert!(rt.drain(Duration::from_secs(10)), "leg {leg}: must settle");
                    let trace = rt.shutdown();
                    let offered = std::mem::take(&mut *sink.0.lock().unwrap());
                    assert_eq!(offered, trace.events(), "leg {leg}, w={w}, run {run}");
                    match &first {
                        None => first = Some(offered),
                        Some(first) => assert!(
                            *first == offered,
                            "leg {leg}, w={w}, run {run}:\n{}",
                            trace.to_pretty_string()
                        ),
                    }
                }
            }
            let events = first.expect("ran");
            let has = |f: fn(&TraceEventKind) -> bool| events.iter().any(|e| f(&e.kind));
            assert!(
                has(|k| matches!(k, TraceEventKind::Crash { .. })),
                "leg {leg}"
            );
            if oracle {
                assert!(has(|k| matches!(k, TraceEventKind::Failed { .. })));
            }
        }
    }

    #[test]
    fn every_sender_draws_its_own_link_verdicts() {
        // p0 and p1 each send 64 messages to p2 over one configured lossy
        // link. Each sender consults its own copy with its own rng, so the
        // send indices each loses are not the same set.
        use crate::link::FaultyLink;
        struct Send64;
        impl Process<u32> for Send64 {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                if ctx.id().index() < 2 {
                    for k in 0..64 {
                        ctx.send(ProcessId::new(2), k);
                    }
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: ProcessId, _: u32) {}
        }
        let config = RuntimeConfig {
            link: Some(Box::new(FaultyLink::new(FixedLatency(1)).loss(0.5))),
            ..RuntimeConfig::default()
        };
        let rt = Runtime::spawn(3, config, |_| Box::new(Send64));
        assert!(rt.drain(Duration::from_secs(5)), "must quiesce");
        let trace = rt.shutdown();
        let dropped = |sender: usize| -> Vec<u64> {
            let received: Vec<u64> = trace
                .events()
                .iter()
                .filter_map(|e| match e.kind {
                    TraceEventKind::Recv { from, msg, .. } if from.index() == sender => {
                        Some(msg.seq())
                    }
                    _ => None,
                })
                .collect();
            (0..64).filter(|k| !received.contains(k)).collect()
        };
        let (d0, d1) = (dropped(0), dropped(1));
        assert!(!d0.is_empty() && !d1.is_empty(), "{d0:?} {d1:?}");
        assert_ne!(d0, d1);
        assert_eq!(trace.stats().messages_dropped, (d0.len() + d1.len()) as u64);
    }
}
