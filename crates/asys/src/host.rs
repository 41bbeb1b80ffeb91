//! The one driver: processes `lo..hi` of an `n`-process system over the
//! engine core and one calendar queue (`calendar.rs`), with no threads and
//! no I/O. The simulator is the host of `0..n` (`sim.rs`), a UDP node the
//! host of one process, and the threaded runtime runs one host per
//! process. Channels between co-hosted processes stay inside the host;
//! its owner supplies the clock and the network:
//!
//! * [`Host::advance_to`] runs everything due by the owner's instant;
//! * [`Host::egress`] hands over the copies for processes on other hosts;
//! * [`Host::ingress`] puts a copy from another host on its channel, under
//!   the sender's [`MsgId`].
//!
//! Three values set at construction tell the simulator from the other
//! hosts: the delay floor (1 tick vs 0), the processes' rng (shared with
//! the link on the simulator; on a host process `i` draws from its own,
//! seeded `seed + i`) and the first timer id, `lo << 40`. Every counter
//! stays with the core, so the sum of the hosts' [`SimStats`] is the run's.

use crate::calendar::Calendar;
use crate::engine::{EngineState, Hooks, Schedule};
use crate::fault::{FaultPlan, Injection};
use crate::id::{MsgId, ProcessId, TimerId};
use crate::link::LinkModel;
use crate::net::RuntimeConfig;
use crate::process::{Context, Process};
use crate::time::VirtualTime;
use crate::trace::{SimStats, TraceEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::ops::Range;

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

/// What a queue entry does when it comes due. Process ids are four
/// bytes and the rare injection payload lives in a side table
/// (`Host::injections`), so an entry is 16 bytes whatever `M` is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Pending {
    Deliver { from: ProcessId, to: ProcessId },
    Timer { pid: ProcessId, id: TimerId },
    Inject { pid: ProcessId, slot: u32 },
}

/// The host's [`Schedule`]: its pending steps, numbered in creation
/// order, and the copies leaving it.
pub(crate) struct Queue<M> {
    pub(crate) calendar: Calendar<Pending>,
    order: u64,
    outbox: Vec<Egress<M>>,
}

impl<M> Queue<M> {
    fn push(&mut self, at: VirtualTime, pending: Pending) {
        self.calendar.push(at, self.order, pending);
        self.order += 1;
    }
}

impl<M> Schedule<M> for Queue<M> {
    fn head_due(&mut self, at: VirtualTime, from: ProcessId, to: ProcessId) {
        self.push(at, Pending::Deliver { from, to });
    }

    fn timer_due(&mut self, at: VirtualTime, pid: ProcessId, id: TimerId) {
        self.push(at, Pending::Timer { pid, id });
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

/// Processes `lo..hi` of an `n`-process system on the engine core; see
/// the module docs.
pub struct Host<M> {
    processes: Vec<Box<dyn Process<M>>>,
    /// Per held process, its own rng; empty on the simulator, whose
    /// processes draw from the link's.
    rngs: Vec<StdRng>,
    next_timer: u64,
    pub(crate) core: EngineState<M>,
    pub(crate) queue: Queue<M>,
    /// Payloads of the injections filed, taken when they come due.
    injections: Vec<Option<Injection<M>>>,
    pub(crate) max_time: VirtualTime,
    /// Handlers run since the runtime's last round ended.
    handled: u64,
}

impl<M> fmt::Debug for Host<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Host")
            .field("held", &self.core.held)
            .field("now", &self.core.now)
            .field("pending", &self.queue.calendar.len())
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
        Self::hosting(me.index()..me.index() + 1, n, config, vec![process])
    }

    /// [`Host::start`] for the processes `held`, one per entry of
    /// `processes`, started in id order.
    pub(crate) fn hosting(
        held: Range<usize>,
        n: usize,
        config: RuntimeConfig<M>,
        processes: Vec<Box<dyn Process<M>>>,
    ) -> Self {
        let hooks = Hooks {
            link: config.link.map(|link| link as Box<dyn LinkModel>),
            classify: config.classify,
            measure: config.measure,
            sink: config.sink,
            registry: config.registry,
            record_payloads: false,
            max_events: config.max_events,
        };
        // The processes and the link draw from streams of their own: a
        // process's rng never sees a link draw, and one host's verdicts do
        // not depend on another's traffic.
        let seed = |i: usize| config.seed.wrapping_add(i as u64);
        let rngs = held
            .clone()
            .map(|i| StdRng::seed_from_u64(seed(i)))
            .collect();
        let lo = (held.start as u64) << 32;
        let link_rng = StdRng::seed_from_u64((config.seed ^ 0x11AC_C01D).wrapping_add(lo));
        let mut core = EngineState::new(n, held.clone(), 0, link_rng, hooks);
        if config.record {
            core.recorder = Some(Vec::new());
        }
        let mut host = Host::new(core, rngs, processes, config.faults, config.max_time);
        host.start_processes();
        host.settle();
        host
    }

    /// The host of the processes `core` holds, one per entry of
    /// `processes`, with the plan's entries for them filed first, so that
    /// each holds the earliest order at its instant. Nothing has run yet.
    pub(crate) fn new(
        core: EngineState<M>,
        rngs: Vec<StdRng>,
        processes: Vec<Box<dyn Process<M>>>,
        plan: FaultPlan<M>,
        max_time: VirtualTime,
    ) -> Self {
        let mut host = Host {
            // Timer ids carry their host's first process in the top bits.
            next_timer: (core.held.start as u64) << 40,
            processes,
            rngs,
            core,
            queue: Queue {
                calendar: Calendar::new(),
                order: 0,
                outbox: Vec::new(),
            },
            injections: Vec::new(),
            max_time,
            handled: 0,
        };
        for (at, pid, injection) in plan.into_items() {
            if host.core.holds(pid) {
                host.inject(at, pid, injection);
            }
        }
        host
    }

    /// The first process this host runs: on a one-process host, its
    /// process.
    pub fn me(&self) -> ProcessId {
        ProcessId::new(self.core.held.start)
    }

    /// The earliest instant something is due on this host, if anything
    /// is: a channel head, a timer armed and not cancelled, or a
    /// fault-plan entry.
    pub fn next_deadline(&self) -> Option<VirtualTime> {
        self.queue.calendar.peek().map(|(at, ..)| at)
    }

    /// Whether the process has crashed.
    pub fn is_crashed(&self) -> bool {
        self.core.is_crashed(self.me())
    }

    /// This host's counters: its processes' sends, receives, timers,
    /// crashes and detections, the link's verdicts on their sends, and
    /// the copies consumed after a receiver crashed.
    pub fn stats(&self) -> SimStats {
        self.core.stats
    }

    /// The events emitted so far, when the configuration records them;
    /// empty otherwise.
    pub fn events(&self) -> &[TraceEvent] {
        self.core.recorder.as_deref().unwrap_or_default()
    }

    /// Moves the clock to `at`, never past the configured horizon, and
    /// runs everything due by then at `at`, in queue order — fault-plan
    /// entries first, then channel heads and timers in the order they
    /// were filed — with each handler's actions applied before the next
    /// admission, and what they file for `at` run too. A late owner thus
    /// runs overdue work at the instant it reads, and timers re-armed
    /// there count from it. Once the event budget is spent nothing more
    /// is run.
    pub fn advance_to(&mut self, at: VirtualTime) {
        let at = at.min(self.max_time);
        self.core.now = self.core.now.max(at);
        while !self.core.budget_spent() {
            match self.queue.calendar.peek() {
                Some((due, _, pending)) if due <= at => {
                    self.queue.calendar.pop();
                    self.step(pending);
                }
                _ => break,
            }
        }
        self.settle();
    }

    /// The copies sent to processes on other hosts since the last call,
    /// in send order.
    pub fn egress(&mut self) -> std::vec::Drain<'_, Egress<M>> {
        self.queue.outbox.drain(..)
    }

    /// The ingress edge: a copy that process `msg.source()` sent to this
    /// host's process joins their channel at the current instant. It is
    /// received on a later [`Host::advance_to`] — or parked behind the
    /// receive filter, or consumed if the process has crashed — as the
    /// core decides. Refused, with nothing changed, when the source is not
    /// a process of the system on another host.
    pub fn ingress(&mut self, msg: MsgId, payload: M) -> bool {
        let from = msg.source();
        if from.index() >= self.core.n || self.core.holds(from) {
            return false;
        }
        let (me, now) = (self.me(), self.core.now);
        self.core.ingress(me, msg, payload, now, &mut self.queue);
        true
    }

    /// The runtime's ingress at instant `now`, which no earlier call
    /// passed: a copy from a process on another host joins its channel at
    /// once, due when the sender's link said — so the channel keeps send
    /// order whatever the delays.
    pub(crate) fn ingress_at(&mut self, now: VirtualTime, copy: Egress<M>) {
        self.core.now = now;
        let queue = &mut self.queue;
        self.core
            .ingress(copy.to, copy.msg, copy.payload, copy.at, queue);
    }

    /// Files an injection for held process `pid` at instant `at`, which
    /// no earlier call passed, after whatever else is due then.
    pub(crate) fn inject(&mut self, at: VirtualTime, pid: ProcessId, injection: Injection<M>) {
        let slot = self.injections.len() as u32;
        self.injections.push(Some(injection));
        self.queue.push(at, Pending::Inject { pid, slot });
    }

    /// Ends one of the runtime's rounds: appends the events emitted and the
    /// copies sent since the last one, and counts a delivery batch if the
    /// host ran more than one handler in it.
    pub(crate) fn end_round(&mut self, events: &mut Vec<TraceEvent>, egress: &mut Vec<Egress<M>>) {
        if std::mem::take(&mut self.handled) > 1 {
            self.core.stats.delivery_batches += 1;
        }
        if let Some(recorder) = &mut self.core.recorder {
            events.append(recorder);
        }
        egress.append(&mut self.queue.outbox);
    }

    /// Runs every held process's `on_start`, in id order.
    pub(crate) fn start_processes(&mut self) {
        for pid in self.core.held.clone().map(ProcessId::new) {
            self.dispatch(pid, |p, ctx| p.on_start(ctx));
        }
    }

    /// Executes one due queue entry: admits it through the core and runs
    /// its handler, unless the core dissolved it (crashed process,
    /// cancelled timer, refused head).
    pub(crate) fn step(&mut self, pending: Pending) {
        match pending {
            Pending::Deliver { from, to } => {
                if let Some(msg) = self.core.admit_head(from, to, &mut self.queue) {
                    self.dispatch(to, |p, ctx| p.on_message(ctx, from, msg));
                }
            }
            Pending::Timer { pid, id } => {
                if self.core.admit_timer(pid, id) {
                    self.dispatch(pid, |p, ctx| p.on_timer(ctx, id));
                }
            }
            Pending::Inject { pid, slot } => {
                let injection = self.injections[slot as usize]
                    .take()
                    .expect("an injection fires once");
                if let Some(payload) = self.core.admit_injection(pid, injection) {
                    self.dispatch(pid, |p, ctx| p.on_external(ctx, payload));
                }
            }
        }
    }

    /// Runs one handler of held process `pid` on a fresh context and
    /// applies what it issued: every engine's one handler dispatch.
    fn dispatch<F>(&mut self, pid: ProcessId, f: F)
    where
        F: FnOnce(&mut dyn Process<M>, &mut Context<'_, M>),
    {
        debug_assert!(!self.core.is_crashed(pid));
        self.handled += 1;
        let i = pid.index() - self.core.held.start;
        let rng = match self.rngs.get_mut(i) {
            Some(rng) => rng,
            None => &mut self.core.rng,
        };
        let (n, now) = (self.core.n, self.core.now);
        let mut ctx = Context::new(pid, n, now, rng, &mut self.next_timer);
        f(self.processes[i].as_mut(), &mut ctx);
        let actions = ctx.take_actions();
        self.core.apply(pid, actions, &mut self.queue);
    }

    /// Dissolves the cancelled timers at the head of the queue, so that
    /// [`Host::next_deadline`] never reports one: an owner that waits for
    /// an idle host, or a runtime that picks its next instant from the
    /// hosts' deadlines, would wait on a timer that never fires.
    fn settle(&mut self) {
        while let Some((_, _, Pending::Timer { pid, id })) = self.queue.calendar.peek() {
            if !self.core.is_cancelled(id) {
                return;
            }
            self.queue.calendar.pop();
            let fired = self.core.admit_timer(pid, id);
            debug_assert!(!fired);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::FixedLatency;
    use crate::process::ReceiveFilter;
    use crate::sim::Sim;
    use crate::trace::{Trace, TraceEventKind};
    use std::collections::BTreeMap;
    use std::sync::Arc;

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
    fn a_cancelled_timer_leaves_the_queue_at_once() {
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

    /// `tests/engines_agree.rs`'s relay: each process forwards a token to
    /// its ring successor with one hop less; odd tokens are refused until
    /// the process's timer fires at tick 9; the plan crashes the last
    /// process and injects a token at `p0` at tick 5.
    struct Relay;

    fn forward(ctx: &mut Context<'_, u32>, hops: u32) {
        let next = ProcessId::new((ctx.id().index() + 1) % ctx.n());
        ctx.send(next, hops);
    }

    impl Process<u32> for Relay {
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.set_receive_filter(Some(ReceiveFilter::new(|h: &u32| h.is_multiple_of(2))));
            ctx.set_timer(9);
            for hops in [4, 3, 6, 5] {
                forward(ctx, hops);
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, _: ProcessId, hops: u32) {
            if hops > 0 {
                forward(ctx, hops - 1);
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, u32>, _: TimerId) {
            ctx.set_receive_filter(None);
        }
        fn on_external(&mut self, ctx: &mut Context<'_, u32>, hops: u32) {
            forward(ctx, hops);
        }
    }

    /// Alone, the last process is the only one, and an all-crashed
    /// simulator stops with copies in flight: then it crashes after the
    /// relay.
    fn plan(n: usize) -> FaultPlan<u32> {
        let crash_at = if n == 1 { 1_000 } else { 7 };
        FaultPlan::new()
            .crash_at(ProcessId::new(n - 1), VirtualTime::from_ticks(crash_at))
            .external_at(ProcessId::new(0), VirtualTime::from_ticks(5), 7)
    }

    fn infra(hops: &u32) -> bool {
        hops.is_multiple_of(3)
    }

    fn wire_cost(hops: &u32) -> u64 {
        u64::from(*hops) + 1
    }

    /// The relay as a system of hosts of `k` processes each, on one
    /// virtual clock: each round advances every host to the least
    /// deadline of any host or copy in transit, then hands the copies due
    /// to their receivers' hosts.
    fn on_hosts(n: usize, k: usize) -> Vec<Host<u32>> {
        let config = || RuntimeConfig {
            link: Some(Box::new(FixedLatency(2))),
            faults: plan(n),
            classify: Some(Arc::new(infra)),
            measure: Some(Arc::new(wire_cost)),
            ..RuntimeConfig::default()
        };
        let mut hosts: Vec<Host<u32>> = (0..n)
            .step_by(k)
            .map(|lo| {
                let held = lo..(lo + k).min(n);
                let relays = held
                    .clone()
                    .map(|_| Box::new(Relay) as Box<dyn Process<u32>>);
                Host::hosting(held, n, config(), relays.collect())
            })
            .collect();
        let mut transit: Vec<Egress<u32>> = hosts.iter_mut().flat_map(Host::egress).collect();
        while let Some(now) = hosts
            .iter()
            .filter_map(Host::next_deadline)
            .chain(transit.iter().map(|copy| copy.at))
            .min()
        {
            for host in &mut hosts {
                host.advance_to(now);
                transit.extend(host.egress());
            }
            let (due, later) = transit.into_iter().partition(|copy| copy.at <= now);
            transit = later;
            for copy in due {
                assert!(!hosts[copy.to.index() / k].core.holds(copy.msg.source()));
                hosts[copy.to.index() / k].ingress_at(now, copy);
            }
        }
        hosts
    }

    /// Every channel's received messages (id and class), sorted.
    fn received<'a>(
        events: impl IntoIterator<Item = &'a TraceEvent>,
    ) -> BTreeMap<(ProcessId, ProcessId), Vec<(u64, bool)>> {
        let mut channels: BTreeMap<_, Vec<_>> = BTreeMap::new();
        for e in events {
            if let TraceEventKind::Recv {
                by,
                from,
                msg,
                infra,
                ..
            } = e.kind
            {
                channels
                    .entry((from, by))
                    .or_default()
                    .push((msg.seq(), infra));
            }
        }
        channels.values_mut().for_each(|msgs| msgs.sort_unstable());
        channels
    }

    /// Each process's events as (time, kind). Timer ids are numbered per
    /// host from its first process, so each fired timer is named by its
    /// rank among its process's timers instead.
    fn per_process(
        events: &[TraceEvent],
    ) -> BTreeMap<ProcessId, Vec<(VirtualTime, TraceEventKind)>> {
        let mut processes: BTreeMap<_, Vec<_>> = BTreeMap::new();
        for e in events {
            let seen = processes.entry(e.kind.process()).or_default();
            let mut kind = e.kind.clone();
            if let TraceEventKind::TimerFired { timer, .. } = &mut kind {
                let rank = seen
                    .iter()
                    .filter(|(_, k)| matches!(k, TraceEventKind::TimerFired { .. }))
                    .count();
                *timer = TimerId::new(rank as u64);
            }
            seen.push((e.time, kind));
        }
        processes
    }

    #[test]
    fn hosts_of_any_size_run_the_relay_as_the_simulator_does() {
        for n in [1, 2, 3, 5, 17] {
            let sim = Sim::builder(n)
                .link(FixedLatency(2))
                .faults(plan(n))
                .classify(infra)
                .measure(wire_cost)
                .build(|_| Box::new(Relay))
                .run();
            let mut sizes = vec![1, 3, n];
            sizes.dedup();
            let runs: Vec<_> = sizes
                .iter()
                .map(|&k| {
                    let hosts = on_hosts(n, k);
                    let stats: SimStats = hosts.iter().map(Host::stats).sum();
                    let events: Vec<TraceEvent> =
                        hosts.iter().flat_map(Host::events).cloned().collect();
                    assert_eq!(stats, sim.stats(), "n={n} k={k}");
                    assert_eq!(received(&events), received(sim.events()), "n={n} k={k}");
                    let drained =
                        Trace::from_parts(n, Vec::new(), sim.stop_reason(), sim.end_time(), stats);
                    assert!(
                        drained.channels_drained() && sim.channels_drained(),
                        "n={n} k={k}"
                    );
                    per_process(&events)
                })
                .collect();
            assert!(runs.windows(2).all(|w| w[0] == w[1]), "n={n}: {runs:?}");
            let stats = sim.stats();
            assert_eq!(stats.crashes, 1, "n={n}");
            assert!(
                stats.timers_fired > 0 && stats.wire_bytes > 0,
                "n={n}: {stats:?}"
            );
            if n > 1 {
                assert!(stats.messages_to_crashed > 0, "n={n}: {stats:?}");
            }
        }
    }
}
