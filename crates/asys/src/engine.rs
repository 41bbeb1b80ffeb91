//! The engine core: the paper's §2 model, written once.
//!
//! Both engines — the simulator ([`Sim`](crate::Sim)) and the threaded
//! runtime ([`net::Runtime`](crate::net::Runtime)) — drive one
//! [`EngineState`] and keep only their own scheduling loop. The core owns
//! everything an event may change: crash and detection flags, the receive
//! filters, the reliable FIFO channel `C_{i,j}` of every ordered pair (a
//! queue of in-flight copies plus a parked flag), message numbering, the
//! link and its rng, the classifier, the wire-byte measure, the event
//! sink, the crash registry and the optional trace recorder. It
//! implements, once, the interpretation of a handler's [`Action`]s, the
//! send → link verdict → enqueue path, crashes and detections, and the
//! admission of a due channel head, timer or injection.
//!
//! What the core does not own is *when* things happen. It announces two
//! kinds of deadline — "the head of channel `from → to` is due at `t`" and
//! "timer `id` is due at `t`" — through the statically dispatched
//! [`Schedule`] hook: the simulator files them in its calendar queue (or
//! its scheduled working set), the runtime in its timer wheel. A channel
//! has at most one head deadline outstanding and its next head is only
//! announced once the current one is gone, so every engine's channels are
//! FIFO by construction, whatever delays the link draws.
//!
//! Each engine passes its delay floor at construction: the simulator
//! delivers and fires no earlier than one tick after the cause, the
//! runtime at the same instant when the link or the timer says zero.

use crate::fault::Injection;
use crate::id::{MsgId, ProcessId, TimerId};
use crate::link::{LinkModel, LinkVerdict};
use crate::observe::EventSinkHandle;
use crate::process::{Action, ReceiveFilter};
use crate::text::Text;
use crate::time::VirtualTime;
use crate::timers::CancelledTimers;
use crate::trace::{SimStats, TraceEvent, TraceEventKind};
use rand::rngs::StdRng;
use std::collections::VecDeque;
use std::fmt;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Predicate marking payloads as infrastructure (`true`) rather than
/// model-level application messages; see `SimBuilder::classify` and
/// `RuntimeConfig::classify`.
pub type Classify<M> = Box<dyn Fn(&M) -> bool + Send>;

/// Per-payload wire-byte measure; see `SimBuilder::measure` and
/// `RuntimeConfig::measure`.
pub type Measure<M> = Box<dyn Fn(&M) -> u64 + Send>;

/// Live view of which processes have crashed, shared with oracle-style
/// detectors that model a *perfect* failure detector (used to produce
/// reference fail-stop runs; impossible to implement for real, per
/// Theorem 1 — hence "oracle").
///
/// Thread-safe so that oracle-configured processes can also run on the
/// threaded runtime. Crash flags are per-process atomics, so oracle
/// detectors polling inside the simulator's run loop pay one relaxed-ish
/// load instead of a mutex round trip per query.
#[derive(Debug, Clone, Default)]
pub struct CrashRegistry {
    inner: Arc<[AtomicBool]>,
}

impl CrashRegistry {
    /// An all-alive registry for `n` processes. The simulator creates one
    /// per run automatically; the threaded runtime takes one via
    /// `RuntimeConfig::registry` so oracle-configured processes can run on
    /// real threads too.
    pub fn new(n: usize) -> Self {
        CrashRegistry {
            inner: (0..n).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    fn mark(&self, pid: ProcessId) {
        if let Some(flag) = self.inner.get(pid.index()) {
            flag.store(true, Ordering::Release);
        }
    }

    /// Whether `pid` has crashed so far in the run.
    pub fn is_crashed(&self, pid: ProcessId) -> bool {
        self.inner
            .get(pid.index())
            .is_some_and(|flag| flag.load(Ordering::Acquire))
    }

    /// All processes crashed so far, without allocating: the hot-path
    /// variant of [`CrashRegistry::crashed`] for detector scans that run
    /// every poll interval.
    pub fn iter_crashed(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.inner
            .iter()
            .enumerate()
            .filter_map(|(i, flag)| flag.load(Ordering::Acquire).then_some(ProcessId::new(i)))
    }

    /// Visits every crashed process, without allocating. Equivalent to
    /// `iter_crashed().for_each(f)`; kept as a named entry point so
    /// detector code reads as a scan, not a collection.
    pub fn for_each_crashed(&self, f: impl FnMut(ProcessId)) {
        self.iter_crashed().for_each(f);
    }

    /// All processes crashed so far, as a fresh vector. Prefer
    /// [`CrashRegistry::iter_crashed`] in per-step/per-poll paths: this
    /// variant allocates on every call.
    pub fn crashed(&self) -> Vec<ProcessId> {
        self.iter_crashed().collect()
    }
}

/// Where an engine files the deadlines the core announces.
pub(crate) trait Schedule {
    /// The head of channel `from -> to` comes due at `at`.
    fn head_due(&mut self, at: VirtualTime, from: ProcessId, to: ProcessId);
    /// Timer `id`, armed by `pid`, comes due at `at`.
    fn timer_due(&mut self, at: VirtualTime, pid: ProcessId, id: TimerId);
}

/// What a run plugs into the core: the network, the observers and the
/// bounds. The simulator's builder fills it setter by setter; the
/// runtime fills it from its `RuntimeConfig`.
pub(crate) struct Hooks<M> {
    /// `None` puts every copy on its channel with no delay beyond the
    /// engine's floor.
    pub(crate) link: Option<Box<dyn LinkModel>>,
    pub(crate) classify: Option<Classify<M>>,
    pub(crate) measure: Option<Measure<M>>,
    pub(crate) sink: Option<EventSinkHandle>,
    pub(crate) registry: CrashRegistry,
    pub(crate) record_payloads: bool,
    /// Event budget: no handler's actions are applied once this many
    /// events have been emitted.
    pub(crate) max_events: usize,
}

struct InFlight<M> {
    msg: MsgId,
    payload: M,
    deliver_at: VirtualTime,
    infra: bool,
}

/// The state both engines share; see the module docs.
pub(crate) struct EngineState<M> {
    n: usize,
    /// Least delay, in ticks, of a delivery or a timer.
    floor: u64,
    /// The current instant; the owning engine moves it.
    pub(crate) now: VirtualTime,
    /// Feeds link verdicts; the simulator also lends it to every handler.
    pub(crate) rng: StdRng,
    hooks: Hooks<M>,
    crashed: Vec<bool>,
    /// Processes that have not crashed.
    live: usize,
    failed_flags: Vec<bool>,
    cancelled: CancelledTimers,
    filters: Vec<Option<ReceiveFilter<M>>>,
    /// Channel `from -> to` at `from * n + to`.
    channels: Vec<VecDeque<InFlight<M>>>,
    /// Per channel: the head was refused by the receiver's filter, so no
    /// head deadline is outstanding until the filter changes.
    parked: Vec<bool>,
    /// Per source: the sequence its next message gets.
    msg_seq: Vec<u32>,
    pub(crate) stats: SimStats,
    /// Events emitted so far; the next event's `seq`.
    pub(crate) emitted: usize,
    /// The trace recorder: the emitted events, kept only when installed.
    pub(crate) recorder: Option<Vec<TraceEvent>>,
}

impl<M: Clone + fmt::Debug> EngineState<M> {
    pub(crate) fn new(n: usize, floor: u64, rng: StdRng, hooks: Hooks<M>) -> Self {
        EngineState {
            n,
            floor,
            now: VirtualTime::ZERO,
            rng,
            hooks,
            crashed: vec![false; n],
            live: n,
            failed_flags: vec![false; n * n],
            cancelled: CancelledTimers::new(),
            filters: (0..n).map(|_| None).collect(),
            channels: (0..n * n).map(|_| VecDeque::new()).collect(),
            parked: vec![false; n * n],
            msg_seq: vec![0; n],
            stats: SimStats::default(),
            emitted: 0,
            recorder: None,
        }
    }

    /// Whether `pid` has crashed.
    pub(crate) fn is_crashed(&self, pid: ProcessId) -> bool {
        self.crashed[pid.index()]
    }

    /// Whether timer `id` is cancelled and has not come due since.
    pub(crate) fn is_cancelled(&self, id: TimerId) -> bool {
        self.cancelled.is_cancelled(id)
    }

    /// Whether every process has crashed.
    pub(crate) fn all_crashed(&self) -> bool {
        self.live == 0
    }

    /// The live crash view the core marks.
    pub(crate) fn registry(&self) -> &CrashRegistry {
        &self.hooks.registry
    }

    /// Whether the event budget is spent.
    pub(crate) fn budget_spent(&self) -> bool {
        self.emitted >= self.hooks.max_events
    }

    /// Pre-sizes the recorder: a few protocol rounds (Θ(n²) messages
    /// each) without reallocating, never more than the event budget, and
    /// capped so a generous budget reserves no hundreds of megabytes.
    pub(crate) fn start_recording(&mut self) {
        let rounds = (self.n * self.n * 8).clamp(256, 1 << 14);
        self.recorder = Some(Vec::with_capacity(self.hooks.max_events.min(rounds)));
    }

    /// The one path every event takes: numbered, offered to the sink,
    /// and — when a recorder is installed — kept.
    ///
    /// Inlined so that each caller builds the event in place. As a call
    /// it copied the caller's freshly stored `kind` with wide loads that
    /// straddle the narrow stores of its 4-byte ids and flag bytes: a
    /// store-forwarding stall on every event, recorded or not.
    #[inline(always)]
    fn emit(&mut self, kind: TraceEventKind) {
        let event = TraceEvent {
            seq: self.emitted,
            time: self.now,
            kind,
        };
        self.emitted += 1;
        if let Some(sink) = &self.hooks.sink {
            sink.on_event(&event);
        }
        if let Some(recorder) = &mut self.recorder {
            recorder.push(event);
        }
    }

    fn repr(&self, payload: &M) -> Option<Text> {
        self.hooks
            .record_payloads
            .then(|| Text::render(format_args!("{payload:?}")))
    }

    /// When something issued now with `delay` comes due, at the floor.
    fn deadline(&self, delay: u64) -> VirtualTime {
        self.now.saturating_add(delay.max(self.floor))
    }

    /// Applies the actions one handler call of `pid` issued, in order.
    pub(crate) fn apply(&mut self, pid: ProcessId, actions: Vec<Action<M>>, s: &mut impl Schedule) {
        // Internal iteration reads each action once, straight from the
        // buffer. A `for` loop moves it out through an `Option` first, and
        // where the payload shares the action's tag word (a payload at
        // least as large as every other variant) moving the payload on
        // re-reads that fresh copy across its store boundaries: a
        // store-forwarding stall on every send.
        let _ = actions.into_iter().try_for_each(|action| {
            // The paper's crash event is final: once `crash_i` is true the
            // state of `i` does not change further, so actions queued after
            // CrashSelf are void. At the event budget the run is stopping
            // and the rest of the batch falls outside the emitted prefix;
            // dropping it keeps the trace, the counters, the channels and
            // the registry all describing the same prefix.
            if self.crashed[pid.index()] || self.budget_spent() {
                return ControlFlow::Break(());
            }
            match action {
                Action::Send { to, msg } => self.send(pid, to, msg, s),
                Action::SetTimer { id, delay } => s.timer_due(self.deadline(delay), pid, id),
                Action::CancelTimer { id } => self.cancelled.cancel(id),
                Action::CrashSelf => self.crash(pid),
                Action::DeclareFailed { of } => self.declare_failed(pid, of),
                Action::Annotate(note) => self.emit(TraceEventKind::Note { pid, note }),
                Action::SetReceiveFilter(filter) => {
                    self.filters[pid.index()] = filter;
                    self.unpark_to(pid, s);
                }
                Action::ModelSend { to, msg } => self.emit(TraceEventKind::Send {
                    from: pid,
                    to,
                    msg,
                    infra: false,
                    payload: None,
                }),
                Action::ModelRecv { from, msg } => self.emit(TraceEventKind::Recv {
                    by: pid,
                    from,
                    msg,
                    infra: false,
                    payload: None,
                }),
            }
            ControlFlow::Continue(())
        });
    }

    /// Announces the heads of the channels into `to` that its previous
    /// filter parked.
    fn unpark_to(&mut self, to: ProcessId, s: &mut impl Schedule) {
        for from in ProcessId::all(self.n) {
            let ch = from.index() * self.n + to.index();
            if std::mem::take(&mut self.parked[ch]) {
                if let Some(head) = self.channels[ch].front() {
                    s.head_due(head.deliver_at.max(self.now), from, to);
                }
            }
        }
    }

    fn send(&mut self, from: ProcessId, to: ProcessId, payload: M, s: &mut impl Schedule) {
        let seq = self.msg_seq[from.index()];
        let Some(next) = seq.checked_add(1) else {
            // `from` has numbered every sequence a MsgId holds but the
            // last, which would leave the counter nowhere to go: the run
            // ends here, as at the event budget, rather than reuse an id.
            self.hooks.max_events = self.emitted;
            return;
        };
        self.msg_seq[from.index()] = next;
        let msg = MsgId::new(from, u64::from(seq));
        let infra = self.hooks.classify.as_ref().is_some_and(|f| f(&payload));
        self.emit(TraceEventKind::Send {
            from,
            to,
            msg,
            infra,
            payload: self.repr(&payload),
        });
        self.stats.messages_sent += 1;
        if let Some(measure) = &self.hooks.measure {
            self.stats.wire_bytes += measure(&payload);
        }
        let copy = |payload, deliver_at| InFlight {
            msg,
            payload,
            deliver_at,
            infra,
        };
        let verdict = match &mut self.hooks.link {
            Some(link) => link.verdict(from, to, self.now, &mut self.rng),
            None => LinkVerdict::Deliver(0),
        };
        match verdict {
            LinkVerdict::Deliver(d) => self.enqueue(from, to, copy(payload, self.deadline(d)), s),
            // The network loses the message: the send happened, but no
            // copy enters the channel. Reliability above this point is the
            // transport layer's job.
            LinkVerdict::Drop => self.stats.messages_dropped += 1,
            LinkVerdict::Duplicate(d1, d2) => {
                self.stats.messages_duplicated += 1;
                self.enqueue(from, to, copy(payload.clone(), self.deadline(d1)), s);
                self.enqueue(from, to, copy(payload, self.deadline(d2)), s);
            }
        }
    }

    /// Appends one copy to channel `from -> to`, announcing it as the head
    /// if the channel was empty.
    fn enqueue(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        copy: InFlight<M>,
        s: &mut impl Schedule,
    ) {
        let queue = &mut self.channels[from.index() * self.n + to.index()];
        if queue.is_empty() {
            s.head_due(copy.deliver_at, from, to);
        }
        queue.push_back(copy);
    }

    /// Crashes `pid`, once.
    pub(crate) fn crash(&mut self, pid: ProcessId) {
        if std::mem::replace(&mut self.crashed[pid.index()], true) {
            return;
        }
        self.live -= 1;
        self.hooks.registry.mark(pid);
        self.emit(TraceEventKind::Crash { pid });
        self.stats.crashes += 1;
        // Channels parked behind the crashed process's filter have no head
        // deadline left and the filter can never change again: consume
        // their copies as messages-to-crashed now, or `channels_drained()`
        // would report a finished run as undrained. The other channels into
        // `pid` are counted copy by copy as their heads come due.
        for from in 0..self.n {
            let ch = from * self.n + pid.index();
            if std::mem::take(&mut self.parked[ch]) {
                self.stats.messages_to_crashed += self.channels[ch].len() as u64;
                self.channels[ch].clear();
            }
        }
    }

    fn declare_failed(&mut self, by: ProcessId, of: ProcessId) {
        // failed_i(j) is a stable boolean in the paper: it becomes true
        // once; re-declarations are idempotent.
        let flag = &mut self.failed_flags[by.index() * self.n + of.index()];
        if !std::mem::replace(flag, true) {
            self.emit(TraceEventKind::Failed { by, of });
            self.stats.detections += 1;
        }
    }

    /// Admits the due head of channel `from -> to`: parks it if the live
    /// receiver's filter refuses it, consumes it if the receiver crashed,
    /// and otherwise records the receive and returns the payload for the
    /// engine to hand to `to`'s `on_message`.
    pub(crate) fn admit_head(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        s: &mut impl Schedule,
    ) -> Option<M> {
        let ch = from.index() * self.n + to.index();
        let queue = &mut self.channels[ch];
        let head = queue
            .front()
            .expect("a head came due on an empty channel: engine invariant broken");
        // A refused message stays at the head of its channel, unreceived,
        // and the channel parks until the filter changes.
        if !self.crashed[to.index()]
            && self.filters[to.index()]
                .as_ref()
                .is_some_and(|f| !f.accepts(&head.payload))
        {
            self.parked[ch] = true;
            return None;
        }
        let head = queue.pop_front()?;
        // The next copy cannot be received before the one ahead of it.
        if let Some(next) = queue.front() {
            s.head_due(next.deliver_at.max(self.now), from, to);
        }
        if self.crashed[to.index()] {
            // The channel does not lose the message; the crashed process
            // simply never executes a receive event for it.
            self.stats.messages_to_crashed += 1;
            return None;
        }
        self.emit(TraceEventKind::Recv {
            by: to,
            from,
            msg: head.msg,
            infra: head.infra,
            payload: self.repr(&head.payload),
        });
        self.stats.messages_delivered += 1;
        Some(head.payload)
    }

    /// Admits a due timer: whether it fires (it was neither cancelled nor
    /// armed by a process that has since crashed).
    pub(crate) fn admit_timer(&mut self, pid: ProcessId, id: TimerId) -> bool {
        if self.cancelled.take(id) || self.crashed[pid.index()] {
            return false;
        }
        self.emit(TraceEventKind::TimerFired { pid, timer: id });
        self.stats.timers_fired += 1;
        true
    }

    /// Applies an injection to `pid` unless it has crashed; an external
    /// stimulus comes back for the engine to hand to `on_external`.
    pub(crate) fn admit_injection(&mut self, pid: ProcessId, injection: Injection<M>) -> Option<M> {
        if self.crashed[pid.index()] {
            return None;
        }
        match injection {
            Injection::Crash => {
                self.crash(pid);
                None
            }
            Injection::External(payload) => {
                self.emit(TraceEventKind::External {
                    pid,
                    payload: self.repr(&payload),
                });
                Some(payload)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::process::{Context, Process};
    use crate::sim::Sim;
    use crate::trace::{StopReason, TraceEventKind};
    use crate::ProcessId;

    /// Sends three messages to `p1` on start.
    struct Burst;

    impl Process<u8> for Burst {
        fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
            if ctx.id().index() == 0 {
                for k in 0..3 {
                    ctx.send(ProcessId::new(1), k);
                }
            }
        }
        fn on_message(&mut self, _: &mut Context<'_, u8>, _: ProcessId, _: u8) {}
    }

    #[test]
    fn the_send_that_would_exhaust_a_sequence_ends_the_run_as_the_budget_does() {
        let mut sim = Sim::<u8>::builder(2).build(|_| Box::new(Burst));
        sim.core_mut().msg_seq[0] = u32::MAX - 1;
        let trace = sim.run();
        assert_eq!(trace.stop_reason(), StopReason::MaxEvents);
        let sends: Vec<u64> = trace
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::Send { msg, .. } => Some(msg.seq()),
                _ => None,
            })
            .collect();
        // Sequence u32::MAX - 1 is the last one handed out: the next send
        // would leave the counter nowhere to go, so neither it nor the
        // third is applied and no id is reused.
        assert_eq!(sends, vec![u64::from(u32::MAX - 1)]);
        assert_eq!(trace.stats().messages_sent, 1);
        assert_eq!(trace.events().len(), 1);
    }
}
