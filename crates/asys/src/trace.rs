//! Execution traces: the finite, observable prefix of a run.
//!
//! A [`Trace`] is the chronologically ordered record of everything the
//! simulator (or threaded runtime) did: sends, receives, crashes, failure
//! detections, timer firings, injections, and protocol annotations. The
//! formal-history crate projects a trace onto the paper's event alphabet
//! (`send`, `recv`, `crash`, `failed`); property checkers consume traces
//! directly.

use crate::id::{MsgId, ProcessId, TimerId};
use crate::note::Note;
use crate::text::Text;
use crate::time::VirtualTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The kind of a recorded trace event: 32 bytes, a tag byte and the
/// largest variant, [`TraceEventKind::Note`] (a 4-byte process id beside a
/// 24-byte [`Note`]). `Send` and `Recv` carry 25 bytes beside the tag: two
/// 4-byte ids, an 8-byte [`MsgId`], the flag and a one-word [`Text`]
/// payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEventKind {
    /// Process `from` appended message `msg` to channel `C_{from,to}`.
    Send {
        /// Sender.
        from: ProcessId,
        /// Destination.
        to: ProcessId,
        /// Unique message id.
        msg: MsgId,
        /// Whether the payload is infrastructure (protocol-internal)
        /// rather than a model-level application message; see
        /// `SimBuilder::classify`.
        infra: bool,
        /// `Debug` rendering of the payload, when payload recording is on.
        payload: Option<Text>,
    },
    /// Process `by` removed message `msg` from the head of `C_{from,by}`.
    Recv {
        /// Receiver.
        by: ProcessId,
        /// Original sender.
        from: ProcessId,
        /// Unique message id.
        msg: MsgId,
        /// Whether the payload is infrastructure (protocol-internal);
        /// mirrors the flag recorded at the send.
        infra: bool,
        /// `Debug` rendering of the payload, when payload recording is on.
        payload: Option<Text>,
    },
    /// `crash_pid`: the process halted permanently.
    Crash {
        /// The crashed process.
        pid: ProcessId,
    },
    /// `failed_by(of)`: process `by` detected (possibly erroneously) the
    /// failure of process `of`.
    Failed {
        /// The detecting process.
        by: ProcessId,
        /// The detected process.
        of: ProcessId,
    },
    /// A timer registered by `pid` fired.
    TimerFired {
        /// Owner of the timer.
        pid: ProcessId,
        /// The timer.
        timer: TimerId,
    },
    /// An environment injection (e.g. a forced suspicion) was delivered to
    /// `pid`.
    External {
        /// Target of the injection.
        pid: ProcessId,
        /// `Debug` rendering of the payload, when payload recording is on.
        payload: Option<Text>,
    },
    /// A protocol annotation; never affects execution.
    Note {
        /// The annotating process.
        pid: ProcessId,
        /// The annotation.
        note: Note,
    },
}

impl TraceEventKind {
    /// The process whose local state the event changes (for notes and
    /// externals, the process it is attached to).
    pub fn process(&self) -> ProcessId {
        match *self {
            TraceEventKind::Send { from, .. } => from,
            TraceEventKind::Recv { by, .. } => by,
            TraceEventKind::Crash { pid } => pid,
            TraceEventKind::Failed { by, .. } => by,
            TraceEventKind::TimerFired { pid, .. } => pid,
            TraceEventKind::External { pid, .. } => pid,
            TraceEventKind::Note { pid, .. } => pid,
        }
    }
}

/// One recorded event, with its position and virtual timestamp: 48 bytes,
/// `seq` and `time` eight each and a 32-byte [`TraceEventKind`]. Process
/// ids and message sequences inside it are 32-bit (see [`ProcessId`] and
/// [`MsgId`]), which bounds the system, not the run: `seq` and `time`
/// stay 64-bit because a long run may pass 2³² events or ticks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Zero-based position in the trace; unique and dense.
    pub seq: usize,
    /// Virtual time at which the event occurred.
    pub time: VirtualTime,
    /// What happened.
    pub kind: TraceEventKind,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} {}] ", self.seq, self.time)?;
        match &self.kind {
            TraceEventKind::Send { from, to, msg, .. } => write!(f, "send {from}->{to} {msg}"),
            TraceEventKind::Recv { by, from, msg, .. } => write!(f, "recv {by}<-{from} {msg}"),
            TraceEventKind::Crash { pid } => write!(f, "crash {pid}"),
            TraceEventKind::Failed { by, of } => write!(f, "failed {by}({of})"),
            TraceEventKind::TimerFired { pid, timer } => write!(f, "timer {pid} {timer}"),
            TraceEventKind::External { pid, .. } => write!(f, "external {pid}"),
            TraceEventKind::Note { pid, note } => write!(f, "note {pid} {note}"),
        }
    }
}

/// Why a simulation run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// No pending deliveries, timers, or injections remain. For safety
    /// properties this is as good as an infinite run: nothing further can
    /// happen.
    Quiescent,
    /// The configured virtual-time horizon was reached.
    MaxTime,
    /// The configured event budget was exhausted.
    MaxEvents,
    /// The scheduled-mode step budget ([`SimBuilder::max_steps`]) was
    /// exhausted — the schedule explorer's depth bound.
    ///
    /// [`SimBuilder::max_steps`]: crate::sim::SimBuilder::max_steps
    MaxSteps,
    /// Every process has crashed ("total failure" in the sense of \[Ske85\]).
    AllCrashed,
}

impl StopReason {
    /// Whether the run ended because nothing more could happen, i.e. the
    /// finite prefix is maximal and eventually-properties can be judged.
    pub fn is_complete(self) -> bool {
        matches!(self, StopReason::Quiescent | StopReason::AllCrashed)
    }
}

/// Aggregate counters for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimStats {
    /// Messages appended to channels.
    pub messages_sent: u64,
    /// Messages removed from channels and handed to a live process.
    pub messages_delivered: u64,
    /// Messages that reached a crashed process and were discarded.
    pub messages_to_crashed: u64,
    /// Messages lost by the link model ([`LinkVerdict::Drop`]) — severed
    /// partitions and i.i.d. loss both count here. Always zero under a
    /// pure latency model.
    ///
    /// [`LinkVerdict::Drop`]: crate::link::LinkVerdict::Drop
    pub messages_dropped: u64,
    /// Messages duplicated by the link model
    /// ([`LinkVerdict::Duplicate`]): one per duplicated send (the extra
    /// copy is not re-counted in [`SimStats::messages_sent`], which
    /// counts sends, but each delivered copy counts in
    /// [`SimStats::messages_delivered`]).
    ///
    /// [`LinkVerdict::Duplicate`]: crate::link::LinkVerdict::Duplicate
    pub messages_duplicated: u64,
    /// Timer firings delivered.
    pub timers_fired: u64,
    /// Crash events (injected or self-inflicted).
    pub crashes: u64,
    /// Failure detections declared.
    pub detections: u64,
    /// Rounds of the threaded runtime in which one process ran more than
    /// one handler, summed over processes: how often a host took its due
    /// work in a batch. Set by the rounds alone, so the same run counts
    /// the same on any number of worker threads. Always zero on the
    /// simulator and on a host driven by hand, which run no rounds; purely
    /// an engine-mechanics counter — batching never changes any of the
    /// other counters.
    pub delivery_batches: u64,
    /// Total bytes the run's sends would put on a real wire, under the
    /// measure installed via `SimBuilder::measure` (the engines) or
    /// counted from actual datagrams (the UDP backend). Charged once per
    /// send, on the sender's side: duplicated and dropped copies are the
    /// network's doing, not the protocol's spend. Zero when no measure
    /// is installed.
    pub wire_bytes: u64,
}

/// Counter-wise sum: the counters of a system whose processes ran on
/// separate [`Host`](crate::Host)s are the sum of the hosts' counters.
impl std::iter::Sum for SimStats {
    fn sum<I: Iterator<Item = SimStats>>(iter: I) -> SimStats {
        iter.fold(SimStats::default(), |a, b| SimStats {
            messages_sent: a.messages_sent + b.messages_sent,
            messages_delivered: a.messages_delivered + b.messages_delivered,
            messages_to_crashed: a.messages_to_crashed + b.messages_to_crashed,
            messages_dropped: a.messages_dropped + b.messages_dropped,
            messages_duplicated: a.messages_duplicated + b.messages_duplicated,
            timers_fired: a.timers_fired + b.timers_fired,
            crashes: a.crashes + b.crashes,
            detections: a.detections + b.detections,
            delivery_batches: a.delivery_batches + b.delivery_batches,
            wire_bytes: a.wire_bytes + b.wire_bytes,
        })
    }
}

/// How a run that kept no trace ended: everything a [`Trace`] carries
/// except the events themselves, which went only to the attached
/// [`EventSink`](crate::observe::EventSink). Returned by
/// [`Sim::run_unrecorded`](crate::sim::Sim::run_unrecorded) and
/// [`Runtime::shutdown_unrecorded`](crate::net::Runtime::shutdown_unrecorded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Why the run stopped.
    pub stop: StopReason,
    /// Virtual time when the run stopped.
    pub end_time: VirtualTime,
    /// Aggregate counters.
    pub stats: SimStats,
    /// Events the engine emitted — what `trace.events().len()` reads on
    /// a recorded run of the same spec.
    pub events: usize,
}

/// The full record of one run: every event in order, plus outcome metadata.
///
/// # Examples
///
/// ```
/// use sfs_asys::{Trace, TraceEventKind};
///
/// fn count_crashes(trace: &Trace) -> usize {
///     trace.events().iter()
///         .filter(|e| matches!(e.kind, TraceEventKind::Crash { .. }))
///         .count()
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    n: usize,
    events: Vec<TraceEvent>,
    stop: StopReason,
    end_time: VirtualTime,
    stats: SimStats,
}

impl Trace {
    /// Assembles a trace from its parts. Intended for the simulation engine
    /// and for tests that build traces by hand.
    pub fn from_parts(
        n: usize,
        events: Vec<TraceEvent>,
        stop: StopReason,
        end_time: VirtualTime,
        stats: SimStats,
    ) -> Self {
        Trace {
            n,
            events,
            stop,
            end_time,
            stats,
        }
    }

    /// Number of processes in the system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// All recorded events, in chronological order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Why the run stopped.
    pub fn stop_reason(&self) -> StopReason {
        self.stop
    }

    /// Virtual time when the run stopped.
    pub fn end_time(&self) -> VirtualTime {
        self.end_time
    }

    /// Aggregate counters.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Whether every sent message was consumed by the end of the trace —
    /// delivered to a live process or discarded at a crashed one. For a
    /// timer-free system this is message quiescence: the post-hoc signal
    /// that a wall-clock-bounded run (the threaded runtime stops with
    /// [`StopReason::MaxTime`] on shutdown) had in fact nothing left to
    /// do, so its finite prefix is maximal and comparable to a
    /// [`StopReason::Quiescent`] simulator run. A message parked behind a
    /// receive filter counts as undrained, as it should: the system was
    /// still waiting on it — unless the receiver has crashed, in which
    /// case both engines consume the parked copies as
    /// [`SimStats::messages_to_crashed`] (the filter can never change
    /// again). Duplicate copies are unaffected by partitions that begin
    /// after the verdict: the link is consulted once per send, so both
    /// copies stay in flight and are consumed like any others.
    pub fn channels_drained(&self) -> bool {
        // Each send puts 0 (dropped), 1, or 2 (duplicated) copies on a
        // channel; drained means every copy was consumed.
        self.stats.messages_sent + self.stats.messages_duplicated
            == self.stats.messages_delivered
                + self.stats.messages_to_crashed
                + self.stats.messages_dropped
    }

    /// Processes that crashed during the run, in crash order.
    pub fn crashed(&self) -> Vec<ProcessId> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::Crash { pid } => Some(pid),
                _ => None,
            })
            .collect()
    }

    /// All `failed_by(of)` detections, in order.
    pub fn detections(&self) -> Vec<(ProcessId, ProcessId)> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::Failed { by, of } => Some((by, of)),
                _ => None,
            })
            .collect()
    }

    /// All notes with the given key, with the seq of the note event.
    pub fn notes_with_key<'a>(
        &'a self,
        key: &'a str,
    ) -> impl Iterator<Item = (usize, ProcessId, &'a Note)> + 'a {
        self.events.iter().filter_map(move |e| match &e.kind {
            TraceEventKind::Note { pid, note } if note.key() == key => Some((e.seq, *pid, note)),
            _ => None,
        })
    }

    /// Renders the trace as one event per line; useful in test failures.
    pub fn to_pretty_string(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for e in &self.events {
            let _ = writeln!(s, "{e}");
        }
        let _ = writeln!(s, "-- stop: {:?} at {}", self.stop, self.end_time);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let p0 = ProcessId::new(0);
        let p1 = ProcessId::new(1);
        let events = vec![
            TraceEvent {
                seq: 0,
                time: VirtualTime::from_ticks(1),
                kind: TraceEventKind::Send {
                    from: p0,
                    to: p1,
                    msg: MsgId::new(p0, 0),
                    infra: false,
                    payload: None,
                },
            },
            TraceEvent {
                seq: 1,
                time: VirtualTime::from_ticks(2),
                kind: TraceEventKind::Recv {
                    by: p1,
                    from: p0,
                    msg: MsgId::new(p0, 0),
                    infra: false,
                    payload: None,
                },
            },
            TraceEvent {
                seq: 2,
                time: VirtualTime::from_ticks(3),
                kind: TraceEventKind::Failed { by: p1, of: p0 },
            },
            TraceEvent {
                seq: 3,
                time: VirtualTime::from_ticks(4),
                kind: TraceEventKind::Crash { pid: p0 },
            },
        ];
        Trace::from_parts(
            2,
            events,
            StopReason::Quiescent,
            VirtualTime::from_ticks(4),
            SimStats::default(),
        )
    }

    #[test]
    fn recorded_event_layout_is_pinned() {
        use std::mem::size_of;
        // TraceEventKind::Note bounds the size: a process id beside a
        // 24-byte Note (a one-word key and either a one-word value or an
        // optional id and a boxed set).
        assert!(size_of::<TraceEvent>() <= 48, "{}", size_of::<TraceEvent>());
        assert!(
            size_of::<TraceEventKind>() <= 32,
            "{}",
            size_of::<TraceEventKind>()
        );
        assert_eq!(size_of::<Note>(), 24);
        assert_eq!(size_of::<MsgId>(), 8);
        assert_eq!(size_of::<ProcessId>(), 4);
    }

    #[test]
    fn crashed_and_detections_extract() {
        let t = sample();
        assert_eq!(t.crashed(), vec![ProcessId::new(0)]);
        assert_eq!(t.detections(), vec![(ProcessId::new(1), ProcessId::new(0))]);
    }

    #[test]
    fn stop_reason_completeness() {
        assert!(StopReason::Quiescent.is_complete());
        assert!(StopReason::AllCrashed.is_complete());
        assert!(!StopReason::MaxTime.is_complete());
        assert!(!StopReason::MaxEvents.is_complete());
    }

    #[test]
    fn event_process_attribution() {
        let t = sample();
        let procs: Vec<_> = t
            .events()
            .iter()
            .map(|e| e.kind.process().index())
            .collect();
        assert_eq!(procs, vec![0, 1, 1, 0]);
    }

    #[test]
    fn pretty_string_mentions_every_event() {
        let t = sample();
        let s = t.to_pretty_string();
        assert!(s.contains("send p0->p1"));
        assert!(s.contains("failed p1(p0)"));
        assert!(s.contains("crash p0"));
    }
}
