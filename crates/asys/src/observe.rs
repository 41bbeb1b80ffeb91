//! The observation seam: every engine hands each event it emits to one
//! pluggable, **execution-neutral** [`EventSink`], and emits nothing else.
//!
//! The paper models a run as its event sequence (§2) and states every
//! property over it (§3), so the stream of [`TraceEvent`]s is the one
//! thing an observer needs: the streaming sFS monitor, the service's
//! shard summaries, the flight recorder and the anomaly watermarks in
//! `sfs-obs` are all folds over it, each offered only the event kinds it
//! declares ([`Interest`]). Engine counters travel separately, as the
//! run's [`SimStats`](crate::SimStats).
//!
//! The contract mirrors the classifier and measure hooks: an attached
//! sink is *called* from the engines' hot paths but has no channel back
//! into them — it receives an immutable borrow of an already-decided
//! event and may not touch the shared rng, virtual time, or any
//! scheduling state. An observed run is therefore byte-identical to a
//! bare run on the simulator and HB-fingerprint-identical on every
//! backend; the `obs_equiv` tests in `sfs-apps` pin exactly that.

use crate::trace::{TraceEvent, TraceEventKind};
use std::fmt;
use std::sync::Arc;

/// Message-class attribution for a metric sample, mirroring the
/// engines' infrastructure classifier: [`MsgClass::App`] is model-level
/// traffic, [`MsgClass::Infra`] is detector/transport machinery, and
/// [`MsgClass::None`] tags samples that are not about a message at all
/// (timers, crashes, whole-run counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MsgClass {
    /// Application (model-level) traffic.
    App,
    /// Infrastructure traffic (heartbeats, obituaries, wire frames).
    Infra,
    /// Not message-attributed.
    None,
}

impl MsgClass {
    /// The class the engines' boolean `infra` flag denotes.
    pub fn from_infra(infra: bool) -> Self {
        if infra {
            MsgClass::Infra
        } else {
            MsgClass::App
        }
    }

    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            MsgClass::App => "app",
            MsgClass::Infra => "infra",
            MsgClass::None => "-",
        }
    }
}

/// Which trace events a sink reads: a bitmask over event kind, with
/// sends and receives split by the engines' infrastructure flag.
///
/// A sink declares its interest once ([`EventSink::interest`]); the
/// handle reads it when it is built and tests it inline before the
/// virtual call, so an event nobody reads costs one mask test. The
/// default is [`Interest::ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u16);

impl Interest {
    /// Model-level (non-infrastructure) sends.
    pub const MODEL_SEND: Interest = Interest(1 << 0);
    /// Infrastructure sends (heartbeats, obituaries, wire frames).
    pub const INFRA_SEND: Interest = Interest(1 << 1);
    /// Model-level receives.
    pub const MODEL_RECV: Interest = Interest(1 << 2);
    /// Infrastructure receives.
    pub const INFRA_RECV: Interest = Interest(1 << 3);
    /// Crashes.
    pub const CRASH: Interest = Interest(1 << 4);
    /// Failure detections.
    pub const FAILED: Interest = Interest(1 << 5);
    /// Timer firings.
    pub const TIMER: Interest = Interest(1 << 6);
    /// Environment injections.
    pub const EXTERNAL: Interest = Interest(1 << 7);
    /// Protocol annotations.
    pub const NOTE: Interest = Interest(1 << 8);
    /// Nothing.
    pub const NONE: Interest = Interest(0);
    /// Every event.
    pub const ALL: Interest = Interest((1 << 9) - 1);
    /// The paper's event alphabet (model-level `send`/`recv`, `crash`,
    /// `failed`): exactly what `History::from_trace` keeps.
    pub const MODEL: Interest =
        Interest(Self::MODEL_SEND.0 | Self::MODEL_RECV.0 | Self::CRASH.0 | Self::FAILED.0);

    /// Both interests combined.
    pub const fn union(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }

    /// Whether an event of this kind is of interest.
    #[inline]
    pub fn wants(self, kind: &TraceEventKind) -> bool {
        let bit = match kind {
            TraceEventKind::Send { infra: false, .. } => Self::MODEL_SEND,
            TraceEventKind::Send { infra: true, .. } => Self::INFRA_SEND,
            TraceEventKind::Recv { infra: false, .. } => Self::MODEL_RECV,
            TraceEventKind::Recv { infra: true, .. } => Self::INFRA_RECV,
            TraceEventKind::Crash { .. } => Self::CRASH,
            TraceEventKind::Failed { .. } => Self::FAILED,
            TraceEventKind::TimerFired { .. } => Self::TIMER,
            TraceEventKind::External { .. } => Self::EXTERNAL,
            TraceEventKind::Note { .. } => Self::NOTE,
        };
        self.0 & bit.0 != 0
    }
}

/// A trace-event sink: the one observer seam every engine feeds.
///
/// Property monitors, run summaries, flight recorders and watermarks
/// all consume exactly the event stream a post-hoc checker would read
/// off the finished trace, one event at a time, as each engine emits it.
/// The sink is handed an immutable borrow of an already-decided event,
/// draws no randomness, reads no clock, and has no channel back into
/// scheduling — so an observed run is byte-identical to a bare run on
/// the simulator and HB-fingerprint-identical on every backend.
pub trait EventSink: Send + Sync {
    /// Absorb one just-emitted trace event. Through an
    /// [`EventSinkHandle`] this is called only for events
    /// [`EventSink::interest`] admits.
    fn on_event(&self, event: &TraceEvent);

    /// The events this sink reads. Read **once**, when the sink is
    /// wrapped in an [`EventSinkHandle`]; everything else is filtered
    /// out before the call, on every engine and on trace replay alike.
    /// Declare the narrowest set the sink's `on_event` does not ignore:
    /// on a heartbeat-driven run nine events in ten are infrastructure
    /// sends and receives, which no property of the paper's model reads.
    /// Pinned by `interest_is_the_history_projection` in
    /// `crates/apps/tests/obs_equiv.rs`.
    fn interest(&self) -> Interest {
        Interest::ALL
    }
}

/// A cloneable, `Debug`-friendly handle to an [`EventSink`], so specs
/// that derive `Clone`/`Debug` can carry one. The handle is where the
/// sink's [`Interest`] is applied.
#[derive(Clone)]
pub struct EventSinkHandle {
    sink: Arc<dyn EventSink>,
    interest: Interest,
}

impl EventSinkHandle {
    /// Wraps a sink, reading its interest.
    pub fn new(sink: Arc<dyn EventSink>) -> Self {
        let interest = sink.interest();
        EventSinkHandle { sink, interest }
    }

    /// One handle feeding several sinks, each offered only what it
    /// declared; the handle's own interest is their union.
    pub fn fanout(handles: Vec<EventSinkHandle>) -> Self {
        struct Fanout(Vec<EventSinkHandle>);
        impl EventSink for Fanout {
            fn on_event(&self, event: &TraceEvent) {
                for h in &self.0 {
                    h.on_event(event);
                }
            }
            fn interest(&self) -> Interest {
                self.0
                    .iter()
                    .fold(Interest::NONE, |all, h| all.union(h.interest))
            }
        }
        EventSinkHandle::new(Arc::new(Fanout(handles)))
    }

    /// The interest the sink declared when the handle was built.
    pub fn interest(&self) -> Interest {
        self.interest
    }

    /// Report one just-emitted trace event, if the sink reads its kind.
    #[inline]
    pub fn on_event(&self, event: &TraceEvent) {
        if self.interest.wants(&event.kind) {
            self.sink.on_event(event);
        }
    }
}

impl fmt::Debug for EventSinkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventSinkHandle")
            .field("interest", &self.interest)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::ProcessId;
    use std::sync::Mutex;

    struct Counting(Interest, Mutex<Vec<usize>>);
    impl EventSink for Counting {
        fn on_event(&self, event: &TraceEvent) {
            self.1.lock().unwrap().push(event.seq);
        }
        fn interest(&self) -> Interest {
            self.0
        }
    }

    #[test]
    fn handle_forwards_and_is_debuggable() {
        let sink = Arc::new(Counting(Interest::CRASH, Mutex::new(Vec::new())));
        let handle = EventSinkHandle::new(sink.clone());
        handle.clone().on_event(&TraceEvent {
            seq: 7,
            time: crate::time::VirtualTime::ZERO,
            kind: TraceEventKind::Crash {
                pid: ProcessId::new(3),
            },
        });
        assert_eq!(*sink.1.lock().unwrap(), vec![7]);
        assert!(format!("{handle:?}").contains("EventSinkHandle"));
    }

    #[test]
    fn handles_filter_by_declared_interest_and_fan_out_under_the_union() {
        let p0 = ProcessId::new(0);
        let kinds = [
            TraceEventKind::Send {
                from: p0,
                to: p0,
                msg: crate::id::MsgId::new(p0, 0),
                infra: true,
                payload: None,
            },
            TraceEventKind::Send {
                from: p0,
                to: p0,
                msg: crate::id::MsgId::new(p0, 1),
                infra: false,
                payload: None,
            },
            TraceEventKind::Crash { pid: p0 },
            TraceEventKind::Note {
                pid: p0,
                note: crate::note::Note::key_val("k", 1),
            },
        ];
        let model = Arc::new(Counting(Interest::MODEL, Mutex::new(Vec::new())));
        let notes = Arc::new(Counting(Interest::NOTE, Mutex::new(Vec::new())));
        let both = EventSinkHandle::fanout(vec![
            EventSinkHandle::new(model.clone()),
            EventSinkHandle::new(notes.clone()),
        ]);
        assert_eq!(both.interest(), Interest::MODEL.union(Interest::NOTE));
        for (seq, kind) in kinds.into_iter().enumerate() {
            both.on_event(&TraceEvent {
                seq,
                time: crate::time::VirtualTime::ZERO,
                kind,
            });
        }
        assert_eq!(*model.1.lock().unwrap(), vec![1, 2]);
        assert_eq!(*notes.1.lock().unwrap(), vec![3]);
    }

    #[test]
    fn class_round_trips_the_infra_flag() {
        assert_eq!(MsgClass::from_infra(true), MsgClass::Infra);
        assert_eq!(MsgClass::from_infra(false), MsgClass::App);
        assert_eq!(MsgClass::None.label(), "-");
    }
}
