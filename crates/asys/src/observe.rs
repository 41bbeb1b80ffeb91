//! The telemetry seam: a pluggable, **execution-neutral** observer every
//! engine can feed without changing what it executes.
//!
//! The contract mirrors the classifier and measure hooks: an attached
//! [`ObsSink`] is *called* from the engines' hot paths but has no channel
//! back into them — it receives copies of already-decided facts (a send
//! happened, a delivery cost `k` ticks, the wheel holds `m` deadlines)
//! and may not touch the shared rng, virtual time, or any scheduling
//! state. An obs-enabled run is therefore byte-identical to a bare run
//! on the simulator and HB-fingerprint-identical on every backend; the
//! `sfs-apps` equivalence tests and the E10 `sim:obs` conformance leg
//! pin exactly that.
//!
//! The event alphabet is deliberately small and type-erased: engines
//! report `(node, message-class, metric name, value)` triples and the
//! `sfs-obs` crate gives them meaning (counters, gauges, log-bucketed
//! histograms, flight-recorder rings). Keeping the vocabulary here — in
//! the substrate crate — lets the simulator, the threaded router, and
//! the wire backends share one seam without depending on the telemetry
//! implementation.

use crate::id::ProcessId;
use crate::trace::{TraceEvent, TraceEventKind};
use std::fmt;
use std::sync::Arc;

/// Message-class attribution for a metric sample, mirroring the
/// engines' infrastructure classifier: [`MsgClass::App`] is model-level
/// traffic, [`MsgClass::Infra`] is detector/transport machinery, and
/// [`MsgClass::None`] tags samples that are not about a message at all
/// (timers, queue depths, wall-time splits).
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

/// One telemetry fact, emitted by an engine into the attached sink.
///
/// The three shapes cover the registry's instrument kinds: monotonic
/// counters, last-write gauges, and histogram observations. `node` is
/// the process the sample is attributed to ([`ProcessId::new`] of
/// `usize::MAX`.. never appears; engine-global samples use node 0 by
/// convention and a [`MsgClass::None`] class).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsEvent {
    /// Add `delta` to the counter `name` at `(node, class)`.
    Counter {
        /// Attributed process.
        node: ProcessId,
        /// Message-class attribution.
        class: MsgClass,
        /// Metric name (a `'static` vocabulary; see `sfs-obs::metrics`).
        name: &'static str,
        /// Increment.
        delta: u64,
    },
    /// Set the gauge `name` at `(node, class)` to `value`.
    Gauge {
        /// Attributed process.
        node: ProcessId,
        /// Message-class attribution.
        class: MsgClass,
        /// Metric name.
        name: &'static str,
        /// New value.
        value: u64,
    },
    /// Record `value` into the histogram `name` at `(node, class)`.
    Observe {
        /// Attributed process.
        node: ProcessId,
        /// Message-class attribution.
        class: MsgClass,
        /// Metric name.
        name: &'static str,
        /// Observed sample (ticks, bytes, nanoseconds — the name says).
        value: u64,
    },
}

impl ObsEvent {
    /// The metric name, whatever the shape.
    pub fn name(&self) -> &'static str {
        match self {
            ObsEvent::Counter { name, .. }
            | ObsEvent::Gauge { name, .. }
            | ObsEvent::Observe { name, .. } => name,
        }
    }
}

/// A telemetry sink engines report into.
///
/// Implementations must be cheap, lock-light, and — the invariant the
/// conformance suite enforces — **side-effect-free toward the engine**:
/// `record` takes `&self`, draws no randomness from the engine's rng,
/// and cannot influence scheduling. The `sfs-obs` crate provides the
/// registry and flight-recorder implementations.
pub trait ObsSink: Send + Sync {
    /// Absorb one fact.
    fn record(&self, event: ObsEvent);
}

/// A cloneable, `Debug`-friendly handle to an [`ObsSink`], so specs that
/// derive `Clone`/`Debug` (e.g. `ClusterSpec`) can carry one.
#[derive(Clone)]
pub struct ObsHandle(Arc<dyn ObsSink>);

impl ObsHandle {
    /// Wraps a sink.
    pub fn new(sink: Arc<dyn ObsSink>) -> Self {
        ObsHandle(sink)
    }

    /// The underlying sink.
    pub fn sink(&self) -> &Arc<dyn ObsSink> {
        &self.0
    }

    /// Report one fact.
    pub fn record(&self, event: ObsEvent) {
        self.0.record(event);
    }
}

impl fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObsHandle").finish_non_exhaustive()
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

/// A trace-event sink: the second half of the telemetry seam, carrying
/// **structural** facts (the [`TraceEvent`]s the engines emit) instead of
/// numeric samples.
///
/// Where [`ObsSink`] feeds metric registries, an `EventSink` feeds
/// *property monitors* and run summaries: the `sfs-obs` streaming sFS
/// monitors consume exactly the event stream a post-hoc checker would
/// read off the finished trace, one event at a time, as each engine
/// emits it. The execution-neutrality contract is identical to
/// [`ObsSink`]'s — the sink is handed an immutable borrow of an
/// already-decided event, draws no randomness, reads no clock, and has no
/// channel back into scheduling — so a monitored run is byte-identical to
/// a bare run on the simulator and HB-fingerprint-identical on every
/// backend.
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

/// A cloneable, `Debug`-friendly handle to an [`EventSink`], mirroring
/// [`ObsHandle`] so specs that derive `Clone`/`Debug` can carry one. The
/// handle is where the sink's [`Interest`] is applied.
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

    /// The underlying sink.
    pub fn sink(&self) -> &Arc<dyn EventSink> {
        &self.sink
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

/// Metric names the engines emit. Centralised so the registry, the
/// engines, and the reports agree on spelling; the `sfs-obs` crate
/// re-exports them.
pub mod metric {
    /// Counter: send actions executed.
    pub const SENT: &str = "sent";
    /// Counter: messages admitted to a live process.
    pub const DELIVERED: &str = "delivered";
    /// Counter: copies withheld by the link/shim.
    pub const DROPPED: &str = "dropped";
    /// Counter: extra copies minted by the link/shim.
    pub const DUPLICATED: &str = "duplicated";
    /// Counter: messages consumed at a crashed receiver.
    pub const TO_CRASHED: &str = "to_crashed";
    /// Counter: sender-paid encoded frame bytes.
    pub const WIRE_BYTES: &str = "wire_bytes";
    /// Counter: timer firings delivered.
    pub const TIMERS: &str = "timers_fired";
    /// Counter: failure detections declared.
    pub const DETECTIONS: &str = "detections";
    /// Counter: process crashes.
    pub const CRASHES: &str = "crashes";
    /// Histogram: send→deliver latency in virtual ticks.
    pub const DELIVERY_LATENCY: &str = "delivery_latency_ticks";
    /// Histogram: router inbox depth sampled at each dispatch.
    pub const QUEUE_DEPTH: &str = "queue_depth";
    /// Histogram: timer-wheel occupancy sampled at each advance.
    pub const WHEEL_OCCUPANCY: &str = "wheel_occupancy";
    /// Counter: wall nanoseconds the router spent blocked on its inbox.
    pub const STALL_NS: &str = "stall_ns";
    /// Counter: wall nanoseconds the router spent dispatching events.
    pub const COMPUTE_NS: &str = "compute_ns";
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    struct Capture(Mutex<Vec<ObsEvent>>);
    impl ObsSink for Capture {
        fn record(&self, event: ObsEvent) {
            self.0.lock().unwrap().push(event);
        }
    }

    #[test]
    fn handle_forwards_and_is_debuggable() {
        let sink = Arc::new(Capture(Mutex::new(Vec::new())));
        let handle = ObsHandle::new(sink.clone());
        let cloned = handle.clone();
        cloned.record(ObsEvent::Counter {
            node: ProcessId::new(3),
            class: MsgClass::Infra,
            name: metric::SENT,
            delta: 2,
        });
        assert_eq!(sink.0.lock().unwrap().len(), 1);
        assert!(format!("{handle:?}").contains("ObsHandle"));
    }

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
