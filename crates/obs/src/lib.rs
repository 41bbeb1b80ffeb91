//! `sfs-obs` — deterministic telemetry for the fail-stop simulation
//! stack: a metrics registry, causal span export, a flight recorder,
//! anomaly watermarks and the streaming sFS monitor, shared by all four
//! engines (virtual-time simulator, threaded runtime, transport-backed
//! runs, and the UDP multi-process backend).
//!
//! # One stream
//!
//! The engines emit trace events and nothing else. Everything here that
//! watches a run live is an [`EventSink`] over that one stream, declaring
//! the event kinds it reads ([`Interest`]) so the engines skip the rest:
//! the [`SfsMonitor`] reads the model alphabet, the [`FlightRecorder`]
//! model events, notes and injections, the [`AnomalyWatermarks`] crashes,
//! detections and notes, and the service's shard fold ([`TraceIngest`]
//! behind it) notes, crashes and detections. Engine counters come from
//! the run's [`SimStats`](sfs_asys::SimStats) ([`Registry::ingest_stats`])
//! on all four engines.
//!
//! # Execution neutrality
//!
//! The whole crate sits strictly *downstream* of the engines: a sink has
//! no channel back into scheduling state (no RNG, no clock, no queue
//! access), and transport metrics are re-derived from annotations the
//! transport already records unconditionally. An observed run is
//! therefore happened-before-fingerprint-identical to a bare run — a
//! property pinned by the `obs_equiv` conformance tests rather than
//! merely asserted here.
//!
//! # Pieces
//!
//! * [`Registry`] + [`RunReport`] — typed counters, gauges, and
//!   [`LogHistogram`] latency instruments keyed by (node, shard,
//!   message-class), with associative merges so per-shard and
//!   per-process snapshots collapse in any order.
//! * [`chrome::chrome_trace`] — Lamport-merged [`Trace`](sfs_asys::Trace)
//!   → Chrome trace-event JSON for Perfetto, including crash→detection
//!   spans and `span-begin`/`span-end` protocol phases.
//! * [`FlightRecorder`] — a fixed-size ring of recent events, dumped via
//!   [`flight::dump_to_dir`] when a gate fails or a watermark trips.
//! * [`trace_json`] — a hand-rolled JSON round-trip for traces, feeding
//!   the `sfs-trace-export` binary.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chrome;
pub mod flight;
pub mod hist;
pub mod json;
pub mod monitor;
pub mod registry;
pub mod report;
pub mod trace_json;
pub mod verdict;
pub mod watermark;

pub use flight::FlightRecorder;
pub use hist::LogHistogram;
pub use json::Json;
pub use monitor::SfsMonitor;
pub use registry::{Metric, MetricKey, Registry, TraceIngest};
pub use report::RunReport;
pub use sfs_asys::{EventSink, EventSinkHandle, Interest, MsgClass};
pub use sfs_tlogic::Verdict;
pub use verdict::SuiteVerdicts;
pub use watermark::AnomalyWatermarks;

/// Metric and annotation names shared across registries and reports.
pub mod metrics {
    /// Counter: send actions executed.
    pub const SENT: &str = "sent";
    /// Counter: messages admitted to a live process.
    pub const DELIVERED: &str = "delivered";
    /// Counter: copies withheld by the link.
    pub const DROPPED: &str = "dropped";
    /// Counter: extra copies minted by the link.
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

    /// Counter: datagrams/messages retransmitted (from `retx` notes).
    pub const RETX: &str = "retx";
    /// Histogram: retransmission timeout evolution, in ticks (from `rto`
    /// notes).
    pub const RTO_TICKS: &str = "rto_ticks";
    /// Histogram: crash → `Failed` declaration, in ticks.
    pub const DETECTION_LATENCY: &str = "detection_latency_ticks";
    /// Histogram: crash → first probe suspicion naming the victim, in
    /// ticks.
    pub const SUSPICION_LATENCY: &str = "suspicion_latency_ticks";
    /// Counter: `probe-suspect` notes whose target had not crashed when
    /// the note was recorded (an unparseable target counts as live).
    pub const FALSE_SUSPICIONS: &str = "false_suspicions";
    /// Histogram: application operation latency, in ticks (service layer).
    pub const OP_LATENCY: &str = "op_latency_ticks";

    /// Note key the transport writes once per retransmission burst
    /// (value: burst size). Matches `sfs_transport::NOTE_RETX`.
    pub const NOTE_RETX: &str = "retx";
    /// Note key the transport writes when its adaptive RTO changes
    /// (value: new RTO in ticks). Matches `sfs_transport::NOTE_RTO`.
    pub const NOTE_RTO: &str = "rto";
    /// Note key the probe layer writes on first suspicion (value: the
    /// suspect, `p<k>`). Matches `sfs_transport::NOTE_PROBE_SUSPECT`.
    pub const NOTE_PROBE_SUSPECT: &str = "probe-suspect";

    /// Gauge: trace events the streaming sFS monitor consumed (the
    /// model-alphabet events of the run).
    pub const MONITOR_EVENTS: &str = "monitor_events";

    /// Note key opening a named span (value: span name); paired with
    /// [`SPAN_END`] into Perfetto `B`/`E` slices by the Chrome exporter.
    pub const SPAN_BEGIN: &str = "span-begin";
    /// Note key closing the innermost span with the same value.
    pub const SPAN_END: &str = "span-end";
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_asys::{ProcessId, TraceEvent, TraceEventKind, VirtualTime};

    #[test]
    fn fanout_feeds_every_sink() {
        let recorder = FlightRecorder::new(8);
        let monitor = SfsMonitor::new(2);
        let h = EventSinkHandle::fanout(vec![recorder.handle(), monitor.handle()]);
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
        for kind in [
            TraceEventKind::Failed { by: p0, of: p1 },
            TraceEventKind::Crash { pid: p1 },
        ] {
            h.on_event(&TraceEvent {
                seq: 0,
                time: VirtualTime::ZERO,
                kind,
            });
        }
        assert_eq!(recorder.recorded(), 2);
        assert_eq!(monitor.events_seen(), 2);
    }
}
