//! `sfs-obs` — deterministic telemetry for the fail-stop simulation
//! stack: a metrics registry, causal span export, and a flight recorder,
//! shared by all four engines (virtual-time simulator, threaded router,
//! transport-backed runs, and the UDP multi-process backend).
//!
//! # Execution neutrality
//!
//! The whole crate sits strictly *downstream* of the engines: the
//! [`ObsSink`] seam the engines call has no channel back into scheduling
//! state (no RNG, no clock, no queue access), traces are only ever read
//! after a run finishes, and transport metrics are re-derived from
//! annotations the transport already records unconditionally. An
//! obs-enabled run is therefore happened-before-fingerprint-identical to
//! a bare run — a property pinned by the `obs_equiv` conformance tests
//! rather than merely asserted here.
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
//! * [`FlightRecorder`] — a fixed-size ring of recent telemetry, dumped
//!   via [`flight::dump_to_dir`] when a gate fails.
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
pub use sfs_asys::{EventSink, EventSinkHandle, Interest, MsgClass, ObsEvent, ObsHandle, ObsSink};
pub use sfs_tlogic::Verdict;
pub use verdict::SuiteVerdicts;
pub use watermark::AnomalyWatermarks;

use std::sync::Arc;

/// Fans one telemetry stream out to several sinks (e.g. a [`Registry`]
/// and a [`FlightRecorder`] observing the same engine).
pub fn fanout(handles: Vec<ObsHandle>) -> ObsHandle {
    #[derive(Debug)]
    struct Fanout(Vec<ObsHandle>);
    impl ObsSink for Fanout {
        fn record(&self, event: ObsEvent) {
            for h in &self.0 {
                h.record(event);
            }
        }
    }
    ObsHandle::new(Arc::new(Fanout(handles)))
}

/// Metric and annotation names shared across engines and reports.
///
/// Engine-seam names (emitted through [`ObsSink`]) re-export the
/// canonical constants from `sfs_asys::observe::metric`; trace-derived
/// names and the note keys they parse live here.
pub mod metrics {
    pub use sfs_asys::observe::metric::{
        COMPUTE_NS, CRASHES, DELIVERED, DELIVERY_LATENCY, DETECTIONS, DROPPED, DUPLICATED,
        QUEUE_DEPTH, SENT, STALL_NS, TIMERS, TO_CRASHED, WHEEL_OCCUPANCY, WIRE_BYTES,
    };

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
    use sfs_asys::ProcessId;

    #[test]
    fn fanout_feeds_every_sink() {
        let reg_a = Registry::new("sim");
        let reg_b = Registry::new("sim");
        let h = fanout(vec![reg_a.handle(), reg_b.handle()]);
        h.record(ObsEvent::Counter {
            node: ProcessId::new(1),
            class: MsgClass::App,
            name: metrics::SENT,
            delta: 2,
        });
        assert_eq!(reg_a.report().counter_total(metrics::SENT), 2);
        assert_eq!(reg_b.report().counter_total(metrics::SENT), 2);
    }
}
