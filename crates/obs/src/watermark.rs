//! Anomaly watermarks: learned-baseline tripwires over the live event
//! stream, dumping the flight recorder *before* a certification gate
//! fails.
//!
//! [`AnomalyWatermarks`] is an [`EventSink`] reading crashes, detections
//! and notes — a few percent of a heartbeat-driven run — meant to ride an
//! [`EventSinkHandle::fanout`] next to a [`FlightRecorder`]. Two signals
//! are live, each tripping at most once per run:
//!
//! * **false-suspicion rate** — `Failed` events against `Crash` events:
//!   in a clean sFS run detections track crashes within the cluster
//!   fan-out, so detections beyond `crashes × suspicion_fanout +
//!   suspicion_slack` flag suspicion churn before the verdict gate sees
//!   it.
//! * **RTO inflation** — the adaptive transport's `rto` notes (its
//!   retransmission timeout each time backoff re-arms it). The first
//!   `warmup` samples of the run learn a baseline mean; a later sample
//!   above `rto_floor` and `inflation ×` that mean trips. A timeout
//!   spiralling above its learned level precedes the false-suspicion
//!   storms that break soak certification.
//!
//! A trip is recorded (see [`AnomalyWatermarks::trips`]) and, when a
//! flight recorder is attached, its ring is dumped to
//! `<label>-watermark-<signal>.flight.txt` under `SFS_FLIGHT_DIR` — the
//! proactive post-mortem that E13's chaos soak wires in.

use crate::flight;
use crate::metrics;
use crate::FlightRecorder;
use sfs_asys::{EventSink, EventSinkHandle, Interest, Note, TraceEvent, TraceEventKind};
use std::sync::{Arc, Mutex};

/// Tuning for the watermark tripwires. The defaults are deliberately
/// loose: watermarks are a smoke alarm for soak runs, not a precision
/// gate, and must stay silent on healthy chaos (E13's fault grid).
#[derive(Debug, Clone)]
pub struct WatermarkConfig {
    /// RTO samples consumed to learn the baseline mean before the
    /// tripwire arms.
    pub warmup: u64,
    /// A sample trips when it exceeds `inflation × baseline mean`.
    pub inflation: f64,
    /// Absolute floor below which RTO samples never trip.
    pub rto_floor: u64,
    /// Detections allowed per observed crash (the detection fan-out of
    /// a healthy kill: every survivor detects each victim).
    pub suspicion_fanout: u64,
    /// Detections tolerated before any crash has been observed
    /// (endogenous suspicions in flight are normal; a flood is not).
    pub suspicion_slack: u64,
}

impl Default for WatermarkConfig {
    fn default() -> Self {
        WatermarkConfig {
            warmup: 32,
            inflation: 8.0,
            rto_floor: 64,
            suspicion_fanout: 64,
            suspicion_slack: 256,
        }
    }
}

#[derive(Debug, Default)]
struct Baseline {
    count: u64,
    mean: f64,
}

impl Baseline {
    /// Learns during warmup; afterwards reports whether `value` inflates
    /// past the learned mean.
    fn sample(&mut self, value: u64, cfg: &WatermarkConfig) -> bool {
        if self.count < cfg.warmup {
            self.count += 1;
            let v = value as f64;
            self.mean += (v - self.mean) / self.count as f64;
            return false;
        }
        value >= cfg.rto_floor && (value as f64) > self.mean.max(1.0) * cfg.inflation
    }
}

#[derive(Debug, Default)]
struct Inner {
    rto: Baseline,
    detections: u64,
    crashes: u64,
    tripped: Vec<&'static str>,
}

/// The watermark sink; see the module docs.
#[derive(Debug)]
pub struct AnomalyWatermarks {
    label: String,
    config: WatermarkConfig,
    recorder: Option<Arc<FlightRecorder>>,
    inner: Mutex<Inner>,
}

impl AnomalyWatermarks {
    /// Watermarks with default tuning and no flight recorder attached
    /// (trips are recorded but nothing is dumped).
    pub fn new(label: &str) -> Arc<Self> {
        Self::with_config(label, WatermarkConfig::default(), None)
    }

    /// Watermarks that dump `recorder`'s ring on each trip.
    pub fn with_flight(label: &str, recorder: Arc<FlightRecorder>) -> Arc<Self> {
        Self::with_config(label, WatermarkConfig::default(), Some(recorder))
    }

    /// Fully-specified constructor.
    pub fn with_config(
        label: &str,
        config: WatermarkConfig,
        recorder: Option<Arc<FlightRecorder>>,
    ) -> Arc<Self> {
        Arc::new(AnomalyWatermarks {
            label: label.to_owned(),
            config,
            recorder,
            inner: Mutex::new(Inner::default()),
        })
    }

    /// An [`EventSinkHandle`] feeding these watermarks.
    pub fn handle(self: &Arc<Self>) -> EventSinkHandle {
        EventSinkHandle::new(self.clone() as Arc<dyn EventSink>)
    }

    /// Signals that have tripped so far, in trip order.
    pub fn trips(&self) -> Vec<&'static str> {
        self.inner
            .lock()
            .expect("watermark poisoned")
            .tripped
            .clone()
    }

    fn trip(&self, inner: &mut Inner, signal: &'static str, value: u64, baseline: f64) {
        if inner.tripped.contains(&signal) {
            return;
        }
        inner.tripped.push(signal);
        let mut body = format!(
            "anomaly watermark tripped: {signal} = {value} \
             (learned baseline {baseline:.1})\n"
        );
        if let Some(rec) = &self.recorder {
            body.push_str(&rec.dump());
        }
        flight::dump_to_dir(&format!("{}-watermark-{signal}", self.label), &body);
    }
}

impl EventSink for AnomalyWatermarks {
    fn on_event(&self, event: &TraceEvent) {
        let lock = || self.inner.lock().expect("watermark poisoned");
        match &event.kind {
            TraceEventKind::Crash { .. } => lock().crashes += 1,
            TraceEventKind::Failed { .. } => {
                let mut inner = lock();
                inner.detections += 1;
                let allowance =
                    inner.crashes * self.config.suspicion_fanout + self.config.suspicion_slack;
                if inner.detections > allowance {
                    let (detections, crashes) = (inner.detections, inner.crashes);
                    self.trip(
                        &mut inner,
                        "false-suspicion-rate",
                        detections,
                        crashes as f64,
                    );
                }
            }
            TraceEventKind::Note {
                note: Note::KeyVal { key, val },
                ..
            } if key == metrics::NOTE_RTO => {
                let Ok(rto) = val.parse::<u64>() else { return };
                let mut inner = lock();
                let baseline = inner.rto.mean;
                if inner.rto.sample(rto, &self.config) {
                    self.trip(&mut inner, "rto-inflation", rto, baseline);
                }
            }
            _ => {}
        }
    }

    fn interest(&self) -> Interest {
        Interest::CRASH
            .union(Interest::FAILED)
            .union(Interest::NOTE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_asys::{ProcessId, VirtualTime};

    fn feed(h: &EventSinkHandle, kind: TraceEventKind) {
        h.on_event(&TraceEvent {
            seq: 0,
            time: VirtualTime::ZERO,
            kind,
        });
    }

    fn rto(value: u64) -> TraceEventKind {
        TraceEventKind::Note {
            pid: ProcessId::new(0),
            note: Note::key_val(metrics::NOTE_RTO, value),
        }
    }

    fn failed() -> TraceEventKind {
        TraceEventKind::Failed {
            by: ProcessId::new(0),
            of: ProcessId::new(1),
        }
    }

    #[test]
    fn samples_below_the_floor_never_trip() {
        let wm = AnomalyWatermarks::new("test");
        let h = wm.handle();
        for _ in 0..40 {
            feed(&h, rto(1));
        }
        // 60x the baseline but under the absolute floor.
        feed(&h, rto(60));
        assert!(wm.trips().is_empty());
    }

    #[test]
    fn suspicion_rate_trips_on_detection_flood_without_crashes() {
        let wm = AnomalyWatermarks::new("test");
        let h = wm.handle();
        feed(
            &h,
            TraceEventKind::Crash {
                pid: ProcessId::new(1),
            },
        );
        for _ in 0..64 {
            feed(&h, failed());
        }
        assert!(wm.trips().is_empty(), "one kill's fan-out is healthy");
        for _ in 0..1_000 {
            feed(&h, failed());
        }
        assert_eq!(wm.trips(), vec!["false-suspicion-rate"]);
    }

    #[test]
    fn rto_inflation_trips_against_learned_baseline() {
        let wm = AnomalyWatermarks::new("test");
        let h = wm.handle();
        for _ in 0..40 {
            feed(&h, rto(20));
        }
        feed(&h, rto(30));
        assert!(wm.trips().is_empty(), "mild drift is fine");
        feed(&h, rto(400));
        feed(&h, rto(800));
        assert_eq!(wm.trips(), vec!["rto-inflation"], "trips exactly once");
    }
}
