//! Anomaly watermarks: learned-baseline tripwires over the live
//! telemetry stream, dumping the flight recorder *before* a
//! certification gate fails.
//!
//! [`AnomalyWatermarks`] is an [`ObsSink`] meant to ride a
//! [`crate::fanout`] next to the metrics registry and the flight
//! recorder. It learns a per-signal baseline from the first samples of
//! a run, then trips — at most once per signal — when a later sample
//! inflates past the learned baseline by the configured factor:
//!
//! * **queue depth** — `queue_depth` histogram samples from the
//!   threaded router's dispatch loop; a deep inbox is the earliest sign
//!   of a router falling behind its shard.
//! * **RTO inflation** — `rto_ticks` samples (the transport's adaptive
//!   retransmission timeout); a timeout spiralling above its learned
//!   level precedes the false-suspicion storms that break soak
//!   certification. No engine emits these on the obs seam today — the
//!   transport's `rto` values exist only as trace notes — so the signal
//!   fires only for a caller that forwards them.
//! * **false-suspicion rate** — the running ratio of `detections`
//!   counter increments to `crashes` increments; in a clean sFS run
//!   detections track crashes within the cluster fan-out, so a
//!   detections excess flags suspicion churn before the verdict gate
//!   sees it.
//!
//! A trip is recorded (see [`AnomalyWatermarks::trips`]) and, when a
//! flight recorder is attached, its ring is dumped to
//! `<label>-watermark-<signal>.flight.txt` under `SFS_FLIGHT_DIR` — the
//! proactive post-mortem that E13's chaos soak wires in.

use crate::flight;
use crate::metrics;
use crate::FlightRecorder;
use sfs_asys::{ObsEvent, ObsHandle, ObsSink};
use std::sync::{Arc, Mutex};

/// Tuning for the watermark tripwires. The defaults are deliberately
/// loose: watermarks are a smoke alarm for soak runs, not a precision
/// gate, and must stay silent on healthy chaos (E13's fault grid).
#[derive(Debug, Clone)]
pub struct WatermarkConfig {
    /// Samples per signal consumed to learn the baseline mean before
    /// the tripwire arms.
    pub warmup: u64,
    /// A sample trips when it exceeds `inflation × baseline mean`.
    pub inflation: f64,
    /// Absolute floor below which queue-depth samples never trip
    /// (shallow inboxes are noise regardless of ratio).
    pub queue_floor: u64,
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
            queue_floor: 256,
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
    fn sample(&mut self, value: u64, cfg: &WatermarkConfig, floor: u64) -> bool {
        if self.count < cfg.warmup {
            self.count += 1;
            let v = value as f64;
            self.mean += (v - self.mean) / self.count as f64;
            return false;
        }
        value >= floor && (value as f64) > self.mean.max(1.0) * cfg.inflation
    }
}

#[derive(Debug, Default)]
struct Inner {
    queue: Baseline,
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

    /// An [`ObsHandle`] feeding these watermarks, for [`crate::fanout`].
    pub fn handle(self: &Arc<Self>) -> ObsHandle {
        ObsHandle::new(self.clone() as Arc<dyn ObsSink>)
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

impl ObsSink for AnomalyWatermarks {
    fn record(&self, event: ObsEvent) {
        // Four names are read. Everything else — with watermarks armed the
        // simulator emits two or three facts per trace event — returns
        // before the lock.
        let name = event.name();
        if name != metrics::QUEUE_DEPTH
            && name != metrics::RTO_TICKS
            && name != metrics::DETECTIONS
            && name != metrics::CRASHES
        {
            return;
        }
        let mut inner = self.inner.lock().expect("watermark poisoned");
        match event {
            ObsEvent::Observe { name, value, .. } if name == metrics::QUEUE_DEPTH => {
                let baseline = inner.queue.mean;
                if inner
                    .queue
                    .sample(value, &self.config, self.config.queue_floor)
                {
                    self.trip(&mut inner, "queue-depth", value, baseline);
                }
            }
            ObsEvent::Observe { name, value, .. } if name == metrics::RTO_TICKS => {
                let baseline = inner.rto.mean;
                if inner.rto.sample(value, &self.config, self.config.rto_floor) {
                    self.trip(&mut inner, "rto-inflation", value, baseline);
                }
            }
            ObsEvent::Counter { name, delta, .. } if name == metrics::DETECTIONS => {
                inner.detections += delta;
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
            ObsEvent::Counter { name, delta, .. } if name == metrics::CRASHES => {
                inner.crashes += delta;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_asys::{MsgClass, ProcessId};

    fn observe(name: &'static str, value: u64) -> ObsEvent {
        ObsEvent::Observe {
            node: ProcessId::new(0),
            class: MsgClass::None,
            name,
            value,
        }
    }

    fn count(name: &'static str, delta: u64) -> ObsEvent {
        ObsEvent::Counter {
            node: ProcessId::new(0),
            class: MsgClass::None,
            name,
            delta,
        }
    }

    #[test]
    fn queue_watermark_learns_then_trips_once() {
        let wm = AnomalyWatermarks::new("test");
        let h = wm.handle();
        for _ in 0..40 {
            h.record(observe(metrics::QUEUE_DEPTH, 8));
        }
        assert!(wm.trips().is_empty(), "healthy depth must not trip");
        h.record(observe(metrics::QUEUE_DEPTH, 1_000));
        h.record(observe(metrics::QUEUE_DEPTH, 2_000));
        assert_eq!(wm.trips(), vec!["queue-depth"], "trips exactly once");
    }

    #[test]
    fn samples_below_the_floor_never_trip() {
        let wm = AnomalyWatermarks::new("test");
        let h = wm.handle();
        for _ in 0..40 {
            h.record(observe(metrics::QUEUE_DEPTH, 1));
        }
        // 100x the baseline but under the absolute floor.
        h.record(observe(metrics::QUEUE_DEPTH, 100));
        assert!(wm.trips().is_empty());
    }

    #[test]
    fn suspicion_rate_trips_on_detection_flood_without_crashes() {
        let wm = AnomalyWatermarks::new("test");
        let h = wm.handle();
        h.record(count(metrics::CRASHES, 1));
        h.record(count(metrics::DETECTIONS, 64));
        assert!(wm.trips().is_empty(), "one kill's fan-out is healthy");
        h.record(count(metrics::DETECTIONS, 1_000));
        assert_eq!(wm.trips(), vec!["false-suspicion-rate"]);
    }

    #[test]
    fn rto_inflation_trips_against_learned_baseline() {
        let wm = AnomalyWatermarks::new("test");
        let h = wm.handle();
        for _ in 0..40 {
            h.record(observe(metrics::RTO_TICKS, 20));
        }
        h.record(observe(metrics::RTO_TICKS, 30));
        assert!(wm.trips().is_empty(), "mild drift is fine");
        h.record(observe(metrics::RTO_TICKS, 400));
        assert_eq!(wm.trips(), vec!["rto-inflation"]);
    }
}
