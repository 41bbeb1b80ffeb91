//! The metrics registry: typed instruments keyed by `(node, shard,
//! message-class, name)`, filled from a run's counters and its event
//! stream.
//!
//! One registry serves one engine run (or one rayon shard of one); the
//! per-shard registries then collapse into a single
//! [`RunReport`](crate::RunReport) via [`Registry::report`] +
//! [`RunReport::merge`](crate::RunReport::merge) — an order-insensitive
//! fold, because counters add, gauges take the latest-by-max, and the
//! log-bucket histograms merge element-wise.
//!
//! A registry is not itself a sink. Counts come from the run's
//! [`SimStats`] ([`Registry::ingest_stats`]) on every engine; transport
//! metrics —
//! retransmission bursts, RTO evolution, false suspicions, suspicion and
//! detection latency — are re-derived by a [`TraceIngest`] fold from the
//! execution-neutral annotations those layers leave in the event stream,
//! live from a sink or replayed from a [`Trace`]
//! ([`Registry::ingest_trace`]).

use crate::hist::LogHistogram;
use crate::metrics;
use sfs_asys::{MsgClass, SimStats, Trace, TraceEvent, TraceEventKind, VirtualTime};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// The identity of one instrument in a registry or report.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (see [`crate::metrics`]).
    pub name: String,
    /// Shard the sample came from (0 for unsharded engines).
    pub shard: u32,
    /// Process the sample is attributed to.
    pub node: u32,
    /// Message-class attribution.
    pub class: MsgClass,
}

/// One aggregated instrument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Metric {
    /// A monotonic counter.
    Counter(u64),
    /// A last-write-wins gauge (merged by max).
    Gauge(u64),
    /// A log-bucketed histogram.
    Hist(LogHistogram),
}

impl Metric {
    /// Folds `other` into `self`; shape mismatches keep `self`'s shape
    /// and fold what they can (counters/gauges add/max their scalars).
    pub fn merge(&mut self, other: &Metric) {
        match (self, other) {
            (Metric::Counter(a), Metric::Counter(b)) => *a += b,
            (Metric::Gauge(a), Metric::Gauge(b)) => *a = (*a).max(*b),
            (Metric::Hist(a), Metric::Hist(b)) => a.merge(b),
            (Metric::Counter(a), Metric::Gauge(b)) | (Metric::Gauge(a), Metric::Counter(b)) => {
                *a = (*a).max(*b)
            }
            (Metric::Hist(a), Metric::Counter(b)) | (Metric::Hist(a), Metric::Gauge(b)) => {
                a.record(*b)
            }
            (Metric::Counter(a), Metric::Hist(b)) | (Metric::Gauge(a), Metric::Hist(b)) => {
                *a += b.count()
            }
        }
    }
}

/// A thread-safe metrics registry.
#[derive(Debug)]
pub struct Registry {
    engine: String,
    shard: u32,
    rows: Mutex<Rows>,
}

/// One row per `(node, class)`, holding that row's few instruments by
/// name: the per-sample lookup compares two integers and scans a short
/// vector, and a name is copied only when its instrument is created.
type Rows = BTreeMap<(u32, MsgClass), Vec<(String, Metric)>>;

/// The instrument `name` at `(node, class)`, created by `new` on first
/// use.
fn instrument<'a>(
    rows: &'a mut Rows,
    node: u32,
    class: MsgClass,
    name: &str,
    new: impl FnOnce() -> Metric,
) -> &'a mut Metric {
    let row = rows.entry((node, class)).or_default();
    let at = match row.iter().position(|(n, _)| n == name) {
        Some(at) => at,
        None => {
            row.push((name.to_owned(), new()));
            row.len() - 1
        }
    };
    &mut row[at].1
}

impl Registry {
    /// A fresh registry for the named engine (`"sim"`, `"threaded"`,
    /// `"transport"`, `"udp"`).
    pub fn new(engine: impl Into<String>) -> Arc<Self> {
        Self::for_shard(engine, 0)
    }

    /// A fresh registry labelled with a shard index, for sharded sweeps
    /// whose per-shard reports merge afterwards.
    pub fn for_shard(engine: impl Into<String>, shard: u32) -> Arc<Self> {
        Arc::new(Registry {
            engine: engine.into(),
            shard,
            rows: Mutex::new(BTreeMap::new()),
        })
    }

    /// Adds `delta` to a counter.
    pub fn add(&self, node: u32, class: MsgClass, name: &str, delta: u64) {
        let mut rows = self.rows.lock().expect("registry poisoned");
        match instrument(&mut rows, node, class, name, || Metric::Counter(0)) {
            Metric::Counter(c) => *c += delta,
            other => other.merge(&Metric::Counter(delta)),
        }
    }

    /// Sets a gauge.
    pub fn set(&self, node: u32, class: MsgClass, name: &str, value: u64) {
        let mut rows = self.rows.lock().expect("registry poisoned");
        *instrument(&mut rows, node, class, name, || Metric::Gauge(value)) = Metric::Gauge(value);
    }

    /// Records a histogram sample.
    pub fn observe(&self, node: u32, class: MsgClass, name: &str, value: u64) {
        let mut rows = self.rows.lock().expect("registry poisoned");
        match instrument(&mut rows, node, class, name, || {
            Metric::Hist(LogHistogram::new())
        }) {
            Metric::Hist(h) => h.record(value),
            other => {
                let mut h = LogHistogram::new();
                h.record(value);
                other.merge(&Metric::Hist(h));
            }
        }
    }

    /// Snapshots this registry into a report (the registry keeps
    /// accumulating; the snapshot is independent).
    pub fn report(&self) -> crate::RunReport {
        let rows = self.rows.lock().expect("registry poisoned");
        let rows = rows
            .iter()
            .flat_map(|(&(node, class), row)| {
                row.iter().map(move |(name, metric)| {
                    let key = MetricKey {
                        name: name.clone(),
                        shard: self.shard,
                        node,
                        class,
                    };
                    (key, metric.clone())
                })
            })
            .collect();
        crate::RunReport::from_rows(self.engine.clone(), rows)
    }

    /// Folds an engine's run counters into whole-run counters (node 0,
    /// no message class): the one source of message, timer, crash and
    /// detection counts on every engine, the UDP backend included (its
    /// trace's counters are its nodes' summed).
    pub fn ingest_stats(&self, stats: &SimStats) {
        for (name, value) in [
            (metrics::SENT, stats.messages_sent),
            (metrics::DROPPED, stats.messages_dropped),
            (metrics::DUPLICATED, stats.messages_duplicated),
            (metrics::WIRE_BYTES, stats.wire_bytes),
            (metrics::DELIVERED, stats.messages_delivered),
            (metrics::TO_CRASHED, stats.messages_to_crashed),
            (metrics::TIMERS, stats.timers_fired),
            (metrics::CRASHES, stats.crashes),
            (metrics::DETECTIONS, stats.detections),
        ] {
            self.add(0, MsgClass::None, name, value);
        }
    }

    /// Re-derives transport-layer metrics from the execution-neutral
    /// annotations a finished run left in its trace: replays
    /// `trace.events()` through a [`TraceIngest`], which documents what
    /// is derived.
    ///
    /// Works uniformly on traces from all four engines, since all of
    /// them record the same note/event vocabulary.
    pub fn ingest_trace(&self, trace: &Trace) {
        let mut ingest = TraceIngest::default();
        for e in trace.events() {
            ingest.on_event(self, e);
        }
    }
}

/// The single-pass fold behind [`Registry::ingest_trace`], one event at
/// a time, so a run that keeps no trace can feed it live from an
/// [`EventSink`](sfs_asys::EventSink) (interest: notes, crashes,
/// detections — it ignores everything else):
///
/// * `retx` notes (one per retransmission burst, value = burst size)
///   → the [`metrics::RETX`] counter, attributed to the annotating
///   node as infrastructure traffic;
/// * `rto` notes (current retransmission timeout in ticks) → the
///   [`metrics::RTO_TICKS`] histogram — the RTO's evolution over the
///   run;
/// * `probe-suspect` notes naming a previously crashed victim → the
///   [`metrics::SUSPICION_LATENCY`] histogram (crash → first
///   suspicion, in ticks); every other `probe-suspect` note — its target
///   not crashed yet, or not parseable — → the
///   [`metrics::FALSE_SUSPICIONS`] counter;
/// * `Failed` events for a previously crashed victim → the
///   [`metrics::DETECTION_LATENCY`] histogram (crash → detection, in
///   ticks).
#[derive(Debug, Default)]
pub struct TraceIngest {
    crash_at: BTreeMap<u32, VirtualTime>,
    suspected: BTreeSet<(u32, u32)>,
}

impl TraceIngest {
    /// Folds one event into `registry`.
    pub fn on_event(&mut self, registry: &Registry, e: &TraceEvent) {
        match &e.kind {
            TraceEventKind::Crash { pid } => {
                self.crash_at.entry(pid.index() as u32).or_insert(e.time);
            }
            TraceEventKind::Failed { by, of } => {
                if let Some(&at) = self.crash_at.get(&(of.index() as u32)) {
                    registry.observe(
                        by.index() as u32,
                        MsgClass::None,
                        metrics::DETECTION_LATENCY,
                        e.time.ticks().saturating_sub(at.ticks()),
                    );
                }
            }
            TraceEventKind::Note {
                pid,
                note: sfs_asys::Note::KeyVal { key, val },
            } => {
                let node = pid.index() as u32;
                match key.as_str() {
                    metrics::NOTE_RETX => {
                        if let Ok(burst) = val.parse::<u64>() {
                            registry.add(node, MsgClass::Infra, metrics::RETX, burst);
                        }
                    }
                    metrics::NOTE_RTO => {
                        if let Ok(rto) = val.parse::<u64>() {
                            registry.observe(node, MsgClass::Infra, metrics::RTO_TICKS, rto);
                        }
                    }
                    metrics::NOTE_PROBE_SUSPECT => {
                        // val is the suspect's Display form, "p<k>".
                        let victim = val.strip_prefix('p').and_then(|s| s.parse::<u32>().ok());
                        let first = victim.is_some_and(|v| self.suspected.insert((node, v)));
                        match victim.and_then(|v| self.crash_at.get(&v)) {
                            None => {
                                registry.add(node, MsgClass::None, metrics::FALSE_SUSPICIONS, 1)
                            }
                            Some(&at) if first => registry.observe(
                                node,
                                MsgClass::None,
                                metrics::SUSPICION_LATENCY,
                                e.time.ticks().saturating_sub(at.ticks()),
                            ),
                            Some(_) => {}
                        }
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_asys::{MsgId, Note, ProcessId, StopReason, TraceEvent};

    #[test]
    fn sink_routes_shapes_to_instruments() {
        let reg = Registry::new("sim");
        reg.add(2, MsgClass::App, "sent", 3);
        reg.add(2, MsgClass::App, "sent", 2);
        reg.observe(2, MsgClass::App, "lat", 40);
        reg.set(2, MsgClass::None, "depth", 7);
        reg.ingest_stats(&SimStats {
            messages_sent: 4,
            detections: 1,
            ..SimStats::default()
        });
        let report = reg.report();
        assert_eq!(report.counter_total("sent"), 9);
        assert_eq!(report.counter_total(metrics::DETECTIONS), 1);
        assert_eq!(report.hist("lat").count(), 1);
        assert_eq!(report.counter_total("depth"), 7);
    }

    #[test]
    fn ingest_derives_latencies_and_retx_from_a_trace() {
        let p0 = ProcessId::new(0);
        let p1 = ProcessId::new(1);
        let t = |k| VirtualTime::from_ticks(k);
        let mut events = vec![
            TraceEvent {
                seq: 0,
                time: t(10),
                kind: TraceEventKind::Crash { pid: p1 },
            },
            TraceEvent {
                seq: 1,
                time: t(25),
                kind: TraceEventKind::Note {
                    pid: p0,
                    note: Note::key_val(metrics::NOTE_PROBE_SUSPECT, p1),
                },
            },
            TraceEvent {
                seq: 2,
                time: t(60),
                kind: TraceEventKind::Failed { by: p0, of: p1 },
            },
            TraceEvent {
                seq: 3,
                time: t(61),
                kind: TraceEventKind::Note {
                    pid: p0,
                    note: Note::key_val(metrics::NOTE_RETX, 4u64),
                },
            },
            TraceEvent {
                seq: 4,
                time: t(62),
                kind: TraceEventKind::Note {
                    pid: p0,
                    note: Note::key_val(metrics::NOTE_RTO, 128u64),
                },
            },
        ];
        // A send just to keep the trace shaped like a real one.
        events.push(TraceEvent {
            seq: 5,
            time: t(63),
            kind: TraceEventKind::Send {
                from: p0,
                to: p0,
                msg: MsgId::new(p0, 0),
                infra: false,
                payload: None,
            },
        });
        // Two false suspicions: a live target and an unparseable one.
        for (seq, suspect) in [(6, "p0"), (7, "?")] {
            events.push(TraceEvent {
                seq,
                time: t(64),
                kind: TraceEventKind::Note {
                    pid: p1,
                    note: Note::key_val(metrics::NOTE_PROBE_SUSPECT, suspect),
                },
            });
        }
        let trace = Trace::from_parts(2, events, StopReason::MaxTime, t(70), SimStats::default());
        let reg = Registry::new("any");
        reg.ingest_trace(&trace);
        let report = reg.report();
        assert_eq!(report.hist(metrics::SUSPICION_LATENCY).max(), 15);
        assert_eq!(report.hist(metrics::DETECTION_LATENCY).max(), 50);
        assert_eq!(report.counter_total(metrics::RETX), 4);
        assert_eq!(report.hist(metrics::RTO_TICKS).max(), 128);
        assert_eq!(report.counter_total(metrics::FALSE_SUSPICIONS), 2);
    }
}
