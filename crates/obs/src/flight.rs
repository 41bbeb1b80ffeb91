//! The flight recorder: a fixed-size ring of the most recent telemetry
//! events, dumped only when something goes wrong.
//!
//! A [`FlightRecorder`] is an [`ObsSink`], so it can ride the same
//! engine seams as the metrics registry (fan both out with
//! [`crate::fanout`]). It costs O(capacity) memory regardless of run
//! length and is never consulted on the happy path; when a conformance
//! check diverges, a certification gate fails, or a UDP control channel
//! hits its deadline, the harness formats the ring — plus the tail of
//! the merged trace via [`trace_tail`] — into a post-mortem snippet and,
//! when the `SFS_FLIGHT_DIR` environment variable names a directory,
//! writes it there as `<label>.flight.txt` for CI artifact upload.

use sfs_asys::{ObsEvent, ObsHandle, ObsSink, Trace};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Environment variable naming the directory flight dumps are written to.
/// Unset ⇒ dumps are formatted but not persisted.
pub const FLIGHT_DIR_ENV: &str = "SFS_FLIGHT_DIR";

/// Event `seq` lives in slot `seq % capacity` until event
/// `seq + capacity` overwrites it.
#[derive(Debug)]
struct Ring {
    slots: Vec<(u64, ObsEvent)>,
    next_seq: u64,
}

/// A bounded ring of recent [`ObsEvent`]s (newest evicts oldest).
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<Ring>,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` events.
    pub fn new(capacity: usize) -> Arc<Self> {
        let capacity = capacity.max(1);
        Arc::new(FlightRecorder {
            capacity,
            ring: Mutex::new(Ring {
                slots: Vec::with_capacity(capacity),
                next_seq: 0,
            }),
        })
    }

    /// An [`ObsHandle`] feeding this recorder, for engine builders.
    pub fn handle(self: &Arc<Self>) -> ObsHandle {
        ObsHandle::new(self.clone() as Arc<dyn ObsSink>)
    }

    /// Total events ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.ring.lock().expect("flight ring poisoned").next_seq
    }

    /// Formats the ring, oldest first, one event per line.
    pub fn dump(&self) -> String {
        let ring = self.ring.lock().expect("flight ring poisoned");
        let mut out = format!(
            "flight recorder: {} of {} events retained (capacity {})\n",
            ring.slots.len(),
            ring.next_seq,
            self.capacity
        );
        // Once the ring has wrapped, the oldest event sits in the slot
        // the next one will overwrite.
        let oldest = ring.next_seq as usize % ring.slots.len().max(1);
        let (newer, older) = ring.slots.split_at(oldest);
        for (seq, ev) in older.iter().chain(newer) {
            let line = match ev {
                ObsEvent::Counter {
                    node,
                    class,
                    name,
                    delta,
                } => format!("#{seq:<8} {node} {:<6} {name} += {delta}", class.label()),
                ObsEvent::Gauge {
                    node,
                    class,
                    name,
                    value,
                } => format!("#{seq:<8} {node} {:<6} {name} = {value}", class.label()),
                ObsEvent::Observe {
                    node,
                    class,
                    name,
                    value,
                } => format!("#{seq:<8} {node} {:<6} {name} ~ {value}", class.label()),
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

impl ObsSink for FlightRecorder {
    fn record(&self, event: ObsEvent) {
        let mut ring = self.ring.lock().expect("flight ring poisoned");
        let seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.slots.len() < self.capacity {
            ring.slots.push((seq, event));
        } else {
            ring.slots[seq as usize % self.capacity] = (seq, event);
        }
    }
}

/// Formats the last `k` events of `trace`, one per line — the trace-side
/// half of a flight dump.
pub fn trace_tail(trace: &Trace, k: usize) -> String {
    let events = trace.events();
    let start = events.len().saturating_sub(k);
    let mut out = format!(
        "trace tail: events {}..{} of {} (stop: {:?}, end: {})\n",
        start,
        events.len(),
        events.len(),
        trace.stop_reason(),
        trace.end_time().ticks()
    );
    for e in &events[start..] {
        let _ = writeln!(out, "  [{:>8}] #{:<6} {:?}", e.time.ticks(), e.seq, e.kind);
    }
    out
}

/// Writes `body` as `<label>.flight.txt` under [`FLIGHT_DIR_ENV`], if the
/// variable is set. Returns the written path, or `None` when the variable
/// is unset or the write fails (a flight dump must never turn a reported
/// failure into a crash, so IO errors are swallowed).
pub fn dump_to_dir(label: &str, body: &str) -> Option<PathBuf> {
    let dir = std::env::var_os(FLIGHT_DIR_ENV)?;
    let dir = PathBuf::from(dir);
    std::fs::create_dir_all(&dir).ok()?;
    let safe: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect();
    let path = dir.join(format!("{safe}.flight.txt"));
    std::fs::write(&path, body).ok()?;
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_asys::{MsgClass, ProcessId};

    #[test]
    fn ring_keeps_only_the_newest_events() {
        let rec = FlightRecorder::new(4);
        let h = rec.handle();
        for i in 0..10u64 {
            h.record(ObsEvent::Counter {
                node: ProcessId::new(0),
                class: MsgClass::App,
                name: "sent",
                delta: i,
            });
        }
        assert_eq!(rec.recorded(), 10);
        let dump = rec.dump();
        assert!(dump.contains("4 of 10 events retained"));
        assert!(dump.contains("#9"), "newest event missing:\n{dump}");
        assert!(!dump.contains("#5 "), "evicted event present:\n{dump}");
        assert!(dump.contains("sent += 9"));
    }

    #[test]
    fn dump_after_wraparound_is_contiguous_and_ordered() {
        // Wrap the ring several times over, then check the dump is
        // exactly the final window — every retained seq contiguous,
        // strictly increasing, ending at the last event recorded.
        let capacity = 7;
        let total = 7 * 3 + 4; // lands mid-window, off the wrap boundary
        let rec = FlightRecorder::new(capacity);
        let h = rec.handle();
        for i in 0..total as u64 {
            h.record(ObsEvent::Gauge {
                node: ProcessId::new((i % 3) as usize),
                class: MsgClass::Infra,
                name: "depth",
                value: i,
            });
        }
        assert_eq!(rec.recorded(), total as u64);
        let dump = rec.dump();
        let seqs: Vec<u64> = dump
            .lines()
            .skip(1) // header
            .map(|l| {
                l.trim_start_matches('#')
                    .split_whitespace()
                    .next()
                    .expect("seq field")
                    .parse()
                    .expect("numeric seq")
            })
            .collect();
        let expect: Vec<u64> = (total as u64 - capacity as u64..total as u64).collect();
        assert_eq!(
            seqs, expect,
            "dump after wraparound is not the ordered final window:\n{dump}"
        );
    }

    #[test]
    fn trace_tail_formats_last_events() {
        use sfs_asys::{SimStats, StopReason, TraceEvent, TraceEventKind, VirtualTime};
        let events = (0..20)
            .map(|i| TraceEvent {
                seq: i,
                time: VirtualTime::from_ticks(i as u64),
                kind: TraceEventKind::Crash {
                    pid: ProcessId::new(0),
                },
            })
            .collect();
        let trace = Trace::from_parts(
            1,
            events,
            StopReason::MaxTime,
            VirtualTime::from_ticks(19),
            SimStats::default(),
        );
        let tail = trace_tail(&trace, 5);
        assert!(tail.contains("events 15..20 of 20"));
        assert!(tail.contains("#19"));
        assert!(!tail.contains("#14 "));
    }
}
