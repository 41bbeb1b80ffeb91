//! The flight recorder: a fixed-size ring of the most recent events,
//! dumped only when something goes wrong.
//!
//! A [`FlightRecorder`] is an [`EventSink`] over the engines' one event
//! stream. It keeps model-level events, notes and injections — the ~2 %
//! of a heartbeat-driven run that explains it — and skips infrastructure
//! frames and timer firings, which would flush a 512-slot ring within a
//! few ticks. It costs O(capacity) memory regardless of run length and is
//! never consulted on the happy path; when an anomaly watermark trips
//! (see [`crate::watermark`]) its ring is the post-mortem body, and when
//! a conformance check diverges, a certification gate fails, or a UDP
//! control channel hits its deadline, the harness formats the tail of
//! the trace via [`trace_tail`] — in the same one-line-per-event format.
//! When the `SFS_FLIGHT_DIR` environment variable names a directory, a
//! dump is written there as `<label>.flight.txt` for CI artifact upload;
//! when it is unset, nothing is written.

use sfs_asys::{EventSink, EventSinkHandle, Interest, Trace, TraceEvent};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Environment variable naming the directory flight dumps are written to.
/// Unset ⇒ dumps are formatted but not persisted.
pub const FLIGHT_DIR_ENV: &str = "SFS_FLIGHT_DIR";

/// The `recorded`-th event offered lives in slot `recorded % capacity`
/// until `capacity` later events overwrite it.
#[derive(Debug)]
struct Ring {
    slots: Vec<TraceEvent>,
    recorded: u64,
}

/// A bounded ring of recent [`TraceEvent`]s (newest evicts oldest).
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
                recorded: 0,
            }),
        })
    }

    /// An [`EventSinkHandle`] feeding this recorder.
    pub fn handle(self: &Arc<Self>) -> EventSinkHandle {
        EventSinkHandle::new(self.clone() as Arc<dyn EventSink>)
    }

    /// Total events ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.ring.lock().expect("flight ring poisoned").recorded
    }

    /// Formats the ring, oldest first, one event per line.
    pub fn dump(&self) -> String {
        let ring = self.ring.lock().expect("flight ring poisoned");
        let mut out = format!(
            "flight recorder: {} of {} events retained (capacity {})\n",
            ring.slots.len(),
            ring.recorded,
            self.capacity
        );
        // Once the ring has wrapped, the oldest event sits in the slot
        // the next one will overwrite.
        let oldest = ring.recorded as usize % ring.slots.len().max(1);
        let (newer, older) = ring.slots.split_at(oldest);
        for e in older.iter().chain(newer) {
            write_event(&mut out, e);
        }
        out
    }
}

impl EventSink for FlightRecorder {
    fn on_event(&self, event: &TraceEvent) {
        let mut ring = self.ring.lock().expect("flight ring poisoned");
        let slot = ring.recorded as usize % self.capacity;
        ring.recorded += 1;
        if ring.slots.len() < self.capacity {
            ring.slots.push(event.clone());
        } else {
            ring.slots[slot] = event.clone();
        }
    }

    fn interest(&self) -> Interest {
        Interest::MODEL
            .union(Interest::NOTE)
            .union(Interest::EXTERNAL)
    }
}

/// One event as a dump line — the one format the recorder's dump and
/// [`trace_tail`] share.
fn write_event(out: &mut String, e: &TraceEvent) {
    let _ = writeln!(out, "  [{:>8}] #{:<6} {:?}", e.time.ticks(), e.seq, e.kind);
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
        write_event(&mut out, e);
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
    use sfs_asys::{MsgId, Note, ProcessId, SimStats, StopReason, TraceEventKind, VirtualTime};

    /// Event `seq` at tick `seq`: a note, so every recorder keeps it.
    fn note(seq: usize) -> TraceEvent {
        TraceEvent {
            seq,
            time: VirtualTime::from_ticks(seq as u64),
            kind: TraceEventKind::Note {
                pid: ProcessId::new(seq % 3),
                note: Note::key_val("k", seq),
            },
        }
    }

    /// The seq field of every event line of a dump, in order.
    fn dumped_seqs(dump: &str) -> Vec<usize> {
        dump.lines()
            .skip(1) // header
            .map(|l| {
                l.split_whitespace()
                    .find_map(|w| w.strip_prefix('#'))
                    .expect("seq field")
                    .parse()
                    .expect("numeric seq")
            })
            .collect()
    }

    #[test]
    fn ring_keeps_only_the_newest_events() {
        let rec = FlightRecorder::new(4);
        let h = rec.handle();
        for i in 0..10 {
            h.on_event(&note(i));
        }
        assert_eq!(rec.recorded(), 10);
        let dump = rec.dump();
        assert!(dump.contains("4 of 10 events retained"));
        assert_eq!(dumped_seqs(&dump), vec![6, 7, 8, 9], "{dump}");
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
        for i in 0..total {
            h.on_event(&note(i));
        }
        assert_eq!(rec.recorded(), total as u64);
        let dump = rec.dump();
        let expect: Vec<usize> = (total - capacity..total).collect();
        assert_eq!(
            dumped_seqs(&dump),
            expect,
            "dump after wraparound is not the ordered final window:\n{dump}"
        );
    }

    #[test]
    fn trace_tail_formats_last_events() {
        let p0 = ProcessId::new(0);
        let mut events: Vec<TraceEvent> = (0..20).map(note).collect();
        // An infrastructure frame: in the trace, outside the recorder's
        // interest.
        events.push(TraceEvent {
            seq: 20,
            time: VirtualTime::from_ticks(20),
            kind: TraceEventKind::Send {
                from: p0,
                to: p0,
                msg: MsgId::new(p0, 0),
                infra: true,
                payload: None,
            },
        });
        let rec = FlightRecorder::new(4);
        let h = rec.handle();
        for e in &events {
            h.on_event(e);
        }
        let trace = Trace::from_parts(
            3,
            events,
            StopReason::MaxTime,
            VirtualTime::from_ticks(20),
            SimStats::default(),
        );
        let tail = trace_tail(&trace, 5);
        assert!(tail.contains("events 16..21 of 21"));
        assert!(tail.contains("#20"));
        assert!(!tail.contains("#15 "));
        // One line format: the recorder's dump is the tail's note lines.
        assert_eq!(
            rec.dump().lines().skip(1).collect::<Vec<_>>(),
            tail.lines().skip(1).take(4).collect::<Vec<_>>()
        );
    }
}
