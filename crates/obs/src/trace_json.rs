//! Trace ⇄ JSON round-trip: persist a [`Trace`] to disk and read it back.
//!
//! This is the interchange format behind `sfs-trace-export`: any engine
//! can dump its Lamport-merged trace with [`trace_to_json`], and the
//! exporter (or a later analysis pass, or [`Registry::ingest_trace`])
//! reloads it with [`trace_from_json`] without the producing process
//! still being alive. The format is a single JSON object — `n`, `stop`,
//! `end` (ticks), the `stats` counters, and a flat `events` array — kept
//! deliberately simple because the vendored serde is a no-op stand-in.
//!
//! Numbers are written as exact integers; the parser stores them as
//! `f64`, so numbers round-trip exactly up to 2^53 — far beyond any
//! value a real run produces. A process index or message sequence beyond
//! the 32 bits a [`ProcessId`] or [`MsgId`] holds is an `Err`.
//!
//! [`Registry::ingest_trace`]: crate::Registry::ingest_trace

use crate::json::{self, Json};
use sfs_asys::{
    MsgId, Note, ProcessId, SimStats, StopReason, Text, TimerId, Trace, TraceEvent, TraceEventKind,
    VirtualTime,
};
use std::fmt::Write as _;

fn stop_label(stop: StopReason) -> &'static str {
    match stop {
        StopReason::Quiescent => "quiescent",
        StopReason::MaxTime => "max-time",
        StopReason::MaxEvents => "max-events",
        StopReason::MaxSteps => "max-steps",
        StopReason::AllCrashed => "all-crashed",
    }
}

fn stop_parse(label: &str) -> Result<StopReason, String> {
    Ok(match label {
        "quiescent" => StopReason::Quiescent,
        "max-time" => StopReason::MaxTime,
        "max-events" => StopReason::MaxEvents,
        "max-steps" => StopReason::MaxSteps,
        "all-crashed" => StopReason::AllCrashed,
        other => return Err(format!("unknown stop reason {other:?}")),
    })
}

fn write_opt_str(out: &mut String, s: &Option<Text>) {
    match s {
        Some(s) => json::write_str(out, s),
        None => out.push_str("null"),
    }
}

/// Serializes `trace` to the JSON interchange format.
pub fn trace_to_json(trace: &Trace) -> String {
    let s = trace.stats();
    let mut out = String::with_capacity(64 + trace.events().len() * 48);
    let _ = write!(
        out,
        "{{\"n\":{},\"stop\":\"{}\",\"end\":{},\"stats\":{{\"sent\":{},\"delivered\":{},\"to_crashed\":{},\"dropped\":{},\"duplicated\":{},\"timers\":{},\"crashes\":{},\"detections\":{},\"batches\":{},\"wire_bytes\":{}}},\"events\":[",
        trace.n(),
        stop_label(trace.stop_reason()),
        trace.end_time().ticks(),
        s.messages_sent,
        s.messages_delivered,
        s.messages_to_crashed,
        s.messages_dropped,
        s.messages_duplicated,
        s.timers_fired,
        s.crashes,
        s.detections,
        s.delivery_batches,
        s.wire_bytes,
    );
    for (i, e) in trace.events().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"seq\":{},\"t\":{}", e.seq, e.time.ticks());
        match &e.kind {
            TraceEventKind::Send {
                from,
                to,
                msg,
                infra,
                payload,
            } => {
                let _ = write!(
                    out,
                    ",\"k\":\"send\",\"from\":{},\"to\":{},\"src\":{},\"mseq\":{},\"infra\":{infra},\"payload\":",
                    from.index(),
                    to.index(),
                    msg.source().index(),
                    msg.seq()
                );
                write_opt_str(&mut out, payload);
            }
            TraceEventKind::Recv {
                by,
                from,
                msg,
                infra,
                payload,
            } => {
                let _ = write!(
                    out,
                    ",\"k\":\"recv\",\"by\":{},\"from\":{},\"src\":{},\"mseq\":{},\"infra\":{infra},\"payload\":",
                    by.index(),
                    from.index(),
                    msg.source().index(),
                    msg.seq()
                );
                write_opt_str(&mut out, payload);
            }
            TraceEventKind::Crash { pid } => {
                let _ = write!(out, ",\"k\":\"crash\",\"pid\":{}", pid.index());
            }
            TraceEventKind::Failed { by, of } => {
                let _ = write!(
                    out,
                    ",\"k\":\"failed\",\"by\":{},\"of\":{}",
                    by.index(),
                    of.index()
                );
            }
            TraceEventKind::TimerFired { pid, timer } => {
                let _ = write!(
                    out,
                    ",\"k\":\"timer\",\"pid\":{},\"timer\":{}",
                    pid.index(),
                    timer.raw()
                );
            }
            TraceEventKind::External { pid, payload } => {
                let _ = write!(out, ",\"k\":\"ext\",\"pid\":{},\"payload\":", pid.index());
                write_opt_str(&mut out, payload);
            }
            TraceEventKind::Note { pid, note } => match note {
                Note::KeyVal { key, val } => {
                    let _ = write!(out, ",\"k\":\"note\",\"pid\":{},\"key\":", pid.index());
                    json::write_str(&mut out, key);
                    out.push_str(",\"val\":");
                    json::write_str(&mut out, val);
                }
                Note::ProcessSet { key, about, set } => {
                    let _ = write!(out, ",\"k\":\"noteset\",\"pid\":{},\"key\":", pid.index());
                    json::write_str(&mut out, key);
                    match about {
                        Some(p) => {
                            let _ = write!(out, ",\"about\":{}", p.index());
                        }
                        None => out.push_str(",\"about\":null"),
                    }
                    out.push_str(",\"set\":[");
                    for (j, p) in set.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{}", p.index());
                    }
                    out.push(']');
                }
            },
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

fn field_u64(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing/invalid numeric field {key:?}"))
}

/// A process index as a [`ProcessId`], refusing one beyond its 32 bits.
fn pid(index: u64, key: &str) -> Result<ProcessId, String> {
    u32::try_from(index)
        .map(|i| ProcessId::new(i as usize))
        .map_err(|_| format!("process index {index} in {key:?} exceeds u32::MAX"))
}

fn field_pid(obj: &Json, key: &str) -> Result<ProcessId, String> {
    pid(field_u64(obj, key)?, key)
}

/// The message id in `src` / `mseq`, refusing a sequence beyond 32 bits.
fn field_msg(obj: &Json) -> Result<MsgId, String> {
    let seq = field_u64(obj, "mseq")?;
    if seq > u64::from(u32::MAX) {
        return Err(format!("message sequence {seq} exceeds u32::MAX"));
    }
    Ok(MsgId::new(field_pid(obj, "src")?, seq))
}

fn field_opt_str(obj: &Json, key: &str) -> Option<Text> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(|s| Text::from(s.to_owned()))
}

/// Parses a trace previously written by [`trace_to_json`].
pub fn trace_from_json(text: &str) -> Result<Trace, String> {
    let doc = Json::parse(text)?;
    let n = field_u64(&doc, "n")? as usize;
    let stop = stop_parse(
        doc.get("stop")
            .and_then(Json::as_str)
            .ok_or("missing stop reason")?,
    )?;
    let end = VirtualTime::from_ticks(field_u64(&doc, "end")?);
    let stats_obj = doc.get("stats").ok_or("missing stats")?;
    let stats = SimStats {
        messages_sent: field_u64(stats_obj, "sent")?,
        messages_delivered: field_u64(stats_obj, "delivered")?,
        messages_to_crashed: field_u64(stats_obj, "to_crashed")?,
        messages_dropped: field_u64(stats_obj, "dropped")?,
        messages_duplicated: field_u64(stats_obj, "duplicated")?,
        timers_fired: field_u64(stats_obj, "timers")?,
        crashes: field_u64(stats_obj, "crashes")?,
        detections: field_u64(stats_obj, "detections")?,
        delivery_batches: field_u64(stats_obj, "batches")?,
        wire_bytes: field_u64(stats_obj, "wire_bytes")?,
    };
    let mut events = Vec::new();
    for ev in doc
        .get("events")
        .and_then(Json::as_arr)
        .ok_or("missing events array")?
    {
        let seq = field_u64(ev, "seq")? as usize;
        let time = VirtualTime::from_ticks(field_u64(ev, "t")?);
        let kind = match ev.get("k").and_then(Json::as_str).ok_or("missing kind")? {
            "send" => TraceEventKind::Send {
                from: field_pid(ev, "from")?,
                to: field_pid(ev, "to")?,
                msg: field_msg(ev)?,
                infra: ev.get("infra").and_then(Json::as_bool).unwrap_or(false),
                payload: field_opt_str(ev, "payload"),
            },
            "recv" => TraceEventKind::Recv {
                by: field_pid(ev, "by")?,
                from: field_pid(ev, "from")?,
                msg: field_msg(ev)?,
                infra: ev.get("infra").and_then(Json::as_bool).unwrap_or(false),
                payload: field_opt_str(ev, "payload"),
            },
            "crash" => TraceEventKind::Crash {
                pid: field_pid(ev, "pid")?,
            },
            "failed" => TraceEventKind::Failed {
                by: field_pid(ev, "by")?,
                of: field_pid(ev, "of")?,
            },
            "timer" => TraceEventKind::TimerFired {
                pid: field_pid(ev, "pid")?,
                timer: TimerId::new(field_u64(ev, "timer")?),
            },
            "ext" => TraceEventKind::External {
                pid: field_pid(ev, "pid")?,
                payload: field_opt_str(ev, "payload"),
            },
            "note" => TraceEventKind::Note {
                pid: field_pid(ev, "pid")?,
                note: Note::KeyVal {
                    key: field_opt_str(ev, "key").ok_or("note without key")?,
                    val: field_opt_str(ev, "val").ok_or("note without val")?,
                },
            },
            "noteset" => {
                let set = ev
                    .get("set")
                    .and_then(Json::as_arr)
                    .ok_or("noteset without set")?
                    .iter()
                    .map(|p| pid(p.as_u64().ok_or("non-numeric pid in noteset")?, "set"))
                    .collect::<Result<Vec<_>, String>>()?;
                let about = match ev.get("about") {
                    Some(Json::Null) | None => None,
                    Some(v) => Some(pid(
                        v.as_u64().ok_or("non-numeric about in noteset")?,
                        "about",
                    )?),
                };
                TraceEventKind::Note {
                    pid: field_pid(ev, "pid")?,
                    note: Note::process_set(
                        field_opt_str(ev, "key").ok_or("noteset without key")?,
                        about,
                        set,
                    ),
                }
            }
            other => return Err(format!("unknown event kind {other:?}")),
        };
        events.push(TraceEvent { seq, time, kind });
    }
    Ok(Trace::from_parts(n, events, stop, end, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    #[test]
    fn round_trips_every_event_kind() {
        let p0 = ProcessId::new(0);
        let p1 = ProcessId::new(1);
        let t = |k| VirtualTime::from_ticks(k);
        let events = vec![
            TraceEvent {
                seq: 0,
                time: t(1),
                kind: TraceEventKind::Send {
                    from: p0,
                    to: p1,
                    msg: MsgId::new(p0, 7),
                    infra: true,
                    payload: Some("Ping { k: 3 }".into()),
                },
            },
            TraceEvent {
                seq: 1,
                time: t(2),
                kind: TraceEventKind::Recv {
                    by: p1,
                    from: p0,
                    msg: MsgId::new(p0, 7),
                    infra: true,
                    payload: None,
                },
            },
            TraceEvent {
                seq: 2,
                time: t(3),
                kind: TraceEventKind::Crash { pid: p0 },
            },
            TraceEvent {
                seq: 3,
                time: t(9),
                kind: TraceEventKind::Failed { by: p1, of: p0 },
            },
            TraceEvent {
                seq: 4,
                time: t(10),
                kind: TraceEventKind::TimerFired {
                    pid: p1,
                    timer: TimerId::new(42),
                },
            },
            TraceEvent {
                seq: 5,
                time: t(11),
                kind: TraceEventKind::External {
                    pid: p1,
                    payload: Some("op \"quoted\"".into()),
                },
            },
            TraceEvent {
                seq: 6,
                time: t(12),
                kind: TraceEventKind::Note {
                    pid: p1,
                    note: Note::key_val(metrics::NOTE_RETX, 4u64),
                },
            },
            TraceEvent {
                seq: 7,
                time: t(13),
                kind: TraceEventKind::Note {
                    pid: p1,
                    note: Note::process_set("failed-set", Some(p0), vec![p0, p1]),
                },
            },
        ];
        let stats = SimStats {
            messages_sent: 2,
            messages_delivered: 1,
            wire_bytes: 99,
            ..SimStats::default()
        };
        let trace = Trace::from_parts(2, events, StopReason::Quiescent, t(13), stats);
        let text = trace_to_json(&trace);
        let back = trace_from_json(&text).expect("round-trip parse");
        assert_eq!(back.n(), trace.n());
        assert_eq!(back.stop_reason(), trace.stop_reason());
        assert_eq!(back.end_time(), trace.end_time());
        assert_eq!(back.stats(), trace.stats());
        assert_eq!(back.events(), trace.events());
        // And a second serialization is byte-identical.
        assert_eq!(trace_to_json(&back), text);
    }

    #[test]
    fn ids_beyond_32_bits_are_errors_not_panics() {
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
        let events = vec![
            TraceEvent {
                seq: 0,
                time: VirtualTime::from_ticks(1),
                kind: TraceEventKind::Send {
                    from: p0,
                    to: p1,
                    msg: MsgId::new(p0, u64::from(u32::MAX)),
                    infra: false,
                    payload: None,
                },
            },
            TraceEvent {
                seq: 1,
                time: VirtualTime::from_ticks(2),
                kind: TraceEventKind::Note {
                    pid: p1,
                    note: Note::process_set("set", Some(p0), vec![p1]),
                },
            },
        ];
        let trace = Trace::from_parts(
            2,
            events,
            StopReason::Quiescent,
            VirtualTime::from_ticks(2),
            SimStats::default(),
        );
        let text = trace_to_json(&trace);
        assert_eq!(trace_from_json(&text).unwrap().events(), trace.events());
        let big = (1u64 << 32).to_string();
        for (field, with) in [
            ("\"from\":0", format!("\"from\":{big}")),
            ("\"src\":0", format!("\"src\":{big}")),
            ("\"mseq\":4294967295", format!("\"mseq\":{big}")),
            ("\"about\":0", format!("\"about\":{big}")),
            ("\"set\":[1]", format!("\"set\":[{big}]")),
        ] {
            assert!(text.contains(field), "{field} not in {text}");
            let err = trace_from_json(&text.replacen(field, &with, 1)).unwrap_err();
            assert!(err.contains("exceeds u32::MAX"), "{field}: {err}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(trace_from_json("{}").is_err());
        assert!(trace_from_json("not json").is_err());
        assert!(
            trace_from_json(r#"{"n":1,"stop":"nope","end":0,"stats":{},"events":[]}"#).is_err()
        );
    }
}
