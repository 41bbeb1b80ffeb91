//! Streaming sFS property monitors: the online half of the
//! certification story (DESIGN.md §2.13).
//!
//! [`SfsMonitor`] is an [`EventSink`]: attached to any engine through
//! the `ClusterSpec::event_sink` seam it consumes the trace-event
//! stream *live*, one event at a time, and decides the full
//! `check_sfs_suite` verdict vector without ever retaining the trace.
//! Every suite clause is either prefix-monotone (sFS2b, sFS2c,
//! Condition 3 go `Holds → Violated` and stick) or quiescence-decidable
//! (FS1 and sFS2a judge their outstanding obligations when
//! [`SfsMonitor::finish`] is told whether the run completed; sFS2d
//! judges each message at its *last* receive), so the monitor's state
//! stays O(n + active failures + undischarged obligations):
//!
//! * **FS1 / sFS2a** — per-process first-detection lists plus the crash
//!   set; both clauses are judged against the *final* sets at finish,
//!   exactly as the post-hoc checkers do (a detector that later crashes
//!   is excused from FS1, a victim that later crashes discharges
//!   sFS2a).
//! * **sFS2b / Condition 2** — an incremental failed-before digraph
//!   (edge `of → by` per first detection) with online cycle detection:
//!   each new edge triggers one reachability walk from `by` back to
//!   `of`; a hit is a cycle and the verdict sticks.
//! * **sFS2c** — a self-reference automaton: any `failed_i(i)` violates
//!   immediately.
//! * **sFS2d** — a detection-before-delivery gate. A model send by a
//!   process with detections outstanding opens an in-flight obligation
//!   recording *prefix lengths* into the sender's append-only
//!   detection and taint lists (the lists only grow, so a length is a
//!   snapshot); each receive of the message re-judges the obligation
//!   and the last judgement wins — the exact last-receive semantics of
//!   the post-hoc checker under link-level duplication. Judged-clean
//!   obligations are dropped eagerly: detection sets only grow, so a
//!   clean receive can never be followed by a violating duplicate.
//! * **Condition 3** — epidemic taint: `K[p]` is the set of processes
//!   `q` with some `failed_*(q)` in `p`'s causal past, propagated along
//!   exactly the happens-before edges of the model alphabet (program
//!   order plus model send→receive, the same projection
//!   `History::from_trace` keeps); an event of `p` with `p ∈ K[p]` is
//!   causally after a detection of `p`.
//!
//! The monitor declares exactly that alphabet as its
//! [`EventSink::interest`] ([`Interest::MODEL`]: model-level sends and
//! receives, crashes, detections — what `History::from_trace` keeps), so
//! the engines never call it for heartbeat traffic, timers or notes, and
//! it reads no clock: certification costs per *model* event.
//!
//! The monitor never touches engine state — `on_event` sees an
//! immutable borrow of an already-decided event — so monitored runs
//! are byte-identical to bare runs on the simulator and HB-fingerprint
//! identical on the threaded backends (`obs_equiv` pins this). For the
//! UDP backend, whose nodes live in other OS processes, the per-node
//! event fragments are merged at the parent exactly like the Lamport
//! trace merge and replayed through the same code path
//! ([`replay_fragments`]).

use crate::verdict::SuiteVerdicts;
use sfs_asys::{EventSink, EventSinkHandle, Interest, MsgId, Trace, TraceEvent, TraceEventKind};
use sfs_tlogic::Verdict;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One in-flight sFS2d/Condition-3 obligation: a model message sent by
/// a process that had detections (or taint) at send time. Prefix
/// lengths into the sender's append-only lists snapshot its state at
/// the send without copying.
#[derive(Debug, Clone, Copy)]
struct Flight {
    from: usize,
    /// Sender detections at send time (`detected[from][..suspects]`).
    suspects: u32,
    /// Sender taint at send time (`taint[from][..taint_len]`).
    taint_len: u32,
    /// Whether the latest receive of this message violated sFS2d.
    violating: bool,
}

/// Per-process monitor fragment: first-detection list, taint list, and
/// membership masks. Lists are append-only so in-flight prefix lengths
/// remain valid snapshots.
#[derive(Debug, Default)]
struct ProcState {
    /// Processes this one has detected, in first-detection order.
    detected: Vec<usize>,
    /// Processes whose detection is in this one's causal past, in
    /// first-taint order.
    taint: Vec<usize>,
    /// Membership mask for `detected`, lazily sized to n.
    detected_mask: Vec<bool>,
    /// Membership mask for `taint`, lazily sized to n.
    taint_mask: Vec<bool>,
}

impl ProcState {
    fn note_detection(&mut self, n: usize, of: usize) -> bool {
        if self.detected_mask.is_empty() {
            self.detected_mask = vec![false; n];
        }
        if self.detected_mask[of] {
            return false;
        }
        self.detected_mask[of] = true;
        self.detected.push(of);
        true
    }

    fn has_detected(&self, of: usize) -> bool {
        self.detected_mask.get(of).copied().unwrap_or(false)
    }

    fn note_taint(&mut self, n: usize, q: usize) {
        if self.taint_mask.is_empty() {
            self.taint_mask = vec![false; n];
        }
        if !self.taint_mask[q] {
            self.taint_mask[q] = true;
            self.taint.push(q);
        }
    }

    fn is_tainted_by(&self, q: usize) -> bool {
        self.taint_mask.get(q).copied().unwrap_or(false)
    }
}

#[derive(Debug)]
struct MonitorState {
    n: usize,
    procs: Vec<ProcState>,
    crashed: Vec<bool>,
    /// Failed-before adjacency: `before[of]` lists each `by` with an
    /// `of → by` edge (detection `failed_by(of)`).
    before: Vec<Vec<usize>>,
    /// In-flight sFS2d/C3 obligations keyed by model message id.
    flights: HashMap<MsgId, Flight>,
    /// Events absorbed.
    events_seen: u64,
    /// Messages whose latest receive violated sFS2d.
    violating_msgs: usize,
    /// Sticky safety violations.
    sfs2b_violated: bool,
    sfs2c_violated: bool,
    cond3_violated: bool,
}

impl MonitorState {
    fn new(n: usize) -> Self {
        MonitorState {
            n,
            procs: (0..n).map(|_| ProcState::default()).collect(),
            crashed: vec![false; n],
            before: vec![Vec::new(); n],
            flights: HashMap::new(),
            events_seen: 0,
            violating_msgs: 0,
            sfs2b_violated: false,
            sfs2c_violated: false,
            cond3_violated: false,
        }
    }

    /// Whether `to` is reachable from `from` in the failed-before
    /// digraph — the online cycle check: inserting `of → by` closes a
    /// cycle iff `of` was already reachable from `by`.
    fn reaches(&self, from: usize, to: usize) -> bool {
        let mut seen = vec![false; self.n];
        let mut stack = vec![from];
        while let Some(p) = stack.pop() {
            if p == to {
                return true;
            }
            if std::mem::replace(&mut seen[p], true) {
                continue;
            }
            stack.extend(self.before[p].iter().copied().filter(|&q| !seen[q]));
        }
        false
    }

    /// Propagates the taint snapshot `procs[from].taint[..len]` into
    /// `by`, returning whether `by` is now in its own causal-detection
    /// set (a Condition 3 violation at this event).
    fn merge_taint(&mut self, from: usize, len: usize, by: usize) -> bool {
        for i in 0..len {
            let q = self.procs[from].taint[i];
            self.procs[by].note_taint(self.n, q);
        }
        self.procs[by].is_tainted_by(by)
    }

    /// Absorbs one model-alphabet event.
    fn step(&mut self, kind: &TraceEventKind) {
        self.events_seen += 1;
        match *kind {
            TraceEventKind::Send {
                from,
                msg,
                infra: false,
                ..
            } => {
                let from = from.index();
                let suspects = self.procs[from].detected.len() as u32;
                let taint_len = self.procs[from].taint.len() as u32;
                if suspects > 0 || taint_len > 0 {
                    self.flights.insert(
                        msg,
                        Flight {
                            from,
                            suspects,
                            taint_len,
                            violating: false,
                        },
                    );
                }
            }
            TraceEventKind::Recv {
                by,
                msg,
                infra: false,
                ..
            } => {
                let by = by.index();
                let Some(mut flight) = self.flights.get(&msg).copied() else {
                    return;
                };
                // Condition 3: the receive pulls the sender's causal
                // past (at send time) into the receiver's.
                if self.merge_taint(flight.from, flight.taint_len as usize, by) {
                    self.cond3_violated = true;
                }
                // sFS2d: the receiver must already hold every detection
                // the sender held at send time. The *last* receive of a
                // message decides — exactly the post-hoc semantics —
                // and since detection sets only grow, a clean judgement
                // is final and the obligation can be dropped.
                let clean = (0..flight.suspects as usize).all(|i| {
                    let j = self.procs[flight.from].detected[i];
                    self.procs[by].has_detected(j)
                });
                if clean {
                    if flight.violating {
                        self.violating_msgs -= 1;
                    }
                    self.flights.remove(&msg);
                } else if !flight.violating {
                    flight.violating = true;
                    self.violating_msgs += 1;
                    self.flights.insert(msg, flight);
                }
            }
            TraceEventKind::Crash { pid } => {
                let pid = pid.index();
                self.crashed[pid] = true;
                if self.procs[pid].is_tainted_by(pid) {
                    self.cond3_violated = true;
                }
            }
            TraceEventKind::Failed { by, of } => {
                let (by, of) = (by.index(), of.index());
                if by == of {
                    self.sfs2c_violated = true;
                }
                if self.procs[by].note_detection(self.n, of) {
                    // New failed-before edge of → by: closes a cycle
                    // iff of was already reachable from by.
                    if !self.sfs2b_violated && self.reaches(by, of) {
                        self.sfs2b_violated = true;
                    }
                    self.before[of].push(by);
                }
                self.procs[by].note_taint(self.n, of);
                if self.procs[by].is_tainted_by(by) {
                    self.cond3_violated = true;
                }
            }
            // Infra traffic, timers, externals, and notes are outside
            // the model alphabet (History::from_trace drops them) and
            // outside the declared interest; a caller that bypasses the
            // handle's filter changes the count, never a verdict.
            _ => {}
        }
    }

    /// Judges the quiescence-decidable clauses and assembles the suite
    /// verdict vector, mirroring `check_sfs_suite` clause by clause.
    fn verdicts(&self, complete: bool) -> SuiteVerdicts {
        // FS1: every crashed victim must be detected by every process
        // that did not itself crash (final sets, as post-hoc).
        let fs1_open = (0..self.n).any(|victim| {
            self.crashed[victim]
                && (0..self.n)
                    .any(|j| j != victim && !self.crashed[j] && !self.procs[j].has_detected(victim))
        });
        // sFS2a / Condition 1: every detected process eventually
        // crashes.
        let crash_open = self
            .procs
            .iter()
            .any(|p| p.detected.iter().any(|&of| !self.crashed[of]));
        let liveness = |open: bool| match (open, complete) {
            (false, _) => Verdict::Holds,
            (true, true) => Verdict::Violated,
            (true, false) => Verdict::Vacuous,
        };
        let safety = |violated: bool| {
            if violated {
                Verdict::Violated
            } else {
                Verdict::Holds
            }
        };
        SuiteVerdicts::new([
            liveness(fs1_open),
            liveness(crash_open),
            safety(self.sfs2b_violated),
            safety(self.sfs2c_violated),
            safety(self.violating_msgs > 0),
            liveness(crash_open),
            safety(self.sfs2b_violated),
            safety(self.cond3_violated),
        ])
    }
}

/// The streaming sFS suite monitor; see the module docs.
pub struct SfsMonitor {
    state: Mutex<MonitorState>,
}

impl std::fmt::Debug for SfsMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SfsMonitor")
            .field("events_seen", &self.events_seen())
            .finish_non_exhaustive()
    }
}

impl SfsMonitor {
    /// A monitor for an `n`-process run.
    pub fn new(n: usize) -> Arc<Self> {
        Arc::new(SfsMonitor {
            state: Mutex::new(MonitorState::new(n)),
        })
    }

    /// An [`EventSinkHandle`] feeding this monitor, for
    /// `ClusterSpec::event_sink` / `SimBuilder::event_sink` /
    /// `RuntimeConfig::sink`.
    pub fn handle(self: &Arc<Self>) -> EventSinkHandle {
        EventSinkHandle::new(self.clone() as Arc<dyn EventSink>)
    }

    /// Streams a finished trace through the monitor — the replay path
    /// for engines that cannot feed events live (and the reference path
    /// the differential tests compare against the live feed). Offers the
    /// monitor what a live [`EventSinkHandle`] would: the events of its
    /// declared interest.
    pub fn ingest_trace(&self, trace: &Trace) {
        let interest = self.interest();
        for e in trace.events().iter().filter(|e| interest.wants(&e.kind)) {
            self.on_event(e);
        }
    }

    /// Judges the run and returns the suite verdict vector. `complete`
    /// must be `trace.stop_reason().is_complete()` — quiescence is what
    /// discharges the FS1/sFS2a completeness watermark; on a truncated
    /// run their open obligations stay `Vacuous`.
    pub fn finish(&self, complete: bool) -> SuiteVerdicts {
        self.state
            .lock()
            .expect("monitor poisoned")
            .verdicts(complete)
    }

    /// Events consumed so far: on any feed that applies the declared
    /// interest, the model-alphabet events of the run —
    /// `History::from_trace(&trace).len()`.
    pub fn events_seen(&self) -> u64 {
        self.state.lock().expect("monitor poisoned").events_seen
    }
}

impl EventSink for SfsMonitor {
    fn on_event(&self, event: &TraceEvent) {
        self.state
            .lock()
            .expect("monitor poisoned")
            .step(&event.kind);
    }

    fn interest(&self) -> Interest {
        Interest::MODEL
    }
}

/// Splits a Lamport-merged trace into per-node event fragments, each in
/// merged-sequence order — the shape in which the UDP backend's monitor
/// state travels: every node contributes the substream of events it is
/// attributed, and the parent re-merges by global sequence number.
pub fn fragments_of(trace: &Trace) -> Vec<Vec<TraceEvent>> {
    let mut frags: Vec<Vec<TraceEvent>> = (0..trace.n()).map(|_| Vec::new()).collect();
    for e in trace.events() {
        frags[e.kind.process().index()].push(e.clone());
    }
    frags
}

/// K-way-merges per-node fragments by global sequence number and
/// streams the merged order through `sink` — the parent-side mirror of
/// the Lamport trace merge, used by the UDP leg. Equivalent to
/// [`SfsMonitor::ingest_trace`] on the merged trace (a property the
/// unit tests pin).
pub fn replay_fragments(sink: &EventSinkHandle, fragments: &[Vec<TraceEvent>]) {
    let mut cursors = vec![0usize; fragments.len()];
    loop {
        let mut next: Option<(usize, usize)> = None; // (seq, fragment)
        for (f, frag) in fragments.iter().enumerate() {
            if let Some(e) = frag.get(cursors[f]) {
                if next.is_none_or(|(seq, _)| e.seq < seq) {
                    next = Some((e.seq, f));
                }
            }
        }
        let Some((_, f)) = next else { break };
        sink.on_event(&fragments[f][cursors[f]]);
        cursors[f] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_asys::{ProcessId, SimStats, StopReason, VirtualTime};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn msg(src: usize, seq: u64) -> MsgId {
        MsgId::new(p(src), seq)
    }

    fn trace_of(n: usize, kinds: Vec<TraceEventKind>, stop: StopReason) -> Trace {
        let events: Vec<TraceEvent> = kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| TraceEvent {
                seq: i,
                time: VirtualTime::from_ticks(i as u64),
                kind,
            })
            .collect();
        Trace::from_parts(n, events, stop, VirtualTime::ZERO, SimStats::default())
    }

    fn send(from: usize, to: usize, m: MsgId) -> TraceEventKind {
        TraceEventKind::Send {
            from: p(from),
            to: p(to),
            msg: m,
            infra: false,
            payload: None,
        }
    }

    fn recv(by: usize, from: usize, m: MsgId) -> TraceEventKind {
        TraceEventKind::Recv {
            by: p(by),
            from: p(from),
            msg: m,
            infra: false,
            payload: None,
        }
    }

    fn failed(by: usize, of: usize) -> TraceEventKind {
        TraceEventKind::Failed {
            by: p(by),
            of: p(of),
        }
    }

    fn crash(pid: usize) -> TraceEventKind {
        TraceEventKind::Crash { pid: p(pid) }
    }

    #[test]
    fn clean_kill_certifies_the_whole_suite() {
        let mon = SfsMonitor::new(3);
        mon.ingest_trace(&trace_of(
            3,
            vec![failed(1, 0), failed(2, 0), crash(0)],
            StopReason::Quiescent,
        ));
        let v = mon.finish(true);
        assert!(v.all_ok(), "{v}");
        assert_eq!(v.verdict_of("FS1"), Some(Verdict::Holds));
    }

    #[test]
    fn fs1_watermark_discharges_only_at_quiescence() {
        let mon = SfsMonitor::new(3);
        mon.ingest_trace(&trace_of(
            3,
            vec![crash(0), failed(1, 0)],
            StopReason::MaxTime,
        ));
        // p2 never detected p0's crash: open obligation, vacuous while
        // the run is truncated...
        assert_eq!(mon.finish(false).verdict_of("FS1"), Some(Verdict::Vacuous));
        // ...and a real violation had the run completed.
        assert_eq!(mon.finish(true).verdict_of("FS1"), Some(Verdict::Violated));
    }

    #[test]
    fn fs1_excuses_detectors_that_crash() {
        let mon = SfsMonitor::new(3);
        mon.ingest_trace(&trace_of(
            3,
            vec![crash(0), crash(2), failed(1, 0), failed(1, 2)],
            StopReason::Quiescent,
        ));
        assert_eq!(mon.finish(true).verdict_of("FS1"), Some(Verdict::Holds));
    }

    #[test]
    fn sfs2a_needs_the_victim_to_crash() {
        let mon = SfsMonitor::new(2);
        mon.ingest_trace(&trace_of(2, vec![failed(1, 0)], StopReason::Quiescent));
        let v = mon.finish(true);
        assert_eq!(v.verdict_of("sFS2a"), Some(Verdict::Violated));
        assert_eq!(v.verdict_of("Condition1"), Some(Verdict::Violated));
    }

    #[test]
    fn sfs2b_cycle_detected_online() {
        let mon = SfsMonitor::new(2);
        mon.ingest_trace(&trace_of(
            2,
            vec![failed(0, 1), failed(1, 0), crash(0), crash(1)],
            StopReason::Quiescent,
        ));
        let v = mon.finish(true);
        assert_eq!(v.verdict_of("sFS2b"), Some(Verdict::Violated));
        assert_eq!(v.verdict_of("Condition2"), Some(Verdict::Violated));
    }

    #[test]
    fn sfs2c_self_detection_violates_immediately() {
        let mon = SfsMonitor::new(2);
        mon.ingest_trace(&trace_of(
            2,
            vec![failed(0, 0), crash(0)],
            StopReason::Quiescent,
        ));
        let v = mon.finish(true);
        assert_eq!(v.verdict_of("sFS2c"), Some(Verdict::Violated));
        // A self-detection is causally after itself: Condition 3 falls
        // with it, exactly as post-hoc.
        assert_eq!(v.verdict_of("Condition3"), Some(Verdict::Violated));
    }

    #[test]
    fn sfs2d_gate_judges_at_the_receive() {
        // p0 detects p2, then messages p1 before p1 knows: violated.
        let mon = SfsMonitor::new(3);
        mon.ingest_trace(&trace_of(
            3,
            vec![
                failed(0, 2),
                send(0, 1, msg(0, 0)),
                recv(1, 0, msg(0, 0)),
                crash(2),
            ],
            StopReason::Quiescent,
        ));
        assert_eq!(
            mon.finish(true).verdict_of("sFS2d"),
            Some(Verdict::Violated)
        );

        // Same exchange with p1 detecting first: holds.
        let mon = SfsMonitor::new(3);
        mon.ingest_trace(&trace_of(
            3,
            vec![
                failed(0, 2),
                send(0, 1, msg(0, 0)),
                failed(1, 2),
                recv(1, 0, msg(0, 0)),
                crash(2),
            ],
            StopReason::Quiescent,
        ));
        assert_eq!(mon.finish(true).verdict_of("sFS2d"), Some(Verdict::Holds));

        // Sends from before the detection carry no obligation.
        let mon = SfsMonitor::new(3);
        mon.ingest_trace(&trace_of(
            3,
            vec![
                send(0, 1, msg(0, 0)),
                failed(0, 2),
                recv(1, 0, msg(0, 0)),
                crash(2),
            ],
            StopReason::Quiescent,
        ));
        assert_eq!(mon.finish(true).verdict_of("sFS2d"), Some(Verdict::Holds));
    }

    #[test]
    fn condition3_taint_rides_the_message_chain() {
        // p0 detects p2 and messages it; p2's receive is an event of
        // the victim causally after its own detection.
        let mon = SfsMonitor::new(3);
        mon.ingest_trace(&trace_of(
            3,
            vec![
                failed(0, 2),
                send(0, 2, msg(0, 0)),
                recv(2, 0, msg(0, 0)),
                crash(2),
            ],
            StopReason::Quiescent,
        ));
        assert_eq!(
            mon.finish(true).verdict_of("Condition3"),
            Some(Verdict::Violated)
        );
    }

    #[test]
    fn infra_traffic_is_outside_the_model_alphabet() {
        let mon = SfsMonitor::new(3);
        let mut kinds = vec![failed(0, 2)];
        kinds.push(TraceEventKind::Send {
            from: p(0),
            to: p(1),
            msg: msg(0, 0),
            infra: true,
            payload: None,
        });
        kinds.push(TraceEventKind::Recv {
            by: p(1),
            from: p(0),
            msg: msg(0, 0),
            infra: true,
            payload: None,
        });
        kinds.push(crash(2));
        mon.ingest_trace(&trace_of(3, kinds, StopReason::Quiescent));
        let v = mon.finish(true);
        assert_eq!(v.verdict_of("sFS2d"), Some(Verdict::Holds));
        assert_eq!(v.verdict_of("Condition3"), Some(Verdict::Holds));
    }

    #[test]
    fn fragment_replay_matches_full_ingestion() {
        let trace = trace_of(
            3,
            vec![
                failed(0, 2),
                send(0, 1, msg(0, 0)),
                recv(1, 0, msg(0, 0)),
                failed(1, 2),
                crash(2),
            ],
            StopReason::Quiescent,
        );
        let whole = SfsMonitor::new(3);
        whole.ingest_trace(&trace);
        let merged = SfsMonitor::new(3);
        replay_fragments(&merged.handle(), &fragments_of(&trace));
        assert_eq!(merged.finish(true), whole.finish(true));
        assert_eq!(merged.events_seen(), whole.events_seen());
    }

    #[test]
    fn overhead_counters_track_consumption() {
        // The consumption counter is the monitor's whole overhead
        // report: it counts the model-alphabet events, and the infra
        // send and the timer around them never reach the monitor.
        let mon = SfsMonitor::new(2);
        let infra_send = TraceEventKind::Send {
            from: p(1),
            to: p(0),
            msg: msg(1, 0),
            infra: true,
            payload: None,
        };
        let timer = TraceEventKind::TimerFired {
            pid: p(1),
            timer: sfs_asys::TimerId::new(0),
        };
        mon.ingest_trace(&trace_of(
            2,
            vec![infra_send, failed(1, 0), timer, crash(0)],
            StopReason::Quiescent,
        ));
        assert_eq!(mon.events_seen(), 2);
    }
}
