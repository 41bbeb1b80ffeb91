//! The load generator: open- and closed-loop client-operation drivers.
//!
//! One [`LoadGenApp`] instance runs on every member of a shard. The
//! *driver* role (the lowest non-failed member, exactly the §1 election
//! rule the work-pool app uses) issues operations — round-robin over the
//! live membership — either at a fixed rate regardless of completions
//! (**open loop**, the arrival-process model) or keeping a fixed window
//! outstanding (**closed loop**, the think-time model). Workers execute
//! and broadcast completion; on a failure notification the driver
//! reassigns the dead worker's outstanding operations, and when the
//! driver itself is detected failed the next member takes over from the
//! completion knowledge it already holds. All of the failover logic
//! leans on fail-stop semantics: a detected worker is really dead
//! (sFS2a), so at-least-once reissue is trivially correct.
//!
//! On the deterministic simulator the generated load is a pure function
//! of the spec; on the threaded runtime ticks are wall-clock
//! milliseconds, making the rates real. Completions are recorded as
//! trace annotations, which [`analyze_load`] turns into throughput and
//! per-op latency.

use serde::{Deserialize, Serialize};
use sfs::{AppApi, Application};
use sfs_asys::{Note, ProcessId, Trace, TraceEvent, TraceEventKind, VirtualTime};
use std::collections::{BTreeMap, BTreeSet};

/// Trace-note key: the driver issued an op (`val` = op id).
pub const NOTE_OP_ISSUED: &str = "op-issued";

/// Trace-note key: a worker executed an op (`val` = op id); duplicated
/// under reassignment (at-least-once).
pub const NOTE_OP_EXEC: &str = "op-exec";

/// Trace-note key: the driver learned an op completed (`val` = op id).
pub const NOTE_OP_DONE: &str = "op-done";

/// Trace-note key: the driver observed every op complete.
pub const NOTE_LOAD_COMPLETE: &str = "load-complete";

/// The span name each driver opens when it starts driving and closes at
/// full completion, via the execution-neutral
/// [`sfs_obs::metrics::SPAN_BEGIN`]/[`SPAN_END`](sfs_obs::metrics::SPAN_END)
/// note vocabulary — rendered as a named interval per driving process by
/// the Chrome trace exporter. A driver that crashes mid-load leaves its
/// span open (its successor opens a fresh one), which the trace viewer
/// renders as an unclosed interval — exactly what happened.
pub const SPAN_LOAD: &str = "load";

/// The issue discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoadMode {
    /// Issue `burst` ops every `interval` ticks, regardless of
    /// completions — models an external arrival process.
    Open {
        /// Ticks between issue bursts.
        interval: u64,
        /// Ops per burst.
        burst: u64,
    },
    /// Keep up to `window` ops outstanding; issue the next the moment
    /// one completes — models clients with bounded concurrency.
    Closed {
        /// Maximum outstanding ops.
        window: u64,
    },
}

/// How much load to apply, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoadProfile {
    /// Issue discipline.
    pub mode: LoadMode,
    /// Total operations (ids `0..ops`).
    pub ops: u64,
}

impl LoadProfile {
    /// An open-loop profile.
    pub fn open(ops: u64, interval: u64, burst: u64) -> Self {
        LoadProfile {
            mode: LoadMode::Open { interval, burst },
            ops,
        }
    }

    /// A closed-loop profile.
    pub fn closed(ops: u64, window: u64) -> Self {
        LoadProfile {
            mode: LoadMode::Closed { window },
            ops,
        }
    }
}

/// Client-operation messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoadMsg {
    /// Driver → worker: execute this op.
    Assign {
        /// Op id in `0..ops`.
        op: u64,
    },
    /// Worker → everyone: this op is complete (broadcast so any future
    /// driver knows).
    Done {
        /// Op id in `0..ops`.
        op: u64,
    },
}

/// The load-generator automaton; see the module docs.
#[derive(Debug, Clone)]
pub struct LoadGenApp {
    profile: LoadProfile,
    failed: BTreeSet<ProcessId>,
    driving: bool,
    /// Ops this process has issued while driving, and to whom.
    assigned: BTreeMap<u64, ProcessId>,
    /// Next op id this driver would issue.
    next_op: u64,
    done: BTreeSet<u64>,
    executed: BTreeSet<u64>,
    /// Round-robin cursor over the live membership.
    rr: usize,
    complete_announced: bool,
}

impl LoadGenApp {
    /// A fresh instance applying `profile`.
    pub fn new(profile: LoadProfile) -> Self {
        LoadGenApp {
            profile,
            failed: BTreeSet::new(),
            driving: false,
            assigned: BTreeMap::new(),
            next_op: 0,
            done: BTreeSet::new(),
            executed: BTreeSet::new(),
            rr: 0,
            complete_announced: false,
        }
    }

    /// Ops this process knows to be complete.
    pub fn done(&self) -> &BTreeSet<u64> {
        &self.done
    }

    fn driver(&self, api: &AppApi<'_, '_, LoadMsg>) -> ProcessId {
        ProcessId::all(api.n())
            .find(|p| !self.failed.contains(p))
            .expect("a running process cannot have removed everyone")
    }

    fn next_worker(&mut self, api: &AppApi<'_, '_, LoadMsg>) -> ProcessId {
        let live: Vec<ProcessId> = ProcessId::all(api.n())
            .filter(|p| !self.failed.contains(p))
            .collect();
        let w = live[self.rr % live.len()];
        self.rr += 1;
        w
    }

    /// The next not-yet-completed op id after `from`, if any remain.
    fn next_pending(&self, from: u64) -> Option<u64> {
        (from..self.profile.ops).find(|op| !self.done.contains(op))
    }

    fn issue(&mut self, api: &mut AppApi<'_, '_, LoadMsg>, op: u64) {
        let worker = self.next_worker(api);
        self.assigned.insert(op, worker);
        api.annotate(Note::key_val(NOTE_OP_ISSUED, op));
        if worker == api.id() {
            self.execute(api, op);
        } else {
            api.send(worker, LoadMsg::Assign { op });
        }
    }

    /// Issues up to `k` fresh ops (driver role).
    fn issue_up_to(&mut self, api: &mut AppApi<'_, '_, LoadMsg>, k: u64) {
        for _ in 0..k {
            let Some(op) = self.next_pending(self.next_op) else {
                return;
            };
            self.next_op = op + 1;
            self.issue(api, op);
        }
    }

    fn execute(&mut self, api: &mut AppApi<'_, '_, LoadMsg>, op: u64) {
        if self.executed.insert(op) {
            api.annotate(Note::key_val(NOTE_OP_EXEC, op));
        }
        api.broadcast(LoadMsg::Done { op });
        self.record_done(api, op);
    }

    /// How many issued ops are still in flight from this driver's view.
    fn outstanding(&self) -> u64 {
        self.assigned
            .keys()
            .filter(|op| !self.done.contains(op))
            .count() as u64
    }

    /// Tops the outstanding window up (closed-loop discipline).
    fn refill(&mut self, api: &mut AppApi<'_, '_, LoadMsg>) {
        if let LoadMode::Closed { window } = self.profile.mode {
            while self.outstanding() < window {
                let Some(op) = self.next_pending(self.next_op) else {
                    return;
                };
                self.next_op = op + 1;
                self.issue(api, op);
            }
        }
    }

    fn record_done(&mut self, api: &mut AppApi<'_, '_, LoadMsg>, op: u64) {
        if !self.done.insert(op) {
            return;
        }
        if !self.driving {
            return;
        }
        api.annotate(Note::key_val(NOTE_OP_DONE, op));
        if self.done.len() as u64 == self.profile.ops && !self.complete_announced {
            self.complete_announced = true;
            api.annotate(Note::key_val(NOTE_LOAD_COMPLETE, self.done.len()));
            api.annotate(Note::key_val(sfs_obs::metrics::SPAN_END, SPAN_LOAD));
        } else {
            self.refill(api);
        }
    }

    fn reconsider_role(&mut self, api: &mut AppApi<'_, '_, LoadMsg>) {
        if self.driver(api) != api.id() || self.driving {
            return;
        }
        self.driving = true;
        api.annotate(Note::key_val(sfs_obs::metrics::SPAN_BEGIN, SPAN_LOAD));
        // A take-over driver restarts issuance from the lowest op not yet
        // known complete — at-least-once, like the work-pool app. It also
        // re-announces every completion it knows of: the dead driver may
        // have crashed before annotating some (its own `Done` receipt can
        // be in flight at the crash), and the analysis dedups repeats.
        for op in self.done.iter().copied().collect::<Vec<_>>() {
            api.annotate(Note::key_val(NOTE_OP_DONE, op));
        }
        self.next_op = 0;
        match self.profile.mode {
            LoadMode::Open { interval, .. } => {
                if self.next_pending(0).is_some() {
                    api.set_timer(interval.max(1));
                }
            }
            LoadMode::Closed { .. } => self.refill(api),
        }
        // Ops may all have completed before the take-over.
        if self.done.len() as u64 == self.profile.ops && !self.complete_announced {
            self.complete_announced = true;
            api.annotate(Note::key_val(NOTE_LOAD_COMPLETE, self.done.len()));
            api.annotate(Note::key_val(sfs_obs::metrics::SPAN_END, SPAN_LOAD));
        }
    }
}

impl Application for LoadGenApp {
    type Msg = LoadMsg;

    fn on_start(&mut self, api: &mut AppApi<'_, '_, LoadMsg>) {
        if self.profile.ops == 0 {
            return;
        }
        self.reconsider_role(api);
    }

    fn on_message(&mut self, api: &mut AppApi<'_, '_, LoadMsg>, _from: ProcessId, msg: LoadMsg) {
        match msg {
            LoadMsg::Assign { op } => {
                if !self.done.contains(&op) {
                    self.execute(api, op);
                } else {
                    // Already complete; re-announce for the assigner.
                    api.broadcast(LoadMsg::Done { op });
                }
            }
            LoadMsg::Done { op } => self.record_done(api, op),
        }
    }

    fn on_timer(&mut self, api: &mut AppApi<'_, '_, LoadMsg>, _timer: sfs_asys::TimerId) {
        // Open-loop tick: issue the next burst at the configured rate,
        // regardless of how many earlier ops completed.
        if !self.driving {
            return;
        }
        if let LoadMode::Open { interval, burst } = self.profile.mode {
            self.issue_up_to(api, burst);
            if self.next_pending(self.next_op).is_some() {
                api.set_timer(interval.max(1));
            }
        }
    }

    fn on_failure(&mut self, api: &mut AppApi<'_, '_, LoadMsg>, failed: ProcessId) {
        self.failed.insert(failed);
        self.reconsider_role(api);
        if self.driving {
            // Reassign every op stranded on the dead worker. sFS2a
            // guarantees it is really dead, so no duplicate-execution
            // reasoning is needed beyond idempotent `Done`s.
            let stranded: Vec<u64> = self
                .assigned
                .iter()
                .filter(|&(op, w)| *w == failed && !self.done.contains(op))
                .map(|(&op, _)| op)
                .collect();
            for op in stranded {
                self.issue(api, op);
            }
        }
    }
}

/// What one shard's load run amounted to.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LoadOutcome {
    /// Distinct ops issued.
    pub issued: u64,
    /// Distinct ops completed (driver-acknowledged).
    pub completed: u64,
    /// Total executions (≥ completed under reassignment).
    pub executions: u64,
    /// Whether some driver observed full completion.
    pub complete: bool,
    /// Tick of the first issue, if any.
    pub first_issue: Option<VirtualTime>,
    /// Tick of the last completion, if any.
    pub last_done: Option<VirtualTime>,
    /// Per-op issue→completion latency in ticks, one entry per completed
    /// op (first issue to first completion), unsorted.
    pub op_latencies: Vec<u64>,
}

impl LoadOutcome {
    /// Completed ops per kilotick of load window (first issue to last
    /// completion); 0 when nothing completed.
    pub fn ops_per_kilotick(&self) -> f64 {
        match (self.first_issue, self.last_done) {
            (Some(a), Some(b)) if b > a => {
                self.completed as f64 * 1_000.0 / (b.ticks() - a.ticks()) as f64
            }
            _ => 0.0,
        }
    }
}

/// Extracts the load outcome from a trace: replays `trace.events()`
/// through a [`LoadFold`].
pub fn analyze_load(trace: &Trace) -> LoadOutcome {
    let mut fold = LoadFold::default();
    for e in trace.events() {
        fold.on_event(e);
    }
    fold.finish()
}

/// The single-pass fold behind [`analyze_load`], one event at a time, so
/// a shard run that keeps no trace can feed it live from an
/// [`EventSink`](sfs_asys::EventSink). It reads the load generator's
/// notes and ignores every other event.
#[derive(Debug, Default)]
pub struct LoadFold {
    issued_at: BTreeMap<u64, VirtualTime>,
    done_at: BTreeMap<u64, VirtualTime>,
    executions: u64,
    complete: bool,
}

impl LoadFold {
    /// Folds one event.
    pub fn on_event(&mut self, e: &TraceEvent) {
        let TraceEventKind::Note {
            note: Note::KeyVal { key, val },
            ..
        } = &e.kind
        else {
            return;
        };
        match key.as_str() {
            NOTE_OP_ISSUED => {
                if let Ok(op) = val.parse::<u64>() {
                    self.issued_at.entry(op).or_insert(e.time);
                }
            }
            NOTE_OP_EXEC => self.executions += 1,
            NOTE_OP_DONE => {
                if let Ok(op) = val.parse::<u64>() {
                    self.done_at.entry(op).or_insert(e.time);
                }
            }
            NOTE_LOAD_COMPLETE => self.complete = true,
            _ => {}
        }
    }

    /// The outcome of the events folded so far.
    pub fn finish(&self) -> LoadOutcome {
        let op_latencies = self
            .done_at
            .iter()
            .filter_map(|(op, &t)| {
                self.issued_at
                    .get(op)
                    .map(|&i| t.ticks().saturating_sub(i.ticks()))
            })
            .collect();
        LoadOutcome {
            issued: self.issued_at.len() as u64,
            completed: self.done_at.len() as u64,
            executions: self.executions,
            complete: self.complete,
            first_issue: self.issued_at.values().min().copied(),
            last_done: self.done_at.values().max().copied(),
            op_latencies,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs::ClusterSpec;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn closed_loop_completes_all_ops() {
        let trace = ClusterSpec::new(5, 2)
            .seed(4)
            .try_run_apps(|_| LoadGenApp::new(LoadProfile::closed(20, 4)))
            .expect("feasible spec");
        let out = analyze_load(&trace);
        assert_eq!(out.completed, 20, "{}", trace.to_pretty_string());
        assert!(out.complete);
        assert_eq!(out.executions, 20, "no duplicates without failures");
        assert_eq!(out.op_latencies.len(), 20);
    }

    #[test]
    fn open_loop_completes_all_ops_at_rate() {
        let trace = ClusterSpec::new(5, 2)
            .seed(8)
            .try_run_apps(|_| LoadGenApp::new(LoadProfile::open(24, 5, 3)))
            .expect("feasible spec");
        let out = analyze_load(&trace);
        assert_eq!(out.completed, 24, "{}", trace.to_pretty_string());
        assert!(out.complete);
        // 24 ops at 3/burst over ≥ 5-tick intervals: issuing alone spans
        // at least (24/3 - 1) * 5 ticks — the arrival process is real.
        let span = out.last_done.unwrap().ticks() - out.first_issue.unwrap().ticks();
        assert!(span >= 35, "open loop finished implausibly fast: {span}");
    }

    #[test]
    fn worker_failure_reassigns_and_still_completes() {
        for seed in 0..10 {
            let trace = ClusterSpec::new(5, 2)
                .seed(seed)
                .suspect(p(0), p(3), 30)
                .try_run_apps(|_| LoadGenApp::new(LoadProfile::closed(16, 4)))
                .expect("feasible spec");
            let out = analyze_load(&trace);
            assert_eq!(
                out.completed,
                16,
                "seed {seed}\n{}",
                trace.to_pretty_string()
            );
            assert!(out.complete, "seed {seed}");
        }
    }

    #[test]
    fn driver_failure_hands_over() {
        for seed in 0..10 {
            let trace = ClusterSpec::new(5, 2)
                .seed(seed)
                .suspect(p(2), p(0), 25)
                .try_run_apps(|_| LoadGenApp::new(LoadProfile::closed(16, 4)))
                .expect("feasible spec");
            let out = analyze_load(&trace);
            assert_eq!(
                out.completed,
                16,
                "seed {seed}\n{}",
                trace.to_pretty_string()
            );
        }
    }

    #[test]
    fn open_loop_driver_failure_hands_over() {
        for seed in 0..5 {
            let trace = ClusterSpec::new(5, 2)
                .seed(seed)
                .suspect(p(1), p(0), 20)
                .try_run_apps(|_| LoadGenApp::new(LoadProfile::open(12, 4, 2)))
                .expect("feasible spec");
            let out = analyze_load(&trace);
            assert_eq!(
                out.completed,
                12,
                "seed {seed}\n{}",
                trace.to_pretty_string()
            );
        }
    }

    #[test]
    fn zero_ops_is_immediately_quiescent() {
        let trace = ClusterSpec::new(3, 1)
            .try_run_apps(|_| LoadGenApp::new(LoadProfile::closed(0, 4)))
            .expect("feasible spec");
        let out = analyze_load(&trace);
        assert_eq!(out.issued, 0);
        assert_eq!(out.completed, 0);
    }
}
