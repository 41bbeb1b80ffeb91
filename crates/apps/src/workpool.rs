//! Fault-tolerant work distribution on the fail-stop abstraction.
//!
//! This is the kind of protocol the paper's introduction motivates:
//! coordination logic that is easy to write **if** failures look
//! fail-stop. A coordinator (the smallest non-failed process, as in the
//! §1 election) assigns tasks round-robin to workers; workers execute and
//! broadcast completion; when a worker is detected failed its outstanding
//! tasks are reassigned, and when the coordinator is detected failed the
//! next process takes over with the completion knowledge it already has.
//!
//! The failover code never has to reason about "maybe the dead worker is
//! still executing" — under simulated fail-stop, a detected worker is
//! guaranteed dead (sFS2a), so at-least-once execution with reassignment
//! is trivially correct, and the quiescent system always finishes every
//! task (provided a process survives).

use serde::{Deserialize, Serialize};
use sfs::{AppApi, Application};
use sfs_asys::{Note, ProcessId, Trace};
use std::collections::{BTreeMap, BTreeSet};

/// Trace-note key recording a task execution (`val` = task id).
pub const NOTE_EXEC: &str = "exec";

/// Trace-note key recorded by a coordinator observing all tasks done.
pub const NOTE_ALL_DONE: &str = "all-done";

/// Work-pool messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkMsg {
    /// Coordinator → worker: execute this task.
    Assign {
        /// Task id in `0..k`.
        task: u64,
    },
    /// Worker → everyone: this task is complete (broadcast so any future
    /// coordinator knows).
    Done {
        /// Task id in `0..k`.
        task: u64,
    },
}

/// The work-pool automaton. All processes run the same code; coordinator
/// and worker are roles derived from the failure view.
#[derive(Debug, Clone)]
pub struct WorkPoolApp {
    tasks: u64,
    failed: BTreeSet<ProcessId>,
    executed: BTreeSet<u64>,
    done: BTreeSet<u64>,
    /// Task → worker, as assigned by *this* process while coordinating.
    assigned: BTreeMap<u64, ProcessId>,
    coordinating: bool,
}

impl WorkPoolApp {
    /// A pool of `tasks` tasks.
    pub fn new(tasks: u64) -> Self {
        WorkPoolApp {
            tasks,
            failed: BTreeSet::new(),
            executed: BTreeSet::new(),
            done: BTreeSet::new(),
            assigned: BTreeMap::new(),
            coordinating: false,
        }
    }

    /// Tasks this process has executed.
    pub fn executed(&self) -> &BTreeSet<u64> {
        &self.executed
    }

    /// Tasks this process knows to be complete.
    pub fn done(&self) -> &BTreeSet<u64> {
        &self.done
    }

    fn coordinator(&self, api: &AppApi<'_, '_, WorkMsg>) -> ProcessId {
        ProcessId::all(api.n())
            .find(|p| !self.failed.contains(p))
            .expect("a running process cannot have removed everyone")
    }

    fn workers(&self, api: &AppApi<'_, '_, WorkMsg>) -> Vec<ProcessId> {
        ProcessId::all(api.n())
            .filter(|p| !self.failed.contains(p))
            .collect()
    }

    /// (Re)assigns every not-known-done, not-assigned-to-a-live-worker
    /// task.
    fn assign_outstanding(&mut self, api: &mut AppApi<'_, '_, WorkMsg>) {
        let workers = self.workers(api);
        debug_assert!(!workers.is_empty());
        let mut wheel = workers.iter().copied().cycle();
        for task in 0..self.tasks {
            if self.done.contains(&task) {
                continue;
            }
            let needs_assignment = match self.assigned.get(&task) {
                None => true,
                Some(w) => self.failed.contains(w),
            };
            if needs_assignment {
                let worker = wheel.next().expect("nonempty");
                self.assigned.insert(task, worker);
                if worker == api.id() {
                    // Self-assignment executes locally.
                    self.execute(api, task);
                } else {
                    api.send(worker, WorkMsg::Assign { task });
                }
            }
        }
    }

    fn execute(&mut self, api: &mut AppApi<'_, '_, WorkMsg>, task: u64) {
        if self.executed.insert(task) {
            api.annotate(Note::key_val(NOTE_EXEC, task));
        }
        // Broadcast completion (idempotent on the receiving side) and
        // record it locally.
        self.record_done(api, task);
        api.broadcast(WorkMsg::Done { task });
    }

    fn record_done(&mut self, api: &mut AppApi<'_, '_, WorkMsg>, task: u64) {
        self.done.insert(task);
        self.check_completion(api);
    }

    fn check_completion(&mut self, api: &mut AppApi<'_, '_, WorkMsg>) {
        if self.coordinating && self.done.len() as u64 == self.tasks {
            api.annotate(Note::key_val(NOTE_ALL_DONE, self.done.len()));
        }
    }

    fn reconsider_role(&mut self, api: &mut AppApi<'_, '_, WorkMsg>) {
        let leader = self.coordinator(api);
        if leader == api.id() {
            self.coordinating = true;
            self.assign_outstanding(api);
            // Completion may already have happened before we took over.
            self.check_completion(api);
        }
    }
}

impl Application for WorkPoolApp {
    type Msg = WorkMsg;

    fn on_start(&mut self, api: &mut AppApi<'_, '_, WorkMsg>) {
        self.reconsider_role(api);
    }

    fn on_message(&mut self, api: &mut AppApi<'_, '_, WorkMsg>, _from: ProcessId, msg: WorkMsg) {
        match msg {
            WorkMsg::Assign { task } => {
                if !self.done.contains(&task) {
                    self.execute(api, task);
                } else {
                    // Already complete; re-announce for the assigner.
                    api.broadcast(WorkMsg::Done { task });
                }
            }
            WorkMsg::Done { task } => self.record_done(api, task),
        }
    }

    fn on_failure(&mut self, api: &mut AppApi<'_, '_, WorkMsg>, failed: ProcessId) {
        self.failed.insert(failed);
        self.reconsider_role(api);
        if self.coordinating {
            self.assign_outstanding(api);
        }
    }
}

/// Post-run analysis of a work-pool trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkPoolOutcome {
    /// Distinct tasks executed at least once.
    pub tasks_executed: BTreeSet<u64>,
    /// Total executions (≥ tasks when reassignment duplicated work).
    pub total_executions: usize,
    /// Whether some coordinator observed full completion.
    pub all_done_observed: bool,
}

/// Extracts execution counts and completion from a trace.
pub fn analyze_workpool(trace: &Trace) -> WorkPoolOutcome {
    let mut tasks_executed = BTreeSet::new();
    let mut total = 0usize;
    for (_, _, note) in trace.notes_with_key(NOTE_EXEC) {
        if let Note::KeyVal { val, .. } = note {
            if let Ok(task) = val.parse::<u64>() {
                tasks_executed.insert(task);
                total += 1;
            }
        }
    }
    WorkPoolOutcome {
        tasks_executed,
        total_executions: total,
        all_done_observed: trace.notes_with_key(NOTE_ALL_DONE).next().is_some(),
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
    fn all_tasks_complete_without_failures() {
        let trace = ClusterSpec::new(4, 1)
            .seed(2)
            .try_run_apps(|_| WorkPoolApp::new(12))
            .expect("feasible spec");
        let outcome = analyze_workpool(&trace);
        assert_eq!(outcome.tasks_executed.len(), 12);
        assert_eq!(
            outcome.total_executions, 12,
            "no duplicates without failures"
        );
        assert!(outcome.all_done_observed);
    }

    #[test]
    fn worker_failure_reassigns_its_tasks() {
        for seed in 0..10 {
            let trace = ClusterSpec::new(5, 2)
                .seed(seed)
                .suspect(p(0), p(3), 30)
                .try_run_apps(|_| WorkPoolApp::new(10))
                .expect("feasible spec");
            let outcome = analyze_workpool(&trace);
            assert_eq!(
                outcome.tasks_executed.len(),
                10,
                "seed {seed}: lost tasks\n{}",
                trace.to_pretty_string()
            );
            assert!(outcome.all_done_observed, "seed {seed}");
        }
    }

    #[test]
    fn coordinator_failure_hands_over() {
        for seed in 0..10 {
            let trace = ClusterSpec::new(5, 2)
                .seed(seed)
                .suspect(p(2), p(0), 25) // kill the coordinator mid-stream
                .try_run_apps(|_| WorkPoolApp::new(10))
                .expect("feasible spec");
            let outcome = analyze_workpool(&trace);
            assert_eq!(outcome.tasks_executed.len(), 10, "seed {seed}: lost tasks");
            assert!(outcome.all_done_observed, "seed {seed}");
        }
    }

    #[test]
    fn double_failure_still_completes() {
        for seed in 0..10 {
            let trace = ClusterSpec::new(6, 2)
                .seed(seed)
                .suspect(p(2), p(0), 25)
                .suspect(p(3), p(1), 40)
                .try_run_apps(|_| WorkPoolApp::new(8))
                .expect("feasible spec");
            let outcome = analyze_workpool(&trace);
            assert_eq!(outcome.tasks_executed.len(), 8, "seed {seed}: lost tasks");
        }
    }

    #[test]
    fn reassignment_may_duplicate_but_never_loses() {
        // High-variance latency plus an early kill maximizes the window in
        // which a completed task's Done broadcast is still in flight when
        // the coordinator reassigns.
        let mut duplicates_seen = false;
        for seed in 0..30 {
            let trace = ClusterSpec::new(5, 2)
                .seed(seed)
                .latency(1, 200)
                .suspect(p(0), p(1), 5)
                .try_run_apps(|_| WorkPoolApp::new(10))
                .expect("feasible spec");
            let outcome = analyze_workpool(&trace);
            assert_eq!(outcome.tasks_executed.len(), 10, "seed {seed}");
            if outcome.total_executions > 10 {
                duplicates_seen = true;
            }
        }
        assert!(
            duplicates_seen,
            "expected at-least-once duplicates in some schedule"
        );
    }
}
