//! A minimal group-membership view service on the fail-stop abstraction.
//!
//! The paper (§6) notes that failure detection "is typically done as part
//! of a group membership service" and argues its protocol can serve as the
//! basis of one. This module is that basis: each process maintains a
//! sequence of *views* — the initial membership, shrunk by one process per
//! detected failure. Because the detector provides fail-stop semantics,
//! the view sequences of any two survivors converge: by FS1 every survivor
//! learns every failure, by sFS2a detected processes really are gone, so
//! at quiescence all survivors hold the identical final view.

use serde::{Deserialize, Serialize};
use sfs::{AppApi, Application};
use sfs_asys::{Note, ProcessId, Trace};
use std::collections::BTreeSet;

/// Trace-note key for view installations. The value is the rendered view.
pub const NOTE_VIEW: &str = "view";

/// One membership view.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct View {
    /// Monotone view number, starting at 0 for the full membership.
    pub id: u64,
    /// Members, ascending.
    pub members: Vec<ProcessId>,
}

impl std::fmt::Display for View {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}{{", self.id)?;
        for (i, m) in self.members.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{m}")?;
        }
        write!(f, "}}")
    }
}

/// The membership automaton: installs a new view on every failure
/// notification.
#[derive(Debug, Clone)]
pub struct MembershipApp {
    views: Vec<View>,
    members: BTreeSet<ProcessId>,
}

impl MembershipApp {
    /// A fresh instance; the initial view is installed on start.
    pub fn new() -> Self {
        MembershipApp {
            views: Vec::new(),
            members: BTreeSet::new(),
        }
    }

    /// The view history so far.
    pub fn views(&self) -> &[View] {
        &self.views
    }

    /// The current view.
    pub fn current(&self) -> Option<&View> {
        self.views.last()
    }

    fn install(&mut self, api: &mut AppApi<'_, '_, ()>) {
        let view = View {
            id: self.views.len() as u64,
            members: self.members.iter().copied().collect(),
        };
        api.annotate(Note::key_val(NOTE_VIEW, &view));
        self.views.push(view);
    }
}

impl Default for MembershipApp {
    fn default() -> Self {
        Self::new()
    }
}

impl Application for MembershipApp {
    type Msg = ();

    fn on_start(&mut self, api: &mut AppApi<'_, '_, ()>) {
        self.members = ProcessId::all(api.n()).collect();
        self.install(api);
    }

    fn on_message(&mut self, _: &mut AppApi<'_, '_, ()>, _: ProcessId, _: ()) {}

    fn on_failure(&mut self, api: &mut AppApi<'_, '_, ()>, failed: ProcessId) {
        if self.members.remove(&failed) {
            self.install(api);
        }
    }
}

/// The view sequence each process installed, recovered from a trace.
pub fn view_log(trace: &Trace) -> Vec<(ProcessId, Vec<String>)> {
    let mut per_process: Vec<(ProcessId, Vec<String>)> =
        ProcessId::all(trace.n()).map(|p| (p, Vec::new())).collect();
    for (_, pid, note) in trace.notes_with_key(NOTE_VIEW) {
        if let Note::KeyVal { val, .. } = note {
            per_process[pid.index()].1.push(val.to_string());
        }
    }
    per_process
}

/// Checks view convergence: every process that did not crash installed the
/// same final view. Returns the offending pair on failure.
pub fn check_convergence(trace: &Trace) -> Result<(), (ProcessId, ProcessId)> {
    let crashed: BTreeSet<ProcessId> = trace.crashed().into_iter().collect();
    let logs = view_log(trace);
    let survivors: Vec<&(ProcessId, Vec<String>)> =
        logs.iter().filter(|(p, _)| !crashed.contains(p)).collect();
    for pair in survivors.windows(2) {
        let (pa, la) = pair[0];
        let (pb, lb) = pair[1];
        if la.last() != lb.last() {
            return Err((*pa, *pb));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs::{Backend, ClusterSpec, Instruments};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn views_shrink_on_detection_and_converge() {
        let trace = ClusterSpec::new(5, 2)
            .seed(11)
            .suspect(p(3), p(4), 10)
            .run(Backend::Sim, Instruments::default(), |_| {
                MembershipApp::new()
            })
            .expect("feasible spec")
            .into_trace();
        check_convergence(&trace).expect("survivor views diverged");
        let logs = view_log(&trace);
        // Survivors installed exactly two views: full membership, then
        // membership minus p4.
        for (pid, views) in &logs {
            if *pid == p(4) {
                continue;
            }
            assert_eq!(views.len(), 2, "{pid}: {views:?}");
            assert!(views[0].contains("p4"));
            assert!(!views[1].contains("p4"), "{pid}: {views:?}");
        }
    }

    #[test]
    fn two_failures_converge_regardless_of_order() {
        for seed in 0..10 {
            let trace = ClusterSpec::new(6, 2)
                .seed(seed)
                .suspect(p(1), p(0), 10)
                .suspect(p(2), p(5), 12)
                .run(Backend::Sim, Instruments::default(), |_| {
                    MembershipApp::new()
                })
                .expect("feasible spec")
                .into_trace();
            check_convergence(&trace)
                .unwrap_or_else(|(a, b)| panic!("seed {seed}: {a} and {b} diverged"));
        }
    }

    #[test]
    fn view_ids_are_dense_and_monotone() {
        let trace = ClusterSpec::new(4, 1)
            .seed(3)
            .suspect(p(1), p(2), 10)
            .run(Backend::Sim, Instruments::default(), |_| {
                MembershipApp::new()
            })
            .expect("feasible spec")
            .into_trace();
        for (pid, views) in view_log(&trace) {
            for (i, v) in views.iter().enumerate() {
                assert!(v.starts_with(&format!("v{i}")), "{pid}: {views:?}");
            }
        }
    }
}
