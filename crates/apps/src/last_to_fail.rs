//! Determining the last process to fail (\[Ske85\], discussed in §6).
//!
//! After a *total failure* (every process crashes), recovering processes
//! want to know which process(es) failed last — e.g. to restart from the
//! freshest state. Each process logs its view of the failed-before
//! relation to stable storage as it detects failures; recovery intersects
//! the logs.
//!
//! The paper's point: this problem is **sensitive to sFS2b**. If
//! failed-before is acyclic, the sinks of the logged relation are exactly
//! the candidates for "last to fail", and recovery can proceed once they
//! have recovered. If cyclic detections are possible (the §6 cheap model,
//! or unilateral timeouts), every process can appear in some log as
//! "failed before another", leaving **no** consistent candidate — the only
//! safe recovery is to wait for *everyone*, or worse, conclude something
//! false (the paper's two-process example: process 1 falsely detects 2,
//! crashes; 2 works on, crashes last; 1 recovers and wrongly concludes it
//! was last).
//!
//! Stable storage is modelled by the trace itself: the detections a
//! process executed before its crash are exactly what it would have
//! logged. (Only the contents' survival across the crash matters to the
//! algorithm; see DESIGN.md.)

use sfs_asys::{ProcessId, Trace};
use sfs_history::{FailedBefore, History};

/// Result of the recovery computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recovery {
    /// The logged failed-before relation is acyclic; these are the
    /// processes that no log records as having failed before anyone —
    /// the candidates for "last to fail".
    Candidates(Vec<ProcessId>),
    /// The logs contain a failed-before cycle: no consistent answer
    /// exists. The cycle (as processes) is returned as the certificate.
    Inconsistent(Vec<ProcessId>),
}

impl Recovery {
    /// Whether recovery produced a usable answer.
    pub fn is_consistent(&self) -> bool {
        matches!(self, Recovery::Candidates(_))
    }
}

/// Replays the stable-storage logs from a total-failure trace and computes
/// the last-to-fail candidates.
///
/// All processes that crashed participate; detections by processes that
/// never crashed are also consulted (they are simply recovering peers
/// whose log is current).
pub fn recover_last_to_fail(trace: &Trace) -> Recovery {
    let h = History::from_trace(trace);
    let fb = FailedBefore::from_history(&h);
    if let Some(cycle) = fb.find_cycle() {
        return Recovery::Inconsistent(cycle);
    }
    let crashed = h.crashed();
    let candidates = if crashed.is_empty() {
        Vec::new()
    } else {
        fb.sinks_among(&crashed)
    };
    Recovery::Candidates(candidates)
}

/// The process whose crash event is last in the trace — the ground truth
/// a global observer would name, available to experiments but not to any
/// process.
pub fn true_last_to_fail(trace: &Trace) -> Option<ProcessId> {
    trace.crashed().last().copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs::{ClusterSpec, ModeSpec};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// Staggered total failure: crash everyone with time for detections in
    /// between.
    fn total_failure(mode: ModeSpec, n: usize, t: usize, seed: u64) -> Trace {
        let mut spec = ClusterSpec::new(n, t)
            .mode(mode)
            .heartbeat(sfs::HeartbeatConfig {
                interval: 10,
                timeout: 50,
                check_every: 10,
            })
            .seed(seed)
            .max_time(5_000);
        for i in 0..n {
            spec = spec.crash(p(i), 300 + 300 * i as u64);
        }
        spec.try_run().expect("feasible spec")
    }

    #[test]
    fn oracle_recovery_names_the_true_last() {
        for seed in 0..5 {
            let trace = total_failure(ModeSpec::Oracle, 4, 1, seed);
            let truth = true_last_to_fail(&trace).expect("total failure");
            match recover_last_to_fail(&trace) {
                Recovery::Candidates(c) => {
                    assert!(c.contains(&truth), "seed {seed}: {c:?} missing {truth}")
                }
                Recovery::Inconsistent(cycle) => {
                    panic!("seed {seed}: oracle produced a cycle {cycle:?}")
                }
            }
        }
    }

    #[test]
    fn sfs_recovery_is_always_consistent() {
        for seed in 0..5 {
            let trace = total_failure(ModeSpec::SfsOneRound, 5, 2, seed);
            let rec = recover_last_to_fail(&trace);
            assert!(rec.is_consistent(), "seed {seed}: {rec:?}");
            if let Recovery::Candidates(c) = rec {
                assert!(
                    !c.is_empty(),
                    "seed {seed}: total failure must leave candidates"
                );
            }
        }
    }

    #[test]
    fn cyclic_detection_breaks_recovery() {
        // The paper's two-process story, forced via the cheap model:
        // p0 falsely detects p1 and crashes; p1 detects p0 and crashes.
        // Both logs say "the other failed first" — a cycle.
        let trace = ClusterSpec::new(2, 1)
            .mode(ModeSpec::CheapBroadcast)
            .without_self_crash() // victims survive their obituaries...
            .suspect(p(0), p(1), 10)
            .suspect(p(1), p(0), 10)
            .crash(p(0), 100)
            .crash(p(1), 200)
            .try_run()
            .expect("feasible spec");
        match recover_last_to_fail(&trace) {
            Recovery::Inconsistent(cycle) => assert_eq!(cycle.len(), 2),
            Recovery::Candidates(c) => {
                panic!(
                    "expected a cycle, got candidates {c:?}\n{}",
                    trace.to_pretty_string()
                )
            }
        }
    }

    #[test]
    fn unilateral_false_detection_misidentifies_the_last() {
        // p0 unilaterally (and falsely) detects p1, then crashes. p1 lives
        // on and crashes last. p0's log says "p1 failed before p0", so
        // recovery excludes the true last process.
        let trace = ClusterSpec::new(2, 1)
            .mode(ModeSpec::Unilateral)
            .suspect(p(0), p(1), 10)
            .crash(p(0), 100)
            .crash(p(1), 500)
            .try_run()
            .expect("feasible spec");
        let truth = true_last_to_fail(&trace).unwrap();
        assert_eq!(truth, p(1));
        match recover_last_to_fail(&trace) {
            Recovery::Candidates(c) => {
                assert!(
                    !c.contains(&truth),
                    "the false log should exclude {truth}: {c:?}"
                );
            }
            Recovery::Inconsistent(_) => {}
        }
    }
}
