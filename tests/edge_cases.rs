//! Boundary configurations: the smallest systems the theory admits.

use failstop::prelude::*;
use sfs::quorum::min_quorum;
use sfs::{SfsConfig, SfsProcess};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

#[test]
fn two_processes_one_failure() {
    // n = 2, t = 1: the quorum degenerates to 1 (a single vote — one's
    // own suffices, since a cycle needs two failures and t = 1 forbids
    // that).
    assert_eq!(min_quorum(2, 1), 1);
    let trace = ClusterSpec::new(2, 1)
        .seed(3)
        .suspect(p(1), p(0), 10)
        .try_run()
        .expect("feasible spec");
    assert_eq!(trace.crashed(), vec![p(0)]);
    assert_eq!(trace.detections(), vec![(p(1), p(0))]);
    let h = History::from_trace(&trace);
    for report in properties::check_sfs_suite(&h, true) {
        assert!(report.is_ok(), "{report}");
    }
    let fixed = rearrange_to_fs(&h).expect("rearrangeable");
    assert!(fixed.history.is_fs_ordered());
}

#[test]
fn single_process_system_is_trivially_fine() {
    let config = SfsConfig::new(1, 0);
    assert!(SfsProcess::new(config, NullApp).is_ok());
    let trace = ClusterSpec::new(1, 0).try_run().expect("feasible spec");
    assert!(trace.detections().is_empty());
    assert!(trace.crashed().is_empty());
    assert_eq!(trace.stop_reason(), StopReason::Quiescent);
}

/// Every detector selection, for the degenerate-shape sweeps below.
const ALL_MODES: [ModeSpec; 4] = [
    ModeSpec::SfsOneRound,
    ModeSpec::Unilateral,
    ModeSpec::CheapBroadcast,
    ModeSpec::Oracle,
];

#[test]
fn n_equals_one_terminates_cleanly_under_every_mode() {
    // A 1-process cluster has no peers to suspect, vote with, or detect:
    // every detector must reach a clean stop with an empty story. The
    // oracle's poll timer re-arms forever, so that mode terminates at the
    // (deliberately small) horizon rather than quiescing — that is its
    // clean stop, pinned here explicitly.
    for mode in ALL_MODES {
        let trace = ClusterSpec::new(1, 0)
            .mode(mode)
            .max_time(500)
            .try_run()
            .expect("feasible spec");
        assert!(
            trace.detections().is_empty(),
            "{mode:?}: detection in a 1-process system"
        );
        assert!(trace.crashed().is_empty(), "{mode:?}");
        let expected = if mode == ModeSpec::Oracle {
            StopReason::MaxTime
        } else {
            StopReason::Quiescent
        };
        assert_eq!(trace.stop_reason(), expected, "{mode:?}");
    }
}

#[test]
fn t_zero_cluster_handles_an_injected_suspicion_under_every_mode() {
    // t = 0 promises "no failures", but the environment can still inject
    // a suspicion. Pin what each detector does with it — all of them must
    // terminate cleanly rather than wedge.
    for mode in ALL_MODES {
        let trace = ClusterSpec::new(3, 0)
            .mode(mode)
            .max_time(5_000)
            .suspect(p(1), p(0), 10)
            .try_run()
            .expect("feasible spec");
        match mode {
            // Quorum degenerates to 1 vote: the suspicion detects and
            // kills p0 exactly as with t = 1.
            ModeSpec::SfsOneRound | ModeSpec::CheapBroadcast => {
                assert_eq!(trace.crashed(), vec![p(0)], "{mode:?}");
                assert!(!trace.detections().is_empty(), "{mode:?}");
                assert_eq!(trace.stop_reason(), StopReason::Quiescent, "{mode:?}");
            }
            // Unilateral detection tells no one and kills no one.
            ModeSpec::Unilateral => {
                assert_eq!(trace.crashed(), vec![], "{mode:?}");
                assert_eq!(trace.detections(), vec![(p(1), p(0))], "{mode:?}");
                assert_eq!(trace.stop_reason(), StopReason::Quiescent, "{mode:?}");
            }
            // A perfect detector takes no hints: nothing happens.
            ModeSpec::Oracle => {
                assert_eq!(trace.crashed(), vec![], "{mode:?}");
                assert!(trace.detections().is_empty(), "{mode:?}");
                assert_eq!(trace.stop_reason(), StopReason::MaxTime, "{mode:?}");
            }
        }
    }
}

#[test]
fn t_equals_n_is_gracefully_infeasible_for_the_quorum_protocol() {
    // With t = n, no quorum policy can promise progress: FixedMinimum has
    // no guaranteed survivors, and WaitForAll needs one process outside
    // the failure set. The clean behavior is a QuorumError from
    // validation — never a panic or a hang.
    for policy in [QuorumPolicy::FixedMinimum, QuorumPolicy::WaitForAll] {
        let config = SfsConfig::new(3, 3).quorum(policy);
        assert!(
            SfsProcess::new(config, NullApp).is_err(),
            "t = n accepted under {policy:?}"
        );
    }
    // And the error is total: even n = 1, t = 1.
    assert!(SfsProcess::new(SfsConfig::new(1, 1), NullApp).is_err());
}

#[test]
fn t_equals_n_runs_cleanly_under_non_quorum_modes() {
    // The comparator detectors don't gather votes, so t = n is runnable
    // there; they must terminate cleanly with their usual semantics.
    for mode in [
        ModeSpec::Unilateral,
        ModeSpec::CheapBroadcast,
        ModeSpec::Oracle,
    ] {
        let trace = ClusterSpec::new(3, 3)
            .mode(mode)
            .max_time(5_000)
            .suspect(p(1), p(0), 10)
            .crash(p(2), 50)
            .try_run()
            .expect("feasible spec");
        assert!(
            trace.stop_reason() == StopReason::Quiescent
                || trace.stop_reason() == StopReason::MaxTime,
            "{mode:?}: {:?}",
            trace.stop_reason()
        );
        assert!(trace.crashed().contains(&p(2)), "{mode:?}");
        if mode == ModeSpec::Oracle {
            // The oracle detects the real crash (and only it), FS2-clean.
            let h = History::from_trace(&trace);
            assert!(properties::check_fs2(&h).is_ok(), "{mode:?}");
            assert!(
                trace.detections().iter().all(|&(_, of)| of == p(2)),
                "{mode:?}"
            );
        }
    }
}

#[test]
fn self_suspicion_injection_is_ignored() {
    // The environment tells p0 to suspect itself; sFS2c demands nothing
    // come of it.
    let trace = ClusterSpec::new(3, 1)
        .suspect(p(0), p(0), 10)
        .try_run()
        .expect("feasible spec");
    assert!(trace.detections().is_empty());
    assert!(trace.crashed().is_empty());
    let h = History::from_trace(&trace);
    assert!(properties::check_sfs2c(&h).is_ok());
}

#[test]
fn suspicion_of_already_detected_process_is_idempotent() {
    let trace = ClusterSpec::new(5, 2)
        .seed(1)
        .suspect(p(1), p(0), 10)
        .suspect(p(2), p(0), 200) // long after the first round finished
        .try_run()
        .expect("feasible spec");
    // Exactly one detection per survivor, one crash.
    assert_eq!(trace.crashed(), vec![p(0)]);
    let mut seen = std::collections::BTreeSet::new();
    for (by, of) in trace.detections() {
        assert_eq!(of, p(0));
        assert!(seen.insert(by), "duplicate detection by {by}");
    }
}

#[test]
fn suspicion_of_a_crashed_process_still_completes() {
    // p0 crashes for real; later p1 suspects it (e.g. a slow timeout).
    // The round completes normally — a crashed process cannot vote but
    // the survivors suffice.
    let trace = ClusterSpec::new(5, 2)
        .seed(2)
        .crash(p(0), 10)
        .suspect(p(1), p(0), 50)
        .try_run()
        .expect("feasible spec");
    let detectors: std::collections::BTreeSet<_> =
        trace.detections().into_iter().map(|(by, _)| by).collect();
    assert_eq!(detectors.len(), 4, "{}", trace.to_pretty_string());
    let h = History::from_trace(&trace);
    assert!(
        properties::check_fs2(&h).is_ok(),
        "true crash: even FS2 holds"
    );
}

#[test]
fn simultaneous_suspicions_of_the_same_victim_merge() {
    let trace = ClusterSpec::new(5, 2)
        .seed(9)
        .suspect(p(1), p(0), 10)
        .suspect(p(2), p(0), 10)
        .suspect(p(3), p(0), 10)
        .try_run()
        .expect("feasible spec");
    assert_eq!(trace.crashed(), vec![p(0)]);
    let h = History::from_trace(&trace);
    for report in properties::check_sfs_suite(&h, true) {
        assert!(report.is_ok(), "{report}");
    }
}

#[test]
fn event_budget_stops_runaway_runs() {
    // A pathological latency of 1 with heartbeats generates events
    // forever; the budget must stop the run.
    let mut spec = ClusterSpec::new(3, 1).heartbeat(HeartbeatConfig {
        interval: 2,
        timeout: 1_000,
        check_every: 2,
    });
    spec.max_events = 500;
    let trace = spec.try_run().expect("feasible spec");
    assert_eq!(trace.stop_reason(), StopReason::MaxEvents);
    assert!(trace.events().len() <= 500);
}

#[test]
fn all_but_one_crash_under_wait_for_all() {
    // Wait-for-all tolerates t = n - 1: kill everyone except p3.
    let trace = ClusterSpec::new(4, 3)
        .quorum(QuorumPolicy::WaitForAll)
        .seed(5)
        .suspect(p(3), p(0), 10)
        .suspect(p(3), p(1), 120)
        .suspect(p(3), p(2), 240)
        .try_run()
        .expect("feasible spec");
    assert_eq!(trace.crashed().len(), 3, "{}", trace.to_pretty_string());
    let survivor_detections: Vec<_> = trace
        .detections()
        .into_iter()
        .filter(|&(by, _)| by == p(3))
        .collect();
    assert_eq!(
        survivor_detections.len(),
        3,
        "the survivor detected everyone"
    );
    let h = History::from_trace(&trace);
    for report in properties::check_sfs_suite(&h, true) {
        assert!(report.is_ok(), "{report}");
    }
}
