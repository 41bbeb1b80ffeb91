//! Behavioral tests of the election app (§1 of the paper) on **both**
//! execution backends: the deterministic simulator and the threaded
//! runtime. Same protocol code, same application automaton; only the
//! scheduler differs — which is exactly what the paper's Theorem 5
//! says no process may be able to observe.

use sfs::{ClusterSpec, ModeSpec};
use sfs_apps::election::{analyze_election, ElectionApp};
use sfs_asys::ProcessId;
use std::time::Duration;

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// A 5-process cluster where p1 falsely suspects the initial leader p0.
fn spec(mode: ModeSpec, seed: u64) -> ClusterSpec {
    ClusterSpec::new(5, 2)
        .mode(mode)
        .seed(seed)
        .suspect(p(1), p(0), 10)
}

#[test]
fn sim_leadership_transfers_without_fs_impossible_observations() {
    for seed in 0..10 {
        let trace = spec(ModeSpec::SfsOneRound, seed)
            .try_run_apps(|_| ElectionApp::new())
            .expect("feasible spec");
        let outcome = analyze_election(&trace);
        assert_eq!(
            outcome.observed_anomalies, 0,
            "seed {seed}: FS-impossible observation under sFS"
        );
        assert_eq!(outcome.claims.first().map(|&(_, c)| c), Some(p(0)));
        assert!(
            outcome.claims.iter().any(|&(_, c)| c == p(1)),
            "seed {seed}: leadership never transferred to p1"
        );
    }
}

#[test]
fn threaded_leadership_transfers_without_fs_impossible_observations() {
    // Real concurrency: the wrongly-suspected leader must still be killed
    // by its own obituary, leadership must still transfer, and no process
    // may observe anything a fail-stop run could not produce.
    let trace = spec(ModeSpec::SfsOneRound, 3)
        .try_run_threaded(|_| ElectionApp::new(), Duration::from_millis(400))
        .expect("feasible spec")
        .0;
    assert_eq!(
        trace.crashed(),
        vec![p(0)],
        "own obituary must kill the false-suspected leader:\n{}",
        trace.to_pretty_string()
    );
    let outcome = analyze_election(&trace);
    assert_eq!(
        outcome.observed_anomalies,
        0,
        "FS-impossible observation on threads:\n{}",
        trace.to_pretty_string()
    );
    assert_eq!(outcome.claims.first().map(|&(_, c)| c), Some(p(0)));
    assert!(
        outcome.claims.iter().any(|&(_, c)| c == p(1)),
        "leadership never transferred:\n{}",
        trace.to_pretty_string()
    );
}

#[test]
fn threaded_unilateral_detection_leaks_split_brain_evidence() {
    // The negative control on real threads: unilateral detection never
    // kills p0, so p1's false detection makes two live self-believed
    // leaders, and p0's rebuke is an observation no fail-stop run admits.
    let mut anomaly_seen = false;
    for seed in 0..5 {
        let trace = spec(ModeSpec::Unilateral, seed)
            .try_run_threaded(|_| ElectionApp::new(), Duration::from_millis(300))
            .expect("feasible spec")
            .0;
        assert!(trace.crashed().is_empty(), "unilateral mode kills no one");
        if analyze_election(&trace).observed_anomalies > 0 {
            anomaly_seen = true;
            break;
        }
    }
    assert!(
        anomaly_seen,
        "unilateral detection never leaked an FS-impossible observation on threads"
    );
}
