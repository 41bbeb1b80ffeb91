//! Behavioral tests of the membership view service (§6) on both
//! backends: survivors' view sequences must converge under the
//! simulator's schedules and under real-thread schedules alike, because
//! convergence only relies on FS1 + sFS2a — properties the detector
//! provides identically on either runtime.

use sfs::ClusterSpec;
use sfs_apps::membership::{check_convergence, view_log, MembershipApp};
use sfs_asys::ProcessId;
use std::time::Duration;

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

#[test]
fn sim_views_converge_across_seeds_and_orders() {
    for seed in 0..10 {
        let trace = ClusterSpec::new(6, 2)
            .seed(seed)
            .suspect(p(1), p(0), 10)
            .suspect(p(2), p(5), 12)
            .try_run_apps(|_| MembershipApp::new())
            .expect("feasible spec");
        check_convergence(&trace)
            .unwrap_or_else(|(a, b)| panic!("seed {seed}: views of {a} and {b} diverged"));
        // Survivors end on the 4-member view.
        for (pid, views) in view_log(&trace) {
            if trace.crashed().contains(&pid) {
                continue;
            }
            let last = views.last().cloned().unwrap_or_default();
            assert!(
                !last.contains("p0") && !last.contains("p5"),
                "seed {seed}: {pid} final view still lists a victim: {last}"
            );
        }
    }
}

#[test]
fn threaded_views_converge() {
    let trace = ClusterSpec::new(5, 2)
        .suspect(p(3), p(4), 10)
        .try_run_threaded(|_| MembershipApp::new(), Duration::from_millis(400))
        .expect("feasible spec")
        .0;
    assert_eq!(trace.crashed(), vec![p(4)], "{}", trace.to_pretty_string());
    check_convergence(&trace).unwrap_or_else(|(a, b)| {
        panic!(
            "threaded views of {a} and {b} diverged:\n{}",
            trace.to_pretty_string()
        )
    });
    // Every survivor installed the full view, then the shrunk view.
    for (pid, views) in view_log(&trace) {
        if pid == p(4) {
            continue;
        }
        assert_eq!(views.len(), 2, "{pid}: {views:?}");
        assert!(views[0].contains("p4"));
        assert!(!views[1].contains("p4"), "{pid}: {views:?}");
    }
}

#[test]
fn threaded_two_failures_still_converge() {
    let trace = ClusterSpec::new(6, 2)
        .suspect(p(1), p(0), 10)
        .suspect(p(2), p(5), 25)
        .try_run_threaded(|_| MembershipApp::new(), Duration::from_millis(500))
        .expect("feasible spec")
        .0;
    let crashed = trace.crashed();
    assert!(
        crashed.contains(&p(0)) && crashed.contains(&p(5)),
        "{}",
        trace.to_pretty_string()
    );
    check_convergence(&trace).unwrap_or_else(|(a, b)| {
        panic!(
            "threaded views of {a} and {b} diverged:\n{}",
            trace.to_pretty_string()
        )
    });
}
