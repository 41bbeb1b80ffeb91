//! Behavioral tests of the work-pool app on both backends: tasks are
//! never lost — under worker failure, coordinator failover, and real
//! concurrency — because reassignment only relies on sFS2a ("a detected
//! worker is really dead"), which holds on either runtime.

use sfs::{Backend, ClusterSpec, Instruments};
use sfs_apps::workpool::{analyze_workpool, WorkPoolApp};
use sfs_asys::ProcessId;

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

#[test]
fn sim_worker_and_coordinator_failures_lose_nothing() {
    for seed in 0..10 {
        // Kill a worker and the coordinator in the same run.
        let trace = ClusterSpec::new(6, 2)
            .seed(seed)
            .suspect(p(2), p(0), 25) // coordinator
            .suspect(p(3), p(4), 40) // worker
            .run(Backend::Sim, Instruments::default(), |_| {
                WorkPoolApp::new(12)
            })
            .expect("feasible spec")
            .into_trace();
        let outcome = analyze_workpool(&trace);
        assert_eq!(
            outcome.tasks_executed.len(),
            12,
            "seed {seed}: lost tasks\n{}",
            trace.to_pretty_string()
        );
        assert!(
            outcome.total_executions >= 12,
            "seed {seed}: at-least-once violated"
        );
    }
}

#[test]
fn threaded_pool_completes_all_tasks() {
    let trace = ClusterSpec::new(4, 1)
        .run(Backend::Threaded, Instruments::default(), |_| {
            WorkPoolApp::new(10)
        })
        .expect("feasible spec")
        .into_trace();
    let outcome = analyze_workpool(&trace);
    assert_eq!(
        outcome.tasks_executed.len(),
        10,
        "lost tasks on threads:\n{}",
        trace.to_pretty_string()
    );
    assert!(
        outcome.all_done_observed,
        "no coordinator observed completion:\n{}",
        trace.to_pretty_string()
    );
}

#[test]
fn threaded_worker_failure_reassigns_its_tasks() {
    let trace = ClusterSpec::new(5, 2)
        .suspect(p(0), p(3), 30)
        .run(Backend::Threaded, Instruments::default(), |_| {
            WorkPoolApp::new(10)
        })
        .expect("feasible spec")
        .into_trace();
    assert_eq!(trace.crashed(), vec![p(3)], "{}", trace.to_pretty_string());
    let outcome = analyze_workpool(&trace);
    assert_eq!(
        outcome.tasks_executed.len(),
        10,
        "worker failure lost tasks on threads:\n{}",
        trace.to_pretty_string()
    );
    assert!(outcome.all_done_observed);
}

#[test]
fn threaded_coordinator_failover_hands_over() {
    let trace = ClusterSpec::new(5, 2)
        .suspect(p(2), p(0), 30)
        .run(Backend::Threaded, Instruments::default(), |_| {
            WorkPoolApp::new(10)
        })
        .expect("feasible spec")
        .into_trace();
    assert_eq!(trace.crashed(), vec![p(0)], "{}", trace.to_pretty_string());
    let outcome = analyze_workpool(&trace);
    assert_eq!(
        outcome.tasks_executed.len(),
        10,
        "failover lost tasks on threads:\n{}",
        trace.to_pretty_string()
    );
    assert!(
        outcome.all_done_observed,
        "the successor coordinator never observed completion:\n{}",
        trace.to_pretty_string()
    );
}
