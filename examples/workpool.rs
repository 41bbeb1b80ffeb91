//! Fault-tolerant work distribution: the coordinator and a worker are
//! killed mid-stream; every task still completes, because under
//! simulated fail-stop "detected" really means "dead" and reassignment
//! is safe.
//!
//! Run with: `cargo run --example workpool`

use failstop::apps::workpool::{analyze_workpool, WorkPoolApp};
use failstop::prelude::*;

fn main() {
    let tasks = 12;
    let trace = ClusterSpec::new(6, 2)
        .seed(7)
        .latency(1, 40)
        .suspect(ProcessId::new(2), ProcessId::new(0), 30) // kill the coordinator
        .suspect(ProcessId::new(3), ProcessId::new(1), 50) // then kill a worker
        .run(Backend::Sim, Instruments::default(), |_| {
            WorkPoolApp::new(tasks)
        })
        .expect("feasible spec")
        .into_trace();

    let outcome = analyze_workpool(&trace);
    println!("tasks:            {tasks}");
    println!("distinct executed: {}", outcome.tasks_executed.len());
    println!(
        "total executions:  {} (duplicates = at-least-once reassignment)",
        outcome.total_executions
    );
    println!("completion seen:   {}", outcome.all_done_observed);
    println!("crashed:           {:?}", trace.crashed());
    assert_eq!(
        outcome.tasks_executed.len(),
        tasks as usize,
        "no task may be lost"
    );
}
