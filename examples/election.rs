//! Leader election (§1 of the paper) under three failure models.
//!
//! The same election code runs on (a) a perfect oracle detector, (b) the
//! simulated-fail-stop protocol, and (c) naive unilateral timeouts. The
//! scenario: the current leader p0 is *falsely* suspected by p1.
//!
//! * Oracle: nothing happens (a perfect detector is never wrong).
//! * sFS: leadership moves to p1 and p0 is killed by its own obituary;
//!   there may be a brief global two-leader window, but NO process ever
//!   observes evidence inconsistent with fail-stop.
//! * Unilateral: p0 survives while p1 also claims leadership — and p1
//!   receives a rebuke from a process it "knows" to be dead, an
//!   observation no fail-stop run can produce.
//!
//! Run with: `cargo run --example election`

use failstop::apps::election::{analyze_election, ElectionApp};
use failstop::prelude::*;

fn run_one(label: &str, mode: ModeSpec, seed: u64) {
    let trace = ClusterSpec::new(5, 2)
        .mode(mode)
        .seed(seed)
        .suspect(ProcessId::new(1), ProcessId::new(0), 10)
        .try_run_apps(|_| ElectionApp::new())
        .expect("feasible spec");
    let outcome = analyze_election(&trace);
    println!("== {label} ==");
    println!(
        "  claims (in order):        {:?}",
        outcome.claims.iter().map(|&(_, c)| c).collect::<Vec<_>>()
    );
    println!(
        "  max concurrent leaders:   {}",
        outcome.max_concurrent_leaders
    );
    println!(
        "  FS-impossible observations: {}",
        outcome.observed_anomalies
    );
    println!("  crashed:                  {:?}", trace.crashed());
    println!();
}

fn main() {
    println!("scenario: p1 falsely suspects the current leader p0\n");
    run_one(
        "perfect oracle (unimplementable, Theorem 1)",
        ModeSpec::Oracle,
        7,
    );
    run_one(
        "simulated fail-stop (the paper's protocol)",
        ModeSpec::SfsOneRound,
        7,
    );
    run_one(
        "unilateral timeouts (what goes wrong)",
        ModeSpec::Unilateral,
        7,
    );

    println!("sweep over 100 seeds:");
    let mut sfs_anomalies = 0usize;
    let mut uni_anomalies = 0usize;
    let mut sfs_two_leader_windows = 0usize;
    for seed in 0..100 {
        let sfs = analyze_election(
            &ClusterSpec::new(5, 2)
                .seed(seed)
                .suspect(ProcessId::new(1), ProcessId::new(0), 10)
                .try_run_apps(|_| ElectionApp::new())
                .expect("feasible spec"),
        );
        sfs_anomalies += sfs.observed_anomalies;
        sfs_two_leader_windows += usize::from(sfs.max_concurrent_leaders >= 2);
        let uni = analyze_election(
            &ClusterSpec::new(5, 2)
                .mode(ModeSpec::Unilateral)
                .seed(seed)
                .suspect(ProcessId::new(1), ProcessId::new(0), 10)
                .try_run_apps(|_| ElectionApp::new())
                .expect("feasible spec"),
        );
        uni_anomalies += uni.observed_anomalies;
    }
    println!("  sFS:        {sfs_anomalies:>3} observable anomalies; {sfs_two_leader_windows} runs had an (invisible) global two-leader window");
    println!("  unilateral: {uni_anomalies:>3} observable anomalies");
    assert_eq!(
        sfs_anomalies, 0,
        "sFS must never leak an FS-impossible observation"
    );
}
