//! Determining the last process to fail (§6, [Ske85]) — a protocol that
//! is *sensitive* to the acyclicity of failure detection (sFS2b).
//!
//! After a total failure, recovery intersects the stable-storage logs of
//! the crashed processes to find the "last to fail" candidates. With
//! acyclic detection the sinks of the logged failed-before relation are
//! exactly those candidates; with cyclic detection there is no consistent
//! answer (or worse, a confidently wrong one — the paper's two-process
//! example).
//!
//! Run with: `cargo run --example last_to_fail`

use failstop::apps::last_to_fail::{recover_last_to_fail, true_last_to_fail, Recovery};
use failstop::prelude::*;

fn staggered_total_failure(mode: ModeSpec, n: usize, t: usize, seed: u64) -> Trace {
    let mut spec = ClusterSpec::new(n, t)
        .mode(mode)
        .heartbeat(HeartbeatConfig {
            interval: 10,
            timeout: 50,
            check_every: 10,
        })
        .seed(seed)
        .max_time(5_000);
    for i in 0..n {
        spec = spec.crash(ProcessId::new(i), 300 + 300 * i as u64);
    }
    spec.try_run().expect("feasible spec")
}

fn main() {
    // --- healthy case: staggered total failure under sFS -----------------
    let trace = staggered_total_failure(ModeSpec::SfsOneRound, 5, 2, 3);
    let truth = true_last_to_fail(&trace).expect("total failure");
    println!("staggered total failure of 5 processes under sFS:");
    println!("  crash order (global truth): {:?}", trace.crashed());
    match recover_last_to_fail(&trace) {
        Recovery::Candidates(c) => {
            println!("  recovery candidates:        {c:?} (truth: {truth})");
        }
        Recovery::Inconsistent(cycle) => unreachable!("sFS logs cannot cycle: {cycle:?}"),
    }

    // --- the paper's two-process story, forced via cheap detection -------
    // p0 falsely detects p1 and crashes; p1 detects p0, works on, crashes
    // last. Under a detector without sFS2b both logs blame each other.
    println!("\nthe paper's §6 story (cyclic detection):");
    let trace = ClusterSpec::new(2, 1)
        .mode(ModeSpec::CheapBroadcast)
        .without_self_crash() // the cheap model lets victims outlive obituaries
        .suspect(ProcessId::new(0), ProcessId::new(1), 10)
        .suspect(ProcessId::new(1), ProcessId::new(0), 10)
        .crash(ProcessId::new(0), 100)
        .crash(ProcessId::new(1), 200)
        .try_run()
        .expect("feasible spec");
    println!("  crash order (global truth): {:?}", trace.crashed());
    match recover_last_to_fail(&trace) {
        Recovery::Candidates(c) => println!("  recovery candidates: {c:?}"),
        Recovery::Inconsistent(cycle) => {
            println!(
                "  recovery IMPOSSIBLE: logged failed-before cycle {:?} — \
                 every process claims the other failed first",
                cycle
            );
        }
    }

    // --- unilateral detection: a confidently wrong answer ----------------
    println!("\nunilateral detection (a confidently wrong answer):");
    let trace = ClusterSpec::new(2, 1)
        .mode(ModeSpec::Unilateral)
        .suspect(ProcessId::new(0), ProcessId::new(1), 10)
        .crash(ProcessId::new(0), 100)
        .crash(ProcessId::new(1), 500)
        .try_run()
        .expect("feasible spec");
    let truth = true_last_to_fail(&trace).unwrap();
    match recover_last_to_fail(&trace) {
        Recovery::Candidates(c) => {
            println!("  true last to fail:   {truth}");
            println!("  recovery candidates: {c:?}");
            if !c.contains(&truth) {
                println!("  -> recovery EXCLUDED the true last process (p0's false log)");
            }
        }
        Recovery::Inconsistent(cycle) => println!("  cycle: {cycle:?}"),
    }
}
