//! Group membership views on the fail-stop abstraction (§6: "failure
//! detection such as described here is typically done as part of a group
//! membership service").
//!
//! Run with: `cargo run --example membership`

use failstop::apps::membership::{check_convergence, view_log, MembershipApp};
use failstop::prelude::*;

fn main() {
    // Six processes; two failures (one real crash via injection-style
    // suspicion, one erroneous suspicion — indistinguishable to members).
    let trace = ClusterSpec::new(6, 2)
        .seed(9)
        .suspect(ProcessId::new(1), ProcessId::new(0), 10)
        .suspect(ProcessId::new(2), ProcessId::new(5), 60)
        .try_run_apps(|_| MembershipApp::new())
        .expect("feasible spec");

    println!("view installations per process:");
    for (pid, views) in view_log(&trace) {
        println!("  {pid}: {}", views.join(" -> "));
    }
    match check_convergence(&trace) {
        Ok(()) => println!("\nall surviving members converged on the same final view"),
        Err((a, b)) => println!("\nDIVERGENCE between {a} and {b}!"),
    }
    println!("crashed: {:?}", trace.crashed());
}
