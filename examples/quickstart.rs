//! Quickstart: an erroneous failure detection that no process can
//! distinguish from a real fail-stop crash.
//!
//! Run with: `cargo run --example quickstart`

use failstop::prelude::*;

fn main() {
    // A 5-process system configured to tolerate t = 2 failures. The
    // protocol validates the paper's Corollary 8 bound (n > t²) at
    // construction time.
    let n = 5;
    let t = 2;
    println!("simulated fail-stop: n = {n}, t = {t}");
    println!(
        "one-round quorum (Theorem 7): > n(t-1)/t  =>  {} votes\n",
        sfs::quorum::min_quorum(n, t)
    );

    // p1 spuriously suspects p0 at tick 10 — say, a timeout fired even
    // though p0 is perfectly healthy. In an asynchronous system this is
    // unavoidable (Theorem 1: perfect detection is impossible).
    let trace = ClusterSpec::new(n, t)
        .seed(29)
        .suspect(ProcessId::new(1), ProcessId::new(0), 10)
        .try_run()
        .expect("feasible spec");

    println!("--- trace ({} events) ---", trace.events().len());
    for event in trace.events() {
        println!("{event}");
    }

    // What happened: the obituary "p0 failed" was broadcast, a quorum
    // confirmed it, every survivor executed failed(p0) — and p0, upon
    // receiving its own obituary, crashed. The erroneous detection was
    // MADE true (sFS2a).
    println!("\ncrashed:    {:?}", trace.crashed());
    println!("detections: {:?}", trace.detections());

    // The run violates FS2 (p0 was detected before it crashed)...
    let run = History::from_trace(&trace);
    let fs2 = properties::check_fs2(&run);
    println!("\nFS2 on the raw run: {fs2}");

    // ...but every simulated-fail-stop property holds:
    for report in properties::check_sfs_suite(&run, trace.stop_reason().is_complete()) {
        println!("{report}");
    }

    // And by Theorem 5 there is a fail-stop run that every process finds
    // indistinguishable from this one — the rearrangement engine builds it.
    let report = rearrange_to_fs(&run).expect("sFS runs always rearrange");
    println!(
        "\nTheorem 5: rearranged {} bad pair(s) into an FS ordering; \
         isomorphic to the original for every process: {}",
        report.bad_pairs,
        report.history.isomorphic(&run),
    );
    assert!(report.history.is_fs_ordered());
}
