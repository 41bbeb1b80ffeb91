//! The same protocol code on real OS threads: a live sFS cluster on the
//! threaded runtime's worker pool (one worker thread per core, each
//! running its share of the processes, one engine host per process),
//! with a scripted crash and heartbeat timeouts detecting it — all in
//! *virtual* time. The coordinator runs the hosts in rounds and advances
//! the virtual clock at compute speed, so this run takes milliseconds of
//! wall time while covering a 600-tick horizon, and it is the same run —
//! the crash at exactly tick 200 included — on every execution.
//!
//! Run with: `cargo run --example threaded`

use failstop::prelude::*;
use sfs::{DetectionMode, SfsConfig};
use sfs_asys::net::{Runtime, RuntimeConfig};
use sfs_asys::{FaultPlan, VirtualTime};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let n = 4;
    let t = 1;
    println!("spawning {n} sFS processes on the worker pool (t = {t})...");
    // Mark protocol traffic as infrastructure so the trace projects onto
    // the paper's model alphabet (see DESIGN.md §8.2). The crash is a
    // wheel entry: it fires at virtual tick 200, before any message due
    // at that instant, and the horizon bounds the self-rearming
    // heartbeats that would otherwise run forever.
    let config = RuntimeConfig {
        classify: Some(Arc::new(|m: &SfsMsg<()>| !m.is_app())),
        faults: FaultPlan::new().crash_at(ProcessId::new(2), VirtualTime::from_ticks(200)),
        max_time: VirtualTime::from_ticks(600),
        ..RuntimeConfig::default()
    };
    let rt = Runtime::spawn(n, config, |pid| {
        // Heartbeats in virtual ticks: beat every 30, suspect after 150
        // of silence — plenty of room to detect the tick-200 crash
        // before the tick-600 horizon.
        let config = SfsConfig::new(n, t)
            .mode(DetectionMode::SfsOneRound)
            .heartbeat(Some(HeartbeatConfig {
                interval: 30,
                timeout: 150,
                check_every: 40,
            }));
        let process = SfsProcess::new(config, NullApp).expect("feasible configuration");
        let _ = pid;
        Box::new(process)
    });

    // Heartbeating systems never quiesce, so `drain` returns false as
    // soon as the run stalls at its 600-tick horizon — which is exactly
    // the maximal bounded run we want.
    let quiescent = rt.drain(Duration::from_secs(30));
    assert!(!quiescent, "self-rearming heartbeats stall at the horizon");
    let trace = rt.shutdown();

    println!("\ntrace summary:");
    println!(
        "  messages sent/delivered: {}/{}",
        trace.stats().messages_sent,
        trace.stats().messages_delivered
    );
    println!("  crashed:    {:?}", trace.crashed());
    println!("  detections: {:?}", trace.detections());

    // The recorded trace obeys the same formal properties as simulated
    // runs — check the safety suite (liveness is judged vacuous because a
    // horizon-bounded run is a truncated prefix).
    let run = History::from_trace(&trace);
    for report in [
        properties::check_fs2(&run),
        properties::check_sfs2b(&run),
        properties::check_sfs2c(&run),
        properties::check_sfs2d(&run),
    ] {
        println!("  {report}");
    }

    let detectors: std::collections::BTreeSet<_> =
        trace.detections().iter().map(|&(by, _)| by).collect();
    assert_eq!(detectors.len(), n - 1, "every survivor detected the crash");
    println!(
        "\nall {} survivors detected the crash through the one-round protocol",
        n - 1
    );
}
