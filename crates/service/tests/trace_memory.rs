//! Recorded traces cost 48 bytes an event.
//!
//! Eight stored traces of the `certify_posthoc` benchmark shape — the
//! 17-process transport-backed detection run on a loss-free link,
//! carrying a closed loop of 256 client ops, cut at 2 000 ticks — held at
//! once in this one process, whose peak resident set (`VmHWM`) must then
//! stay under a ceiling. A trace event that carries 64-bit process ids, a
//! 16-byte message id and inline `String`s (88 bytes) peaks far above it.
//! Linux-only (it reads `/proc/self/status`), and the binary's only test,
//! so no other test shares the process's peak.

#![cfg(target_os = "linux")]

use sfs_apps::scenarios::NetScenario;
use sfs_asys::Trace;
use sfs_service::{LoadGenApp, LoadProfile};

/// The `VmHWM` ceiling in MB, for the 665 079 events of seeds 1–8.
/// Over ten executions of this test on a 2-core x86-64 Linux machine,
/// the process peaked at 34.5–34.6 MB (release) and 35.0–35.1 MB (debug)
/// with 48-byte events, and at 59.9–60.0 MB (release) and 60.3–60.4 MB
/// (debug) with 88-byte ones: the ceiling is over 1.3 times the first and
/// below 0.8 times the second.
const CEILING_MB: f64 = 47.0;

/// The process's peak resident set so far, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .expect("VmHWM in /proc/self/status")
}

/// One stored `certify_posthoc` input.
fn stored_trace(seed: u64) -> Trace {
    NetScenario::Loss(0.0)
        .spec(17, 4, seed)
        .max_time(2_000)
        .try_run_net(|_| LoadGenApp::new(LoadProfile::closed(256, 8)))
        .expect("the certify_posthoc shape is feasible")
}

#[test]
fn stored_traces_stay_under_the_memory_ceiling() {
    let traces: Vec<Trace> = (1..=8).map(stored_trace).collect();
    let events: usize = traces.iter().map(|t| t.events().len()).sum();
    assert_eq!(events, 665_079, "the held input changed size");
    let peak = peak_rss_mb();
    assert!(
        peak < CEILING_MB,
        "VmHWM {peak:.1} MB over the {CEILING_MB} MB ceiling for {events} events"
    );
}
