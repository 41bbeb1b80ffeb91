//! Threaded shard runs that keep no trace hold none in memory.
//!
//! Ten service runs of the `service_threaded` benchmark shape — E11's
//! spec at N = 128 on the threaded runtime, certified online, no traces
//! kept — in this one process, whose peak resident set (`VmHWM`) must
//! then stay under a ceiling. A runtime that records every event of a
//! shard run only for the service to drop the trace peaks far above it.
//! Linux-only (it reads `/proc/self/status`), and the binary's only test,
//! so no other test shares the process's peak.

#![cfg(target_os = "linux")]

use sfs::HeartbeatConfig;
use sfs_service::{plan_shards, run_service, Backend, LoadProfile, ServiceSpec};

/// The `VmHWM` ceiling in MB. Over ten executions of this test on a
/// 2-core x86-64 Linux machine, the process peaked at 5.2–5.5 MB
/// (release) and 6.8–7.0 MB (debug) when shard runs record nothing, and
/// at 29.9–36.1 MB (release) and 31.6–36.5 MB (debug) when every shard
/// run records its trace: the ceiling is over twice the first and below
/// the second.
const CEILING_MB: f64 = 20.0;

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

/// E11's cell at N = 128 on threads: 16-process shards tolerating 2,
/// shard 0 exhausted by two crashes, two epochs of a closed loop.
fn service_threaded(seed: u64) -> ServiceSpec {
    let n = 128;
    let plan = plan_shards(n, 2, 16, seed).expect("E11 shapes are feasible");
    let victims = &plan.shards[0].members;
    ServiceSpec::new(n, 2, 16)
        .seed(seed)
        .backend(Backend::Threaded)
        .heartbeat(Some(HeartbeatConfig {
            interval: 10,
            timeout: 60,
            check_every: 15,
        }))
        .max_time(600)
        .certify_online(true)
        .keep_traces(false)
        .load(LoadProfile::closed(4 * n as u64, 8))
        .crash(victims[0], 40)
        .crash(victims[1], 55)
}

#[test]
fn unrecorded_threaded_service_runs_stay_under_the_memory_ceiling() {
    for seed in 1..=10 {
        let spec = service_threaded(seed);
        let report = run_service(&spec).expect("feasible spec");
        assert_eq!(report.ops_completed(), 2 * spec.load.ops, "seed {seed}");
        for s in report.epochs.iter().flat_map(|e| &e.shards) {
            assert!(s.trace.is_none(), "seed {seed}: a trace was kept");
            let verdicts = s.verdicts.as_ref().expect("certified online");
            assert!(verdicts.all_ok(), "seed {seed}, shard {}", s.shard);
        }
    }
    let peak = peak_rss_mb();
    assert!(
        peak < CEILING_MB,
        "VmHWM {peak:.1} MB over the {CEILING_MB} MB ceiling"
    );
}
