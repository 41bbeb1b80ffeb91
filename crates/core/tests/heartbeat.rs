//! Integration tests of the FS1 mechanism: heartbeat timeouts generating
//! both true and *organic* false suspicions (no injection — asynchrony
//! itself produces them), and the protocol absorbing both.

use sfs::{ClusterSpec, HeartbeatConfig, ModeSpec};
use sfs_asys::{FnLatency, ProcessId, TraceEventKind, VirtualTime};
use sfs_history::History;
use sfs_tlogic::{properties, Verdict};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

#[test]
fn real_crash_detected_within_timeout_plus_round() {
    let hb = HeartbeatConfig {
        interval: 10,
        timeout: 60,
        check_every: 10,
    };
    for seed in 0..10 {
        let trace = ClusterSpec::new(5, 2)
            .heartbeat(hb)
            .seed(seed)
            .crash(p(3), 100)
            .max_time(2_000)
            .try_run()
            .expect("feasible spec");
        let detect_times: Vec<u64> = trace
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::Failed { of, .. } if of == p(3) => Some(e.time.ticks()),
                _ => None,
            })
            .collect();
        assert_eq!(detect_times.len(), 4, "seed {seed}: all survivors detect");
        let last = *detect_times.iter().max().expect("nonempty");
        // Crash at 100; last heartbeat landed by ~110; timeout fires by
        // ~180; one protocol round (≤ ~3 hops × 10 ticks) on top. Anything
        // far beyond that indicates a liveness bug.
        assert!(last < 400, "seed {seed}: detection finished only at {last}");
    }
}

#[test]
fn latency_spike_causes_organic_false_detection_and_sfs_absorbs_it() {
    // A latency model that delays ALL of p0's outgoing messages hugely in
    // a window — long enough to outlast the heartbeat timeout. Everyone
    // else is fast. p0 gets organically (and wrongly) suspected.
    let hb = HeartbeatConfig {
        interval: 10,
        timeout: 50,
        check_every: 10,
    };
    let spike = FnLatency(
        |from: ProcessId, _to: ProcessId, now: VirtualTime, _rng: &mut _| {
            if from == ProcessId::new(0) && now.ticks() < 300 {
                500 // messages crawl
            } else {
                2
            }
        },
    );
    let trace = ClusterSpec::new(5, 2)
        .heartbeat(hb)
        .seed(4)
        .max_time(3_000)
        .try_build_with_latency(spike, |_| sfs::NullApp)
        .expect("feasible spec")
        .run();
    // p0 was falsely suspected and therefore killed (sFS2a): the wrong
    // timeout became a true crash.
    assert!(
        trace.crashed().contains(&p(0)),
        "expected the slow process to be killed:\n{}",
        trace.to_pretty_string()
    );
    let h = History::from_trace(&trace);
    assert_eq!(properties::check_sfs2b(&h).verdict, Verdict::Holds);
    assert_eq!(properties::check_sfs2c(&h).verdict, Verdict::Holds);
    // Detections of p0 exist even though p0 never "really" failed.
    assert!(trace.detections().iter().any(|&(_, of)| of == p(0)));
}

#[test]
fn oracle_detector_never_produces_false_detections_under_the_same_spike() {
    let hb = HeartbeatConfig {
        interval: 10,
        timeout: 50,
        check_every: 10,
    };
    let spike = FnLatency(
        |from: ProcessId, _to: ProcessId, now: VirtualTime, _rng: &mut _| {
            if from == ProcessId::new(0) && now.ticks() < 300 {
                500
            } else {
                2
            }
        },
    );
    let trace = ClusterSpec::new(5, 2)
        .mode(ModeSpec::Oracle)
        .heartbeat(hb)
        .seed(4)
        .max_time(3_000)
        .try_build_with_latency(spike, |_| sfs::NullApp)
        .expect("feasible spec")
        .run();
    assert!(
        trace.crashed().is_empty(),
        "oracle must not kill a slow process"
    );
    assert!(trace.detections().is_empty());
}

#[test]
fn heartbeat_systems_with_no_failures_stay_silent() {
    let hb = HeartbeatConfig {
        interval: 10,
        timeout: 100,
        check_every: 20,
    };
    for seed in 0..5 {
        let trace = ClusterSpec::new(4, 1)
            .heartbeat(hb)
            .seed(seed)
            .latency(1, 8) // comfortably under the timeout
            .max_time(2_000)
            .try_run()
            .expect("feasible spec");
        assert!(
            trace.detections().is_empty(),
            "seed {seed}: spurious detection"
        );
        assert!(trace.crashed().is_empty());
    }
}

#[test]
fn two_staggered_crashes_are_both_detected_by_all_survivors() {
    let hb = HeartbeatConfig {
        interval: 10,
        timeout: 60,
        check_every: 10,
    };
    for seed in 0..5 {
        let trace = ClusterSpec::new(6, 2)
            .heartbeat(hb)
            .seed(seed)
            .crash(p(1), 100)
            .crash(p(4), 400)
            .max_time(3_000)
            .try_run()
            .expect("feasible spec");
        let h = History::from_trace(&trace);
        // The run is truncated (heartbeats never stop), so FS1 may be
        // vacuous, but with this horizon it should be outright satisfied.
        assert_eq!(
            properties::check_fs1(&h, false).verdict,
            Verdict::Holds,
            "seed {seed}\n{}",
            trace.to_pretty_string()
        );
        assert_eq!(
            properties::check_fs2(&h).verdict,
            Verdict::Holds,
            "true crashes only"
        );
    }
}
