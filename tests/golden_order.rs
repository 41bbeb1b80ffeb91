//! Golden event order: three fixed simulator runs whose full traces are
//! hashed and compared against committed values.
//!
//! The simulator's contract is that a run is a pure function of its spec
//! and seed, with events executing in `(virtual time, creation order)`
//! order. Every sim-backed table in EXPERIMENTS.md rests on that order, so
//! a change to the event queue, the emit path or the sinks must leave
//! these three hashes alone. The hash is a hand-rolled FNV-1a over
//! `Trace::to_pretty_string()` (every event's `seq`, `time`, kind and ids,
//! plus the stop reason and end time) followed by the `SimStats` fields,
//! so the values do not depend on the toolchain's `Hasher`.
//!
//! The three constants were computed on the `BinaryHeap` event queue
//! (before the calendar queue replaced it) and have not been touched
//! since.

use failstop::apps::scenarios::NetScenario;
use failstop::prelude::*;
use failstop::service::LoadGenApp;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn trace_hash(trace: &Trace) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    fnv1a(&mut hash, trace.to_pretty_string().as_bytes());
    let s = trace.stats();
    for field in [
        s.messages_sent,
        s.messages_delivered,
        s.messages_to_crashed,
        s.messages_dropped,
        s.messages_duplicated,
        s.timers_fired,
        s.crashes,
        s.detections,
        s.delivery_batches,
        s.wire_bytes,
    ] {
        fnv1a(&mut hash, &field.to_le_bytes());
    }
    hash
}

fn fast_heartbeats() -> HeartbeatConfig {
    HeartbeatConfig {
        interval: 10,
        timeout: 60,
        check_every: 15,
    }
}

#[test]
fn heartbeat_run_with_two_crashes_keeps_its_order() {
    let trace = ClusterSpec::new(12, 2)
        .heartbeat(fast_heartbeats())
        .seed(7)
        .crash(ProcessId::new(11), 40)
        .crash(ProcessId::new(3), 95)
        .max_time(600)
        .try_run()
        .expect("12 > 2²");
    assert_eq!(trace.crashed().len(), 2);
    assert_eq!(trace_hash(&trace), HEARTBEAT_RUN);
}

#[test]
fn lossy_transport_run_keeps_its_order() {
    let trace = NetScenario::Loss(0.10)
        .spec(9, 2, 5)
        .max_time(2_000)
        .try_run_net(|_| NullApp)
        .expect("9 > 2²");
    assert!(trace.stats().messages_dropped > 0, "the link was lossy");
    assert!(trace.stats().timers_fired > 0, "probes and ARQ timers ran");
    assert_eq!(trace_hash(&trace), LOSSY_NET_RUN);
}

#[test]
fn e11_shaped_shard_run_keeps_its_order() {
    let trace = ClusterSpec::new(16, 2)
        .heartbeat(fast_heartbeats())
        .seed(11)
        .crash(ProcessId::new(0), 40)
        .crash(ProcessId::new(1), 55)
        .max_time(600)
        .run(Backend::Sim, Instruments::default(), |_| {
            LoadGenApp::new(LoadProfile::closed(64, 8))
        })
        .expect("16 > 2²")
        .into_trace();
    assert_eq!(trace.crashed().len(), 2);
    assert_eq!(trace_hash(&trace), E11_SHARD_RUN);
}

const HEARTBEAT_RUN: u64 = 0x1cef_a577_e8a1_3781;
const LOSSY_NET_RUN: u64 = 0xb3a6_6b3f_9164_5270;
const E11_SHARD_RUN: u64 = 0x7ec8_1e98_3a5a_1a76;
