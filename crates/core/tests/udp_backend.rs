//! End-to-end tests of the UDP backend: real OS processes, real
//! localhost datagrams, the full spawn/handshake/quiesce/assemble path.
//!
//! `CARGO_BIN_EXE_sfs-udp-node` guarantees the node binary is built and
//! points at it exactly; the tests pin it through `SFS_UDP_NODE_BIN` so
//! discovery never depends on the test harness's directory layout.

use sfs::{ClusterSpec, NetSpec, SpecError, UdpError};
use sfs_asys::{ProcessId, StopReason};
use sfs_history::History;
use sfs_tlogic::{properties, Verdict};
use std::time::Duration;

const NODE_BIN: &str = env!("CARGO_BIN_EXE_sfs-udp-node");

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

fn udp(spec: &ClusterSpec, settle: Duration) -> (sfs_asys::Trace, bool) {
    std::env::set_var(sfs::udp::ENV_NODE_BIN, NODE_BIN);
    let run = spec.try_run_udp(settle).expect("UDP run failed");
    (run.trace, run.quiesced)
}

#[test]
fn suspicion_detects_and_kills_over_real_sockets() {
    // The harness's flagship scenario, now across four OS processes:
    // p1's scripted suspicion must make the survivors detect p0 and the
    // protocol must kill p0 (sFS2a) — and the run must confirm
    // quiescence through the socket handshake.
    let spec = ClusterSpec::new(4, 1)
        .seed(11)
        .suspect(p(1), p(0), 10)
        .net(NetSpec::faultless());
    let (trace, quiesced) = udp(&spec, Duration::from_secs(20));
    assert!(quiesced, "{}", trace.to_pretty_string());
    assert_eq!(trace.stop_reason(), StopReason::Quiescent);
    assert_eq!(trace.crashed(), vec![p(0)], "{}", trace.to_pretty_string());
    assert!(trace.channels_drained(), "{}", trace.to_pretty_string());
    // Every datagram was charged to the sender's byte ledger.
    let stats = trace.stats();
    assert!(stats.wire_bytes > 0, "no bytes accounted: {stats:?}");
    assert!(stats.messages_sent > 0);
    // All three survivors detected p0.
    let detectors: std::collections::BTreeSet<_> = trace
        .detections()
        .into_iter()
        .map(|(by, of)| {
            assert_eq!(of, p(0));
            by
        })
        .collect();
    assert_eq!(detectors.len(), 3, "{}", trace.to_pretty_string());
    // The Lamport-merged trace is causally well-formed: the failed-before
    // order it induces is acyclic (sFS2b), the order-sensitive property
    // the conformance oracle leans on.
    let h = History::from_trace(&trace);
    assert_eq!(properties::check_sfs2b(&h).verdict, Verdict::Holds);
}

#[test]
fn arq_recovers_shim_loss_on_the_wire() {
    // 5% deterministic wire loss plus duplication: the ARQ layer must
    // still deliver the obituary round, and the ledger must balance
    // (copies the link withheld are accounted, not lost).
    let spec = ClusterSpec::new(3, 1)
        .seed(23)
        .suspect(p(2), p(0), 5)
        .net(NetSpec::faultless().loss(0.05).duplicate(0.03));
    let (trace, quiesced) = udp(&spec, Duration::from_secs(20));
    assert!(quiesced, "{}", trace.to_pretty_string());
    assert_eq!(trace.crashed(), vec![p(0)], "{}", trace.to_pretty_string());
    assert!(trace.channels_drained(), "{}", trace.to_pretty_string());
}

#[test]
fn unsupported_shapes_are_rejected_before_spawning() {
    std::env::set_var(sfs::udp::ENV_NODE_BIN, NODE_BIN);
    let oracle = ClusterSpec::new(3, 1)
        .mode(sfs::ModeSpec::Oracle)
        .try_run_udp(Duration::from_millis(10))
        .unwrap_err();
    assert_eq!(oracle, SpecError::Udp(UdpError::OracleUnsupported));

    let partitioned = ClusterSpec::new(3, 1)
        .net(
            NetSpec::faultless().partitions(sfs_asys::PartitionSchedule::new().cut_links(
                sfs_asys::VirtualTime::from_ticks(1),
                sfs_asys::VirtualTime::from_ticks(10),
                &[(p(0), p(1))],
            )),
        )
        .try_run_udp(Duration::from_millis(10))
        .unwrap_err();
    assert_eq!(
        partitioned,
        SpecError::Udp(UdpError::Unsupported("partition schedules"))
    );

    let stormy = ClusterSpec::new(3, 1)
        .net(
            NetSpec::faultless().storms(sfs_asys::StormSchedule::new().surge_links(
                sfs_asys::VirtualTime::from_ticks(1),
                sfs_asys::VirtualTime::from_ticks(10),
                &[(p(0), p(1))],
                5,
            )),
        )
        .try_run_udp(Duration::from_millis(10))
        .unwrap_err();
    assert_eq!(
        stormy,
        SpecError::Udp(UdpError::Unsupported("storm schedules"))
    );

    // Node ids travel as 16 bits.
    let oversized = ClusterSpec::new(usize::from(u16::MAX) + 1, 1)
        .try_run_udp(Duration::from_millis(10))
        .unwrap_err();
    assert_eq!(
        oversized,
        SpecError::Udp(UdpError::Unsupported("more than 65535 nodes"))
    );
}
