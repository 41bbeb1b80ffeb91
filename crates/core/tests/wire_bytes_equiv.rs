//! Cross-engine wire-byte accounting (ISSUE 9 satellite): on an
//! identical instance, the simulator's measured transport leg, the
//! threaded router's measured leg, and the UDP backend's real-datagram
//! ledgers must all charge bytes with **one ruler** —
//! `sfs_wire::wire_cost`, the real encoded frame size, one full frame
//! per engine-level send regardless of link verdicts or ARQ
//! retransmissions.
//!
//! The in-process engines are deterministic on a fixed-latency faultless
//! link, so their totals must be *equal*, not merely close. The UDP leg
//! replays the same protocol rounds over real sockets; its per-node
//! Status-frame ledgers sum to the merged trace's `wire_bytes` by
//! construction, so the pin worth having is against the *simulated*
//! total: same sends, same encoder, same bytes.

use sfs::{Backend, ClusterSpec, Instruments, NetSpec, NullApp, SfsMsg, TransportMsg};
use sfs_asys::ProcessId;
use sfs_wire::wire_cost;
use std::time::Duration;

const NODE_BIN: &str = env!("CARGO_BIN_EXE_sfs-udp-node");

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// A crash-expressible detection instance every backend can run: one
/// scripted suspicion, no heartbeats (so no real-time-paced traffic on
/// the UDP leg), faultless link.
fn spec(seed: u64) -> ClusterSpec {
    ClusterSpec::new(4, 1)
        .seed(seed)
        .suspect(p(1), p(0), 10)
        .net(NetSpec::faultless())
}

#[test]
fn sim_and_threaded_charge_identical_wire_bytes() {
    for seed in [11u64, 23, 47] {
        let sim = spec(seed).try_run_net_measured().expect("sim leg");
        let threaded = spec(seed)
            .run(
                Backend::Threaded,
                Instruments {
                    measure: Some(Box::new(wire_cost::<TransportMsg<SfsMsg<()>>>)),
                    ..Instruments::default()
                },
                |_| NullApp,
            )
            .expect("threaded leg");
        assert!(
            threaded.quiesced,
            "seed {seed}: threaded run did not quiesce"
        );
        let (a, b) = (sim.stats(), threaded.summary.stats);
        assert!(a.wire_bytes > 0, "seed {seed}: sim charged nothing");
        assert_eq!(
            a.wire_bytes, b.wire_bytes,
            "seed {seed}: sim and threaded disagree on wire bytes \
             (sim sent {} msgs, threaded {})",
            a.messages_sent, b.messages_sent,
        );
        assert_eq!(a.messages_sent, b.messages_sent, "seed {seed}");
    }
}

#[test]
fn udp_ledgers_match_the_simulated_total() {
    // The UDP node charges each engine-level send its real datagram size
    // as it hits the socket; the simulator charges the same frame the
    // same `wire_cost` at the send seam. With no timing-paced traffic
    // the protocol rounds are the same, so the totals must agree
    // exactly — this is what makes E12's `udp B/run` column directly
    // comparable to its simulated `bytes/run` neighbour.
    std::env::set_var(sfs::udp::ENV_NODE_BIN, NODE_BIN);
    let seed = 11u64;
    let sim = spec(seed).try_run_net_measured().expect("sim leg");
    let run = spec(seed)
        .try_run_udp(Duration::from_secs(20))
        .expect("udp leg");
    assert!(run.quiesced, "udp run did not quiesce");
    let udp_total: u64 = run.node_status.iter().map(|s| s.stats.wire_bytes).sum();
    assert_eq!(
        sim.stats().wire_bytes,
        udp_total,
        "simulated and real-wire byte ledgers diverged \
         (sim {} msgs, udp {} msgs)",
        sim.stats().messages_sent,
        run.trace.stats().messages_sent,
    );
    // And the merged trace carries the same ledger sum the obs registry
    // ingests from the per-node Status frames.
    assert_eq!(run.trace.stats().wire_bytes, udp_total);
}
