//! Trace equivalence of the transport-backed leg (ISSUE E12): on a
//! **loss-free** link, running the same cluster spec bare (reliable
//! channels assumed, per the paper's §2 axioms) and transport-wrapped
//! (channels *emulated* by the `sfs-transport` ARQ layer) must land in
//! the **same happens-before class** — identical per-process model-level
//! event sequences, identical send/receive pairings, identical logical
//! message numbering.
//!
//! This is the `batch_equiv`-style pin for the transport: the ARQ
//! wrapper's logical send/receive events mirror the engine's own message
//! numbering (one logical id per inner send, in action order), so on a
//! fault-free network the whole transport layer is invisible to the HB
//! model. Any future change that renumbers, reorders, or double-releases
//! payloads fails here.

use sfs::{AdaptiveConfig, Backend, ClusterSpec, Instruments, NetSpec, NullApp};
use sfs_apps::workpool::WorkPoolApp;
use sfs_asys::ProcessId;
use sfs_explore::class_fingerprint;
use sfs_history::History;

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// The model-level fingerprint of a trace (infrastructure dropped: for
/// the transport run that is every wire frame; for the bare run the
/// detector's own obituary/heartbeat traffic).
fn model_fingerprint(trace: &sfs_asys::Trace) -> u64 {
    class_fingerprint(&History::from_trace(trace))
}

#[test]
fn transport_is_hb_invisible_on_detection_rounds() {
    // Suspicion-driven detection with no app traffic: the model alphabet
    // is crashes + detections, and the per-process detection orders must
    // match exactly. Fixed latency keeps both runs' delivery orders
    // structural (no rng dependence), so the fingerprints must be equal.
    for seed in 0..10 {
        let spec = ClusterSpec::new(6, 2)
            .seed(seed)
            .latency(1, 1)
            .suspect(p(1), p(0), 10)
            .suspect(p(4), p(3), 25);
        let bare = spec.clone().try_run().expect("feasible spec");
        let wrapped = spec
            .net(NetSpec::faultless())
            .try_run_net(|_| NullApp)
            .expect("feasible spec");
        assert!(bare.stop_reason().is_complete());
        assert!(wrapped.stop_reason().is_complete());
        let (hb, hw) = (model_fingerprint(&bare), model_fingerprint(&wrapped));
        assert_eq!(
            hb,
            hw,
            "seed {seed}: transport changed the HB class\nbare:\n{}\nwrapped:\n{}",
            History::from_trace(&bare).to_pretty_string(),
            History::from_trace(&wrapped).to_pretty_string(),
        );
    }
}

#[test]
fn transport_is_hb_invisible_under_an_app_workload() {
    // A real application (work pool with a coordinator crash): app
    // messages — the events sFS2d gates — must pair and order
    // identically through the transport, logical ids included.
    for seed in 0..10 {
        let spec = ClusterSpec::new(5, 2)
            .seed(seed)
            .latency(1, 1)
            .suspect(p(2), p(0), 40)
            .max_time(20_000);
        let bare = spec
            .clone()
            .run(Backend::Sim, Instruments::default(), |_| {
                WorkPoolApp::new(6)
            })
            .expect("feasible spec")
            .into_trace();
        let wrapped = spec
            .net(NetSpec::faultless())
            .try_run_net(|_| WorkPoolApp::new(6))
            .expect("feasible");
        assert!(bare.stop_reason().is_complete(), "seed {seed}");
        assert!(wrapped.stop_reason().is_complete(), "seed {seed}");
        // Both histories are valid model runs...
        let (h_bare, h_wrapped) = (History::from_trace(&bare), History::from_trace(&wrapped));
        assert!(h_bare.validate().is_ok(), "seed {seed}");
        assert!(h_wrapped.validate().is_ok(), "seed {seed}");
        // ... in the same HB class.
        assert_eq!(
            class_fingerprint(&h_bare),
            class_fingerprint(&h_wrapped),
            "seed {seed}: transport changed the app-level HB class\nbare:\n{}\nwrapped:\n{}",
            h_bare.to_pretty_string(),
            h_wrapped.to_pretty_string(),
        );
    }
}

#[test]
fn adaptive_transport_is_hb_invisible_when_loss_free() {
    // The E13 acceptance pin: adaptive timeouts (Jacobson RTO +
    // learned suspicion thresholds) change *when* the transport would
    // retransmit or suspect — on a loss-free link neither ever fires,
    // so the adaptive run must land in the same HB class as the bare
    // run, jitter rng and all.
    for seed in 0..10 {
        let spec = ClusterSpec::new(6, 2)
            .seed(seed)
            .latency(1, 1)
            .suspect(p(1), p(0), 10)
            .suspect(p(4), p(3), 25);
        let bare = spec.clone().try_run().expect("feasible spec");
        let wrapped = spec
            .net(NetSpec::faultless().adaptive(AdaptiveConfig::default()))
            .try_run_net(|_| NullApp)
            .expect("feasible spec");
        assert!(bare.stop_reason().is_complete());
        assert!(wrapped.stop_reason().is_complete());
        assert_eq!(
            model_fingerprint(&bare),
            model_fingerprint(&wrapped),
            "seed {seed}: the adaptive transport changed the HB class\nbare:\n{}\nwrapped:\n{}",
            History::from_trace(&bare).to_pretty_string(),
            History::from_trace(&wrapped).to_pretty_string(),
        );
    }
}

#[test]
fn adaptive_transport_is_hb_invisible_under_an_app_workload() {
    // Same pin under a real application: work-pool ops must pair and
    // order identically whether the ARQ deadlines are fixed or
    // RTT-estimated, as long as the link never forces a decision.
    for seed in 0..10 {
        let spec = ClusterSpec::new(5, 2)
            .seed(seed)
            .latency(1, 1)
            .suspect(p(2), p(0), 40)
            .max_time(20_000);
        let bare = spec
            .clone()
            .run(Backend::Sim, Instruments::default(), |_| {
                WorkPoolApp::new(6)
            })
            .expect("feasible spec")
            .into_trace();
        let wrapped = spec
            .net(NetSpec::faultless().adaptive(AdaptiveConfig::default()))
            .try_run_net(|_| WorkPoolApp::new(6))
            .expect("feasible");
        assert!(bare.stop_reason().is_complete(), "seed {seed}");
        assert!(wrapped.stop_reason().is_complete(), "seed {seed}");
        let (h_bare, h_wrapped) = (History::from_trace(&bare), History::from_trace(&wrapped));
        assert!(h_wrapped.validate().is_ok(), "seed {seed}");
        assert_eq!(
            class_fingerprint(&h_bare),
            class_fingerprint(&h_wrapped),
            "seed {seed}: the adaptive transport changed the app-level HB class\nbare:\n{}\nwrapped:\n{}",
            h_bare.to_pretty_string(),
            h_wrapped.to_pretty_string(),
        );
    }
}
