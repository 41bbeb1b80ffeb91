//! Trace equivalence of batched delivery, on the engine that actually
//! coalesces: each round of the threaded runtime runs every process's due
//! work as one batch and orders the round's events by process, which
//! reorders execution *across* processes. Running the
//! bounded E9 instances must still land every threaded run — bare and
//! over the link seam — in the **happens-before envelope** the
//! exhaustive exploration of the same instance establishes (class
//! fingerprints and per-property verdict bounds), which *is* the
//! "batching is invisible to the HB model" claim. The simulator has one
//! loop mode and never batches, so there is nothing to compare there.

use sfs::{Backend, ClusterSpec, Instruments, NetSpec, NullApp};
use sfs_apps::scenarios::{ConformanceConfig, ExploreInstance};
use sfs_asys::ProcessId;

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

#[test]
fn batching_preserves_the_hb_class_of_detection_rounds() {
    // A fixed link latency makes every answer to an obituary broadcast
    // come due at the initiator in the same instant, so the net leg of
    // this instance coalesces on every run (the clock only advances once
    // an instant is fully dispatched); the bare leg ignores the latency.
    let within_bound = ClusterSpec::new(3, 1).latency(2, 2).suspect(p(1), p(0), 10);
    let instances = [
        ("within bound", within_bound.clone()),
        (
            "chained suspicions (2 crashes > t)",
            ClusterSpec::new(3, 1)
                .suspect(p(1), p(0), 10)
                .suspect(p(2), p(1), 12),
        ),
        (
            "ablation: no self-crash",
            ClusterSpec::new(3, 1)
                .suspect(p(1), p(0), 10)
                .without_self_crash(),
        ),
    ];
    let config = ConformanceConfig {
        random_runs: 0,
        threaded_runs: 4,
        transport_runs: 0,
        ..ConformanceConfig::default()
    };
    for (label, spec) in instances {
        let out = ExploreInstance::new(spec).conformance(&config);
        assert!(out.reference.stats.complete, "{label}: envelope incomplete");
        for leg in ["threaded:event", "threaded:event+net"] {
            let report = out
                .backends
                .iter()
                .find(|b| b.backend == leg)
                .expect("conformance reports both threaded legs");
            assert_eq!(report.runs, config.threaded_runs, "{label} / {leg}");
            assert!(
                report.divergences.is_empty(),
                "{label} / {leg}: batching left the HB envelope: {:#?}",
                report.divergences
            );
        }
    }
    // The pin has teeth only if the runtime really coalesced: the same
    // spec the `threaded:event+net` leg just ran must report batches.
    let run = within_bound
        .net(NetSpec::faultless())
        .run(Backend::Threaded, Instruments::default(), |_| NullApp)
        .expect("feasible spec");
    let (trace, quiesced) = (run.trace.expect("recorded"), run.quiesced);
    assert!(quiesced, "{}", trace.to_pretty_string());
    assert!(
        trace.stats().delivery_batches > 0,
        "fixed-latency obituary rounds must coalesce: {:?}",
        trace.stats()
    );
}
