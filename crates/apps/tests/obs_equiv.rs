//! Execution-neutrality of the telemetry layer (ISSUE 9): an
//! obs-enabled run — the same cluster spec with a live `sfs-obs`
//! registry attached through the engine's `ObsSink` seam — must be
//! **HB-fingerprint-identical** to the bare run, on the simulator and on
//! the event-driven threaded runtime alike.
//!
//! This is the `transport_equiv`-style pin for observability: the sink
//! is write-only (no channel back into scheduling), the router's
//! wall-clock reads are gated on the sink's presence but never feed a
//! decision, and span notes are emitted by the apps themselves in both
//! runs. Any future change that lets a metrics read, a histogram
//! observation, or a flight-recorder append perturb delivery order,
//! timer arming, or message numbering fails here.
//!
//! On the simulator the pin is the strongest one expressible: the two
//! traces are **byte-identical** under JSON serialization, not merely in
//! the same HB class.

use sfs::{ClusterSpec, NetSpec, NullApp};
use sfs_apps::workpool::WorkPoolApp;
use sfs_asys::ProcessId;
use sfs_explore::class_fingerprint;
use sfs_history::History;
use sfs_obs::{metrics, Registry};
use std::time::Duration;

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// The detection instance shared with `transport_equiv`: two scripted
/// suspicions, fixed latency, so delivery order is structural.
fn detect_spec(seed: u64) -> ClusterSpec {
    ClusterSpec::new(6, 2)
        .seed(seed)
        .latency(1, 1)
        .suspect(p(1), p(0), 10)
        .suspect(p(4), p(3), 25)
}

fn model_fingerprint(trace: &sfs_asys::Trace) -> u64 {
    class_fingerprint(&History::from_trace(trace))
}

#[test]
fn obs_is_byte_invisible_on_sim_detection_rounds() {
    for seed in 0..10 {
        let bare = detect_spec(seed).try_run().expect("feasible spec");
        let registry = Registry::for_shard("sim", 0);
        let observed = detect_spec(seed)
            .observe(registry.handle())
            .try_run()
            .expect("feasible spec");
        // Byte-identical traces — stronger than HB-class equality.
        assert_eq!(
            sfs_obs::trace_json::trace_to_json(&bare),
            sfs_obs::trace_json::trace_to_json(&observed),
            "seed {seed}: telemetry changed the simulator's trace"
        );
        assert_eq!(model_fingerprint(&bare), model_fingerprint(&observed));
        // ... and the registry really was live, not a disconnected sink.
        let report = registry.report();
        assert!(
            report.counter_total(metrics::SENT) > 0,
            "seed {seed}: the registry saw no sends — the seam is dead"
        );
    }
}

#[test]
fn obs_is_byte_invisible_under_an_app_workload() {
    // A real application on the simulator: work-pool ops, a coordinator
    // crash, and the app-emitted span notes present in BOTH runs (the
    // annotation API is part of the app, not of the observer).
    for seed in 0..10 {
        let spec = ClusterSpec::new(5, 2)
            .seed(seed)
            .latency(1, 1)
            .suspect(p(2), p(0), 40)
            .max_time(20_000);
        let bare = spec
            .clone()
            .try_run_apps(|_| WorkPoolApp::new(6))
            .expect("feasible spec");
        let registry = Registry::for_shard("sim", 0);
        let observed = spec
            .observe(registry.handle())
            .try_run_apps(|_| WorkPoolApp::new(6))
            .expect("feasible spec");
        assert!(bare.stop_reason().is_complete(), "seed {seed}");
        assert_eq!(
            sfs_obs::trace_json::trace_to_json(&bare),
            sfs_obs::trace_json::trace_to_json(&observed),
            "seed {seed}: telemetry changed the app run's trace"
        );
    }
}

#[test]
fn obs_is_hb_invisible_on_the_threaded_runtime() {
    // The event-driven runtime schedules off its timer wheel at virtual
    // ticks, so a fixed-latency instance is deterministic — the
    // obs-enabled run must land in exactly the bare run's HB class.
    for seed in 0..6 {
        let bare = detect_spec(seed)
            .try_run_threaded(|_| NullApp, Duration::from_millis(400))
            .expect("bare threaded run")
            .0;
        let registry = Registry::for_shard("threaded", 0);
        let observed = detect_spec(seed)
            .observe(registry.handle())
            .try_run_threaded(|_| NullApp, Duration::from_millis(400))
            .expect("observed threaded run")
            .0;
        assert!(bare.stop_reason().is_complete(), "seed {seed}");
        assert!(observed.stop_reason().is_complete(), "seed {seed}");
        assert_eq!(
            model_fingerprint(&bare),
            model_fingerprint(&observed),
            "seed {seed}: telemetry changed the threaded HB class\nbare:\n{}\nobserved:\n{}",
            History::from_trace(&bare).to_pretty_string(),
            History::from_trace(&observed).to_pretty_string(),
        );
        assert!(
            registry.report().counter_total(metrics::SENT) > 0,
            "seed {seed}: the threaded router never fed the registry"
        );
    }
}

#[test]
fn obs_is_hb_invisible_through_the_transport() {
    // Telemetry and the ARQ transport stacked: the observed
    // transport-backed run must stay in the bare transport run's class
    // (which transport_equiv separately pins to the bare-channel class).
    for seed in 0..6 {
        let bare = detect_spec(seed)
            .net(NetSpec::faultless())
            .try_run_net(|_| NullApp)
            .expect("feasible spec");
        let registry = Registry::for_shard("sim+net", 0);
        let observed = detect_spec(seed)
            .net(NetSpec::faultless())
            .observe(registry.handle())
            .try_run_net(|_| NullApp)
            .expect("feasible spec");
        assert_eq!(
            model_fingerprint(&bare),
            model_fingerprint(&observed),
            "seed {seed}: telemetry changed the transport-backed HB class"
        );
        assert!(
            registry.report().counter_total(metrics::SENT) > 0,
            "seed {seed}: the transport leg never fed the registry"
        );
    }
}

// ---- the streaming-monitor seam (ISSUE 10) ------------------------------
//
// Same neutrality pins for the `EventSink` seam the online sFS monitors
// ride: a monitored run must be byte-identical (sim) or
// HB-fingerprint-identical (threaded, transport) to the bare run, while
// the monitor demonstrably consumed every event of its declared
// interest — the model alphabet `History::from_trace` keeps — and reached
// the same verdicts as the post-hoc checker.

use sfs_obs::{SfsMonitor, SuiteVerdicts};
use sfs_tlogic::properties;

fn posthoc(trace: &sfs_asys::Trace) -> SuiteVerdicts {
    let complete = trace.stop_reason().is_complete();
    SuiteVerdicts::from_reports(&properties::check_sfs_suite(
        &History::from_trace(trace),
        complete,
    ))
}

#[test]
fn sfs_monitor_is_byte_invisible_on_sim() {
    for seed in 0..10 {
        let bare = detect_spec(seed).try_run().expect("feasible spec");
        let monitor = SfsMonitor::new(6);
        let monitored = detect_spec(seed)
            .event_sink(monitor.handle())
            .try_run()
            .expect("feasible spec");
        assert_eq!(
            sfs_obs::trace_json::trace_to_json(&bare),
            sfs_obs::trace_json::trace_to_json(&monitored),
            "seed {seed}: the monitor changed the simulator's trace"
        );
        assert_eq!(
            monitor.events_seen(),
            History::from_trace(&monitored).len() as u64,
            "seed {seed}: the monitor was not fed exactly the model alphabet"
        );
        let online = monitor.finish(monitored.stop_reason().is_complete());
        assert_eq!(online, posthoc(&monitored), "seed {seed}");
        assert!(online.all_ok(), "seed {seed}: {online}");
    }
}

#[test]
fn sfs_monitor_is_hb_invisible_on_the_threaded_runtime() {
    for seed in 0..6 {
        let bare = detect_spec(seed)
            .try_run_threaded(|_| NullApp, Duration::from_millis(400))
            .expect("bare threaded run")
            .0;
        let monitor = SfsMonitor::new(6);
        let monitored = detect_spec(seed)
            .event_sink(monitor.handle())
            .try_run_threaded(|_| NullApp, Duration::from_millis(400))
            .expect("monitored threaded run")
            .0;
        assert_eq!(
            model_fingerprint(&bare),
            model_fingerprint(&monitored),
            "seed {seed}: the monitor changed the threaded HB class"
        );
        let online = monitor.finish(monitored.stop_reason().is_complete());
        assert_eq!(online, posthoc(&monitored), "seed {seed}");
    }
}

#[test]
fn sfs_monitor_is_hb_invisible_through_the_transport() {
    for seed in 0..6 {
        let bare = detect_spec(seed)
            .net(NetSpec::faultless())
            .try_run_net(|_| NullApp)
            .expect("feasible spec");
        let monitor = SfsMonitor::new(6);
        let monitored = detect_spec(seed)
            .net(NetSpec::faultless())
            .event_sink(monitor.handle())
            .try_run_net(|_| NullApp)
            .expect("feasible spec");
        assert_eq!(
            model_fingerprint(&bare),
            model_fingerprint(&monitored),
            "seed {seed}: the monitor changed the transport-backed HB class"
        );
        let online = monitor.finish(monitored.stop_reason().is_complete());
        assert_eq!(online, posthoc(&monitored), "seed {seed}");
    }
}

#[test]
fn monitor_and_registry_stack_without_interference() {
    // Both seams attached at once — the telemetry registry on `ObsSink`,
    // the monitor on `EventSink` — still byte-identical to bare.
    for seed in 0..4 {
        let bare = detect_spec(seed).try_run().expect("feasible spec");
        let registry = Registry::for_shard("sim", 0);
        let monitor = SfsMonitor::new(6);
        let both = detect_spec(seed)
            .observe(registry.handle())
            .event_sink(monitor.handle())
            .try_run()
            .expect("feasible spec");
        assert_eq!(
            sfs_obs::trace_json::trace_to_json(&bare),
            sfs_obs::trace_json::trace_to_json(&both),
            "seed {seed}"
        );
        assert!(registry.report().counter_total(metrics::SENT) > 0);
        assert!(monitor.events_seen() > 0);
    }
}

/// A sink declaring the monitor's interest that only counts its calls.
#[derive(Default)]
struct ModelCounter(std::sync::atomic::AtomicU64);

impl sfs_obs::EventSink for ModelCounter {
    fn on_event(&self, _: &sfs_asys::TraceEvent) {
        self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    fn interest(&self) -> sfs_obs::Interest {
        sfs_obs::Interest::MODEL
    }
}

#[test]
fn interest_is_the_history_projection() {
    use sfs_asys::TraceEventKind as K;
    use std::sync::Arc;

    // A transport-backed work-pool run over a lossy, probed link: timers,
    // notes, infra frames and model-level traffic all in one trace. A
    // sink declaring the model alphabet must be called for exactly the
    // events `History::from_trace` keeps — live, and again on replay
    // through a handle (the UDP leg's path).
    for seed in 0..4 {
        let counter = Arc::new(ModelCounter::default());
        let handle = sfs_obs::EventSinkHandle::new(counter.clone());
        let trace = ClusterSpec::new(5, 2)
            .seed(seed)
            .suspect(p(2), p(0), 40)
            .max_time(3_000)
            .net(
                NetSpec::faultless()
                    .loss(0.1)
                    .probe(sfs::ProbeConfig::default()),
            )
            .event_sink(handle.clone())
            .try_run_net(|_| WorkPoolApp::new(6))
            .expect("feasible spec");
        let has = |pred: fn(&K) -> bool| trace.events().iter().any(|e| pred(&e.kind));
        assert!(has(|k| matches!(k, K::TimerFired { .. })), "seed {seed}");
        assert!(has(|k| matches!(k, K::Note { .. })), "seed {seed}");
        assert!(
            has(|k| matches!(k, K::Send { infra: true, .. })),
            "seed {seed}"
        );
        assert!(
            has(|k| matches!(k, K::Send { infra: false, .. })),
            "seed {seed}"
        );
        let projected = History::from_trace(&trace).len() as u64;
        let live = counter.0.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(live, projected, "seed {seed}: live feed");
        sfs_obs::monitor::replay_fragments(&handle, &sfs_obs::monitor::fragments_of(&trace));
        let replayed = counter.0.load(std::sync::atomic::Ordering::Relaxed) - live;
        assert_eq!(replayed, projected, "seed {seed}: fragment replay");
        // The monitor's own replay entry point applies the same filter.
        let monitor = SfsMonitor::new(5);
        monitor.ingest_trace(&trace);
        assert_eq!(monitor.events_seen(), projected, "seed {seed}: ingest");
    }
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Property form: over random small instances (size, budget,
        /// suspicion script, seed), attaching a registry never changes a
        /// byte of the simulator's trace.
        #[test]
        fn obs_never_changes_a_sim_trace(
            n in 3usize..7,
            seed in 0u64..1000,
            s1 in 5u64..60,
            s2 in 5u64..60,
        ) {
            // Feasibility needs n > t² under the fixed minimum quorum.
            let t = if n > 4 { 2 } else { 1 };
            let spec = ClusterSpec::new(n, t)
                .seed(seed)
                .latency(1, 2)
                .suspect(p(1), p(0), s1)
                .suspect(p(n - 1), p(n - 2), s2);
            let bare = spec.clone().try_run().expect("feasible spec");
            let registry = Registry::for_shard("sim", 0);
            let observed = spec.observe(registry.handle()).try_run().expect("feasible spec");
            prop_assert_eq!(
                sfs_obs::trace_json::trace_to_json(&bare),
                sfs_obs::trace_json::trace_to_json(&observed)
            );
        }

        /// Same property for the monitor seam: an `SfsMonitor` on the
        /// event sink never changes a byte of the simulator's trace.
        #[test]
        fn monitor_never_changes_a_sim_trace(
            n in 3usize..7,
            seed in 0u64..1000,
            s1 in 5u64..60,
            s2 in 5u64..60,
        ) {
            let t = if n > 4 { 2 } else { 1 };
            let spec = ClusterSpec::new(n, t)
                .seed(seed)
                .latency(1, 2)
                .suspect(p(1), p(0), s1)
                .suspect(p(n - 1), p(n - 2), s2);
            let bare = spec.clone().try_run().expect("feasible spec");
            let monitor = sfs_obs::SfsMonitor::new(n);
            let monitored = spec.event_sink(monitor.handle()).try_run().expect("feasible spec");
            prop_assert_eq!(
                sfs_obs::trace_json::trace_to_json(&bare),
                sfs_obs::trace_json::trace_to_json(&monitored)
            );
            prop_assert_eq!(
                monitor.events_seen(),
                History::from_trace(&monitored).len() as u64
            );
        }
    }
}
