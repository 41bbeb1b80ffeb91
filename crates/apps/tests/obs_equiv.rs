//! Execution-neutrality of the observers: a run with the production
//! observers on its event sink — the streaming sFS monitor, the flight
//! recorder and the anomaly watermarks, as every service shard run
//! carries them — must be **HB-fingerprint-identical** to the bare run,
//! on the simulator and on the event-driven threaded runtime alike.
//!
//! This is the `transport_equiv`-style pin for observability: the sink
//! is write-only (no channel back into scheduling) and span notes are
//! emitted by the apps themselves in both runs. Any future change that
//! lets a monitor step, a watermark sample, or a flight-recorder append
//! perturb delivery order, timer arming, or message numbering fails
//! here. The same pins hold the streaming monitor alone to the model
//! alphabet and to the post-hoc checker's verdicts.
//!
//! On the simulator the pin is the strongest one expressible: the two
//! traces are **byte-identical** under JSON serialization, not merely in
//! the same HB class.

use sfs::{Backend, ClusterSpec, Instruments, NetSpec, NullApp};
use sfs_apps::workpool::WorkPoolApp;
use sfs_asys::{ProcessId, Trace, TraceEvent};
use sfs_explore::class_fingerprint;
use sfs_history::History;
use sfs_obs::trace_json::trace_to_json;
use sfs_obs::watermark::WatermarkConfig;
use sfs_obs::{
    metrics, AnomalyWatermarks, EventSink, EventSinkHandle, FlightRecorder, Interest, Registry,
    SfsMonitor, SuiteVerdicts, TraceIngest,
};
use sfs_tlogic::properties;
use std::sync::{Arc, Mutex};

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

fn model_fingerprint(trace: &Trace) -> u64 {
    class_fingerprint(&History::from_trace(trace))
}

fn posthoc(trace: &Trace) -> SuiteVerdicts {
    let complete = trace.stop_reason().is_complete();
    SuiteVerdicts::from_reports(&properties::check_sfs_suite(
        &History::from_trace(trace),
        complete,
    ))
}

/// One engine leg.
type Run = fn(ClusterSpec) -> Trace;

fn sim(spec: ClusterSpec) -> Trace {
    spec.try_run().expect("feasible spec")
}

fn threaded(spec: ClusterSpec) -> Trace {
    spec.run(Backend::Threaded, Instruments::default(), |_| NullApp)
        .expect("threaded run")
        .into_trace()
}

fn transport(spec: ClusterSpec) -> Trace {
    spec.net(NetSpec::faultless())
        .try_run_net(|_| NullApp)
        .expect("feasible spec")
}

/// `spec` run bare and with `sink` on its event seam.
fn bare_and_observed(spec: ClusterSpec, sink: EventSinkHandle, run: Run) -> (Trace, Trace) {
    (run(spec.clone()), run(spec.event_sink(sink)))
}

/// The observers a service shard run carries, on one event sink.
struct Observers {
    monitor: Arc<SfsMonitor>,
    recorder: Arc<FlightRecorder>,
    watermarks: Arc<AnomalyWatermarks>,
}

impl Observers {
    fn new(n: usize, config: WatermarkConfig) -> Self {
        let recorder = FlightRecorder::new(512);
        Observers {
            monitor: SfsMonitor::new(n),
            watermarks: AnomalyWatermarks::with_config("obs-equiv", config, Some(recorder.clone())),
            recorder,
        }
    }

    fn sink(&self) -> EventSinkHandle {
        EventSinkHandle::fanout(vec![
            self.monitor.handle(),
            self.recorder.handle(),
            self.watermarks.handle(),
        ])
    }

    /// The stream reached every observer, and no watermark tripped.
    fn assert_live(&self, what: &str) {
        assert!(self.monitor.events_seen() > 0, "{what}: monitor");
        assert!(self.recorder.recorded() > 0, "{what}: recorder");
        assert!(self.watermarks.trips().is_empty(), "{what}: watermarks");
    }
}

#[test]
fn obs_is_byte_invisible_on_sim_detection_rounds() {
    for seed in 0..10 {
        let obs = Observers::new(6, WatermarkConfig::default());
        let (bare, observed) = bare_and_observed(detect_spec(seed), obs.sink(), sim);
        // Byte-identical traces — stronger than HB-class equality.
        assert_eq!(
            trace_to_json(&bare),
            trace_to_json(&observed),
            "seed {seed}"
        );
        obs.assert_live(&format!("seed {seed}"));
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
        let obs = Observers::new(5, WatermarkConfig::default());
        let (bare, observed) = bare_and_observed(spec, obs.sink(), |s| {
            s.run(Backend::Sim, Instruments::default(), |_| {
                WorkPoolApp::new(6)
            })
            .expect("feasible spec")
            .into_trace()
        });
        assert!(bare.stop_reason().is_complete(), "seed {seed}");
        assert_eq!(
            trace_to_json(&bare),
            trace_to_json(&observed),
            "seed {seed}"
        );
        obs.assert_live(&format!("seed {seed}"));
    }
}

#[test]
fn obs_is_hb_invisible_on_the_threaded_runtime() {
    // The event-driven runtime schedules off its timer wheel at virtual
    // ticks, so a fixed-latency instance is deterministic — the observed
    // run must land in exactly the bare run's HB class.
    for seed in 0..6 {
        let obs = Observers::new(6, WatermarkConfig::default());
        let (bare, observed) = bare_and_observed(detect_spec(seed), obs.sink(), threaded);
        assert!(bare.stop_reason().is_complete(), "seed {seed}");
        assert!(observed.stop_reason().is_complete(), "seed {seed}");
        assert_eq!(
            model_fingerprint(&bare),
            model_fingerprint(&observed),
            "seed {seed}: the observers changed the threaded HB class\nbare:\n{}\nobserved:\n{}",
            History::from_trace(&bare).to_pretty_string(),
            History::from_trace(&observed).to_pretty_string(),
        );
        obs.assert_live(&format!("seed {seed}: the threaded runtime"));
    }
}

#[test]
fn obs_is_hb_invisible_through_the_transport() {
    // The observers and the ARQ transport stacked: the observed
    // transport-backed run must stay in the bare transport run's class
    // (which transport_equiv separately pins to the bare-channel class).
    for seed in 0..6 {
        let obs = Observers::new(6, WatermarkConfig::default());
        let (bare, observed) = bare_and_observed(detect_spec(seed), obs.sink(), transport);
        assert_eq!(
            model_fingerprint(&bare),
            model_fingerprint(&observed),
            "seed {seed}"
        );
        obs.assert_live(&format!("seed {seed}: the transport leg"));
    }
}

#[test]
fn watermarks_trip_on_the_live_stream_on_sim_and_threads() {
    // One erroneous suspicion: p1 suspects the live p0, the protocol
    // kills it, and the survivors detect it — before the crash lands. A
    // config that allows no detection at all trips on that fan-out; the
    // default stays silent.
    let spec = ClusterSpec::new(4, 1).latency(1, 1).suspect(p(1), p(0), 10);
    let zero_tolerance = WatermarkConfig {
        suspicion_fanout: 0,
        suspicion_slack: 0,
        ..Default::default()
    };
    for run in [sim as Run, threaded] {
        let strict = Observers::new(4, zero_tolerance.clone());
        run(spec.clone().event_sink(strict.sink()));
        assert_eq!(strict.watermarks.trips(), vec!["false-suspicion-rate"]);
        let default = Observers::new(4, WatermarkConfig::default());
        run(spec.clone().event_sink(default.sink()));
        default.assert_live("default config");
    }
}

#[test]
fn rto_watermark_trips_on_a_live_adaptive_run() {
    // A lossy adaptive transport backs its timeouts off; a watermark
    // that learns from the first few `rto` notes and trips at twice the
    // learned level reads them live off the event stream.
    let tight = WatermarkConfig {
        warmup: 4,
        inflation: 2.0,
        rto_floor: 0,
        ..Default::default()
    };
    let obs = Observers::new(5, tight);
    let trace = ClusterSpec::new(5, 2)
        .seed(1)
        .suspect(p(2), p(0), 40)
        .max_time(3_000)
        .net(
            NetSpec::faultless()
                .loss(0.3)
                .adaptive(sfs::AdaptiveConfig::default()),
        )
        .event_sink(obs.sink())
        .try_run_net(|_| WorkPoolApp::new(6))
        .expect("feasible spec");
    assert!(trace.notes_with_key(metrics::NOTE_RTO).count() > 4);
    assert_eq!(obs.watermarks.trips(), vec!["rto-inflation"]);
}

// ---- the streaming monitor alone (ISSUE 10) -----------------------------
//
// A monitored run must be byte-identical (sim) or HB-fingerprint-identical
// (threaded, transport) to the bare run, while the monitor demonstrably
// consumed every event of its declared interest — the model alphabet
// `History::from_trace` keeps — and reached the same verdicts as the
// post-hoc checker.

#[test]
fn sfs_monitor_is_byte_invisible_on_sim() {
    for seed in 0..10 {
        let monitor = SfsMonitor::new(6);
        let (bare, monitored) = bare_and_observed(detect_spec(seed), monitor.handle(), sim);
        assert_eq!(
            trace_to_json(&bare),
            trace_to_json(&monitored),
            "seed {seed}"
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
        let monitor = SfsMonitor::new(6);
        let (bare, monitored) = bare_and_observed(detect_spec(seed), monitor.handle(), threaded);
        assert_eq!(
            model_fingerprint(&bare),
            model_fingerprint(&monitored),
            "seed {seed}"
        );
        let online = monitor.finish(monitored.stop_reason().is_complete());
        assert_eq!(online, posthoc(&monitored), "seed {seed}");
    }
}

#[test]
fn sfs_monitor_is_hb_invisible_through_the_transport() {
    for seed in 0..6 {
        let monitor = SfsMonitor::new(6);
        let (bare, monitored) = bare_and_observed(detect_spec(seed), monitor.handle(), transport);
        assert_eq!(
            model_fingerprint(&bare),
            model_fingerprint(&monitored),
            "seed {seed}"
        );
        let online = monitor.finish(monitored.stop_reason().is_complete());
        assert_eq!(online, posthoc(&monitored), "seed {seed}");
    }
}

/// The registry's trace fold run live behind a sink, as the service's
/// shard fold runs it.
struct LiveIngest(Mutex<(Arc<Registry>, TraceIngest)>);

impl EventSink for LiveIngest {
    fn on_event(&self, event: &TraceEvent) {
        let (registry, ingest) = &mut *self.0.lock().unwrap();
        ingest.on_event(registry, event);
    }

    fn interest(&self) -> Interest {
        Interest::NOTE
            .union(Interest::CRASH)
            .union(Interest::FAILED)
    }
}

#[test]
fn monitor_and_registry_stack_without_interference() {
    // The production observers and a live registry fold on one fanout —
    // still byte-identical to bare, and the live registry equals its
    // replay over the kept trace.
    for seed in 0..4 {
        let registry = Registry::for_shard("sim", 0);
        let ingest = LiveIngest(Mutex::new((registry.clone(), TraceIngest::default())));
        let obs = Observers::new(6, WatermarkConfig::default());
        let sink =
            EventSinkHandle::fanout(vec![obs.sink(), EventSinkHandle::new(Arc::new(ingest))]);
        let (bare, both) = bare_and_observed(detect_spec(seed), sink, sim);
        assert_eq!(trace_to_json(&bare), trace_to_json(&both), "seed {seed}");
        let replayed = Registry::for_shard("sim", 0);
        replayed.ingest_trace(&both);
        assert_eq!(registry.report(), replayed.report(), "seed {seed}");
        assert!(registry.report().hist(metrics::DETECTION_LATENCY).count() > 0);
        obs.assert_live(&format!("seed {seed}"));
    }
}

/// A sink declaring the monitor's interest that only counts its calls.
#[derive(Default)]
struct ModelCounter(std::sync::atomic::AtomicU64);

impl EventSink for ModelCounter {
    fn on_event(&self, _: &TraceEvent) {
        self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    fn interest(&self) -> Interest {
        Interest::MODEL
    }
}

#[test]
fn interest_is_the_history_projection() {
    use sfs_asys::TraceEventKind as K;

    // A transport-backed work-pool run over a lossy, probed link: timers,
    // notes, infra frames and model-level traffic all in one trace. A
    // sink declaring the model alphabet must be called for exactly the
    // events `History::from_trace` keeps — live, and again on replay
    // through a handle (the UDP leg's path).
    for seed in 0..4 {
        let counter = Arc::new(ModelCounter::default());
        let handle = EventSinkHandle::new(counter.clone());
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

    /// A random small instance (size, budget, suspicion script, seed);
    /// feasibility needs n > t² under the fixed minimum quorum.
    fn instance(n: usize, seed: u64, s1: u64, s2: u64) -> ClusterSpec {
        let t = if n > 4 { 2 } else { 1 };
        ClusterSpec::new(n, t)
            .seed(seed)
            .latency(1, 2)
            .suspect(p(1), p(0), s1)
            .suspect(p(n - 1), p(n - 2), s2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Property form: attaching the production observers never
        /// changes a byte of the simulator's trace.
        #[test]
        fn obs_never_changes_a_sim_trace(
            n in 3usize..7,
            seed in 0u64..1000,
            s1 in 5u64..60,
            s2 in 5u64..60,
        ) {
            let obs = Observers::new(n, WatermarkConfig::default());
            let (bare, observed) = bare_and_observed(instance(n, seed, s1, s2), obs.sink(), sim);
            prop_assert_eq!(trace_to_json(&bare), trace_to_json(&observed));
        }

        /// Same property for the monitor alone, fed exactly the model
        /// alphabet.
        #[test]
        fn monitor_never_changes_a_sim_trace(
            n in 3usize..7,
            seed in 0u64..1000,
            s1 in 5u64..60,
            s2 in 5u64..60,
        ) {
            let monitor = SfsMonitor::new(n);
            let (bare, monitored) =
                bare_and_observed(instance(n, seed, s1, s2), monitor.handle(), sim);
            prop_assert_eq!(trace_to_json(&bare), trace_to_json(&monitored));
            prop_assert_eq!(
                monitor.events_seen(),
                History::from_trace(&monitored).len() as u64
            );
        }
    }
}
