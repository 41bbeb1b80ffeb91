//! Shard runs that keep no trace build none — and lose nothing.
//!
//! Every shard run folds its summary live from the event sink, on both
//! backends; `keep_traces` only decides whether the trace is kept (off,
//! neither backend builds one: the simulator runs `Sim::run_unrecorded`,
//! the runtime is spawned with `RuntimeConfig::record` off). These tests
//! pin that kept and unkept runs are indistinguishable from outside, that
//! each fold fed live — on the simulator and on the threaded runtime's
//! coordinator thread — equals its `&Trace` entry point on the same run,
//! and that the
//! sinks are called for a small, exactly countable share of the events.

use sfs::{Backend, ClusterSpec, HeartbeatConfig, Instruments, NetSpec, ProbeConfig};
use sfs_asys::{EventSink, EventSinkHandle, Interest, ProcessId, TraceEvent};
use sfs_chaos::ChaosSpec;
use sfs_history::History;
use sfs_obs::{metrics, MsgClass, Registry, SfsMonitor, TraceIngest};
use sfs_service::load::LoadFold;
use sfs_service::{
    analyze_load, plan_shards, run_service, LoadGenApp, LoadProfile, ServiceReport, ServiceSpec,
};
use std::sync::{Arc, Mutex};

fn fast_heartbeats() -> HeartbeatConfig {
    HeartbeatConfig {
        interval: 10,
        timeout: 60,
        check_every: 15,
    }
}

/// Every field of every shard outcome but the trace itself.
fn assert_same_outcomes(live: &ServiceReport, kept: &ServiceReport, what: &str) {
    assert_eq!(live.exhausted, kept.exhausted, "{what}");
    assert_eq!(live.epochs.len(), kept.epochs.len(), "{what}");
    for (a, b) in live.epochs.iter().zip(&kept.epochs) {
        assert_eq!(a.rescued_ops, b.rescued_ops, "{what}");
        assert_eq!(a.shards.len(), b.shards.len(), "{what}");
        for (a, b) in a.shards.iter().zip(&b.shards) {
            let what = format!("{what}, shard {}", a.shard);
            assert!(a.trace.is_none(), "{what}: a trace was built");
            let trace = b.trace.as_ref().expect("keep_traces carries traces");
            assert_eq!(a.shard, b.shard, "{what}");
            assert_eq!(a.n, b.n, "{what}");
            assert_eq!(a.ops_routed, b.ops_routed, "{what}");
            assert_eq!(a.load, b.load, "{what}");
            assert_eq!(a.stats, b.stats, "{what}");
            assert_eq!(a.events, b.events, "{what}");
            assert_eq!(a.events, trace.events().len() as u64, "{what}");
            assert_eq!(a.detected, b.detected, "{what}");
            assert_eq!(a.detection_latencies, b.detection_latencies, "{what}");
            assert_eq!(a.obs, b.obs, "{what}");
            assert_eq!(a.verdicts, b.verdicts, "{what}");
            assert_eq!(a.watermark_trips, b.watermark_trips, "{what}");
        }
    }
}

#[test]
fn live_and_kept_trace_outcomes_are_equal_field_by_field() {
    let plan = plan_shards(32, 2, 16, 7).unwrap();
    let victim = plan.shards[0].members[0];
    let bare = ServiceSpec::new(32, 2, 16)
        .seed(7)
        .heartbeat(Some(fast_heartbeats()))
        .max_time(600)
        .certify_online(true)
        .load(LoadProfile::closed(64, 8))
        .crash(victim, 40);
    let probe = ProbeConfig {
        interval: 20,
        timeout: 100,
        check_every: 5,
    };
    let net = bare
        .clone()
        .heartbeat(None)
        .max_time(1_500)
        .net(NetSpec::faultless().loss(0.05).duplicate(0.02).probe(probe));
    let chaos = net.clone().epochs(3).watermarks(true).chaos(
        ChaosSpec::new(2, 2)
            .seed(3)
            .horizon(3, 1_000)
            .storm(400, 560, 110),
    );
    for (what, spec) in [("bare", bare), ("net", net), ("chaos", chaos)] {
        let live = run_service(&spec.clone().keep_traces(false)).unwrap();
        let kept = run_service(&spec.keep_traces(true)).unwrap();
        assert!(live.events() > 0, "{what}");
        assert!(!live.detection_latencies().is_empty(), "{what}");
        assert_same_outcomes(&live, &kept, what);
    }
}

#[test]
fn threaded_shard_runs_that_keep_no_trace_record_none() {
    // The runtime records only when the trace is kept; on a quiescent
    // spec the unrecorded runs must still fold to the kept runs'
    // outcomes, event count and online verdicts included.
    let spec = ServiceSpec::new(32, 2, 16)
        .seed(7)
        .backend(Backend::Threaded)
        .heartbeat(None)
        .certify_online(true)
        .load(LoadProfile::closed(64, 8));
    let live = run_service(&spec.clone().keep_traces(false)).unwrap();
    let kept = run_service(&spec.keep_traces(true)).unwrap();
    assert!(live.events() > 0);
    assert_eq!(live.ops_completed(), 128);
    assert_same_outcomes(&live, &kept, "threaded");
}

/// A fold behind an event sink, offered what the service's live shard
/// fold is offered: notes, crashes and detections.
struct Live<F>(Mutex<F>, fn(&mut F, &TraceEvent));

impl<F: Send> EventSink for Live<F> {
    fn on_event(&self, event: &TraceEvent) {
        (self.1)(&mut self.0.lock().unwrap(), event);
    }

    fn interest(&self) -> Interest {
        Interest::NOTE
            .union(Interest::CRASH)
            .union(Interest::FAILED)
    }
}

#[test]
fn each_live_fold_equals_its_trace_entry_point_on_the_same_run() {
    for seed in 0..4 {
        let load = Arc::new(Live(Mutex::new(LoadFold::default()), LoadFold::on_event));
        let registry = Registry::new("sim");
        let ingest = Arc::new(Live(
            Mutex::new((registry.clone(), TraceIngest::default())),
            |(registry, ingest), e| ingest.on_event(registry, e),
        ));
        let sinks = vec![
            EventSinkHandle::new(load.clone()),
            EventSinkHandle::new(ingest),
        ];
        // A lossy, probed, adaptive transport under a closed loop with a
        // crash: op notes, retx/rto/probe-suspect notes, a crash and its
        // detections all land in one run.
        let trace = ClusterSpec::new(10, 2)
            .seed(seed)
            .crash(ProcessId::new(9), 100)
            .max_time(1_500)
            .net(
                NetSpec::faultless()
                    .loss(0.1)
                    .probe(ProbeConfig::default())
                    .adaptive(sfs::AdaptiveConfig::default()),
            )
            .event_sink(EventSinkHandle::fanout(sinks))
            .try_run_net(|_| LoadGenApp::new(LoadProfile::closed(40, 4)))
            .expect("10 > 2²");

        let live = load.0.lock().unwrap().finish();
        assert_eq!(live, analyze_load(&trace), "seed {seed}");
        assert_eq!(live.completed, 40, "seed {seed}");

        let replayed = Registry::new("sim");
        replayed.ingest_trace(&trace);
        let report = registry.report();
        assert_eq!(report, replayed.report(), "seed {seed}");
        assert!(report.counter_total(metrics::RETX) > 0, "seed {seed}");
        assert!(report.hist(metrics::RTO_TICKS).count() > 0, "seed {seed}");
        assert!(
            report.hist(metrics::DETECTION_LATENCY).count() > 0,
            "seed {seed}"
        );
    }
}

#[test]
fn the_threaded_fold_equals_its_replay_over_the_kept_trace() {
    // On threads the shard fold runs live on the coordinator thread;
    // replaying the kept trace through `analyze_load` and
    // `Registry::ingest_trace` (plus the run's counters) must give the
    // same outcome, shard by shard — over a lossy probed transport, with
    // a crash detected.
    let plan = plan_shards(32, 2, 16, 5).unwrap();
    let spec = ServiceSpec::new(32, 2, 16)
        .seed(5)
        .backend(Backend::Threaded)
        .heartbeat(None)
        .max_time(1_500)
        .keep_traces(true)
        .load(LoadProfile::closed(64, 8))
        .net(
            NetSpec::faultless()
                .loss(0.05)
                .probe(ProbeConfig::default()),
        )
        .crash(plan.shards[0].members[0], 40);
    let report = run_service(&spec).unwrap();
    let mut runs = 0;
    for s in report.epochs.iter().flat_map(|e| &e.shards) {
        let trace = s.trace.as_ref().expect("keep_traces carries traces");
        let load = analyze_load(trace);
        let replayed = Registry::for_shard("threaded", s.shard as u32);
        replayed.ingest_trace(trace);
        for &l in &load.op_latencies {
            replayed.observe(0, MsgClass::App, metrics::OP_LATENCY, l);
        }
        replayed.ingest_stats(&trace.stats());
        assert_eq!(s.load, load, "shard {}", s.shard);
        assert_eq!(s.obs, replayed.report(), "shard {}", s.shard);
        assert_eq!(s.events, trace.events().len() as u64, "shard {}", s.shard);
        assert_eq!(s.stats, trace.stats(), "shard {}", s.shard);
        runs += 1;
    }
    assert!(runs >= 2);
    assert!(!report.detection_latencies().is_empty());
    assert!(report.obs_report().counter_total(metrics::RETX) > 0);
}

#[test]
fn the_monitor_sees_under_a_tenth_of_an_e11_shard_run() {
    // The judgeable row behind "certification costs per model event":
    // on an E11-shaped shard run the monitor is called for exactly the
    // model alphabet, and that is at most one event in ten.
    let monitor = SfsMonitor::new(16);
    let trace = ClusterSpec::new(16, 2)
        .heartbeat(fast_heartbeats())
        .seed(11)
        .crash(ProcessId::new(0), 40)
        .crash(ProcessId::new(1), 55)
        .max_time(600)
        .event_sink(monitor.handle())
        .run(Backend::Sim, Instruments::default(), |_| {
            LoadGenApp::new(LoadProfile::closed(64, 8))
        })
        .expect("16 > 2²")
        .into_trace();
    let calls = monitor.events_seen();
    assert_eq!(calls, History::from_trace(&trace).len() as u64);
    assert!(calls > 0);
    assert!(
        calls * 10 <= trace.events().len() as u64,
        "{calls} calls for {} events",
        trace.events().len()
    );
}
