//! obs-smoke — the CI gate for the telemetry layer (ISSUE 9).
//!
//! Four checks, each fatal:
//!
//! 1. **E11 epoch with telemetry**: runs the N=64 E11 cell (sim backend)
//!    through `sfs-service` and requires the merged per-shard
//!    registries to carry live op-latency and message-class data —
//!    `op_p99 > 0`, sends attributed, detections counted. Writes the
//!    merged [`RunReport`] to `OBS_REPORT.json`.
//! 2. **Four engines, one instance**: runs a common 6-process detection
//!    instance on the simulator, the event-driven threaded runtime, the
//!    ARQ transport leg, and (when the node binary is present) the UDP
//!    backend, folding every engine into one merged [`RunReport`]
//!    (`OBS_FOUR_ENGINES.json`): each leg's trace through
//!    `Registry::ingest_trace`, its counters through `ingest_stats`. Set
//!    `SFS_OBS_SMOKE_REQUIRE_UDP=1` to make a missing node binary fatal
//!    (CI does).
//! 3. **Chrome trace export**: converts the observed sim run to Chrome
//!    trace-event JSON (`OBS_TRACE.json`), re-parses it with the crate's
//!    own JSON reader, and requires a non-empty `traceEvents` array — the
//!    same artifact `sfs-trace-export` emits for Perfetto.
//! 4. **Fingerprint drift**: the sim and threaded legs run with the
//!    production observers on their event sink — streaming monitor,
//!    flight recorder and anomaly watermarks, as the service arms them.
//!    The observed sim run must be byte-identical (serialized trace) to
//!    the bare run, and the observed threaded run must land in the bare
//!    threaded run's HB class. Any drift exits nonzero.
//!
//! Artifacts land in `SFS_BENCH_OUT` (default `.`).

use sfs::{ClusterSpec, HeartbeatConfig, NetSpec, NullApp};
use sfs_asys::ProcessId;
use sfs_explore::class_fingerprint;
use sfs_history::History;
use sfs_obs::{
    metrics, AnomalyWatermarks, EventSinkHandle, FlightRecorder, Json, Registry, RunReport,
    SfsMonitor,
};
use sfs_service::{plan_shards, run_service, Backend, LoadProfile, ServiceSpec};
use std::path::PathBuf;
use std::time::Duration;

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

fn fail(msg: &str) -> ! {
    eprintln!("[obs-smoke] FAILED: {msg}");
    std::process::exit(1);
}

fn out_dir() -> PathBuf {
    std::env::var_os("SFS_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn write_artifact(name: &str, body: String) {
    let path = out_dir().join(name);
    match std::fs::write(&path, body + "\n") {
        Ok(()) => eprintln!("[obs-smoke] wrote {}", path.display()),
        Err(e) => fail(&format!("could not write {}: {e}", path.display())),
    }
}

/// The N=64 E11 cell (sim): 4 shards of 16, t=2, shard 0
/// exhausted by two scripted crashes, two epochs of closed-loop ops.
fn e11_cell() -> ServiceSpec {
    let plan = plan_shards(64, 2, 16, 11).expect("E11 shape is feasible");
    let victims: Vec<usize> = plan.shards[0].members.iter().take(2).copied().collect();
    ServiceSpec::new(64, 2, 16)
        .seed(11)
        .backend(Backend::Sim)
        .heartbeat(Some(HeartbeatConfig {
            interval: 10,
            timeout: 60,
            check_every: 15,
        }))
        .max_time(600)
        .load(LoadProfile::closed(2 * 64, 8))
        .crash(victims[0], 40)
        .crash(victims[1], 55)
}

/// The common cross-engine instance (shared shape with the
/// `obs_equiv` / `transport_equiv` integration tests).
fn common_spec(seed: u64) -> ClusterSpec {
    ClusterSpec::new(6, 2)
        .seed(seed)
        .latency(1, 1)
        .suspect(p(1), p(0), 10)
        .suspect(p(4), p(3), 25)
}

/// The observers a service shard run carries, on one event sink.
fn production_fanout(label: &str) -> EventSinkHandle {
    let recorder = FlightRecorder::new(512);
    EventSinkHandle::fanout(vec![
        SfsMonitor::new(6).handle(),
        recorder.handle(),
        AnomalyWatermarks::with_flight(label, recorder).handle(),
    ])
}

/// One engine leg's trace and counters, in a registry of its own.
fn leg_report(engine: &str, trace: &sfs_asys::Trace) -> RunReport {
    let reg = Registry::for_shard(engine, 0);
    reg.ingest_trace(trace);
    reg.ingest_stats(&trace.stats());
    reg.report()
}

fn main() {
    // ---- 1. E11 epoch with telemetry --------------------------------
    let report = run_service(&e11_cell()).unwrap_or_else(|e| fail(&format!("E11 cell: {e}")));
    let obs = report.obs_report();
    if report.op_p99() == 0 {
        fail("op_p99 is zero — op latencies never reached the registry");
    }
    if obs.counter_total(metrics::SENT) == 0 {
        fail("registry saw no sends from the service epoch loop");
    }
    if obs.counter_total(metrics::DETECTIONS) == 0 {
        fail("registry counted no detections despite scripted crashes");
    }
    eprintln!(
        "[obs-smoke] E11 N=64: op_p99={} ticks, {} sends, {} detections, {:.1} msgs/detection",
        report.op_p99(),
        obs.counter_total(metrics::SENT),
        obs.counter_total(metrics::DETECTIONS),
        report.msgs_per_detection(),
    );
    write_artifact("OBS_REPORT.json", obs.to_json());

    // ---- 2. Four engines, one RunReport -----------------------------
    let seed = 7u64;
    let mut merged = RunReport::empty("");

    let sim_obs_trace = common_spec(seed)
        .event_sink(production_fanout("obs-smoke-sim"))
        .try_run()
        .unwrap_or_else(|e| fail(&format!("sim leg: {e}")));
    merged.merge(&leg_report("sim", &sim_obs_trace));

    let thr_obs_trace = common_spec(seed)
        .event_sink(production_fanout("obs-smoke-threaded"))
        .try_run_threaded(|_| NullApp, Duration::from_millis(500))
        .unwrap_or_else(|e| fail(&format!("threaded leg: {e}")))
        .0;
    merged.merge(&leg_report("threaded", &thr_obs_trace));

    let net_trace = common_spec(seed)
        .net(NetSpec::faultless())
        .try_run_net(|_| NullApp)
        .unwrap_or_else(|e| fail(&format!("sim+net leg: {e}")));
    merged.merge(&leg_report("sim+net", &net_trace));

    let mut engines = 3;
    match sfs::udp_node_binary() {
        Ok(_) => {
            let (trace, quiesced) = common_spec(seed)
                .net(NetSpec::faultless())
                .try_run_udp(Duration::from_secs(20))
                .unwrap_or_else(|e| fail(&format!("udp leg: {e}")));
            if !quiesced {
                fail("udp leg did not quiesce");
            }
            merged.merge(&leg_report("udp", &trace));
            engines = 4;
        }
        Err(e) if std::env::var_os("SFS_OBS_SMOKE_REQUIRE_UDP").is_some() => {
            fail(&format!("udp node binary required but missing: {e}"))
        }
        Err(e) => eprintln!("[obs-smoke] udp leg skipped ({e})"),
    }
    if merged.counter_total(metrics::SENT) == 0 {
        fail("merged four-engine report carries no sends");
    }
    eprintln!(
        "[obs-smoke] merged report from {engines} engines [{}]: {} rows, {} sends",
        merged.engine(),
        merged.len(),
        merged.counter_total(metrics::SENT),
    );
    write_artifact("OBS_FOUR_ENGINES.json", merged.to_json());
    eprint!("{}", merged.to_table());

    // ---- 3. Chrome trace export -------------------------------------
    let chrome = sfs_obs::chrome::chrome_trace(&sim_obs_trace);
    match Json::parse(&chrome) {
        Ok(doc) => {
            let events = doc
                .get("traceEvents")
                .and_then(Json::as_arr)
                .unwrap_or_else(|| fail("chrome trace has no traceEvents array"));
            if events.is_empty() {
                fail("chrome trace exported zero events");
            }
            eprintln!("[obs-smoke] chrome trace: {} events", events.len());
        }
        Err(e) => fail(&format!("chrome trace does not parse: {e}")),
    }
    write_artifact("OBS_TRACE.json", chrome);
    // The interchange-format twin, consumable by `sfs-trace-export`
    // (and by `trace_from_json` anywhere else).
    write_artifact(
        "OBS_TRACE_RAW.json",
        sfs_obs::trace_json::trace_to_json(&sim_obs_trace),
    );

    // ---- 4. Fingerprint drift gate ----------------------------------
    let bare_sim = common_spec(seed)
        .try_run()
        .unwrap_or_else(|e| fail(&format!("bare sim leg: {e}")));
    if sfs_obs::trace_json::trace_to_json(&bare_sim)
        != sfs_obs::trace_json::trace_to_json(&sim_obs_trace)
    {
        fail("the observers changed the simulator's trace bytes");
    }
    let bare_thr = common_spec(seed)
        .try_run_threaded(|_| NullApp, Duration::from_millis(500))
        .unwrap_or_else(|e| fail(&format!("bare threaded leg: {e}")))
        .0;
    let (fp_bare, fp_obs) = (
        class_fingerprint(&History::from_trace(&bare_thr)),
        class_fingerprint(&History::from_trace(&thr_obs_trace)),
    );
    if fp_bare != fp_obs {
        fail(&format!(
            "the observers moved the threaded HB class: bare {fp_bare:#018x} vs obs {fp_obs:#018x}"
        ));
    }
    eprintln!("[obs-smoke] fingerprints clean: sim byte-identical, threaded class {fp_obs:#018x}");
    eprintln!("[obs-smoke] OK");
}
