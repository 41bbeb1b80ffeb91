//! Every call into the library crates goes through this file, and only
//! this file names their items: the `use` block below is the benchmark's
//! **pinned API surface** (mirrored in README.md). A later PR that renames
//! or removes one of these items must take the change through a
//! `benchmark` issue.
//!
//! Each call into a layer is wrapped in one span (`<layer>.<fn>`), and
//! the numbers the library returns (`Trace`/`SimStats`/`ServiceReport`/
//! `ExploreStats`) are folded into an [`Outcome`] at the same boundary.

use crate::trace::Tracer;
use sfs::{
    AdaptiveConfig, ClusterSpec, HeartbeatConfig, NetSpec, NullApp, ProbeConfig, SfsMsg,
    TransportMsg, NOTE_PROBE_SUSPECT, NOTE_RETX,
};
use sfs_apps::scenarios::{ExploreInstance, NetScenario};
use sfs_asys::net::{Runtime, RuntimeConfig};
use sfs_asys::{Context, Note, Process, ProcessId, Sim, TimerWheel, TraceEventKind, VirtualTime};
use sfs_chaos::ChaosSpec;
use sfs_explore::{ExploreConfig, Pruning};
use sfs_history::{rearrange_to_fs, HappensBefore, History};
use sfs_obs::{metrics, LogHistogram, MsgClass, Registry, SfsMonitor};
use sfs_service::{plan_shards, run_service, Backend, LoadGenApp, LoadProfile, ServiceSpec};
use sfs_tlogic::properties::{check_sfs_suite, suite_ok};
use sfs_wire::{decode_frame, encode_frame, wire_cost, FrameHeader};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

pub use sfs_asys::Trace;
pub use sfs_obs::Json;

/// What one iteration (or one probe) produced. `counts` repeat exactly on
/// the simulator; `lib_seconds` are wall times the library itself
/// reported (epoch walls), which do not.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    pub counts: BTreeMap<&'static str, u64>,
    pub lib_seconds: BTreeMap<&'static str, f64>,
    /// Crash→detection latencies, simulated ticks.
    pub det_latencies: Vec<u64>,
    /// Client-op issue→completion latencies, simulated ticks.
    pub op_latencies: Vec<u64>,
    /// Units of work whose output was checked (runs, ops, shard runs,
    /// traces, explored instances) …
    pub attempted: u64,
    /// … and how many of them failed the check.
    pub failed: u64,
    /// The first few failure reasons, for the log.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn add(&mut self, name: &'static str, v: u64) {
        *self.counts.entry(name).or_insert(0) += v;
    }

    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    fn add_seconds(&mut self, name: &'static str, s: f64) {
        *self.lib_seconds.entry(name).or_insert(0.0) += s;
    }

    pub fn seconds(&self, name: &str) -> f64 {
        self.lib_seconds.get(name).copied().unwrap_or(0.0)
    }

    /// Records `attempted` checked units of work, `failed` of which
    /// failed the check for the reason `what` gives.
    pub fn record(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.failures.len() < 8 {
            self.failures.push(what());
        }
    }

    /// Records one checked unit of work.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.record(1, u64::from(!ok), what);
    }

    /// Takes over the checks (not the counts) of `other`.
    pub fn absorb_checks(&mut self, other: &Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.failures.len());
        self.failures
            .extend(other.failures.iter().take(room).cloned());
    }
}

// ---- engine runs on the simulator ---------------------------------------

/// One splitmix64 step: the deterministic mix behind inputs the benchmark
/// draws itself (not the library's rng stream). Mixes well even from the
/// small consecutive seeds runs are given.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `detect_sim`: the bare §5 protocol — 50 processes, `t = 7`, heartbeat
/// detection, seven staggered crashes, 600-tick horizon. Crash `i` falls
/// at a tick drawn from `seed` inside its 40-tick window, so detection
/// latencies and message counts, not only the schedule, move with `seed`.
fn detect_spec(seed: u64) -> ClusterSpec {
    let mut spec = ClusterSpec::new(50, 7)
        .heartbeat(HeartbeatConfig {
            interval: 10,
            timeout: 60,
            check_every: 15,
        })
        .seed(seed)
        .max_time(600);
    let mut rng = seed;
    for i in 0..7 {
        let at = 60 + 40 * i as u64 + splitmix64(&mut rng) % 40;
        spec = spec.crash(ProcessId::new(49 - i), at);
    }
    spec
}

/// One `detect_sim` run, folded into `out` and checked: every survivor
/// must have detected every crashed process within the horizon.
pub fn run_detect(tr: &mut Tracer, out: &mut Outcome, seed: u64) {
    let spec = detect_spec(seed);
    let span = tr.enter("asys.sim.try_run");
    let trace = spec.try_run().expect("detect_sim shape is feasible");
    tr.exit(span);
    let all_detected = fold_trace(out, &trace);
    out.check(all_detected, || {
        format!("detect_sim seed {seed}: a survivor missed a crash")
    });
}

/// The `faulty_net` spec: §5 inside the ARQ transport over a link losing
/// `loss` of all frames, probe-driven (endogenous) suspicion, one crash.
fn net_spec(seed: u64, loss: f64) -> ClusterSpec {
    NetScenario::Loss(loss).spec(17, 4, seed)
}

/// One transport-backed run with the wire-byte measure installed.
pub fn run_net(tr: &mut Tracer, seed: u64, loss: f64) -> Trace {
    let spec = net_spec(seed, loss);
    let span = tr.enter("asys.sim.try_run_net_measured");
    let trace = spec
        .try_run_net_measured()
        .expect("faulty_net shape is feasible");
    tr.exit(span);
    trace
}

/// A stored trace for `certify_posthoc`: the `faulty_net` shape on a
/// loss-free link, carrying a closed loop of 256 client ops so that the
/// history holds thousands of model-level events (a bare detection run
/// leaves the checkers about seventeen), cut at 2 000 ticks — long after
/// the crash is detected and the load is done — to bound memory.
pub fn stored_trace(seed: u64) -> Trace {
    net_spec(seed, 0.0)
        .max_time(2_000)
        .try_run_net(|_| LoadGenApp::new(LoadProfile::closed(256, 8)))
        .expect("faulty_net shape is feasible")
}

/// Folds one engine trace into `out`; returns whether every process that
/// outlived the run detected every crashed one.
pub fn fold_trace(out: &mut Outcome, trace: &Trace) -> bool {
    let n = trace.n();
    let mut crash_at: Vec<Option<u64>> = vec![None; n];
    let mut detected = vec![false; n * n];
    for e in trace.events() {
        match &e.kind {
            TraceEventKind::Crash { pid } => {
                crash_at[pid.index()].get_or_insert(e.time.ticks());
            }
            TraceEventKind::Failed { by, of } => {
                detected[by.index() * n + of.index()] = true;
                if let Some(c) = crash_at[of.index()] {
                    out.det_latencies.push(e.time.ticks().saturating_sub(c));
                }
            }
            TraceEventKind::Note {
                note: Note::KeyVal { key, val },
                ..
            } => {
                if key == NOTE_RETX {
                    out.add("transport.retx_frames", val.parse().unwrap_or(0));
                } else if key == NOTE_PROBE_SUSPECT {
                    // A suspicion is false when its target had not
                    // crashed yet (event order is causal).
                    let target = val.strip_prefix('p').and_then(|v| v.parse::<usize>().ok());
                    if target.is_none_or(|g| crash_at.get(g).is_none_or(|c| c.is_none())) {
                        out.add("transport.false_suspicions", 1);
                    }
                }
            }
            _ => {}
        }
    }
    let stats = trace.stats();
    out.add("asys.sim.events", trace.events().len() as u64);
    out.add("asys.timers_fired", stats.timers_fired);
    out.add("asys.link.dropped", stats.messages_dropped);
    out.add("asys.link.duplicated", stats.messages_duplicated);
    out.add("core.msgs_sent", stats.messages_sent);
    out.add("core.detections", stats.detections);
    out.add("core.crashes", stats.crashes);
    out.add("core.wire_bytes", stats.wire_bytes);
    let survivors = (0..n).filter(|&s| crash_at[s].is_none());
    let crashed: Vec<usize> = (0..n).filter(|&v| crash_at[v].is_some()).collect();
    survivors
        .flat_map(|s| crashed.iter().map(move |&v| s * n + v))
        .all(|i| detected[i])
}

// ---- post-hoc certification ----------------------------------------------

/// Certifies one trace post hoc: history → happens-before → the sFS suite
/// → the Theorem 5 rearrangement. One span per call.
pub fn certify(tr: &mut Tracer, out: &mut Outcome, trace: &Trace) {
    let span = tr.enter("history.from_trace");
    let h = History::from_trace(trace);
    tr.exit(span);
    let span = tr.enter("history.hb_compute");
    black_box(HappensBefore::compute(&h));
    tr.exit(span);
    let span = tr.enter("tlogic.check_sfs_suite");
    let reports = check_sfs_suite(&h, true);
    tr.exit(span);
    let span = tr.enter("history.rearrange_to_fs");
    let rearranged = rearrange_to_fs(&h.complete_missing_crashes()).is_ok();
    tr.exit(span);
    out.add("history.trace_events", trace.events().len() as u64);
    out.add("history.model_events", h.len() as u64);
    out.check(suite_ok(&reports) && rearranged, || {
        let bad: Vec<&str> = reports
            .iter()
            .filter(|r| !r.is_ok())
            .map(|r| r.property)
            .collect();
        format!("post-hoc certification failed: {bad:?}, Theorem 5 ok: {rearranged}")
    });
}

/// The five exhaustive 3-process instances of experiment E9, with the
/// number of properties (of 9) each is known to certify.
pub struct Instance {
    inner: ExploreInstance,
    certifies: usize,
}

pub fn explore_instances() -> Vec<Instance> {
    let p = ProcessId::new;
    let base = || ClusterSpec::new(3, 1).suspect(p(1), p(0), 10);
    let specs = [
        (base(), 9),
        (base().suspect(p(2), p(1), 12), 6),
        (base().suspect(p(0), p(1), 10), 6),
        (base().crash(p(2), 20), 8),
        (base().without_self_crash(), 7),
    ];
    specs
        .into_iter()
        .map(|(spec, certifies)| {
            let mut inner = ExploreInstance::new(spec);
            inner.config = ExploreConfig {
                max_steps: 600,
                max_schedules: 200_000,
                pruning: Pruning::SleepSets,
            };
            Instance { inner, certifies }
        })
        .collect()
}

/// Explores one instance's whole schedule space, serially.
pub fn explore(tr: &mut Tracer, out: &mut Outcome, inst: &Instance) {
    let span = tr.enter("explore.explore");
    let o = inst.inner.explore();
    tr.exit(span);
    out.add("explore.schedules", o.stats.schedules as u64);
    out.add("explore.visited", o.stats.visited as u64);
    out.add("explore.steps", o.stats.steps);
    out.add("explore.classes", o.classes() as u64);
    out.add("explore.redundant", o.stats.redundant as u64);
    out.add("explore.skips", o.stats.sleep_skips + o.stats.forced_skips);
    out.add("explore.trace_events", o.trace_events);
    let certified = o.properties.iter().filter(|c| c.certified).count();
    out.check(
        o.stats.complete && o.properties.len() == 9 && certified == inst.certifies,
        || {
            format!(
                "explore: complete={}, certified {certified}/{} (expected {}/9)",
                o.stats.complete,
                o.properties.len(),
                inst.certifies
            )
        },
    );
}

// ---- the sharded service ---------------------------------------------------

/// A service deployment.
pub struct Service(ServiceSpec);

/// The E11 cell: `n` processes in 16-process shards (`t = 2`), two epochs,
/// shard 0's budget exhausted by two scripted crashes, a closed loop of
/// `4·n` ops (8 outstanding), certified online, unbatched. The crash
/// ticks stay fixed: an iteration sees only two crashes, so its
/// `det_p95_ticks` is one latency from the tail, and drawing the ticks
/// from `seed` spread it past its bound on the simulator (72–87 over ten
/// seeds).
pub fn service_e11(n: usize, threaded: bool, seed: u64) -> Service {
    let plan = plan_shards(n, 2, 16, seed).expect("E11 shapes are feasible");
    let victims: Vec<usize> = plan.shards[0].members.iter().take(2).copied().collect();
    let ops = 4 * n as u64;
    let spec = ServiceSpec::new(n, 2, 16)
        .seed(seed)
        .backend(if threaded {
            Backend::Threaded
        } else {
            Backend::Sim
        })
        .batched(false)
        .heartbeat(Some(HeartbeatConfig {
            interval: 10,
            timeout: 60,
            check_every: 15,
        }))
        .max_time(600)
        .certify_online(true)
        .load(LoadProfile::closed(ops, 8))
        .crash(victims[0], 40)
        .crash(victims[1], 55);
    Service(spec)
}

/// The E13 certify-online cell: 256 processes, three epochs over a link
/// with 2 % loss and 2 % duplication, adaptive transport timeouts, one
/// chaos overlay (Poisson crashes, a training flap, a delay storm),
/// watermarks armed, no trace retention. The fault plan is drawn from
/// `plan_seed`, which the workload fixes — it is part of the workload's
/// definition; `seed` drives the shard plan, the link and the scheduler.
pub fn service_chaos(plan_seed: u64, seed: u64) -> Service {
    let n = 256;
    let chaos = ChaosSpec::new(n / 16, 2)
        .seed(plan_seed)
        .horizon(3, 1_000)
        .flaps(vec![(150, 220)])
        .storm(400, 560, 110);
    let net = NetSpec::faultless()
        .loss(0.02)
        .duplicate(0.02)
        .probe(ProbeConfig {
            interval: 20,
            timeout: 100,
            check_every: 5,
        })
        .adaptive(AdaptiveConfig::default());
    let ops = 2 * n as u64;
    let spec = ServiceSpec::new(n, 2, 16)
        .seed(seed)
        .heartbeat(None)
        .epochs(3)
        .max_time(2_000)
        .keep_traces(false)
        .certify_online(true)
        .watermarks(true)
        .load(LoadProfile::closed(ops, 8))
        .net(net)
        .chaos(chaos);
    Service(spec)
}

impl Service {
    /// The same deployment with online certification switched off (the
    /// denominator of `obs.monitor_overhead_ratio`).
    pub fn uncertified(&self) -> Service {
        Service(self.0.clone().certify_online(false))
    }

    /// Ops a correct run completes: the profile's, once per epoch.
    fn expected_ops(&self) -> u64 {
        self.0.load.ops * self.0.epochs.max(1)
    }

    /// Crashes the chaos overlay plans (0 without one). Timed as the
    /// chaos layer's own span.
    pub fn plan_chaos(&self, tr: &mut Tracer, out: &mut Outcome) {
        if let Some(chaos) = &self.0.chaos {
            let span = tr.enter("chaos.plan");
            let plan = chaos.plan();
            tr.exit(span);
            out.add("chaos.crashes_planned", plan.total_crashes() as u64);
        }
    }
}

/// One service run, folded into `out` and checked: every op the profile
/// issues completes, and every shard run's online verdicts all hold.
pub fn run_service_once(tr: &mut Tracer, out: &mut Outcome, svc: &Service) {
    let span = tr.enter("service.run_service");
    let report = run_service(&svc.0).expect("service shape is feasible");
    tr.exit(span);
    let engine_events = match svc.0.backend {
        Backend::Threaded => "asys.router.events",
        Backend::Sim => "asys.sim.events",
    };
    let certifying = svc.0.certify_online;
    let mut epoch_total = 0.0;
    for e in &report.epochs {
        let name = match e.epoch {
            1 => "service.epoch1",
            2 => "service.epoch2",
            _ => "service.epoch3plus",
        };
        out.add_seconds(name, e.wall_ms / 1e3);
        epoch_total += e.wall_ms / 1e3;
        out.add("service.rescued_ops", e.rescued_ops);
        for s in &e.shards {
            out.add("service.shard_runs", 1);
            out.add(engine_events, s.events);
            out.add("asys.timers_fired", s.stats.timers_fired);
            out.add("asys.link.dropped", s.stats.messages_dropped);
            out.add("asys.link.duplicated", s.stats.messages_duplicated);
            out.add("asys.router.delivery_batches", s.stats.delivery_batches);
            out.add("core.msgs_sent", s.stats.messages_sent);
            out.add("core.detections", s.stats.detections);
            out.add("core.crashes", s.stats.crashes);
            out.add("core.wire_bytes", s.stats.wire_bytes);
            out.add("transport.retx_frames", s.obs.counter_total(metrics::RETX));
            out.add("service.ops_issued", s.load.issued);
            out.add("service.ops_completed", s.load.completed);
            out.det_latencies.extend(&s.detection_latencies);
            out.op_latencies.extend(&s.load.op_latencies);
            if certifying {
                let ok = s.verdicts.as_ref().is_some_and(|v| v.all_ok());
                out.check(ok, || {
                    format!(
                        "epoch {} shard {}: online verdicts {:?}",
                        e.epoch,
                        s.shard,
                        s.verdicts.as_ref().and_then(|v| v.first_violation())
                    )
                });
            }
        }
    }
    out.add("service.exhausted_shards", report.exhausted.len() as u64);
    out.add_seconds("service.epochs", epoch_total);
    out.add_seconds("service.non_epoch", report.wall_ms / 1e3 - epoch_total);
    // Every op counts as one attempted unit; the ones that never
    // completed are the failures.
    let (expected, completed) = (svc.expected_ops(), report.ops_completed());
    out.record(expected, expected.abs_diff(completed), || {
        format!("service completed {completed} of {expected} ops")
    });
}

// ---- replay micro-timings (traced pass only) -------------------------------
//
// Each probe feeds one layer's public functions directly and returns
// nanoseconds per operation. Inputs are fixed shapes seeded from the run's
// `--seed`; none of them depends on which workload is being traced.

fn ns_per(start: Instant, ops: u64) -> f64 {
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// A protocol-free process: floods every peer at start, and passes each
/// received token on until its hop budget is spent.
struct Storm;

impl Process<u32> for Storm {
    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        ctx.broadcast(40, false);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: ProcessId, hops: u32) {
        if hops > 0 {
            let next = ProcessId::new((from.index() + 1) % ctx.n());
            ctx.send(next, hops - 1);
        }
    }
}

/// `asys.sim.bare_ns_per_event`: an all-to-all ping storm through the
/// simulator with no protocol on top — the floor under `detect_sim`.
pub fn probe_bare_sim(tr: &mut Tracer, seed: u64) -> f64 {
    let sim = Sim::<u32>::builder(50)
        .seed(seed)
        .build(|_| Box::new(Storm));
    let span = tr.enter("asys.sim.run");
    let start = Instant::now();
    let trace = sim.run();
    let ns = ns_per(start, trace.events().len() as u64);
    tr.exit(span);
    ns
}

struct Idle;

impl Process<u32> for Idle {
    fn on_start(&mut self, _: &mut Context<'_, u32>) {}
    fn on_message(&mut self, _: &mut Context<'_, u32>, _: ProcessId, _: u32) {}
}

/// `asys.router.spawn_shutdown_us`: spawning and shutting down an idle
/// 16-node threaded runtime (17 OS threads), microseconds per cycle —
/// what every threaded shard run pays before its first event.
pub fn probe_spawn_shutdown(tr: &mut Tracer) -> f64 {
    const CYCLES: u64 = 15;
    let span = tr.enter("asys.router.spawn_shutdown");
    let start = Instant::now();
    for _ in 0..CYCLES {
        let rt = Runtime::<u32>::spawn(16, RuntimeConfig::default(), |_| Box::new(Idle));
        black_box(rt.shutdown());
    }
    let us = ns_per(start, CYCLES) / 1e3;
    tr.exit(span);
    us
}

/// Timer-wheel insert / fire / cancel, nanoseconds per entry, on the
/// deadline mix of a 16-node heartbeat shard: link delays of 1–10 ticks,
/// heartbeat intervals of 10, timeout scans every 15, timeouts of 60,
/// over a 600-tick horizon.
pub fn probe_wheel(tr: &mut Tracer, seed: u64) -> (f64, f64, f64) {
    const ROUNDS: u64 = 40;
    let mut rng = seed;
    let span = tr.enter("asys.wheel.replay");
    let (mut insert_ns, mut fire_ns, mut cancel_ns) = (0u128, 0u128, 0u128);
    let (mut inserted, mut fired, mut cancelled) = (0u64, 0u64, 0u64);
    for _ in 0..ROUNDS {
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        let mut cancellable = Vec::new();
        for now in (0..600u64).step_by(5) {
            let start = Instant::now();
            for k in 0..64 {
                let delta = match k % 8 {
                    0 => 10,
                    1 => 15,
                    2 => 60,
                    _ => 1 + splitmix64(&mut rng) % 10,
                };
                let id = wheel.insert(VirtualTime::from_ticks(now + delta), k);
                if delta == 60 {
                    cancellable.push(id);
                }
            }
            insert_ns += start.elapsed().as_nanos();
            inserted += 64;
            // Heartbeats arrive, so most timeout entries are cancelled
            // before they fire.
            let start = Instant::now();
            for id in cancellable.drain(..) {
                cancelled += u64::from(wheel.cancel(id));
            }
            cancel_ns += start.elapsed().as_nanos();
            let start = Instant::now();
            fired += wheel.advance_to(VirtualTime::from_ticks(now + 5)).len() as u64;
            fire_ns += start.elapsed().as_nanos();
        }
    }
    tr.exit(span);
    (
        insert_ns as f64 / inserted.max(1) as f64,
        fire_ns as f64 / fired.max(1) as f64,
        cancel_ns as f64 / cancelled.max(1) as f64,
    )
}

/// Wire-codec timings over the frame mix of one `faulty_net` run.
pub struct WireTimings {
    pub encode_ns_per_frame: f64,
    pub decode_ns_per_frame: f64,
    pub cost_ns_per_msg: f64,
    pub bytes_per_frame: f64,
}

type Frame = TransportMsg<SfsMsg<()>>;

/// Rebuilds the frames one `faulty_net` run sent, from a run of the same
/// spec with payload recording on.
fn frame_mix(seed: u64) -> Vec<Frame> {
    let trace = net_spec(seed, 0.10)
        .try_build_net_with(|b| b.record_payloads(true), |_| NullApp)
        .expect("faulty_net shape is feasible")
        .run();
    let mut frames = Vec::new();
    for e in trace.events() {
        let TraceEventKind::Send {
            payload: Some(p),
            to,
            ..
        } = &e.kind
        else {
            continue;
        };
        let seq = frames.len() as u64;
        frames.push(if p.starts_with("Ping") {
            TransportMsg::Ping
        } else if p.starts_with("Ack") {
            TransportMsg::Ack { upto: seq }
        } else {
            let payload = if p.contains("Heartbeat") {
                SfsMsg::Heartbeat
            } else {
                SfsMsg::Susp { suspect: *to }
            };
            TransportMsg::Data {
                seq,
                logical: seq,
                payload,
            }
        });
    }
    frames
}

pub fn probe_wire(tr: &mut Tracer, seed: u64) -> WireTimings {
    const PASSES: u64 = 4;
    let frames = frame_mix(seed);
    let count = frames.len() as u64 * PASSES;
    let header = FrameHeader {
        src: 1,
        dst: 2,
        seq: 7,
        lamport: 11,
    };
    let span = tr.enter("wire.replay");
    let start = Instant::now();
    let mut bytes = 0u64;
    for _ in 0..PASSES {
        for f in &frames {
            bytes += black_box(encode_frame(header, black_box(f))).len() as u64;
        }
    }
    let encode_ns_per_frame = ns_per(start, count);
    let encoded: Vec<Vec<u8>> = frames.iter().map(|f| encode_frame(header, f)).collect();
    let start = Instant::now();
    for _ in 0..PASSES {
        for b in &encoded {
            black_box(decode_frame::<Frame>(black_box(b)).expect("own frames decode"));
        }
    }
    let decode_ns_per_frame = ns_per(start, count);
    let start = Instant::now();
    let mut cost = 0u64;
    for _ in 0..PASSES {
        for f in &frames {
            cost += wire_cost(black_box(f));
        }
    }
    let cost_ns_per_msg = ns_per(start, count);
    tr.exit(span);
    debug_assert_eq!(cost, bytes, "wire_cost must equal the encoded length");
    WireTimings {
        encode_ns_per_frame,
        decode_ns_per_frame,
        cost_ns_per_msg,
        bytes_per_frame: bytes as f64 / count.max(1) as f64,
    }
}

/// Observability-sink timings on a stored trace.
pub struct ObsTimings {
    pub monitor_ns_per_event: f64,
    pub registry_ingest_ns_per_event: f64,
    pub registry_record_ns: f64,
    pub hist_record_ns: f64,
}

pub fn probe_obs(tr: &mut Tracer, trace: &Trace) -> ObsTimings {
    const RECORDS: u64 = 200_000;
    let events = trace.events().len() as u64;
    let span = tr.enter("obs.replay");
    let monitor = SfsMonitor::new(trace.n());
    let start = Instant::now();
    monitor.ingest_trace(trace);
    black_box(monitor.finish(true));
    let monitor_ns_per_event = ns_per(start, events);
    let registry = Registry::new("sim");
    let start = Instant::now();
    registry.ingest_trace(trace);
    let registry_ingest_ns_per_event = ns_per(start, events);
    let start = Instant::now();
    for i in 0..RECORDS {
        registry.add((i % 16) as u32, MsgClass::Infra, metrics::SENT, 1);
    }
    let registry_record_ns = ns_per(start, RECORDS);
    black_box(registry.report());
    let mut hist = LogHistogram::new();
    let start = Instant::now();
    for i in 0..RECORDS {
        hist.record(black_box(i % 4_096));
    }
    let hist_record_ns = ns_per(start, RECORDS);
    black_box(hist.p99());
    tr.exit(span);
    ObsTimings {
        monitor_ns_per_event,
        registry_ingest_ns_per_event,
        registry_record_ns,
        hist_record_ns,
    }
}

/// `service.plan_us`: planning 1024 processes into 16-process shards.
pub fn probe_plan(tr: &mut Tracer, seed: u64) -> f64 {
    const PLANS: u64 = 20;
    let span = tr.enter("service.plan_shards");
    let start = Instant::now();
    for i in 0..PLANS {
        black_box(plan_shards(1024, 2, 16, seed.wrapping_add(i)).expect("feasible"));
    }
    let us = ns_per(start, PLANS) / 1e3;
    tr.exit(span);
    us
}

/// `transport.faultless_overhead_ratio`: frames of a loss-free
/// transport-backed run over the messages of the bare protocol on the
/// same instance — what re-earning the channel axioms costs when nothing
/// is ever lost.
pub fn probe_transport_overhead(tr: &mut Tracer, seed: u64) -> f64 {
    let net = net_spec(seed, 0.0);
    let span = tr.enter("transport.faultless_pair");
    let wrapped = net.try_run_net(|_| NullApp).expect("feasible");
    // The bare twin keeps the crash script and horizon; detection comes
    // from protocol heartbeats at the probe's cadence instead.
    let mut bare = ClusterSpec::new(net.n, net.t)
        .seed(seed)
        .max_time(net.max_time.ticks())
        .heartbeat(HeartbeatConfig {
            interval: 20,
            timeout: 250,
            check_every: 25,
        });
    for &(victim, at) in &net.crashes {
        bare = bare.crash(victim, at);
    }
    let bare = bare.try_run().expect("feasible");
    tr.exit(span);
    wrapped.stats().messages_sent as f64 / bare.stats().messages_sent.max(1) as f64
}
