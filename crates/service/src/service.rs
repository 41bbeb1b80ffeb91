//! The service engine: epochs of sharded load, health reporting, and
//! directory-driven rebalancing, on either execution backend.
//!
//! One [`ServiceSpec`] describes a deployment: total processes, the
//! per-shard failure bound, the load profile, scripted crashes, an
//! optional chaos orchestration, and the backend (deterministic
//! simulator or the threaded runtime). Running it executes a
//! **continuous epoch loop** (default two epochs, E13 soaks run more):
//!
//! 1. At the top of every epoch the [directory](crate::directory)
//!    decides a routing table from the cumulative per-shard detection
//!    counts — shards whose failure budget is exhausted are marked
//!    *degraded* and their key slots shed to healthy donors. The client
//!    key space is routed over the table and every involved shard runs
//!    its slice of the load concurrently (one rayon task each), so a
//!    1024-process deployment is 64 independent 16-process groups, not
//!    one Θ(n²) broadcast domain. Scripted crashes land in epoch 1;
//!    chaos overlays (Poisson crashes, flapping partitions, delay
//!    storms from [`sfs_chaos::ChaosPlan`]) land in their planned epoch.
//! 2. A shard that exhausts its budget *mid-epoch* may leave routed ops
//!    unserved; those stranded ops are rescued within the same epoch by
//!    re-routing them round-robin over the still-healthy shards. The
//!    loop then keeps serving: failures are permanent (sFS2a), so later
//!    epochs run each shard as its survivors with the remaining budget,
//!    and the rebalancing invariant — no op is ever routed to an
//!    exhausted shard — is pinned by property tests.
//!
//! Each shard run folds into a [`ShardOutcome`] — load outcome, engine
//! counters, telemetry, detection latencies — in one pass over its
//! events, and the outcomes into a [`ServiceReport`] carrying throughput,
//! message counts, and the detection-latency distribution: the measured
//! quantities behind experiments E11 and E13. The fold reads only notes,
//! crashes and detections (under 1 % of a heartbeat-driven run) and rides
//! the run's event sink on both backends, next to the online monitor and
//! the watermarks; [`ServiceSpec::keep_traces`] only decides whether the
//! trace is kept — off, **neither backend ever builds one**.

use crate::directory::{Directory, DirectoryError, DirectorySpec, RoutingTable, ShardReport};
use crate::load::{LoadFold, LoadGenApp, LoadOutcome, LoadProfile};
use crate::plan::{plan_shards, PlanError, ShardId, ShardPlan, ShardSpec};
use rayon::prelude::*;
use sfs::{
    Backend, ClusterSpec, HeartbeatConfig, Instruments, NetSpec, QuorumError, RunOutcome, SpecError,
};
use sfs_asys::{
    EventSink, EventSinkHandle, Interest, ProcessId, SimStats, Trace, TraceEvent, TraceEventKind,
    VirtualTime,
};
use sfs_chaos::{ChaosPlan, ChaosSpec, ShardChaos};
use sfs_obs::{
    metrics, AnomalyWatermarks, FlightRecorder, LogHistogram, MsgClass, Registry, RunReport,
    SfsMonitor, SuiteVerdicts, TraceIngest,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Declarative description of one sharded service deployment.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    /// Total processes across all shards.
    pub total: usize,
    /// Per-shard failure bound.
    pub t: usize,
    /// Target shard size (must exceed `t²`).
    pub shard_target: usize,
    /// The directory group's own shape.
    pub dir: DirectorySpec,
    /// Base seed (shards derive per-shard seeds from it).
    pub seed: u64,
    /// Execution backend for the shard groups.
    pub backend: Backend,
    /// Ops per epoch, routed over the whole key space.
    pub load: LoadProfile,
    /// Heartbeats for the shard groups (needed for crash detection).
    pub heartbeat: Option<HeartbeatConfig>,
    /// Scripted crashes `(global process, tick)` landing in epoch 1.
    pub crashes: Vec<(usize, u64)>,
    /// Epochs in the run (the continuous epoch loop; at least 1).
    pub epochs: u64,
    /// Chaos orchestration: when set, the spec is expanded once into a
    /// deterministic per-`(epoch, shard)` overlay plan — Poisson
    /// crashes, flapping partitions, delay storms — applied on top of
    /// the scripted crashes and the base network. Flap and storm
    /// windows need [`ServiceSpec::net`] to exist (they live on the
    /// link seam); overlay crashes apply on any backend.
    pub chaos: Option<ChaosSpec>,
    /// Carry each shard run's full trace on its [`ShardOutcome`] (for
    /// downstream certification of the sFS properties). Off by default
    /// to keep large sweeps lean — **off: no trace is ever built**, on
    /// either backend (`Sim::run_unrecorded`, or a runtime spawned with
    /// `RuntimeConfig::record` off). The outcome is folded live from the
    /// run's event sink either way.
    pub keep_traces: bool,
    /// Certify the sFS suite **online**: attach a streaming
    /// [`SfsMonitor`] to every shard run (O(n + active failures) state,
    /// fed event-by-event through the write-only trace sink) and carry
    /// its [`SuiteVerdicts`] on each [`ShardOutcome`]. Orthogonal to
    /// [`ServiceSpec::keep_traces`] — this is how a soak certifies
    /// without retaining traces at all.
    pub certify_online: bool,
    /// Arm anomaly watermarks on every shard run: a [`FlightRecorder`]
    /// and an [`AnomalyWatermarks`] sink ride the run's event sink, and a
    /// signal inflating past its learned baseline (RTO, suspicion rate)
    /// dumps the ring under `SFS_FLIGHT_DIR` *before* any certification
    /// gate fails. Trips are carried on each [`ShardOutcome`]; the soak
    /// benches arm this.
    pub watermarks: bool,
    /// Virtual-time horizon per shard run.
    pub max_time: u64,
    /// The network beneath every shard group, for faulty-net
    /// deployments: when set, each shard runs transport-backed
    /// (`sfs-transport` ARQ over the described faulty link) instead of
    /// on assumed-reliable channels. Partition schedules are expressed
    /// in **shard-local** process ids and apply to every shard alike.
    pub net: Option<NetSpec>,
}

impl ServiceSpec {
    /// A service of `total` processes in shards of about `shard_target`,
    /// each tolerating `t` failures, with a modest closed-loop load.
    pub fn new(total: usize, t: usize, shard_target: usize) -> Self {
        ServiceSpec {
            total,
            t,
            shard_target,
            dir: DirectorySpec::default(),
            seed: 0,
            backend: Backend::Sim,
            load: LoadProfile::closed(total as u64, 4),
            heartbeat: Some(HeartbeatConfig::default()),
            crashes: Vec::new(),
            epochs: 2,
            chaos: None,
            keep_traces: false,
            certify_online: false,
            watermarks: false,
            max_time: 5_000,
            net: None,
        }
    }

    /// Installs a faulty network beneath every shard (see
    /// [`ServiceSpec::net`]).
    pub fn net(mut self, net: NetSpec) -> Self {
        self.net = Some(net);
        self
    }

    /// Sets or disables shard heartbeats. Without them, crash-free runs
    /// quiesce (nice for tests); with them, crashes are actually
    /// detected (required whenever [`ServiceSpec::crash`] is used).
    pub fn heartbeat(mut self, hb: Option<HeartbeatConfig>) -> Self {
        self.heartbeat = hb;
        self
    }

    /// Sets the virtual-time horizon per shard run.
    pub fn max_time(mut self, t: u64) -> Self {
        self.max_time = t;
        self
    }

    /// Sets the backend.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets nothing: the threaded runtime runs each process's due work in
    /// a round as one batch and the simulator has one loop mode, so there
    /// is no switch left to set.
    /// Kept for source compatibility with callers that still pass one.
    pub fn batched(self, _on: bool) -> Self {
        self
    }

    /// Sets the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-epoch load.
    pub fn load(mut self, load: LoadProfile) -> Self {
        self.load = load;
        self
    }

    /// Schedules a crash of global process `g` at `tick` (epoch 1).
    pub fn crash(mut self, g: usize, tick: u64) -> Self {
        self.crashes.push((g, tick));
        self
    }

    /// Sets the epoch count of the continuous loop (clamped to ≥ 1).
    pub fn epochs(mut self, epochs: u64) -> Self {
        self.epochs = epochs.max(1);
        self
    }

    /// Installs a chaos orchestration (see [`ServiceSpec::chaos`]).
    pub fn chaos(mut self, chaos: ChaosSpec) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Toggles trace carrying (see [`ServiceSpec::keep_traces`]).
    pub fn keep_traces(mut self, on: bool) -> Self {
        self.keep_traces = on;
        self
    }

    /// Toggles online certification (see
    /// [`ServiceSpec::certify_online`]).
    pub fn certify_online(mut self, on: bool) -> Self {
        self.certify_online = on;
        self
    }

    /// Toggles anomaly watermarks (see [`ServiceSpec::watermarks`]).
    pub fn watermarks(mut self, on: bool) -> Self {
        self.watermarks = on;
        self
    }
}

/// Why a service run failed before producing a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The deployment could not be partitioned.
    Plan(PlanError),
    /// A shard group's shape was rejected (should be impossible for a
    /// successful plan; surfaced rather than unwrapped).
    Quorum(QuorumError),
    /// A shard group's cluster configuration was rejected for a
    /// non-quorum reason (e.g. inverted latency bounds).
    Spec(SpecError),
    /// The directory could not decide a routing table.
    Directory(DirectoryError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Plan(e) => write!(f, "planning failed: {e}"),
            ServiceError::Quorum(e) => write!(f, "shard rejected: {e}"),
            ServiceError::Spec(e) => write!(f, "shard rejected: {e}"),
            ServiceError::Directory(e) => write!(f, "directory failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<PlanError> for ServiceError {
    fn from(e: PlanError) -> Self {
        ServiceError::Plan(e)
    }
}
impl From<QuorumError> for ServiceError {
    fn from(e: QuorumError) -> Self {
        ServiceError::Quorum(e)
    }
}

impl From<SpecError> for ServiceError {
    fn from(e: SpecError) -> Self {
        match e {
            SpecError::Quorum(q) => ServiceError::Quorum(q),
            other => ServiceError::Spec(other),
        }
    }
}
impl From<DirectoryError> for ServiceError {
    fn from(e: DirectoryError) -> Self {
        ServiceError::Directory(e)
    }
}

/// What one shard's run in one epoch amounted to.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// The shard.
    pub shard: ShardId,
    /// Members.
    pub n: usize,
    /// Ops routed to it this epoch.
    pub ops_routed: u64,
    /// The load outcome.
    pub load: LoadOutcome,
    /// Engine counters for the run.
    pub stats: SimStats,
    /// Events the engine emitted, counted by the engine whether or not
    /// it recorded them: the run's `RunSummary::events` when no trace was
    /// built, `trace.events().len()` when the trace is kept.
    pub events: u64,
    /// Distinct members detected failed during the run.
    pub detected: usize,
    /// Crash→detection latencies in ticks (one per detector per crash).
    pub detection_latencies: Vec<u64>,
    /// The shard run's telemetry: engine counters, the op-latency and
    /// detection-latency histograms, and the transport diagnostics
    /// re-derived from the run's execution-neutral annotations. Folded
    /// per shard so the rayon fan-out stays contention-free; merging is
    /// associative, so [`ServiceReport::obs_report`] never depends on
    /// completion order.
    pub obs: RunReport,
    /// The full run trace, when [`ServiceSpec::keep_traces`] is on —
    /// downstream consumers (the E13 bench) certify FS1/sFS2a–d on it.
    pub trace: Option<Trace>,
    /// The streaming monitor's suite verdicts, when
    /// [`ServiceSpec::certify_online`] is on. Pinned (by the service
    /// tests and the E13 kept-trace rows) to equal
    /// `check_sfs_suite` on the same run's trace, clause by clause.
    pub verdicts: Option<SuiteVerdicts>,
    /// Anomaly-watermark signals that tripped during the run, in trip
    /// order (empty when [`ServiceSpec::watermarks`] is off — or when
    /// the run stayed inside its learned baselines).
    pub watermark_trips: Vec<&'static str>,
}

/// One epoch: the table it ran under and every shard's outcome.
#[derive(Debug, Clone)]
pub struct EpochOutcome {
    /// Epoch number (1-based).
    pub epoch: u64,
    /// The routing table in force.
    pub table: RoutingTable,
    /// Per-shard outcomes: shards that served ops, shards with scripted
    /// or chaos-planned faults this epoch, and — after a mid-epoch
    /// exhaustion — one extra outcome per rescue donor.
    pub shards: Vec<ShardOutcome>,
    /// Ops re-routed to healthy donors after a shard exhausted its
    /// budget mid-epoch and left them unserved.
    pub rescued_ops: u64,
    /// Wall-clock duration of the epoch's shard runs.
    pub wall_ms: f64,
}

/// The full report of a service run.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Total processes.
    pub total: usize,
    /// Shard count of the plan.
    pub shard_count: usize,
    /// Backend the shards ran on.
    pub backend: Backend,
    /// The epochs, in order.
    pub epochs: Vec<EpochOutcome>,
    /// Shards that exhausted their budget at any point in the run,
    /// in order of exhaustion discovery.
    pub exhausted: Vec<ShardId>,
    /// End-to-end wall time (planning, directory, every epoch).
    pub wall_ms: f64,
}

impl ServiceReport {
    /// Distinct ops completed across all epochs and shards.
    pub fn ops_completed(&self) -> u64 {
        self.epochs
            .iter()
            .flat_map(|e| &e.shards)
            .map(|s| s.load.completed)
            .sum()
    }

    /// Distinct ops issued across all epochs and shards.
    pub fn ops_issued(&self) -> u64 {
        self.epochs
            .iter()
            .flat_map(|e| &e.shards)
            .map(|s| s.load.issued)
            .sum()
    }

    /// Messages sent across all shard runs.
    pub fn messages(&self) -> u64 {
        self.epochs
            .iter()
            .flat_map(|e| &e.shards)
            .map(|s| s.stats.messages_sent)
            .sum()
    }

    /// Trace events across all shard runs.
    pub fn events(&self) -> u64 {
        self.epochs
            .iter()
            .flat_map(|e| &e.shards)
            .map(|s| s.events)
            .sum()
    }

    /// Rounds in which a process ran more than one handler, across all
    /// shard runs (see [`SimStats::delivery_batches`]); 0 on the
    /// simulator.
    pub fn delivery_batches(&self) -> u64 {
        self.epochs
            .iter()
            .flat_map(|e| &e.shards)
            .map(|s| s.stats.delivery_batches)
            .sum()
    }

    /// All crash→detection latencies, in shard/epoch order (unsorted).
    pub fn detection_latencies(&self) -> Vec<u64> {
        self.epochs
            .iter()
            .flat_map(|e| &e.shards)
            .flat_map(|s| s.detection_latencies.iter().copied())
            .collect()
    }

    /// The `q`-th percentile (0–100) of the crash→detection latency
    /// distribution, by nearest rank. Uses a linear-time selection
    /// ([`nearest_rank`]) rather than sorting the whole distribution.
    pub fn detection_p(&self, q: u64) -> u64 {
        nearest_rank(&mut self.detection_latencies(), q)
    }

    /// The largest crash→detection latency.
    pub fn detection_max(&self) -> u64 {
        self.epochs
            .iter()
            .flat_map(|e| &e.shards)
            .flat_map(|s| s.detection_latencies.iter().copied())
            .max()
            .unwrap_or(0)
    }

    /// Detection events across the run (one per surviving detector per
    /// crash).
    pub fn detection_count(&self) -> u64 {
        self.epochs
            .iter()
            .flat_map(|e| &e.shards)
            .map(|s| s.detection_latencies.len() as u64)
            .sum()
    }

    /// Messages sent per detection event — the message cost of one unit
    /// of failure-detection work (0 when nothing was detected).
    pub fn msgs_per_detection(&self) -> f64 {
        let det = self.detection_count();
        if det == 0 {
            return 0.0;
        }
        self.messages() as f64 / det as f64
    }

    /// The run's merged telemetry: every shard registry folded into one
    /// [`RunReport`]. The merge is associative and commutative, so the
    /// result is independent of the rayon completion order.
    pub fn obs_report(&self) -> RunReport {
        let mut out = RunReport::empty(self.backend.to_string());
        for s in self.epochs.iter().flat_map(|e| &e.shards) {
            out.merge(&s.obs);
        }
        out
    }

    /// Issue→first-completion latency histogram over every completed op
    /// in the run (log-bucket; quantiles are bucket upper bounds, within
    /// 12.5% of exact).
    pub fn op_latency_hist(&self) -> LogHistogram {
        let mut out = LogHistogram::new();
        for s in self.epochs.iter().flat_map(|e| &e.shards) {
            for &l in &s.load.op_latencies {
                out.record(l);
            }
        }
        out
    }

    /// The 99th-percentile op latency in ticks, from the log-bucket
    /// histogram (E11's and E13's `op p99` column). A 0 that cannot move
    /// on the bare threaded backend: its shard runs have no link, so
    /// every delivery lands at the instant it is sent and an op completes
    /// at the instant it is issued. E11 prints its threaded cells as `-`.
    pub fn op_p99(&self) -> u64 {
        self.op_latency_hist().p99()
    }

    /// Total serving time in ticks, summed over shard runs: each shard's
    /// first-issue → last-completion window. Both backends run the same
    /// virtual clock, so the figure measures the *serving* path in
    /// logical time, independent of wall-clock drain budgets. A 0 that
    /// cannot move on the bare threaded backend under a closed loop: its
    /// shard runs have no link, so every delivery lands at the instant it
    /// is sent and the whole loop plays out within one virtual instant.
    /// E11 prints its threaded cells as `-`; use wall time for threaded
    /// serving cost.
    pub fn serving_ticks(&self) -> u64 {
        self.epochs
            .iter()
            .flat_map(|e| &e.shards)
            .filter_map(|s| match (s.load.first_issue, s.load.last_done) {
                (Some(a), Some(b)) => Some(b.ticks().saturating_sub(a.ticks())),
                _ => None,
            })
            .sum()
    }

    /// Completed ops per wall-clock second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return 0.0;
        }
        self.ops_completed() as f64 / (self.wall_ms / 1_000.0)
    }

    /// Messages per wall-clock second.
    pub fn msgs_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return 0.0;
        }
        self.messages() as f64 / (self.wall_ms / 1_000.0)
    }
}

/// The `q`-th percentile (0–100) of a sorted sample, by nearest-rank.
pub fn percentile(sorted: &[u64], q: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q as usize * sorted.len()).div_ceil(100).max(1) - 1;
    sorted[rank.min(sorted.len() - 1)]
}

/// The `q`-th percentile (0–100) of an *unsorted* sample, by nearest
/// rank — same answer as [`percentile`] on the sorted sample, but via
/// `select_nth_unstable`, so extracting one quantile is O(n) instead of
/// the O(n log n) full sort. Reorders `values` in place.
pub fn nearest_rank(values: &mut [u64], q: u64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let rank = (q as usize * values.len()).div_ceil(100).max(1) - 1;
    *values.select_nth_unstable(rank.min(values.len() - 1)).1
}

/// Runs one service deployment; see the module docs for the epoch
/// structure.
///
/// # Errors
///
/// See [`ServiceError`].
pub fn run_service(spec: &ServiceSpec) -> Result<ServiceReport, ServiceError> {
    let started = Instant::now();
    let plan = plan_shards(spec.total, spec.t, spec.shard_target, spec.seed)?;
    // The chaos plan is expanded once, up front: the whole soak is a
    // pure function of the spec, fault injection included.
    let chaos = spec.chaos.as_ref().map(|c| c.plan());
    // Cumulative per-shard losses. Failures are permanent (sFS2a — a
    // detected process really is gone), so every epoch runs each shard
    // as its survivors with the remaining budget, never with
    // resurrected members, and the directory sees monotone counts.
    let mut dead: BTreeMap<ShardId, usize> = BTreeMap::new();
    let mut exhausted: Vec<ShardId> = Vec::new();
    let mut epochs = Vec::new();
    for epoch in 1..=spec.epochs.max(1) {
        let reports: Vec<ShardReport> = (0..plan.len())
            .map(|shard| ShardReport {
                shard,
                detections: dead.get(&shard).copied().unwrap_or(0),
                t: spec.t,
            })
            .collect();
        let table = Directory::decide(&spec.dir, epoch, &reports)?;
        let outcome = run_epoch(spec, &plan, epoch, &table, &dead, chaos.as_ref())?;
        for s in &outcome.shards {
            *dead.entry(s.shard).or_insert(0) += s.detected;
        }
        for shard in 0..plan.len() {
            if dead.get(&shard).copied().unwrap_or(0) >= spec.t.max(1)
                && !exhausted.contains(&shard)
            {
                exhausted.push(shard);
            }
        }
        epochs.push(outcome);
    }
    Ok(ServiceReport {
        total: spec.total,
        shard_count: plan.len(),
        backend: spec.backend,
        epochs,
        exhausted,
        wall_ms: started.elapsed().as_secs_f64() * 1_000.0,
    })
}

/// Seed salt distinguishing a donor's rescue run from its main run in
/// the same epoch.
const RESCUE_SALT: u64 = 0x9E5C_0000;

/// Routes this epoch's ops over `table` and runs every involved shard.
/// `dead` carries the per-shard count of members detected failed in
/// earlier epochs (see [`run_service`]); `chaos` the expanded overlay
/// plan, if any. After the main runs, ops stranded on shards that
/// exhausted their budget mid-epoch are rescued onto healthy donors.
fn run_epoch(
    spec: &ServiceSpec,
    plan: &ShardPlan,
    epoch: u64,
    table: &RoutingTable,
    dead: &BTreeMap<ShardId, usize>,
    chaos: Option<&ChaosPlan>,
) -> Result<EpochOutcome, ServiceError> {
    let started = Instant::now();
    let budget = spec.t.max(1);
    let lost = |sid: ShardId| dead.get(&sid).copied().unwrap_or(0);
    let mut routed: BTreeMap<ShardId, u64> = BTreeMap::new();
    for op in 0..spec.load.ops {
        *routed.entry(table.route(op)).or_insert(0) += 1;
    }
    // Scripted crashes land in epoch 1 only; map global pids onto their
    // shard-local identities.
    let mut crashes: BTreeMap<ShardId, Vec<(usize, u64)>> = BTreeMap::new();
    if epoch == 1 {
        for &(g, tick) in &spec.crashes {
            if let Some(sid) = plan.shard_of(g) {
                let local = plan.shards[sid].local_of(g).expect("member");
                crashes.entry(sid).or_default().push((local, tick));
            }
        }
    }
    // Chaos overlays for this epoch (plan epochs are 0-based).
    let overlays: BTreeMap<ShardId, ShardChaos> = match chaos {
        Some(c) => plan
            .shards
            .iter()
            .filter_map(|s| {
                let o = c.overlay(epoch as usize - 1, s.id);
                (!o.is_quiet()).then_some((s.id, o))
            })
            .collect(),
        None => BTreeMap::new(),
    };
    // A shard already past its budget never runs again: it is neither
    // routed to (the table guarantees that) nor worth injecting into.
    let involved: Vec<&ShardSpec> = plan
        .shards
        .iter()
        .filter(|s| lost(s.id) < budget)
        .filter(|s| {
            routed.contains_key(&s.id)
                || crashes.contains_key(&s.id)
                || overlays.contains_key(&s.id)
        })
        .collect();
    let outcomes: Vec<Result<ShardOutcome, ServiceError>> = involved
        .par_iter()
        .map(|shard| {
            run_shard(
                spec,
                shard,
                epoch,
                routed.get(&shard.id).copied().unwrap_or(0),
                crashes.get(&shard.id).cloned().unwrap_or_default(),
                lost(shard.id),
                overlays.get(&shard.id),
                0,
            )
        })
        .collect();
    let mut shards = outcomes.into_iter().collect::<Result<Vec<_>, _>>()?;
    // Graceful degradation: a shard that exhausted its budget *during*
    // this epoch may have left routed ops unserved. Rescue them —
    // re-route round-robin over the shards still inside budget and run
    // one fault-free rescue pass per donor, within the same epoch.
    let detected_now: BTreeMap<ShardId, usize> =
        shards.iter().map(|s| (s.shard, s.detected)).collect();
    let now_lost = |sid: ShardId| lost(sid) + detected_now.get(&sid).copied().unwrap_or(0);
    let stranded: u64 = shards
        .iter()
        .filter(|s| now_lost(s.shard) >= budget)
        .map(|s| s.ops_routed.saturating_sub(s.load.completed))
        .sum();
    let donors: Vec<&ShardSpec> = plan
        .shards
        .iter()
        .filter(|s| now_lost(s.id) < budget)
        .collect();
    let mut rescued_ops = 0;
    if stranded > 0 && !donors.is_empty() {
        let mut extra: BTreeMap<ShardId, u64> = BTreeMap::new();
        for k in 0..stranded {
            *extra
                .entry(donors[k as usize % donors.len()].id)
                .or_insert(0) += 1;
        }
        let targets: Vec<&ShardSpec> = donors
            .iter()
            .copied()
            .filter(|s| extra.contains_key(&s.id))
            .collect();
        let rescues: Vec<Result<ShardOutcome, ServiceError>> = targets
            .par_iter()
            .map(|shard| {
                run_shard(
                    spec,
                    shard,
                    epoch,
                    extra[&shard.id],
                    Vec::new(),
                    lost(shard.id),
                    None,
                    RESCUE_SALT,
                )
            })
            .collect();
        shards.extend(rescues.into_iter().collect::<Result<Vec<_>, _>>()?);
        rescued_ops = stranded;
    }
    Ok(EpochOutcome {
        epoch,
        table: table.clone(),
        shards,
        rescued_ops,
        wall_ms: started.elapsed().as_secs_f64() * 1_000.0,
    })
}

/// Runs one shard group for one epoch on the spec's backend. `dead`
/// members from earlier epochs are gone for good: the group runs as its
/// `n - dead` survivors with the remaining budget `t - dead` (always
/// still feasible: `n > t²` and `d < t` imply `n - d > (t - d)²`).
/// `overlay` is this shard's chaos injection for the epoch; `salt`
/// distinguishes a rescue pass from the main run.
#[allow(clippy::too_many_arguments)]
fn run_shard(
    spec: &ServiceSpec,
    shard: &ShardSpec,
    epoch: u64,
    ops: u64,
    crashes: Vec<(usize, u64)>,
    dead: usize,
    overlay: Option<&ShardChaos>,
    salt: u64,
) -> Result<ShardOutcome, ServiceError> {
    let n = shard.n() - dead.min(shard.n());
    let t = shard.t - dead.min(shard.t);
    let mut cluster = ClusterSpec::new(n, t)
        .seed(spec.seed ^ (0xE11 * (epoch + 1) + shard.id as u64) ^ salt)
        .max_time(spec.max_time);
    if let Some(hb) = spec.heartbeat {
        cluster = cluster.heartbeat(hb);
    }
    for &(local, tick) in &crashes {
        cluster = cluster.crash(ProcessId::new(local), tick.max(1));
    }
    // Chaos crash victims are addressed by *rank from the top* of the
    // current local id range, so the same plan stays meaningful as
    // survivors are relabelled between epochs (and never lands on the
    // designated gray-failure victim, local p0).
    if let Some(o) = overlay {
        for &(rank, tick) in &o.crashes {
            if rank < n {
                cluster = cluster.crash(ProcessId::new(n - 1 - rank), tick.max(1));
            }
        }
    }
    // Merge the overlay's flap and storm windows — both target local
    // p0's outbound links — into the shard's network. Without a base
    // network there is no link seam, so only the crashes apply.
    let net = spec.net.clone().map(|mut net| {
        if let Some(o) = overlay {
            let pairs: Vec<(ProcessId, ProcessId)> = (1..n)
                .map(|j| (ProcessId::new(0), ProcessId::new(j)))
                .collect();
            let vt = VirtualTime::from_ticks;
            for &(from, until) in &o.flaps {
                net.partitions = net
                    .partitions
                    .clone()
                    .cut_links(vt(from), vt(until), &pairs);
            }
            if let Some((from, until, extra)) = o.storm {
                net.storms = net
                    .storms
                    .clone()
                    .surge_links(vt(from), vt(until), &pairs, extra);
            }
        }
        net
    });
    // Every observer rides the one write-only event sink: the summary
    // fold, the online monitor, and — armed — a flight recorder with the
    // watermarks that dump it on a trip, before any certification gate
    // gets to fail. None can perturb the run.
    let fold = Arc::new(LiveFold(Mutex::new(ShardFold::new(spec.backend, shard.id))));
    let monitor = spec.certify_online.then(|| SfsMonitor::new(n));
    let watermarks = spec.watermarks.then(|| {
        let recorder = FlightRecorder::new(512);
        let label = flight_label(spec.seed, shard.id, epoch, salt);
        (
            recorder.clone(),
            AnomalyWatermarks::with_flight(&label, recorder),
        )
    });
    let mut sinks = vec![EventSinkHandle::new(fold.clone())];
    sinks.extend(monitor.as_ref().map(|m| m.handle()));
    if let Some((recorder, wm)) = &watermarks {
        sinks.extend([recorder.handle(), wm.handle()]);
    }
    // A faulty-net deployment runs each shard group transport-backed, its
    // channels emulated by the ARQ layer over the described link instead
    // of assumed reliable. Only a kept trace is recorded, on either
    // backend.
    cluster.net = net;
    let cluster = cluster.event_sink(EventSinkHandle::fanout(sinks));
    let profile = LoadProfile {
        mode: spec.load.mode,
        ops,
    };
    let instruments = Instruments {
        record: spec.keep_traces,
        ..Instruments::default()
    };
    let run = cluster.run(spec.backend, instruments, |_| LoadGenApp::new(profile))?;
    let mut fold = fold.0.lock().expect("shard fold poisoned");
    let mut out = fold.finish(n, ops, run, monitor.as_deref());
    if let Some((_, wm)) = &watermarks {
        out.watermark_trips = wm.trips();
    }
    Ok(out)
}

/// The flight-dump label of one shard run's watermarks: every input that
/// distinguishes two shard runs of one process — the service seed, the
/// epoch, the shard and the rescue salt — so no dump overwrites another.
fn flight_label(seed: u64, shard: ShardId, epoch: u64, salt: u64) -> String {
    format!("seed{seed}-shard{shard}-epoch{epoch}-salt{salt:x}")
}

/// The single-pass fold from a shard run's events to its
/// [`ShardOutcome`]: the load outcome, the trace-derived telemetry, the
/// crash→detection latencies and the detected set. Fed one event at a
/// time, live from the run's event sink ([`LiveFold`]); it reads notes,
/// crashes and detections and ignores every other event.
struct ShardFold {
    shard: ShardId,
    load: LoadFold,
    /// Each shard folds its own registry — contention-free under the
    /// rayon fan-out — and the outcome carries the snapshot; the
    /// associative merge happens lazily in `ServiceReport::obs_report`.
    registry: Arc<Registry>,
    ingest: TraceIngest,
    crash_at: BTreeMap<usize, u64>,
    latencies: Vec<u64>,
    detected: BTreeSet<ProcessId>,
}

impl ShardFold {
    fn new(backend: Backend, shard: ShardId) -> Self {
        ShardFold {
            shard,
            load: LoadFold::default(),
            registry: Registry::for_shard(backend.to_string(), shard as u32),
            ingest: TraceIngest::default(),
            crash_at: BTreeMap::new(),
            latencies: Vec::new(),
            detected: BTreeSet::new(),
        }
    }

    fn on_event(&mut self, e: &TraceEvent) {
        self.load.on_event(e);
        self.ingest.on_event(&self.registry, e);
        // Crash → detection latency: every Failed{of = v} after Crash{v}.
        match e.kind {
            TraceEventKind::Crash { pid } => {
                self.crash_at.entry(pid.index()).or_insert(e.time.ticks());
            }
            TraceEventKind::Failed { of, .. } => {
                self.detected.insert(of);
                if let Some(&c) = self.crash_at.get(&of.index()) {
                    self.latencies.push(e.time.ticks().saturating_sub(c));
                }
            }
            _ => {}
        }
    }

    /// Closes the fold with what only the finished run knows: its
    /// counters, its event count, its trace if kept, and the monitor's
    /// verdicts.
    fn finish(
        &mut self,
        n: usize,
        ops: u64,
        run: RunOutcome,
        monitor: Option<&SfsMonitor>,
    ) -> ShardOutcome {
        let stats = run.summary.stats;
        let load = self.load.finish();
        let registry = &self.registry;
        for &l in &load.op_latencies {
            registry.observe(0, MsgClass::App, metrics::OP_LATENCY, l);
        }
        registry.ingest_stats(&stats);
        // What the online certification consumed: the run's model-level
        // events.
        if let Some(m) = monitor {
            registry.set(0, MsgClass::None, metrics::MONITOR_EVENTS, m.events_seen());
        }
        ShardOutcome {
            shard: self.shard,
            n,
            ops_routed: ops,
            load,
            stats,
            events: run.summary.events as u64,
            detected: self.detected.len(),
            detection_latencies: std::mem::take(&mut self.latencies),
            obs: registry.report(),
            trace: run.trace,
            // Liveness clauses are judged with all obligations due
            // (`complete = true`): a shard run's horizon is its discharge
            // deadline — transport-backed groups under probes never
            // formally quiesce, and the E11/E13 certification convention is
            // that every crash must be detected *within the run*.
            verdicts: monitor.map(|m| m.finish(true)),
            watermark_trips: Vec::new(),
        }
    }
}

/// A [`ShardFold`] as an event sink.
struct LiveFold(Mutex<ShardFold>);

impl EventSink for LiveFold {
    fn on_event(&self, event: &TraceEvent) {
        self.0.lock().expect("shard fold poisoned").on_event(event);
    }

    fn interest(&self) -> Interest {
        Interest::NOTE
            .union(Interest::CRASH)
            .union(Interest::FAILED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v = vec![10, 20, 30, 40];
        assert_eq!(percentile(&v, 50), 20);
        assert_eq!(percentile(&v, 95), 40);
        assert_eq!(percentile(&v, 100), 40);
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 50), 7);
    }

    #[test]
    fn selection_agrees_with_sorted_percentile() {
        // `nearest_rank` on the shuffled sample must equal `percentile`
        // on the sorted one, for every q — the selection is a drop-in
        // replacement for the full sort.
        let sorted: Vec<u64> = (0..97).map(|i| i * 3 + 1).collect();
        let shuffled: Vec<u64> = (0..97).map(|i| sorted[(i * 53) % sorted.len()]).collect();
        assert_eq!(shuffled.len(), sorted.len());
        for q in 0..=100 {
            let mut v = shuffled.clone();
            assert_eq!(nearest_rank(&mut v, q), percentile(&sorted, q), "q={q}");
        }
        assert_eq!(nearest_rank(&mut [], 50), 0);
        assert_eq!(nearest_rank(&mut [7], 99), 7);
    }

    #[test]
    fn small_service_completes_all_ops_on_sim() {
        let spec = ServiceSpec::new(20, 2, 10)
            .heartbeat(None)
            .load(LoadProfile::closed(40, 4));
        let report = run_service(&spec).unwrap();
        assert_eq!(report.shard_count, 2);
        assert_eq!(report.epochs.len(), 2);
        // 40 ops per epoch, all completed.
        assert_eq!(report.ops_completed(), 80);
        assert!(report.exhausted.is_empty());
        assert!(report.messages() > 0);
    }

    #[test]
    fn service_runs_are_deterministic_on_sim() {
        let spec = ServiceSpec::new(20, 2, 10)
            .seed(5)
            .heartbeat(None)
            .load(LoadProfile::open(30, 3, 2));
        let a = run_service(&spec).unwrap();
        let b = run_service(&spec).unwrap();
        assert_eq!(a.ops_completed(), b.ops_completed());
        assert_eq!(a.events(), b.events());
        assert_eq!(a.messages(), b.messages());
        assert_eq!(a.detection_latencies(), b.detection_latencies());
    }

    #[test]
    fn crashes_are_detected_and_exhausted_shards_lose_their_slots() {
        // Crash t = 2 members of shard 0 (plan is deterministic, so we
        // can name them): epoch 2 must route nothing there.
        let plan = plan_shards(20, 2, 10, 3).unwrap();
        let victims: Vec<usize> = plan.shards[0].members.iter().take(2).copied().collect();
        let spec = ServiceSpec::new(20, 2, 10)
            .seed(3)
            .max_time(1_500)
            .load(LoadProfile::closed(30, 4))
            .crash(victims[0], 40)
            .crash(victims[1], 60);
        let report = run_service(&spec).unwrap();
        assert_eq!(report.exhausted, vec![0], "shard 0 must exhaust its t");
        let epoch2 = &report.epochs[1];
        assert!(!epoch2.table.healthy.contains(&0));
        for s in &epoch2.shards {
            assert!(
                s.shard != 0 || s.ops_routed == 0,
                "epoch 2 routed ops to the exhausted shard"
            );
        }
        // Detection latencies were measured.
        assert!(!report.detection_latencies().is_empty());
        // Epoch 2 still completes its whole batch on the surviving shard.
        let done2: u64 = epoch2.shards.iter().map(|s| s.load.completed).sum();
        assert_eq!(done2, 30);
    }

    #[test]
    fn service_completes_all_ops_over_a_lossy_network() {
        // Every shard transport-backed over a 10% lossy link: the ARQ
        // layer must reconstruct the channels and the service must
        // complete every op in both epochs.
        let spec = ServiceSpec::new(20, 2, 10)
            .heartbeat(None)
            .net(NetSpec::faultless().loss(0.1))
            .seed(4)
            .load(LoadProfile::closed(40, 4));
        let report = run_service(&spec).unwrap();
        assert_eq!(report.ops_completed(), 80, "ops lost to the network");
        assert!(
            report
                .epochs
                .iter()
                .flat_map(|e| &e.shards)
                .any(|s| s.stats.messages_dropped > 0),
            "the network was supposed to be lossy"
        );
        assert!(report.exhausted.is_empty());
    }

    #[test]
    fn shards_keep_serving_across_a_healed_partition() {
        // In every shard, the local p0 goes transmit-silent for
        // [50, 900) — a healed blackout. The probers detect it, the
        // protocol kills it cleanly (one loss per shard, within t = 2),
        // and both epochs complete their full op batch: the service
        // keeps serving across the cut and after the heal.
        let cut = sfs_asys::PartitionSchedule::new().cut_links(
            sfs_asys::VirtualTime::from_ticks(50),
            sfs_asys::VirtualTime::from_ticks(900),
            &(1..10)
                .map(|j| (ProcessId::new(0), ProcessId::new(j)))
                .collect::<Vec<_>>(),
        );
        let spec = ServiceSpec::new(20, 2, 10)
            .heartbeat(None)
            .net(
                NetSpec::faultless()
                    .probe(sfs::ProbeConfig::default())
                    .partitions(cut),
            )
            .seed(8)
            .max_time(4_000)
            .load(LoadProfile::closed(40, 4));
        let report = run_service(&spec).unwrap();
        assert_eq!(report.ops_completed(), 80, "service stalled on the cut");
        // Each shard detected (and killed) its silenced member...
        let epoch1 = &report.epochs[0];
        for s in &epoch1.shards {
            assert_eq!(s.detected, 1, "shard {} missed the blackout", s.shard);
        }
        // ...but one loss is within budget: the epoch-2 decision still
        // routes to every shard, and the whole batch is served.
        let epoch2 = &report.epochs[1];
        assert_eq!(epoch2.table.healthy, vec![0, 1]);
        let done2: u64 = epoch2.shards.iter().map(|s| s.load.completed).sum();
        assert_eq!(done2, 40, "epoch 2 must serve its whole batch");
        // The base net's cut applies to every epoch alike, so each
        // shard's *new* local p0 is killed again in epoch 2 — by the
        // end of the run both shards have spent their full budget, and
        // the report says so (the old scripted engine under-reported
        // epoch-2 losses).
        assert_eq!(report.exhausted, vec![0, 1]);
    }

    #[test]
    fn fault_intolerant_service_serves_without_failures() {
        // t = 0 is a legal, fault-intolerant deployment: with zero
        // detections every shard stays healthy and both epochs serve.
        let spec = ServiceSpec::new(8, 0, 4)
            .heartbeat(None)
            .load(LoadProfile::closed(16, 2));
        let report = run_service(&spec).unwrap();
        assert_eq!(report.shard_count, 2);
        assert_eq!(report.ops_completed(), 32);
        assert!(report.exhausted.is_empty());
    }

    #[test]
    fn partially_damaged_shards_serve_later_epochs_as_survivors() {
        // One crash (< t) leaves the shard healthy and routed — but its
        // dead member must NOT resurrect in epoch 2: the group re-runs
        // as its 9 survivors with the remaining budget t - 1.
        let plan = plan_shards(20, 2, 10, 6).unwrap();
        let victim = plan.shards[1].members[0];
        let spec = ServiceSpec::new(20, 2, 10)
            .seed(6)
            .max_time(1_500)
            .load(LoadProfile::closed(30, 4))
            .crash(victim, 40);
        let report = run_service(&spec).unwrap();
        assert!(report.exhausted.is_empty(), "one crash < t stays healthy");
        let e1 = report.epochs[0]
            .shards
            .iter()
            .find(|s| s.shard == 1)
            .expect("shard 1 served epoch 1");
        assert_eq!(e1.n, 10);
        assert_eq!(e1.detected, 1, "the crash was detected");
        let e2 = report.epochs[1]
            .shards
            .iter()
            .find(|s| s.shard == 1)
            .expect("still routed in epoch 2");
        assert_eq!(
            e2.n, 9,
            "epoch 2 runs the survivors, not resurrected members"
        );
        let done2: u64 = report.epochs[1]
            .shards
            .iter()
            .map(|s| s.load.completed)
            .sum();
        assert_eq!(done2, 30, "survivors still serve the whole epoch-2 batch");
    }

    #[test]
    fn threaded_backend_serves_a_small_service() {
        let spec = ServiceSpec::new(10, 1, 5)
            .backend(Backend::Threaded)
            .heartbeat(None)
            .load(LoadProfile::closed(10, 2));
        let report = run_service(&spec).unwrap();
        assert_eq!(report.shard_count, 2);
        assert_eq!(report.ops_completed(), 20, "all ops served on threads");
    }

    #[test]
    fn continuous_epoch_loop_serves_every_epoch() {
        // The loop is no longer scripted to two epochs: five epochs of
        // load, each under its own directory decision, all complete.
        let spec = ServiceSpec::new(20, 2, 10)
            .heartbeat(None)
            .epochs(5)
            .load(LoadProfile::closed(20, 4));
        let report = run_service(&spec).unwrap();
        assert_eq!(report.epochs.len(), 5);
        assert_eq!(report.ops_completed(), 100);
        for (i, e) in report.epochs.iter().enumerate() {
            assert_eq!(e.epoch, i as u64 + 1);
            assert_eq!(e.table.epoch, i as u64 + 1);
            assert_eq!(e.rescued_ops, 0);
            assert!(e.table.degraded.is_empty());
        }
    }

    #[test]
    fn chaos_crash_floor_lands_and_the_loop_keeps_serving() {
        // A chaos plan whose Poisson stream is empty still fires its
        // deterministic floor crash: rank 0 of shard 0 (the highest
        // local id) dies mid-epoch-1, is detected, and later epochs run
        // the shard as its survivors while every op completes.
        let chaos = ChaosSpec {
            crash_mean_gap: u64::MAX / 4,
            ..ChaosSpec::new(2, 2)
        }
        .seed(9);
        let spec = ServiceSpec::new(20, 2, 10)
            .seed(9)
            .epochs(3)
            .max_time(3_000)
            .chaos(chaos)
            .load(LoadProfile::closed(30, 4));
        let report = run_service(&spec).unwrap();
        assert_eq!(report.epochs.len(), 3);
        assert_eq!(report.ops_completed(), 90, "the loop kept serving");
        assert!(report.exhausted.is_empty(), "one crash < t stays healthy");
        assert!(
            !report.detection_latencies().is_empty(),
            "the floor crash was detected"
        );
        let e2 = report.epochs[1]
            .shards
            .iter()
            .find(|s| s.shard == 0)
            .expect("shard 0 still routed");
        assert_eq!(e2.n, 9, "epoch 2 runs the survivors");
    }

    #[test]
    fn chaos_flaps_and_storms_ride_on_the_shard_network() {
        // Epoch-0 overlay windows (a long cut and a small delay storm on
        // each shard's local p0 outbound links) merge into the base
        // transport network: every shard's probers detect and kill the
        // silenced p0 — one loss per shard, inside budget — and the
        // service completes both epochs.
        let chaos = ChaosSpec {
            crash_floor: false,
            crash_mean_gap: u64::MAX / 4,
            ..ChaosSpec::new(2, 2)
        }
        .seed(8)
        .flaps(vec![(50, 900)])
        .storm(10, 45, 3);
        let spec = ServiceSpec::new(20, 2, 10)
            .heartbeat(None)
            .net(NetSpec::faultless().probe(sfs::ProbeConfig::default()))
            .chaos(chaos)
            .seed(8)
            .max_time(4_000)
            .load(LoadProfile::closed(40, 4));
        let report = run_service(&spec).unwrap();
        assert_eq!(report.ops_completed(), 80, "service stalled on the cut");
        assert!(report.exhausted.is_empty());
        for s in &report.epochs[0].shards {
            assert_eq!(s.detected, 1, "shard {} missed the blackout", s.shard);
        }
        for s in &report.epochs[1].shards {
            assert_eq!(s.n, 9, "epoch 2 runs the survivors");
        }
    }

    #[test]
    fn mid_epoch_exhaustion_degrades_the_shard_and_rescues_stranded_ops() {
        // Open-loop load slower than the horizon: every shard strands
        // its tail ops at max_time. Shard 0 additionally exhausts its
        // t = 2 mid-epoch, so *its* stranded ops are rescued onto the
        // healthy shard within the epoch, and the next directory
        // decision marks it degraded.
        let plan = plan_shards(20, 2, 10, 3).unwrap();
        let victims: Vec<usize> = plan.shards[0].members[1..3].to_vec();
        let spec = ServiceSpec::new(20, 2, 10)
            .seed(3)
            .heartbeat(Some(HeartbeatConfig {
                interval: 10,
                timeout: 60,
                check_every: 15,
            }))
            .max_time(250)
            .load(LoadProfile::open(16, 40, 1))
            .crash(victims[0], 30)
            .crash(victims[1], 50);
        let report = run_service(&spec).unwrap();
        assert_eq!(report.exhausted, vec![0], "shard 0 must exhaust its t");
        let epoch1 = &report.epochs[0];
        assert!(epoch1.rescued_ops > 0, "stranded ops were rescued");
        assert_eq!(
            epoch1.shards.iter().filter(|s| s.shard == 1).count(),
            2,
            "the donor ran a main pass and a rescue pass"
        );
        let rescue = epoch1.shards.iter().rev().find(|s| s.shard == 1).unwrap();
        assert_eq!(
            rescue.load.completed, rescue.ops_routed,
            "the rescue pass served everything rerouted to it"
        );
        // The next decision shows the degradation to every client.
        let epoch2 = &report.epochs[1];
        assert_eq!(epoch2.table.degraded, vec![0]);
        assert!(!epoch2.table.healthy.contains(&0));
        assert!(
            epoch2.shards.iter().all(|s| s.shard != 0),
            "the degraded shard must not run again"
        );
        assert_eq!(epoch2.rescued_ops, 0, "no new exhaustion in epoch 2");
    }

    #[test]
    fn kept_traces_certify_the_sfs_suite() {
        use sfs_history::History;
        use sfs_tlogic::properties;

        // keep_traces carries every shard run's trace, and each one —
        // crashes and survivor re-runs alike — certifies FS1/sFS2a–d.
        let plan = plan_shards(10, 2, 10, 5).unwrap();
        let victim = plan.shards[0].members[0];
        let spec = ServiceSpec::new(10, 2, 10)
            .seed(5)
            .keep_traces(true)
            .max_time(1_500)
            .load(LoadProfile::closed(16, 4))
            .crash(victim, 40);
        let report = run_service(&spec).unwrap();
        let mut checked = 0;
        for s in report.epochs.iter().flat_map(|e| &e.shards) {
            let trace = s.trace.as_ref().expect("keep_traces carries traces");
            let history = History::from_trace(trace);
            for r in properties::check_sfs_suite(&history, true) {
                assert!(r.is_ok(), "shard {} epoch trace: {r}", s.shard);
            }
            checked += 1;
        }
        assert!(checked >= 2, "both epochs carried certifiable traces");
    }

    #[test]
    fn online_verdicts_match_the_post_hoc_checker() {
        use sfs_history::History;
        use sfs_tlogic::properties;

        // certify_online + keep_traces on the same run: the streaming
        // monitor's verdict vector must equal `check_sfs_suite` on the
        // carried trace, clause by clause, for every shard run — the
        // equivalence E13's certify-online mode rests on.
        let plan = plan_shards(10, 2, 10, 5).unwrap();
        let victim = plan.shards[0].members[0];
        let spec = ServiceSpec::new(10, 2, 10)
            .seed(5)
            .keep_traces(true)
            .certify_online(true)
            .max_time(1_500)
            .load(LoadProfile::closed(16, 4))
            .crash(victim, 40);
        let report = run_service(&spec).unwrap();
        let mut checked = 0;
        for s in report.epochs.iter().flat_map(|e| &e.shards) {
            let trace = s.trace.as_ref().expect("keep_traces carries traces");
            let online = s
                .verdicts
                .as_ref()
                .expect("certify_online carries verdicts");
            let history = History::from_trace(trace);
            let posthoc = SuiteVerdicts::from_reports(&properties::check_sfs_suite(&history, true));
            assert_eq!(online, &posthoc, "shard {} diverged", s.shard);
            assert!(online.all_ok(), "shard {}: {online}", s.shard);
            checked += 1;
        }
        assert!(checked >= 2);
        // The overhead gauges landed in the merged telemetry.
        let obs = report.obs_report().to_json();
        assert!(obs.contains(metrics::MONITOR_EVENTS), "{obs}");
    }

    #[test]
    fn online_certification_perturbs_nothing() {
        // The monitor rides a write-only sink: a certified run must be
        // observably identical to the bare run — same events, same
        // messages, same detection latencies.
        let plan = plan_shards(20, 2, 10, 7).unwrap();
        let victim = plan.shards[0].members[0];
        let spec = ServiceSpec::new(20, 2, 10)
            .seed(7)
            .max_time(1_500)
            .load(LoadProfile::closed(24, 4))
            .crash(victim, 40);
        let bare = run_service(&spec).unwrap();
        let certified = run_service(&spec.clone().certify_online(true)).unwrap();
        assert_eq!(bare.events(), certified.events());
        assert_eq!(bare.messages(), certified.messages());
        assert_eq!(bare.detection_latencies(), certified.detection_latencies());
    }

    #[test]
    fn watermarks_stay_silent_on_a_healthy_run_and_perturb_nothing() {
        // Armed watermarks are a smoke alarm: on a clean run (one
        // scripted crash, no chaos) every signal stays inside its
        // learned baseline, and the extra sinks change nothing the shard
        // outcomes can observe.
        let plan = plan_shards(20, 2, 10, 7).unwrap();
        let victim = plan.shards[0].members[0];
        let spec = ServiceSpec::new(20, 2, 10)
            .seed(7)
            .max_time(1_500)
            .load(LoadProfile::closed(24, 4))
            .crash(victim, 40);
        let bare = run_service(&spec).unwrap();
        let armed = run_service(&spec.clone().watermarks(true)).unwrap();
        assert_eq!(bare.events(), armed.events());
        assert_eq!(bare.messages(), armed.messages());
        for s in armed.epochs.iter().flat_map(|e| &e.shards) {
            assert!(
                s.watermark_trips.is_empty(),
                "shard {} tripped {:?} on a healthy run",
                s.shard,
                s.watermark_trips
            );
        }
    }

    #[test]
    fn flight_labels_separate_seeds_epochs_shards_and_rescue_passes() {
        // Dumps are written with `std::fs::write`: two shard runs sharing
        // a label would overwrite each other's post-mortem (a rescue pass
        // its main pass, E13's second seed its first).
        let mut labels = BTreeSet::new();
        for seed in [0, 1] {
            for shard in [0, 1] {
                for epoch in [1, 2] {
                    for salt in [0, RESCUE_SALT] {
                        labels.insert(flight_label(seed, shard, epoch, salt));
                    }
                }
            }
        }
        assert_eq!(labels.len(), 16, "{labels:?}");
    }
}
