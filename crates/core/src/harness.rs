//! One-call construction of simulated sFS clusters.
//!
//! Experiments, tests, and examples all need the same shape of run: `n`
//! processes under some [`DetectionMode`], a latency model, a fault plan
//! (crashes and forced suspicions), and a trace out. [`ClusterSpec`]
//! packages that, and [`ClusterSpec::run`] executes it on either
//! in-process engine ([`Backend`]), over bare channels or — when
//! [`ClusterSpec::net`] is set — over the `sfs-transport` ARQ layer.

use crate::app::{Application, NullApp};
use crate::config::{HeartbeatConfig, SfsConfig};
use crate::msg::{Control, SfsMsg};
use crate::protocol::SfsProcess;
use crate::quorum::{QuorumError, QuorumPolicy};
use sfs_asys::net::{Measure, Runtime, RuntimeConfig};
use sfs_asys::{
    CrashRegistry, EventSinkHandle, FaultPlan, FaultyLink, LatencyError, LinkModel,
    PartitionSchedule, Process, ProcessId, RunSummary, Sim, SimBuilder, StormSchedule, Trace,
    UniformLatency, VirtualTime,
};
use sfs_transport::{
    AdaptiveConfig, ArqConfig, ProbeConfig, Reliable, TransportError, TransportMsg,
};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Why a [`ClusterSpec`] is rejected before anything runs: the union of
/// the quorum-arithmetic errors (Corollary 8) and the latency/link
/// configuration errors, so every runner reports one typed error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The quorum policy cannot make progress for `(n, t)`.
    Quorum(QuorumError),
    /// The latency bounds are malformed (e.g. `min > max`).
    Latency(LatencyError),
    /// The transport configuration is malformed (e.g. a zero ARQ window
    /// or inverted adaptive RTO bounds).
    Transport(TransportError),
    /// The spec cannot run (or failed to run) on the UDP backend.
    Udp(crate::udp::UdpError),
    /// A wire-byte measure was asked of a run with no [`ClusterSpec::net`]:
    /// bare channels send no transport frames to measure.
    MeasureWithoutNet,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Quorum(e) => write!(f, "{e}"),
            SpecError::Latency(e) => write!(f, "{e}"),
            SpecError::Transport(e) => write!(f, "{e}"),
            SpecError::Udp(e) => write!(f, "{e}"),
            SpecError::MeasureWithoutNet => write!(
                f,
                "a wire-byte measure needs transport frames; set ClusterSpec::net"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<QuorumError> for SpecError {
    fn from(e: QuorumError) -> Self {
        SpecError::Quorum(e)
    }
}

impl From<LatencyError> for SpecError {
    fn from(e: LatencyError) -> Self {
        SpecError::Latency(e)
    }
}

impl From<TransportError> for SpecError {
    fn from(e: TransportError) -> Self {
        SpecError::Transport(e)
    }
}

impl From<crate::udp::UdpError> for SpecError {
    fn from(e: crate::udp::UdpError) -> Self {
        SpecError::Udp(e)
    }
}

/// Declarative description of the network beneath one cluster run: the
/// faulty-link parameters plus the `sfs-transport` ARQ layer interposed to
/// earn the §2 channel axioms back; see [`ClusterSpec::net`].
#[derive(Debug, Clone)]
pub struct NetSpec {
    /// I.i.d. per-message loss probability.
    pub loss: f64,
    /// I.i.d. per-message duplication probability.
    pub duplicate: f64,
    /// Scripted cut/heal of link sets over virtual time.
    pub partitions: PartitionSchedule,
    /// Scripted delay-surcharge windows (gray failure).
    pub storms: StormSchedule,
    /// ARQ parameters for the transport-wrapped legs.
    pub arq: ArqConfig,
    /// Transport-level heartbeat probing: when set, missed-heartbeat
    /// timeouts become *endogenous* `Control::Suspect` stimuli to the
    /// protocol — the deployable replacement for scripted suspicions.
    pub probe: Option<ProbeConfig>,
    /// Adaptive transport timeouts: when set, RTT estimation drives the
    /// retransmit deadlines and a learned per-peer threshold (floored at
    /// the fixed probe timeout) drives suspicion.
    pub adaptive: Option<AdaptiveConfig>,
}

impl Default for NetSpec {
    fn default() -> Self {
        NetSpec {
            loss: 0.0,
            duplicate: 0.0,
            partitions: PartitionSchedule::new(),
            storms: StormSchedule::new(),
            arq: ArqConfig::default(),
            probe: None,
            adaptive: None,
        }
    }
}

impl NetSpec {
    /// A loss-free, unpartitioned network with default ARQ parameters and
    /// no probing — transport-wrapped runs over it are HB-equivalent to
    /// bare runs (the `batch_equiv`-style pin in `sfs-apps`).
    pub fn faultless() -> Self {
        NetSpec::default()
    }

    /// Sets the i.i.d. loss probability.
    pub fn loss(mut self, p: f64) -> Self {
        self.loss = p;
        self
    }

    /// Sets the i.i.d. duplication probability.
    pub fn duplicate(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// Installs the partition script.
    pub fn partitions(mut self, sched: PartitionSchedule) -> Self {
        self.partitions = sched;
        self
    }

    /// Sets the ARQ parameters.
    pub fn arq(mut self, arq: ArqConfig) -> Self {
        self.arq = arq;
        self
    }

    /// Enables transport-level heartbeat probing (endogenous suspicions).
    pub fn probe(mut self, probe: ProbeConfig) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Installs the delay-storm script.
    pub fn storms(mut self, storms: StormSchedule) -> Self {
        self.storms = storms;
        self
    }

    /// Enables adaptive transport timeouts.
    pub fn adaptive(mut self, adaptive: AdaptiveConfig) -> Self {
        self.adaptive = Some(adaptive);
        self
    }
}

/// Which detector the cluster runs (the harness-level mirror of
/// [`DetectionMode`](crate::DetectionMode), without the oracle's registry
/// plumbing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModeSpec {
    /// The paper's §5 one-round protocol.
    #[default]
    SfsOneRound,
    /// Unilateral timeout detection (baseline).
    Unilateral,
    /// The §6 broadcast-then-detect model (no sFS2b).
    CheapBroadcast,
    /// Perfect detection via the simulator's crash oracle (reference FS
    /// runs; unimplementable for real, Theorem 1).
    Oracle,
}

/// Declarative description of one simulated cluster run.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Number of processes.
    pub n: usize,
    /// Failure bound `t`.
    pub t: usize,
    /// Detector selection.
    pub mode: ModeSpec,
    /// Quorum policy for the one-round protocol.
    pub quorum: QuorumPolicy,
    /// Heartbeats (`None` = suspicions only from injection/obituaries;
    /// such runs reach quiescence, which the liveness checkers prefer).
    pub heartbeat: Option<HeartbeatConfig>,
    /// sFS2d receive gating (ablation switch).
    pub gate_app_messages: bool,
    /// Crash-on-own-obituary (ablation switch).
    pub crash_on_own_obituary: bool,
    /// Scheduler seed.
    pub seed: u64,
    /// Uniform latency bounds `[min, max]` in ticks.
    pub latency: (u64, u64),
    /// Virtual-time horizon.
    pub max_time: VirtualTime,
    /// Event budget.
    pub max_events: usize,
    /// Scripted crashes `(victim, at)`.
    pub crashes: Vec<(ProcessId, u64)>,
    /// Scripted erroneous suspicions `(suspector, suspect, at)` — the
    /// paper's "spontaneous" suspicions.
    pub suspicions: Vec<(ProcessId, ProcessId, u64)>,
    /// The network beneath the run, and the one thing that picks its leg.
    /// `None`: the bare leg — the §5 automaton on channels that assume
    /// the §2 axioms directly. `Some`: the transport-backed leg — the
    /// automaton inside the `sfs-transport` ARQ layer, over a link with
    /// the described faults (loss/duplication/partitions/storms) and the
    /// ARQ, probe and adaptive parameters. [`ClusterSpec::try_run_net`],
    /// [`ClusterSpec::try_run_net_measured`] and
    /// [`ClusterSpec::try_build_net_with`] always take the transport leg
    /// and read `None` as [`NetSpec::faultless`].
    pub net: Option<NetSpec>,
    /// Trace-event sink threaded into whichever engine the spec runs on:
    /// every event an engine appends to its trace is also handed, live,
    /// to the sink — the feed the `sfs-obs` streaming sFS monitors
    /// certify on without retaining the trace. Strictly execution-neutral
    /// — the `obs_equiv` conformance suite pins that an observed run is
    /// fingerprint-identical to a bare one; the UDP leg, whose
    /// nodes run in separate OS processes, replays the Lamport-merged
    /// trace through the sink at the parent after the run. `None` (the
    /// default) costs nothing.
    pub sink: Option<EventSinkHandle>,
}

/// Which in-process engine executes a [`ClusterSpec::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The deterministic discrete-event simulator (virtual time).
    Sim,
    /// The event-driven threaded runtime: real OS threads on a virtual
    /// clock, advancing straight to the next due deadline.
    Threaded,
}

impl Backend {
    /// Every backend, in declaration order.
    pub const ALL: [Backend; 2] = [Backend::Sim, Backend::Threaded];
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Backend::Sim => "sim",
            Backend::Threaded => "threaded",
        })
    }
}

/// What a caller asks of one [`ClusterSpec::run`] beyond the spec itself.
/// The default records a trace and measures nothing.
pub struct Instruments<M> {
    /// Keep a trace ([`RunOutcome::trace`]). Off, neither engine builds
    /// one: every event still reaches [`ClusterSpec::sink`], and the run
    /// reports only its [`RunSummary`].
    pub record: bool,
    /// A wire-byte measure over the transport leg's frames (e.g.
    /// `sfs_wire::wire_cost`): every sent frame is charged `measure(frame)` bytes to
    /// [`SimStats::wire_bytes`](sfs_asys::SimStats). Needs
    /// [`ClusterSpec::net`]; on a bare spec the run is refused with
    /// [`SpecError::MeasureWithoutNet`].
    pub measure: Option<Measure<TransportMsg<SfsMsg<M>>>>,
}

impl<M> Default for Instruments<M> {
    fn default() -> Self {
        Instruments {
            record: true,
            measure: None,
        }
    }
}

impl<M> fmt::Debug for Instruments<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Instruments")
            .field("record", &self.record)
            .field("measure", &self.measure.is_some())
            .finish()
    }
}

/// How one [`ClusterSpec::run`] ended.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Why and when the run stopped, its counters and its event count.
    pub summary: RunSummary,
    /// The trace, when [`Instruments::record`] was on.
    pub trace: Option<Trace>,
    /// Whether the run was maximal. On the simulator: it stopped
    /// [complete](sfs_asys::StopReason::is_complete). On threads: the
    /// runtime's drain handshake ([`Runtime::drain`]) saw it quiesce —
    /// every forwarded event fully dispatched, nothing pending — so no
    /// recorded receive is missing its handler's effects.
    pub quiesced: bool,
}

impl RunOutcome {
    /// The outcome of a run that kept `trace`, its summary read off it.
    fn recorded(trace: Trace, quiesced: bool) -> Self {
        RunOutcome {
            summary: RunSummary {
                stop: trace.stop_reason(),
                end_time: trace.end_time(),
                stats: trace.stats(),
                events: trace.events().len(),
            },
            trace: Some(trace),
            quiesced,
        }
    }

    /// The outcome of a run that kept no trace.
    fn unrecorded(summary: RunSummary, quiesced: bool) -> Self {
        RunOutcome {
            summary,
            trace: None,
            quiesced,
        }
    }

    /// Runs a built simulator, recorded or not.
    fn of_sim<M: Clone + fmt::Debug + 'static>(sim: Sim<M>, record: bool) -> Self {
        let out = if record {
            RunOutcome::recorded(sim.run(), false)
        } else {
            RunOutcome::unrecorded(sim.run_unrecorded(), false)
        };
        RunOutcome {
            quiesced: out.summary.stop.is_complete(),
            ..out
        }
    }

    /// The recorded trace.
    ///
    /// # Panics
    ///
    /// Panics if the run was not recorded ([`Instruments::record`] off).
    pub fn into_trace(self) -> Trace {
        self.trace.expect("a recorded run carries its trace")
    }
}

/// Wall-clock bound on waiting for a threaded run to quiesce or stall.
/// The runtime answers the drain as soon as either happens, so this only
/// guards against a hang; it paces nothing.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

impl ClusterSpec {
    /// A quiescence-friendly spec: no heartbeats, moderate random latency.
    pub fn new(n: usize, t: usize) -> Self {
        ClusterSpec {
            n,
            t,
            mode: ModeSpec::SfsOneRound,
            quorum: QuorumPolicy::FixedMinimum,
            heartbeat: None,
            gate_app_messages: true,
            crash_on_own_obituary: true,
            seed: 0,
            latency: (1, 10),
            max_time: VirtualTime::from_ticks(1_000_000),
            max_events: 1_000_000,
            crashes: Vec::new(),
            suspicions: Vec::new(),
            net: None,
            sink: None,
        }
    }

    /// Installs a trace-event sink (e.g. an `sfs-obs` streaming sFS
    /// monitor, or a fanout of several) on whichever engine the spec
    /// runs on.
    pub fn event_sink(mut self, sink: EventSinkHandle) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Installs the network description, which puts the run on the
    /// transport-backed leg (see [`ClusterSpec::net`]).
    pub fn net(mut self, net: NetSpec) -> Self {
        self.net = Some(net);
        self
    }

    /// Validates the spec against the paper's feasibility bounds without
    /// running anything: `n ≥ 1`; for [`ModeSpec::SfsOneRound`] the
    /// quorum policy must be able to make progress against `t` failures
    /// (Corollary 8's `n > t²` for the fixed minimum quorum); and the
    /// latency bounds must form a real interval
    /// ([`UniformLatency::try_new`]).
    ///
    /// Every runner calls this first, so infeasible shapes surface as
    /// typed [`SpecError`]s instead of panics.
    ///
    /// # Errors
    ///
    /// [`SpecError::Quorum`] with
    /// [`QuorumError::NoProcesses`] when `n == 0` or
    /// [`QuorumError::Infeasible`](crate::quorum::QuorumError::Infeasible)
    /// when the quorum cannot survive `t` failures;
    /// [`SpecError::Latency`] when `latency.0 > latency.1`.
    ///
    /// # Examples
    ///
    /// ```
    /// use sfs::ClusterSpec;
    ///
    /// assert!(ClusterSpec::new(10, 3).validate().is_ok());
    /// assert!(ClusterSpec::new(9, 3).validate().is_err()); // 9 = 3², not > 3²
    /// assert!(ClusterSpec::new(10, 3).latency(9, 2).validate().is_err());
    /// ```
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.n == 0 {
            return Err(QuorumError::NoProcesses.into());
        }
        if matches!(self.mode, ModeSpec::SfsOneRound) {
            self.quorum.validated(self.n, self.t)?;
        }
        UniformLatency::try_new(self.latency.0, self.latency.1)?;
        if let Some(net) = &self.net {
            net.arq.validate()?;
            if let Some(probe) = &net.probe {
                probe.validate()?;
            }
            if let Some(adaptive) = &net.adaptive {
                adaptive.validate()?;
            }
        }
        Ok(())
    }

    /// The spec's uniform latency model, after validation.
    fn latency_model(&self) -> Result<UniformLatency, SpecError> {
        Ok(UniformLatency::try_new(self.latency.0, self.latency.1)?)
    }

    /// The faulty-link model the spec's [`NetSpec`] describes, over the
    /// spec's uniform latency.
    fn link_model(&self) -> Result<FaultyLink<UniformLatency>, SpecError> {
        let net = self.net.clone().unwrap_or_default();
        Ok(FaultyLink::new(self.latency_model()?)
            .loss(net.loss)
            .duplicate(net.duplicate)
            .partitions(net.partitions)
            .storms(net.storms))
    }

    /// Sets the detector.
    pub fn mode(mut self, mode: ModeSpec) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the quorum policy.
    pub fn quorum(mut self, quorum: QuorumPolicy) -> Self {
        self.quorum = quorum;
        self
    }

    /// Enables heartbeats.
    pub fn heartbeat(mut self, hb: HeartbeatConfig) -> Self {
        self.heartbeat = Some(hb);
        self
    }

    /// Sets the scheduler seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets uniform latency bounds.
    pub fn latency(mut self, min: u64, max: u64) -> Self {
        self.latency = (min, max);
        self
    }

    /// Sets the virtual-time horizon.
    pub fn max_time(mut self, t: u64) -> Self {
        self.max_time = VirtualTime::from_ticks(t);
        self
    }

    /// Schedules a crash.
    pub fn crash(mut self, victim: ProcessId, at: u64) -> Self {
        self.crashes.push((victim, at));
        self
    }

    /// Schedules an erroneous suspicion.
    pub fn suspect(mut self, suspector: ProcessId, suspect: ProcessId, at: u64) -> Self {
        self.suspicions.push((suspector, suspect, at));
        self
    }

    /// Ablation: disable sFS2d receive gating.
    pub fn without_gating(mut self) -> Self {
        self.gate_app_messages = false;
        self
    }

    /// Ablation: survive one's own obituary.
    pub fn without_self_crash(mut self) -> Self {
        self.crash_on_own_obituary = false;
        self
    }

    /// The per-process protocol configuration this spec describes, with
    /// oracle mode wired to `registry` — the one construction site every
    /// build path (sim, threaded, and their net legs) shares.
    fn sfs_config(&self, registry: &CrashRegistry) -> SfsConfig {
        let mode = match self.mode {
            ModeSpec::SfsOneRound => crate::config::DetectionMode::SfsOneRound,
            ModeSpec::Unilateral => crate::config::DetectionMode::Unilateral,
            ModeSpec::CheapBroadcast => crate::config::DetectionMode::CheapBroadcast,
            ModeSpec::Oracle => crate::config::DetectionMode::Oracle(registry.clone()),
        };
        SfsConfig::new(self.n, self.t)
            .mode(mode)
            .quorum(self.quorum)
            .heartbeat(self.heartbeat)
            .gate_app_messages(self.gate_app_messages)
            .crash_on_own_obituary(self.crash_on_own_obituary)
    }

    /// The scripted crashes and suspicions as a fault plan over an
    /// arbitrary wire alphabet: `wrap` embeds each suspicion stimulus
    /// (bare legs use `SfsMsg::Control`; net legs add the transport
    /// envelope).
    fn fault_plan_wrapped<P: Clone>(&self, wrap: impl Fn(Control) -> P) -> FaultPlan<P> {
        let mut plan = FaultPlan::new();
        for &(victim, at) in &self.crashes {
            plan = plan.crash_at(victim, VirtualTime::from_ticks(at));
        }
        for &(by, suspect, at) in &self.suspicions {
            plan = plan.external_at(
                by,
                VirtualTime::from_ticks(at),
                wrap(Control::Suspect { suspect }),
            );
        }
        plan
    }

    fn fault_plan<M: Clone>(&self) -> FaultPlan<SfsMsg<M>> {
        self.fault_plan_wrapped(SfsMsg::Control)
    }

    /// The §5 automaton this spec describes, around `app`.
    fn sfs_process<A: Application>(&self, registry: &CrashRegistry, app: A) -> SfsProcess<A> {
        SfsProcess::new(self.sfs_config(registry), app)
            .expect("validate() already admitted this shape")
    }

    /// The one simulator build path: validates the spec and configures a
    /// builder with its seed, bounds, fault plan, classifier and sink.
    /// The caller installs the link and builds the processes.
    fn sim_builder<M: Clone + fmt::Debug + 'static>(
        &self,
        plan: FaultPlan<M>,
        classify: impl Fn(&M) -> bool + Send + Sync + 'static,
    ) -> Result<SimBuilder<M>, SpecError> {
        self.validate()?;
        let builder = Sim::builder(self.n)
            .seed(self.seed)
            .max_time(self.max_time)
            .max_events(self.max_events)
            .classify(classify)
            .faults(plan);
        Ok(match &self.sink {
            Some(sink) => builder.event_sink(sink.clone()),
            None => builder,
        })
    }

    /// Runs the cluster with an application per process, on `backend`,
    /// and reports how it ended. [`ClusterSpec::net`] alone picks the
    /// leg: `None` runs the §5 automaton on bare channels, `Some` runs it
    /// inside the `sfs-transport` ARQ layer over the described faulty
    /// link. `instruments` says whether to keep a trace and whether to
    /// measure wire bytes.
    ///
    /// On [`Backend::Threaded`] the same protocol code runs on real OS
    /// threads on the event-driven virtual clock, and the run is a
    /// function of the spec and its seed. The spec's scripted crashes and
    /// suspicions ride their processes' timer wheels and fire at their
    /// exact virtual ticks (before any message due at the same instant);
    /// the runtime gets the simulator's infrastructure classifier (so
    /// histories project identically), a [`CrashRegistry`] it marks at
    /// the end of each round (so [`ModeSpec::Oracle`] works on threads
    /// too), and the spec's `max_time`/`max_events` bounds.
    /// Heartbeat and oracle configurations re-arm timers forever: they
    /// run to those bounds at compute speed and report
    /// [`RunOutcome::quiesced`] `false`.
    ///
    /// # Errors
    ///
    /// Whatever [`ClusterSpec::validate`] reports, and
    /// [`SpecError::MeasureWithoutNet`] for a measure on a bare spec.
    ///
    /// # Examples
    ///
    /// ```
    /// use sfs::{Backend, ClusterSpec, Instruments, NetSpec, NullApp};
    /// use sfs_asys::ProcessId;
    ///
    /// let bare = ClusterSpec::new(4, 1).suspect(ProcessId::new(1), ProcessId::new(0), 10);
    /// let wrapped = bare.clone().net(NetSpec::faultless());
    /// for backend in Backend::ALL {
    ///     for spec in [&bare, &wrapped] {
    ///         let out = spec.run(backend, Instruments::default(), |_| NullApp).unwrap();
    ///         assert!(out.quiesced);
    ///         assert_eq!(out.into_trace().crashed(), vec![ProcessId::new(0)]);
    ///     }
    /// }
    /// ```
    pub fn run<A, F>(
        &self,
        backend: Backend,
        instruments: Instruments<A::Msg>,
        mut make_app: F,
    ) -> Result<RunOutcome, SpecError>
    where
        A: Application + Send + 'static,
        A::Msg: Send,
        F: FnMut(ProcessId) -> A,
    {
        self.validate()?;
        let Instruments { record, measure } = instruments;
        Ok(match (backend, &self.net) {
            (_, None) if measure.is_some() => return Err(SpecError::MeasureWithoutNet),
            (Backend::Sim, None) => RunOutcome::of_sim(
                self.try_build_with_latency(self.latency_model()?, make_app)?,
                record,
            ),
            (Backend::Sim, Some(_)) => {
                let sim = self.try_build_net_with(
                    |b| match measure {
                        Some(measure) => b.measure(move |m| measure(m)),
                        None => b,
                    },
                    make_app,
                )?;
                RunOutcome::of_sim(sim, record)
            }
            (Backend::Threaded, None) => self.on_threads(
                RuntimeConfig {
                    record,
                    classify: Some(Arc::new(|m: &SfsMsg<A::Msg>| !m.is_app())),
                    faults: self.fault_plan(),
                    ..RuntimeConfig::default()
                },
                |pid, registry| Box::new(self.sfs_process(registry, make_app(pid))),
            ),
            (Backend::Threaded, Some(net)) => self.on_threads(
                RuntimeConfig {
                    record,
                    link: Some(Box::new(self.link_model()?)),
                    classify: Some(Arc::new(|_: &TransportMsg<SfsMsg<A::Msg>>| true)),
                    measure,
                    faults: self.fault_plan_net(),
                    ..RuntimeConfig::default()
                },
                |pid, registry| Box::new(self.wrap_process(net, registry, make_app(pid))),
            ),
        })
    }

    /// The threaded arm of [`ClusterSpec::run`]: completes `config` with
    /// the spec's seed, bounds and sink and a [`CrashRegistry`] the
    /// runtime marks, spawns every process `make` builds against that
    /// registry, drains, and shuts down as `config.record` asks.
    fn on_threads<M>(
        &self,
        config: RuntimeConfig<M>,
        mut make: impl FnMut(ProcessId, &CrashRegistry) -> Box<dyn Process<M> + Send>,
    ) -> RunOutcome
    where
        M: Clone + fmt::Debug + Send + 'static,
    {
        let registry = CrashRegistry::new(self.n);
        let record = config.record;
        let config = RuntimeConfig {
            seed: self.seed,
            sink: self.sink.clone(),
            registry: Some(registry.clone()),
            max_time: self.max_time,
            max_events: self.max_events,
            ..config
        };
        let rt = Runtime::spawn(self.n, config, |pid| make(pid, &registry));
        let quiesced = rt.drain(DRAIN_TIMEOUT);
        if record {
            RunOutcome::recorded(rt.shutdown(), quiesced)
        } else {
            RunOutcome::unrecorded(rt.shutdown_unrecorded(), quiesced)
        }
    }

    /// Runs the cluster on the simulator with [`NullApp`] on every
    /// process and returns its trace: [`ClusterSpec::run`] on
    /// [`Backend::Sim`], recorded, so a set [`ClusterSpec::net`] puts it
    /// on the transport leg.
    ///
    /// # Errors
    ///
    /// Whatever [`ClusterSpec::validate`] reports ([`SpecError`]):
    /// infeasible shapes (`n = 0`, or `n ≤ t²` under the fixed minimum
    /// quorum) come back as typed errors, never panics.
    pub fn try_run(self) -> Result<Trace, SpecError> {
        Ok(self
            .run(Backend::Sim, Instruments::default(), |_| NullApp)?
            .into_trace())
    }

    /// Builds the cluster's simulator **without running it**, over a
    /// custom latency model (e.g. the adversarial
    /// [`OverrideLatency`](sfs_asys::OverrideLatency) used by the Theorem 6
    /// experiment; `.run()` on the result runs it). Also the hook for
    /// schedule exploration: the `sfs-explore` crate re-executes the
    /// same cluster under every schedule its search prescribes, so it
    /// needs a fresh, un-run [`Sim`] per execution.
    ///
    /// # Errors
    ///
    /// Whatever [`ClusterSpec::validate`] reports ([`SpecError`]).
    pub fn try_build_with_latency<A, F>(
        &self,
        latency: impl LinkModel + 'static,
        mut make_app: F,
    ) -> Result<Sim<SfsMsg<A::Msg>>, SpecError>
    where
        A: Application,
        F: FnMut(ProcessId) -> A,
    {
        // Obituaries and heartbeats are the detector's own mechanism,
        // beneath the paper's formal model; only App messages are
        // model-level events.
        let builder = self
            .sim_builder(self.fault_plan(), |m: &SfsMsg<A::Msg>| !m.is_app())?
            .link(latency);
        let registry = builder.crash_registry();
        Ok(builder.build(|pid| Box::new(self.sfs_process(&registry, make_app(pid)))))
    }

    // ---- the faulty-network (transport-backed) legs ----------------------

    /// The spec's fault plan over the transport wire alphabet: crashes
    /// unchanged; suspicions wrapped as [`TransportMsg::Ctl`] stimuli the
    /// ARQ wrapper unwraps to the protocol's `on_external`.
    fn fault_plan_net<M: Clone>(&self) -> FaultPlan<TransportMsg<SfsMsg<M>>> {
        self.fault_plan_wrapped(|c| TransportMsg::Ctl(SfsMsg::Control(c)))
    }

    /// One transport-wrapped protocol process, as the net legs build it:
    /// the §5 automaton inside the ARQ layer, with inner-payload
    /// classification (only `App` messages are model-level) and — when
    /// the [`NetSpec`] enables probing — endogenous suspicion wired to
    /// `Control::Suspect`.
    pub(crate) fn wrap_process<A: Application>(
        &self,
        net: &NetSpec,
        registry: &CrashRegistry,
        app: A,
    ) -> Reliable<SfsProcess<A>, SfsMsg<A::Msg>> {
        let mut wrapped = Reliable::new(self.sfs_process(registry, app), net.arq)
            .classify(|m: &SfsMsg<A::Msg>| !m.is_app());
        if let Some(probe) = net.probe {
            wrapped = wrapped.suspicion(probe, |peer| {
                SfsMsg::Control(Control::Suspect { suspect: peer })
            });
        }
        if let Some(adaptive) = net.adaptive {
            wrapped = wrapped.adaptive(adaptive);
        }
        wrapped
    }

    /// Builds the **transport-backed** simulator for this spec — the §5
    /// protocol wrapped in the `sfs-transport` ARQ layer, over the
    /// faulty link the spec's [`NetSpec`] describes — without running
    /// it. The net-leg mirror of [`ClusterSpec::try_build_with_latency`]:
    /// schedule exploration and conformance re-execute from here.
    ///
    /// All wire frames are classified as infrastructure; the model-level
    /// history comes from the wrapper's logical send/receive events, so
    /// the usual projections and property checkers apply unchanged.
    ///
    /// `tune` receives the fully configured
    /// [`SimBuilder`](sfs_asys::SimBuilder) right before processes are
    /// constructed, for instrumentation the spec itself does not model —
    /// e.g. the wire-byte measure behind
    /// [`ClusterSpec::try_run_net_measured`]; pass `|b| b` for none.
    ///
    /// # Errors
    ///
    /// Whatever [`ClusterSpec::validate`] reports ([`SpecError`]).
    pub fn try_build_net_with<A, F, G>(
        &self,
        tune: G,
        mut make_app: F,
    ) -> Result<Sim<TransportMsg<SfsMsg<A::Msg>>>, SpecError>
    where
        A: Application,
        F: FnMut(ProcessId) -> A,
        G: FnOnce(
            SimBuilder<TransportMsg<SfsMsg<A::Msg>>>,
        ) -> SimBuilder<TransportMsg<SfsMsg<A::Msg>>>,
    {
        // Every wire frame is transport infrastructure; the model alphabet
        // is reconstructed from the wrapper's logical events.
        let builder = self.sim_builder(self.fault_plan_net(), |_| true)?;
        let net = self.net.clone().unwrap_or_default();
        let builder = tune(builder.link(self.link_model()?));
        let registry = builder.crash_registry();
        Ok(builder.build(|pid| Box::new(self.wrap_process(&net, &registry, make_app(pid)))))
    }

    /// Runs the transport-backed cluster on the simulator with an
    /// application per process.
    ///
    /// # Errors
    ///
    /// Whatever [`ClusterSpec::validate`] reports ([`SpecError`]).
    pub fn try_run_net<A, F>(&self, make_app: F) -> Result<Trace, SpecError>
    where
        A: Application,
        F: FnMut(ProcessId) -> A,
    {
        Ok(self.try_build_net_with(|b| b, make_app)?.run())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_asys::StopReason;
    use sfs_history::History;
    use sfs_tlogic::{properties, Verdict};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn injected_suspicion_detects_and_kills_the_victim() {
        // p1 erroneously suspects p0; the protocol must (a) eventually make
        // every live process detect p0, and (b) crash p0 (sFS2a).
        let trace = ClusterSpec::new(5, 2)
            .seed(3)
            .suspect(p(1), p(0), 10)
            .try_run()
            .expect("feasible spec");
        assert_eq!(trace.stop_reason(), StopReason::Quiescent);
        assert_eq!(trace.crashed(), vec![p(0)]);
        let h = History::from_trace(&trace);
        let reports = properties::check_sfs_suite(&h, true);
        for r in &reports {
            assert!(r.is_ok(), "{r}\n{}", trace.to_pretty_string());
        }
        // All four survivors detected p0.
        let detectors: std::collections::BTreeSet<_> =
            trace.detections().into_iter().map(|(by, _)| by).collect();
        assert_eq!(detectors.len(), 4);
    }

    #[test]
    fn real_crash_with_heartbeats_is_detected_by_all() {
        let trace = ClusterSpec::new(4, 1)
            .heartbeat(HeartbeatConfig::default())
            .crash(p(2), 50)
            .max_time(2_000)
            .seed(7)
            .try_run()
            .expect("feasible spec");
        let h = History::from_trace(&trace);
        assert_eq!(
            properties::check_fs2(&h).verdict,
            Verdict::Holds,
            "true crash: FS2 holds"
        );
        let detectors: std::collections::BTreeSet<_> = trace
            .detections()
            .into_iter()
            .map(|(by, of)| {
                assert_eq!(of, p(2));
                by
            })
            .collect();
        assert_eq!(detectors.len(), 3, "{}", trace.to_pretty_string());
    }

    #[test]
    fn oracle_mode_produces_fs_runs() {
        let trace = ClusterSpec::new(4, 1)
            .mode(ModeSpec::Oracle)
            .heartbeat(HeartbeatConfig::default())
            .crash(p(1), 40)
            .max_time(1_000)
            .seed(5)
            .try_run()
            .expect("feasible spec");
        let h = History::from_trace(&trace);
        assert_eq!(properties::check_fs2(&h).verdict, Verdict::Holds);
        assert_eq!(properties::check_fs1(&h, false).verdict, Verdict::Holds);
    }

    #[test]
    fn unilateral_mode_detects_without_killing() {
        // Unilateral detection does not propagate an obituary, so the
        // victim survives — an sFS2a violation on a complete run.
        let trace = ClusterSpec::new(3, 1)
            .mode(ModeSpec::Unilateral)
            .suspect(p(1), p(0), 10)
            .try_run()
            .expect("feasible spec");
        assert_eq!(trace.crashed(), vec![]);
        let h = History::from_trace(&trace);
        assert_eq!(properties::check_sfs2a(&h, true).verdict, Verdict::Violated);
    }

    #[test]
    fn cheap_broadcast_kills_but_skips_quorum() {
        let trace = ClusterSpec::new(5, 2)
            .mode(ModeSpec::CheapBroadcast)
            .suspect(p(1), p(0), 10)
            .try_run()
            .expect("feasible spec");
        assert_eq!(trace.crashed(), vec![p(0)]);
        let h = History::from_trace(&trace);
        assert_eq!(properties::check_sfs2a(&h, true).verdict, Verdict::Holds);
        assert_eq!(properties::check_sfs2c(&h).verdict, Verdict::Holds);
        assert_eq!(properties::check_sfs2d(&h).verdict, Verdict::Holds);
    }

    #[test]
    fn threaded_backend_runs_the_same_spec() {
        // The same declarative spec, on real threads: p1's injected
        // suspicion must detect-and-kill p0 exactly as in the simulator.
        let trace = ClusterSpec::new(4, 1)
            .suspect(p(1), p(0), 10)
            .run(Backend::Threaded, Instruments::default(), |_| NullApp)
            .expect("feasible spec")
            .into_trace();
        assert_eq!(trace.crashed(), vec![p(0)], "{}", trace.to_pretty_string());
        assert!(trace.channels_drained(), "{}", trace.to_pretty_string());
        let h = History::from_trace(&trace);
        assert_eq!(properties::check_sfs2b(&h).verdict, Verdict::Holds);
    }

    #[test]
    fn threaded_crash_at_tick_t_precedes_every_event_at_t_plus_one() {
        // The spec's fault plan rides the victim's timer wheel, so a
        // scripted crash at tick 40 must be recorded at exactly tick 40,
        // before any event of tick 41 or later, and the victim must act
        // at no instant after it — the same guarantee the simulator's
        // build-time fault queue gives. Heartbeats keep the survivors
        // busy well past the crash so the ordering claim has teeth.
        use sfs_asys::TraceEventKind;

        let trace = ClusterSpec::new(4, 1)
            .heartbeat(HeartbeatConfig::default())
            .crash(p(2), 40)
            .max_time(200)
            .seed(7)
            .run(Backend::Threaded, Instruments::default(), |_| NullApp)
            .expect("feasible spec")
            .into_trace();
        let crash = trace
            .events()
            .iter()
            .find(|e| matches!(e.kind, TraceEventKind::Crash { pid } if pid == p(2)))
            .expect("scripted crash is recorded");
        assert_eq!(crash.time, VirtualTime::from_ticks(40));
        let mut saw_later_event = false;
        for e in trace.events() {
            if e.time > crash.time {
                saw_later_event = true;
                assert!(
                    e.seq > crash.seq,
                    "event at tick {} recorded before the tick-40 crash:\n{}",
                    e.time.ticks(),
                    trace.to_pretty_string()
                );
                assert_ne!(
                    e.kind.process(),
                    p(2),
                    "victim acted after its crash:\n{}",
                    trace.to_pretty_string()
                );
            }
        }
        assert!(saw_later_event, "run continued past the crash tick");
    }

    #[test]
    fn threaded_oracle_mode_detects_via_the_shared_registry() {
        // Oracle polls re-arm forever, so the run ends at its horizon.
        let trace = ClusterSpec::new(3, 1)
            .mode(ModeSpec::Oracle)
            .crash(p(2), 20)
            .max_time(1_000)
            .run(Backend::Threaded, Instruments::default(), |_| NullApp)
            .expect("feasible spec")
            .into_trace();
        let detectors: std::collections::BTreeSet<_> = trace
            .detections()
            .into_iter()
            .map(|(by, of)| {
                assert_eq!(of, p(2));
                by
            })
            .collect();
        assert_eq!(detectors.len(), 2, "{}", trace.to_pretty_string());
        assert_eq!(
            properties::check_fs2(&History::from_trace(&trace)).verdict,
            Verdict::Holds
        );
    }

    #[test]
    fn infeasible_shapes_return_typed_errors_not_panics() {
        use crate::quorum::QuorumError;

        // n = t² sits exactly on the wrong side of Corollary 8.
        let err = ClusterSpec::new(9, 3).try_run().unwrap_err();
        assert_eq!(
            err,
            SpecError::Quorum(QuorumError::Infeasible {
                n: 9,
                t: 3,
                required: 7
            })
        );
        // Every fallible entry point reports the same typed error.
        for backend in Backend::ALL {
            assert!(ClusterSpec::new(9, 3)
                .run(backend, Instruments::default(), |_| NullApp)
                .is_err());
        }
        assert!(ClusterSpec::new(9, 3)
            .try_build_with_latency(UniformLatency::new(1, 10), |_| NullApp)
            .is_err());
        // The empty system is its own error, caught before any engine
        // (whose constructors assert n > 0) can panic.
        assert_eq!(
            ClusterSpec::new(0, 0).try_run().unwrap_err(),
            SpecError::Quorum(QuorumError::NoProcesses)
        );
        // Inverted latency bounds are the other class of spec error,
        // surfaced through the same validation (never a panic).
        assert_eq!(
            ClusterSpec::new(10, 3).latency(9, 2).try_run().unwrap_err(),
            SpecError::Latency(sfs_asys::LatencyError::InvertedRange { min: 9, max: 2 })
        );
        // Degenerate transport configurations surface as typed spec
        // errors through the same validation, like latency errors.
        assert_eq!(
            ClusterSpec::new(10, 3)
                .net(NetSpec::faultless().arq(ArqConfig {
                    window: 0,
                    retransmit_after: 40,
                }))
                .validate()
                .unwrap_err(),
            SpecError::Transport(TransportError::ZeroWindow)
        );
        assert_eq!(
            ClusterSpec::new(10, 3)
                .net(NetSpec::faultless().probe(ProbeConfig {
                    interval: 20,
                    timeout: 0,
                    check_every: 25,
                }))
                .validate()
                .unwrap_err(),
            SpecError::Transport(TransportError::ZeroTimeout)
        );
        assert_eq!(
            ClusterSpec::new(10, 3)
                .net(NetSpec::faultless().adaptive(AdaptiveConfig {
                    min_rto: 50,
                    max_rto: 20,
                    jitter: 5,
                    max_suspicion: 1_000,
                }))
                .validate()
                .unwrap_err(),
            SpecError::Transport(TransportError::InvertedRtoBounds { min: 50, max: 20 })
        );
        // Non-quorum modes skip the Corollary 8 check, as in SfsConfig.
        assert!(ClusterSpec::new(9, 3)
            .mode(ModeSpec::Unilateral)
            .validate()
            .is_ok());
        // WaitForAll only needs t < n.
        assert!(ClusterSpec::new(9, 3)
            .quorum(QuorumPolicy::WaitForAll)
            .validate()
            .is_ok());
    }

    #[test]
    fn net_leg_loss_free_run_matches_the_bare_outcome() {
        // The transport-wrapped run of a faultless net must reproduce the
        // bare run's observable outcome: same victim, full sFS suite.
        let spec = ClusterSpec::new(5, 2).seed(3).suspect(p(1), p(0), 10);
        let bare = spec.clone().try_run().expect("feasible spec");
        let net = spec
            .net(NetSpec::faultless())
            .try_run_net(|_| NullApp)
            .expect("feasible spec");
        assert_eq!(net.stop_reason(), StopReason::Quiescent);
        assert_eq!(net.crashed(), bare.crashed());
        let h = History::from_trace(&net);
        assert!(h.validate().is_ok(), "{h}", h = h.to_pretty_string());
        for r in properties::check_sfs_suite(&h, true) {
            assert!(r.is_ok(), "{r}\n{}", net.to_pretty_string());
        }
        let detectors: std::collections::BTreeSet<_> =
            net.detections().into_iter().map(|(by, _)| by).collect();
        assert_eq!(detectors.len(), 4);
    }

    #[test]
    fn net_leg_keeps_every_sfs_clause_under_heavy_loss() {
        // 25% i.i.d. loss: the ARQ layer must reconstruct the reliable
        // channels and the protocol must keep all sFS clauses.
        for seed in [1, 7, 23] {
            let trace = ClusterSpec::new(5, 2)
                .seed(seed)
                .suspect(p(1), p(0), 10)
                .net(NetSpec::faultless().loss(0.25))
                .try_run_net(|_| NullApp)
                .expect("feasible spec");
            assert_eq!(trace.crashed(), vec![p(0)], "seed {seed}");
            assert!(trace.stats().messages_dropped > 0, "seed {seed}: not lossy");
            let h = History::from_trace(&trace);
            assert!(h.validate().is_ok(), "seed {seed}");
            let complete = trace.stop_reason().is_complete();
            for r in properties::check_sfs_suite(&h, complete) {
                assert!(r.is_ok(), "seed {seed}: {r}\n{}", trace.to_pretty_string());
            }
        }
    }

    #[test]
    fn endogenous_false_suspicion_becomes_a_clean_sfs_kill() {
        // No scripted suspicions, no crashes: p0's outbound links are
        // severed for [50, 600), so its transport heartbeats stop
        // arriving while p0 itself stays perfectly alive. The probers on
        // the other side time out — an endogenous FALSE suspicion — and
        // the §5 protocol converts it into a clean kill: quorum detection
        // by every survivor plus crash-by-own-obituary for p0 (whose
        // inbound links still work).
        let outbound: Vec<_> = (1..5).map(|j| (p(0), p(j))).collect();
        let trace = ClusterSpec::new(5, 2)
            .seed(11)
            .max_time(3_000)
            .net(
                NetSpec::faultless()
                    .probe(sfs_transport::ProbeConfig::default())
                    .partitions(PartitionSchedule::new().cut_links(
                        VirtualTime::from_ticks(50),
                        VirtualTime::from_ticks(600),
                        &outbound,
                    )),
            )
            .try_run_net(|_| NullApp)
            .expect("feasible spec");
        assert_eq!(trace.crashed(), vec![p(0)], "{}", trace.to_pretty_string());
        let detectors: std::collections::BTreeSet<_> = trace
            .detections()
            .into_iter()
            .map(|(by, of)| {
                assert_eq!(of, p(0), "only the isolated process is detected");
                by
            })
            .collect();
        assert_eq!(detectors.len(), 4, "every survivor detects p0");
        let h = History::from_trace(&trace);
        assert!(h.validate().is_ok());
        // Probing re-arms forever, so the run is horizon-bounded; all
        // safety clauses must hold on the prefix.
        for r in properties::check_sfs_suite(&h, false) {
            assert!(r.is_ok(), "{r}\n{}", trace.to_pretty_string());
        }
    }

    #[test]
    fn net_leg_runs_on_the_threaded_backend() {
        let trace = ClusterSpec::new(4, 1)
            .suspect(p(1), p(0), 10)
            .net(NetSpec::faultless())
            .run(Backend::Threaded, Instruments::default(), |_| NullApp)
            .expect("feasible spec")
            .into_trace();
        assert_eq!(trace.crashed(), vec![p(0)], "{}", trace.to_pretty_string());
        let h = History::from_trace(&trace);
        assert!(h.validate().is_ok(), "{}", h.to_pretty_string());
        assert_eq!(properties::check_sfs2b(&h).verdict, Verdict::Holds);
    }

    #[test]
    fn concurrent_mutual_suspicion_does_not_cycle() {
        // p0 suspects p1 and p1 suspects p0 at the same instant. sFS2b must
        // hold: at most one of failed_*(p0)/failed_*(p1) directions wins.
        for seed in 0..30 {
            let trace = ClusterSpec::new(5, 2)
                .seed(seed)
                .suspect(p(0), p(1), 10)
                .suspect(p(1), p(0), 10)
                .try_run()
                .expect("feasible spec");
            let h = History::from_trace(&trace);
            let r = properties::check_sfs2b(&h);
            assert!(r.is_ok(), "seed {seed}: {r}\n{}", trace.to_pretty_string());
        }
    }
}
