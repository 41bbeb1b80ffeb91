//! # sfs-transport — earning the reliable-FIFO channel abstraction
//!
//! The paper's §2 model *assumes* a reliable, infinite-buffer FIFO channel
//! between every ordered pair of processes, and leaves the source of
//! suspicions abstract ("e.g. due to a timeout at a lower level"). This
//! crate is the layer that **earns** both assumptions over a faulty
//! network (the [`LinkModel`](sfs_asys::LinkModel) seam in `sfs-asys`:
//! loss, duplication, partitions):
//!
//! * [`Reliable`] — a sliding-window ARQ wrapper around any
//!   [`Process<M>`]: per-channel sequence numbers, cumulative acks,
//!   retransmission on timeout, duplicate suppression, and in-order
//!   release. The wrapped process observes exactly the §2 contract —
//!   every payload delivered exactly once, per-channel FIFO — no matter
//!   what the link does (as long as it is *fair*: a message retransmitted
//!   forever is eventually delivered; a never-healing partition
//!   suspends the channel, exactly like the paper's unbounded delay).
//! * [`ProbeConfig`] + [`Reliable::suspicion`] — a heartbeat prober that
//!   turns missed-heartbeat timeouts into the `on_external` suspicions
//!   the §5 protocol otherwise only receives by script: the *endogenous*
//!   FS1 mechanism.
//!
//! ## Model-level events
//!
//! Trace consumers (the `sfs-history` projection, every property checker)
//! must see the *inner* protocol's sends and receives, not the wire
//! frames: a payload is received when the ARQ layer releases it in order,
//! which may be long after its first carrying frame arrived — or several
//! frames later, once a retransmission fills a loss gap. The wrapper
//! therefore emits [`Context::model_send`]/[`Context::model_recv`] events
//! with **logical** message ids that mirror the engine's own numbering
//! (one per inner send, in action order), while all wire frames are
//! classified as infrastructure. A loss-free transport-wrapped run
//! projects to a history isomorphic to the bare run's — pinned by the
//! `sfs-apps` HB-fingerprint equivalence test.
//!
//! # Examples
//!
//! Wrapping a trivial process and running it over a lossy link:
//!
//! ```
//! use sfs_asys::{Context, FaultyLink, Process, ProcessId, Sim, UniformLatency};
//! use sfs_transport::{ArqConfig, Reliable, TransportMsg};
//!
//! struct Echo;
//! impl Process<u32> for Echo {
//!     fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
//!         if ctx.id().index() == 0 {
//!             ctx.send(ProcessId::new(1), 7);
//!         }
//!     }
//!     fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: ProcessId, msg: u32) {
//!         if msg > 0 {
//!             ctx.send(from, msg - 1);
//!         }
//!     }
//! }
//!
//! let link = FaultyLink::new(UniformLatency::new(1, 5)).loss(0.2);
//! let sim = Sim::<TransportMsg<u32>>::builder(2)
//!     .seed(42)
//!     .link(link)
//!     .classify(|_| true) // wire frames are infrastructure
//!     .build(|_| Box::new(Reliable::new(Echo, ArqConfig::default())));
//! let trace = sim.run();
//! // Despite 20% loss, every payload ping-pongs through: 8 logical
//! // receives (7, 6, ..., 0), reconstructed by retransmission.
//! let model_recvs = trace.events().iter().filter(|e| {
//!     matches!(e.kind, sfs_asys::TraceEventKind::Recv { infra: false, .. })
//! }).count();
//! assert_eq!(model_recvs, 8);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use sfs_asys::{
    Action, Context, MsgId, Note, Process, ProcessId, ReceiveFilter, TimerId, VirtualTime,
};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// The wire alphabet of the transport: what actually crosses the faulty
/// network when the inner protocol speaks `M`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportMsg<M> {
    /// A sequenced data frame of channel `sender -> receiver`.
    Data {
        /// Per-channel sequence number (starting at 1).
        seq: u64,
        /// The sender's logical message counter at the inner send — the
        /// model-level [`MsgId`] sequence, mirroring the engine's own
        /// numbering so histories line up with bare runs.
        logical: u64,
        /// The inner payload.
        payload: M,
    },
    /// Cumulative acknowledgement: "I have contiguously received your
    /// frames up to `upto`" on the channel sender → acknowledger.
    Ack {
        /// Highest contiguously received sequence number.
        upto: u64,
    },
    /// Transport-level liveness beacon (not sequenced, not acked, not
    /// retransmitted): the raw material of endogenous suspicion.
    Ping,
    /// Environment stimulus passthrough: delivered via injection only
    /// (never sent on a channel); the wrapper unwraps it to the inner
    /// process's `on_external`.
    Ctl(M),
}

/// Why a transport configuration was rejected by the `try_new`
/// constructors. The plain `new` constructors instead clamp degenerate
/// values; validating call sites (`ClusterSpec::validate`) surface this
/// error like `LatencyError`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// An ARQ window of 0 could never transmit anything.
    ZeroWindow,
    /// A retransmit interval of 0 is a busy-loop timer.
    ZeroRetransmit,
    /// A heartbeat interval of 0 is a busy-loop broadcaster.
    ZeroInterval,
    /// A suspicion timeout of 0 suspects every peer instantly.
    ZeroTimeout,
    /// A check interval of 0 is a busy-loop scanner.
    ZeroCheck,
    /// An adaptive RTO floor of 0 permits busy-loop retransmission.
    ZeroMinRto,
    /// The adaptive RTO bounds are inverted: `max < min`.
    InvertedRtoBounds {
        /// The configured floor.
        min: u64,
        /// The configured ceiling.
        max: u64,
    },
    /// An adaptive suspicion ceiling of 0 suspects every peer instantly.
    ZeroMaxSuspicion,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::ZeroWindow => write!(f, "ARQ window must be at least 1"),
            TransportError::ZeroRetransmit => {
                write!(f, "retransmit interval must be at least 1 tick")
            }
            TransportError::ZeroInterval => {
                write!(f, "heartbeat interval must be at least 1 tick")
            }
            TransportError::ZeroTimeout => {
                write!(f, "suspicion timeout must be at least 1 tick")
            }
            TransportError::ZeroCheck => write!(f, "check interval must be at least 1 tick"),
            TransportError::ZeroMinRto => write!(f, "adaptive RTO floor must be at least 1 tick"),
            TransportError::InvertedRtoBounds { min, max } => {
                write!(f, "adaptive RTO bounds inverted: max {max} < min {min}")
            }
            TransportError::ZeroMaxSuspicion => {
                write!(f, "adaptive suspicion ceiling must be at least 1 tick")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// Sliding-window ARQ parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArqConfig {
    /// Maximum unacknowledged frames in flight per channel; further sends
    /// queue in a backlog until the window slides. Clamped to at least 1
    /// by [`Reliable::new`] — a zero window could transmit nothing, ever.
    pub window: usize,
    /// Ticks after which unacknowledged frames are retransmitted (one
    /// shared timer; every unacked frame on every channel is resent).
    /// Clamped to at least 1 by [`Reliable::new`].
    pub retransmit_after: u64,
}

impl ArqConfig {
    /// Validating constructor: rejects the degenerate values that
    /// [`Reliable::new`] would otherwise clamp silently.
    ///
    /// # Errors
    ///
    /// [`TransportError::ZeroWindow`] / [`TransportError::ZeroRetransmit`].
    pub fn try_new(window: usize, retransmit_after: u64) -> Result<Self, TransportError> {
        if window == 0 {
            return Err(TransportError::ZeroWindow);
        }
        if retransmit_after == 0 {
            return Err(TransportError::ZeroRetransmit);
        }
        Ok(ArqConfig {
            window,
            retransmit_after,
        })
    }

    /// Re-validates an already-built config (the `ClusterSpec::validate`
    /// entry point, where configs arrive via struct literals).
    pub fn validate(&self) -> Result<(), TransportError> {
        Self::try_new(self.window, self.retransmit_after).map(|_| ())
    }
}

impl Default for ArqConfig {
    fn default() -> Self {
        ArqConfig {
            window: 32,
            retransmit_after: 40,
        }
    }
}

/// Heartbeat-probe parameters for endogenous failure suspicion: the
/// transport-level mirror of the protocol's own FS1 mechanism, living
/// *below* the model like the paper's "timeout at a lower level".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeConfig {
    /// Ticks between [`TransportMsg::Ping`] broadcasts.
    pub interval: u64,
    /// Silence (in ticks) after which a peer is suspected.
    pub timeout: u64,
    /// Ticks between timeout scans.
    pub check_every: u64,
}

impl ProbeConfig {
    /// Validating constructor: rejects zero intervals and timeouts.
    ///
    /// # Errors
    ///
    /// [`TransportError::ZeroInterval`] / [`TransportError::ZeroTimeout`]
    /// / [`TransportError::ZeroCheck`].
    pub fn try_new(interval: u64, timeout: u64, check_every: u64) -> Result<Self, TransportError> {
        if interval == 0 {
            return Err(TransportError::ZeroInterval);
        }
        if timeout == 0 {
            return Err(TransportError::ZeroTimeout);
        }
        if check_every == 0 {
            return Err(TransportError::ZeroCheck);
        }
        Ok(ProbeConfig {
            interval,
            timeout,
            check_every,
        })
    }

    /// Re-validates an already-built config.
    pub fn validate(&self) -> Result<(), TransportError> {
        Self::try_new(self.interval, self.timeout, self.check_every).map(|_| ())
    }
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            interval: 20,
            timeout: 100,
            check_every: 25,
        }
    }
}

/// Adaptive-timeout parameters: Jacobson-style RTT estimation drives
/// per-channel retransmit deadlines (with exponential backoff and seeded
/// jitter), and per-peer heartbeat inter-arrival statistics drive the
/// suspicion threshold.
///
/// The learned suspicion threshold is **floored at the fixed
/// [`ProbeConfig::timeout`]** — adaptation only ever *extends* patience,
/// so an adaptive run never suspects earlier than the fixed config it
/// replaces — and capped at [`AdaptiveConfig::max_suspicion`] so a
/// genuinely dead peer is still detected in bounded time.
///
/// Jitter is drawn from the transport's own per-process rng (seeded from
/// the process id), never from the run's shared rng, so enabling
/// adaptation leaves the simulator's random stream — and hence every
/// loss-free run's HB fingerprint — untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveConfig {
    /// Floor of the computed RTO, in ticks.
    pub min_rto: u64,
    /// Ceiling of the computed (and backed-off) RTO, in ticks.
    pub max_rto: u64,
    /// Maximum seeded jitter added to each deadline, in ticks.
    pub jitter: u64,
    /// Ceiling of the learned suspicion threshold, in ticks.
    pub max_suspicion: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            min_rto: 20,
            max_rto: 2_000,
            jitter: 5,
            max_suspicion: 1_000,
        }
    }
}

impl AdaptiveConfig {
    /// Validating constructor.
    ///
    /// # Errors
    ///
    /// [`TransportError::ZeroMinRto`] /
    /// [`TransportError::InvertedRtoBounds`] /
    /// [`TransportError::ZeroMaxSuspicion`].
    pub fn try_new(
        min_rto: u64,
        max_rto: u64,
        jitter: u64,
        max_suspicion: u64,
    ) -> Result<Self, TransportError> {
        if min_rto == 0 {
            return Err(TransportError::ZeroMinRto);
        }
        if max_rto < min_rto {
            return Err(TransportError::InvertedRtoBounds {
                min: min_rto,
                max: max_rto,
            });
        }
        if max_suspicion == 0 {
            return Err(TransportError::ZeroMaxSuspicion);
        }
        Ok(AdaptiveConfig {
            min_rto,
            max_rto,
            jitter,
            max_suspicion,
        })
    }

    /// Re-validates an already-built config.
    pub fn validate(&self) -> Result<(), TransportError> {
        Self::try_new(self.min_rto, self.max_rto, self.jitter, self.max_suspicion).map(|_| ())
    }
}

/// Trace-note key under which the prober annotates each suspicion it
/// raises: `probe-suspect = <peer>`. Notes are invisible to the history
/// projection, so counting them never perturbs HB fingerprints.
pub const NOTE_PROBE_SUSPECT: &str = "probe-suspect";

/// Trace-note key under which the ARQ layer annotates each retransmission
/// burst: `retx = <frames resent>`.
pub const NOTE_RETX: &str = "retx";

/// Trace-note key under which the adaptive ARQ annotates its per-channel
/// retransmission timeout each time backoff re-arms it: `rto = <ticks>`.
/// The `sfs-obs` registry folds these into an RTO-evolution histogram;
/// like all notes, they never perturb HB fingerprints.
pub const NOTE_RTO: &str = "rto";

/// Outbound ARQ state of one channel `self -> peer`.
#[derive(Debug)]
struct OutChannel<M> {
    /// Next sequence number to assign (frames are numbered from 1).
    next_seq: u64,
    /// Sent frames not yet cumulatively acknowledged, ascending by seq.
    inflight: VecDeque<(u64, u64, M)>,
    /// Frames awaiting a window slot, ascending by seq (already
    /// numbered: ordering is fixed at the inner send).
    backlog: VecDeque<(u64, u64, M)>,
    /// Adaptive mode: smoothed round-trip time over this channel, in
    /// ticks (`None` until the first sample).
    srtt: Option<u64>,
    /// Adaptive mode: smoothed RTT deviation.
    rttvar: u64,
    /// Adaptive mode: consecutive retransmissions without progress
    /// (exponent of the backoff multiplier).
    backoff: u32,
    /// Adaptive mode: this channel's retransmit deadline, if armed.
    deadline: Option<VirtualTime>,
    /// Adaptive mode: the frame currently being timed for an RTT sample,
    /// as `(seq, sent_at)`. Cleared on retransmission (Karn's rule: an
    /// ack for a retransmitted frame is ambiguous).
    pending_sample: Option<(u64, VirtualTime)>,
}

impl<M> Default for OutChannel<M> {
    fn default() -> Self {
        OutChannel {
            next_seq: 1,
            inflight: VecDeque::new(),
            backlog: VecDeque::new(),
            srtt: None,
            rttvar: 0,
            backoff: 0,
            deadline: None,
            pending_sample: None,
        }
    }
}

/// Adaptive mode: Jacobson-style statistics over a peer's heartbeat
/// inter-arrival gaps, feeding the learned suspicion threshold.
#[derive(Debug, Clone, Copy, Default)]
struct GapStats {
    /// Smoothed inter-arrival gap (`None` until the first gap).
    srtt: Option<u64>,
    /// Smoothed gap deviation.
    var: u64,
    /// Largest gap ever survived — the peer proved it can fall this
    /// silent and still be alive.
    max: u64,
}

/// Inbound ARQ state of one channel `peer -> self`.
#[derive(Debug)]
struct InChannel<M> {
    /// Lowest sequence number not yet contiguously received.
    next_seq: u64,
    /// Frames received ahead of a gap, by seq.
    ooo: BTreeMap<u64, (u64, M)>,
    /// In-order payloads not yet released to the inner process (held by
    /// its receive filter — the sFS2d gate, honoured per channel exactly
    /// like the engine's own parking).
    ready: VecDeque<(u64, M)>,
}

impl<M> Default for InChannel<M> {
    fn default() -> Self {
        InChannel {
            next_seq: 1,
            ooo: BTreeMap::new(),
            ready: VecDeque::new(),
        }
    }
}

type Classifier<M> = Box<dyn Fn(&M) -> bool + Send>;
type SuspicionSource<M> = Box<dyn Fn(ProcessId) -> M + Send>;

/// The reliable-FIFO transport wrapper: runs any inner [`Process<M>`]
/// over the wire alphabet [`TransportMsg<M>`], re-exporting the §2
/// channel contract the inner process assumes. See the crate docs.
pub struct Reliable<P, M> {
    inner: P,
    config: ArqConfig,
    probe: Option<ProbeConfig>,
    /// Adaptive-timeout mode, if enabled. `None` leaves every fixed-mode
    /// code path untouched.
    adaptive: Option<AdaptiveConfig>,
    /// Adaptive mode: the transport's own jitter rng, seeded from the
    /// process id — never the run's shared rng.
    jitter_rng: Option<rand::rngs::StdRng>,
    /// Adaptive mode: per-peer heartbeat gap statistics.
    gap_stats: Vec<GapStats>,
    /// Adaptive mode: the deadline the shared retx timer is currently
    /// set for (earliest across channels).
    retx_deadline: Option<VirtualTime>,
    /// `true` = the inner payload is infrastructure (no model events);
    /// mirrors `SimBuilder::classify` one layer up.
    classify: Option<Classifier<M>>,
    /// Builds the `on_external` suspicion stimulus for a silent peer.
    suspect: Option<SuspicionSource<M>>,
    out: Vec<OutChannel<M>>,
    inp: Vec<InChannel<M>>,
    /// The model-level send counter, mirroring the engine's per-process
    /// `msg_seq`: incremented once per inner send action, in order.
    logical_seq: u64,
    /// The inner process's receive filter, applied at *release* time.
    inner_filter: Option<ReceiveFilter<M>>,
    retx_timer: Option<TimerId>,
    hb_timer: Option<TimerId>,
    check_timer: Option<TimerId>,
    last_heard: Vec<VirtualTime>,
    suspected: Vec<bool>,
    /// Peers the inner protocol has declared failed (`failed_i(j)`). By
    /// sFS2a a detected process really does crash, so the transport
    /// **abandons** their channels: pending frames are discarded, later
    /// sends go out untracked (fire-and-forget), retransmission and
    /// probing stop. This is the fail-stop knowledge that lets a
    /// reliable transport terminate: without it, frames to a dead peer
    /// would be retransmitted forever.
    given_up: Vec<bool>,
}

impl<P: fmt::Debug, M> fmt::Debug for Reliable<P, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Reliable")
            .field("inner", &self.inner)
            .field("config", &self.config)
            .field("logical_seq", &self.logical_seq)
            .finish_non_exhaustive()
    }
}

impl<P, M> Reliable<P, M> {
    /// Wraps `inner` with the given ARQ parameters, no probe, and no
    /// payload classification (every inner message is model-level).
    /// Degenerate parameters are clamped into the workable range: a
    /// window of 0 (which could never transmit anything) becomes 1, and
    /// a retransmit interval of 0 (a busy-loop timer) becomes 1.
    pub fn new(inner: P, config: ArqConfig) -> Self {
        let config = ArqConfig {
            window: config.window.max(1),
            retransmit_after: config.retransmit_after.max(1),
        };
        Reliable {
            inner,
            config,
            probe: None,
            adaptive: None,
            jitter_rng: None,
            gap_stats: Vec::new(),
            retx_deadline: None,
            classify: None,
            suspect: None,
            out: Vec::new(),
            inp: Vec::new(),
            logical_seq: 0,
            inner_filter: None,
            retx_timer: None,
            hb_timer: None,
            check_timer: None,
            last_heard: Vec::new(),
            suspected: Vec::new(),
            given_up: Vec::new(),
        }
    }

    /// Enables adaptive timeouts: RTT-driven per-channel retransmit
    /// deadlines (exponential backoff, Karn's rule, seeded jitter) and a
    /// learned per-peer suspicion threshold floored at the fixed
    /// [`ProbeConfig::timeout`]. See [`AdaptiveConfig`].
    pub fn adaptive(mut self, config: AdaptiveConfig) -> Self {
        self.adaptive = Some(config);
        self
    }

    /// Installs an infrastructure classifier for *inner* payloads:
    /// `true` marks a payload as protocol-internal, excluded from
    /// model-level trace events (the transport mirror of
    /// `SimBuilder::classify`).
    pub fn classify(mut self, f: impl Fn(&M) -> bool + Send + 'static) -> Self {
        self.classify = Some(Box::new(f));
        self
    }

    /// Enables heartbeat probing with `probe`, delivering
    /// `make_suspicion(peer)` to the inner process's `on_external` when a
    /// peer falls silent past the timeout — the endogenous replacement
    /// for scripted `Injection::External` suspicions.
    pub fn suspicion(
        mut self,
        probe: ProbeConfig,
        make_suspicion: impl Fn(ProcessId) -> M + Send + 'static,
    ) -> Self {
        self.probe = Some(probe);
        self.suspect = Some(Box::new(make_suspicion));
        self
    }

    /// Read access to the wrapped inner process.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    fn is_infra(&self, payload: &M) -> bool {
        self.classify.as_ref().is_some_and(|f| f(payload))
    }
}

impl<P, M> Reliable<P, M>
where
    P: Process<M>,
    M: Clone + 'static,
{
    fn ensure_init(&mut self, n: usize, now: VirtualTime, me: ProcessId) {
        if self.out.len() == n {
            return;
        }
        self.out = (0..n).map(|_| OutChannel::default()).collect();
        self.inp = (0..n).map(|_| InChannel::default()).collect();
        self.last_heard = vec![now; n];
        self.suspected = vec![false; n];
        self.given_up = vec![false; n];
        self.gap_stats = vec![GapStats::default(); n];
        if self.adaptive.is_some() && self.jitter_rng.is_none() {
            // Own rng, own seed: jitter must not perturb the run's
            // shared random stream (HB-fingerprint identity).
            use rand::SeedableRng;
            self.jitter_rng = Some(rand::rngs::StdRng::seed_from_u64(
                0xADA7_71E0_u64 ^ (me.index() as u64),
            ));
        }
    }

    /// Runs one inner callback against a derived context and translates
    /// the resulting actions into the wire alphabet.
    fn dispatch_inner(
        &mut self,
        ctx: &mut Context<'_, TransportMsg<M>>,
        f: impl FnOnce(&mut P, &mut Context<'_, M>),
    ) {
        let actions = {
            let mut inner_ctx = ctx.derive::<M>();
            f(&mut self.inner, &mut inner_ctx);
            inner_ctx.take_actions()
        };
        self.translate(ctx, actions);
    }

    /// Translates inner actions: sends go through the ARQ layer (with a
    /// model-level send event for non-infrastructure payloads); filter
    /// changes are absorbed (the gate lives here, not at the engine);
    /// everything else passes through verbatim.
    fn translate(&mut self, ctx: &mut Context<'_, TransportMsg<M>>, actions: Vec<Action<M>>) {
        for action in actions {
            match action {
                Action::Send { to, msg } => {
                    let logical = self.logical_seq;
                    self.logical_seq += 1;
                    if !self.is_infra(&msg) {
                        ctx.model_send(to, MsgId::new(ctx.id(), logical));
                    }
                    let adaptive = self.adaptive.is_some();
                    let now = ctx.now();
                    let ch = &mut self.out[to.index()];
                    let seq = ch.next_seq;
                    ch.next_seq += 1;
                    if self.given_up[to.index()] {
                        // Fire-and-forget to a detected-failed peer: the
                        // send still happens (the inner protocol asked for
                        // it), but reliability to a crashed process is
                        // vacuous, so nothing is tracked or retransmitted.
                        ctx.send(
                            to,
                            TransportMsg::Data {
                                seq,
                                logical,
                                payload: msg,
                            },
                        );
                    } else if ch.inflight.len() < self.config.window {
                        ch.inflight.push_back((seq, logical, msg.clone()));
                        if adaptive && ch.pending_sample.is_none() {
                            ch.pending_sample = Some((seq, now));
                        }
                        ctx.send(
                            to,
                            TransportMsg::Data {
                                seq,
                                logical,
                                payload: msg,
                            },
                        );
                        self.arm_retx_for(ctx, to.index());
                    } else {
                        ch.backlog.push_back((seq, logical, msg));
                        self.arm_retx_for(ctx, to.index());
                    }
                }
                Action::DeclareFailed { of } => {
                    // failed_self(of): by sFS2a the peer really does
                    // crash, so abandon its channel — discard pending
                    // frames and stop retransmitting/probing it.
                    self.given_up[of.index()] = true;
                    self.suspected[of.index()] = true;
                    self.out[of.index()].inflight.clear();
                    self.out[of.index()].backlog.clear();
                    self.maybe_cancel_retx(ctx);
                    ctx.push_action(Action::DeclareFailed { of });
                }
                Action::SetReceiveFilter(filter) => {
                    self.inner_filter = filter;
                    // The gate may have opened: release what it now admits.
                    self.pump(ctx);
                }
                other @ (Action::SetTimer { .. }
                | Action::CancelTimer { .. }
                | Action::CrashSelf
                | Action::Annotate(_)
                | Action::ModelSend { .. }
                | Action::ModelRecv { .. }) => {
                    ctx.push_action(retype(other));
                }
            }
        }
    }

    fn arm_retx(&mut self, ctx: &mut Context<'_, TransportMsg<M>>) {
        if self.retx_timer.is_none() {
            self.retx_timer = Some(ctx.set_timer(self.config.retransmit_after));
        }
    }

    /// Arms retransmission for `peer`'s channel: the fixed-mode shared
    /// timer, or (adaptive mode) the channel's own RTO deadline folded
    /// into the shared timer's earliest-deadline schedule.
    fn arm_retx_for(&mut self, ctx: &mut Context<'_, TransportMsg<M>>, peer: usize) {
        if self.adaptive.is_some() {
            if self.out[peer].deadline.is_none() {
                let rto = self.channel_rto(peer);
                self.out[peer].deadline = Some(ctx.now().saturating_add(rto));
            }
            self.rearm_retx_timer(ctx);
        } else {
            self.arm_retx(ctx);
        }
    }

    /// Adaptive mode: this channel's current retransmission timeout —
    /// Jacobson `srtt + 4·rttvar` clamped into `[min_rto, max_rto]`,
    /// doubled per unproductive retransmission (capped at `max_rto`),
    /// plus seeded jitter — the result never exceeds `max_rto`, even
    /// for ceilings near `u64::MAX`. Before the first RTT sample, the
    /// fixed `retransmit_after` seeds the estimate.
    fn channel_rto(&mut self, peer: usize) -> u64 {
        use rand::Rng;
        let Some(acfg) = self.adaptive else {
            return self.config.retransmit_after;
        };
        let ch = &self.out[peer];
        let base = match ch.srtt {
            Some(srtt) => srtt.saturating_add(ch.rttvar.max(1).saturating_mul(4)),
            None => self.config.retransmit_after,
        };
        let backed = base
            .clamp(acfg.min_rto, acfg.max_rto)
            .saturating_mul(1u64 << ch.backoff.min(20))
            .min(acfg.max_rto);
        let jitter = match &mut self.jitter_rng {
            Some(rng) if acfg.jitter > 0 => rng.gen_range(0..=acfg.jitter),
            _ => 0,
        };
        // Clamp at the source: jitter must not push the RTO past
        // `max_rto` (the configured ceiling is a promise to the timer
        // wheel), and near-`u64::MAX` configurations must not overflow.
        backed.saturating_add(jitter).min(acfg.max_rto)
    }

    /// Adaptive mode: points the shared retx timer at the earliest
    /// per-channel deadline (cancelling and re-setting only when the
    /// earliest actually moved).
    fn rearm_retx_timer(&mut self, ctx: &mut Context<'_, TransportMsg<M>>) {
        let earliest = self.out.iter().filter_map(|ch| ch.deadline).min();
        if earliest == self.retx_deadline && (earliest.is_none() || self.retx_timer.is_some()) {
            return;
        }
        if let Some(t) = self.retx_timer.take() {
            ctx.cancel_timer(t);
        }
        self.retx_deadline = earliest;
        if let Some(deadline) = earliest {
            let delay = deadline.since(ctx.now()).max(1);
            self.retx_timer = Some(ctx.set_timer(delay));
        }
    }

    /// Cancels the retransmit timer once nothing remains unacknowledged.
    fn maybe_cancel_retx(&mut self, ctx: &mut Context<'_, TransportMsg<M>>) {
        if self.adaptive.is_some() {
            for ch in self.out.iter_mut() {
                if ch.inflight.is_empty() && ch.backlog.is_empty() {
                    ch.deadline = None;
                    ch.pending_sample = None;
                }
            }
            self.rearm_retx_timer(ctx);
        } else if !self.has_unacked() {
            if let Some(t) = self.retx_timer.take() {
                ctx.cancel_timer(t);
            }
        }
    }

    /// Whether any channel still has unacknowledged or backlogged frames.
    fn has_unacked(&self) -> bool {
        self.out
            .iter()
            .any(|ch| !ch.inflight.is_empty() || !ch.backlog.is_empty())
    }

    /// Releases in-order payloads to the inner process, per channel in
    /// FIFO order, honouring the inner receive filter at the head (a
    /// refused head blocks its own channel only, like engine parking).
    fn pump(&mut self, ctx: &mut Context<'_, TransportMsg<M>>) {
        for s in 0..self.inp.len() {
            loop {
                let admit = match self.inp[s].ready.front() {
                    None => false,
                    Some((_, payload)) => self
                        .inner_filter
                        .as_ref()
                        .is_none_or(|f| f.accepts(payload)),
                };
                if !admit {
                    break;
                }
                let (logical, payload) = self.inp[s].ready.pop_front().expect("head admitted");
                let from = ProcessId::new(s);
                if !self.is_infra(&payload) {
                    ctx.model_recv(from, MsgId::new(from, logical));
                }
                self.dispatch_inner(ctx, |p, c| p.on_message(c, from, payload));
            }
        }
    }

    fn handle_data(
        &mut self,
        ctx: &mut Context<'_, TransportMsg<M>>,
        from: ProcessId,
        seq: u64,
        logical: u64,
        payload: M,
    ) {
        let ch = &mut self.inp[from.index()];
        if seq >= ch.next_seq {
            // New or ahead-of-gap frame; duplicates of buffered frames
            // are absorbed by the map insert.
            ch.ooo.entry(seq).or_insert((logical, payload));
            while let Some(entry) = ch.ooo.remove(&ch.next_seq) {
                ch.ready.push_back(entry);
                ch.next_seq += 1;
            }
        }
        // Cumulative ack — also re-sent for stale duplicates, so a lost
        // ack is recovered by the very retransmission it failed to stop.
        let upto = self.inp[from.index()].next_seq - 1;
        ctx.send(from, TransportMsg::Ack { upto });
        self.pump(ctx);
    }

    fn handle_ack(&mut self, ctx: &mut Context<'_, TransportMsg<M>>, from: ProcessId, upto: u64) {
        if self.given_up[from.index()] {
            return;
        }
        let adaptive = self.adaptive.is_some();
        let now = ctx.now();
        let window = self.config.window;
        let ch = &mut self.out[from.index()];
        if adaptive {
            // RTT sample, if this ack covers the timed frame. Karn's
            // rule holds by construction: pending_sample is cleared on
            // retransmission, so only a first-transmission ack samples.
            if let Some((seq, sent_at)) = ch.pending_sample {
                if seq <= upto {
                    let sample = now.since(sent_at).max(1);
                    match ch.srtt {
                        None => {
                            ch.srtt = Some(sample);
                            ch.rttvar = (sample / 2).max(1);
                        }
                        Some(srtt) => {
                            let delta = srtt.abs_diff(sample);
                            ch.rttvar = (3 * ch.rttvar + delta) / 4;
                            ch.srtt = Some((7 * srtt + sample) / 8);
                        }
                    }
                    ch.pending_sample = None;
                }
            }
        }
        let before = ch.inflight.len();
        while ch.inflight.front().is_some_and(|&(seq, _, _)| seq <= upto) {
            ch.inflight.pop_front();
        }
        if adaptive && ch.inflight.len() < before {
            // The window slid — progress, so the backoff resets.
            ch.backoff = 0;
        }
        // The window slid: promote backlogged frames.
        while ch.inflight.len() < window {
            let Some((seq, logical, payload)) = ch.backlog.pop_front() else {
                break;
            };
            ch.inflight.push_back((seq, logical, payload.clone()));
            if adaptive && ch.pending_sample.is_none() {
                ch.pending_sample = Some((seq, now));
            }
            ctx.send(
                from,
                TransportMsg::Data {
                    seq,
                    logical,
                    payload,
                },
            );
        }
        if adaptive {
            let empty = {
                let ch = &self.out[from.index()];
                ch.inflight.is_empty() && ch.backlog.is_empty()
            };
            self.out[from.index()].deadline = if empty {
                None
            } else {
                // Progress restarts the RTO from now (standard RFC 6298
                // timer management).
                let rto = self.channel_rto(from.index());
                Some(now.saturating_add(rto))
            };
            self.rearm_retx_timer(ctx);
        } else {
            self.maybe_cancel_retx(ctx);
        }
    }

    /// Retransmits every unacknowledged in-flight frame on every channel
    /// (the fixed-mode shared-timer path), annotating the burst size.
    fn retransmit_all(&mut self, ctx: &mut Context<'_, TransportMsg<M>>) {
        let mut count = 0u64;
        for (to, ch) in self.out.iter().enumerate() {
            for &(seq, logical, ref payload) in &ch.inflight {
                ctx.send(
                    ProcessId::new(to),
                    TransportMsg::Data {
                        seq,
                        logical,
                        payload: payload.clone(),
                    },
                );
                count += 1;
            }
        }
        if count > 0 {
            ctx.annotate(Note::key_val(NOTE_RETX, count));
        }
    }

    /// Adaptive mode: retransmits one channel's in-flight frames,
    /// annotating the burst size. Returns the number of frames resent.
    fn retransmit_channel(&mut self, ctx: &mut Context<'_, TransportMsg<M>>, peer: usize) -> u64 {
        let mut count = 0u64;
        for &(seq, logical, ref payload) in &self.out[peer].inflight {
            ctx.send(
                ProcessId::new(peer),
                TransportMsg::Data {
                    seq,
                    logical,
                    payload: payload.clone(),
                },
            );
            count += 1;
        }
        if count > 0 {
            ctx.annotate(Note::key_val(NOTE_RETX, count));
        }
        count
    }

    /// The silence (in ticks) after which peer `j` is suspected: the
    /// fixed `probe.timeout`, or — in adaptive mode, once gap statistics
    /// exist — the learned `gap_srtt + 4·gap_var + interval`, raised to
    /// twice the largest gap the peer ever survived, clamped into
    /// `[probe.timeout, max_suspicion]`. The floor means adaptation only
    /// ever *extends* patience; the ceiling bounds detection latency for
    /// a genuinely dead peer.
    fn suspicion_threshold(&self, j: usize, probe: ProbeConfig) -> u64 {
        match self.adaptive {
            None => probe.timeout,
            Some(acfg) => {
                let gs = self.gap_stats[j];
                let learned = match gs.srtt {
                    None => probe.timeout,
                    Some(srtt) => srtt
                        .saturating_add(gs.var.max(1).saturating_mul(4))
                        .saturating_add(probe.interval)
                        .max(gs.max.saturating_mul(2)),
                };
                learned.clamp(probe.timeout, acfg.max_suspicion)
            }
        }
    }

    fn run_probe_checks(&mut self, ctx: &mut Context<'_, TransportMsg<M>>) {
        let Some(probe) = self.probe else { return };
        let me = ctx.id();
        let now = ctx.now();
        for j in 0..self.last_heard.len() {
            let peer = ProcessId::new(j);
            if peer == me || self.suspected[j] || self.given_up[j] {
                continue;
            }
            if now.since(self.last_heard[j]) > self.suspicion_threshold(j, probe) {
                self.suspected[j] = true;
                ctx.annotate(Note::key_val(NOTE_PROBE_SUSPECT, peer));
                if let Some(make) = &self.suspect {
                    let stimulus = make(peer);
                    self.dispatch_inner(ctx, |p, c| p.on_external(c, stimulus));
                }
            }
        }
    }
}

/// Re-types a payload-free `Action<M>` into `Action<TransportMsg<M>>`.
/// `Send`, `SetReceiveFilter`, and `DeclareFailed` never reach here:
/// the translator handles each in its own arm (the first two carry `M`
/// payloads; the third triggers channel abandonment).
fn retype<M>(action: Action<M>) -> Action<TransportMsg<M>> {
    match action {
        Action::SetTimer { id, delay } => Action::SetTimer { id, delay },
        Action::CancelTimer { id } => Action::CancelTimer { id },
        Action::CrashSelf => Action::CrashSelf,
        Action::Annotate(note) => Action::Annotate(note),
        Action::ModelSend { to, msg } => Action::ModelSend { to, msg },
        Action::ModelRecv { from, msg } => Action::ModelRecv { from, msg },
        Action::Send { .. } | Action::SetReceiveFilter(_) | Action::DeclareFailed { .. } => {
            unreachable!("handled by the translator's dedicated arms")
        }
    }
}

impl<P, M> Process<TransportMsg<M>> for Reliable<P, M>
where
    P: Process<M>,
    M: Clone + fmt::Debug + 'static,
{
    fn on_start(&mut self, ctx: &mut Context<'_, TransportMsg<M>>) {
        self.ensure_init(ctx.n(), ctx.now(), ctx.id());
        if let Some(probe) = self.probe {
            ctx.broadcast(TransportMsg::Ping, false);
            self.hb_timer = Some(ctx.set_timer(probe.interval));
            self.check_timer = Some(ctx.set_timer(probe.check_every));
        }
        self.dispatch_inner(ctx, |p, c| p.on_start(c));
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, TransportMsg<M>>,
        from: ProcessId,
        msg: TransportMsg<M>,
    ) {
        self.ensure_init(ctx.n(), ctx.now(), ctx.id());
        if self.adaptive.is_some() {
            // Learn the peer's inter-arrival gap distribution *before*
            // refreshing last_heard — the gap just closed is the sample.
            let gap = ctx.now().since(self.last_heard[from.index()]);
            if gap > 0 {
                let gs = &mut self.gap_stats[from.index()];
                match gs.srtt {
                    None => {
                        gs.srtt = Some(gap);
                        gs.var = (gap / 2).max(1);
                    }
                    Some(srtt) => {
                        let delta = srtt.abs_diff(gap);
                        gs.var = (3 * gs.var + delta) / 4;
                        gs.srtt = Some((7 * srtt + gap) / 8);
                    }
                }
                gs.max = gs.max.max(gap);
            }
        }
        self.last_heard[from.index()] = ctx.now();
        match msg {
            TransportMsg::Data {
                seq,
                logical,
                payload,
            } => self.handle_data(ctx, from, seq, logical, payload),
            TransportMsg::Ack { upto } => self.handle_ack(ctx, from, upto),
            TransportMsg::Ping => {}
            TransportMsg::Ctl(_) => {
                // Control stimuli arrive via injection, never on a channel.
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, TransportMsg<M>>, timer: TimerId) {
        if Some(timer) == self.retx_timer {
            self.retx_timer = None;
            if self.adaptive.is_some() {
                self.retx_deadline = None;
                let now = ctx.now();
                for peer in 0..self.out.len() {
                    if self.out[peer].deadline.is_none_or(|d| d > now) {
                        continue;
                    }
                    if self.retransmit_channel(ctx, peer) > 0 {
                        let ch = &mut self.out[peer];
                        ch.backoff = ch.backoff.saturating_add(1);
                        // Karn: a retransmitted frame's ack is ambiguous.
                        ch.pending_sample = None;
                        let rto = self.channel_rto(peer);
                        ctx.annotate(Note::key_val(NOTE_RTO, rto));
                        self.out[peer].deadline = Some(now.saturating_add(rto));
                    } else {
                        self.out[peer].deadline = None;
                    }
                }
                self.rearm_retx_timer(ctx);
            } else if self.has_unacked() {
                self.retransmit_all(ctx);
                self.arm_retx(ctx);
            }
        } else if Some(timer) == self.hb_timer {
            ctx.broadcast(TransportMsg::Ping, false);
            if let Some(probe) = self.probe {
                self.hb_timer = Some(ctx.set_timer(probe.interval));
            }
        } else if Some(timer) == self.check_timer {
            self.run_probe_checks(ctx);
            if let Some(probe) = self.probe {
                self.check_timer = Some(ctx.set_timer(probe.check_every));
            }
        } else {
            self.dispatch_inner(ctx, |p, c| p.on_timer(c, timer));
        }
    }

    fn on_external(&mut self, ctx: &mut Context<'_, TransportMsg<M>>, payload: TransportMsg<M>) {
        self.ensure_init(ctx.n(), ctx.now(), ctx.id());
        match payload {
            TransportMsg::Ctl(m) | TransportMsg::Data { payload: m, .. } => {
                self.dispatch_inner(ctx, |p, c| p.on_external(c, m));
            }
            TransportMsg::Ack { .. } | TransportMsg::Ping => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_asys::{
        FaultyLink, FixedLatency, FnLink, LinkVerdict, PartitionSchedule, Sim, StopReason,
        TraceEventKind, UniformLatency,
    };

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// p0 floods `count` numbered payloads to p1 on start.
    struct Flood {
        count: u32,
    }
    impl Process<u32> for Flood {
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            for k in 0..self.count {
                ctx.send(p(1), k);
            }
        }
        fn on_message(&mut self, _: &mut Context<'_, u32>, _: ProcessId, _: u32) {}
    }

    struct Quiet;
    impl Process<u32> for Quiet {
        fn on_start(&mut self, _: &mut Context<'_, u32>) {}
        fn on_message(&mut self, _: &mut Context<'_, u32>, _: ProcessId, _: u32) {}
    }

    /// The logical receives at `by`, as (from, seq) pairs in trace order.
    fn model_recvs(trace: &sfs_asys::Trace, by: ProcessId) -> Vec<(ProcessId, u64)> {
        trace
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::Recv {
                    by: b,
                    from,
                    msg,
                    infra: false,
                    ..
                } if b == by => Some((from, msg.seq())),
                _ => None,
            })
            .collect()
    }

    fn flood_sim(
        count: u32,
        link: impl sfs_asys::LinkModel + 'static,
        seed: u64,
    ) -> Sim<TransportMsg<u32>> {
        Sim::<TransportMsg<u32>>::builder(2)
            .seed(seed)
            .link(link)
            .classify(|_| true)
            .build(move |pid| {
                if pid.index() == 0 {
                    Box::new(Reliable::new(Flood { count }, ArqConfig::default()))
                } else {
                    Box::new(Reliable::new(Quiet, ArqConfig::default()))
                }
            })
    }

    #[test]
    fn loss_free_link_delivers_in_order_and_quiesces() {
        let trace = flood_sim(20, FixedLatency(1), 0).run();
        assert_eq!(trace.stop_reason(), StopReason::Quiescent);
        let recvs = model_recvs(&trace, p(1));
        assert_eq!(recvs.len(), 20);
        assert!(recvs.windows(2).all(|w| w[0].1 < w[1].1), "{recvs:?}");
    }

    #[test]
    fn heavy_loss_is_repaired_by_retransmission() {
        for seed in 0..10 {
            let link = FaultyLink::new(UniformLatency::new(1, 8)).loss(0.4);
            let trace = flood_sim(25, link, seed).run();
            let recvs = model_recvs(&trace, p(1));
            assert_eq!(recvs.len(), 25, "seed {seed}: lost payloads");
            assert!(
                recvs.windows(2).all(|w| w[0].1 < w[1].1),
                "seed {seed}: out of order: {recvs:?}"
            );
            assert!(
                trace.stats().messages_dropped > 0,
                "seed {seed}: the link was supposed to be lossy"
            );
        }
    }

    #[test]
    fn duplication_is_suppressed() {
        for seed in 0..10 {
            let link = FaultyLink::new(UniformLatency::new(1, 8)).duplicate(0.5);
            let trace = flood_sim(25, link, seed).run();
            let recvs = model_recvs(&trace, p(1));
            assert_eq!(recvs.len(), 25, "seed {seed}: dup leaked or lost");
        }
    }

    #[test]
    fn healed_partition_suspends_then_releases_the_channel() {
        // The link is cut for [0, 200); the flood happens at time 0. All
        // payloads must arrive after the heal, in order.
        let link = FaultyLink::new(FixedLatency(1)).partitions(PartitionSchedule::new().split(
            VirtualTime::ZERO,
            VirtualTime::from_ticks(200),
            &[p(0)],
        ));
        let trace = flood_sim(10, link, 3).run();
        let recvs = model_recvs(&trace, p(1));
        assert_eq!(recvs.len(), 10, "{}", trace.to_pretty_string());
        let first_recv_at = trace
            .events()
            .iter()
            .find(|e| matches!(e.kind, TraceEventKind::Recv { infra: false, .. }))
            .expect("a model recv")
            .time;
        assert!(
            first_recv_at >= VirtualTime::from_ticks(200),
            "delivered across the cut at {first_recv_at}"
        );
    }

    #[test]
    fn never_healing_partition_never_delivers() {
        let link = FaultyLink::new(FixedLatency(1)).partitions(PartitionSchedule::new().split(
            VirtualTime::ZERO,
            VirtualTime::MAX,
            &[p(0)],
        ));
        let sim = flood_sim(5, link, 1);
        let trace = sim.run();
        // The run only ends at the horizon (retransmission never stops).
        assert_eq!(trace.stop_reason(), StopReason::MaxTime);
        assert!(model_recvs(&trace, p(1)).is_empty());
    }

    #[test]
    fn zero_window_is_clamped_not_livelocked() {
        // A window of 0 could never transmit anything; the constructor
        // clamps it to 1 so the flood still completes.
        let config = ArqConfig {
            window: 0,
            retransmit_after: 0,
        };
        let sim = Sim::<TransportMsg<u32>>::builder(2)
            .seed(1)
            .link(FixedLatency(1))
            .classify(|_| true)
            .build(move |pid| {
                if pid.index() == 0 {
                    Box::new(Reliable::new(Flood { count: 5 }, config))
                        as Box<dyn Process<TransportMsg<u32>>>
                } else {
                    Box::new(Reliable::new(Quiet, config))
                }
            });
        let trace = sim.run();
        assert_eq!(trace.stop_reason(), StopReason::Quiescent);
        assert_eq!(model_recvs(&trace, p(1)).len(), 5);
    }

    #[test]
    fn window_backlog_preserves_order_under_a_tiny_window() {
        let config = ArqConfig {
            window: 2,
            retransmit_after: 30,
        };
        let link = FaultyLink::new(UniformLatency::new(1, 6)).loss(0.3);
        let sim = Sim::<TransportMsg<u32>>::builder(2)
            .seed(7)
            .link(link)
            .classify(|_| true)
            .build(move |pid| {
                if pid.index() == 0 {
                    Box::new(Reliable::new(Flood { count: 30 }, config))
                } else {
                    Box::new(Reliable::new(Quiet, config))
                }
            });
        let trace = sim.run();
        let recvs = model_recvs(&trace, p(1));
        assert_eq!(recvs.len(), 30);
        assert!(recvs.windows(2).all(|w| w[0].1 < w[1].1));
    }

    #[test]
    fn inner_receive_filter_gates_release_per_channel() {
        // The inner process refuses payloads >= 10 until it has seen 5.
        // The transport must hold channel heads without losing anything.
        struct Picky {
            seen: Vec<u32>,
        }
        impl Process<u32> for Picky {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.set_receive_filter(Some(ReceiveFilter::new(|m: &u32| *m < 10)));
            }
            fn on_message(&mut self, ctx: &mut Context<'_, u32>, _: ProcessId, msg: u32) {
                self.seen.push(msg);
                if msg == 5 {
                    ctx.set_receive_filter(None);
                }
            }
        }
        // p0 sends 20 (refused: blocks the channel), then 5 (would lift
        // the gate, but FIFO holds it behind 20) — p2 sends 5 on its own
        // channel, which lifts the gate and releases p0's queue.
        struct S0;
        impl Process<u32> for S0 {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.send(p(1), 20);
                ctx.send(p(1), 7);
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: ProcessId, _: u32) {}
        }
        struct S2;
        impl Process<u32> for S2 {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.set_timer(50);
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: ProcessId, _: u32) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, u32>, _: TimerId) {
                ctx.send(p(1), 5);
            }
        }
        let sim = Sim::<TransportMsg<u32>>::builder(3)
            .seed(2)
            .link(FixedLatency(1))
            .classify(|_| true)
            .build(|pid| match pid.index() {
                0 => Box::new(Reliable::new(S0, ArqConfig::default()))
                    as Box<dyn Process<TransportMsg<u32>>>,
                1 => Box::new(Reliable::new(
                    Picky { seen: Vec::new() },
                    ArqConfig::default(),
                )),
                _ => Box::new(Reliable::new(S2, ArqConfig::default())),
            });
        let trace = sim.run();
        let recvs = model_recvs(&trace, p(1));
        // p2's 5 first (gate lifts), then p0's 20 and 7 in channel order.
        assert_eq!(recvs.len(), 3, "{}", trace.to_pretty_string());
        let from_p0: Vec<u64> = recvs
            .iter()
            .filter(|(f, _)| *f == p(0))
            .map(|&(_, s)| s)
            .collect();
        assert_eq!(from_p0, vec![0, 1], "FIFO through the held gate");
        assert_eq!(recvs[0].0, p(2), "the gate-lifting payload releases first");
    }

    #[test]
    fn endogenous_suspicion_fires_for_a_silent_peer_only() {
        // Two wrapped processes with probing; p1 crashes at t=50 (via the
        // fault plan). p0's prober must suspect p1 — and nothing must
        // ever suspect the live p0.
        #[derive(Debug, Default)]
        struct Recorder {
            suspicions: Vec<ProcessId>,
        }
        #[derive(Debug, Clone, PartialEq, Eq)]
        enum Msg {
            Suspect(ProcessId),
        }
        impl Process<Msg> for Recorder {
            fn on_start(&mut self, _: &mut Context<'_, Msg>) {}
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: ProcessId, _: Msg) {}
            fn on_external(&mut self, ctx: &mut Context<'_, Msg>, payload: Msg) {
                let Msg::Suspect(peer) = payload;
                self.suspicions.push(peer);
                ctx.annotate(sfs_asys::Note::key_val("suspect", peer));
            }
        }
        let plan = sfs_asys::FaultPlan::new().crash_at(p(1), VirtualTime::from_ticks(50));
        let sim = Sim::<TransportMsg<Msg>>::builder(2)
            .seed(4)
            .link(FixedLatency(1))
            .max_time(VirtualTime::from_ticks(2_000))
            .classify(|_| true)
            .faults(plan)
            .build(|_| {
                Box::new(
                    Reliable::new(Recorder::default(), ArqConfig::default())
                        .suspicion(ProbeConfig::default(), Msg::Suspect),
                )
            });
        let trace = sim.run();
        let notes: Vec<_> = trace.notes_with_key("suspect").collect();
        assert_eq!(notes.len(), 1, "{}", trace.to_pretty_string());
        let (_, by, note) = notes[0];
        assert_eq!(by, p(0));
        assert_eq!(*note, sfs_asys::Note::key_val("suspect", p(1)));
    }

    #[test]
    fn try_new_rejects_degenerate_configs() {
        assert_eq!(ArqConfig::try_new(0, 40), Err(TransportError::ZeroWindow));
        assert_eq!(
            ArqConfig::try_new(32, 0),
            Err(TransportError::ZeroRetransmit)
        );
        assert_eq!(ArqConfig::try_new(32, 40), Ok(ArqConfig::default()));
        assert_eq!(
            ProbeConfig::try_new(0, 100, 25),
            Err(TransportError::ZeroInterval)
        );
        assert_eq!(
            ProbeConfig::try_new(20, 0, 25),
            Err(TransportError::ZeroTimeout)
        );
        assert_eq!(
            ProbeConfig::try_new(20, 100, 0),
            Err(TransportError::ZeroCheck)
        );
        assert_eq!(
            AdaptiveConfig::try_new(0, 100, 5, 500),
            Err(TransportError::ZeroMinRto)
        );
        assert_eq!(
            AdaptiveConfig::try_new(50, 20, 5, 500),
            Err(TransportError::InvertedRtoBounds { min: 50, max: 20 })
        );
        assert_eq!(
            AdaptiveConfig::try_new(20, 2_000, 5, 0),
            Err(TransportError::ZeroMaxSuspicion)
        );
        assert!(AdaptiveConfig::default().validate().is_ok());
        assert!(ProbeConfig::default().validate().is_ok());
    }

    fn adaptive_flood_sim(
        count: u32,
        link: impl sfs_asys::LinkModel + 'static,
        seed: u64,
    ) -> Sim<TransportMsg<u32>> {
        Sim::<TransportMsg<u32>>::builder(2)
            .seed(seed)
            .link(link)
            .classify(|_| true)
            .build(move |pid| {
                let arq = ArqConfig::default();
                let adaptive = AdaptiveConfig::default();
                if pid.index() == 0 {
                    Box::new(Reliable::new(Flood { count }, arq).adaptive(adaptive))
                } else {
                    Box::new(Reliable::new(Quiet, arq).adaptive(adaptive))
                }
            })
    }

    #[test]
    fn adaptive_transport_repairs_heavy_loss() {
        for seed in 0..10 {
            let link = FaultyLink::new(UniformLatency::new(1, 8)).loss(0.4);
            let trace = adaptive_flood_sim(25, link, seed).run();
            let recvs = model_recvs(&trace, p(1));
            assert_eq!(recvs.len(), 25, "seed {seed}: lost payloads");
            assert!(
                recvs.windows(2).all(|w| w[0].1 < w[1].1),
                "seed {seed}: out of order: {recvs:?}"
            );
        }
    }

    #[test]
    fn adaptive_loss_free_runs_deliver_identically_to_fixed() {
        for seed in 0..5 {
            let fixed = flood_sim(20, FixedLatency(1), seed).run();
            let adaptive = adaptive_flood_sim(20, FixedLatency(1), seed).run();
            assert_eq!(adaptive.stop_reason(), StopReason::Quiescent);
            assert_eq!(
                model_recvs(&fixed, p(1)),
                model_recvs(&adaptive, p(1)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn adaptive_retransmissions_back_off_exponentially() {
        // A never-healing cut: every retransmission is unproductive, so
        // consecutive retx bursts must spread out (doubling RTO), unlike
        // the fixed mode's metronome.
        let link = FaultyLink::new(FixedLatency(1)).partitions(PartitionSchedule::new().split(
            VirtualTime::ZERO,
            VirtualTime::MAX,
            &[p(0)],
        ));
        let trace = adaptive_flood_sim(3, link, 2).run();
        let times: Vec<u64> = trace
            .events()
            .iter()
            .filter_map(|e| match &e.kind {
                TraceEventKind::Note {
                    note: sfs_asys::Note::KeyVal { key, .. },
                    ..
                } if key == NOTE_RETX => Some(e.time.ticks()),
                _ => None,
            })
            .collect();
        assert!(times.len() >= 3, "expected several retx bursts: {times:?}");
        let gaps: Vec<u64> = times.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            gaps.last().unwrap() >= &(2 * gaps.first().unwrap()),
            "no backoff visible in gaps {gaps:?}"
        );
    }

    /// The E13 discriminator in miniature: flapping cuts train the
    /// adaptive prober's gap statistics, then a delay storm opens an
    /// onset gap that overruns the fixed timeout but stays inside the
    /// learned threshold. Fixed mode falsely suspects the (live) peer;
    /// adaptive mode rides it out.
    #[test]
    fn adaptive_suspicion_survives_a_storm_that_fools_the_fixed_timeout() {
        #[derive(Debug, Clone, PartialEq, Eq)]
        enum Msg {
            Suspect(ProcessId),
        }
        #[derive(Debug, Default)]
        struct Recorder;
        impl Process<Msg> for Recorder {
            fn on_start(&mut self, _: &mut Context<'_, Msg>) {}
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: ProcessId, _: Msg) {}
            fn on_external(&mut self, _: &mut Context<'_, Msg>, _: Msg) {}
        }
        let t = VirtualTime::from_ticks;
        let gray_link = || {
            // Training flaps on p1 -> p0 (60 severed, 80 healed, x3),
            // then a +120 surcharge storm on the same link.
            let pairs = [(p(1), p(0))];
            let parts = PartitionSchedule::new()
                .cut_links(t(200), t(260), &pairs)
                .cut_links(t(340), t(400), &pairs)
                .cut_links(t(480), t(540), &pairs);
            let storms = sfs_asys::StormSchedule::new().surge_links(t(700), t(900), &pairs, 120);
            FaultyLink::new(FixedLatency(1))
                .partitions(parts)
                .storms(storms)
        };
        let run = |adaptive: bool| {
            let sim = Sim::<TransportMsg<Msg>>::builder(2)
                .seed(6)
                .link(gray_link())
                .max_time(t(1_200))
                .classify(|_| true)
                .build(move |_| {
                    let base = Reliable::new(Recorder, ArqConfig::default())
                        .suspicion(ProbeConfig::default(), Msg::Suspect);
                    if adaptive {
                        Box::new(base.adaptive(AdaptiveConfig::default()))
                            as Box<dyn Process<TransportMsg<Msg>>>
                    } else {
                        Box::new(base)
                    }
                });
            let trace = sim.run();
            trace.notes_with_key(NOTE_PROBE_SUSPECT).count()
        };
        assert!(
            run(false) >= 1,
            "the fixed timeout should falsely suspect the stormed peer"
        );
        assert_eq!(
            run(true),
            0,
            "the trained adaptive threshold must ride out the storm"
        );
    }

    #[test]
    fn adaptive_rto_is_clamped_at_the_source_even_near_u64_max() {
        // A ceiling two below u64::MAX: the backed-off base saturates at
        // the ceiling, and the old `backed + jitter` would overflow the
        // u64 (panicking in debug) or escape past `max_rto` (in release).
        let acfg = AdaptiveConfig {
            min_rto: 20,
            max_rto: u64::MAX - 2,
            jitter: 5,
            max_suspicion: 1_000,
        };
        let mut r = Reliable::new(Quiet, ArqConfig::default()).adaptive(acfg);
        r.ensure_init(2, VirtualTime::ZERO, p(0));
        let ch = &mut r.out[1];
        ch.srtt = Some(u64::MAX / 2);
        ch.rttvar = u64::MAX / 4;
        ch.backoff = 40;
        for _ in 0..32 {
            let rto = r.channel_rto(1);
            assert!(rto <= acfg.max_rto, "rto {rto} exceeds max_rto");
        }
        // With the default ceiling, jitter must not leak past it either
        // once backoff has pinned the base at the ceiling.
        let acfg = AdaptiveConfig::default();
        let mut r = Reliable::new(Quiet, ArqConfig::default()).adaptive(acfg);
        r.ensure_init(2, VirtualTime::ZERO, p(0));
        let ch = &mut r.out[1];
        ch.srtt = Some(acfg.max_rto);
        ch.backoff = 3;
        for _ in 0..64 {
            assert!(r.channel_rto(1) <= acfg.max_rto);
        }
    }

    #[test]
    fn retransmit_arms_cleanly_near_the_overflow_boundary() {
        // End to end: a never-healing cut forces repeated unproductive
        // retransmissions (backoff ratchets up) under an RTO ceiling near
        // u64::MAX. Deadlines must stay on the wheel without overflow and
        // the run must end at its horizon, not in a panic.
        let acfg = AdaptiveConfig {
            min_rto: 20,
            max_rto: u64::MAX - 1,
            jitter: 5,
            max_suspicion: 1_000,
        };
        let link = FaultyLink::new(FixedLatency(1)).partitions(PartitionSchedule::new().split(
            VirtualTime::ZERO,
            VirtualTime::MAX,
            &[p(0)],
        ));
        let sim = Sim::<TransportMsg<u32>>::builder(2)
            .seed(8)
            .link(link)
            .classify(|_| true)
            .build(move |pid| {
                let arq = ArqConfig::default();
                if pid.index() == 0 {
                    Box::new(Reliable::new(Flood { count: 3 }, arq).adaptive(acfg))
                        as Box<dyn Process<TransportMsg<u32>>>
                } else {
                    Box::new(Reliable::new(Quiet, arq).adaptive(acfg))
                }
            });
        let trace = sim.run();
        assert_eq!(trace.stop_reason(), StopReason::MaxTime);
        assert!(model_recvs(&trace, p(1)).is_empty());
    }

    #[test]
    fn scripted_drop_patterns_from_fn_link_are_survived() {
        // Drop every other data frame (acks pass): a worst-case regular
        // loss pattern.
        let mut k = 0u32;
        let link = FnLink(move |_, _, _, _: &mut rand::rngs::StdRng| {
            k += 1;
            if k.is_multiple_of(2) {
                LinkVerdict::Drop
            } else {
                LinkVerdict::Deliver(1)
            }
        });
        let trace = flood_sim(15, link, 5).run();
        let recvs = model_recvs(&trace, p(1));
        assert_eq!(recvs.len(), 15, "{}", trace.to_pretty_string());
        assert!(recvs.windows(2).all(|w| w[0].1 < w[1].1));
    }
}
