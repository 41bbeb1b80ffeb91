//! The UDP backend leg of [`ClusterSpec`]: the §5 protocol under the
//! ARQ transport, with every process in its **own OS process** and every
//! frame a **real localhost datagram**.
//!
//! This module is the glue between the protocol stack and the generic
//! `sfs-wire` backend: it gives the sFS wire alphabet a byte encoding
//! ([`WireCodec`] for [`SfsMsg`] and [`Control`]), packages everything a
//! spawned node needs into a [`UdpNodeSpec`] blob passed through the
//! environment, and exposes [`ClusterSpec::try_run_udp`] — the
//! multi-process execution backend, producing the same [`Trace`] type as
//! the in-process engines so the conformance oracle can compare it
//! against the simulator envelope. It is its own entry, not a
//! [`Backend`](crate::Backend): its traces are in Lamport ticks and its
//! settle time is real wall clock.
//!
//! Two [`ClusterSpec`] features cannot cross a process boundary and are
//! rejected with typed errors rather than silently ignored: oracle
//! detection (the [`CrashRegistry`] is shared memory) and partition/storm
//! schedules (a node's link models i.i.d. loss and duplication only).

use crate::app::NullApp;
use crate::config::HeartbeatConfig;
use crate::harness::{ClusterSpec, ModeSpec, NetSpec, SpecError};
use crate::msg::{Control, SfsMsg};
use crate::protocol::SfsProcess;
use crate::quorum::QuorumPolicy;
use sfs_asys::{CrashRegistry, ProcessId, Trace};
use sfs_transport::{AdaptiveConfig, ArqConfig, ProbeConfig, Reliable, TransportMsg};
use sfs_wire::{
    run_cluster, run_node, wire_cost, ClusterConfig, NodeConfig, NodeFault, UdpRun, WireCodec,
    WireError, WireReader, WireWriter, ENV_CTRL_ADDR,
};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;
use std::{env, fmt};

/// Environment variable carrying the hex-encoded [`UdpNodeSpec`] blob
/// from the parent to a spawned node.
pub const ENV_NODE_SPEC: &str = "SFS_UDP_NODE_SPEC";

/// Environment variable overriding the node-binary discovery: when set,
/// [`udp_node_binary`] uses this path verbatim instead of searching next
/// to the current executable.
pub const ENV_NODE_BIN: &str = "SFS_UDP_NODE_BIN";

/// Wall-clock length of one virtual tick on the UDP backend, in
/// microseconds. One tick is one millisecond: scripted fault ticks and
/// protocol timer ticks keep their relative spacing while the run stays
/// fast enough for CI.
pub const UDP_TICK_MICROS: u64 = 1_000;

/// Why a [`ClusterSpec`] cannot run (or failed to run) on the UDP
/// backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UdpError {
    /// [`ModeSpec::Oracle`] needs the in-process crash registry, which
    /// cannot be shared across OS processes (that unimplementability is
    /// Theorem 1's point).
    OracleUnsupported,
    /// A spec feature the wire backend does not model (named).
    Unsupported(&'static str),
    /// The `sfs-udp-node` binary was not found (build it with
    /// `cargo build --bin sfs-udp-node`, or point [`ENV_NODE_BIN`] at
    /// it).
    NodeBinary(String),
    /// A socket or spawn error during the run.
    Io(String),
}

impl fmt::Display for UdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UdpError::OracleUnsupported => write!(
                f,
                "oracle detection cannot cross a process boundary; use an endogenous detector"
            ),
            UdpError::Unsupported(what) => {
                write!(f, "the UDP backend does not model {what}")
            }
            UdpError::NodeBinary(why) => write!(f, "sfs-udp-node binary unavailable: {why}"),
            UdpError::Io(why) => write!(f, "UDP cluster run failed: {why}"),
        }
    }
}

impl std::error::Error for UdpError {}

// ---- the sFS wire alphabet's byte encoding ------------------------------

// Tags of the `Control` / `SfsMsg` encodings; frozen parts of the wire
// format (bump `sfs_wire::frame::VERSION` to change them).
const TAG_CTL_SUSPECT: u8 = 0;
const TAG_SFS_HEARTBEAT: u8 = 0;
const TAG_SFS_SUSP: u8 = 1;
const TAG_SFS_APP: u8 = 2;
const TAG_SFS_CONTROL: u8 = 3;

impl WireCodec for Control {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Control::Suspect { suspect } => {
                w.u8(TAG_CTL_SUSPECT);
                suspect.encode(w);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            TAG_CTL_SUSPECT => Ok(Control::Suspect {
                suspect: ProcessId::decode(r)?,
            }),
            tag => Err(WireError::UnknownTag {
                what: "Control",
                tag,
            }),
        }
    }
}

impl<M: WireCodec> WireCodec for SfsMsg<M> {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            SfsMsg::Heartbeat => w.u8(TAG_SFS_HEARTBEAT),
            SfsMsg::Susp { suspect } => {
                w.u8(TAG_SFS_SUSP);
                suspect.encode(w);
            }
            SfsMsg::App { payload, knows } => {
                w.u8(TAG_SFS_APP);
                payload.encode(w);
                knows.encode(w);
            }
            SfsMsg::Control(c) => {
                w.u8(TAG_SFS_CONTROL);
                c.encode(w);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            TAG_SFS_HEARTBEAT => Ok(SfsMsg::Heartbeat),
            TAG_SFS_SUSP => Ok(SfsMsg::Susp {
                suspect: ProcessId::decode(r)?,
            }),
            TAG_SFS_APP => Ok(SfsMsg::App {
                payload: M::decode(r)?,
                knows: Vec::decode(r)?,
            }),
            TAG_SFS_CONTROL => Ok(SfsMsg::Control(Control::decode(r)?)),
            tag => Err(WireError::UnknownTag {
                what: "SfsMsg",
                tag,
            }),
        }
    }
}

// ---- the node-spawn blob ------------------------------------------------

/// Everything one spawned `sfs-udp-node` process needs to reconstruct
/// its protocol stack: the generic wire-backend [`NodeConfig`] plus the
/// sFS shape ([`ClusterSpec`] mode/quorum/heartbeat/ablations) and the
/// transport parameters ([`ArqConfig`], probe, adaptive).
///
/// Travels parent → child as a hex string in [`ENV_NODE_SPEC`]. Oracle
/// mode is unrepresentable on purpose: [`ClusterSpec::try_run_udp`]
/// rejects it before any blob is built, and the decoder refuses its tag.
#[derive(Debug, Clone, PartialEq)]
pub struct UdpNodeSpec {
    /// The generic wire-backend knobs (identity, seed, tick, link faults).
    pub node: NodeConfig,
    /// Failure bound `t`.
    pub t: u64,
    /// Detector selection (never [`ModeSpec::Oracle`]).
    pub mode: ModeSpec,
    /// Quorum policy for the one-round protocol.
    pub quorum: QuorumPolicy,
    /// Heartbeats, as `(interval, timeout, check_every)` ticks.
    pub heartbeat: Option<(u64, u64, u64)>,
    /// sFS2d receive gating (ablation switch).
    pub gate_app_messages: bool,
    /// Crash-on-own-obituary (ablation switch).
    pub crash_on_own_obituary: bool,
    /// ARQ parameters for the transport wrapper.
    pub arq: ArqConfig,
    /// Transport-level heartbeat probing (endogenous suspicions).
    pub probe: Option<ProbeConfig>,
    /// Adaptive transport timeouts.
    pub adaptive: Option<AdaptiveConfig>,
}

const TAG_MODE_SFS: u8 = 0;
const TAG_MODE_UNILATERAL: u8 = 1;
const TAG_MODE_CHEAP: u8 = 2;

const TAG_QUORUM_ALL: u8 = 0;
const TAG_QUORUM_MINIMUM: u8 = 1;
const TAG_QUORUM_COUNT: u8 = 2;

impl WireCodec for UdpNodeSpec {
    fn encode(&self, w: &mut WireWriter) {
        self.node.encode(w);
        w.u64(self.t);
        w.u8(match self.mode {
            ModeSpec::SfsOneRound => TAG_MODE_SFS,
            ModeSpec::Unilateral => TAG_MODE_UNILATERAL,
            ModeSpec::CheapBroadcast => TAG_MODE_CHEAP,
            // try_run_udp rejects oracle mode before building any blob;
            // encode a tag the decoder refuses so a bypassing caller
            // still fails closed instead of silently degrading.
            ModeSpec::Oracle => u8::MAX,
        });
        match self.quorum {
            QuorumPolicy::WaitForAll => w.u8(TAG_QUORUM_ALL),
            QuorumPolicy::FixedMinimum => w.u8(TAG_QUORUM_MINIMUM),
            QuorumPolicy::FixedCount(c) => {
                w.u8(TAG_QUORUM_COUNT);
                w.u64(c as u64);
            }
        }
        self.heartbeat.map(|(i, to, ck)| (i, (to, ck))).encode(w);
        w.bool(self.gate_app_messages);
        w.bool(self.crash_on_own_obituary);
        w.u64(self.arq.window as u64);
        w.u64(self.arq.retransmit_after);
        self.probe
            .map(|p| (p.interval, (p.timeout, p.check_every)))
            .encode(w);
        self.adaptive
            .map(|a| ((a.min_rto, a.max_rto), (a.jitter, a.max_suspicion)))
            .encode(w);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let node = NodeConfig::decode(r)?;
        let t = r.u64()?;
        let mode = match r.u8()? {
            TAG_MODE_SFS => ModeSpec::SfsOneRound,
            TAG_MODE_UNILATERAL => ModeSpec::Unilateral,
            TAG_MODE_CHEAP => ModeSpec::CheapBroadcast,
            tag => {
                return Err(WireError::UnknownTag {
                    what: "ModeSpec",
                    tag,
                })
            }
        };
        let quorum = match r.u8()? {
            TAG_QUORUM_ALL => QuorumPolicy::WaitForAll,
            TAG_QUORUM_MINIMUM => QuorumPolicy::FixedMinimum,
            TAG_QUORUM_COUNT => {
                let c = usize::try_from(r.u64()?).map_err(|_| WireError::BadValue {
                    what: "quorum count",
                })?;
                QuorumPolicy::FixedCount(c)
            }
            tag => {
                return Err(WireError::UnknownTag {
                    what: "QuorumPolicy",
                    tag,
                })
            }
        };
        let heartbeat = Option::<(u64, (u64, u64))>::decode(r)?;
        let gate_app_messages = r.bool()?;
        let crash_on_own_obituary = r.bool()?;
        let window =
            usize::try_from(r.u64()?).map_err(|_| WireError::BadValue { what: "arq window" })?;
        let retransmit_after = r.u64()?;
        let probe = Option::<(u64, (u64, u64))>::decode(r)?;
        let adaptive = Option::<((u64, u64), (u64, u64))>::decode(r)?;
        Ok(UdpNodeSpec {
            node,
            t,
            mode,
            quorum,
            heartbeat: heartbeat.map(|(i, (to, ck))| (i, to, ck)),
            gate_app_messages,
            crash_on_own_obituary,
            arq: ArqConfig {
                window,
                retransmit_after,
            },
            probe: probe.map(|(interval, (timeout, check_every))| ProbeConfig {
                interval,
                timeout,
                check_every,
            }),
            adaptive: adaptive.map(|((min_rto, max_rto), (jitter, max_suspicion))| {
                AdaptiveConfig {
                    min_rto,
                    max_rto,
                    jitter,
                    max_suspicion,
                }
            }),
        })
    }
}

impl UdpNodeSpec {
    /// The transport-wrapped protocol process this blob describes, built
    /// by the one constructor every other backend's net leg uses
    /// ([`ClusterSpec`]'s), specialised to [`NullApp`] (the UDP backend is
    /// a detector-conformance leg, not an application platform).
    ///
    /// # Errors
    ///
    /// [`UdpError::OracleUnsupported`] for oracle mode, and whatever
    /// [`ClusterSpec::validate`] reports for an infeasible shape — the
    /// parent validated it, so either only fires on a corrupted blob.
    pub fn build_process(&self) -> Result<Reliable<SfsProcess<NullApp>, SfsMsg<()>>, SpecError> {
        if self.mode == ModeSpec::Oracle {
            return Err(UdpError::OracleUnsupported.into());
        }
        let n = usize::from(self.node.n);
        let net = NetSpec {
            arq: self.arq,
            probe: self.probe,
            adaptive: self.adaptive,
            ..NetSpec::default()
        };
        let spec = ClusterSpec {
            mode: self.mode,
            quorum: self.quorum,
            heartbeat: self
                .heartbeat
                .map(|(interval, timeout, check_every)| HeartbeatConfig {
                    interval,
                    timeout,
                    check_every,
                }),
            gate_app_messages: self.gate_app_messages,
            crash_on_own_obituary: self.crash_on_own_obituary,
            net: Some(net.clone()),
            ..ClusterSpec::new(n, self.t as usize)
        };
        spec.validate()?;
        Ok(spec.wrap_process(&net, &CrashRegistry::new(n), NullApp))
    }
}

// ---- hex blob transport -------------------------------------------------

fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(s.get(i..i + 2)?, 16).ok())
        .collect()
}

// ---- node binary discovery ----------------------------------------------

/// The path of the spawnable `sfs-udp-node` binary: [`ENV_NODE_BIN`]
/// when set, otherwise a sibling of the current executable (popping a
/// `deps/` directory when running under `cargo test`).
///
/// # Errors
///
/// [`UdpError::NodeBinary`] when no binary is found — E10 uses this to
/// skip the `net:udp` column gracefully when only the library tests were
/// built.
pub fn udp_node_binary() -> Result<PathBuf, UdpError> {
    if let Ok(p) = env::var(ENV_NODE_BIN) {
        let p = PathBuf::from(p);
        return if p.is_file() {
            Ok(p)
        } else {
            Err(UdpError::NodeBinary(format!(
                "{ENV_NODE_BIN}={} does not exist",
                p.display()
            )))
        };
    }
    let exe = env::current_exe().map_err(|e| UdpError::Io(e.to_string()))?;
    let mut dir = exe
        .parent()
        .map(Path::to_path_buf)
        .ok_or_else(|| UdpError::NodeBinary("current executable has no parent".into()))?;
    if dir.file_name().is_some_and(|d| d == "deps") {
        dir.pop();
    }
    let candidate = dir.join(format!("sfs-udp-node{}", env::consts::EXE_SUFFIX));
    if candidate.is_file() {
        Ok(candidate)
    } else {
        Err(UdpError::NodeBinary(format!(
            "{} not found; build it with `cargo build --bin sfs-udp-node` or set {ENV_NODE_BIN}",
            candidate.display()
        )))
    }
}

/// The whole `sfs-udp-node` binary, as a library function so the spawn
/// protocol is testable: decode the [`ENV_NODE_SPEC`] blob, rebuild the
/// protocol stack, and run the wire-backend node loop against the parent
/// at [`ENV_CTRL_ADDR`].
///
/// # Errors
///
/// A human-readable message on a missing/corrupt environment or a node
/// I/O failure; the binary prints it to stderr and exits nonzero.
pub fn udp_node_main() -> Result<(), String> {
    let blob = env::var(ENV_NODE_SPEC).map_err(|_| format!("{ENV_NODE_SPEC} is not set"))?;
    let bytes = from_hex(&blob).ok_or_else(|| format!("{ENV_NODE_SPEC} is not valid hex"))?;
    let spec = UdpNodeSpec::from_wire_bytes(&bytes)
        .map_err(|e| format!("{ENV_NODE_SPEC} does not decode: {e}"))?;
    let ctrl = env::var(ENV_CTRL_ADDR).map_err(|_| format!("{ENV_CTRL_ADDR} is not set"))?;
    let process = spec.build_process().map_err(|e| e.to_string())?;
    run_node(
        &spec.node,
        ctrl.as_str(),
        process,
        // Every wire frame is transport infrastructure, exactly as the
        // net-leg sim classifies; the model alphabet is reconstructed
        // from the wrapper's ModelSend/ModelRecv events.
        |_: &TransportMsg<SfsMsg<()>>| true,
    )
    .map_err(|e| format!("node loop failed: {e}"))
}

// ---- the ClusterSpec leg ------------------------------------------------

/// SplitMix-style per-node seed derivation: distinct, deterministic
/// streams from one spec seed.
fn node_seed(seed: u64, me: usize) -> u64 {
    let mut z = seed ^ (me as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ClusterSpec {
    /// Runs the cluster on the **UDP backend**: one OS process per node,
    /// real localhost datagrams, the spec's loss/duplication on each
    /// node's seeded link, and the spec's scripted
    /// crashes and suspicions delivered over the control channel. Waits
    /// up to `settle` wall clock for the outstanding-count quiescence
    /// handshake to confirm, then returns the [`UdpRun`]: the
    /// Lamport-merged [`Trace`], the quiescence verdict (as
    /// [`RunOutcome::quiesced`](crate::RunOutcome) on threads), and each
    /// node's final [`NodeStatus`](sfs_wire::NodeStatus).
    ///
    /// Trace timestamps are Lamport ticks, not the spec's virtual-time
    /// ticks: causal order is exact, durations are not comparable to the
    /// simulator's. The conformance oracle therefore checks the UDP
    /// column on order-sensitive, duration-insensitive properties.
    ///
    /// When the control channel misses quiescence and the run ends at its
    /// deadline ([`MaxTime`](sfs_asys::StopReason::MaxTime)), a flight
    /// dump (trace tail plus per-node counters) is written under
    /// `SFS_FLIGHT_DIR`, if that variable names a directory.
    ///
    /// # Errors
    ///
    /// Whatever [`ClusterSpec::validate`] reports, plus
    /// [`UdpError::OracleUnsupported`] for [`ModeSpec::Oracle`],
    /// [`UdpError::Unsupported`] for partition/storm schedules, and
    /// [`UdpError::NodeBinary`]/[`UdpError::Io`] for spawn and socket
    /// failures.
    pub fn try_run_udp(&self, settle: Duration) -> Result<UdpRun, SpecError> {
        self.validate()?;
        if matches!(self.mode, ModeSpec::Oracle) {
            return Err(UdpError::OracleUnsupported.into());
        }
        let net = self.net.clone().unwrap_or_default();
        if !net.partitions.is_empty() {
            return Err(UdpError::Unsupported("partition schedules").into());
        }
        if !net.storms.is_empty() {
            return Err(UdpError::Unsupported("storm schedules").into());
        }
        if self.n > u16::MAX as usize {
            return Err(UdpError::Unsupported("more than 65535 nodes").into());
        }
        let bin = udp_node_binary().map_err(SpecError::from)?;

        let mut commands = Vec::with_capacity(self.n);
        for me in 0..self.n {
            let spec = UdpNodeSpec {
                node: NodeConfig {
                    me: me as u16,
                    n: self.n as u16,
                    seed: node_seed(self.seed, me),
                    tick_micros: UDP_TICK_MICROS,
                    loss: net.loss,
                    duplicate: net.duplicate,
                },
                t: self.t as u64,
                mode: self.mode,
                quorum: self.quorum,
                heartbeat: self
                    .heartbeat
                    .map(|hb| (hb.interval, hb.timeout, hb.check_every)),
                gate_app_messages: self.gate_app_messages,
                crash_on_own_obituary: self.crash_on_own_obituary,
                arq: net.arq,
                probe: net.probe,
                adaptive: net.adaptive,
            };
            let mut cmd = Command::new(&bin);
            cmd.env(ENV_NODE_SPEC, to_hex(&spec.to_wire_bytes()));
            commands.push(cmd);
        }

        let mut faults = Vec::with_capacity(self.crashes.len() + self.suspicions.len());
        for &(victim, at) in &self.crashes {
            faults.push((victim.index(), NodeFault::Crash { at }));
        }
        for &(by, suspect, at) in &self.suspicions {
            let body =
                TransportMsg::<SfsMsg<()>>::Ctl(SfsMsg::Control(Control::Suspect { suspect }))
                    .to_wire_bytes();
            faults.push((by.index(), NodeFault::External { at, body }));
        }

        let cluster = ClusterConfig::new(self.n, settle);
        let run = run_cluster(&cluster, commands, &faults)
            .map_err(|e| SpecError::from(UdpError::Io(e.to_string())))?;
        if let Some(sink) = &self.sink {
            // The nodes ran in separate OS processes, so the sink could
            // not observe events live; replay the per-node fragments of
            // the Lamport-merged trace in merged order — the same feed
            // the in-process engines deliver event-by-event.
            sfs_obs::monitor::replay_fragments(sink, &sfs_obs::monitor::fragments_of(&run.trace));
        }
        if run.trace.stop_reason() == sfs_asys::StopReason::MaxTime {
            let mut body = sfs_obs::flight::trace_tail(&run.trace, 64);
            for (pid, status) in run.node_status.iter().enumerate() {
                body.push_str(&format!("node p{pid}: {status:?}\n"));
            }
            sfs_obs::flight::dump_to_dir(&format!("udp-maxtime-seed{}", self.seed), &body);
        }
        Ok(run)
    }

    /// [`ClusterSpec::try_run_net`] with the wire-byte measure
    /// installed: every sent transport frame is charged its real encoded
    /// datagram size ([`sfs_wire::wire_cost`]) to
    /// [`SimStats::wire_bytes`](sfs_asys::SimStats), making simulated
    /// byte budgets (E12's bytes-per-detection) directly comparable to
    /// the UDP backend's datagram accounting. On threads the same ruler
    /// goes in [`Instruments::measure`](crate::Instruments::measure).
    ///
    /// # Errors
    ///
    /// Whatever [`ClusterSpec::validate`] reports ([`SpecError`]).
    pub fn try_run_net_measured(&self) -> Result<Trace, SpecError> {
        Ok(self
            .try_build_net_with(
                |b| b.measure(wire_cost::<TransportMsg<SfsMsg<()>>>),
                |_| NullApp,
            )?
            .run())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sfs_msg_round_trips_every_variant() {
        let msgs: Vec<SfsMsg<u64>> = vec![
            SfsMsg::Heartbeat,
            SfsMsg::Susp {
                suspect: ProcessId::new(3),
            },
            SfsMsg::App {
                payload: 0xFEED,
                knows: vec![ProcessId::new(0), ProcessId::new(2)],
            },
            SfsMsg::Control(Control::Suspect {
                suspect: ProcessId::new(1),
            }),
        ];
        for m in &msgs {
            let bytes = m.to_wire_bytes();
            assert_eq!(&SfsMsg::<u64>::from_wire_bytes(&bytes).unwrap(), m);
        }
        // And nested under the transport envelope, as it rides the wire.
        let wire = TransportMsg::Data {
            seq: 1,
            logical: 1,
            payload: msgs[2].clone(),
        };
        let back = TransportMsg::<SfsMsg<u64>>::from_wire_bytes(&wire.to_wire_bytes()).unwrap();
        assert_eq!(back, wire);
    }

    #[test]
    fn node_spec_round_trips_through_the_env_blob() {
        let spec = UdpNodeSpec {
            node: NodeConfig {
                me: 2,
                n: 5,
                seed: 77,
                tick_micros: 1_000,
                loss: 0.05,
                duplicate: 0.01,
            },
            t: 2,
            mode: ModeSpec::SfsOneRound,
            quorum: QuorumPolicy::FixedCount(3),
            heartbeat: Some((20, 100, 25)),
            gate_app_messages: true,
            crash_on_own_obituary: false,
            arq: ArqConfig::default(),
            probe: Some(ProbeConfig::default()),
            adaptive: Some(AdaptiveConfig::default()),
        };
        let hex = to_hex(&spec.to_wire_bytes());
        let back = UdpNodeSpec::from_wire_bytes(&from_hex(&hex).unwrap()).unwrap();
        assert_eq!(back, spec);
        // The blob builds a live process stack.
        assert!(back.build_process().is_ok());
    }

    #[test]
    fn oracle_mode_is_rejected_fail_closed() {
        let mut spec = UdpNodeSpec {
            node: NodeConfig {
                me: 0,
                n: 3,
                seed: 0,
                tick_micros: 1_000,
                loss: 0.0,
                duplicate: 0.0,
            },
            t: 1,
            mode: ModeSpec::Oracle,
            quorum: QuorumPolicy::WaitForAll,
            heartbeat: None,
            gate_app_messages: true,
            crash_on_own_obituary: true,
            arq: ArqConfig::default(),
            probe: None,
            adaptive: None,
        };
        // The blob encoding refuses to smuggle oracle mode across.
        assert!(matches!(
            UdpNodeSpec::from_wire_bytes(&spec.to_wire_bytes()),
            Err(WireError::UnknownTag {
                what: "ModeSpec",
                ..
            })
        ));
        spec.mode = ModeSpec::SfsOneRound;
        assert!(UdpNodeSpec::from_wire_bytes(&spec.to_wire_bytes()).is_ok());
        // And the runner rejects it before spawning anything.
        let err = ClusterSpec::new(3, 1)
            .mode(ModeSpec::Oracle)
            .try_run_udp(Duration::from_millis(10))
            .unwrap_err();
        assert_eq!(err, SpecError::Udp(UdpError::OracleUnsupported));
    }

    #[test]
    fn a_corrupt_node_spec_fails_before_the_node_says_hello() {
        let spec = UdpNodeSpec {
            node: NodeConfig {
                me: 1,
                n: 3,
                seed: 4,
                tick_micros: 1_000,
                loss: 0.05,
                duplicate: 0.0,
            },
            t: 1,
            mode: ModeSpec::SfsOneRound,
            quorum: QuorumPolicy::WaitForAll,
            heartbeat: None,
            gate_app_messages: true,
            crash_on_own_obituary: true,
            arq: ArqConfig::default(),
            probe: None,
            adaptive: None,
        };
        let blob = spec.to_wire_bytes();
        let truncated = blob[..blob.len() - 1].to_vec();
        // The mode tag follows the node config and `t`; the loss
        // probability's sign bit is the last bit of its eight bytes.
        let at_mode = spec.node.to_wire_bytes().len() + 8;
        let mut mode_flipped = blob.clone();
        mode_flipped[at_mode] ^= 0x80;
        let mut loss_flipped = blob.clone();
        loss_flipped[27] ^= 0x80;
        let parent = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        parent.set_nonblocking(true).unwrap();
        env::set_var(ENV_CTRL_ADDR, parent.local_addr().unwrap().to_string());
        for bad in [truncated, mode_flipped, loss_flipped] {
            env::set_var(ENV_NODE_SPEC, to_hex(&bad));
            let why = udp_node_main().unwrap_err();
            assert!(why.contains("does not decode"), "{why}");
        }
        // No node connected to the parent.
        assert_eq!(
            parent.accept().unwrap_err().kind(),
            std::io::ErrorKind::WouldBlock
        );
    }

    #[test]
    fn hex_codec_round_trips_and_rejects_noise() {
        assert_eq!(
            from_hex(&to_hex(&[0x00, 0xff, 0x5a])).unwrap(),
            vec![0x00, 0xff, 0x5a]
        );
        assert_eq!(from_hex(""), Some(vec![]));
        assert_eq!(from_hex("abc"), None);
        assert_eq!(from_hex("zz"), None);
    }

    #[test]
    fn per_node_seeds_are_distinct() {
        let seeds: std::collections::HashSet<u64> = (0..64).map(|me| node_seed(42, me)).collect();
        assert_eq!(seeds.len(), 64);
    }
}
