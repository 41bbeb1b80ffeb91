//! The parent side of the UDP backend: spawn one OS process per node,
//! barrier on their Hellos, script the faults, drive the quiescence
//! handshake, and assemble the nodes' event dumps into one
//! [`Trace`].
//!
//! The quiescence decision is the PR 7 outstanding-count handshake
//! lifted onto a socket: each [`ParentToNode::Poll`] round collects every
//! node's [`NodeStatus`]; the cluster is quiescent when every node is
//! idle, the global ledger balances (`Σ sent + Σ duplicated == Σ
//! delivered + Σ to_crashed + Σ dropped` — every offered copy was
//! conclusively consumed), and the counters were stable across two
//! consecutive rounds (the second round confirms no datagram was in
//! flight between the polls). Anything else at the settle deadline ends
//! the run as [`StopReason::MaxTime`] with the honest admission that the
//! prefix may not be maximal — kernel-dropped datagrams, for example,
//! leave the ledger permanently unbalanced, and the conformance oracle
//! then degrades to safety-only checks instead of reporting a fake
//! quiescence.

use crate::ctrl::{
    read_msg, write_msg, NodeDump, NodeStatus, NodeToParent, ParentToNode, WireEventKind,
};
use sfs_asys::{
    MsgId, Note, ProcessId, SimStats, StopReason, TimerId, Trace, TraceEvent, TraceEventKind,
    VirtualTime,
};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Environment variable through which the parent tells a spawned node
/// where the control listener is (`host:port`).
pub const ENV_CTRL_ADDR: &str = "SFS_WIRE_CTRL_ADDR";

/// Cluster-level knobs for one UDP run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes; must equal the number of spawn commands.
    pub n: usize,
    /// Wall-clock budget for reaching quiescence after `Start`.
    pub settle: Duration,
    /// Delay between quiescence polls.
    pub poll_every: Duration,
    /// Budget for every node to connect and say Hello.
    pub hello_timeout: Duration,
}

impl ClusterConfig {
    /// Defaults tuned for conformance runs: generous handshake budget,
    /// fast polls.
    pub fn new(n: usize, settle: Duration) -> Self {
        ClusterConfig {
            n,
            settle,
            poll_every: Duration::from_millis(5),
            hello_timeout: Duration::from_secs(10),
        }
    }
}

/// A scripted fault for one node, delivered over its control channel
/// before `Start`.
#[derive(Debug, Clone)]
pub enum NodeFault {
    /// Halt the node at the given local tick.
    Crash {
        /// Virtual tick of the halt.
        at: u64,
    },
    /// Deliver an encoded external stimulus at the given local tick.
    External {
        /// Virtual tick of the injection.
        at: u64,
        /// The node's message type, wire-encoded.
        body: Vec<u8>,
    },
}

/// The outcome of one UDP cluster run.
#[derive(Debug, Clone)]
pub struct UdpRun {
    /// The merged, causally ordered trace.
    pub trace: Trace,
    /// Whether the run reached confirmed quiescence within the settle
    /// budget (mirrors the threaded runtime's drain handshake result).
    pub quiesced: bool,
    /// Each node's final wire accounting, indexed by process — the
    /// per-node, per-message-class counters the `sfs-obs` registry folds
    /// into a `RunReport`, piggybacked on the same Status/Dump frames
    /// the control protocol already carries.
    pub node_status: Vec<NodeStatus>,
}

/// Child processes that must not outlive the run, whatever happens.
struct Children(Vec<Child>);

impl Drop for Children {
    fn drop(&mut self) {
        for child in &mut self.0 {
            if matches!(child.try_wait(), Ok(None)) {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

struct NodeLink {
    stream: TcpStream,
    udp_port: u16,
}

/// Spawns `commands` (one per node), runs the cluster to quiescence or
/// the settle deadline, and returns the assembled trace.
///
/// Each command is spawned with [`ENV_CTRL_ADDR`] pointing at the
/// parent's listener; everything else about the child (binary, node
/// config blob) is the caller's business. `faults[i] = (pid, fault)`
/// entries are delivered to their node between Hello and Start, in
/// order.
///
/// # Errors
///
/// Spawn failures, handshake timeouts, control-protocol violations, and
/// socket errors. All children are killed on every error path.
pub fn run_cluster(
    config: &ClusterConfig,
    commands: Vec<Command>,
    faults: &[(usize, NodeFault)],
) -> io::Result<UdpRun> {
    assert_eq!(
        commands.len(),
        config.n,
        "one spawn command per node is required"
    );
    let listener = TcpListener::bind("127.0.0.1:0")?;
    listener.set_nonblocking(true)?;
    let ctrl_addr = listener.local_addr()?.to_string();

    let mut children = Children(Vec::with_capacity(config.n));
    for mut cmd in commands {
        cmd.env(ENV_CTRL_ADDR, &ctrl_addr).stdin(Stdio::null());
        children.0.push(cmd.spawn()?);
    }

    // Barrier: every node connects and identifies itself before any
    // datagram can fly.
    let mut links: Vec<Option<NodeLink>> = (0..config.n).map(|_| None).collect();
    let deadline = Instant::now() + config.hello_timeout;
    let mut connected = 0;
    while connected < config.n {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(Duration::from_secs(10)))?;
                let mut stream = stream;
                let hello = read_msg::<NodeToParent, _>(&mut stream)?;
                let NodeToParent::Hello { pid, udp_port } = hello else {
                    return Err(protocol_err("expected Hello"));
                };
                let slot = links
                    .get_mut(pid as usize)
                    .ok_or_else(|| protocol_err("Hello pid out of range"))?;
                if slot.is_some() {
                    return Err(protocol_err("duplicate Hello pid"));
                }
                *slot = Some(NodeLink { stream, udp_port });
                connected += 1;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() > deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("{connected}/{} nodes said Hello in time", config.n),
                    ));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(e),
        }
    }
    let mut links: Vec<NodeLink> = links.into_iter().map(Option::unwrap).collect();

    // Script the faults, then lift the barrier.
    for (pid, fault) in faults {
        let link = links
            .get_mut(*pid)
            .ok_or_else(|| protocol_err("fault pid out of range"))?;
        let msg = match fault {
            NodeFault::Crash { at } => ParentToNode::Crash { at: *at },
            NodeFault::External { at, body } => ParentToNode::External {
                at: *at,
                body: body.clone(),
            },
        };
        write_msg(&mut link.stream, &msg)?;
    }
    let peers: Vec<u16> = links.iter().map(|l| l.udp_port).collect();
    for link in &mut links {
        write_msg(
            &mut link.stream,
            &ParentToNode::Start {
                peers: peers.clone(),
            },
        )?;
    }

    // The quiescence handshake: poll until idle + balanced + stable
    // across two consecutive rounds, or the settle budget runs out.
    let settle_deadline = Instant::now() + config.settle;
    let mut prev: Option<Vec<NodeStatus>> = None;
    let mut quiesced = false;
    while Instant::now() < settle_deadline {
        std::thread::sleep(config.poll_every);
        let mut round = Vec::with_capacity(config.n);
        for link in &mut links {
            write_msg(&mut link.stream, &ParentToNode::Poll)?;
            match read_msg::<NodeToParent, _>(&mut link.stream)? {
                NodeToParent::Status(s) => round.push(s),
                _ => return Err(protocol_err("expected Status")),
            }
        }
        let offered: u64 = round.iter().map(NodeStatus::offered).sum();
        let consumed: u64 = round.iter().map(NodeStatus::consumed).sum();
        let idle = round.iter().all(|s| s.idle);
        if idle && offered == consumed && prev.as_deref() == Some(&round[..]) {
            quiesced = true;
            break;
        }
        prev = Some(round);
    }

    // Stop everyone and collect the dumps.
    let mut dumps: Vec<NodeDump> = Vec::with_capacity(config.n);
    for link in &mut links {
        write_msg(&mut link.stream, &ParentToNode::Stop)?;
        match read_msg::<NodeToParent, _>(&mut link.stream)? {
            NodeToParent::Dump(d) => dumps.push(d),
            _ => return Err(protocol_err("expected Dump")),
        }
    }
    drop(links);
    let exit_deadline = Instant::now() + Duration::from_secs(5);
    for child in &mut children.0 {
        while matches!(child.try_wait(), Ok(None)) {
            if Instant::now() > exit_deadline {
                break; // the Children guard will kill it
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    Ok(UdpRun {
        trace: assemble(config.n, &dumps, quiesced),
        quiesced,
        node_status: dumps.iter().map(|d| d.status).collect(),
    })
}

fn protocol_err(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("control protocol: {what}"),
    )
}

/// Merges per-node event dumps into one trace, ordered by
/// `(lamport, node, local index)` — a deterministic linearisation
/// consistent with causality, timestamped in Lamport ticks.
fn assemble(n: usize, dumps: &[NodeDump], quiesced: bool) -> Trace {
    let mut merged: Vec<(u64, usize, usize, TraceEventKind)> = Vec::new();
    for (pid, dump) in dumps.iter().enumerate() {
        let p = ProcessId::new(pid);
        for (idx, ev) in dump.events.iter().enumerate() {
            let kind = match &ev.kind {
                WireEventKind::Send {
                    to,
                    src,
                    seq,
                    infra,
                } => TraceEventKind::Send {
                    from: p,
                    to: ProcessId::new(*to as usize),
                    msg: MsgId::new(ProcessId::new(*src as usize), *seq),
                    infra: *infra,
                    payload: None,
                },
                WireEventKind::Recv {
                    from,
                    src,
                    seq,
                    infra,
                } => TraceEventKind::Recv {
                    by: p,
                    from: ProcessId::new(*from as usize),
                    msg: MsgId::new(ProcessId::new(*src as usize), *seq),
                    infra: *infra,
                    payload: None,
                },
                WireEventKind::Crash => TraceEventKind::Crash { pid: p },
                WireEventKind::Failed { of } => TraceEventKind::Failed {
                    by: p,
                    of: ProcessId::new(*of as usize),
                },
                WireEventKind::TimerFired { timer } => TraceEventKind::TimerFired {
                    pid: p,
                    timer: TimerId::new(*timer),
                },
                WireEventKind::External => TraceEventKind::External {
                    pid: p,
                    payload: None,
                },
                WireEventKind::NoteKv { key, val } => TraceEventKind::Note {
                    pid: p,
                    note: Note::KeyVal {
                        key: key.clone().into(),
                        val: val.clone().into(),
                    },
                },
                WireEventKind::NoteSet { key, about, set } => TraceEventKind::Note {
                    pid: p,
                    note: Note::ProcessSet {
                        key: key.clone().into(),
                        about: about.map(|a| ProcessId::new(a as usize)),
                        set: Box::new(set.iter().map(|&s| ProcessId::new(s as usize)).collect()),
                    },
                },
            };
            merged.push((ev.lamport, pid, idx, kind));
        }
    }
    merged.sort_by_key(|a| (a.0, a.1, a.2));
    let end_time = VirtualTime::from_ticks(merged.last().map_or(0, |e| e.0));
    let events = merged
        .into_iter()
        .enumerate()
        .map(|(seq, (lamport, _, _, kind))| TraceEvent {
            seq,
            time: VirtualTime::from_ticks(lamport),
            kind,
        })
        .collect();
    let mut stats = SimStats::default();
    for dump in dumps {
        stats.messages_sent += dump.status.sent;
        stats.messages_delivered += dump.status.delivered;
        stats.messages_to_crashed += dump.status.to_crashed;
        stats.messages_dropped += dump.status.dropped;
        stats.messages_duplicated += dump.status.duplicated;
        stats.wire_bytes += dump.status.wire_bytes;
        stats.timers_fired += dump.timers_fired;
        stats.detections += dump.detections;
        stats.crashes += u64::from(dump.status.halted);
    }
    let stop = if quiesced {
        StopReason::Quiescent
    } else {
        StopReason::MaxTime
    };
    Trace::from_parts(n, events, stop, end_time, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctrl::WireEvent;

    fn dump_with(events: Vec<WireEvent>, status: NodeStatus) -> NodeDump {
        NodeDump {
            events,
            status,
            timers_fired: 0,
            detections: 0,
        }
    }

    #[test]
    fn assemble_orders_by_lamport_then_node() {
        let d0 = dump_with(
            vec![WireEvent {
                lamport: 2,
                kind: WireEventKind::Send {
                    to: 1,
                    src: 0,
                    seq: 0,
                    infra: true,
                },
            }],
            NodeStatus {
                sent: 1,
                ..NodeStatus::default()
            },
        );
        let d1 = dump_with(
            vec![
                WireEvent {
                    lamport: 1,
                    kind: WireEventKind::TimerFired { timer: 0 },
                },
                WireEvent {
                    lamport: 3,
                    kind: WireEventKind::Recv {
                        from: 0,
                        src: 0,
                        seq: 0,
                        infra: true,
                    },
                },
            ],
            NodeStatus {
                delivered: 1,
                ..NodeStatus::default()
            },
        );
        let trace = assemble(2, &[d0, d1], true);
        assert_eq!(trace.stop_reason(), StopReason::Quiescent);
        assert_eq!(trace.end_time(), VirtualTime::from_ticks(3));
        assert!(trace.channels_drained());
        let kinds: Vec<_> = trace
            .events()
            .iter()
            .map(|e| (e.seq, e.time.ticks(), e.kind.process().index()))
            .collect();
        // Timer (lamport 1, node 1), send (2, node 0), recv (3, node 1);
        // seq positions are dense and the timestamps are Lamport ticks.
        assert_eq!(kinds, vec![(0, 1, 1), (1, 2, 0), (2, 3, 1)]);
    }

    #[test]
    fn assemble_totals_the_ledger_and_flags_incomplete_runs() {
        let d0 = dump_with(
            Vec::new(),
            NodeStatus {
                sent: 3,
                dropped: 1,
                duplicated: 1,
                wire_bytes: 120,
                halted: true,
                ..NodeStatus::default()
            },
        );
        let d1 = dump_with(
            Vec::new(),
            NodeStatus {
                delivered: 2,
                to_crashed: 1,
                ..NodeStatus::default()
            },
        );
        let trace = assemble(2, &[d0, d1], false);
        assert_eq!(trace.stop_reason(), StopReason::MaxTime);
        let stats = trace.stats();
        assert_eq!(stats.messages_sent, 3);
        assert_eq!(stats.messages_dropped, 1);
        assert_eq!(stats.messages_duplicated, 1);
        assert_eq!(stats.messages_delivered, 2);
        assert_eq!(stats.messages_to_crashed, 1);
        assert_eq!(stats.wire_bytes, 120);
        assert_eq!(stats.crashes, 1);
        assert!(trace.channels_drained());
    }
}
