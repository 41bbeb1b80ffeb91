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

use crate::ctrl::{read_msg, write_msg, NodeDump, NodeStatus, NodeToParent, ParentToNode};
use sfs_asys::{SimStats, StopReason, Trace, TraceEvent, TraceEventKind, VirtualTime};
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
    /// Each node's final accounting, indexed by process; the trace's
    /// counters are their sum.
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
        let total: SimStats = round.iter().map(|s| s.stats).sum();
        let balanced = total.messages_sent + total.messages_duplicated
            == total.messages_delivered + total.messages_to_crashed + total.messages_dropped;
        let idle = round.iter().all(|s| s.idle);
        if idle && balanced && prev.as_deref() == Some(&round[..]) {
            quiesced = true;
            break;
        }
        prev = Some(round);
    }

    // Stop everyone and collect the dumps.
    let mut dumps: Vec<NodeDump> = Vec::with_capacity(config.n);
    for link in &mut links {
        write_msg(&mut link.stream, &ParentToNode::Stop)?;
        let pid = dumps.len();
        match read_msg::<NodeToParent, _>(&mut link.stream)? {
            NodeToParent::Dump(d) if d.events.iter().all(|(_, e)| e.process().index() == pid) => {
                dumps.push(d);
            }
            NodeToParent::Dump(_) => return Err(protocol_err("a dump holds another node's event")),
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
/// consistent with causality, timestamped in Lamport ticks — with the
/// nodes' counters summed.
fn assemble(n: usize, dumps: &[NodeDump], quiesced: bool) -> Trace {
    let mut merged: Vec<(u64, usize, usize, &TraceEventKind)> = dumps
        .iter()
        .enumerate()
        .flat_map(|(pid, dump)| {
            (dump.events.iter().enumerate())
                .map(move |(idx, (lamport, kind))| (*lamport, pid, idx, kind))
        })
        .collect();
    merged.sort_by_key(|&(lamport, pid, idx, _)| (lamport, pid, idx));
    let end_time = VirtualTime::from_ticks(merged.last().map_or(0, |e| e.0));
    let events = merged
        .into_iter()
        .enumerate()
        .map(|(seq, (lamport, _, _, kind))| TraceEvent {
            seq,
            time: VirtualTime::from_ticks(lamport),
            kind: kind.clone(),
        })
        .collect();
    let stats = dumps.iter().map(|d| d.status.stats).sum();
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
    use sfs_asys::{MsgId, ProcessId, TimerId};

    fn dump_with(events: Vec<(u64, TraceEventKind)>, stats: SimStats) -> NodeDump {
        let status = NodeStatus {
            stats,
            ..NodeStatus::default()
        };
        NodeDump { events, status }
    }

    #[test]
    fn assemble_orders_by_lamport_then_node() {
        let (from, to) = (ProcessId::new(0), ProcessId::new(1));
        let (msg, infra, payload) = (MsgId::new(from, 0), true, None);
        let sent = SimStats {
            messages_sent: 1,
            ..SimStats::default()
        };
        let send = TraceEventKind::Send {
            from,
            to,
            msg,
            infra,
            payload: payload.clone(),
        };
        let delivered = SimStats {
            messages_delivered: 1,
            ..SimStats::default()
        };
        let timer = TraceEventKind::TimerFired {
            pid: to,
            timer: TimerId::new(0),
        };
        let recv = TraceEventKind::Recv {
            by: to,
            from,
            msg,
            infra,
            payload,
        };
        let d0 = dump_with(vec![(2, send)], sent);
        let d1 = dump_with(vec![(1, timer), (3, recv)], delivered);
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
        let s0 = SimStats {
            messages_sent: 3,
            messages_dropped: 1,
            messages_duplicated: 1,
            wire_bytes: 120,
            crashes: 1,
            ..SimStats::default()
        };
        let s1 = SimStats {
            messages_delivered: 2,
            messages_to_crashed: 1,
            timers_fired: 4,
            detections: 1,
            ..SimStats::default()
        };
        let dumps = [dump_with(Vec::new(), s0), dump_with(Vec::new(), s1)];
        let trace = assemble(2, &dumps, false);
        assert_eq!(trace.stop_reason(), StopReason::MaxTime);
        assert_eq!(trace.stats(), [s0, s1].into_iter().sum());
        assert_eq!(trace.stats().messages_sent, 3);
        assert_eq!(trace.stats().messages_to_crashed, 1);
        assert!(trace.channels_drained());
    }
}
