//! The node side of the UDP backend: the I/O shell around one
//! [`Host`] — one [`Process`] in its own OS process, on a real localhost
//! UDP socket.
//!
//! The §2 model is the host's: channels, parking behind a receive
//! filter, crashes, stable detections, the link's loss and duplication
//! and every counter live in the engine core the simulator and the
//! threaded runtime drive too. The shell adds what a socket needs:
//!
//! * **Clock.** One tick is `tick_micros` of wall clock from the `Start`
//!   barrier. The host is advanced to the current tick on every turn of
//!   the loop and after each admitted datagram, which receives the
//!   datagram and fires what timers and scripted injections have come
//!   due.
//! * **Frames.** Each copy the host egresses leaves as one
//!   [`encode_frame`] datagram. A datagram that decodes, is addressed to
//!   this node and comes from another process is ingressed under the
//!   sender's message id; anything else is dropped unseen —
//!   indistinguishable from link loss, which the ARQ layer above
//!   absorbs. A datagram the kernel refuses to send counts as dropped,
//!   so the ledger still balances.
//! * **Lamport stamps.** Every event the host records gets the next tick
//!   of the node's Lamport clock; a frame carries the clock as it stands
//!   when the frame leaves (at least its send's stamp), and an arriving
//!   frame lifts the clock to its own, so the receive is stamped above
//!   it. The parent merges the nodes' dumps in stamp order: a causally
//!   consistent trace without synchronised clocks.
//! * **Control.** Hello, the fault script and the Start barrier; then
//!   [`NodeStatus`] on every [`ParentToNode::Poll`] — the host's counters
//!   plus `idle` (nothing live due on its queue: a cancelled timer does
//!   not count) — for the parent's
//!   ledger-balance quiescence check; and the event dump on
//!   [`ParentToNode::Stop`].

use crate::codec::{WireCodec, WireError, WireReader, WireWriter};
use crate::ctrl::{read_msg, write_msg, CtrlBuf, NodeDump, NodeStatus, NodeToParent, ParentToNode};
use crate::frame::{decode_frame, encode_frame, wire_cost, FrameHeader};
use sfs_asys::net::RuntimeConfig;
use sfs_asys::{
    FaultPlan, FaultyLink, FixedLatency, Host, MsgId, Process, ProcessId, SenderLink, VirtualTime,
};
use std::fmt;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything a spawned node needs to know, decoded from the blob the
/// parent passes through the environment.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeConfig {
    /// This node's process index.
    pub me: u16,
    /// Number of processes in the system.
    pub n: u16,
    /// Seed of this node's rngs: its process's and its link's.
    pub seed: u64,
    /// Wall-clock length of one virtual tick, in microseconds.
    pub tick_micros: u64,
    /// Probability the link loses a copy this node sends.
    pub loss: f64,
    /// Probability the link duplicates a copy this node sends.
    pub duplicate: f64,
}

impl WireCodec for NodeConfig {
    fn encode(&self, w: &mut WireWriter) {
        w.u16(self.me);
        w.u16(self.n);
        w.u64(self.seed);
        w.u64(self.tick_micros);
        w.f64(self.loss);
        w.f64(self.duplicate);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let cfg = NodeConfig {
            me: r.u16()?,
            n: r.u16()?,
            seed: r.u64()?,
            tick_micros: r.u64()?,
            loss: r.f64()?,
            duplicate: r.f64()?,
        };
        if cfg.n == 0 || cfg.me >= cfg.n || cfg.tick_micros == 0 {
            return Err(WireError::BadValue {
                what: "NodeConfig shape",
            });
        }
        if !(0.0..=1.0).contains(&cfg.loss) || !(0.0..=1.0).contains(&cfg.duplicate) {
            return Err(WireError::BadValue {
                what: "NodeConfig probability",
            });
        }
        Ok(cfg)
    }
}

impl NodeConfig {
    fn me(&self) -> ProcessId {
        ProcessId::new(self.me.into())
    }

    /// The host's configuration: the seed, a link with this node's loss
    /// and duplication when either is set, `classify`, each frame's real
    /// size as the wire-byte measure, the scripted faults, and a recorder
    /// for the dump. A copy for another node leaves at once, whatever the
    /// link's delay: the wire adds its own. What a process sends itself
    /// arrives at once without a link, and a tick later over one, the
    /// least delay a latency model draws.
    fn runtime<M: WireCodec + 'static>(
        &self,
        classify: impl Fn(&M) -> bool + Send + Sync + 'static,
        faults: FaultPlan<M>,
    ) -> RuntimeConfig<M> {
        let faulty = self.loss > 0.0 || self.duplicate > 0.0;
        let link = FaultyLink::new(FixedLatency(1))
            .loss(self.loss)
            .duplicate(self.duplicate);
        RuntimeConfig {
            seed: self.seed,
            link: faulty.then(|| Box::new(link) as Box<dyn SenderLink>),
            classify: Some(Arc::new(classify)),
            measure: Some(Arc::new(|m: &M| wire_cost(m))),
            faults,
            ..RuntimeConfig::default()
        }
    }
}

/// The shell's state around its host: the Lamport clock and the stamps
/// of the events recorded so far.
struct Node<M> {
    host: Host<M>,
    lamport: u64,
    stamps: Vec<u64>,
    /// Datagrams the kernel refused to send.
    refused: u64,
}

impl<M: WireCodec + Clone + fmt::Debug> Node<M> {
    fn new(host: Host<M>) -> Self {
        let mut node = Node {
            host,
            lamport: 0,
            stamps: Vec::new(),
            refused: 0,
        };
        node.stamp();
        node
    }

    /// Stamps the events the host recorded since the last call, one
    /// Lamport tick each.
    fn stamp(&mut self) {
        for _ in self.stamps.len()..self.host.events().len() {
            self.lamport += 1;
            self.stamps.push(self.lamport);
        }
    }

    /// Advances the host to `tick` and stamps what it recorded.
    fn advance_to(&mut self, tick: u64) {
        self.host.advance_to(VirtualTime::from_ticks(tick));
        self.stamp();
    }

    /// Advances the host to `tick`, then sends every copy it egressed as
    /// one frame each.
    fn turn(&mut self, tick: u64, socket: &UdpSocket, peers: &[SocketAddr]) {
        self.advance_to(tick);
        let src = self.host.me().index() as u16;
        for copy in self.host.egress() {
            let header = FrameHeader {
                src,
                dst: copy.to.index() as u16,
                seq: copy.msg.seq(),
                lamport: self.lamport,
            };
            let frame = encode_frame(header, &copy.payload);
            if socket.send_to(&frame, peers[copy.to.index()]).is_err() {
                self.refused += 1;
            }
        }
    }

    /// One datagram: ingressed when it decodes, is addressed to this node
    /// and comes from another process of the system; dropped unseen, with
    /// nothing changed, otherwise. Returns whether it was ingressed.
    fn admit_frame(&mut self, bytes: &[u8]) -> bool {
        let Ok((header, payload)) = decode_frame::<M>(bytes) else {
            return false;
        };
        let Ok(seq) = u32::try_from(header.seq) else {
            return false;
        };
        if usize::from(header.dst) != self.host.me().index() {
            return false;
        }
        let msg = MsgId::new(ProcessId::new(header.src.into()), seq.into());
        if !self.host.ingress(msg, payload) {
            return false;
        }
        // The receive comes after the send, even when a crashed node only
        // consumes the copy.
        self.lamport = self.lamport.max(header.lamport);
        true
    }

    fn status(&self) -> NodeStatus {
        let mut stats = self.host.stats();
        stats.messages_dropped += self.refused;
        let halted = self.host.is_crashed();
        NodeStatus {
            stats,
            idle: halted || self.host.next_deadline().is_none(),
            halted,
        }
    }

    fn dump(&self) -> NodeDump {
        let events = self.host.events().iter().zip(&self.stamps);
        NodeDump {
            events: events.map(|(e, &stamp)| (stamp, e.kind.clone())).collect(),
            status: self.status(),
        }
    }
}

fn invalid(why: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why.into())
}

/// Runs one node to completion against the parent at `ctrl_addr`.
///
/// Binds a UDP socket on localhost, performs the Hello/Start handshake,
/// runs the event loop (datagrams, the host's clock, control polls), and
/// exits after answering [`ParentToNode::Stop`] with the event dump.
///
/// `classify` marks infrastructure payloads for trace events, exactly
/// like `SimBuilder::classify` in the simulator.
///
/// # Errors
///
/// Propagates socket I/O errors and malformed control traffic; a clean
/// `Stop` returns `Ok(())`.
pub fn run_node<M, P, C, A>(
    cfg: &NodeConfig,
    ctrl_addr: A,
    process: P,
    classify: C,
) -> io::Result<()>
where
    M: WireCodec + Clone + fmt::Debug + 'static,
    P: Process<M> + 'static,
    C: Fn(&M) -> bool + Send + Sync + 'static,
    A: ToSocketAddrs,
{
    let socket = UdpSocket::bind("127.0.0.1:0")?;
    socket.set_read_timeout(Some(Duration::from_micros(500)))?;
    let udp_port = socket.local_addr()?.port();
    let mut ctrl = TcpStream::connect(ctrl_addr)?;
    ctrl.set_nodelay(true)?;
    write_msg(
        &mut ctrl,
        &NodeToParent::Hello {
            pid: cfg.me,
            udp_port,
        },
    )?;

    // Pre-start phase: collect the fault script, wait for the barrier.
    let me = cfg.me();
    let mut faults = FaultPlan::new();
    let peers = loop {
        match read_msg::<ParentToNode, _>(&mut ctrl)? {
            ParentToNode::Crash { at } => faults = faults.crash_at(me, VirtualTime::from_ticks(at)),
            ParentToNode::External { at, body } => {
                let payload = M::from_wire_bytes(&body).map_err(|e| invalid(e.to_string()))?;
                faults = faults.external_at(me, VirtualTime::from_ticks(at), payload);
            }
            ParentToNode::Start { peers } => break peers,
            ParentToNode::Poll => {
                write_msg(&mut ctrl, &NodeToParent::Status(NodeStatus::default()))?
            }
            // Aborted before start: dump nothing and exit cleanly.
            ParentToNode::Stop => {
                return write_msg(&mut ctrl, &NodeToParent::Dump(NodeDump::default()))
            }
        }
    };
    if peers.len() != usize::from(cfg.n) {
        return Err(invalid("peer table size disagrees with n"));
    }
    let peers: Vec<SocketAddr> = peers
        .iter()
        .map(|&port| SocketAddr::from(([127, 0, 0, 1], port)))
        .collect();

    let epoch = Instant::now();
    let config = cfg.runtime(classify, faults);
    let mut node = Node::new(Host::start(me, cfg.n.into(), config, Box::new(process)));
    ctrl.set_nonblocking(true)?;
    let mut ctrl_buf = CtrlBuf::new();
    let mut read_buf = [0u8; 4096];
    let mut dgram = [0u8; 65_536];
    let tick = || epoch.elapsed().as_micros() as u64 / cfg.tick_micros;
    loop {
        node.turn(tick(), &socket, &peers);
        // Drain a bounded burst of datagrams, each received as it
        // arrives; the socket's 500µs read timeout paces the loop when
        // the wire is quiet.
        for _ in 0..64 {
            match socket.recv_from(&mut dgram) {
                Ok((len, _)) => {
                    if node.admit_frame(&dgram[..len]) {
                        node.turn(tick(), &socket, &peers);
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        match ctrl.read(&mut read_buf) {
            // Parent vanished; there is nobody left to report to.
            Ok(0) => return Ok(()),
            Ok(k) => ctrl_buf.ingest(&read_buf[..k]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) => return Err(e),
        }
        while let Some(msg) = ctrl_buf.next_msg::<ParentToNode>()? {
            let reply = match msg {
                ParentToNode::Poll => NodeToParent::Status(node.status()),
                ParentToNode::Stop => NodeToParent::Dump(node.dump()),
                // Faults arrive only before Start; late ones are a
                // protocol error the node just ignores.
                ParentToNode::Crash { .. }
                | ParentToNode::External { .. }
                | ParentToNode::Start { .. } => continue,
            };
            ctrl.set_nonblocking(false)?;
            write_msg(&mut ctrl, &reply)?;
            if matches!(reply, NodeToParent::Dump(_)) {
                return Ok(());
            }
            ctrl.set_nonblocking(true)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_asys::{Context, Egress, SimStats};

    /// Sends `burst` messages to process 1 on start.
    struct Burst(u64);

    impl Process<u64> for Burst {
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            for k in 0..self.0 {
                ctx.send(ProcessId::new(1), k);
            }
        }
        fn on_message(&mut self, _: &mut Context<'_, u64>, _: ProcessId, _: u64) {}
    }

    fn config(me: u16, seed: u64, loss: f64, duplicate: f64) -> NodeConfig {
        NodeConfig {
            me,
            n: 3,
            seed,
            tick_micros: 1_000,
            loss,
            duplicate,
        }
    }

    fn node(cfg: &NodeConfig, burst: u64) -> Node<u64> {
        let runtime = cfg.runtime(|_: &u64| true, FaultPlan::new());
        Node::new(Host::start(cfg.me(), 3, runtime, Box::new(Burst(burst))))
    }

    /// What process 0's link lets through of a 64-message burst.
    fn copies(cfg: &NodeConfig) -> Vec<Egress<u64>> {
        node(cfg, 64).host.egress().collect()
    }

    #[test]
    fn node_config_rejects_probabilities_outside_the_unit_interval() {
        let good = config(0, 1, 0.1, 0.0);
        assert_eq!(NodeConfig::from_wire_bytes(&good.to_wire_bytes()), Ok(good));
        for (loss, duplicate) in [
            (1.5, 0.0),
            (0.1, -0.1),
            (f64::NAN, 0.0),
            (0.0, f64::INFINITY),
        ] {
            let bad = config(0, 1, loss, duplicate).to_wire_bytes();
            assert_eq!(
                NodeConfig::from_wire_bytes(&bad).unwrap_err(),
                WireError::BadValue {
                    what: "NodeConfig probability"
                },
                "{loss} {duplicate}"
            );
        }
    }

    #[test]
    fn the_node_link_draws_from_a_per_node_seed() {
        let lossy = config(0, 42, 0.3, 0.2);
        let a = copies(&lossy);
        assert_eq!(a, copies(&lossy));
        assert_ne!(a, copies(&config(0, 43, 0.3, 0.2)));
        let stats = node(&lossy, 64).host.stats();
        assert!(stats.messages_dropped > 0 && stats.messages_duplicated > 0);
        // Every copy the link let through left through the egress edge,
        // due a tick later, the least delay a latency model draws.
        let through = stats.messages_sent - stats.messages_dropped + stats.messages_duplicated;
        assert_eq!(a.len() as u64, through);
        assert!(a.iter().all(|c| c.at == VirtualTime::from_ticks(1)));
        // Without faults there is no link: every send leaves once, in
        // send order, at once.
        let faultless = copies(&config(0, 7, 0.0, 0.0));
        let seqs: Vec<u64> = faultless.iter().map(|c| c.msg.seq()).collect();
        assert_eq!(seqs, (0..64).collect::<Vec<u64>>());
        assert!(faultless.iter().all(|c| c.at == VirtualTime::ZERO));
    }

    /// Arms a timer on start and cancels it at once.
    struct ArmAndCancel;

    impl Process<u64> for ArmAndCancel {
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            let timer = ctx.set_timer(50);
            ctx.cancel_timer(timer);
        }
        fn on_message(&mut self, _: &mut Context<'_, u64>, _: ProcessId, _: u64) {}
    }

    #[test]
    fn a_node_whose_only_entry_is_a_cancelled_timer_is_idle() {
        let cfg = config(0, 3, 0.0, 0.0);
        let runtime = cfg.runtime(|_: &u64| true, FaultPlan::new());
        let node = Node::new(Host::start(cfg.me(), 3, runtime, Box::new(ArmAndCancel)));
        let status = node.status();
        assert!(status.idle && !status.halted);
        assert_eq!(status.stats, SimStats::default());
    }

    #[test]
    fn foreign_frames_change_nothing_on_the_host() {
        let mut node = node(&config(1, 5, 0.0, 0.0), 0);
        let frame = |src: u16, dst: u16, seq: u64| {
            let header = FrameHeader {
                src,
                dst,
                seq,
                lamport: 9,
            };
            encode_frame(header, &7u64)
        };
        let mut truncated = frame(0, 1, 0);
        truncated.pop();
        let mut flipped = frame(0, 1, 0);
        flipped[0] ^= 0x01;
        let foreign = [
            truncated,
            flipped,
            b"not a frame".to_vec(),
            // Addressed to another node.
            frame(0, 2, 0),
            // From no process of the system, and from this node itself.
            frame(3, 1, 0),
            frame(1, 1, 0),
            // A sequence no message id holds.
            frame(0, 1, u64::from(u32::MAX) + 1),
        ];
        for bytes in &foreign {
            assert!(!node.admit_frame(bytes));
        }
        node.advance_to(5);
        assert_eq!(node.host.stats(), SimStats::default());
        assert!(node.host.events().is_empty());
        assert_eq!(node.lamport, 0);
        assert_eq!(node.host.next_deadline(), None);

        // The same frame, well formed, is received above its stamp.
        assert!(node.admit_frame(&frame(0, 1, 0)));
        node.advance_to(5);
        assert_eq!(node.host.stats().messages_delivered, 1);
        assert_eq!(node.stamps, vec![10]);
    }
}
