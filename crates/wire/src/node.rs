//! The node side of the UDP backend: one OS process hosting one
//! [`Process`] automaton over a real localhost UDP socket.
//!
//! The loop mirrors the engines' semantics exactly — same counter
//! definitions, same event alphabet, same edge cases — so the parent can
//! assemble the nodes' dumps into a [`Trace`](sfs_asys::Trace) that the
//! conformance oracle compares against the simulator envelope:
//!
//! * **Counters.** `sent` increments once per [`Action::Send`] (the Send
//!   event is recorded even when the fault shim withholds the datagram,
//!   exactly like a lossy [`LinkModel`](sfs_asys::LinkModel)); `dropped`
//!   counts shim-withheld or kernel-refused copies; `duplicated` counts
//!   shim double-transmissions (both copies share the frame sequence, so
//!   they carry the same engine-level `MsgId`); `delivered` counts
//!   datagrams admitted to the live automaton; `to_crashed` counts
//!   datagrams consumed after the node halted — including messages that
//!   were parked behind a receive filter when the crash happened, the
//!   accounting rule the engines adopted for `channels_drained()`.
//! * **Virtual time.** One tick is `tick_micros` of wall clock from the
//!   `Start` barrier; timers and scripted injections fire off this clock.
//!   Event *timestamps*, however, come from a per-node Lamport clock
//!   (bumped per event, merged from frame headers), which gives the
//!   merged trace a causally consistent order without synchronised
//!   clocks.
//! * **Quiescence.** The node reports `idle` (no armed timers, no pending
//!   injections) plus its counters on every [`ParentToNode::Poll`]; the
//!   parent's balance check over all nodes decides global quiescence —
//!   the PR 7 outstanding-count handshake, spoken over a socket instead
//!   of an in-process channel.
//!
//! Corrupt or foreign datagrams decode to a typed error and are silently
//! discarded — indistinguishable from link loss, which the ARQ layer
//! above already absorbs. (Kernel loss, like any unconsumed copy, shows
//! up as an unbalanced ledger: the run then ends as `MaxTime`, never as a
//! fabricated quiescence.)

use crate::codec::{WireCodec, WireError, WireReader, WireWriter};
use crate::ctrl::{
    read_msg, write_msg, CtrlBuf, NodeDump, NodeStatus, NodeToParent, ParentToNode, WireEvent,
    WireEventKind,
};
use crate::frame::{decode_frame, encode_frame, FrameHeader};
use crate::shim::{FaultShim, ShimConfig, ShimVerdict};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sfs_asys::{Action, Context, Note, Process, ProcessId, ReceiveFilter, VirtualTime};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::io::{self, Read};
use std::net::{TcpStream, ToSocketAddrs, UdpSocket};
use std::time::{Duration, Instant};

/// Everything a spawned node needs to know, decoded from the blob the
/// parent passes through the environment.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeConfig {
    /// This node's process index.
    pub me: u16,
    /// Number of processes in the system.
    pub n: u16,
    /// Seed for this node's process-level RNG.
    pub seed: u64,
    /// Wall-clock length of one virtual tick, in microseconds.
    pub tick_micros: u64,
    /// Optional deterministic wire-fault shim.
    pub shim: Option<ShimConfig>,
}

impl WireCodec for NodeConfig {
    fn encode(&self, w: &mut WireWriter) {
        w.u16(self.me);
        w.u16(self.n);
        w.u64(self.seed);
        w.u64(self.tick_micros);
        self.shim.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let cfg = NodeConfig {
            me: r.u16()?,
            n: r.u16()?,
            seed: r.u64()?,
            tick_micros: r.u64()?,
            shim: Option::decode(r)?,
        };
        if cfg.n == 0 || cfg.me >= cfg.n || cfg.tick_micros == 0 {
            return Err(WireError::BadValue {
                what: "NodeConfig shape",
            });
        }
        Ok(cfg)
    }
}

/// A scripted injection, delivered over the control channel before
/// `Start` and fired at its local tick.
enum Scripted<M> {
    Crash,
    External(M),
}

struct NodeState<M, P, C> {
    me: usize,
    n: usize,
    tick_micros: u64,
    process: P,
    classify: C,
    rng: StdRng,
    next_timer: u64,
    lamport: u64,
    events: Vec<WireEvent>,
    /// Per-sender datagram sequence counter (the engine's `msg_seq`).
    msg_seq: u64,
    /// Armed timers ordered by (deadline tick, raw id)...
    armed: BTreeSet<(u64, u64)>,
    /// ...with the reverse map raw id → deadline for cancellation.
    deadlines: HashMap<u64, u64>,
    /// Scripted injections ordered by (tick, script position).
    injections: VecDeque<(u64, Scripted<M>)>,
    /// Stable `failed_i(j)` flags: re-declarations are idempotent.
    failed: HashSet<u16>,
    filter: Option<ReceiveFilter<M>>,
    /// Per-sender FIFO of filter-refused messages awaiting a receive.
    parked: Vec<VecDeque<(u16, u64, M)>>,
    shim: Option<FaultShim>,
    socket: UdpSocket,
    peers: Vec<std::net::SocketAddr>,
    halted: bool,
    epoch: Instant,
    sent: u64,
    dropped: u64,
    duplicated: u64,
    delivered: u64,
    to_crashed: u64,
    wire_bytes: u64,
    app_sent: u64,
    app_delivered: u64,
    timers_fired: u64,
    detections: u64,
}

impl<M, P, C> NodeState<M, P, C>
where
    M: WireCodec + Clone,
    P: Process<M>,
    C: Fn(&M) -> bool,
{
    fn now_tick(&self) -> u64 {
        (self.epoch.elapsed().as_micros() as u64) / self.tick_micros
    }

    fn record(&mut self, kind: WireEventKind) {
        self.lamport += 1;
        self.events.push(WireEvent {
            lamport: self.lamport,
            kind,
        });
    }

    fn status(&self) -> NodeStatus {
        NodeStatus {
            sent: self.sent,
            dropped: self.dropped,
            duplicated: self.duplicated,
            delivered: self.delivered,
            to_crashed: self.to_crashed,
            wire_bytes: self.wire_bytes,
            app_sent: self.app_sent,
            app_delivered: self.app_delivered,
            idle: self.halted
                || (self.armed.is_empty()
                    && self.injections.is_empty()
                    && self.parked.iter().all(VecDeque::is_empty)),
            halted: self.halted,
        }
    }

    fn dump(self) -> NodeDump {
        let status = self.status();
        NodeDump {
            events: self.events,
            status,
            timers_fired: self.timers_fired,
            detections: self.detections,
        }
    }

    /// Runs one process callback against a fresh [`Context`] and applies
    /// the actions it queued.
    fn invoke(&mut self, f: impl FnOnce(&mut P, &mut Context<'_, M>)) {
        let now = VirtualTime::from_ticks(self.now_tick());
        let (me, n) = (self.me, self.n);
        let actions = {
            let mut ctx = Context::new(
                ProcessId::new(me),
                n,
                now,
                &mut self.rng,
                &mut self.next_timer,
            );
            f(&mut self.process, &mut ctx);
            ctx.take_actions()
        };
        self.apply_actions(actions);
    }

    fn apply_actions(&mut self, actions: Vec<Action<M>>) {
        for action in actions {
            match action {
                Action::Send { to, msg } => self.do_send(to, msg),
                Action::SetTimer { id, delay } => {
                    // A timer armed by a crashing batch would never fire
                    // (and in the simulator its heap entry dissolves), so
                    // it must not hold `idle` false forever.
                    if !self.halted {
                        let at = self.now_tick() + delay.max(1);
                        self.armed.insert((at, id.raw()));
                        self.deadlines.insert(id.raw(), at);
                    }
                }
                Action::CancelTimer { id } => {
                    if let Some(at) = self.deadlines.remove(&id.raw()) {
                        self.armed.remove(&(at, id.raw()));
                    }
                }
                Action::CrashSelf => self.do_crash(),
                Action::DeclareFailed { of } => {
                    let of = of.index() as u16;
                    if self.failed.insert(of) {
                        self.record(WireEventKind::Failed { of });
                        self.detections += 1;
                    }
                }
                Action::Annotate(note) => {
                    let kind = match note {
                        Note::KeyVal { key, val } => WireEventKind::NoteKv {
                            key: key.to_string(),
                            val: val.to_string(),
                        },
                        Note::ProcessSet { key, about, set } => WireEventKind::NoteSet {
                            key: key.to_string(),
                            about: about.map(|p| p.index() as u16),
                            set: set.iter().map(|p| p.index() as u16).collect(),
                        },
                    };
                    self.record(kind);
                }
                Action::SetReceiveFilter(filter) => {
                    self.filter = filter;
                    self.pump_parked();
                }
                Action::ModelSend { to, msg } => self.record(WireEventKind::Send {
                    to: to.index() as u16,
                    src: msg.source().index() as u16,
                    seq: msg.seq(),
                    infra: false,
                }),
                Action::ModelRecv { from, msg } => self.record(WireEventKind::Recv {
                    from: from.index() as u16,
                    src: msg.source().index() as u16,
                    seq: msg.seq(),
                    infra: false,
                }),
            }
        }
    }

    fn do_send(&mut self, to: ProcessId, msg: M) {
        let seq = self.msg_seq;
        self.msg_seq += 1;
        let infra = (self.classify)(&msg);
        // The send is recorded and counted unconditionally — a shim drop
        // is the network losing a sent message, exactly as in the
        // simulator's lossy link.
        self.record(WireEventKind::Send {
            to: to.index() as u16,
            src: self.me as u16,
            seq,
            infra,
        });
        self.sent += 1;
        if !infra {
            self.app_sent += 1;
        }
        let frame = encode_frame(
            FrameHeader {
                src: self.me as u16,
                dst: to.index() as u16,
                seq,
                lamport: self.lamport,
            },
            &msg,
        );
        // Sender-paid byte accounting, as `SimStats::wire_bytes`
        // specifies: charged once per send; duplicated and dropped
        // copies are the network's doing.
        self.wire_bytes += frame.len() as u64;
        let copies = match self.shim.as_mut().map(FaultShim::verdict) {
            Some(ShimVerdict::Drop) => {
                self.dropped += 1;
                return;
            }
            Some(ShimVerdict::Duplicate) => {
                self.duplicated += 1;
                2
            }
            _ => 1,
        };
        for _ in 0..copies {
            // A refused copy is a lost copy; count it so the parent's
            // ledger still balances.
            if self.socket.send_to(&frame, self.peers[to.index()]).is_err() {
                self.dropped += 1;
            }
        }
    }

    fn do_crash(&mut self) {
        if self.halted {
            return;
        }
        self.halted = true;
        self.record(WireEventKind::Crash);
        self.armed.clear();
        self.deadlines.clear();
        self.injections.clear();
        // Messages parked behind the receive filter can never be
        // received now: consume them as messages-to-crashed, the same
        // rule both engines apply at crash time.
        for q in &mut self.parked {
            self.to_crashed += q.len() as u64;
            q.clear();
        }
    }

    /// Admits one datagram's worth of message to the automaton, or parks
    /// it behind the receive filter.
    fn admit(&mut self, from: u16, seq: u64, msg: M) {
        if self.halted {
            self.to_crashed += 1;
            return;
        }
        if let Some(filter) = &self.filter {
            if !filter.accepts(&msg) {
                self.parked[from as usize].push_back((from, seq, msg));
                return;
            }
        }
        let infra = (self.classify)(&msg);
        self.record(WireEventKind::Recv {
            from,
            src: from,
            seq,
            infra,
        });
        self.delivered += 1;
        if !infra {
            self.app_delivered += 1;
        }
        let sender = ProcessId::new(from as usize);
        self.invoke(|p, ctx| p.on_message(ctx, sender, msg));
    }

    /// Re-offers parked messages after a filter change, preserving
    /// per-sender FIFO: each queue drains from the front until the
    /// filter refuses its head again.
    fn pump_parked(&mut self) {
        for from in 0..self.n {
            loop {
                if self.halted {
                    return;
                }
                let admissible = match (self.filter.as_ref(), self.parked[from].front()) {
                    (_, None) => false,
                    (None, Some(_)) => true,
                    (Some(f), Some((_, _, msg))) => f.accepts(msg),
                };
                if !admissible {
                    break;
                }
                let (sender, seq, msg) = self.parked[from].pop_front().unwrap();
                self.admit(sender, seq, msg);
            }
        }
    }

    /// One incoming datagram: decode, merge clocks, deliver.
    fn on_datagram(&mut self, bytes: &[u8]) {
        let Ok((header, msg)) = decode_frame::<M>(bytes) else {
            // Corrupt bytes are link loss; the ARQ above recovers.
            return;
        };
        if header.dst as usize != self.me || header.src as usize >= self.n {
            return;
        }
        // Lamport merge happens at arrival, even for messages a crashed
        // node merely discards — receipt is causally after the send.
        self.lamport = self.lamport.max(header.lamport);
        self.admit(header.src, header.seq, msg);
    }

    /// Fires every scripted injection and armed timer due at or before
    /// the current tick, injections first (they were scheduled first).
    fn fire_due(&mut self) {
        let now = self.now_tick();
        while let Some((at, _)) = self.injections.front() {
            if *at > now || self.halted {
                break;
            }
            let (_, scripted) = self.injections.pop_front().unwrap();
            match scripted {
                Scripted::Crash => self.do_crash(),
                Scripted::External(payload) => {
                    self.record(WireEventKind::External);
                    self.invoke(|p, ctx| p.on_external(ctx, payload));
                }
            }
        }
        while let Some(&(at, raw)) = self.armed.iter().next() {
            if at > now || self.halted {
                break;
            }
            self.armed.remove(&(at, raw));
            self.deadlines.remove(&raw);
            self.record(WireEventKind::TimerFired { timer: raw });
            self.timers_fired += 1;
            let id = sfs_asys::TimerId::new(raw);
            self.invoke(|p, ctx| p.on_timer(ctx, id));
        }
    }
}

/// Runs one node to completion against the parent at `ctrl_addr`.
///
/// Binds a UDP socket on localhost, performs the Hello/Start handshake,
/// runs the event loop (datagrams, timers, scripted faults, control
/// polls), and exits after answering [`ParentToNode::Stop`] with the
/// event dump.
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
    M: WireCodec + Clone,
    P: Process<M>,
    C: Fn(&M) -> bool,
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
    let mut injections: Vec<(u64, Scripted<M>)> = Vec::new();
    let peers: Vec<u16> = loop {
        match read_msg::<ParentToNode, _>(&mut ctrl)? {
            ParentToNode::Crash { at } => injections.push((at, Scripted::Crash)),
            ParentToNode::External { at, body } => {
                let payload = M::from_wire_bytes(&body)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                injections.push((at, Scripted::External(payload)));
            }
            ParentToNode::Start { peers } => break peers,
            ParentToNode::Poll => {
                write_msg(&mut ctrl, &NodeToParent::Status(NodeStatus::default()))?
            }
            ParentToNode::Stop => {
                // Aborted before start: dump nothing and exit cleanly.
                write_msg(
                    &mut ctrl,
                    &NodeToParent::Dump(NodeDump {
                        events: Vec::new(),
                        status: NodeStatus {
                            idle: true,
                            ..NodeStatus::default()
                        },
                        timers_fired: 0,
                        detections: 0,
                    }),
                )?;
                return Ok(());
            }
        }
    };
    if peers.len() != cfg.n as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "peer table size disagrees with n",
        ));
    }
    injections.sort_by_key(|&(at, _)| at); // stable: ties keep script order

    let mut state = NodeState {
        me: cfg.me as usize,
        n: cfg.n as usize,
        tick_micros: cfg.tick_micros,
        process,
        classify,
        rng: StdRng::seed_from_u64(cfg.seed),
        next_timer: 0,
        lamport: 0,
        events: Vec::new(),
        msg_seq: 0,
        armed: BTreeSet::new(),
        deadlines: HashMap::new(),
        injections: injections.into(),
        failed: HashSet::new(),
        filter: None,
        parked: (0..cfg.n).map(|_| VecDeque::new()).collect(),
        shim: cfg.shim.as_ref().map(FaultShim::new),
        socket,
        peers: peers
            .iter()
            .map(|&port| std::net::SocketAddr::from(([127, 0, 0, 1], port)))
            .collect(),
        halted: false,
        epoch: Instant::now(),
        sent: 0,
        dropped: 0,
        duplicated: 0,
        delivered: 0,
        to_crashed: 0,
        wire_bytes: 0,
        app_sent: 0,
        app_delivered: 0,
        timers_fired: 0,
        detections: 0,
    };

    ctrl.set_nonblocking(true)?;
    let mut ctrl_buf = CtrlBuf::new();
    let mut read_buf = [0u8; 4096];
    let mut dgram = [0u8; 65_536];

    state.invoke(|p, ctx| p.on_start(ctx));

    loop {
        state.fire_due();
        // Drain a bounded burst of datagrams; the socket's 500µs read
        // timeout paces the loop when the wire is quiet.
        for _ in 0..64 {
            match state.socket.recv_from(&mut dgram) {
                Ok((len, _)) => state.on_datagram(&dgram[..len]),
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
            Ok(0) => {
                // Parent vanished; there is nobody left to report to.
                return Ok(());
            }
            Ok(k) => ctrl_buf.ingest(&read_buf[..k]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) => return Err(e),
        }
        while let Some(msg) = ctrl_buf.next_msg::<ParentToNode>()? {
            match msg {
                ParentToNode::Poll => {
                    let status = state.status();
                    ctrl.set_nonblocking(false)?;
                    write_msg(&mut ctrl, &NodeToParent::Status(status))?;
                    ctrl.set_nonblocking(true)?;
                }
                ParentToNode::Stop => {
                    ctrl.set_nonblocking(false)?;
                    write_msg(&mut ctrl, &NodeToParent::Dump(state.dump()))?;
                    return Ok(());
                }
                // Faults arrive only before Start; late ones are a
                // protocol error the node just ignores.
                ParentToNode::Crash { .. }
                | ParentToNode::External { .. }
                | ParentToNode::Start { .. } => {}
            }
        }
    }
}
