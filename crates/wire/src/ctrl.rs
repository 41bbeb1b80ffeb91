//! The parent ⇄ node control protocol, spoken over one TCP stream per
//! node, with every message encoded by the [`WireCodec`] itself
//! (dogfooding: the control plane exercises the same codec the data
//! plane does).
//!
//! Handshake: the node connects and sends [`NodeToParent::Hello`]; the
//! parent replies with scripted faults ([`ParentToNode::Crash`] /
//! [`ParentToNode::External`]) followed by [`ParentToNode::Start`]
//! carrying the peer port table — the barrier that guarantees every
//! socket is bound before the first datagram flies. During the run the
//! parent drives the PR 7 outstanding-count quiescence handshake with
//! [`ParentToNode::Poll`] / [`NodeToParent::Status`]; at the end,
//! [`ParentToNode::Stop`] elicits the node's full event
//! [`NodeToParent::Dump`].
//!
//! Stream framing is a u32 little-endian length prefix per message,
//! bounded by [`MAX_CTRL_MSG`].

use crate::codec::{WireCodec, WireError, WireReader, WireWriter};
use std::io::{self, Read, Write};

/// Upper bound on one control message (the event dump dominates).
pub const MAX_CTRL_MSG: usize = 64 << 20;

/// Aggregate wire accounting of one node, for the quiescence handshake
/// and the assembled trace's [`SimStats`](sfs_asys::SimStats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStatus {
    /// Send actions executed (the engine's `messages_sent`).
    pub sent: u64,
    /// Datagrams withheld by the fault shim or failed sends.
    pub dropped: u64,
    /// Extra copies transmitted by the fault shim.
    pub duplicated: u64,
    /// Datagrams admitted to the live process.
    pub delivered: u64,
    /// Datagrams consumed after this node halted.
    pub to_crashed: u64,
    /// Sender-paid frame bytes: one full frame per send, regardless of
    /// the shim's verdict (matching `SimStats::wire_bytes`).
    pub wire_bytes: u64,
    /// Of [`NodeStatus::sent`], the sends carrying application
    /// (model-level) payloads; the rest are infrastructure. This is the
    /// message-class split the `sfs-obs` registry keys on, piggybacked on
    /// the Status frames the quiescence handshake already exchanges.
    pub app_sent: u64,
    /// Of [`NodeStatus::delivered`], the application-payload deliveries.
    pub app_delivered: u64,
    /// No armed timers and no pending scripted injections remain.
    pub idle: bool,
    /// The node has crashed (and now only drains its socket).
    pub halted: bool,
}

impl NodeStatus {
    /// Copies put on a channel by this node's sends.
    pub fn offered(&self) -> u64 {
        self.sent + self.duplicated
    }

    /// Copies conclusively consumed (delivered, discarded at a crashed
    /// node, or dropped before transmission).
    pub fn consumed(&self) -> u64 {
        self.delivered + self.to_crashed + self.dropped
    }
}

impl WireCodec for NodeStatus {
    fn encode(&self, w: &mut WireWriter) {
        w.u64(self.sent);
        w.u64(self.dropped);
        w.u64(self.duplicated);
        w.u64(self.delivered);
        w.u64(self.to_crashed);
        w.u64(self.wire_bytes);
        w.u64(self.app_sent);
        w.u64(self.app_delivered);
        w.bool(self.idle);
        w.bool(self.halted);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(NodeStatus {
            sent: r.u64()?,
            dropped: r.u64()?,
            duplicated: r.u64()?,
            delivered: r.u64()?,
            to_crashed: r.u64()?,
            wire_bytes: r.u64()?,
            app_sent: r.u64()?,
            app_delivered: r.u64()?,
            idle: r.bool()?,
            halted: r.bool()?,
        })
    }
}

/// One event a node recorded, stamped with its Lamport clock; the
/// parent merges all nodes' events into one causally consistent
/// [`Trace`](sfs_asys::Trace) ordered by `(lamport, node, local index)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireEvent {
    /// The recording node's Lamport clock at the event.
    pub lamport: u64,
    /// What happened.
    pub kind: WireEventKind,
}

/// The node-side event alphabet, mirroring
/// [`TraceEventKind`](sfs_asys::TraceEventKind) without payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireEventKind {
    /// A send by this node: datagram-level (infra) or model-level.
    Send {
        /// Destination process index.
        to: u16,
        /// Message-id source (the sender for datagrams; the layer's
        /// allocation for model events).
        src: u16,
        /// Message-id sequence.
        seq: u64,
        /// Infrastructure flag, as the engines record it.
        infra: bool,
    },
    /// A receive by this node.
    Recv {
        /// Logical sender.
        from: u16,
        /// Message-id source.
        src: u16,
        /// Message-id sequence.
        seq: u64,
        /// Infrastructure flag.
        infra: bool,
    },
    /// This node halted permanently.
    Crash,
    /// This node detected the failure of process `of`.
    Failed {
        /// The detected process.
        of: u16,
    },
    /// A timer fired on this node.
    TimerFired {
        /// Raw timer id.
        timer: u64,
    },
    /// A scripted environment injection was delivered to this node.
    External,
    /// A key/value protocol annotation.
    NoteKv {
        /// Annotation key.
        key: String,
        /// Annotation value.
        val: String,
    },
    /// A process-set protocol annotation (e.g. a detection quorum).
    NoteSet {
        /// Annotation key.
        key: String,
        /// The process the set is about, if any.
        about: Option<u16>,
        /// The set members.
        set: Vec<u16>,
    },
}

const EV_SEND: u8 = 0;
const EV_RECV: u8 = 1;
const EV_CRASH: u8 = 2;
const EV_FAILED: u8 = 3;
const EV_TIMER: u8 = 4;
const EV_EXTERNAL: u8 = 5;
const EV_NOTE_KV: u8 = 6;
const EV_NOTE_SET: u8 = 7;

impl WireCodec for WireEvent {
    fn encode(&self, w: &mut WireWriter) {
        w.u64(self.lamport);
        match &self.kind {
            WireEventKind::Send {
                to,
                src,
                seq,
                infra,
            } => {
                w.u8(EV_SEND);
                w.u16(*to);
                w.u16(*src);
                w.u64(*seq);
                w.bool(*infra);
            }
            WireEventKind::Recv {
                from,
                src,
                seq,
                infra,
            } => {
                w.u8(EV_RECV);
                w.u16(*from);
                w.u16(*src);
                w.u64(*seq);
                w.bool(*infra);
            }
            WireEventKind::Crash => w.u8(EV_CRASH),
            WireEventKind::Failed { of } => {
                w.u8(EV_FAILED);
                w.u16(*of);
            }
            WireEventKind::TimerFired { timer } => {
                w.u8(EV_TIMER);
                w.u64(*timer);
            }
            WireEventKind::External => w.u8(EV_EXTERNAL),
            WireEventKind::NoteKv { key, val } => {
                w.u8(EV_NOTE_KV);
                key.encode(w);
                val.encode(w);
            }
            WireEventKind::NoteSet { key, about, set } => {
                w.u8(EV_NOTE_SET);
                key.encode(w);
                about.encode(w);
                set.encode(w);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        // The parent turns the sequence into a `MsgId`, which holds 32
        // bits: a larger one is refused here, not at that conversion.
        let msg_seq = |r: &mut WireReader<'_>| match r.u64()? {
            seq if seq <= u64::from(u32::MAX) => Ok(seq),
            _ => Err(WireError::BadValue {
                what: "WireEvent seq",
            }),
        };
        let lamport = r.u64()?;
        let kind = match r.u8()? {
            EV_SEND => WireEventKind::Send {
                to: r.u16()?,
                src: r.u16()?,
                seq: msg_seq(r)?,
                infra: r.bool()?,
            },
            EV_RECV => WireEventKind::Recv {
                from: r.u16()?,
                src: r.u16()?,
                seq: msg_seq(r)?,
                infra: r.bool()?,
            },
            EV_CRASH => WireEventKind::Crash,
            EV_FAILED => WireEventKind::Failed { of: r.u16()? },
            EV_TIMER => WireEventKind::TimerFired { timer: r.u64()? },
            EV_EXTERNAL => WireEventKind::External,
            EV_NOTE_KV => WireEventKind::NoteKv {
                key: String::decode(r)?,
                val: String::decode(r)?,
            },
            EV_NOTE_SET => WireEventKind::NoteSet {
                key: String::decode(r)?,
                about: Option::<u16>::decode(r)?,
                set: Vec::<u16>::decode(r)?,
            },
            tag => {
                return Err(WireError::UnknownTag {
                    what: "WireEvent",
                    tag,
                })
            }
        };
        Ok(WireEvent { lamport, kind })
    }
}

/// The node's final report, sent in response to [`ParentToNode::Stop`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeDump {
    /// Every recorded event, in local order.
    pub events: Vec<WireEvent>,
    /// Final wire accounting.
    pub status: NodeStatus,
    /// Timer firings delivered to the process.
    pub timers_fired: u64,
    /// Failure detections this node declared.
    pub detections: u64,
}

impl WireCodec for NodeDump {
    fn encode(&self, w: &mut WireWriter) {
        self.events.encode(w);
        self.status.encode(w);
        w.u64(self.timers_fired);
        w.u64(self.detections);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(NodeDump {
            events: Vec::decode(r)?,
            status: NodeStatus::decode(r)?,
            timers_fired: r.u64()?,
            detections: r.u64()?,
        })
    }
}

/// Messages a node sends to the parent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeToParent {
    /// First message after connecting: who I am and where I listen.
    Hello {
        /// Process index.
        pid: u16,
        /// The node's bound UDP port on localhost.
        udp_port: u16,
    },
    /// Reply to [`ParentToNode::Poll`].
    Status(NodeStatus),
    /// Reply to [`ParentToNode::Stop`].
    Dump(NodeDump),
}

const NP_HELLO: u8 = 0;
const NP_STATUS: u8 = 1;
const NP_DUMP: u8 = 2;

impl WireCodec for NodeToParent {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            NodeToParent::Hello { pid, udp_port } => {
                w.u8(NP_HELLO);
                w.u16(*pid);
                w.u16(*udp_port);
            }
            NodeToParent::Status(s) => {
                w.u8(NP_STATUS);
                s.encode(w);
            }
            NodeToParent::Dump(d) => {
                w.u8(NP_DUMP);
                d.encode(w);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            NP_HELLO => Ok(NodeToParent::Hello {
                pid: r.u16()?,
                udp_port: r.u16()?,
            }),
            NP_STATUS => Ok(NodeToParent::Status(NodeStatus::decode(r)?)),
            NP_DUMP => Ok(NodeToParent::Dump(NodeDump::decode(r)?)),
            tag => Err(WireError::UnknownTag {
                what: "NodeToParent",
                tag,
            }),
        }
    }
}

/// Messages the parent sends to a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParentToNode {
    /// Script a crash of this node at the given local tick
    /// (pre-`Start` only).
    Crash {
        /// Virtual tick at which the node halts.
        at: u64,
    },
    /// Script an environment injection at the given local tick
    /// (pre-`Start` only). `body` is the node's wire-encoded message
    /// type, delivered through `on_external`.
    External {
        /// Virtual tick of the injection.
        at: u64,
        /// Encoded stimulus.
        body: Vec<u8>,
    },
    /// Start the run: every node is connected; `peers[i]` is process
    /// `i`'s UDP port on localhost.
    Start {
        /// UDP port table, indexed by process.
        peers: Vec<u16>,
    },
    /// Request a [`NodeStatus`] (the quiescence handshake's probe).
    Poll,
    /// End the run: dump events and exit.
    Stop,
}

const PN_CRASH: u8 = 0;
const PN_EXTERNAL: u8 = 1;
const PN_START: u8 = 2;
const PN_POLL: u8 = 3;
const PN_STOP: u8 = 4;

impl WireCodec for ParentToNode {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            ParentToNode::Crash { at } => {
                w.u8(PN_CRASH);
                w.u64(*at);
            }
            ParentToNode::External { at, body } => {
                w.u8(PN_EXTERNAL);
                w.u64(*at);
                body.encode(w);
            }
            ParentToNode::Start { peers } => {
                w.u8(PN_START);
                peers.encode(w);
            }
            ParentToNode::Poll => w.u8(PN_POLL),
            ParentToNode::Stop => w.u8(PN_STOP),
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            PN_CRASH => Ok(ParentToNode::Crash { at: r.u64()? }),
            PN_EXTERNAL => Ok(ParentToNode::External {
                at: r.u64()?,
                body: Vec::decode(r)?,
            }),
            PN_START => Ok(ParentToNode::Start {
                peers: Vec::decode(r)?,
            }),
            PN_POLL => Ok(ParentToNode::Poll),
            PN_STOP => Ok(ParentToNode::Stop),
            tag => Err(WireError::UnknownTag {
                what: "ParentToNode",
                tag,
            }),
        }
    }
}

/// Writes one length-prefixed control message to a stream.
///
/// # Errors
///
/// Propagates the stream's I/O errors.
pub fn write_msg<M: WireCodec, S: Write>(stream: &mut S, msg: &M) -> io::Result<()> {
    let body = msg.to_wire_bytes();
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    stream.write_all(&out)
}

/// Blocking-reads one length-prefixed control message from a stream.
///
/// # Errors
///
/// The stream's I/O errors; `InvalidData` on a length above
/// [`MAX_CTRL_MSG`] or a body the codec rejects.
pub fn read_msg<M: WireCodec, S: Read>(stream: &mut S) -> io::Result<M> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_CTRL_MSG {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("control message of {len} bytes exceeds bound"),
        ));
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    M::from_wire_bytes(&body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Incremental reassembly buffer for the node's **non-blocking** control
/// reads: bytes go in as they arrive; complete messages come out.
#[derive(Debug, Default)]
pub struct CtrlBuf {
    buf: Vec<u8>,
}

impl CtrlBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        CtrlBuf::default()
    }

    /// Appends freshly read bytes.
    pub fn ingest(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete message, if one has fully arrived.
    ///
    /// # Errors
    ///
    /// `InvalidData` on an oversized length prefix or an undecodable
    /// body.
    pub fn next_msg<M: WireCodec>(&mut self) -> io::Result<Option<M>> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().unwrap()) as usize;
        if len > MAX_CTRL_MSG {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("control message of {len} bytes exceeds bound"),
            ));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let msg = M::from_wire_bytes(&self.buf[4..4 + len])
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.buf.drain(..4 + len);
        Ok(Some(msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_messages_round_trip() {
        let msgs = vec![
            ParentToNode::Crash { at: 20 },
            ParentToNode::External {
                at: 10,
                body: vec![1, 2, 3],
            },
            ParentToNode::Start {
                peers: vec![4000, 4001, 4002],
            },
            ParentToNode::Poll,
            ParentToNode::Stop,
        ];
        for m in &msgs {
            assert_eq!(
                &ParentToNode::from_wire_bytes(&m.to_wire_bytes()).unwrap(),
                m
            );
        }
        let dump = NodeToParent::Dump(NodeDump {
            events: vec![
                WireEvent {
                    lamport: 3,
                    kind: WireEventKind::Send {
                        to: 1,
                        src: 0,
                        seq: 7,
                        infra: true,
                    },
                },
                WireEvent {
                    lamport: 4,
                    kind: WireEventKind::NoteSet {
                        key: "quorum".into(),
                        about: Some(2),
                        set: vec![0, 1],
                    },
                },
            ],
            status: NodeStatus {
                sent: 5,
                delivered: 4,
                idle: true,
                ..NodeStatus::default()
            },
            timers_fired: 2,
            detections: 1,
        });
        assert_eq!(
            NodeToParent::from_wire_bytes(&dump.to_wire_bytes()).unwrap(),
            dump
        );
        for seq in [u64::from(u32::MAX) + 1, u64::MAX] {
            let event = WireEvent {
                lamport: 3,
                kind: WireEventKind::Recv {
                    from: 1,
                    src: 1,
                    seq,
                    infra: false,
                },
            };
            assert_eq!(
                WireEvent::from_wire_bytes(&event.to_wire_bytes()).unwrap_err(),
                WireError::BadValue {
                    what: "WireEvent seq"
                }
            );
        }
    }

    #[test]
    fn ctrl_buf_reassembles_split_messages() {
        let mut framed = Vec::new();
        write_msg(&mut framed, &ParentToNode::Poll).unwrap();
        write_msg(
            &mut framed,
            &ParentToNode::Start {
                peers: vec![1, 2, 3],
            },
        )
        .unwrap();
        let mut buf = CtrlBuf::new();
        let mut seen = Vec::new();
        // Feed one byte at a time: messages must pop exactly at their
        // boundaries.
        for b in framed {
            buf.ingest(&[b]);
            while let Some(m) = buf.next_msg::<ParentToNode>().unwrap() {
                seen.push(m);
            }
        }
        assert_eq!(
            seen,
            vec![
                ParentToNode::Poll,
                ParentToNode::Start {
                    peers: vec![1, 2, 3],
                },
            ]
        );
    }

    #[test]
    fn stream_round_trip_through_read_msg() {
        let mut framed = Vec::new();
        write_msg(
            &mut framed,
            &NodeToParent::Hello {
                pid: 2,
                udp_port: 40_000,
            },
        )
        .unwrap();
        let mut cursor = io::Cursor::new(framed);
        assert_eq!(
            read_msg::<NodeToParent, _>(&mut cursor).unwrap(),
            NodeToParent::Hello {
                pid: 2,
                udp_port: 40_000,
            }
        );
    }
}
