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
use sfs_asys::{SimStats, TraceEventKind};
use std::io::{self, Read, Write};

/// Upper bound on one control message (the event dump dominates).
pub const MAX_CTRL_MSG: usize = 64 << 20;

/// One node's accounting, for the quiescence handshake and the
/// assembled trace: its host's counters, summed over nodes into the
/// trace's [`SimStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStatus {
    /// The host's counters. A datagram the kernel refused to send counts
    /// in `messages_dropped`, as a copy the network lost.
    pub stats: SimStats,
    /// Nothing is due on the host: no channel head, timer or scripted
    /// injection waits on its wheel.
    pub idle: bool,
    /// The node has crashed (and now only consumes what arrives).
    pub halted: bool,
}

impl WireCodec for NodeStatus {
    fn encode(&self, w: &mut WireWriter) {
        self.stats.encode(w);
        w.bool(self.idle);
        w.bool(self.halted);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(NodeStatus {
            stats: SimStats::decode(r)?,
            idle: r.bool()?,
            halted: r.bool()?,
        })
    }
}

/// The node's final report, sent in response to [`ParentToNode::Stop`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeDump {
    /// Every recorded event, in local order, under its Lamport stamp.
    pub events: Vec<(u64, TraceEventKind)>,
    /// Final accounting.
    pub status: NodeStatus,
}

impl WireCodec for NodeDump {
    fn encode(&self, w: &mut WireWriter) {
        self.events.encode(w);
        self.status.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(NodeDump {
            events: Vec::decode(r)?,
            status: NodeStatus::decode(r)?,
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
    use sfs_asys::{MsgId, ProcessId};

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
        let p = ProcessId::new;
        let failed = TraceEventKind::Failed { by: p(0), of: p(2) };
        let dump = NodeToParent::Dump(NodeDump {
            events: vec![(4, failed), (5, TraceEventKind::Crash { pid: p(0) })],
            status: NodeStatus {
                stats: SimStats {
                    messages_sent: 5,
                    detections: 1,
                    ..SimStats::default()
                },
                idle: true,
                halted: true,
            },
        });
        assert_eq!(
            NodeToParent::from_wire_bytes(&dump.to_wire_bytes()).unwrap(),
            dump
        );
        // The parent turns each event into a trace event as it stands, so
        // a pid or a sequence that a 32-bit id cannot hold is refused here.
        let recv = |by: u64, seq: u64| {
            let msg = MsgId::new(p(1), 0);
            let (from, infra, payload) = (p(1), false, None);
            let event = TraceEventKind::Recv {
                by: p(0),
                from,
                msg,
                infra,
                payload,
            };
            // Tag, receiver, sender, message source, message sequence.
            let mut bytes = event.to_wire_bytes();
            bytes[1..9].copy_from_slice(&by.to_le_bytes());
            bytes[25..33].copy_from_slice(&seq.to_le_bytes());
            bytes
        };
        assert!(TraceEventKind::from_wire_bytes(&recv(0, u64::from(u32::MAX))).is_ok());
        for seq in [u64::from(u32::MAX) + 1, u64::MAX] {
            assert_eq!(
                TraceEventKind::from_wire_bytes(&recv(0, seq)).unwrap_err(),
                WireError::BadValue { what: "MsgId" }
            );
        }
        assert_eq!(
            TraceEventKind::from_wire_bytes(&recv(u64::from(u32::MAX) + 1, 0)).unwrap_err(),
            WireError::BadValue { what: "ProcessId" }
        );
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
