//! `sfs-wire` — bytes on a real wire.
//!
//! Every backend before this one kept the system inside a single OS
//! process: the deterministic simulator, the threaded runtime, the ARQ
//! transport in both. This crate takes the final step of the fidelity
//! ladder: each [`Process`](sfs_asys::Process) runs in its **own OS
//! process** and talks to its peers over **real localhost UDP sockets**,
//! with the ARQ transport recovering real kernel loss and reordering on
//! top of the loss and duplication the node's seeded link adds.
//!
//! The crate has two halves:
//!
//! * **Codec** ([`codec`], [`frame`]) — a serde-free, length-prefixed,
//!   explicitly little-endian binary encoding. [`WireCodec`] is the
//!   byte-level trait; [`frame`] wraps one encoded message in a
//!   versioned, magic-tagged datagram header. Decoding returns typed
//!   [`WireError`]s and never panics or over-reads on truncated,
//!   oversized, or bit-flipped input — adversarial bytes are a fact of
//!   real sockets.
//! * **Backend** ([`node`], [`parent`], [`ctrl`]) — the multi-process
//!   runtime. Each node is an I/O shell around one
//!   [`Host`](sfs_asys::Host), the engine core every other engine drives
//!   too, so the §2 model is not written again here. The parent
//!   ([`run_cluster`]) spawns one child per node, barriers on their
//!   `Hello`s, scripts crashes and external suspicions over a TCP control
//!   channel, and then drives the outstanding-count quiescence handshake
//!   (Poll/Status rounds with a global ledger-balance check) before
//!   collecting per-node event dumps and assembling them — via
//!   Lamport-clock merge — into the same [`Trace`](sfs_asys::Trace) type
//!   every other engine produces. That is what lets the E10 conformance
//!   harness treat `net:udp` as just an eighth backend whose traces must
//!   sit inside the simulator envelope.
//!
//! What is deliberately *not* here: any dependency on the protocol
//! crates above `sfs-transport`. The node loop is generic over the
//! message type and automaton; `sfs` (core) supplies the concrete
//! `SfsProcess`-under-ARQ wiring and the spawnable node binary.

#![warn(missing_docs)]

pub mod codec;
pub mod ctrl;
pub mod frame;
pub mod node;
pub mod parent;

pub use codec::{WireCodec, WireError, WireReader, WireWriter};
pub use ctrl::{NodeDump, NodeStatus, NodeToParent, ParentToNode};
pub use frame::{decode_frame, encode_frame, wire_cost, FrameHeader, HEADER_LEN, MAGIC, VERSION};
pub use node::{run_node, NodeConfig};
pub use parent::{run_cluster, ClusterConfig, NodeFault, UdpRun, ENV_CTRL_ADDR};
