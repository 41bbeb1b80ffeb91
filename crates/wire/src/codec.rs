//! Serde-free length-prefixed binary codec for wire frames.
//!
//! Everything that crosses a socket in this workspace — transport frames,
//! control-channel messages, node configuration blobs — is encoded with
//! [`WireCodec`]: explicit little-endian integers, u32-length-prefixed
//! sequences, one tag byte per enum variant, and a versioned frame header
//! on the datagram path ([`frame`](crate::frame)). Decoding returns typed
//! [`WireError`]s and never panics or over-reads on truncated or corrupt
//! input: every read is bounds-checked against the remaining slice, and
//! length prefixes are validated against the bytes actually present
//! before any allocation.

use sfs_asys::{MsgId, Note, ProcessId, SimStats, Text, TimerId, TraceEventKind, VirtualTime};
use sfs_transport::TransportMsg;
use std::fmt;

/// Why a byte sequence was rejected by a [`WireCodec`] decoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before a fixed-size field: `needed` more bytes
    /// were required, `have` remained.
    Truncated {
        /// Bytes the next field required.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// The frame did not start with [`frame::MAGIC`](crate::frame::MAGIC).
    BadMagic(u16),
    /// The frame's version byte is not one this decoder speaks.
    BadVersion(u8),
    /// A length prefix exceeds the bytes present (or the frame bound):
    /// honouring it would over-read or over-allocate.
    OversizedLength {
        /// The claimed length.
        claimed: u64,
        /// The permitted maximum at this position.
        max: u64,
    },
    /// An enum tag byte matched no variant of the expected type.
    UnknownTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A value decoded but failed validation (e.g. non-UTF-8 string
    /// bytes, a boolean byte that is neither 0 nor 1).
    BadValue {
        /// The field being decoded.
        what: &'static str,
    },
    /// Input remained after the value was fully decoded.
    TrailingBytes {
        /// Unconsumed byte count.
        extra: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "truncated input: needed {needed} bytes, have {have}")
            }
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            WireError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            WireError::OversizedLength { claimed, max } => {
                write!(f, "length prefix {claimed} exceeds bound {max}")
            }
            WireError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::BadValue { what } => write!(f, "invalid value for {what}"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after value")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only encoder: explicit little-endian, no padding.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends an f64 as its IEEE-754 bit pattern, little-endian.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends raw bytes with **no** length prefix (frame bodies whose
    /// length travels in the header).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a u32-length-prefixed byte sequence.
    pub fn bytes(&mut self, bytes: &[u8]) {
        debug_assert!(bytes.len() <= u32::MAX as usize);
        self.u32(bytes.len() as u32);
        self.raw(bytes);
    }
}

/// Bounds-checked decoder over a byte slice. Every accessor either
/// returns the value or a typed [`WireError`]; nothing reads past the
/// slice.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a bool byte, rejecting anything but 0 and 1.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadValue { what: "bool" }),
        }
    }

    /// Reads an f64 from its little-endian bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads exactly `n` raw bytes (no length prefix).
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Reads a u32-length-prefixed byte sequence, validating the prefix
    /// against the bytes actually remaining before touching them.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(WireError::OversizedLength {
                claimed: len as u64,
                max: self.remaining() as u64,
            });
        }
        self.take(len)
    }

    /// A u32 sequence-length prefix for `len`-element decoding:
    /// validated against the remaining byte count so an adversarial
    /// prefix cannot force a huge allocation (every element is at least
    /// one byte).
    pub fn seq_len(&mut self) -> Result<usize, WireError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(WireError::OversizedLength {
                claimed: len as u64,
                max: self.remaining() as u64,
            });
        }
        Ok(len)
    }

    /// Asserts the input is fully consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                extra: self.remaining(),
            })
        }
    }
}

/// A value with a byte encoding on the wire.
///
/// Implementations must be total on encode and **never panic on
/// decode** — corrupt input comes back as [`WireError`].
pub trait WireCodec: Sized {
    /// Appends this value's encoding to `w`.
    fn encode(&self, w: &mut WireWriter);

    /// Decodes one value from the reader's current position.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] the input forces; implementations must not
    /// read past the slice or allocate proportionally to unvalidated
    /// length prefixes.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// This value's encoding as a standalone byte vector.
    fn to_wire_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Decodes a standalone byte vector, requiring full consumption.
    ///
    /// # Errors
    ///
    /// Any decode error, or [`WireError::TrailingBytes`] when input
    /// remains after the value.
    fn from_wire_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    /// The length of this value's encoding, in bytes.
    fn encoded_len(&self) -> usize {
        self.to_wire_bytes().len()
    }
}

impl WireCodec for () {
    fn encode(&self, _w: &mut WireWriter) {}
    fn decode(_r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
    fn encoded_len(&self) -> usize {
        0
    }
}

impl WireCodec for u8 {
    fn encode(&self, w: &mut WireWriter) {
        w.u8(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.u8()
    }
}

impl WireCodec for u16 {
    fn encode(&self, w: &mut WireWriter) {
        w.u16(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.u16()
    }
}

impl WireCodec for u32 {
    fn encode(&self, w: &mut WireWriter) {
        w.u32(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.u32()
    }
}

impl WireCodec for u64 {
    fn encode(&self, w: &mut WireWriter) {
        w.u64(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.u64()
    }
}

impl WireCodec for bool {
    fn encode(&self, w: &mut WireWriter) {
        w.bool(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.bool()
    }
}

impl WireCodec for f64 {
    fn encode(&self, w: &mut WireWriter) {
        w.f64(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.f64()
    }
}

impl WireCodec for usize {
    fn encode(&self, w: &mut WireWriter) {
        w.u64(*self as u64);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        usize::try_from(r.u64()?).map_err(|_| WireError::BadValue { what: "usize" })
    }
}

impl WireCodec for String {
    fn encode(&self, w: &mut WireWriter) {
        w.bytes(self.as_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let bytes = r.bytes()?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| WireError::BadValue {
                what: "utf-8 string",
            })
    }
}

impl<T: WireCodec> WireCodec for Option<T> {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::UnknownTag {
                what: "Option",
                tag,
            }),
        }
    }
}

impl<T: WireCodec> WireCodec for Vec<T> {
    fn encode(&self, w: &mut WireWriter) {
        debug_assert!(self.len() <= u32::MAX as usize);
        w.u32(self.len() as u32);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.seq_len()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: WireCodec, B: WireCodec> WireCodec for (A, B) {
    fn encode(&self, w: &mut WireWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl WireCodec for ProcessId {
    fn encode(&self, w: &mut WireWriter) {
        w.u64(self.index() as u64);
    }
    /// A `u64` on the wire; an index beyond the id's 32 bits is refused.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        u32::try_from(r.u64()?)
            .map(|index| ProcessId::new(index as usize))
            .map_err(|_| WireError::BadValue { what: "ProcessId" })
    }
}

impl WireCodec for MsgId {
    fn encode(&self, w: &mut WireWriter) {
        self.source().encode(w);
        w.u64(self.seq());
    }
    /// Two `u64`s on the wire; a source or a sequence beyond 32 bits is
    /// refused.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let source = ProcessId::decode(r)?;
        let seq = u32::try_from(r.u64()?).map_err(|_| WireError::BadValue { what: "MsgId" })?;
        Ok(MsgId::new(source, u64::from(seq)))
    }
}

impl WireCodec for VirtualTime {
    fn encode(&self, w: &mut WireWriter) {
        w.u64(self.ticks());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(VirtualTime::from_ticks(r.u64()?))
    }
}

impl WireCodec for SimStats {
    fn encode(&self, w: &mut WireWriter) {
        for v in [
            self.messages_sent,
            self.messages_delivered,
            self.messages_to_crashed,
            self.messages_dropped,
            self.messages_duplicated,
            self.timers_fired,
            self.crashes,
            self.detections,
            self.delivery_batches,
            self.wire_bytes,
        ] {
            w.u64(v);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(SimStats {
            messages_sent: r.u64()?,
            messages_delivered: r.u64()?,
            messages_to_crashed: r.u64()?,
            messages_dropped: r.u64()?,
            messages_duplicated: r.u64()?,
            timers_fired: r.u64()?,
            crashes: r.u64()?,
            detections: r.u64()?,
            delivery_batches: r.u64()?,
            wire_bytes: r.u64()?,
        })
    }
}

const EV_SEND: u8 = 0;
const EV_RECV: u8 = 1;
const EV_CRASH: u8 = 2;
const EV_FAILED: u8 = 3;
const EV_TIMER: u8 = 4;
const EV_EXTERNAL: u8 = 5;
const EV_NOTE: u8 = 6;

/// A recorded event as a node dumps it: its process, then every other
/// field but the rendered payloads, which a node never records — they
/// decode as `None`. Process ids and message ids keep their fail-closed
/// decoders: a pid or a sequence beyond 32 bits is a
/// [`WireError::BadValue`].
impl WireCodec for TraceEventKind {
    fn encode(&self, w: &mut WireWriter) {
        let tag = match self {
            TraceEventKind::Send { .. } => EV_SEND,
            TraceEventKind::Recv { .. } => EV_RECV,
            TraceEventKind::Crash { .. } => EV_CRASH,
            TraceEventKind::Failed { .. } => EV_FAILED,
            TraceEventKind::TimerFired { .. } => EV_TIMER,
            TraceEventKind::External { .. } => EV_EXTERNAL,
            TraceEventKind::Note { .. } => EV_NOTE,
        };
        w.u8(tag);
        self.process().encode(w);
        match self {
            TraceEventKind::Send {
                to: peer,
                msg,
                infra,
                ..
            }
            | TraceEventKind::Recv {
                from: peer,
                msg,
                infra,
                ..
            } => {
                peer.encode(w);
                msg.encode(w);
                w.bool(*infra);
            }
            TraceEventKind::Failed { of, .. } => of.encode(w),
            TraceEventKind::TimerFired { timer, .. } => w.u64(timer.raw()),
            TraceEventKind::Note { note, .. } => note.encode(w),
            TraceEventKind::Crash { .. } | TraceEventKind::External { .. } => {}
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let tag = r.u8()?;
        let pid = ProcessId::decode(r)?;
        Ok(match tag {
            EV_SEND => TraceEventKind::Send {
                from: pid,
                to: ProcessId::decode(r)?,
                msg: MsgId::decode(r)?,
                infra: r.bool()?,
                payload: None,
            },
            EV_RECV => TraceEventKind::Recv {
                by: pid,
                from: ProcessId::decode(r)?,
                msg: MsgId::decode(r)?,
                infra: r.bool()?,
                payload: None,
            },
            EV_CRASH => TraceEventKind::Crash { pid },
            EV_FAILED => TraceEventKind::Failed {
                by: pid,
                of: ProcessId::decode(r)?,
            },
            EV_TIMER => TraceEventKind::TimerFired {
                pid,
                timer: TimerId::new(r.u64()?),
            },
            EV_EXTERNAL => TraceEventKind::External { pid, payload: None },
            EV_NOTE => TraceEventKind::Note {
                pid,
                note: Note::decode(r)?,
            },
            tag => {
                return Err(WireError::UnknownTag {
                    what: "TraceEventKind",
                    tag,
                })
            }
        })
    }
}

const NOTE_KV: u8 = 0;
const NOTE_SET: u8 = 1;

impl WireCodec for Note {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Note::KeyVal { key, val } => {
                w.u8(NOTE_KV);
                w.bytes(key.as_bytes());
                w.bytes(val.as_bytes());
            }
            Note::ProcessSet { key, about, set } => {
                w.u8(NOTE_SET);
                w.bytes(key.as_bytes());
                about.encode(w);
                set.encode(w);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let text = |r: &mut WireReader<'_>| String::decode(r).map(Text::from);
        match r.u8()? {
            NOTE_KV => Ok(Note::KeyVal {
                key: text(r)?,
                val: text(r)?,
            }),
            NOTE_SET => Ok(Note::ProcessSet {
                key: text(r)?,
                about: Option::decode(r)?,
                set: Box::new(Vec::decode(r)?),
            }),
            tag => Err(WireError::UnknownTag { what: "Note", tag }),
        }
    }
}

// Tags of the `TransportMsg` wire encoding; a frozen part of the wire
// format (bump `frame::VERSION` to change them).
const TAG_DATA: u8 = 0;
const TAG_ACK: u8 = 1;
const TAG_PING: u8 = 2;
const TAG_CTL: u8 = 3;

impl<M: WireCodec> WireCodec for TransportMsg<M> {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            TransportMsg::Data {
                seq,
                logical,
                payload,
            } => {
                w.u8(TAG_DATA);
                w.u64(*seq);
                w.u64(*logical);
                payload.encode(w);
            }
            TransportMsg::Ack { upto } => {
                w.u8(TAG_ACK);
                w.u64(*upto);
            }
            TransportMsg::Ping => w.u8(TAG_PING),
            TransportMsg::Ctl(m) => {
                w.u8(TAG_CTL);
                m.encode(w);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            TAG_DATA => Ok(TransportMsg::Data {
                seq: r.u64()?,
                logical: r.u64()?,
                payload: M::decode(r)?,
            }),
            TAG_ACK => Ok(TransportMsg::Ack { upto: r.u64()? }),
            TAG_PING => Ok(TransportMsg::Ping),
            TAG_CTL => Ok(TransportMsg::Ctl(M::decode(r)?)),
            tag => Err(WireError::UnknownTag {
                what: "TransportMsg",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = WireWriter::new();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.bool(true);
        w.f64(0.25);
        w.bytes(b"abc");
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert!(r.bool().unwrap());
        assert_eq!(r.f64().unwrap(), 0.25);
        assert_eq!(r.bytes().unwrap(), b"abc");
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let mut r = WireReader::new(&[1, 2]);
        assert_eq!(
            r.u64().unwrap_err(),
            WireError::Truncated { needed: 8, have: 2 }
        );
        // The failed read consumed nothing.
        assert_eq!(r.u16().unwrap(), 0x0201);
    }

    #[test]
    fn oversized_length_prefix_never_allocates_or_reads() {
        // Claims 4 GiB of payload; only 2 bytes present.
        let mut bytes = (u32::MAX).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[1, 2]);
        let mut r = WireReader::new(&bytes);
        assert_eq!(
            r.bytes().unwrap_err(),
            WireError::OversizedLength {
                claimed: u32::MAX as u64,
                max: 2,
            }
        );
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            Vec::<u64>::decode(&mut r).unwrap_err(),
            WireError::OversizedLength { .. }
        ));
    }

    #[test]
    fn transport_msg_round_trips_every_variant() {
        let msgs: Vec<TransportMsg<u32>> = vec![
            TransportMsg::Data {
                seq: 9,
                logical: 4,
                payload: 0xC0FFEE,
            },
            TransportMsg::Ack { upto: u64::MAX },
            TransportMsg::Ping,
            TransportMsg::Ctl(17),
        ];
        for m in &msgs {
            let bytes = m.to_wire_bytes();
            assert_eq!(bytes.len(), m.encoded_len());
            let back = TransportMsg::<u32>::from_wire_bytes(&bytes).unwrap();
            assert_eq!(&back, m);
        }
    }

    #[test]
    fn ids_beyond_32_bits_are_bad_values() {
        let frame = |words: &[u64]| {
            let mut w = WireWriter::new();
            words.iter().for_each(|&v| w.u64(v));
            w.into_bytes()
        };
        let top = u64::from(u32::MAX);
        assert_eq!(
            ProcessId::from_wire_bytes(&frame(&[top])).unwrap(),
            ProcessId::new(u32::MAX as usize)
        );
        assert_eq!(
            ProcessId::from_wire_bytes(&frame(&[top + 1])).unwrap_err(),
            WireError::BadValue { what: "ProcessId" }
        );
        assert_eq!(
            MsgId::from_wire_bytes(&frame(&[3, top])).unwrap(),
            MsgId::new(ProcessId::new(3), top)
        );
        assert_eq!(
            MsgId::from_wire_bytes(&frame(&[3, top + 1])).unwrap_err(),
            WireError::BadValue { what: "MsgId" }
        );
        assert_eq!(
            MsgId::from_wire_bytes(&frame(&[top + 1, 0])).unwrap_err(),
            WireError::BadValue { what: "ProcessId" }
        );
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_rejected() {
        assert_eq!(
            TransportMsg::<u32>::from_wire_bytes(&[9]).unwrap_err(),
            WireError::UnknownTag {
                what: "TransportMsg",
                tag: 9,
            }
        );
        let mut bytes = TransportMsg::<u32>::Ping.to_wire_bytes();
        bytes.push(0);
        assert_eq!(
            TransportMsg::<u32>::from_wire_bytes(&bytes).unwrap_err(),
            WireError::TrailingBytes { extra: 1 }
        );
    }
}
