//! Property tests for the wire codec: round-trip fidelity for every
//! frame the backend can legally emit, and panic-freedom under
//! adversarial bytes — truncations, oversized length claims, wrong
//! versions, bit flips, and pure noise. A real socket hands the decoder
//! arbitrary datagrams; the decoder's contract is typed errors, never a
//! panic, never a read past the buffer.

use proptest::prelude::*;
use sfs_asys::{MsgId, Note, ProcessId, TimerId, TraceEventKind};
use sfs_transport::TransportMsg;
use sfs_wire::{decode_frame, encode_frame, FrameHeader, WireCodec, WireError, MAGIC, VERSION};

fn arb_msg() -> impl Strategy<Value = TransportMsg<u64>> {
    prop_oneof![
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(seq, logical, payload)| {
            TransportMsg::Data {
                seq,
                logical,
                payload,
            }
        }),
        any::<u64>().prop_map(|upto| TransportMsg::Ack { upto }),
        Just(TransportMsg::Ping),
        any::<u64>().prop_map(TransportMsg::Ctl),
    ]
}

fn arb_header() -> impl Strategy<Value = FrameHeader> {
    (any::<u16>(), any::<u16>(), any::<u64>(), any::<u64>()).prop_map(|(src, dst, seq, lamport)| {
        FrameHeader {
            src,
            dst,
            seq,
            lamport,
        }
    })
}

/// Every event a node can dump, payloads unrendered as a node records
/// them.
fn arb_event() -> impl Strategy<Value = TraceEventKind> {
    let pid = || any::<u32>().prop_map(|i| ProcessId::new(i as usize));
    let msg = (pid(), any::<u32>()).prop_map(|(src, seq)| MsgId::new(src, u64::from(seq)));
    let set = prop::collection::vec(pid(), 0..8);
    let note = prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(k, v)| Note::key_val(k.to_string(), v)),
        (
            any::<u64>(),
            prop_oneof![Just(None), pid().prop_map(Some)],
            set
        )
            .prop_map(|(k, about, set)| Note::process_set(k.to_string(), about, set)),
    ];
    prop_oneof![
        (pid(), pid(), msg.clone(), any::<bool>()).prop_map(|(from, to, msg, infra)| {
            TraceEventKind::Send {
                from,
                to,
                msg,
                infra,
                payload: None,
            }
        }),
        (pid(), pid(), msg, any::<bool>()).prop_map(|(by, from, msg, infra)| {
            TraceEventKind::Recv {
                by,
                from,
                msg,
                infra,
                payload: None,
            }
        }),
        pid().prop_map(|pid| TraceEventKind::Crash { pid }),
        (pid(), pid()).prop_map(|(by, of)| TraceEventKind::Failed { by, of }),
        (pid(), any::<u64>()).prop_map(|(pid, raw)| TraceEventKind::TimerFired {
            pid,
            timer: TimerId::new(raw),
        }),
        pid().prop_map(|pid| TraceEventKind::External { pid, payload: None }),
        (pid(), note).prop_map(|(pid, note)| TraceEventKind::Note { pid, note }),
    ]
}

proptest! {
    /// A node's dump carries its events exactly: every kind, every
    /// 32-bit id, every note round-trips under its Lamport stamp.
    #[test]
    fn dumped_events_round_trip(events in prop::collection::vec((any::<u64>(), arb_event()), 0..16)) {
        let back = Vec::<(u64, TraceEventKind)>::from_wire_bytes(&events.to_wire_bytes());
        prop_assert_eq!(back.unwrap(), events);
    }

    /// Frames round-trip exactly: header and message survive
    /// encode/decode for every variant and every header value.
    #[test]
    fn frames_round_trip(header in arb_header(), msg in arb_msg()) {
        let frame = encode_frame(header, &msg);
        let (h, m) = decode_frame::<TransportMsg<u64>>(&frame)
            .expect("a freshly encoded frame must decode");
        prop_assert_eq!(h, header);
        prop_assert_eq!(m, msg);
        // The E12 byte counter agrees with the bytes actually produced.
        prop_assert_eq!(sfs_wire::wire_cost(&msg), frame.len() as u64);
    }

    /// Every proper prefix of a valid frame decodes to a typed error —
    /// never a panic, never an `Ok`.
    #[test]
    fn every_truncation_errors(header in arb_header(), msg in arb_msg(), cut in any::<u64>()) {
        let frame = encode_frame(header, &msg);
        let cut = (cut as usize) % frame.len();
        prop_assert!(decode_frame::<TransportMsg<u64>>(&frame[..cut]).is_err());
    }

    /// A single flipped byte never panics the decoder; flips inside the
    /// magic or version fields are always detected.
    #[test]
    fn bit_flips_never_panic(
        header in arb_header(),
        msg in arb_msg(),
        pos in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let mut frame = encode_frame(header, &msg);
        let pos = (pos as usize) % frame.len();
        frame[pos] ^= flip;
        // Decoding may legitimately succeed (a flip inside, say, the
        // lamport field yields a different valid frame) — the contract
        // under fire is "no panic, no over-read, typed error otherwise".
        let result = decode_frame::<TransportMsg<u64>>(&frame);
        if pos < 3 {
            // Magic (2 bytes) and version (1 byte) changes are always
            // caught, whatever the rest of the frame says.
            prop_assert!(matches!(
                result,
                Err(WireError::BadMagic(_)) | Err(WireError::BadVersion(_))
            ));
        }
    }

    /// Pure noise never panics; whenever it decodes, the bytes must be
    /// indistinguishable from a real frame (re-encoding reproduces them).
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        if let Ok((h, m)) = decode_frame::<TransportMsg<u64>>(&bytes) {
            prop_assert_eq!(encode_frame(h, &m), bytes);
        }
    }

    /// An adversarial length field (up to `u32::MAX`) is rejected before
    /// any allocation or read of the claimed body.
    #[test]
    fn oversized_length_claims_are_rejected(
        header in arb_header(),
        msg in arb_msg(),
        claimed in 60_001u32..=u32::MAX,
    ) {
        let mut frame = encode_frame(header, &msg);
        frame[23..27].copy_from_slice(&claimed.to_le_bytes());
        let oversized = matches!(
            decode_frame::<TransportMsg<u64>>(&frame),
            Err(WireError::OversizedLength { .. })
        );
        prop_assert!(oversized);
    }

    /// The primitive layer itself round-trips: the codec behind every
    /// message body is stable for arbitrary composite values.
    #[test]
    fn primitive_composites_round_trip(
        v in prop::collection::vec((any::<u64>(), any::<bool>()), 0..32),
        s in prop::collection::vec(any::<u8>(), 0..64),
        opt in prop_oneof![Just(None), any::<u32>().prop_map(Some)],
    ) {
        prop_assert_eq!(
            Vec::<(u64, bool)>::from_wire_bytes(&v.to_wire_bytes()).unwrap(),
            v
        );
        prop_assert_eq!(Vec::<u8>::from_wire_bytes(&s.to_wire_bytes()).unwrap(), s);
        prop_assert_eq!(
            Option::<u32>::from_wire_bytes(&opt.to_wire_bytes()).unwrap(),
            opt
        );
    }
}

/// Exhaustive (non-property) sweep: wrong version bytes 0 and 2..=255
/// are all rejected with the version error, proving the version gate
/// runs before anything else touches the payload.
#[test]
fn all_foreign_versions_are_rejected() {
    let frame = encode_frame(
        FrameHeader {
            src: 0,
            dst: 1,
            seq: 0,
            lamport: 0,
        },
        &TransportMsg::<u64>::Ping,
    );
    for v in (0..=255u8).filter(|&v| v != VERSION) {
        let mut bad = frame.clone();
        bad[2] = v;
        assert_eq!(
            decode_frame::<TransportMsg<u64>>(&bad).unwrap_err(),
            WireError::BadVersion(v)
        );
    }
    // And the magic constant is what the format doc says it is.
    assert_eq!(u16::from_le_bytes([frame[0], frame[1]]), MAGIC);
}
