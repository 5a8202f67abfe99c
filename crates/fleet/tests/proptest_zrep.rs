//! Property-based tests on the `ZREP` replication protocol: encode→
//! frame→decode round-trips over arbitrary messages and session
//! records, exhaustive-by-sampling single-bit corruption detection,
//! truncation rejection, and exact-consume (no message decodes with
//! trailing bytes). The replication link carries snapshot state between
//! machines, so its transport guarantees must be at least as strong as
//! `ZFLT`'s.
#![cfg(feature = "proptest-tests")]

use zarf_fleet::repl::{ReplMsg, ZREP};
use zarf_store::{ChunkId, SessionRecord};
use zarf_testkit::prelude::*;

fn arb_chunk_id() -> impl Strategy<Value = ChunkId> {
    (any::<u64>(), any::<u64>()).prop_map(|(a, b)| {
        let mut id = [0u8; 16];
        id[..8].copy_from_slice(&a.to_le_bytes());
        id[8..].copy_from_slice(&b.to_le_bytes());
        ChunkId(id)
    })
}

fn arb_record() -> impl Strategy<Value = SessionRecord> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<bool>(), any::<u64>()),
        arb_chunk_id(),
        prop::collection::vec(arb_chunk_id(), 0..8),
    )
        .prop_map(
            |(
                (id, commit_seq, ops_done, heap_words),
                (op_budget, fuel_slice, verified, snap_len),
                snap_hash,
                chunks,
            )| SessionRecord {
                id,
                commit_seq,
                ops_done,
                heap_words,
                op_budget,
                fuel_slice,
                verified,
                snap_len,
                snap_hash,
                chunks,
            },
        )
}

fn arb_msg() -> BoxedStrategy<ReplMsg> {
    BoxedStrategy::new(prop_oneof![
        (0u8..1).prop_map(|_| ReplMsg::Hello),
        prop::collection::vec((any::<u64>(), any::<u64>()), 0..6)
            .prop_map(|acked| ReplMsg::HelloAck { acked }),
        arb_record().prop_map(|rec| ReplMsg::Offer { rec }),
        (any::<bool>(), prop::collection::vec(arb_chunk_id(), 0..6))
            .prop_map(|(already, chunks)| ReplMsg::Need { already, chunks }),
        (arb_chunk_id(), prop::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(id, bytes)| ReplMsg::Chunk { id, bytes }),
        (any::<u64>(), any::<u64>()).prop_map(|(session, commit_seq)| ReplMsg::Commit {
            session,
            commit_seq
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(session, commit_seq)| ReplMsg::CommitAck {
            session,
            commit_seq
        }),
        any::<u64>().prop_map(|session| ReplMsg::Close { session }),
        any::<u64>().prop_map(|session| ReplMsg::CloseAck { session }),
        (any::<u32>(), "\\PC*").prop_map(|(code, message)| ReplMsg::Err { code, message }),
    ])
}

proptest! {
    /// encode → frame → unframe → decode is the identity on messages.
    #[test]
    fn messages_round_trip_through_frames(msg in arb_msg()) {
        let payload = msg.encode();
        let frame = ZREP.encode(&payload);
        let back = ZREP.decode(&frame).unwrap();
        prop_assert_eq!(back, &payload[..]);
        prop_assert_eq!(ReplMsg::decode(back).unwrap(), msg);
    }

    /// The record codec is the identity on arbitrary session records —
    /// what the destination adopts is exactly what the source committed.
    #[test]
    fn records_round_trip(rec in arb_record()) {
        let mut bytes = Vec::new();
        rec.encode_into(&mut bytes);
        prop_assert_eq!(SessionRecord::decode(&bytes).unwrap(), rec);
    }

    /// A record never decodes with trailing bytes (exact consume), and
    /// never from a strict prefix.
    #[test]
    fn records_demand_exact_length(rec in arb_record(), junk in 1usize..8, cut in any::<u64>()) {
        let mut bytes = Vec::new();
        rec.encode_into(&mut bytes);
        let mut padded = bytes.clone();
        padded.extend(std::iter::repeat_n(0, junk));
        prop_assert!(SessionRecord::decode(&padded).is_err());
        let keep = (cut as usize) % bytes.len();
        prop_assert!(SessionRecord::decode(&bytes[..keep]).is_err());
    }

    /// Flipping any single bit anywhere in a framed message — header,
    /// payload, or CRC — is rejected by the frame decoder + message
    /// decoder pair. Every byte of each generated frame is covered
    /// (the byte index wraps modulo the frame length).
    #[test]
    fn any_single_bit_flip_is_rejected(
        msg in arb_msg(),
        byte in any::<u64>(),
        bit in 0u8..8,
    ) {
        let frame = ZREP.encode(&msg.encode());
        let idx = (byte as usize) % frame.len();
        let mut dam = frame;
        dam[idx] ^= 1 << bit;
        let verdict = ZREP.decode(&dam).and_then(|p| ReplMsg::decode(p).map(|_| ()));
        prop_assert!(
            verdict.is_err(),
            "flip at byte {} bit {} went undetected",
            idx,
            bit
        );
    }

    /// Truncating a frame at any interior point is rejected.
    #[test]
    fn truncated_frames_are_rejected(msg in arb_msg(), cut in any::<u64>()) {
        let frame = ZREP.encode(&msg.encode());
        let keep = (cut as usize) % frame.len();
        prop_assert!(ZREP.decode(&frame[..keep]).is_err());
    }

    /// A message payload never decodes with trailing bytes appended —
    /// the codec demands exact consumption, so a frame-length lie that
    /// survived the CRC (impossible short of a collision) still fails.
    #[test]
    fn messages_demand_exact_consume(msg in arb_msg(), junk in 1usize..8) {
        let mut payload = msg.encode();
        payload.extend(std::iter::repeat_n(0xA5, junk));
        prop_assert!(ReplMsg::decode(&payload).is_err());
    }
}
