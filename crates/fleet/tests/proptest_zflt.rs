//! Property-based tests on the `ZFLT` wire protocol: encode→frame→
//! decode round-trips over arbitrary requests and responses,
//! exhaustive-by-sampling single-bit corruption detection on the frames,
//! and split-invariance of the incremental decoder the nonblocking
//! frontier uses ([`FrameBuffer`] must agree with the one-shot path at
//! every possible read boundary).
#![cfg(feature = "proptest-tests")]

use zarf_fleet::wire::{FrameBuffer, ZFLT};
use zarf_fleet::{Op, PortFeed, Request, Response, SessionConfig};
use zarf_testkit::prelude::*;

fn arb_ints(max_len: usize) -> impl Strategy<Value = Vec<i32>> {
    prop::collection::vec(any::<i32>(), 0..max_len)
}

fn arb_op() -> impl Strategy<Value = Op> {
    (
        any::<bool>(),
        any::<u32>(),
        arb_ints(5),
        prop::collection::vec((any::<i32>(), arb_ints(4)), 0..3),
    )
        .prop_map(|(is_step, item, args, feeds)| {
            let inputs = feeds
                .into_iter()
                .map(|(port, words)| PortFeed { port, words })
                .collect();
            if is_step {
                Op::Step { item, args, inputs }
            } else {
                Op::Eval { item, args, inputs }
            }
        })
}

fn arb_config() -> impl Strategy<Value = SessionConfig> {
    (0u64..1 << 32, any::<u64>(), any::<u64>(), any::<bool>()).prop_map(
        |(heap, op_budget, fuel_slice, verified)| SessionConfig {
            heap_words: heap as usize,
            op_budget,
            fuel_slice,
            verified,
        },
    )
}

fn arb_request() -> BoxedStrategy<Request> {
    BoxedStrategy::new(prop_oneof![
        (arb_config(), prop::collection::vec(any::<u32>(), 0..24))
            .prop_map(|(config, program)| Request::LoadProgram { config, program }),
        (arb_config(), prop::collection::vec(any::<u8>(), 0..48))
            .prop_map(|(config, snapshot)| Request::Restore { config, snapshot }),
        (any::<u64>(), arb_op()).prop_map(|(session, op)| Request::Inject { session, op }),
        (any::<u64>(), prop::collection::vec(arb_op(), 0..4))
            .prop_map(|(session, ops)| Request::InjectBatch { session, ops }),
        any::<u64>().prop_map(|session| Request::Poll { session }),
        any::<u64>().prop_map(|session| Request::Snapshot { session }),
        any::<u64>().prop_map(|session| Request::Stats { session }),
        any::<u64>().prop_map(|session| Request::Close { session }),
        (0u8..1).prop_map(|_| Request::Shutdown),
    ])
}

fn arb_response() -> BoxedStrategy<Response> {
    BoxedStrategy::new(prop_oneof![
        any::<u64>().prop_map(|session| Response::Opened { session }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(session, pending)| Response::Accepted { session, pending }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(session, accepted, pending)| {
            Response::AcceptedBatch {
                session,
                accepted,
                pending,
            }
        }),
        ((any::<u64>(), any::<u64>(), any::<u64>()), arb_ints(16)).prop_map(
            |((session, ops_done, pending), words)| Response::Output {
                session,
                ops_done,
                pending,
                words,
            }
        ),
        (any::<u64>(), prop::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(session, bytes)| Response::SnapshotData { session, bytes }),
        prop::collection::vec(("[a-z_]*", any::<u64>()), 0..6)
            .prop_map(|pairs| Response::StatsData { pairs }),
        any::<u64>().prop_map(|session| Response::Closed { session }),
        (0u8..1).prop_map(|_| Response::Bye),
        (any::<u32>(), "\\PC*").prop_map(|(code, message)| Response::Error { code, message }),
    ])
}

proptest! {
    /// encode → frame → unframe → decode is the identity on requests.
    #[test]
    fn requests_round_trip_through_frames(req in arb_request()) {
        let payload = req.encode();
        let frame = ZFLT.encode(&payload);
        let back = ZFLT.decode(&frame).unwrap();
        prop_assert_eq!(back, &payload[..]);
        prop_assert_eq!(Request::decode(back).unwrap(), req);
    }

    /// encode → frame → unframe → decode is the identity on responses.
    #[test]
    fn responses_round_trip_through_frames(resp in arb_response()) {
        let payload = resp.encode();
        let frame = ZFLT.encode(&payload);
        let back = ZFLT.decode(&frame).unwrap();
        prop_assert_eq!(Response::decode(back).unwrap(), resp);
    }

    /// Flipping any single bit anywhere in a framed request — header,
    /// payload, or CRC — is rejected by the frame decoder + message
    /// decoder pair. Every byte of each generated frame is covered
    /// (the byte index wraps modulo the frame length).
    #[test]
    fn any_single_bit_flip_on_a_request_frame_is_rejected(
        req in arb_request(),
        byte in any::<u64>(),
        bit in 0u8..8,
    ) {
        let frame = ZFLT.encode(&req.encode());
        let idx = (byte as usize) % frame.len();
        let mut dam = frame;
        dam[idx] ^= 1 << bit;
        let verdict = ZFLT.decode(&dam).and_then(|p| Request::decode(p).map(|_| ()));
        prop_assert!(
            verdict.is_err(),
            "flip at byte {} bit {} went undetected",
            idx,
            bit
        );
    }

    /// Same guarantee for response frames.
    #[test]
    fn any_single_bit_flip_on_a_response_frame_is_rejected(
        resp in arb_response(),
        byte in any::<u64>(),
        bit in 0u8..8,
    ) {
        let frame = ZFLT.encode(&resp.encode());
        let idx = (byte as usize) % frame.len();
        let mut dam = frame;
        dam[idx] ^= 1 << bit;
        let verdict = ZFLT.decode(&dam).and_then(|p| Response::decode(p).map(|_| ()));
        prop_assert!(
            verdict.is_err(),
            "flip at byte {} bit {} went undetected",
            idx,
            bit
        );
    }

    /// Truncating a frame at any interior point is rejected.
    #[test]
    fn truncated_frames_are_rejected(req in arb_request(), cut in any::<u64>()) {
        let frame = ZFLT.encode(&req.encode());
        let keep = (cut as usize) % frame.len();
        prop_assert!(ZFLT.decode(&frame[..keep]).is_err());
    }

    /// The incremental decoder yields the same payload sequence as the
    /// one-shot path no matter where read boundaries fall: the frame
    /// stream is fed in arbitrary-size chunks (including chunks that
    /// split headers, payloads, and CRCs, and chunks that coalesce
    /// several frames) and must reproduce exactly the one-shot decodes.
    #[test]
    fn incremental_decode_is_split_invariant(
        reqs in prop::collection::vec(arb_request(), 1..5),
        cuts in prop::collection::vec(1usize..64, 0..32),
    ) {
        let frames: Vec<Vec<u8>> = reqs.iter().map(|r| ZFLT.encode(&r.encode())).collect();
        let expect: Vec<Vec<u8>> = frames
            .iter()
            .map(|f| ZFLT.decode(f).unwrap().to_vec())
            .collect();
        let stream: Vec<u8> = frames.concat();
        let mut fb = FrameBuffer::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        let mut pos = 0;
        let mut cuts = cuts.into_iter();
        while pos < stream.len() {
            // Once the cut list runs out, the rest arrives as one
            // coalesced read.
            let n = cuts.next().unwrap_or(usize::MAX).min(stream.len() - pos);
            fb.extend_from_slice(&stream[pos..pos + n]);
            pos += n;
            while let Some(payload) = fb.next_frame().unwrap() {
                got.push(payload.to_vec());
            }
        }
        prop_assert_eq!(got, expect);
        prop_assert!(fb.is_empty(), "decoder retained bytes after a complete stream");
    }

    /// A single coalesced read holding many whole frames drains them all.
    #[test]
    fn coalesced_multi_frame_reads_drain_fully(
        reqs in prop::collection::vec(arb_request(), 1..6),
    ) {
        let frames: Vec<Vec<u8>> = reqs.iter().map(|r| ZFLT.encode(&r.encode())).collect();
        let mut fb = FrameBuffer::new();
        fb.extend_from_slice(&frames.concat());
        for (i, frame) in frames.iter().enumerate() {
            let payload = fb.next_frame().unwrap();
            prop_assert_eq!(payload, Some(ZFLT.decode(frame).unwrap()), "frame {}", i);
        }
        prop_assert!(matches!(fb.next_frame(), Ok(None)));
        prop_assert!(fb.is_empty());
    }

    /// Any strict prefix of a valid frame is *incomplete* to the
    /// incremental decoder — never an error, never a payload — while the
    /// one-shot decoder (which demands exactly one whole frame) rejects
    /// it. Both agree no message is delivered.
    #[test]
    fn truncated_prefixes_are_incomplete_never_frames(
        req in arb_request(),
        cut in any::<u64>(),
    ) {
        let frame = ZFLT.encode(&req.encode());
        let keep = (cut as usize) % frame.len();
        let mut fb = FrameBuffer::new();
        fb.extend_from_slice(&frame[..keep]);
        prop_assert!(matches!(fb.next_frame(), Ok(None)));
        prop_assert!(ZFLT.decode(&frame[..keep]).is_err());
    }

    /// A single bit flip anywhere in a frame never produces a payload
    /// from the incremental decoder, at any read chunking: it either
    /// reports damage or keeps waiting for bytes that will fail the CRC
    /// when they arrive — matching the one-shot decoder's rejection.
    #[test]
    fn bit_flipped_frames_never_yield_incremental_payloads(
        req in arb_request(),
        byte in any::<u64>(),
        bit in 0u8..8,
        cuts in prop::collection::vec(1usize..32, 0..16),
    ) {
        let mut frame = ZFLT.encode(&req.encode());
        let idx = (byte as usize) % frame.len();
        frame[idx] ^= 1 << bit;
        prop_assert!(ZFLT.decode(&frame).is_err());
        let mut fb = FrameBuffer::new();
        let mut pos = 0;
        let mut cuts = cuts.into_iter();
        let mut rejected = false;
        while pos < frame.len() {
            let n = cuts.next().unwrap_or(usize::MAX).min(frame.len() - pos);
            fb.extend_from_slice(&frame[pos..pos + n]);
            pos += n;
            match fb.next_frame() {
                Ok(None) => {}
                Err(_) => {
                    rejected = true;
                    break;
                }
                Ok(Some(payload)) => {
                    // Reachable only by a 2^-32 CRC collision on a
                    // damaged length field; treat as a real failure.
                    prop_assert!(
                        false,
                        "damaged frame yielded a {}-byte payload",
                        payload.len()
                    );
                }
            }
        }
        // Flips that enlarge the length field leave the decoder waiting
        // (incomplete) rather than erroring; both count as "no message".
        prop_assert!(rejected || matches!(fb.next_frame(), Ok(None) | Err(_)));
    }
}
