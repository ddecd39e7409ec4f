//! Property tests for the wire codec over every protocol message type:
//! encode → decode is the identity, the measured frame length is what the
//! accounting charges, corrupted frames (truncated at every byte boundary,
//! over the payload cap, carrying trailing garbage, or with an unknown enum
//! tag) are rejected with an error, and every byte of a frame flipped three
//! ways or stamped with `u32::MAX` decodes or is rejected — never a panic.

use dkc_core::bfs::{BfsMessage, LeaderKey};
use dkc_core::densest::AggMessage;
use dkc_core::pipelined::PipelinedMessage;
use dkc_core::tree_elim::ActiveMsg;
use dkc_distsim::message::{MessageSize, QuantizedValue};
use dkc_distsim::wire::{
    decode_frame, encode_frame, frame_bits, payload_len, WireCodec, FRAME_HEADER_BYTES,
    WIRE_SLACK_BITS,
};
use dkc_graph::NodeId;
use proptest::prelude::*;
use serde::ser::Serialize;
use std::fmt::Debug;
use std::panic::catch_unwind;

const MAX_PAYLOAD: usize = 1 << 20;

/// Exercises the full contract for one message value.
fn check_codec<M>(msg: &M)
where
    M: Serialize + WireCodec + MessageSize + PartialEq + Debug,
{
    let frame = encode_frame(msg);
    assert_eq!(frame.len(), FRAME_HEADER_BYTES + payload_len(msg));

    // Round trip is the identity.
    let back: M = decode_frame(&frame, MAX_PAYLOAD).expect("well-formed frame must decode");
    assert_eq!(&back, msg);

    // The measured wire size never exceeds the MessageSize estimate plus the
    // fixed framing slack — the (debug-asserted) accounting invariant.
    let measured = frame_bits(payload_len(msg));
    assert!(
        measured <= msg.size_bits().next_multiple_of(8) + WIRE_SLACK_BITS,
        "estimate undercount: measured {measured} bits vs estimate {}",
        msg.size_bits()
    );

    // Truncation at EVERY byte boundary is an error, not a panic.
    for cut in 0..frame.len() {
        assert!(
            decode_frame::<M>(&frame[..cut], MAX_PAYLOAD).is_err(),
            "truncation to {cut} bytes must be rejected"
        );
    }

    // A frame whose payload exceeds the receiver's cap is rejected.
    let cap = payload_len(msg).saturating_sub(1);
    if payload_len(msg) > 0 {
        assert!(decode_frame::<M>(&frame, cap).is_err());
    }

    // Trailing garbage past the declared length is rejected.
    let mut noisy = frame.clone();
    noisy.extend_from_slice(&[0xAA, 0x55]);
    assert!(decode_frame::<M>(&noisy, MAX_PAYLOAD).is_err());

    check_mutations::<M>(&frame);
}

/// Every byte of `frame` xor 0xFF, 0x01 and 0x80, and a `u32::MAX` stamp at
/// every offset (the length header included): each decodes to a value or an
/// error, never a panic.
fn check_mutations<M: WireCodec>(frame: &[u8]) {
    for at in 0..frame.len() {
        let mut variants: Vec<Vec<u8>> = [0xFF, 0x01, 0x80]
            .map(|mask| {
                let mut img = frame.to_vec();
                img[at] ^= mask;
                img
            })
            .to_vec();
        let mut stamped = frame.to_vec();
        let end = (at + 4).min(frame.len());
        stamped[at..end].copy_from_slice(&u32::MAX.to_le_bytes()[..end - at]);
        variants.push(stamped);
        for img in &variants {
            assert!(
                catch_unwind(|| decode_frame::<M>(img, MAX_PAYLOAD)).is_ok(),
                "decoding a mutation at byte {at} panicked: {img:?}"
            );
        }
    }
}

/// Flips the first payload byte (the enum tag) to an invalid value.
fn check_bad_tag<M>(msg: &M)
where
    M: Serialize + WireCodec + MessageSize + PartialEq + Debug,
{
    let mut frame = encode_frame(msg);
    frame[FRAME_HEADER_BYTES] = 0xFF;
    assert!(
        decode_frame::<M>(&frame, MAX_PAYLOAD).is_err(),
        "unknown tag must be rejected"
    );
}

/// Deterministic finite f64 derived from integer entropy (NaN would break
/// the PartialEq round-trip check).
fn finite(x: u64) -> f64 {
    (x as f64) / 7.0 - (x % 13) as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn leader_key_and_bfs_messages_round_trip(
        b_raw in 0u64..1_000_000,
        id in 0u32..1_000_000,
        variant in 0usize..3,
    ) {
        let key = LeaderKey { b: finite(b_raw), id: NodeId(id) };
        check_codec(&key);
        let msg = match variant {
            0 => BfsMessage::Leader(key),
            1 => BfsMessage::Request(key),
            _ => BfsMessage::Ack,
        };
        check_codec(&msg);
        check_bad_tag(&msg);
    }

    /// The compact elimination's, Montresor's and single-threshold's
    /// messages: their frames survive the same mutations.
    #[test]
    fn value_message_mutations_are_rejected_or_decoded(
        raw in 0u64..1_000_000,
        bits in 1usize..65,
    ) {
        check_mutations::<QuantizedValue>(&encode_frame(&QuantizedValue { value: finite(raw), bits }));
        check_mutations::<f64>(&encode_frame(&finite(raw)));
        check_mutations::<()>(&encode_frame(&()));
    }

    #[test]
    fn active_msg_round_trips(leader in 0u32..1_000_000) {
        check_codec(&ActiveMsg { leader: NodeId(leader) });
    }

    #[test]
    fn agg_messages_round_trip(
        len in 0usize..24,
        num_seed in 0u32..1_000_000,
        deg_seed in 0u64..1_000_000,
        down_t in 0u32..10_000,
        down_raw in 0u64..1_000_000,
    ) {
        let num: Vec<u32> = (0..len).map(|i| num_seed.wrapping_mul(i as u32 + 1)).collect();
        let deg: Vec<f64> = (0..len).map(|i| finite(deg_seed + i as u64)).collect();
        let up = AggMessage::Up(num, deg);
        check_codec(&up);
        check_bad_tag(&up);
        let down = AggMessage::Down(down_t, finite(down_raw));
        check_codec(&down);
        check_bad_tag(&down);
    }

    #[test]
    fn pipelined_messages_round_trip(
        t in 0u32..10_000,
        num in 0u32..1_000_000,
        raw in 0u64..1_000_000,
        variant in 0usize..2,
    ) {
        let msg = match variant {
            0 => PipelinedMessage::UpEntry(t, num, finite(raw)),
            _ => PipelinedMessage::Down(t, finite(raw)),
        };
        check_codec(&msg);
        check_bad_tag(&msg);
    }
}

/// A corrupted interior length (the `Up` shared array length patched to
/// overrun the payload) is rejected as an error, never an out-of-bounds
/// panic or an over-allocation.
#[test]
fn agg_up_with_hostile_interior_length_is_rejected() {
    let msg = AggMessage::Up(vec![1, 2, 3], vec![1.0, 2.0, 3.0]);
    let mut frame = encode_frame(&msg);
    // Payload layout: tag (1 byte) then the shared u32 length.
    let len_at = FRAME_HEADER_BYTES + 1;
    frame[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(decode_frame::<AggMessage>(&frame, MAX_PAYLOAD).is_err());
}
