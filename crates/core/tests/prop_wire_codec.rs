//! Property tests for the wire codec over every protocol message type:
//! each encodes to the bytes its layout pins (written out field by field
//! here, independently of the encoders), encode → decode is the identity,
//! the measured frame length is what the accounting charges, a tampered
//! copy keeps its message's lengths, a boundary frame's charged length is
//! its encoded length, corrupted frames (truncated at every byte boundary,
//! over the payload cap, carrying trailing garbage, or with an unknown enum
//! tag) are rejected with an error, and every byte of a frame flipped three
//! ways or stamped with `u32::MAX` decodes or is rejected — never a panic,
//! and never an allocation larger than twice the mutated frame (or
//! [`ALLOCATION_FLOOR`] bytes). A counting global allocator measures the
//! largest single allocation the decoding thread makes, as in
//! `crates/distsim/tests/decode_allocation.rs`; only the measuring thread's
//! allocations count, so the test harness's own threads do not disturb the
//! figures.

use dkc_core::bfs::{BfsMessage, LeaderKey};
use dkc_core::checkpoint::RunPreamble;
use dkc_core::densest::AggMessage;
use dkc_core::tree_elim::ActiveMsg;
use dkc_core::ThresholdSet;
use dkc_distsim::message::{MessageSize, QuantizedValue, Tamper};
use dkc_distsim::wire::{
    decode_frame, encode_frame, frame_bits, payload_len, WireCodec, FRAME_HEADER_BYTES,
    WIRE_SLACK_BITS,
};
use dkc_distsim::{BoundaryDelta, BoundaryRecord, CrashModel, FaultPlan, LossModel};
use dkc_graph::NodeId;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;
use std::panic::catch_unwind;

const MAX_PAYLOAD: usize = 1 << 20;

/// The largest allocation any decode may make regardless of its frame's
/// size, so that a tiny frame may still hold a small `Vec`.
const ALLOCATION_FLOOR: usize = 64;

/// The system allocator, recording the largest allocation of a thread that
/// is measuring (see [`largest_allocation`]).
struct PeakAlloc;

thread_local! {
    /// `Some(largest so far)` while this thread measures.
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

// SAFETY: every call goes to the system allocator unchanged; the wrapper
// only records sizes, in a const-initialized thread-local that never
// allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|largest| {
            if let Some(so_far) = largest.get() {
                largest.set(Some(so_far.max(layout.size())));
            }
        });
        // SAFETY: the caller upholds `alloc`'s contract, which is passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Runs `f` and returns its result with the largest single allocation it
/// made.
fn largest_allocation<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|largest| largest.set(Some(0)));
    let out = f();
    let largest = LARGEST.with(|largest| largest.replace(None)).unwrap_or(0);
    (out, largest)
}

/// The little-endian bytes of each value in turn.
macro_rules! le {
    ($($x:expr),* $(,)?) => {{
        let mut out = Vec::<u8>::new();
        $(out.extend_from_slice(&$x.to_le_bytes());)*
        out
    }};
}

/// `value`'s frame is the `u32` length of `payload` followed by `payload`,
/// [`payload_len`] counts exactly those bytes, and the frame decodes back to
/// `value`.
fn check_bytes<M: WireCodec + PartialEq + Debug>(value: &M, payload: &[u8]) {
    let frame = encode_frame(value);
    assert_eq!(&frame[..FRAME_HEADER_BYTES], le!(payload.len() as u32));
    assert_eq!(&frame[FRAME_HEADER_BYTES..], payload, "{value:?}");
    assert_eq!(payload_len(value), payload.len());
    let back: M = decode_frame(&frame, MAX_PAYLOAD).expect("well-formed frame must decode");
    assert_eq!(&back, value);
}

/// Exercises the full contract for one message value, whose payload must be
/// exactly `payload`.
fn check_codec<M>(msg: &M, payload: &[u8])
where
    M: WireCodec + MessageSize + PartialEq + Debug,
{
    check_bytes(msg, payload);
    let frame = encode_frame(msg);

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
/// error, never a panic, and allocates at most twice its bytes (or
/// [`ALLOCATION_FLOOR`]) at once.
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
            let (decoded, largest) =
                largest_allocation(|| catch_unwind(|| decode_frame::<M>(img, MAX_PAYLOAD)));
            assert!(
                decoded.is_ok(),
                "decoding a mutation at byte {at} panicked: {img:?}"
            );
            assert!(
                largest <= (2 * img.len()).max(ALLOCATION_FLOOR),
                "decoding a {}-byte mutation at byte {at} allocated {largest} bytes at once: {img:?}",
                img.len()
            );
        }
    }
}

/// Flips the first payload byte (the enum tag) to an invalid value.
fn check_bad_tag<M>(msg: &M)
where
    M: WireCodec + MessageSize + PartialEq + Debug,
{
    let mut frame = encode_frame(msg);
    frame[FRAME_HEADER_BYTES] = 0xFF;
    assert!(
        decode_frame::<M>(&frame, MAX_PAYLOAD).is_err(),
        "unknown tag must be rejected"
    );
}

/// The length half of the `Tamper` contract: under several salts, a
/// tampered copy of `msg` has its payload length and its `size_bits`. The
/// `wire_bits` and `boundary_bits` counters size a byzantine sender's true
/// message for every copy, tampered or not.
fn check_tamper<M: Tamper + WireCodec + MessageSize + Debug>(msg: &M) {
    for salt in [0, 1, 42, 0xDEAD_BEEF, u64::MAX] {
        let lie = msg.tamper(salt);
        assert_eq!(payload_len(&lie), payload_len(msg), "salt {salt}: {lie:?}");
        assert_eq!(lie.size_bits(), msg.size_bits(), "salt {salt}: {lie:?}");
    }
}

/// A boundary frame of one record per message is as long as the charge
/// sums it: [`BoundaryDelta::frame_len`] of its records'
/// [`BoundaryRecord::wire_len`].
fn check_frame_len<M: WireCodec>(msgs: Vec<M>) {
    let record_bytes = msgs.iter().map(BoundaryRecord::wire_len).sum();
    let records = msgs
        .into_iter()
        .enumerate()
        .map(|(i, msg)| BoundaryRecord {
            sender: i as u32,
            receiver: i as u32 + 1,
            pos: 0,
            msg,
        })
        .collect();
    let delta = BoundaryDelta {
        src_shard: 0,
        dst_shard: 1,
        round: 7,
        records,
    };
    assert_eq!(
        encode_frame(&delta).len(),
        BoundaryDelta::<M>::frame_len(record_bytes)
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
        let key_bytes = le!(finite(b_raw), id);
        check_codec(&key, &key_bytes);
        let (msg, tag) = match variant {
            0 => (BfsMessage::Leader(key), 0u8),
            1 => (BfsMessage::Request(key), 1),
            _ => (BfsMessage::Ack, 2),
        };
        let key_bytes = if tag == 2 { vec![] } else { key_bytes };
        check_codec(&msg, &[&[tag][..], &key_bytes].concat());
        check_bad_tag(&msg);
        check_tamper(&msg);
    }

    /// The compact elimination's, Montresor's and single-threshold's
    /// messages: their frames survive the same mutations.
    #[test]
    fn value_message_mutations_are_rejected_or_decoded(
        raw in 0u64..1_000_000,
        bits in 1usize..65,
    ) {
        let q = QuantizedValue { value: finite(raw), bits };
        check_mutations::<QuantizedValue>(&encode_frame(&q));
        check_mutations::<f64>(&encode_frame(&finite(raw)));
        check_mutations::<()>(&encode_frame(&()));
        check_tamper(&q);
        check_tamper(&finite(raw));
    }

    #[test]
    fn active_msg_round_trips(leader in 0u32..1_000_000) {
        let msg = ActiveMsg { leader: NodeId(leader) };
        check_codec(&msg, &le!(leader));
        check_tamper(&msg);
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
        // The tag, one shared length, then the two arrays.
        let mut up_bytes = le!(0u8, len as u32);
        num.iter().for_each(|x| up_bytes.extend(le!(x)));
        deg.iter().for_each(|x| up_bytes.extend(le!(x)));
        let up = AggMessage::Up(num, deg);
        check_codec(&up, &up_bytes);
        check_bad_tag(&up);
        check_tamper(&up);
        let down = AggMessage::Down(down_t, finite(down_raw));
        check_codec(&down, &le!(1u8, down_t, finite(down_raw)));
        check_bad_tag(&down);
        check_tamper(&down);
    }

    /// The boundary charge's lengths match the encoded frame for a
    /// fixed-length message and for `AggMessage::Up` at random lengths.
    #[test]
    fn boundary_frame_lengths_are_the_encoded_ones(
        lens in proptest::collection::vec(0usize..24, 0..12),
        raw in 0u64..1_000_000,
        bits in 1usize..65,
    ) {
        check_frame_len(
            lens.iter()
                .map(|&len| AggMessage::Up(vec![raw as u32; len], vec![finite(raw); len]))
                .collect(),
        );
        check_frame_len(
            lens.iter()
                .map(|_| QuantizedValue { value: finite(raw), bits })
                .collect(),
        );
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

/// One row per message type and enum variant: each encodes to the bytes its
/// layout pins.
#[test]
fn every_message_type_encodes_to_its_pinned_bytes() {
    let q = |value, bits| QuantizedValue { value, bits };
    check_codec(&q(0.75, 64), &le!(64u8, 0.75f64));
    let key = LeaderKey {
        b: 2.5,
        id: NodeId(7),
    };
    check_codec(&key, &le!(2.5f64, 7u32));
    check_codec(&BfsMessage::Leader(key), &le!(0u8, 2.5f64, 7u32));
    check_codec(&BfsMessage::Request(key), &le!(1u8, 2.5f64, 7u32));
    check_codec(&BfsMessage::Ack, &[2]);
    check_codec(
        &AggMessage::Up(vec![1, 2], vec![0.5, 1.5]),
        &le!(0u8, 2u32, 1u32, 2u32, 0.5f64, 1.5f64),
    );
    check_codec(&AggMessage::Down(3, 0.25), &le!(1u8, 3u32, 0.25f64));
    check_codec(&ActiveMsg { leader: NodeId(11) }, &le!(11u32));
    let record = |sender, receiver, pos, msg| BoundaryRecord {
        sender,
        receiver,
        pos,
        msg,
    };
    let delta = BoundaryDelta {
        src_shard: 1,
        dst_shard: 2,
        round: 3,
        records: vec![record(4, 5, 0, q(1.5, 6)), record(7, 8, 2, q(2.0, 6))],
    };
    // Shards, round, record count, then each record's sender, receiver and
    // position ahead of its message.
    let records = [
        le!(4u32, 5u32, 0u32, 6u8, 1.5f64),
        le!(7u32, 8u32, 2u32, 6u8, 2.0f64),
    ];
    check_bytes(
        &delta,
        &[le!(1u32, 2u32, 3u64, 2u32), records.concat()].concat(),
    );
}

/// The checkpoint preamble under each threshold set: graph identity, round
/// target, the threshold-set tag (and λ), the fault plan, then the shards.
#[test]
fn run_preambles_encode_to_their_pinned_bytes() {
    let reals = RunPreamble {
        nodes: 5,
        arcs: 12,
        fingerprint: 0x0123_4567_89AB_CDEF,
        rounds_target: 10,
        threshold_set: ThresholdSet::Reals,
        faults: FaultPlan::none(),
        shards: 0,
        shard_seed: 0,
    };
    let head = le!(5u64, 12u64, 0x0123_4567_89AB_CDEFu64, 10u64);
    let reals_bytes = [&head[..], &[0], &[0; 5], &le!(0u64, 0u64)].concat();
    let grid = RunPreamble {
        threshold_set: ThresholdSet::power_grid(0.5),
        faults: FaultPlan::from_loss(LossModel::new(0.05, 9))
            .with_crash(CrashModel::new(0.1, 2, 9, 4)),
        shards: 2,
        shard_seed: 3,
        ..reals
    };
    let faults = [
        le!(1u8, 0.05f64, 9u64, 0u8),
        le!(1u8, 0.1f64, 2u64, 9u64, 4u64, 0u8, 0u8),
    ]
    .concat();
    let grid_bytes = [&head[..], &le!(1u8, 0.5f64), &faults, &le!(2u64, 3u64)].concat();
    for (preamble, bytes) in [(reals, reals_bytes), (grid, grid_bytes)] {
        assert_eq!(preamble.encode(), bytes);
        assert_eq!(RunPreamble::decode(&bytes).unwrap(), preamble);
    }
}
