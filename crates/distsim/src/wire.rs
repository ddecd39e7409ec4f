//! Byte-level wire format for protocol messages.
//!
//! Where [`crate::message::MessageSize`] *estimates* the CONGEST cost of a
//! message in bits, this module *measures* it: every message type encodes to
//! a deterministic, untagged, little-endian byte payload through its
//! [`WireCodec::encode`], and frames on the wire carry a `u32` length prefix
//! ahead of that payload. The mailbox executor exchanges exactly these
//! frames between shard threads; the lockstep executors run the same
//! encoders into a byte count ([`payload_len`]) so `wire_bits` is
//! byte-identical in every execution mode.
//!
//! Each type's layout is its `encode`, written beside the `decode` that
//! reads the same bytes back. The layouts follow fixed rules, with no
//! self-description:
//! - integers and floats: fixed width, little-endian (`u8` = 1 byte, `u32` =
//!   4 bytes, `u64`/`usize` = 8 bytes, `f64` = 8 bytes, ...)
//! - `bool`: 1 byte, `0` or `1` (anything else is rejected on decode)
//! - `()`: zero bytes
//! - `Option<T>`: 1 flag byte (`0`/`1`) then the payload if present
//! - sequences (`Vec<T>`): `u32` element count then the elements
//! - slabs ([`WireWriter::write_u32s`]): the elements back to back with no
//!   count; the reader knows the length (a checkpointed node's update order
//!   is as long as its degree)
//! - varints ([`WireWriter::write_varint`], checkpoint payloads only): a
//!   `u32` in LEB128, seven bits per byte from the lowest, the high bit set
//!   on every byte but the last; at most five bytes
//! - structs: fields in declaration order, no names or framing
//! - enums: a `u8` discriminant, then the variant's fields
//!
//! Decoding is strict in the tofn style: a frame that is truncated, longer
//! than the configured cap, carries trailing garbage, or contains an invalid
//! byte is a [`WireError`] attributed to the sending peer — never a panic.

use std::fmt;

use crate::message::{MessageSize, QuantizedValue};

/// Bytes of framing overhead per message: the `u32` payload-length prefix.
pub const FRAME_HEADER_BYTES: usize = 4;

/// Slack allowed between the `MessageSize` *estimate* and the measured
/// encoded size before [`debug_assert_estimate_covers`] flags the estimate
/// as an undercount. Covers fixed per-message framing the analytical count
/// deliberately ignores (an enum tag plus one 64-bit field's rounding).
pub const WIRE_SLACK_BITS: usize = 72;

/// Decode-side rejection of a received frame. Carried per sending peer by
/// the mailbox executor instead of panicking (tofn-style fault attribution).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The frame ended before the declared payload (or the header) did.
    Truncated,
    /// The declared payload length exceeds the configured cap.
    Oversized { len: usize, max: usize },
    /// Bytes remained after the payload decoded cleanly.
    TrailingBytes { remaining: usize },
    /// A varint longer than five bytes, or one above `u32::MAX`.
    BadVarint,
    /// A boolean byte that was neither `0` nor `1`.
    BadBool(u8),
    /// An `Option` flag byte that was neither `0` nor `1`.
    BadOptionFlag(u8),
    /// An enum discriminant no variant of `ty` claims.
    BadTag { ty: &'static str, tag: u8 },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::Oversized { len, max } => {
                write!(f, "payload length {len} exceeds cap {max}")
            }
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after payload")
            }
            WireError::BadVarint => write!(f, "varint longer than five bytes or above u32::MAX"),
            WireError::BadBool(b) => write!(f, "invalid bool byte {b:#04x}"),
            WireError::BadOptionFlag(b) => write!(f, "invalid option flag byte {b:#04x}"),
            WireError::BadTag { ty, tag } => write!(f, "invalid {ty} tag {tag}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A message that can round-trip through the wire format. `encode` writes
/// the byte layout (see the module rules) that `decode` reads back, and the
/// pair is the only statement of that layout: framing, sizing and
/// checkpointing all run `encode`.
pub trait WireCodec: Sized {
    /// How many input bytes a decoded `Vec<Self>` counts per element when it
    /// reserves: at most one element per this many bytes left. Set to the
    /// fewest bytes a value encodes to, a valid sequence is reserved once,
    /// and a hostile length reserves at most `size_of::<Self>()` /
    /// `MIN_WIRE_BYTES` times the input. The default, the value's size in
    /// memory, keeps any reservation within the input.
    const MIN_WIRE_BYTES: usize = std::mem::size_of::<Self>();

    /// Writes this value's bytes to `s`. Encoding cannot fail.
    fn encode<S: WireSink>(&self, s: &mut S);
    /// Decodes one value from the reader, consuming exactly its bytes.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

// ---------------------------------------------------------------------------
// Encoding: a byte buffer, or a count of the bytes.
// ---------------------------------------------------------------------------

/// Where [`WireCodec::encode`] puts its bytes: a [`WireWriter`] keeps them,
/// while the count behind [`payload_len`] only adds up their lengths.
pub trait WireSink {
    /// Appends raw bytes, with no length prefix.
    fn put(&mut self, bytes: &[u8]);

    /// Appends a `u32` sequence length, the count [`WireReader::read_len`]
    /// reads back.
    fn put_len(&mut self, len: usize) {
        // lint: allow(D04) — encode side: a >u32::MAX-element message is a sender bug caught before bytes hit the wire
        let len = u32::try_from(len).expect("sequence length exceeds u32 wire range");
        self.put(&len.to_le_bytes());
    }
}

/// The wire payload bytes written so far.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer whose buffer holds `bytes` before it grows.
    pub(crate) fn with_capacity(bytes: usize) -> Self {
        WireWriter {
            buf: Vec::with_capacity(bytes),
        }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes written and not yet drained.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Appends a slab of little-endian `u32`s, in one pass and with no
    /// length prefix.
    pub fn write_u32s(&mut self, xs: &[u32]) {
        put_slab(&mut self.buf, xs, u32::to_le_bytes);
    }

    /// Appends `x` as a LEB128 varint: one byte below 128, at most five.
    pub fn write_varint(&mut self, mut x: u32) {
        while x >= 0x80 {
            self.buf.push(x as u8 | 0x80);
            x >>= 7;
        }
        self.buf.push(x as u8);
    }

    /// A writer that appends to `buf`, keeping its capacity.
    pub(crate) fn from_buffer(buf: Vec<u8>) -> Self {
        WireWriter { buf }
    }

    /// Hands over the bytes written so far and goes on writing into `next`.
    pub(crate) fn replace_buffer(&mut self, next: Vec<u8>) -> Vec<u8> {
        std::mem::replace(&mut self.buf, next)
    }
}

// Inlined into the encoders of other crates, so that each fixed-width field
// is a store of known length rather than a call and a copy of unknown
// length: without it, encoding a 5,000-record boundary frame took about
// 165 µs instead of 40 µs (2-vCPU VM).
impl WireSink for WireWriter {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

fn put_slab<T: Copy, const N: usize>(buf: &mut Vec<u8>, xs: &[T], le: fn(T) -> [u8; N]) {
    let start = buf.len();
    buf.resize(start + N * xs.len(), 0);
    for (dst, &x) in buf[start..].chunks_exact_mut(N).zip(xs) {
        dst.copy_from_slice(&le(x));
    }
}

/// The sink of [`payload_len`]: how many bytes an encoding takes.
struct ByteCount(usize);

impl WireSink for ByteCount {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

// ---------------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------------

/// Strict cursor over a received payload.
pub struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Fixed-width little-endian readers, one per number type the layouts use.
macro_rules! reader_le {
    ($($name:ident => $t:ty),* $(,)?) => {$(
        pub fn $name(&mut self) -> Result<$t, WireError> {
            const N: usize = std::mem::size_of::<$t>();
            let raw = self.take(N)?;
            // lint: allow(D04) — take(N) either errs or returns exactly N bytes, so try_into cannot fail
            Ok(<$t>::from_le_bytes(raw.try_into().expect("length checked")))
        }
    )*};
}

impl<'a> WireReader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        WireReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    reader_le! {
        read_u8 => u8,
        read_u16 => u16,
        read_u32 => u32,
        read_u64 => u64,
        read_f32 => f32,
        read_f64 => f64,
    }

    pub fn read_bool(&mut self) -> Result<bool, WireError> {
        match self.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::BadBool(b)),
        }
    }

    /// The `Option` presence flag.
    pub fn read_option_flag(&mut self) -> Result<bool, WireError> {
        match self.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::BadOptionFlag(b)),
        }
    }

    /// A `u32` sequence/string length.
    pub fn read_len(&mut self) -> Result<usize, WireError> {
        Ok(self.read_u32()? as usize)
    }

    /// Fills `out` from a slab of little-endian `u32`s (the layout of
    /// [`WireWriter::write_u32s`]).
    pub fn read_u32s_into(&mut self, out: &mut [u32]) -> Result<(), WireError> {
        self.read_slab(out, u32::from_le_bytes)
    }

    /// A varint of [`WireWriter::write_varint`]. Five bytes is the most a
    /// `u32` takes, so a sixth is [`WireError::BadVarint`], and so is a
    /// five-byte value above `u32::MAX`.
    pub fn read_varint(&mut self) -> Result<u32, WireError> {
        let mut x = 0u64;
        for shift in (0..35).step_by(7) {
            let byte = self.read_u8()?;
            x |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return u32::try_from(x).map_err(|_| WireError::BadVarint);
            }
        }
        Err(WireError::BadVarint)
    }

    fn read_slab<T, const N: usize>(
        &mut self,
        out: &mut [T],
        from_le: fn([u8; N]) -> T,
    ) -> Result<(), WireError> {
        let len = out.len().checked_mul(N).ok_or(WireError::Truncated)?;
        let raw = self.take(len)?;
        for (x, chunk) in out.iter_mut().zip(raw.chunks_exact(N)) {
            let mut le = [0u8; N];
            le.copy_from_slice(chunk);
            *x = from_le(le);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Frame helpers.
// ---------------------------------------------------------------------------

/// Encodes a message's payload bytes (no length prefix).
pub fn encode_payload<M: WireCodec>(msg: &M) -> Vec<u8> {
    let mut w = WireWriter::new();
    msg.encode(&mut w);
    w.into_bytes()
}

/// Measures a message's encoded payload size in bytes: its encoder runs into
/// a byte count, so nothing is allocated.
pub fn payload_len<M: WireCodec>(msg: &M) -> usize {
    let mut count = ByteCount(0);
    msg.encode(&mut count);
    count.0
}

/// Encodes a complete frame: `u32` little-endian payload length + payload.
///
/// The message's encoder runs twice: into a byte count ([`payload_len`]),
/// which gives the length header, then into the frame. So the frame is one
/// allocation of its exact size, never grown by reallocation: glibc
/// reallocates a block inside the arena it came from, so on a worker thread
/// a growing buffer can move into the main thread's arena and contend for
/// its lock. When sharded rounds still encoded their boundary frames on two
/// threads, a 1,024-shard run over a 100k-node Chung–Lu graph blocked on a
/// lock about 110k times with a growing buffer and 13k–17k times with this
/// one (3.3–3.8 s against 1.4–1.7 s; 2-vCPU VM).
pub fn encode_frame<M: WireCodec>(msg: &M) -> Vec<u8> {
    let payload = payload_len(msg);
    // lint: allow(D04) — encode side: CONGEST payloads are O(log n) bits; a >4 GiB payload is a sender bug
    let len = u32::try_from(payload).expect("payload length exceeds u32 wire range");
    let mut w = WireWriter::with_capacity(FRAME_HEADER_BYTES + payload);
    len.encode(&mut w);
    msg.encode(&mut w);
    w.into_bytes()
}

/// Decodes one complete frame, enforcing the payload-length cap and exact
/// consumption: a short buffer is [`WireError::Truncated`], a declared
/// length above `max_payload` is [`WireError::Oversized`], and any unread
/// bytes after a clean decode are [`WireError::TrailingBytes`].
pub fn decode_frame<M: WireCodec>(frame: &[u8], max_payload: usize) -> Result<M, WireError> {
    if frame.len() < FRAME_HEADER_BYTES {
        return Err(WireError::Truncated);
    }
    // lint: allow(D04) — the length guard above proves frame[..4] is exactly 4 bytes, so try_into cannot fail
    let len = u32::from_le_bytes(frame[..FRAME_HEADER_BYTES].try_into().expect("len")) as usize;
    if len > max_payload {
        return Err(WireError::Oversized {
            len,
            max: max_payload,
        });
    }
    let body = &frame[FRAME_HEADER_BYTES..];
    if body.len() < len {
        return Err(WireError::Truncated);
    }
    if body.len() > len {
        return Err(WireError::TrailingBytes {
            remaining: body.len() - len,
        });
    }
    let mut r = WireReader::new(body);
    let msg = M::decode(&mut r)?;
    if r.remaining() > 0 {
        return Err(WireError::TrailingBytes {
            remaining: r.remaining(),
        });
    }
    Ok(msg)
}

/// Measured on-the-wire cost of a message in bits: length prefix + payload.
pub fn frame_bits(payload_len: usize) -> usize {
    8 * (FRAME_HEADER_BYTES + payload_len)
}

/// Debug-only check that a message's `MessageSize` estimate does not
/// undercount its measured encoding beyond [`WIRE_SLACK_BITS`] of framing
/// slack. Release builds compile this away.
#[inline]
pub fn debug_assert_estimate_covers<M: WireCodec + MessageSize>(msg: &M) {
    if cfg!(debug_assertions) {
        let measured = 8 * payload_len(msg);
        let allowed = msg.size_bits().next_multiple_of(8) + WIRE_SLACK_BITS;
        debug_assert!(
            measured <= allowed,
            "MessageSize estimate undercounts wire encoding: measured {measured} bits, \
             estimate allows {allowed} bits"
        );
    }
}

/// Encodes a sequence as `Vec<T>` does: the `u32` element count, then each
/// element.
pub(crate) fn encode_seq<T: WireCodec, S: WireSink>(xs: &[T], s: &mut S) {
    s.put_len(xs.len());
    for x in xs {
        x.encode(s);
    }
}

// ---------------------------------------------------------------------------
// Codec impls for primitive message types.
// ---------------------------------------------------------------------------

/// Fixed-width numbers: their little-endian bytes, read back by `$read`.
macro_rules! le_codec {
    ($($t:ty => $read:ident),* $(,)?) => {$(
        impl WireCodec for $t {
            fn encode<S: WireSink>(&self, s: &mut S) {
                s.put(&self.to_le_bytes());
            }

            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                r.$read()
            }
        }
    )*};
}

le_codec! {
    u8 => read_u8,
    u32 => read_u32,
    u64 => read_u64,
    f32 => read_f32,
    f64 => read_f64,
}

/// A `usize` travels as a `u64`, whatever the platform's width.
impl WireCodec for usize {
    fn encode<S: WireSink>(&self, s: &mut S) {
        (*self as u64).encode(s);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(r.read_u64()? as usize)
    }
}

impl WireCodec for bool {
    fn encode<S: WireSink>(&self, s: &mut S) {
        u8::from(*self).encode(s);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.read_bool()
    }
}

impl WireCodec for () {
    fn encode<S: WireSink>(&self, _s: &mut S) {}

    fn decode(_r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

impl<T: WireCodec> WireCodec for Option<T> {
    fn encode<S: WireSink>(&self, s: &mut S) {
        match self {
            Some(v) => {
                1u8.encode(s);
                v.encode(s);
            }
            None => 0u8.encode(s),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        if r.read_option_flag()? {
            Ok(Some(T::decode(r)?))
        } else {
            Ok(None)
        }
    }
}

impl<T: WireCodec> WireCodec for Vec<T> {
    fn encode<S: WireSink>(&self, s: &mut S) {
        encode_seq(self, s);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.read_len()?;
        // A hostile length cannot force a huge allocation: the reservation
        // is bounded by the elements the bytes actually present can hold
        // (see `WireCodec::MIN_WIRE_BYTES`).
        let fit = r.remaining() / T::MIN_WIRE_BYTES.max(1);
        let mut out = Vec::with_capacity(len.min(fit));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

// `bits` rides in one byte: it is `⌈log₂ |Λ|⌉`, far below 256 for any real
// parameterisation, and a single byte keeps the measured encoding within
// `WIRE_SLACK_BITS` of the analytical per-message charge.
impl WireCodec for QuantizedValue {
    const MIN_WIRE_BYTES: usize = 9;

    fn encode<S: WireSink>(&self, s: &mut S) {
        // lint: allow(D04) — encode side: bits = ⌈log₂ |Λ|⌉ < 256 by construction; decode reads the byte fallibly
        let bits = u8::try_from(self.bits).expect("QuantizedValue.bits exceeds wire range");
        bits.encode(s);
        self.value.encode(s);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let bits = r.read_u8()? as usize;
        let value = r.read_f64()?;
        Ok(QuantizedValue { value, bits })
    }
}

/// The little-endian bytes of each value in turn. Tests write a pinned
/// encoding out field by field with it, independently of the encoders.
#[cfg(test)]
macro_rules! le_bytes {
    ($($x:expr),* $(,)?) => {{
        let mut out = Vec::<u8>::new();
        $(out.extend_from_slice(&$x.to_le_bytes());)*
        out
    }};
}
#[cfg(test)]
pub(crate) use le_bytes;

#[cfg(test)]
mod tests {
    use super::*;

    /// `msg` encodes to exactly `payload`, [`payload_len`] counts its bytes,
    /// and its frame (the `u32` length, then `payload`) decodes back to it.
    fn round_trip<M: WireCodec + PartialEq + std::fmt::Debug>(msg: &M, payload: &[u8]) {
        assert_eq!(encode_payload(msg), payload);
        assert_eq!(payload_len(msg), payload.len());
        let frame = encode_frame(msg);
        assert_eq!(
            frame,
            [&le_bytes!(payload.len() as u32)[..], payload].concat()
        );
        let back: M = decode_frame(&frame, 1 << 20).expect("decode");
        assert_eq!(&back, msg);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(&0u32, &[0; 4]);
        round_trip(&u32::MAX, &[0xFF; 4]);
        round_trip(&u64::MAX, &[0xFF; 8]);
        round_trip(&usize::MAX, &[0xFF; 8]);
        round_trip(&0x0102_0304u32, &[4, 3, 2, 1]);
        round_trip(&1.5f32, &le_bytes!(1.5f32));
        round_trip(&-0.0f64, &le_bytes!(-0.0f64));
        round_trip(&true, &[1]);
        round_trip(&false, &[0]);
        round_trip(&(), &[]);
    }

    #[test]
    fn unit_encodes_to_zero_bytes() {
        assert_eq!(payload_len(&()), 0);
        assert_eq!(encode_payload(&()), Vec::<u8>::new());
        assert_eq!(frame_bits(payload_len(&())), 32);
    }

    #[test]
    fn options_and_vecs_round_trip() {
        round_trip(&Some(7u32), &le_bytes!(1u8, 7u32));
        round_trip(&Option::<u32>::None, &[0]);
        round_trip(&vec![1u64, 2, 3], &le_bytes!(3u32, 1u64, 2u64, 3u64));
        round_trip(&Vec::<f64>::new(), &le_bytes!(0u32));
        round_trip(
            &vec![Some(1u32), None, Some(3)],
            &le_bytes!(3u32, 1u8, 1u32, 0u8, 1u8, 3u32),
        );
    }

    #[test]
    fn quantized_value_round_trips_and_is_72_bits() {
        let q = QuantizedValue {
            value: 123.456,
            bits: 17,
        };
        round_trip(&q, &le_bytes!(17u8, 123.456f64));
        assert_eq!(8 * payload_len(&q), 72);
        assert_eq!(QuantizedValue::MIN_WIRE_BYTES, payload_len(&q));
        debug_assert_estimate_covers(&q);
    }

    #[test]
    fn integer_widths_are_preserved() {
        assert_eq!(payload_len(&1u32), 4);
        assert_eq!(payload_len(&1u64), 8);
        assert_eq!(payload_len(&1usize), 8);
        assert_eq!(payload_len(&1.0f32), 4);
        assert_eq!(payload_len(&1.0f64), 8);
        assert_eq!(payload_len(&true), 1);
        assert_eq!(payload_len(&vec![1u32, 2]), 4 + 8);
    }

    #[test]
    fn sizer_matches_writer_for_nested_shapes() {
        let msg = vec![Some(vec![1u64, 2, 3]), None];
        assert_eq!(payload_len(&msg), encode_payload(&msg).len());
    }

    #[test]
    fn truncated_header_is_rejected() {
        assert_eq!(
            decode_frame::<u32>(&[1, 0], 64).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let mut frame = encode_frame(&7u64);
        frame.truncate(frame.len() - 3);
        assert_eq!(
            decode_frame::<u64>(&frame, 64).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn oversized_declared_length_is_rejected() {
        let frame = encode_frame(&vec![0u64; 32]);
        let err = decode_frame::<Vec<u64>>(&frame, 16).unwrap_err();
        assert_eq!(
            err,
            WireError::Oversized {
                len: 4 + 32 * 8,
                max: 16
            }
        );
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut frame = encode_frame(&7u32);
        frame.push(0xAB);
        assert_eq!(
            decode_frame::<u32>(&frame, 64).unwrap_err(),
            WireError::TrailingBytes { remaining: 1 }
        );
    }

    #[test]
    fn interior_overrun_is_trailing_bytes_not_panic() {
        // A Vec declaring fewer elements than the payload holds leaves
        // unread bytes behind, which strict decoding rejects.
        let mut frame = encode_frame(&vec![1u32, 2]);
        // Patch the element count from 2 down to 1 (count sits after the
        // 4-byte frame header).
        frame[FRAME_HEADER_BYTES] = 1;
        assert_eq!(
            decode_frame::<Vec<u32>>(&frame, 64).unwrap_err(),
            WireError::TrailingBytes { remaining: 4 }
        );
    }

    #[test]
    fn bad_bool_and_option_bytes_are_rejected() {
        let frame = vec![1, 0, 0, 0, 7];
        assert_eq!(
            decode_frame::<bool>(&frame, 64).unwrap_err(),
            WireError::BadBool(7)
        );
        assert_eq!(
            decode_frame::<Option<u32>>(&frame, 64).unwrap_err(),
            WireError::BadOptionFlag(7)
        );
    }

    #[test]
    fn hostile_vec_length_does_not_overallocate() {
        // Declares u32::MAX elements with a 4-byte body: must fail with
        // Truncated, not abort on allocation.
        let mut frame = Vec::new();
        frame.extend_from_slice(&8u32.to_le_bytes());
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        frame.extend_from_slice(&[0, 0, 0, 0]);
        assert_eq!(
            decode_frame::<Vec<u32>>(&frame, 64).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn slabs_encode_like_values_and_read_back() {
        let ints = [0u32, 7, u32::MAX];
        let mut w = WireWriter::new();
        w.write_u32s(&ints);
        let mut by_value = Vec::new();
        ints.iter().for_each(|x| by_value.extend(encode_payload(x)));
        assert_eq!(w.as_bytes(), &by_value[..]);

        let mut r = WireReader::new(w.as_bytes());
        let mut u = [0u32; 3];
        r.read_u32s_into(&mut u).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(u, ints);
        // A slab longer than the input is truncation, and consumes nothing.
        let mut r = WireReader::new(&w.as_bytes()[..8]);
        assert_eq!(r.read_u32s_into(&mut [0u32; 3]), Err(WireError::Truncated));
        assert_eq!(r.remaining(), 8);

        let out = w.replace_buffer(Vec::new());
        assert!(w.as_bytes().is_empty());
        assert_eq!(out, by_value);
    }

    /// Varints take seven bits per byte, lowest first, and read back; a
    /// sixth byte, a five-byte value past `u32::MAX` and a cut varint are
    /// errors.
    #[test]
    fn varints_are_leb128_of_at_most_five_bytes() {
        let cases: [(u32, &[u8]); 6] = [
            (0, &[0]),
            (127, &[0x7F]),
            (128, &[0x80, 0x01]),
            (300, &[0xAC, 0x02]),
            (1 << 28, &[0x80, 0x80, 0x80, 0x80, 0x01]),
            (u32::MAX, &[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]),
        ];
        for (x, bytes) in cases {
            let mut w = WireWriter::new();
            w.write_varint(x);
            assert_eq!(w.as_bytes(), bytes, "{x}");
            let mut r = WireReader::new(bytes);
            assert_eq!(r.read_varint(), Ok(x));
            assert_eq!(r.remaining(), 0);
        }
        // Padding up to five bytes still reads.
        let padded = [0x83, 0x80, 0x80, 0x80, 0x00];
        assert_eq!(WireReader::new(&padded).read_varint(), Ok(3));
        for bad in [
            &[0x83, 0x80, 0x80, 0x80, 0x80, 0x00][..],
            &[0xFF, 0xFF, 0xFF, 0xFF, 0x10],
        ] {
            assert_eq!(
                WireReader::new(bad).read_varint(),
                Err(WireError::BadVarint)
            );
        }
        assert_eq!(
            WireReader::new(&[0x80, 0x80]).read_varint(),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn estimate_slack_holds_for_primitives() {
        debug_assert_estimate_covers(&1u32);
        debug_assert_estimate_covers(&1u64);
        debug_assert_estimate_covers(&1.0f64);
        debug_assert_estimate_covers(&true);
        debug_assert_estimate_covers(&());
        debug_assert_estimate_covers(&Some(1u64));
        debug_assert_estimate_covers(&vec![1u64, 2, 3]);
    }
}
