//! A hostile length never makes a decoder reserve more memory than its input
//! holds. A counting global allocator records the largest single allocation
//! the measuring thread makes while it decodes:
//!
//! * a `Vec<RoundStats>` (136 B per element in memory) that declares
//!   `u32::MAX` elements, decoded from 64 KiB of input — the shape of a
//!   checkpoint whose round-history length was overwritten. The reservation
//!   may not exceed the input: bounding the element count by the input's
//!   byte count instead would reserve 136 times as much.
//! * every byte of a real `BoundaryDelta` frame from a sharded round, flipped
//!   three ways and stamped with `u32::MAX`, and every truncation of it. Each
//!   variant decodes and validates to a typed error or a valid frame, never a
//!   panic.
//!
//! Only the measuring thread's allocations count, so the test harness's own
//! threads do not disturb the figures.

use dkc_distsim::message::QuantizedValue;
use dkc_distsim::wire::{decode_frame, encode_frame, WireCodec, WireError, WireReader};
use dkc_distsim::{
    BoundaryDelta, BoundaryRecord, Delivery, NetworkBuilder, NodeContext, NodeProgram, Outgoing,
    RoundStats,
};
use dkc_graph::generators::grid_graph;
use dkc_graph::Partitioner;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

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

#[test]
fn hostile_vec_length_reserves_no_more_than_the_input() {
    let mut input = u32::MAX.to_le_bytes().to_vec();
    input.resize(64 << 10, 0);
    let (decoded, largest) =
        largest_allocation(|| Vec::<RoundStats>::decode(&mut WireReader::new(&input)));
    assert_eq!(decoded.unwrap_err(), WireError::Truncated);
    assert!(
        largest <= input.len(),
        "decoding {} input bytes reserved {largest} bytes at once",
        input.len()
    );
}

/// Floods the smallest node id as a surviving-number-shaped value, so a
/// sharded round carries the messages `dkc coreness` puts in its frames.
struct MinFlood(u32);

impl NodeProgram for MinFlood {
    type Message = QuantizedValue;

    const DELTA_DRIVEN: bool = true;

    fn broadcast(&mut self, _ctx: &NodeContext<'_>) -> Outgoing<QuantizedValue> {
        Outgoing::Broadcast(QuantizedValue {
            value: f64::from(self.0),
            bits: 32,
        })
    }

    fn receive(&mut self, _ctx: &NodeContext<'_>, inbox: &[Delivery<QuantizedValue>]) -> bool {
        let before = self.0;
        for d in inbox {
            self.0 = self.0.min(d.msg.value as u32);
        }
        self.0 != before
    }
}

/// Every byte of a boundary frame that a sharded round charged, flipped
/// three ways and stamped with `u32::MAX`, and every truncation: each variant
/// decodes and validates to a typed error or a valid frame, without a panic.
/// A frame's records take 32 B in memory against 21 on the wire, so a valid
/// one regrows its reservation (at most the input's bytes) once; no variant
/// may allocate more than twice its bytes, or a `Vec`'s first four records.
#[test]
fn every_byte_of_a_boundary_frame_decodes_or_is_rejected() {
    let (shards, seed) = (2, 7);
    let g = grid_graph(5, 6);
    let mut net = NetworkBuilder::new()
        .shards(shards)
        .shard_seed(seed)
        .build(&g, |ctx| MinFlood(ctx.node().0));
    let charged = net.run_round().boundary_bits;

    // Round 1 of the flood: every node broadcasts its id, and the copies
    // that cross the cut form one frame per ordered shard pair, in ascending
    // sender order — the frames the round just charged.
    let graph = net.graph();
    let part = Partitioner::new(shards, seed);
    let owner: Vec<u32> = graph.nodes().map(|v| part.shard_of(v) as u32).collect();
    let mut records = vec![Vec::new(); shards * shards];
    for u in graph.nodes() {
        let su = owner[u.index()] as usize;
        for (q, &v) in graph.neighbors(u).iter().enumerate() {
            let sv = owner[v.index()] as usize;
            if su != sv {
                let pos = graph.reverse_arc(graph.arc_offset(u) + q) - graph.arc_offset(v);
                records[su * shards + sv].push(BoundaryRecord {
                    sender: u.0,
                    receiver: v.0,
                    pos: pos as u32,
                    msg: QuantizedValue {
                        value: f64::from(u.0),
                        bits: 32,
                    },
                });
            }
        }
    }
    let frames: Vec<(u32, u32, Vec<u8>)> = records
        .into_iter()
        .enumerate()
        .filter(|(_, records)| !records.is_empty())
        .map(|(pair, records)| {
            let (src, dst) = ((pair / shards) as u32, (pair % shards) as u32);
            let delta = BoundaryDelta {
                src_shard: src,
                dst_shard: dst,
                round: 1,
                records,
            };
            (src, dst, encode_frame(&delta))
        })
        .collect();
    let bits: usize = frames.iter().map(|(_, _, f)| 8 * f.len()).sum();
    assert_eq!(bits, charged, "the rebuilt frames are the charged ones");

    let (src, dst, frame) = &frames[0];
    let floor = 4 * std::mem::size_of::<BoundaryRecord<QuantizedValue>>();
    let mut failures = Vec::new();
    let mut try_variant = |what: String, img: &[u8]| {
        let run = catch_unwind(AssertUnwindSafe(|| {
            largest_allocation(|| {
                decode_frame::<BoundaryDelta<QuantizedValue>>(img, usize::MAX)
                    .map(|delta| delta.validate(*src, *dst, 1, graph, &owner))
            })
        }));
        match run {
            Err(_) => failures.push(format!("{what}: panicked")),
            Ok((_, largest)) if largest > (2 * img.len()).max(floor) => failures.push(format!(
                "{what}: allocated {largest} bytes for {} input bytes",
                img.len()
            )),
            Ok(_) => {}
        }
    };
    for at in 0..frame.len() {
        for mask in [0xFF, 0x01, 0x80] {
            let mut img = frame.clone();
            img[at] ^= mask;
            try_variant(format!("byte {at} ^ {mask:#04x}"), &img);
        }
        let mut img = frame.clone();
        let end = (at + 4).min(img.len());
        img[at..end].copy_from_slice(&u32::MAX.to_le_bytes()[..end - at]);
        try_variant(format!("u32::MAX at {at}"), &img);
    }
    for len in 0..frame.len() {
        try_variant(format!("truncated to {len}"), &frame[..len]);
    }
    assert!(
        failures.is_empty(),
        "{} variants failed: {failures:#?}",
        failures.len()
    );
    // The unmodified frame decodes and validates.
    let delta: BoundaryDelta<QuantizedValue> = decode_frame(frame, usize::MAX).unwrap();
    delta.validate(*src, *dst, 1, graph, &owner).unwrap();
}
