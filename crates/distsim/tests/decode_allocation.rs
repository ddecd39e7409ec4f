//! A hostile length never makes a decoder reserve more memory than its input
//! holds, and a byzantine round never allocates per copy. A counting global
//! allocator records the number of allocations, and the largest single one,
//! that the measuring thread makes:
//!
//! * a `Vec<RoundStats>` (136 B per element in memory) that declares
//!   `u32::MAX` elements, decoded from 64 KiB of input — the shape of a
//!   checkpoint whose round-history length was overwritten. The reservation
//!   may not exceed the input: bounding the element count by the input's
//!   byte count instead would reserve 136 times as much.
//! * every byte of a `BoundaryDelta` frame that a sharded round charged,
//!   rebuilt by hand, flipped three ways and stamped with `u32::MAX`, and
//!   every truncation of it. Each variant decodes to a typed error or a
//!   frame, never a panic.
//! * a warmed dense round on one thread under a plan with every byzantine
//!   behaviour and quarantine. Its per-copy fault decisions may not
//!   allocate, so the count stays the same whatever the copies number.
//! * the encoding of a 1,000-record `BoundaryDelta` frame: one allocation of
//!   the frame's exact size, never a buffer grown by reallocation. Its
//!   decoding: one allocation for the records, at most twice the frame's
//!   bytes, since a record's reservation counts its 21 wire bytes
//!   (`WireCodec::MIN_WIRE_BYTES`), not its 32 in memory.
//! * the first multicast round on K_200 on one thread, under dense rounds,
//!   a pull round and a sharded round: no allocation of 8 B per arc, so no
//!   arc-indexed array resolves its targets.
//! * a warmed round on a 100×100 grid on one thread, with 4 shards and
//!   without: the same allocations, so charging the boundary frames builds
//!   nothing.
//!
//! Only the measuring thread's allocations count, so the test harness's own
//! threads do not disturb the figures.

use dkc_distsim::message::QuantizedValue;
use dkc_distsim::wire::{decode_frame, encode_frame, WireCodec, WireError, WireReader};
use dkc_distsim::{
    BoundaryDelta, BoundaryRecord, ByzantineModel, Delivery, ExecutionMode, FaultPlan,
    NetworkBuilder, NodeContext, NodeProgram, Outgoing, RoundStats,
};
use dkc_graph::generators::{complete_graph, grid_graph};
use dkc_graph::{NodeId, Partitioner};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The system allocator, counting the allocations of a thread that is
/// measuring and recording the largest (see [`measure`]).
struct PeakAlloc;

/// What a measuring thread has allocated so far.
#[derive(Clone, Copy, Default)]
struct Allocations {
    count: usize,
    largest: usize,
}

thread_local! {
    /// `Some(allocations so far)` while this thread measures.
    static MEASURED: Cell<Option<Allocations>> = const { Cell::new(None) };
}

// SAFETY: every call goes to the system allocator unchanged; the wrapper
// only records sizes, in a const-initialized thread-local that never
// allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        MEASURED.with(|measured| {
            if let Some(so_far) = measured.get() {
                measured.set(Some(Allocations {
                    count: so_far.count + 1,
                    largest: so_far.largest.max(layout.size()),
                }));
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

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn measure<R>(f: impl FnOnce() -> R) -> (R, Allocations) {
    MEASURED.with(|measured| measured.set(Some(Allocations::default())));
    let out = f();
    let made = MEASURED.with(|measured| measured.replace(None));
    (out, made.unwrap_or_default())
}

/// Runs `f` and returns its result with the largest single allocation it
/// made.
fn largest_allocation<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let (out, made) = measure(f);
    (out, made.largest)
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
/// decodes to a typed error or a frame, without a panic. The frames are
/// rebuilt by hand from the round's copies, and their bits must equal the
/// round's charge.
/// A frame's records take 32 B in memory against 21 on the wire, and their
/// reservation is one record per 21 bytes left, so no variant may allocate
/// more than twice its bytes, or a `Vec`'s first four records.
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
    let frames: Vec<Vec<u8>> = records
        .into_iter()
        .enumerate()
        .filter(|(_, records)| !records.is_empty())
        .map(|(pair, records)| {
            encode_frame(&BoundaryDelta {
                src_shard: (pair / shards) as u32,
                dst_shard: (pair % shards) as u32,
                round: 1,
                records,
            })
        })
        .collect();
    let bits: usize = frames.iter().map(|f| 8 * f.len()).sum();
    assert_eq!(bits, charged, "the rebuilt frames are the charged ones");

    let frame = &frames[0];
    let floor = 4 * std::mem::size_of::<BoundaryRecord<QuantizedValue>>();
    let mut failures = Vec::new();
    let mut try_variant = |what: String, img: &[u8]| {
        let run = catch_unwind(AssertUnwindSafe(|| {
            largest_allocation(|| decode_frame::<BoundaryDelta<QuantizedValue>>(img, usize::MAX))
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
    // The unmodified frame decodes.
    let delta: BoundaryDelta<QuantizedValue> = decode_frame(frame, usize::MAX).unwrap();
    assert_eq!(encode_frame(&delta), *frame);
}

/// A 1,000-record boundary frame.
fn thousand_records() -> BoundaryDelta<QuantizedValue> {
    let records = (0..1000)
        .map(|i| BoundaryRecord {
            sender: i,
            receiver: i + 1,
            pos: i % 7,
            msg: QuantizedValue {
                value: f64::from(i),
                bits: 32,
            },
        })
        .collect();
    BoundaryDelta {
        src_shard: 0,
        dst_shard: 1,
        round: 3,
        records,
    }
}

/// `encode_frame` sizes a frame before it writes it, so even a large one is
/// one allocation (a reallocation counts as another here) of exactly its
/// length.
#[test]
fn a_frame_is_encoded_in_one_allocation_of_its_size() {
    let delta = thousand_records();
    let (frame, made) = measure(|| encode_frame(&delta));
    assert_eq!((made.count, made.largest), (1, frame.len()));
    assert_eq!(
        decode_frame::<BoundaryDelta<QuantizedValue>>(&frame, usize::MAX),
        Ok(delta)
    );
}

/// Decoding the frame reserves its records once, by their wire size: one
/// allocation, never regrown, of at most twice the frame's bytes.
#[test]
fn a_frame_is_decoded_in_one_allocation_of_its_records() {
    let delta = thousand_records();
    let frame = encode_frame(&delta);
    let (decoded, made) =
        measure(|| decode_frame::<BoundaryDelta<QuantizedValue>>(&frame, usize::MAX));
    assert_eq!(decoded, Ok(delta));
    assert_eq!(made.count, 1, "the records' reservation was regrown");
    assert!(
        made.largest <= 2 * frame.len(),
        "decoding {} frame bytes reserved {} bytes",
        frame.len(),
        made.largest
    );
    assert_eq!(
        BoundaryRecord::<QuantizedValue>::MIN_WIRE_BYTES,
        (frame.len() - 24) / 1000
    );
}

/// Under a plan with every byzantine behaviour and quarantine, a warmed
/// dense round on one thread allocates no more often on K_64 than the bound
/// allows on any graph: lying, equivocating, muting and spamming are decided
/// per copy, and none of those decisions may allocate.
#[test]
fn byzantine_rounds_allocate_independently_of_their_copies() {
    const BOUND: usize = 16;
    let byz =
        ByzantineModel::new(0.5, ByzantineModel::ALL_BEHAVIORS, 1, 1000, 7).with_quarantine(1000);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    for n in [16, 64] {
        let mut net = NetworkBuilder::new()
            .mode(ExecutionMode::Dense)
            .faults(FaultPlan::none().with_byzantine(byz))
            .build(&complete_graph(n), |ctx| MinFlood(ctx.node().0));
        let (stats, made) = pool.install(|| {
            net.run(3);
            measure(|| net.run_round())
        });
        let copies = stats.messages + stats.dropped();
        assert!(
            made.count <= BOUND,
            "a round of {copies} copies allocated {} times",
            made.count
        );
    }
}

/// Floods the smallest node id by multicasting it to every neighbour, each
/// listed twice, so the round's target lists are deduplicated before any
/// copy moves.
struct MulticastMinFlood(u32);

impl NodeProgram for MulticastMinFlood {
    type Message = u32;

    const DELTA_DRIVEN: bool = true;

    fn broadcast(&mut self, ctx: &NodeContext<'_>) -> Outgoing<u32> {
        let nbrs = ctx.neighbors();
        let targets: Vec<NodeId> = nbrs.iter().chain(nbrs).copied().collect();
        Outgoing::Multicast(self.0, targets)
    }

    fn receive(&mut self, _ctx: &NodeContext<'_>, inbox: &[Delivery<u32>]) -> bool {
        let before = self.0;
        for d in inbox {
            self.0 = self.0.min(d.msg);
        }
        self.0 != before
    }
}

/// The first multicast round on K_200 (39,800 arcs) on one thread: under
/// `Dense`, under `Auto` (whose round 1 pulls, every arc carrying a copy)
/// and under `Auto` with 4 shards. Its largest single allocation stays
/// below 8 B per arc, the size of an arc-indexed `u64` array. The mailbox
/// backend is left out: on one thread its pending buffer rightly holds a
/// whole round's frames.
#[test]
fn a_multicast_round_allocates_nothing_per_arc() {
    let g = complete_graph(200);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    for (mode, shards) in [
        (ExecutionMode::Dense, 0),
        (ExecutionMode::Auto, 0),
        (ExecutionMode::Auto, 4),
    ] {
        let mut net = NetworkBuilder::new()
            .mode(mode)
            .shards(shards)
            .build(&g, |ctx| MulticastMinFlood(ctx.node().0));
        let arcs = net.graph().num_arcs();
        assert_eq!(arcs, 39_800);
        let (stats, largest) = pool.install(|| largest_allocation(|| net.run_round()));
        assert_eq!(stats.messages, arcs, "{mode:?}, {shards} shards");
        assert_eq!(
            stats.boundary_bits > 0,
            shards > 0,
            "{mode:?}, {shards} shards"
        );
        assert!(
            largest < 8 * arcs,
            "{mode:?}, {shards} shards: a round over {arcs} arcs allocated {largest} bytes at once"
        );
    }
}

/// A warmed round of the delta-driven flood on a 100×100 grid, on one
/// thread, allocates with 4 shards exactly what it does unsharded: as many
/// allocations, and the same largest one. The boundary charge sizes each
/// cross-shard copy instead of building a record, a frame or a decoded
/// frame for it.
#[test]
fn a_warmed_sharded_round_allocates_what_an_unsharded_one_does() {
    let g = grid_graph(100, 100);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let [unsharded, sharded] = [0, 4].map(|shards| {
        let mut net = NetworkBuilder::new()
            .shards(shards)
            .build(&g, |ctx| MinFlood(ctx.node().0));
        let (stats, made) = pool.install(|| {
            net.run(3);
            measure(|| net.run_round())
        });
        assert_eq!(stats.round, 4);
        assert_eq!(stats.boundary_bits > 0, shards > 0, "{shards} shards");
        (made.count, made.largest)
    });
    assert_eq!(
        sharded, unsharded,
        "(allocations, largest) of round 4 with 4 shards, against unsharded"
    );
}
