//! Cross-shard boundary frames for sharded execution
//! ([`crate::NetworkBuilder::shards`]).
//!
//! Sharded execution assigns every node to a shard (the deterministic
//! `dkc_graph::Partitioner` assignment) and charges each round for the
//! copies that would cross a shard cut between shard hosts: one
//! [`BoundaryDelta`] frame per ordered shard pair, holding the round's copies
//! from senders on the source shard to receivers on the destination shard.
//! Only boundary senders in the round's sparse frontier contribute records.
//!
//! The frames are accounting: the round's push or pull delivers the copies,
//! so no frame is built. Each is charged at the length its [`crate::wire`]
//! encoding would have, summed from [`BoundaryRecord::wire_len`] and
//! [`BoundaryDelta::frame_len`], which sit beside the codec so that this
//! file alone knows the layout. The codec stays as the format the charge
//! follows: its bytes are pinned, and its strict decoder is swept with
//! hostile bytes like every other decoder in this crate.

use crate::wire::{payload_len, WireCodec, WireError, WireReader, WireSink, FRAME_HEADER_BYTES};

/// Wire bytes of a record ahead of its message: the sender, the receiver and
/// the position, 4 B each.
const RECORD_HEAD_BYTES: usize = 12;

/// Wire bytes of a delta ahead of its records: the shard pair (4 B each),
/// the round (8 B) and the record count (4 B).
const DELTA_HEAD_BYTES: usize = 20;

/// One cross-shard delivery: the sending boundary node, the receiving node on
/// the destination shard, the receiver-local adjacency position of the arc the
/// message travelled on (what [`crate::program::Delivery::pos`] needs for the
/// delta-driven merge), and the payload.
#[derive(Clone, Debug, PartialEq)]
pub struct BoundaryRecord<M> {
    /// Global id of the sending node (owned by the source shard).
    pub sender: u32,
    /// Global id of the receiving node (owned by the destination shard).
    pub receiver: u32,
    /// Receiver-local adjacency position of the arc `sender → receiver`.
    pub pos: u32,
    /// The payload.
    pub msg: M,
}

impl<M: WireCodec> WireCodec for BoundaryRecord<M> {
    const MIN_WIRE_BYTES: usize = RECORD_HEAD_BYTES + M::MIN_WIRE_BYTES;

    fn encode<S: WireSink>(&self, s: &mut S) {
        self.sender.encode(s);
        self.receiver.encode(s);
        self.pos.encode(s);
        self.msg.encode(s);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let sender = r.read_u32()?;
        let receiver = r.read_u32()?;
        let pos = r.read_u32()?;
        let msg = M::decode(r)?;
        Ok(BoundaryRecord {
            sender,
            receiver,
            pos,
            msg,
        })
    }
}

impl<M: WireCodec> BoundaryRecord<M> {
    /// The wire length of a record carrying `msg`. A tampered copy has the
    /// same length (see [`crate::message::Tamper`]), so the sender's message
    /// sizes the copy its receiver gets.
    pub fn wire_len(msg: &M) -> usize {
        RECORD_HEAD_BYTES + payload_len(msg)
    }
}

/// One round's worth of cross-shard deliveries from `src_shard` to
/// `dst_shard`, exchanged as a single wire frame per ordered shard pair.
#[derive(Clone, Debug, PartialEq)]
pub struct BoundaryDelta<M> {
    /// The shard that produced these deliveries.
    pub src_shard: u32,
    /// The shard that owns every receiver in [`BoundaryDelta::records`].
    pub dst_shard: u32,
    /// The 1-based round the deliveries belong to.
    pub round: u64,
    /// The deliveries, in the deterministic order the source shard's frontier
    /// walk produced them.
    pub records: Vec<BoundaryRecord<M>>,
}

impl<M: WireCodec> WireCodec for BoundaryDelta<M> {
    fn encode<S: WireSink>(&self, s: &mut S) {
        self.src_shard.encode(s);
        self.dst_shard.encode(s);
        self.round.encode(s);
        self.records.encode(s);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let src_shard = r.read_u32()?;
        let dst_shard = r.read_u32()?;
        let round = r.read_u64()?;
        let records = Vec::decode(r)?;
        Ok(BoundaryDelta {
            src_shard,
            dst_shard,
            round,
            records,
        })
    }
}

impl<M> BoundaryDelta<M> {
    /// The length of the frame, length prefix included, whose records take
    /// `record_bytes` on the wire (the sum of their
    /// [`BoundaryRecord::wire_len`]).
    pub fn frame_len(record_bytes: usize) -> usize {
        FRAME_HEADER_BYTES + DELTA_HEAD_BYTES + record_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_frame, encode_frame};
    use dkc_graph::{CsrGraph, NodeId, Partitioner, WeightedGraph};

    fn sample_graph() -> CsrGraph {
        let mut g = WeightedGraph::new(5);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(2), 1.0);
        g.add_edge(NodeId(2), NodeId(3), 1.0);
        g.add_edge(NodeId(3), NodeId(4), 1.0);
        g.add_edge(NodeId(4), NodeId(0), 1.0);
        CsrGraph::from_graph(&g)
    }

    /// A delta whose records are genuinely cross-shard for the given plan.
    fn sample_delta(graph: &CsrGraph, owner: &[u32], src: u32, dst: u32) -> BoundaryDelta<u64> {
        let mut records = Vec::new();
        for v in graph.nodes() {
            if owner[v.index()] != src {
                continue;
            }
            for &u in graph.neighbors(v) {
                if owner[u.index()] != dst {
                    continue;
                }
                // Receiver-local position of the reverse arc u → v.
                let pos = graph
                    .neighbors(u)
                    .iter()
                    .position(|&t| t == v)
                    .expect("undirected graph has the reverse arc")
                    as u32;
                records.push(BoundaryRecord {
                    sender: v.0,
                    receiver: u.0,
                    pos,
                    msg: 1000 + u64::from(v.0),
                });
            }
        }
        BoundaryDelta {
            src_shard: src,
            dst_shard: dst,
            round: 3,
            records,
        }
    }

    fn cross_shard_setup() -> (CsrGraph, Vec<u32>, u32, u32) {
        let graph = sample_graph();
        let part = Partitioner::new(2, 42);
        let owner: Vec<u32> = (0..graph.num_nodes())
            .map(|i| part.shard_of(NodeId::new(i)) as u32)
            .collect();
        // The 5-cycle always has at least one cut arc in each direction under
        // any 2-shard assignment that uses both shards; fall back to a manual
        // split if the hash happened to put everything on one shard.
        let owner = if owner.iter().all(|&o| o == owner[0]) {
            vec![0, 1, 0, 1, 0]
        } else {
            owner
        };
        (graph, owner, 0, 1)
    }

    #[test]
    fn delta_round_trips_through_the_wire() {
        let (graph, owner, src, dst) = cross_shard_setup();
        let delta = sample_delta(&graph, &owner, src, dst);
        assert!(!delta.records.is_empty(), "setup must produce cut arcs");
        let frame = encode_frame(&delta);
        let record_bytes = delta
            .records
            .iter()
            .map(|r| BoundaryRecord::wire_len(&r.msg))
            .sum();
        assert_eq!(frame.len(), BoundaryDelta::<u64>::frame_len(record_bytes));
        let back: BoundaryDelta<u64> = decode_frame(&frame, 1 << 20).expect("decode");
        assert_eq!(back, delta);
    }

    #[test]
    fn empty_delta_round_trips() {
        let delta = BoundaryDelta::<u64> {
            src_shard: 1,
            dst_shard: 0,
            round: 9,
            records: Vec::new(),
        };
        let frame = encode_frame(&delta);
        assert_eq!(frame.len(), BoundaryDelta::<u64>::frame_len(0));
        let back: BoundaryDelta<u64> = decode_frame(&frame, 1 << 20).expect("decode");
        assert_eq!(back, delta);
    }

    #[test]
    fn truncated_frame_is_rejected_not_panicking() {
        let (graph, owner, src, dst) = cross_shard_setup();
        let delta = sample_delta(&graph, &owner, src, dst);
        let frame = encode_frame(&delta);
        for cut in 0..frame.len() {
            let err = decode_frame::<BoundaryDelta<u64>>(&frame[..cut], 1 << 20);
            assert!(err.is_err(), "prefix of {cut} bytes must not decode");
        }
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let (graph, owner, src, dst) = cross_shard_setup();
        let delta = sample_delta(&graph, &owner, src, dst);
        let frame = encode_frame(&delta);
        assert!(matches!(
            decode_frame::<BoundaryDelta<u64>>(&frame, 4).unwrap_err(),
            WireError::Oversized { .. }
        ));
    }

    #[test]
    fn hostile_record_count_does_not_overallocate() {
        // Declares u32::MAX records with a near-empty body: must fail with
        // Truncated, not abort on allocation.
        let mut payload = Vec::new();
        payload.extend_from_slice(&0u32.to_le_bytes()); // src
        payload.extend_from_slice(&1u32.to_le_bytes()); // dst
        payload.extend_from_slice(&1u64.to_le_bytes()); // round
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // record count
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        assert_eq!(
            decode_frame::<BoundaryDelta<u64>>(&frame, 1 << 20).unwrap_err(),
            WireError::Truncated
        );
    }
}
