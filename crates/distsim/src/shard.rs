//! Cross-shard boundary frames for sharded execution
//! ([`crate::NetworkBuilder::shards`]).
//!
//! Sharded execution assigns every node to a shard (the deterministic
//! `dkc_graph::Partitioner` assignment) and charges each round for the
//! copies that would cross a shard cut between shard hosts: one
//! [`BoundaryDelta`] frame per ordered shard pair, holding the round's copies
//! from senders on the source shard to receivers on the destination shard.
//! Only boundary senders in the round's sparse frontier contribute records.
//! The frames are accounting: the round's push or pull delivers the copies.
//!
//! Like every other frame in this crate the delta is encoded in the
//! [`crate::wire`] format (length-prefixed, strict decode), and each frame is
//! decoded and validated structurally as a peer would on receipt: a frame
//! naming the wrong shard pair or round, a sender/receiver the owner table
//! contradicts, or an adjacency position that does not map back to the
//! claimed sender is a [`ShardFrameError`] attributed to the sending shard —
//! never a panic. This is the same tofn-style defensive-decode discipline the
//! mailbox executor applies to node frames.

use std::fmt;

use dkc_graph::{CsrGraph, NodeId};

use crate::wire::{WireCodec, WireError, WireReader, WireSink};

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
    const MIN_WIRE_BYTES: usize = 12 + M::MIN_WIRE_BYTES;

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

/// Structural rejection of a decoded [`BoundaryDelta`], attributed to the
/// sending shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardFrameError {
    /// The frame names a different shard pair than the link it arrived on.
    ShardMismatch {
        got_src: u32,
        got_dst: u32,
        want_src: u32,
        want_dst: u32,
    },
    /// The frame's round does not match the round being exchanged.
    RoundMismatch { got: u64, want: u64 },
    /// A record names a node outside the graph's node range.
    NodeOutOfRange { node: u32 },
    /// A record's sender is not owned by the frame's source shard.
    ForeignSender { sender: u32, owner: u32 },
    /// A record's receiver is not owned by the frame's destination shard.
    ForeignReceiver { receiver: u32, owner: u32 },
    /// A record's adjacency position is out of range for the receiver, or the
    /// arc at that position does not come from the claimed sender.
    BadArc {
        sender: u32,
        receiver: u32,
        pos: u32,
    },
}

impl fmt::Display for ShardFrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardFrameError::ShardMismatch {
                got_src,
                got_dst,
                want_src,
                want_dst,
            } => write!(
                f,
                "frame claims shard pair {got_src}→{got_dst}, link is {want_src}→{want_dst}"
            ),
            ShardFrameError::RoundMismatch { got, want } => {
                write!(f, "frame is for round {got}, exchange is round {want}")
            }
            ShardFrameError::NodeOutOfRange { node } => {
                write!(f, "node id {node} outside graph range")
            }
            ShardFrameError::ForeignSender { sender, owner } => {
                write!(f, "sender {sender} is owned by shard {owner}, not the source shard")
            }
            ShardFrameError::ForeignReceiver { receiver, owner } => write!(
                f,
                "receiver {receiver} is owned by shard {owner}, not the destination shard"
            ),
            ShardFrameError::BadArc {
                sender,
                receiver,
                pos,
            } => write!(
                f,
                "adjacency position {pos} of receiver {receiver} does not carry an arc from {sender}"
            ),
        }
    }
}

impl std::error::Error for ShardFrameError {}

impl<M> BoundaryDelta<M> {
    /// Validates a decoded frame against the link it arrived on (`want_src →
    /// want_dst`, `want_round`), the graph topology, and the node → shard
    /// `owner` table. Rejects — without panicking — any frame whose structural
    /// claims a hostile or buggy peer shard could not truthfully make.
    pub fn validate(
        &self,
        want_src: u32,
        want_dst: u32,
        want_round: u64,
        graph: &CsrGraph,
        owner: &[u32],
    ) -> Result<(), ShardFrameError> {
        if self.src_shard != want_src || self.dst_shard != want_dst {
            return Err(ShardFrameError::ShardMismatch {
                got_src: self.src_shard,
                got_dst: self.dst_shard,
                want_src,
                want_dst,
            });
        }
        if self.round != want_round {
            return Err(ShardFrameError::RoundMismatch {
                got: self.round,
                want: want_round,
            });
        }
        let n = owner.len();
        for rec in &self.records {
            if rec.sender as usize >= n {
                return Err(ShardFrameError::NodeOutOfRange { node: rec.sender });
            }
            if rec.receiver as usize >= n {
                return Err(ShardFrameError::NodeOutOfRange { node: rec.receiver });
            }
            let sender_owner = owner[rec.sender as usize];
            if sender_owner != self.src_shard {
                return Err(ShardFrameError::ForeignSender {
                    sender: rec.sender,
                    owner: sender_owner,
                });
            }
            let receiver_owner = owner[rec.receiver as usize];
            if receiver_owner != self.dst_shard {
                return Err(ShardFrameError::ForeignReceiver {
                    receiver: rec.receiver,
                    owner: receiver_owner,
                });
            }
            let neighbors = graph.neighbors(NodeId(rec.receiver));
            let from = neighbors.get(rec.pos as usize);
            if from != Some(&NodeId(rec.sender)) {
                return Err(ShardFrameError::BadArc {
                    sender: rec.sender,
                    receiver: rec.receiver,
                    pos: rec.pos,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_frame, encode_frame, payload_len, FRAME_HEADER_BYTES};
    use dkc_graph::{Partitioner, WeightedGraph};

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
        assert_eq!(frame.len(), FRAME_HEADER_BYTES + payload_len(&delta));
        let back: BoundaryDelta<u64> = decode_frame(&frame, 1 << 20).expect("decode");
        assert_eq!(back, delta);
        back.validate(src, dst, 3, &graph, &owner).expect("valid");
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

    #[test]
    fn validate_rejects_wrong_link_and_round() {
        let (graph, owner, src, dst) = cross_shard_setup();
        let delta = sample_delta(&graph, &owner, src, dst);
        assert!(matches!(
            delta.validate(dst, src, 3, &graph, &owner).unwrap_err(),
            ShardFrameError::ShardMismatch { .. }
        ));
        assert!(matches!(
            delta.validate(src, dst, 4, &graph, &owner).unwrap_err(),
            ShardFrameError::RoundMismatch { got: 3, want: 4 }
        ));
    }

    #[test]
    fn validate_rejects_forged_records() {
        let (graph, owner, src, dst) = cross_shard_setup();
        let delta = sample_delta(&graph, &owner, src, dst);

        let mut out_of_range = delta.clone();
        out_of_range.records[0].receiver = 99;
        assert!(matches!(
            out_of_range
                .validate(src, dst, 3, &graph, &owner)
                .unwrap_err(),
            ShardFrameError::NodeOutOfRange { node: 99 }
        ));

        // Claim a sender the destination shard owns itself.
        let mut foreign = delta.clone();
        let local = (0..owner.len()).find(|&i| owner[i] == dst).unwrap() as u32;
        foreign.records[0].sender = local;
        let err = foreign.validate(src, dst, 3, &graph, &owner).unwrap_err();
        assert!(
            matches!(
                err,
                ShardFrameError::ForeignSender { .. } | ShardFrameError::BadArc { .. }
            ),
            "{err}"
        );

        let mut bad_pos = delta.clone();
        bad_pos.records[0].pos = u32::MAX;
        assert!(matches!(
            bad_pos.validate(src, dst, 3, &graph, &owner).unwrap_err(),
            ShardFrameError::BadArc { .. }
        ));
    }

    #[test]
    fn frame_errors_display() {
        let e = ShardFrameError::ForeignReceiver {
            receiver: 7,
            owner: 2,
        };
        assert!(e.to_string().contains("receiver 7"));
        let e = ShardFrameError::ShardMismatch {
            got_src: 0,
            got_dst: 1,
            want_src: 1,
            want_dst: 0,
        };
        assert!(e.to_string().contains("0→1"));
    }
}
