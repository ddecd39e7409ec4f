//! Algorithm 4: BFS-forest construction / leader election within `T` hops.
//!
//! Every node starts as its own leader with key `(b_v, v)`; for `T` rounds the
//! best key floods the network one hop per round. Afterwards a node's leader is
//! the best key within `T` hops (along greedily chosen parents), and two extra
//! rounds (parent request + acknowledgement) consolidate the parent/children
//! pointers into a forest of depth ≤ `T` trees.
//!
//! Fact IV.2: the node with the globally best key becomes the root of a tree
//! containing **all** nodes within `T` hops of it — the property that makes the
//! weak densest-subset guarantee go through.
//!
//! Phase 2 of the weak densest-subset pipeline ([`crate::densest`]): it runs
//! on the [`CsrGraph`] phase 1 handed back and hands it on to phase 3.

use dkc_distsim::message::{MessageSize, Tamper};
use dkc_distsim::wire::{WireCodec, WireError, WireReader, WireSink};
use dkc_distsim::{
    Delivery, ExecutionMode, NetworkBuilder, NodeContext, NodeProgram, Outgoing, RunMetrics,
};
use dkc_graph::{CsrGraph, NodeId};

/// A leader key `(b_v, v)`, ordered by `b` descending with ties broken by the
/// global node ordering (smaller id wins).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LeaderKey {
    /// The leader's surviving number.
    pub b: f64,
    /// The leader's identity.
    pub id: NodeId,
}

impl LeaderKey {
    /// Returns `true` if `self` strictly beats `other` in the ordering `≻`.
    pub fn beats(&self, other: &LeaderKey) -> bool {
        self.b > other.b || (self.b == other.b && self.id < other.id)
    }
}

impl MessageSize for LeaderKey {
    fn size_bits(&self) -> usize {
        64 + 32
    }
}

impl WireCodec for LeaderKey {
    fn encode<S: WireSink>(&self, s: &mut S) {
        self.b.encode(s);
        self.id.0.encode(s);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let b = r.read_f64()?;
        let id = NodeId(r.read_u32()?);
        Ok(LeaderKey { b, id })
    }
}

/// Messages exchanged by Algorithm 4.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BfsMessage {
    /// Flooding phase: "my current leader is ...".
    Leader(LeaderKey),
    /// Parent-request phase: "I chose you as my parent; my leader is ...".
    Request(LeaderKey),
    /// Acknowledgement phase: "accepted, you are my child".
    Ack,
}

impl MessageSize for BfsMessage {
    fn size_bits(&self) -> usize {
        match self {
            BfsMessage::Leader(k) | BfsMessage::Request(k) => 2 + k.size_bits(),
            BfsMessage::Ack => 2,
        }
    }
}

impl WireCodec for BfsMessage {
    fn encode<S: WireSink>(&self, s: &mut S) {
        match self {
            BfsMessage::Leader(k) => {
                0u8.encode(s);
                k.encode(s);
            }
            BfsMessage::Request(k) => {
                1u8.encode(s);
                k.encode(s);
            }
            BfsMessage::Ack => 2u8.encode(s),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.read_u8()? {
            0 => Ok(BfsMessage::Leader(LeaderKey::decode(r)?)),
            1 => Ok(BfsMessage::Request(LeaderKey::decode(r)?)),
            2 => Ok(BfsMessage::Ack),
            tag => Err(WireError::BadTag {
                ty: "BfsMessage",
                tag,
            }),
        }
    }
}

// A byzantine node lies about its leader's surviving number `b` (downward —
// weakening the advertised key in the `≻` ordering); the leader *identity*
// and the message tag are structural and stay verbatim, keeping the frame
// length-preserving per the [`Tamper`] contract.
impl Tamper for BfsMessage {
    fn tamper(&self, salt: u64) -> Self {
        let lie = |k: &LeaderKey| LeaderKey {
            b: k.b.tamper(salt),
            id: k.id,
        };
        match self {
            BfsMessage::Leader(k) => BfsMessage::Leader(lie(k)),
            BfsMessage::Request(k) => BfsMessage::Request(lie(k)),
            BfsMessage::Ack => BfsMessage::Ack,
        }
    }
}

/// Parent pointer state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Parent {
    /// This node is a root (`parent[v] = v`).
    Root,
    /// Tentative or confirmed parent.
    Node(NodeId),
    /// The request was not acknowledged (`parent[v] = ⊥`).
    Orphan,
}

/// Per-node program for Algorithm 4.
#[derive(Clone, Debug)]
pub struct BfsNode {
    leader: LeaderKey,
    parent: Parent,
    children: Vec<NodeId>,
    accepted_requesters: Vec<NodeId>,
    got_ack: bool,
    flood_rounds: usize,
}

impl BfsNode {
    fn new(own: LeaderKey, flood_rounds: usize) -> Self {
        BfsNode {
            leader: own,
            parent: Parent::Root,
            children: Vec::new(),
            accepted_requesters: Vec::new(),
            got_ack: false,
            flood_rounds,
        }
    }
}

impl NodeProgram for BfsNode {
    type Message = BfsMessage;

    fn broadcast(&mut self, ctx: &NodeContext<'_>) -> Outgoing<BfsMessage> {
        let round = ctx.round();
        if round <= self.flood_rounds {
            Outgoing::Broadcast(BfsMessage::Leader(self.leader))
        } else if round == self.flood_rounds + 1 {
            // Request-parent round.
            match self.parent {
                Parent::Node(p) => Outgoing::Unicast(vec![(p, BfsMessage::Request(self.leader))]),
                _ => Outgoing::Silent,
            }
        } else if round == self.flood_rounds + 2 {
            // Acknowledgement round.
            if self.accepted_requesters.is_empty() {
                Outgoing::Silent
            } else {
                Outgoing::Multicast(BfsMessage::Ack, self.accepted_requesters.clone())
            }
        } else {
            Outgoing::Silent
        }
    }

    fn receive(&mut self, ctx: &NodeContext<'_>, inbox: &[Delivery<BfsMessage>]) -> bool {
        let round = ctx.round();
        if round <= self.flood_rounds {
            // Adopt the best advertised leader if it beats the current one;
            // the sender advertising it becomes the tentative parent. Ties
            // among senders are broken towards the smallest sender id because
            // the inbox follows the neighbour-list order and we use strict
            // improvement.
            let mut best: Option<(NodeId, LeaderKey)> = None;
            for &Delivery { sender, msg, .. } in inbox {
                if let BfsMessage::Leader(key) = msg {
                    match best {
                        None => best = Some((sender, key)),
                        Some((_, cur)) if key.beats(&cur) => best = Some((sender, key)),
                        _ => {}
                    }
                }
            }
            if let Some((sender, key)) = best {
                if key.beats(&self.leader) {
                    self.leader = key;
                    self.parent = Parent::Node(sender);
                    return true;
                }
            }
            false
        } else if round == self.flood_rounds + 1 {
            // Collect child requests whose leader matches ours.
            for &Delivery { sender, msg, .. } in inbox {
                if let BfsMessage::Request(key) = msg {
                    if key == self.leader {
                        self.children.push(sender);
                        self.accepted_requesters.push(sender);
                    }
                }
            }
            !self.children.is_empty()
        } else if round == self.flood_rounds + 2 {
            // Confirm (or orphan) the parent.
            if let Parent::Node(p) = self.parent {
                self.got_ack = inbox
                    .iter()
                    .any(|d| d.sender == p && d.msg == BfsMessage::Ack);
                if !self.got_ack {
                    self.parent = Parent::Orphan;
                }
            }
            true
        } else {
            false
        }
    }
}

/// The BFS forest produced by Algorithm 4.
#[derive(Clone, Debug)]
pub struct BfsForest {
    /// `leader[v]` — the leader key adopted by node `v`.
    pub leader: Vec<LeaderKey>,
    /// `parent[v]` — `Some(v)` for roots, `Some(u)` for confirmed parents,
    /// `None` for orphans (request not acknowledged).
    pub parent: Vec<Option<NodeId>>,
    /// `children[v]` — the confirmed children of `v`.
    pub children: Vec<Vec<NodeId>>,
    /// Number of rounds used (`T + 2`).
    pub rounds: usize,
    /// Communication metrics.
    pub metrics: RunMetrics,
}

impl BfsForest {
    /// Whether `v` participates in a tree (root or confirmed child).
    pub fn in_tree(&self, v: NodeId) -> bool {
        self.parent[v.index()].is_some()
    }

    /// The roots of the forest (nodes that are their own parent).
    pub fn roots(&self) -> Vec<NodeId> {
        self.parent
            .iter()
            .enumerate()
            .filter(|&(v, &p)| p == Some(NodeId::new(v)))
            .map(|(v, _)| NodeId::new(v))
            .collect()
    }
}

/// Runs Algorithm 4 on `g`: `flood_rounds` rounds of leader flooding plus
/// the two consolidation rounds, using the per-node values `b` (typically the
/// output of the compact elimination procedure) as leader keys. The network
/// runs on `g` and hands it back beside the forest.
///
/// The round-phased protocol is not delta-driven (its behaviour depends on
/// the round number, not only on received deltas), so it runs dense rounds
/// under every mode.
pub fn run_bfs_construction(
    g: CsrGraph,
    b: &[f64],
    flood_rounds: usize,
    mode: ExecutionMode,
) -> (BfsForest, CsrGraph) {
    assert_eq!(b.len(), g.num_nodes());
    let mut net = NetworkBuilder::new().mode(mode).build(g, |ctx| {
        BfsNode::new(
            LeaderKey {
                b: b[ctx.node().index()],
                id: ctx.node(),
            },
            flood_rounds,
        )
    });
    net.run(flood_rounds + 2);
    let (graph, programs, metrics) = net.into_graph_and_parts();
    let mut leader = Vec::with_capacity(programs.len());
    let mut parent = Vec::with_capacity(programs.len());
    let mut children = Vec::with_capacity(programs.len());
    for (v, p) in graph.nodes().zip(programs) {
        leader.push(p.leader);
        parent.push(match p.parent {
            Parent::Root => Some(v),
            Parent::Node(u) => Some(u),
            Parent::Orphan => None,
        });
        children.push(p.children);
    }
    let forest = BfsForest {
        leader,
        parent,
        children,
        rounds: flood_rounds + 2,
        metrics,
    };
    (forest, graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkc_graph::generators::{erdos_renyi, grid_graph, path_graph};
    use dkc_graph::properties::bfs_distances;
    use dkc_graph::WeightedGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The dense-round forest of `g` under keys `b`.
    fn forest_of(g: &WeightedGraph, b: &[f64], flood_rounds: usize) -> BfsForest {
        run_bfs_construction(CsrGraph::from(g), b, flood_rounds, ExecutionMode::Dense).0
    }

    #[test]
    fn leader_key_ordering() {
        let a = LeaderKey {
            b: 5.0,
            id: NodeId(3),
        };
        let b = LeaderKey {
            b: 4.0,
            id: NodeId(1),
        };
        let c = LeaderKey {
            b: 5.0,
            id: NodeId(1),
        };
        assert!(a.beats(&b));
        assert!(c.beats(&a));
        assert!(!a.beats(&a));
    }

    #[test]
    fn single_global_leader_captures_t_hop_ball() {
        // Path of 11 nodes; node 5 has the unique largest value. With T = 3 its
        // tree must contain exactly the nodes within 3 hops (2..=8).
        let g = path_graph(11);
        let mut b = vec![1.0; 11];
        b[5] = 10.0;
        let forest = forest_of(&g, &b, 3);
        let csr = CsrGraph::from(&g);
        let dist = bfs_distances(&csr, NodeId(5));
        for v in 0..11 {
            if dist[v] <= 3 {
                assert_eq!(
                    forest.leader[v].id,
                    NodeId(5),
                    "node {v} within 3 hops must adopt leader 5"
                );
                assert!(forest.in_tree(NodeId::new(v)));
            } else {
                assert_ne!(forest.leader[v].id, NodeId(5));
            }
        }
        assert!(forest.roots().contains(&NodeId(5)));
    }

    #[test]
    fn parents_form_valid_forest() {
        let mut rng = StdRng::seed_from_u64(41);
        let g = erdos_renyi(80, 0.06, &mut rng);
        let b: Vec<f64> = (0..80).map(|v| (v % 7) as f64).collect();
        let forest = forest_of(&g, &b, 4);
        for v in 0..80 {
            let vid = NodeId::new(v);
            match forest.parent[v] {
                Some(p) if p == vid => {
                    // Root: must be its own leader.
                    assert_eq!(forest.leader[v].id, vid);
                }
                Some(p) => {
                    // Confirmed child: parent is a graph neighbour, shares the
                    // leader, and lists v among its children.
                    assert!(g.neighbors(vid).iter().any(|&(u, _)| u == p));
                    assert_eq!(forest.leader[v], forest.leader[p.index()]);
                    assert!(forest.children[p.index()].contains(&vid));
                }
                None => {
                    // Orphan: its tentative parent had a different leader.
                }
            }
        }
        // children lists only contain nodes that point back to the parent.
        for v in 0..80 {
            for &c in &forest.children[v] {
                assert_eq!(forest.parent[c.index()], Some(NodeId::new(v)));
            }
        }
    }

    #[test]
    fn leader_values_dominate_own_values() {
        // A node never adopts a leader whose key is worse than its own.
        let mut rng = StdRng::seed_from_u64(42);
        let g = erdos_renyi(60, 0.08, &mut rng);
        let b: Vec<f64> = (0..60).map(|v| ((v * 13) % 10) as f64).collect();
        let forest = forest_of(&g, &b, 5);
        for v in 0..60 {
            let own = LeaderKey {
                b: b[v],
                id: NodeId::new(v),
            };
            assert!(
                forest.leader[v] == own || forest.leader[v].beats(&own),
                "node {v} adopted a worse leader"
            );
        }
    }

    #[test]
    fn zero_flood_rounds_leaves_everyone_as_root() {
        let g = grid_graph(3, 3);
        let b = vec![1.0; 9];
        let forest = forest_of(&g, &b, 0);
        assert_eq!(forest.roots().len(), 9);
        for v in 0..9 {
            assert_eq!(forest.leader[v].id, NodeId::new(v));
        }
    }

    #[test]
    fn ties_are_broken_by_node_id() {
        // All equal values: the global minimum id should win everywhere within
        // T hops of it on a small graph.
        let g = grid_graph(3, 3);
        let b = vec![2.0; 9];
        let forest = forest_of(&g, &b, 4);
        for v in 0..9 {
            assert_eq!(forest.leader[v].id, NodeId(0), "node {v}");
        }
        assert_eq!(forest.roots(), vec![NodeId(0)]);
    }
}
