//! The per-node program interface.

use dkc_graph::{CsrGraph, NodeId};

/// Read-only view a node has of its own surroundings, matching the LOCAL
/// model: its identity, the total number of nodes `n` (the paper assumes every
/// node knows `n` or an upper bound), its incident edges with weights, and the
/// current round number.
#[derive(Clone, Copy)]
pub struct NodeContext<'a> {
    graph: &'a CsrGraph,
    node: NodeId,
    round: usize,
}

impl<'a> NodeContext<'a> {
    /// Creates a context for `node` at `round`.
    pub fn new(graph: &'a CsrGraph, node: NodeId, round: usize) -> Self {
        NodeContext { graph, node, round }
    }

    /// This node's identity.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Total number of nodes in the network (known to every node).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Current round, starting at 1 for the first communication round
    /// (round 0 denotes initialization).
    #[inline]
    pub fn round(&self) -> usize {
        self.round
    }

    /// Ids of this node's neighbours (parallel edges appear individually).
    #[inline]
    pub fn neighbors(&self) -> &'a [NodeId] {
        self.graph.neighbors(self.node)
    }

    /// Weights of the incident edges, aligned with [`NodeContext::neighbors`].
    #[inline]
    pub fn neighbor_weights(&self) -> &'a [f64] {
        self.graph.neighbor_weights(self.node)
    }

    /// This node's weighted degree (self-loop counted once).
    #[inline]
    pub fn degree(&self) -> f64 {
        self.graph.degree(self.node)
    }

    /// This node's self-loop weight (non-zero only in quotient-graph inputs).
    #[inline]
    pub fn self_loop(&self) -> f64 {
        self.graph.self_loop(self.node)
    }

    /// Number of incident (non-loop) edges.
    #[inline]
    pub fn num_neighbors(&self) -> usize {
        self.graph.unweighted_degree(self.node)
    }
}

/// One message as it arrives in a node's inbox.
///
/// Besides the payload and the sender id, every delivery carries the
/// **receiver-local adjacency position** of the arc it arrived on: `pos`
/// indexes the receiver's [`NodeContext::neighbors`] /
/// [`NodeContext::neighbor_weights`] slices. Programs that keep per-neighbour
/// state (cached values, alive flags, …) can therefore merge an inbox in
/// `O(|inbox|)` without rescanning their adjacency list and without relying on
/// any particular inbox ordering — which is what makes frontier rounds (see
/// [`crate::ExecutionMode::Auto`]) possible. A broadcast or
/// multicast over parallel edges is delivered once per arc, each with its own
/// `pos`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery<M> {
    /// The sending node.
    pub sender: NodeId,
    /// Receiver-local adjacency position of the arc the message arrived on.
    pub pos: u32,
    /// The payload.
    pub msg: M,
}

/// What a node sends in the broadcast phase of a round.
#[derive(Clone, Debug, PartialEq)]
pub enum Outgoing<M> {
    /// Send nothing this round.
    Silent,
    /// Send the same message to every neighbour (the paper's broadcast model).
    Broadcast(M),
    /// Send the same message to the listed subset of neighbours (still within
    /// the broadcast model: "a node sends the same message to (a subset of) its
    /// neighbors"). Each distinct target gets one copy per arc to it, and is
    /// charged for those: a repeated entry adds nothing.
    Multicast(M, Vec<NodeId>),
    /// Point-to-point messages (used by the convergecast of Algorithm 6, where
    /// a node talks only to its BFS parent/children).
    Unicast(Vec<(NodeId, M)>),
}

/// A per-node state machine executed by the [`crate::Network`].
///
/// Each synchronous round has two phases, mirroring the paper's pseudocode
/// ("each node broadcasts its current number to all its neighbors"; "after
/// receiving the updated numbers from its neighbours, the node performs ..."):
///
/// 1. [`NodeProgram::broadcast`] — produce this round's outgoing message(s)
///    from the current state.
/// 2. [`NodeProgram::receive`] — consume the messages delivered this round
///    (from neighbours that sent to this node) and update local state. The
///    return value reports whether observable state changed, which the
///    executor uses for quiescence detection.
///
/// A node that has locally terminated returns `true` from
/// [`NodeProgram::halted`]; the executor then skips both phases for it.
pub trait NodeProgram: Send {
    /// The message payload type.
    type Message: Clone
        + Send
        + Sync
        + crate::message::MessageSize
        + crate::message::Tamper
        + crate::wire::WireCodec;

    /// Whether this program satisfies the **delta-driven contract** that
    /// frontier rounds need; [`crate::ExecutionMode::Auto`] runs a program
    /// that sets it over the active frontier, and any other program dense:
    ///
    /// 1. [`NodeProgram::broadcast`] is a pure function of the node's
    ///    observable state (no side effects), so a node whose last
    ///    [`NodeProgram::receive`] returned `false` would re-send exactly the
    ///    message(s) it sent before;
    /// 2. `receive` is an idempotent per-neighbour cache merge: re-delivering
    ///    an already-known value, or omitting the message of a neighbour whose
    ///    value did not change, does not alter the node's resulting state;
    /// 3. after a node's first executed step, `receive` with an empty inbox
    ///    is a no-op;
    /// 4. the inbox may arrive in any order (merge by [`Delivery::pos`], not
    ///    by position in the inbox slice).
    ///
    /// Under this contract a frontier round skips the broadcast of unchanged
    /// nodes and the step of untouched nodes while remaining
    /// **result-identical** to a dense round — including under deterministic
    /// message loss (a sender with dropped copies stays active and re-sends,
    /// exactly reproducing the rounds at which a dense run would have
    /// delivered). Programs that leave this `false` (the default) always run
    /// dense rounds.
    const DELTA_DRIVEN: bool = false;

    /// Phase 1: produce the messages to send this round.
    fn broadcast(&mut self, ctx: &NodeContext<'_>) -> Outgoing<Self::Message>;

    /// Phase 2: process messages received this round. `inbox` contains one
    /// [`Delivery`] per arc on which a neighbour addressed this node. In a
    /// dense round the inbox is ordered consistently with this node's
    /// neighbour list; in a frontier round the order is unspecified (use
    /// [`Delivery::pos`]).
    /// Returns `true` if the node's observable state changed.
    fn receive(&mut self, ctx: &NodeContext<'_>, inbox: &[Delivery<Self::Message>]) -> bool;

    /// Whether the node has locally terminated.
    fn halted(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkc_graph::{NodeId, WeightedGraph};

    #[test]
    fn context_exposes_local_view() {
        let mut g = WeightedGraph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 2.0);
        g.add_edge(NodeId(0), NodeId(2), 3.0);
        let csr = CsrGraph::from(&g);
        let ctx = NodeContext::new(&csr, NodeId(0), 4);
        assert_eq!(ctx.node(), NodeId(0));
        assert_eq!(ctx.num_nodes(), 3);
        assert_eq!(ctx.round(), 4);
        assert_eq!(ctx.num_neighbors(), 2);
        assert_eq!(ctx.degree(), 5.0);
        assert_eq!(ctx.neighbors(), &[NodeId(1), NodeId(2)]);
        assert_eq!(ctx.neighbor_weights(), &[2.0, 3.0]);
    }
}
