//! Pipelined variant of the Algorithm 6 aggregation (the paper's
//! "Optimizing Message Size" remark).
//!
//! The batched aggregation of [`crate::densest`] sends the two length-`T`
//! arrays in a single message (`Θ(T)` words). Here the entries are convergecast
//! **one per round**: a node forwards the aggregate for round index `t` to its
//! parent as soon as every child has reported index `t`, and indices are sent
//! in order. Each message then carries a constant number of words
//! (`O(log n)` bits), at the cost of up to `T` extra rounds — exactly the
//! trade-off described in the paper.

use crate::bfs::BfsForest;
use crate::densest::AggregationOutcome;
use crate::tree_elim::TreeElimOutcome;
use dkc_distsim::message::{MessageSize, Tamper};
use dkc_distsim::wire::{WireCodec, WireError, WireReader, WireSink};
use dkc_distsim::{Delivery, ExecutionMode, NetworkBuilder, NodeContext, NodeProgram, Outgoing};
use dkc_graph::{CsrGraph, NodeId, WeightedGraph};

/// Messages of the pipelined aggregation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PipelinedMessage {
    /// Convergecast of one entry: `(round index, subtree num, subtree deg)`.
    UpEntry(u32, u32, f64),
    /// Downward broadcast of the decision `(t*, density estimate)`.
    Down(u32, f64),
}

impl MessageSize for PipelinedMessage {
    fn size_bits(&self) -> usize {
        match self {
            PipelinedMessage::UpEntry(..) => 1 + 32 + 32 + 64,
            PipelinedMessage::Down(..) => 1 + 32 + 64,
        }
    }
}

impl WireCodec for PipelinedMessage {
    fn encode<S: WireSink>(&self, s: &mut S) {
        match self {
            PipelinedMessage::UpEntry(t, num, deg) => {
                0u8.encode(s);
                t.encode(s);
                num.encode(s);
                deg.encode(s);
            }
            PipelinedMessage::Down(t, density) => {
                1u8.encode(s);
                t.encode(s);
                density.encode(s);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.read_u8()? {
            0 => Ok(PipelinedMessage::UpEntry(
                r.read_u32()?,
                r.read_u32()?,
                r.read_f64()?,
            )),
            1 => Ok(PipelinedMessage::Down(r.read_u32()?, r.read_f64()?)),
            tag => Err(WireError::BadTag {
                ty: "PipelinedMessage",
                tag,
            }),
        }
    }
}

// Same lie as [`AggMessage`]: the real-valued degree entry (or density) is
// perturbed downward, the structural round indices and counts stay verbatim.
impl Tamper for PipelinedMessage {
    fn tamper(&self, salt: u64) -> Self {
        match self {
            PipelinedMessage::UpEntry(t, num, deg) => {
                PipelinedMessage::UpEntry(*t, *num, deg.tamper(salt))
            }
            PipelinedMessage::Down(t, density) => PipelinedMessage::Down(*t, density.tamper(salt)),
        }
    }
}

/// Flat backing store for the pipelined aggregation: the four per-node,
/// `T`-indexed arrays live in contiguous node-major slabs (one `n × T` slab
/// each) instead of four heap `Vec`s per node; the per-node programs borrow
/// disjoint `T`-length windows.
#[derive(Clone, Debug)]
struct PipelinedArena {
    t_len: usize,
    own_num: Vec<bool>,
    agg_num: Vec<u32>,
    agg_deg: Vec<f64>,
    /// How many children have reported each entry index.
    received: Vec<u32>,
}

impl PipelinedArena {
    fn new(n: usize, t_len: usize, elim: &TreeElimOutcome) -> Self {
        let mut own_num = Vec::with_capacity(n * t_len);
        let mut agg_num = Vec::with_capacity(n * t_len);
        let mut agg_deg = Vec::with_capacity(n * t_len);
        for v in 0..n {
            own_num.extend_from_slice(&elim.num[v]);
            agg_num.extend(elim.num[v].iter().map(|&b| u32::from(b)));
            agg_deg.extend_from_slice(&elim.deg[v]);
        }
        PipelinedArena {
            t_len,
            own_num,
            agg_num,
            agg_deg,
            received: vec![0; n * t_len],
        }
    }

    fn programs<'a>(&'a mut self, forest: &BfsForest) -> Vec<PipelinedNode<'a>> {
        let n = forest.parent.len();
        let mut out = Vec::with_capacity(n);
        let mut own_num = self.own_num.as_slice();
        let mut agg_num = self.agg_num.as_mut_slice();
        let mut agg_deg = self.agg_deg.as_mut_slice();
        let mut received = self.received.as_mut_slice();
        for v in 0..n {
            let (own_num_v, own_rest) = own_num.split_at(self.t_len);
            let (agg_num_v, num_rest) = agg_num.split_at_mut(self.t_len);
            let (agg_deg_v, deg_rest) = agg_deg.split_at_mut(self.t_len);
            let (received_v, recv_rest) = received.split_at_mut(self.t_len);
            own_num = own_rest;
            agg_num = num_rest;
            agg_deg = deg_rest;
            received = recv_rest;
            out.push(PipelinedNode {
                parent: forest.parent[v],
                children: forest.children[v].clone(),
                own_num: own_num_v,
                agg_num: agg_num_v,
                agg_deg: agg_deg_v,
                received: received_v,
                next_to_send: 0,
                decision: None,
                sent_down: false,
                selected: false,
            });
        }
        out
    }
}

/// Per-node program for the pipelined aggregation (borrowing windows of a
/// [`PipelinedArena`]).
#[derive(Debug)]
struct PipelinedNode<'a> {
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    own_num: &'a [bool],
    agg_num: &'a mut [u32],
    agg_deg: &'a mut [f64],
    /// How many children have reported each entry index.
    received: &'a mut [u32],
    /// Next entry index to forward to the parent (non-roots only).
    next_to_send: usize,
    decision: Option<(u32, f64)>,
    sent_down: bool,
    selected: bool,
}

impl PipelinedNode<'_> {
    fn is_root(&self, v: NodeId) -> bool {
        self.parent == Some(v)
    }

    fn entry_complete(&self, t: usize) -> bool {
        self.received[t] as usize == self.children.len()
    }

    fn rounds(&self) -> usize {
        self.agg_num.len()
    }

    fn decide_as_root(&mut self) {
        let mut best_t = 0u32;
        let mut best_density = 0.0f64;
        for t in 0..self.rounds() {
            if self.agg_num[t] == 0 {
                continue;
            }
            let density = self.agg_deg[t] / (2.0 * self.agg_num[t] as f64);
            if density > best_density {
                best_density = density;
                best_t = t as u32;
            }
        }
        self.decision = Some((best_t, best_density));
        self.selected = self.own_num.get(best_t as usize).copied().unwrap_or(false);
    }
}

impl NodeProgram for PipelinedNode<'_> {
    type Message = PipelinedMessage;

    fn broadcast(&mut self, ctx: &NodeContext<'_>) -> Outgoing<PipelinedMessage> {
        let v = ctx.node();
        if self.parent.is_none() || self.rounds() == 0 {
            return Outgoing::Silent;
        }
        if self.is_root(v) {
            if self.decision.is_none() && self.entry_complete(self.rounds() - 1) {
                self.decide_as_root();
            }
            if let Some((t_star, density)) = self.decision {
                if !self.sent_down && !self.children.is_empty() {
                    self.sent_down = true;
                    return Outgoing::Multicast(
                        PipelinedMessage::Down(t_star, density),
                        self.children.clone(),
                    );
                }
            }
            return Outgoing::Silent;
        }
        // Non-root: forward the next complete entry, one per round.
        if self.next_to_send < self.rounds() && self.entry_complete(self.next_to_send) {
            let t = self.next_to_send;
            self.next_to_send += 1;
            let parent = self.parent.expect("non-root has a parent");
            return Outgoing::Unicast(vec![(
                parent,
                PipelinedMessage::UpEntry(t as u32, self.agg_num[t], self.agg_deg[t]),
            )]);
        }
        if let Some((t_star, density)) = self.decision {
            if !self.sent_down && !self.children.is_empty() {
                self.sent_down = true;
                return Outgoing::Multicast(
                    PipelinedMessage::Down(t_star, density),
                    self.children.clone(),
                );
            }
        }
        Outgoing::Silent
    }

    fn receive(&mut self, ctx: &NodeContext<'_>, inbox: &[Delivery<PipelinedMessage>]) -> bool {
        if self.parent.is_none() {
            return false;
        }
        let v = ctx.node();
        let mut changed = false;
        for &Delivery { sender, msg, .. } in inbox {
            match msg {
                PipelinedMessage::UpEntry(t, num, deg) => {
                    let t = t as usize;
                    if t < self.rounds() && self.children.contains(&sender) {
                        self.agg_num[t] += num;
                        self.agg_deg[t] += deg;
                        self.received[t] += 1;
                        changed = true;
                    }
                }
                PipelinedMessage::Down(t_star, density) => {
                    if Some(sender) == self.parent && !self.is_root(v) && self.decision.is_none() {
                        self.decision = Some((t_star, density));
                        self.selected = self.own_num.get(t_star as usize).copied().unwrap_or(false);
                        changed = true;
                    }
                }
            }
        }
        changed
    }
}

/// Runs the pipelined aggregation (one array entry per message). Produces the
/// same decisions and membership as [`crate::densest::run_aggregation`], with
/// `O(log n)`-bit messages and up to `T` extra rounds.
///
/// The convergecast schedule is driven by side effects in the broadcast phase
/// (a node advances `next_to_send` as it forwards), so the program is *not*
/// delta-driven and runs dense rounds under every mode.
pub fn run_pipelined_aggregation(
    g: &WeightedGraph,
    forest: &BfsForest,
    elim: &TreeElimOutcome,
    mode: ExecutionMode,
) -> AggregationOutcome {
    let rounds_budget = 3 * elim.rounds + forest.rounds + 6;
    let mut arena = PipelinedArena::new(g.num_nodes(), elim.rounds, elim);
    let mut net = NetworkBuilder::new()
        .mode(mode)
        .build_from_parts(CsrGraph::from_graph(g), arena.programs(forest));
    let rounds = net.run_until_quiescent(rounds_budget);
    let (programs, metrics) = net.into_parts();
    let selected = programs.iter().map(|p| p.selected).collect();
    let decisions = programs
        .iter()
        .enumerate()
        .map(|(v, p)| {
            if p.is_root(NodeId::new(v)) {
                p.decision.map(|(t, d)| (t as usize, d))
            } else {
                None
            }
        })
        .collect();
    AggregationOutcome {
        selected,
        decisions,
        rounds,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::run_bfs_construction;
    use crate::compact::{run_compact_elimination, RunSpec};
    use crate::densest::run_aggregation;
    use crate::tree_elim::run_tree_elimination;
    use dkc_graph::generators::{erdos_renyi, planted_dense_community};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn phases_through_3(g: &WeightedGraph, rounds: usize) -> (BfsForest, TreeElimOutcome) {
        let compact =
            run_compact_elimination(g, &RunSpec::new(rounds).mode(ExecutionMode::Dense)).unwrap();
        let forest = run_bfs_construction(g, &compact.surviving, rounds, ExecutionMode::Dense);
        let elim = run_tree_elimination(g, &forest, rounds, ExecutionMode::Dense);
        (forest, elim)
    }

    #[test]
    fn pipelined_matches_batched_aggregation() {
        let mut rng = StdRng::seed_from_u64(91);
        for _ in 0..3 {
            let planted = planted_dense_community(60, 12, 0.05, 0.85, &mut rng);
            let g = &planted.graph;
            let rounds = 6;
            let (forest, elim) = phases_through_3(g, rounds);
            let batched = run_aggregation(g, &forest, &elim, ExecutionMode::Dense);
            let pipelined = run_pipelined_aggregation(g, &forest, &elim, ExecutionMode::Dense);
            assert_eq!(batched.selected, pipelined.selected);
            assert_eq!(batched.decisions, pipelined.decisions);
        }
    }

    #[test]
    fn pipelined_messages_are_constant_size() {
        let mut rng = StdRng::seed_from_u64(92);
        let g = erdos_renyi(80, 0.06, &mut rng);
        let rounds = 10;
        let (forest, elim) = phases_through_3(&g, rounds);
        let batched = run_aggregation(&g, &forest, &elim, ExecutionMode::Dense);
        let pipelined = run_pipelined_aggregation(&g, &forest, &elim, ExecutionMode::Dense);
        // Batched messages grow with T; pipelined stay at ~130 bits.
        assert!(batched.metrics.totals().max_message_bits > 96 * rounds / 2);
        assert!(pipelined.metrics.totals().max_message_bits <= 129);
        // Pipelining costs extra rounds but stays within the 3T + O(1) budget.
        assert!(pipelined.rounds >= batched.rounds);
        assert!(pipelined.rounds <= 3 * rounds + forest.rounds + 6);
    }

    #[test]
    fn empty_and_trivial_graphs() {
        let g = WeightedGraph::new(3);
        let (forest, elim) = phases_through_3(&g, 2);
        let out = run_pipelined_aggregation(&g, &forest, &elim, ExecutionMode::Dense);
        assert_eq!(out.selected.len(), 3);
    }
}
