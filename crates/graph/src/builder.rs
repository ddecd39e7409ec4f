//! Graph construction with parallel-edge merging.
//!
//! [`GraphBuilder`] records edges as they arrive and merges them once, in
//! [`GraphBuilder::build`], without hashing. Merge semantics:
//!
//! * Every copy of a pair `{u, v}` (either orientation) is summed in input
//!   order starting from `0.0`, so a lone `-0.0` weight merges to `0.0`.
//!   Repeated self-loops `{v, v}` are summed the same way.
//! * The merged graph is built in ascending pair order, plain edges first and
//!   then self-loops by node, so every adjacency list is sorted by neighbour
//!   and the structure does not depend on the order the pairs arrived in
//!   (only sums of parallel copies with inexact weights do).
//!
//! The merge is a stable sort, a counting sort by the smaller endpoint and
//! then each bucket by the larger, so parallel copies meet in input order.
//! The graph is then filled in one pass with each adjacency list allocated
//! at its final size, so building is O(edges + nodes) plus the per-bucket
//! sorts.

use crate::io::ParseError;
use crate::node::NodeId;
use crate::weighted::WeightedGraph;

/// Normalized `(min, max, w)` edges; `min == max` is a self-loop.
type Edges = Vec<(NodeId, NodeId, f64)>;

/// Builds a [`WeightedGraph`] from a stream of (possibly duplicated) weighted
/// edges. Parallel edges are merged by **summing** their weights, which is the
/// semantics used throughout the paper (a multigraph and its weight-summed
/// simple graph have identical degrees, densities, coreness values and
/// orientations). See the module docs for the exact summation order.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    /// Every edge added so far, in input order.
    edges: Edges,
}

impl GraphBuilder {
    /// Creates a builder for a graph with at least `n` nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Current number of nodes (grows automatically when edges mention new ids).
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Ensures the node range covers `v`.
    pub fn ensure_node(&mut self, v: NodeId) {
        if v.index() >= self.n {
            self.n = v.index() + 1;
        }
    }

    /// Adds an edge, to be merged with any parallel edge by summing weights.
    /// Endpoints outside the current node range grow the graph.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: f64) -> &mut Self {
        assert!(
            w.is_finite() && w >= 0.0,
            "edge weight must be finite and non-negative"
        );
        self.ensure_node(u);
        self.ensure_node(v);
        self.edges.push((u.min(v), u.max(v), w));
        self
    }

    /// Adds a unit-weight edge.
    pub fn add_unit_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        self.add_edge(u, v, 1.0)
    }

    /// Finalizes the builder into a [`WeightedGraph`], merging parallel edges
    /// and repeated self-loops as described in the module docs.
    pub fn build(self) -> WeightedGraph {
        let n = self.n;
        let (plain, loops, _) = self.merge();
        WeightedGraph::from_edges(n, &plain, &loops)
    }

    /// [`GraphBuilder::build`] for untrusted input: a merged weight or a
    /// total weighted degree 2·w(E) that overflows is
    /// [`ParseError::WeightOverflow`] instead of a panic or an infinite
    /// graph.
    pub(crate) fn try_build(self) -> Result<WeightedGraph, ParseError> {
        let n = self.n;
        let (plain, loops, total) = self.merge();
        ParseError::check_weight_total(total)?;
        Ok(WeightedGraph::from_edges(n, &plain, &loops))
    }

    /// The merged plain edges and self-loops, and the sum of their weights.
    fn merge(self) -> (Edges, Vec<(NodeId, f64)>, f64) {
        let sorted = sort_pairs(self.n, self.edges);
        let mut plain = Vec::with_capacity(sorted.len());
        let mut loops = Vec::new();
        let mut total = 0.0;
        for copies in sorted.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (u, v, _) = copies[0];
            let w = copies.iter().fold(0.0, |sum, &(_, _, w)| sum + w);
            total += w;
            if u == v {
                loops.push((u, w));
            } else {
                plain.push((u, v, w));
            }
        }
        (plain, loops, total)
    }
}

/// Sorts normalized `(min, max, w)` edges by `(min, max)`, stably: a
/// counting sort by `min`, then a stable sort of each bucket by `max`.
fn sort_pairs(n: usize, edges: Edges) -> Edges {
    // `next[u]` is where bucket `u`'s next edge goes; after the fill it is
    // the end of bucket `u`.
    let mut next = vec![0usize; n];
    for &(u, _, _) in &edges {
        next[u.index()] += 1;
    }
    let mut start = 0;
    for slot in &mut next {
        let count = *slot;
        *slot = start;
        start += count;
    }
    let mut sorted = vec![(NodeId(0), NodeId(0), 0.0); edges.len()];
    for e in edges {
        let slot = &mut next[e.0.index()];
        sorted[*slot] = e;
        *slot += 1;
    }
    let mut lo = 0;
    for hi in next {
        sorted[lo..hi].sort_by_key(|&(_, v, _)| v);
        lo = hi;
    }
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_parallel_edges() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1.0);
        b.add_edge(NodeId(1), NodeId(0), 2.5);
        b.add_unit_edge(NodeId(1), NodeId(2));
        let g = b.build();
        g.check_consistency();
        assert_eq!(g.num_plain_edges(), 2);
        assert_eq!(g.neighbors(NodeId(0)), &[(NodeId(1), 3.5)]);
        assert!(!g.neighbor_set(NodeId(0)).contains(&NodeId(2)));
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(NodeId(0)), 3.5);
        assert_eq!(g.degree(NodeId(1)), 4.5);
    }

    #[test]
    fn sums_parallel_copies_in_input_order_from_zero() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(1), NodeId(0), 0.1);
        b.add_edge(NodeId(0), NodeId(1), 0.2);
        b.add_edge(NodeId(1), NodeId(0), 0.3);
        b.add_edge(NodeId(1), NodeId(1), -0.0);
        let g = b.build();
        let w = g.neighbors(NodeId(0))[0].1;
        assert_eq!(w.to_bits(), ((0.0 + 0.1) + 0.2 + 0.3f64).to_bits());
        assert_ne!(w.to_bits(), (0.1 + (0.2 + 0.3f64)).to_bits());
        // `0.0 + -0.0` is `+0.0`.
        assert_eq!(g.self_loop(NodeId(1)).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn grows_node_range() {
        let mut b = GraphBuilder::new(0);
        b.add_edge(NodeId(5), NodeId(2), 1.0);
        let g = b.build();
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.degree(NodeId(5)), 1.0);
    }

    #[test]
    fn merges_self_loops() {
        let mut b = GraphBuilder::new(1);
        b.add_edge(NodeId(0), NodeId(0), 1.0);
        b.add_edge(NodeId(0), NodeId(0), 2.0);
        let g = b.build();
        assert_eq!(g.self_loop(NodeId(0)), 3.0);
        assert_eq!(g.degree(NodeId(0)), 3.0);
    }

    #[test]
    fn deterministic_output_regardless_of_insertion_order() {
        let mut b1 = GraphBuilder::new(4);
        b1.add_edge(NodeId(0), NodeId(1), 1.0);
        b1.add_edge(NodeId(2), NodeId(3), 2.0);
        let mut b2 = GraphBuilder::new(4);
        b2.add_edge(NodeId(3), NodeId(2), 2.0);
        b2.add_edge(NodeId(1), NodeId(0), 1.0);
        let g1 = b1.build();
        let g2 = b2.build();
        let e1: Vec<_> = g1.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
    }
}
