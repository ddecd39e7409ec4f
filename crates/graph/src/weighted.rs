//! Mutable adjacency-list representation of an undirected, edge-weighted graph.

use crate::node::NodeId;
use std::collections::HashSet;

/// An undirected, edge-weighted graph with non-negative `f64` weights and
/// explicit self-loop support.
///
/// * Each non-loop edge `{u, v}` is stored once in the adjacency list of `u` and
///   once in that of `v`.
/// * Self-loops (singleton edges `{v}`, which arise from quotient graphs) are
///   stored separately as an accumulated weight per node and contribute **once**
///   to the weighted degree of `v` and once to `w(E(S))` whenever `v ∈ S`.
/// * Parallel edges added via [`WeightedGraph::add_edge`] are kept as separate
///   adjacency entries; use [`crate::GraphBuilder`] to merge them by summing
///   weights (the paper's model treats parallel edges equivalently to a single
///   edge of the summed weight for all three problems).
#[derive(Clone, Debug, Default)]
pub struct WeightedGraph {
    adj: Vec<Vec<(NodeId, f64)>>,
    self_loops: Vec<f64>,
    num_edges: usize,
    edge_weight_total: f64,
}

impl WeightedGraph {
    /// Creates an empty graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        WeightedGraph {
            adj: vec![Vec::new(); n],
            self_loops: vec![0.0; n],
            num_edges: 0,
            edge_weight_total: 0.0,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of non-loop edges (parallel edges counted individually) plus the
    /// number of nodes carrying a positive self-loop.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges + self.self_loops.iter().filter(|&&w| w > 0.0).count()
    }

    /// Number of non-loop edges only.
    #[inline]
    pub fn num_plain_edges(&self) -> usize {
        self.num_edges
    }

    /// Sum of all edge weights (each undirected edge counted once, self-loops
    /// counted once).
    #[inline]
    pub fn total_edge_weight(&self) -> f64 {
        self.edge_weight_total
    }

    /// Adds a new isolated node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::new(self.adj.len());
        self.adj.push(Vec::new());
        self.self_loops.push(0.0);
        id
    }

    /// Adds an undirected edge `{u, v}` of weight `w`. If `u == v` the weight is
    /// accumulated into the self-loop of `u`.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range or if `w` is negative or not
    /// finite.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: f64) {
        check_edge(self.adj.len(), u, v, w);
        self.push_edge(u, v, w);
    }

    /// The graph `WeightedGraph::new(n)` followed by
    /// [`WeightedGraph::add_edge`] for each of `edges` and then
    /// [`WeightedGraph::add_self_loop`] for each of `loops`, in order and
    /// with the same checks, but with every adjacency list allocated once at
    /// its final size: degrees are counted before anything is filled.
    pub(crate) fn from_edges(
        n: usize,
        edges: &[(NodeId, NodeId, f64)],
        loops: &[(NodeId, f64)],
    ) -> Self {
        let mut degree = vec![0usize; n];
        for &(u, v, w) in edges {
            check_edge(n, u, v, w);
            if u != v {
                degree[u.index()] += 1;
                degree[v.index()] += 1;
            }
        }
        let mut g = WeightedGraph {
            adj: degree.into_iter().map(Vec::with_capacity).collect(),
            self_loops: vec![0.0; n],
            num_edges: 0,
            edge_weight_total: 0.0,
        };
        for &(u, v, w) in edges {
            g.push_edge(u, v, w);
        }
        for &(v, w) in loops {
            g.add_self_loop(v, w);
        }
        g
    }

    /// [`WeightedGraph::add_edge`] after its checks.
    fn push_edge(&mut self, u: NodeId, v: NodeId, w: f64) {
        if u == v {
            self.self_loops[u.index()] += w;
        } else {
            self.adj[u.index()].push((v, w));
            self.adj[v.index()].push((u, w));
            self.num_edges += 1;
        }
        self.edge_weight_total += w;
    }

    /// Adds an unweighted (weight 1) edge.
    #[inline]
    pub fn add_unit_edge(&mut self, u: NodeId, v: NodeId) {
        self.add_edge(u, v, 1.0);
    }

    /// Accumulates `w` into the self-loop weight of `v`.
    pub fn add_self_loop(&mut self, v: NodeId, w: f64) {
        assert!(w.is_finite() && w >= 0.0);
        self.self_loops[v.index()] += w;
        self.edge_weight_total += w;
    }

    /// Neighbours of `v` with edge weights (self-loops excluded; a neighbour may
    /// appear multiple times if parallel edges were added).
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[(NodeId, f64)] {
        &self.adj[v.index()]
    }

    /// Number of incident non-loop edges of `v` (parallel edges counted).
    #[inline]
    pub fn unweighted_degree(&self, v: NodeId) -> usize {
        self.adj[v.index()].len()
    }

    /// Total self-loop weight at `v`.
    #[inline]
    pub fn self_loop(&self, v: NodeId) -> f64 {
        self.self_loops[v.index()]
    }

    /// Weighted degree of `v`: the sum of the weights of all edges containing
    /// `v`, with self-loops counted once.
    pub fn degree(&self, v: NodeId) -> f64 {
        let s: f64 = self.adj[v.index()].iter().map(|&(_, w)| w).sum();
        s + self.self_loops[v.index()]
    }

    /// Iterates over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adj.len()).map(NodeId::new)
    }

    /// Iterates over all non-loop edges once (as `(u, v, w)` with `u < v`;
    /// parallel edges are yielded individually) followed by the positive
    /// self-loops (as `(v, v, w)`).
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        let plain = self.adj.iter().enumerate().flat_map(move |(ui, nbrs)| {
            let u = NodeId::new(ui);
            nbrs.iter()
                .filter(move |&&(v, _)| u < v)
                .map(move |&(v, w)| (u, v, w))
        });
        let loops = self
            .self_loops
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w > 0.0)
            .map(|(vi, &w)| (NodeId::new(vi), NodeId::new(vi), w));
        plain.chain(loops)
    }

    /// Total weight of edges fully contained in `members`, i.e. `w(E(S))`
    /// including self-loops at members.
    ///
    /// `members` is an indicator over node indices; its length must be
    /// `num_nodes()`.
    pub fn subset_edge_weight(&self, members: &[bool]) -> f64 {
        assert_eq!(members.len(), self.num_nodes());
        let mut total = 0.0;
        for (ui, nbrs) in self.adj.iter().enumerate() {
            if !members[ui] {
                continue;
            }
            let u = NodeId::new(ui);
            for &(v, w) in nbrs {
                if members[v.index()] && u < v {
                    total += w;
                }
            }
            total += self.self_loops[ui];
        }
        total
    }

    /// Density `ρ(S) = w(E(S)) / |S|` of the subset indicated by `members`.
    /// Returns `None` if the subset is empty.
    pub fn density_of(&self, members: &[bool]) -> Option<f64> {
        let size = members.iter().filter(|&&b| b).count();
        if size == 0 {
            return None;
        }
        Some(self.subset_edge_weight(members) / size as f64)
    }

    /// Density of the whole graph: `w(E) / n`.
    pub fn density(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.edge_weight_total / self.num_nodes() as f64
        }
    }

    /// Weighted degree of `v` restricted to the subset indicated by `members`
    /// (only edges whose other endpoint is also in the subset count; self-loops
    /// count once if `v` itself is a member).
    pub fn degree_within(&self, v: NodeId, members: &[bool]) -> f64 {
        if !members[v.index()] {
            return 0.0;
        }
        let s: f64 = self.adj[v.index()]
            .iter()
            .filter(|&&(u, _)| members[u.index()])
            .map(|&(_, w)| w)
            .sum();
        s + self.self_loops[v.index()]
    }

    /// Returns `true` if all edge weights equal `1.0` and there are no
    /// self-loops (the "unweighted" special case, for which exact polynomial
    /// algorithms exist for the orientation problem).
    pub fn is_unit_weighted(&self) -> bool {
        self.self_loops.iter().all(|&w| w == 0.0)
            && self
                .adj
                .iter()
                .all(|nbrs| nbrs.iter().all(|&(_, w)| w == 1.0))
    }

    /// Asserts internal consistency (symmetry of adjacency lists, weight totals).
    /// Intended for tests and debug builds.
    pub fn check_consistency(&self) {
        assert_eq!(self.adj.len(), self.self_loops.len());
        let mut seen = 0usize;
        let mut total = 0.0;
        for (ui, nbrs) in self.adj.iter().enumerate() {
            let u = NodeId::new(ui);
            for &(v, w) in nbrs {
                assert!(v.index() < self.adj.len());
                assert_ne!(v, u, "self-loop stored in adjacency list");
                // There must be a matching reverse entry with the same weight.
                let reverse = self.adj[v.index()]
                    .iter()
                    .filter(|&&(x, xw)| x == u && xw == w)
                    .count();
                let forward = nbrs.iter().filter(|&&(x, xw)| x == v && xw == w).count();
                assert!(
                    reverse >= 1 && reverse == forward,
                    "asymmetric adjacency between {u} and {v}"
                );
                if u < v {
                    seen += 1;
                    total += w;
                }
            }
        }
        assert_eq!(seen, self.num_edges, "edge count mismatch");
        total += self.self_loops.iter().sum::<f64>();
        assert!(
            crate::weights_close(total, self.edge_weight_total),
            "total weight mismatch: {total} vs {}",
            self.edge_weight_total
        );
    }

    /// Collects the distinct neighbour set of `v` (useful when parallel edges
    /// may be present).
    pub fn neighbor_set(&self, v: NodeId) -> HashSet<NodeId> {
        self.adj[v.index()].iter().map(|&(u, _)| u).collect()
    }
}

/// The checks of [`WeightedGraph::add_edge`] on an `n`-node graph.
pub(crate) fn check_edge(n: usize, u: NodeId, v: NodeId, w: f64) {
    assert!(
        w.is_finite() && w >= 0.0,
        "edge weight must be finite and non-negative, got {w}"
    );
    assert!(u.index() < n, "node {u} out of range");
    assert!(v.index() < n, "node {v} out of range");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> WeightedGraph {
        let mut g = WeightedGraph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(2), 2.0);
        g.add_edge(NodeId(0), NodeId(2), 3.0);
        g
    }

    #[test]
    fn basic_construction() {
        let g = triangle();
        g.check_consistency();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.total_edge_weight(), 6.0);
        assert_eq!(g.degree(NodeId(0)), 4.0);
        assert_eq!(g.degree(NodeId(1)), 3.0);
        assert_eq!(g.degree(NodeId(2)), 5.0);
        assert_eq!(g.density(), 2.0);
    }

    #[test]
    fn self_loops_count_once_in_degree() {
        let mut g = WeightedGraph::new(2);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(0), NodeId(0), 5.0);
        g.check_consistency();
        assert_eq!(g.degree(NodeId(0)), 6.0);
        assert_eq!(g.degree(NodeId(1)), 1.0);
        assert_eq!(g.total_edge_weight(), 6.0);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_plain_edges(), 1);
    }

    #[test]
    fn subset_edge_weight_and_density() {
        let g = triangle();
        let members = vec![true, true, false];
        assert_eq!(g.subset_edge_weight(&members), 1.0);
        assert_eq!(g.density_of(&members), Some(0.5));
        assert_eq!(g.density_of(&[false, false, false]), None);
        let all = vec![true, true, true];
        assert_eq!(g.density_of(&all), Some(2.0));
    }

    #[test]
    fn degree_within_subset() {
        let g = triangle();
        let members = vec![true, true, false];
        assert_eq!(g.degree_within(NodeId(0), &members), 1.0);
        assert_eq!(g.degree_within(NodeId(2), &members), 0.0);
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let mut g = triangle();
        g.add_self_loop(NodeId(1), 4.0);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        let loop_edges: Vec<_> = edges.iter().filter(|(u, v, _)| u == v).collect();
        assert_eq!(loop_edges.len(), 1);
        assert_eq!(loop_edges[0].2, 4.0);
    }

    #[test]
    fn unit_weight_detection() {
        let mut g = WeightedGraph::new(3);
        g.add_unit_edge(NodeId(0), NodeId(1));
        g.add_unit_edge(NodeId(1), NodeId(2));
        assert!(g.is_unit_weighted());
        g.add_edge(NodeId(0), NodeId(2), 2.0);
        assert!(!g.is_unit_weighted());
    }

    #[test]
    #[should_panic]
    fn negative_weight_panics() {
        let mut g = WeightedGraph::new(2);
        g.add_edge(NodeId(0), NodeId(1), -1.0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_node_panics() {
        let mut g = WeightedGraph::new(2);
        g.add_edge(NodeId(0), NodeId(5), 1.0);
    }

    #[test]
    fn bulk_constructor_equals_add_edge_sequence() {
        let edges = [
            (NodeId(2), NodeId(0), 0.1),
            (NodeId(0), NodeId(2), 0.2),
            (NodeId(1), NodeId(1), 0.5),
            (NodeId(3), NodeId(1), 0.0),
            (NodeId(0), NodeId(1), 3.0),
        ];
        let loops = [(NodeId(3), 0.25), (NodeId(1), 0.3), (NodeId(3), 0.25)];
        let mut expected = WeightedGraph::new(5);
        for &(u, v, w) in &edges {
            expected.add_edge(u, v, w);
        }
        for &(v, w) in &loops {
            expected.add_self_loop(v, w);
        }
        let got = WeightedGraph::from_edges(5, &edges, &loops);
        got.check_consistency();
        assert_eq!(got.num_nodes(), expected.num_nodes());
        assert_eq!(got.num_plain_edges(), expected.num_plain_edges());
        assert_eq!(
            got.total_edge_weight().to_bits(),
            expected.total_edge_weight().to_bits()
        );
        for v in got.nodes() {
            assert_eq!(got.neighbors(v), expected.neighbors(v));
            assert_eq!(got.neighbors(v).len(), got.adj[v.index()].capacity());
            assert_eq!(got.self_loop(v).to_bits(), expected.self_loop(v).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bulk_constructor_keeps_add_edge_checks() {
        WeightedGraph::from_edges(2, &[(NodeId(0), NodeId(2), 1.0)], &[]);
    }

    #[test]
    fn add_node_grows_graph() {
        let mut g = WeightedGraph::new(0);
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b, 1.5);
        g.check_consistency();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.degree(a), 1.5);
    }

    #[test]
    fn empty_graph() {
        let g = WeightedGraph::new(0);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.density(), 0.0);
        assert_eq!(g.edges().count(), 0);
    }
}
