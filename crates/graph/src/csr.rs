//! Immutable compressed sparse-row (CSR) snapshot of a weighted graph.
//!
//! The distributed simulator and the hot analysis loops iterate neighbourhoods
//! millions of times per run; CSR gives contiguous, cache-friendly neighbour
//! slices (see the heap-allocation and iteration guidance in the Rust
//! Performance Book). The snapshot is built in O(arcs), from a graph or
//! straight from an edge list: arcs are placed per node, and each arc is
//! paired with its reverse by one cursor per node (see
//! [`CsrGraph::try_from_edges`]).

use crate::idx::IdxOverflow;
use crate::node::NodeId;
use crate::weighted::{check_edge, WeightedGraph};

/// Compressed sparse-row view of an undirected weighted graph.
///
/// Every undirected edge `{u, v}` appears as a directed arc in both `u`'s and
/// `v`'s neighbour slice. Self-loops are kept out of the adjacency arrays and
/// exposed via [`CsrGraph::self_loop`].
///
/// The per-arc cross-index arrays are `u32`, which caps a graph at
/// 2³² − 1 directed arcs (see [`IdxOverflow`]).
#[derive(Clone, Debug)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
    weights: Vec<f64>,
    self_loops: Vec<f64>,
    total_edge_weight: f64,
    num_plain_edges: usize,
    /// Per-node permutation of local arc positions sorted by target id — the
    /// neighbour-rank map. `rank_by_target[offsets[v]..offsets[v+1]]` lists
    /// `v`'s local positions ordered so the targets are ascending (ties by
    /// position), enabling O(log deg) membership / position lookup of a
    /// neighbour id ([`CsrGraph::neighbor_positions`]). The simulator's
    /// multicast scatter is indexed through this map.
    rank_by_target: Vec<u32>,
    /// Cross index: `reverse_arc[p]` is the global position of the arc
    /// `v → u` matching arc `p = (u → v)`. Parallel edges pair the k-th
    /// occurrence on each side, so the map is an involution.
    reverse_arc: Vec<u32>,
    /// Whether some node has two arcs to one neighbour (a parallel edge).
    parallel_arcs: bool,
}

impl CsrGraph {
    /// Builds a CSR snapshot from a [`WeightedGraph`], returning a typed
    /// [`IdxOverflow`] error when the arc count exceeds `u32::MAX`.
    ///
    /// Arcs are copied node by node, then the neighbour-rank and reverse-arc
    /// maps are built as [`CsrGraph::try_from_edges`] builds them.
    pub fn try_from_graph(g: &WeightedGraph) -> Result<Self, IdxOverflow> {
        let n = g.num_nodes();
        let arcs = checked_arcs(g.nodes().map(|v| g.unweighted_degree(v)).sum())?;
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut targets = Vec::with_capacity(arcs);
        let mut weights = Vec::with_capacity(arcs);
        for v in g.nodes() {
            for &(u, w) in g.neighbors(v) {
                targets.push(u);
                weights.push(w);
            }
            offsets.push(targets.len());
        }
        let self_loops = (0..n).map(|i| g.self_loop(NodeId::new(i))).collect();
        Ok(Self::indexed(
            offsets,
            targets,
            weights,
            self_loops,
            g.total_edge_weight(),
            g.num_plain_edges(),
        ))
    }

    /// The CSR of `WeightedGraph::from_edges(n, edges, loops)`, arc for arc,
    /// built without the adjacency lists: each undirected edge `(u, v, w)`
    /// of `edges` appends `v` to `u`'s slice and `u` to `v`'s, in order (a
    /// `u == v` edge adds to `u`'s self-loop), and then each `(v, w)` of
    /// `loops` adds to `v`'s self-loop. Returns a typed [`IdxOverflow`]
    /// error when the arc count exceeds `u32::MAX`.
    ///
    /// One pass counts degrees, a second fills the arcs through one cursor
    /// per node. The neighbour-rank map then sorts each node's positions by
    /// target, which is linear on the already-sorted lists
    /// [`crate::GraphBuilder`] merges. Reverse arcs are paired in one pass:
    /// visiting sources in ascending order, with positions in order within
    /// each source, meets the arcs into `t` in exactly the order of `t`'s
    /// rank list (targets ascending, ties by position). So one cursor per
    /// node walks its rank list, and the k-th `v → t` pairs with the k-th
    /// `t → v`.
    ///
    /// # Panics
    ///
    /// Panics, as [`WeightedGraph::add_edge`] and
    /// [`WeightedGraph::add_self_loop`] do, if an endpoint is not below `n`
    /// or a weight is negative or not finite.
    pub fn try_from_edges(
        n: usize,
        edges: &[(NodeId, NodeId, f64)],
        loops: &[(NodeId, f64)],
    ) -> Result<Self, IdxOverflow> {
        let mut offsets = vec![0usize; n + 1];
        for &(u, v, w) in edges {
            check_edge(n, u, v, w);
            if u != v {
                offsets[u.index() + 1] += 1;
                offsets[v.index() + 1] += 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let arcs = checked_arcs(offsets[n])?;
        let mut cursor = offsets[..n].to_vec();
        let mut targets = vec![NodeId(0); arcs];
        let mut weights = vec![0.0; arcs];
        let mut self_loops = vec![0.0; n];
        let mut total_edge_weight = 0.0;
        let mut num_plain_edges = 0;
        for &(u, v, w) in edges {
            if u == v {
                self_loops[u.index()] += w;
            } else {
                for (from, to) in [(u, v), (v, u)] {
                    let slot = &mut cursor[from.index()];
                    targets[*slot] = to;
                    weights[*slot] = w;
                    *slot += 1;
                }
                num_plain_edges += 1;
            }
            total_edge_weight += w;
        }
        for &(v, w) in loops {
            assert!(w.is_finite() && w >= 0.0);
            self_loops[v.index()] += w;
            total_edge_weight += w;
        }
        Ok(Self::indexed(
            offsets,
            targets,
            weights,
            self_loops,
            total_edge_weight,
            num_plain_edges,
        ))
    }

    /// The CSR over the given arc arrays, with its neighbour-rank and
    /// reverse-arc maps built (see [`CsrGraph::try_from_edges`]).
    fn indexed(
        offsets: Vec<usize>,
        targets: Vec<NodeId>,
        weights: Vec<f64>,
        self_loops: Vec<f64>,
        total_edge_weight: f64,
        num_plain_edges: usize,
    ) -> Self {
        let n = offsets.len() - 1;
        let arcs = targets.len();
        let mut rank_by_target = vec![0u32; arcs];
        let mut parallel_arcs = false;
        for v in 0..n {
            let (lo, hi) = (offsets[v], offsets[v + 1]);
            let perm = &mut rank_by_target[lo..hi];
            for (i, r) in perm.iter_mut().enumerate() {
                *r = i as u32;
            }
            // Ties (parallel edges) stay in position order so
            // `neighbor_positions` yields ascending positions.
            perm.sort_unstable_by_key(|&i| (targets[lo + i as usize], i));
            parallel_arcs |= perm
                .windows(2)
                .any(|w| targets[lo + w[0] as usize] == targets[lo + w[1] as usize]);
        }
        // `cursor[t]` is the next unpaired entry of `t`'s rank list.
        let mut cursor = offsets[..n].to_vec();
        let mut reverse_arc = vec![0u32; arcs];
        for v in 0..n {
            let vid = NodeId::new(v);
            for p in offsets[v]..offsets[v + 1] {
                let t = targets[p].index();
                let slot = cursor[t];
                cursor[t] += 1;
                // The entry under `t`'s cursor must be an arc back to `v`.
                let rp = (slot < offsets[t + 1])
                    .then(|| offsets[t] + rank_by_target[slot] as usize)
                    .filter(|&rp| targets[rp] == vid)
                    .expect("undirected arcs come in matched pairs");
                reverse_arc[p] = rp as u32;
            }
        }
        CsrGraph {
            offsets,
            targets,
            weights,
            self_loops,
            total_edge_weight,
            num_plain_edges,
            rank_by_target,
            reverse_arc,
            parallel_arcs,
        }
    }

    /// Builds a CSR snapshot from a [`WeightedGraph`].
    ///
    /// # Panics
    ///
    /// Panics if the arc count exceeds `u32::MAX`; use
    /// [`CsrGraph::try_from_graph`] to handle overflow as a typed
    /// [`IdxOverflow`] error instead.
    pub fn from_graph(g: &WeightedGraph) -> Self {
        match Self::try_from_graph(g) {
            Ok(csr) => csr,
            Err(e) => panic!("{e}"),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of non-loop undirected edges.
    #[inline]
    pub fn num_plain_edges(&self) -> usize {
        self.num_plain_edges
    }

    /// Sum of all edge weights (undirected edges once, self-loops once).
    #[inline]
    pub fn total_edge_weight(&self) -> f64 {
        self.total_edge_weight
    }

    /// Neighbour ids of `v` (no self-loops; parallel edges appear individually).
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.targets[self.offsets[v.index()]..self.offsets[v.index() + 1]]
    }

    /// Weights aligned with [`CsrGraph::neighbors`].
    #[inline]
    pub fn neighbor_weights(&self, v: NodeId) -> &[f64] {
        &self.weights[self.offsets[v.index()]..self.offsets[v.index() + 1]]
    }

    /// Iterates `(neighbor, weight)` pairs of `v`.
    #[inline]
    pub fn neighbors_with_weights(&self, v: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.neighbor_weights(v).iter().copied())
    }

    /// Self-loop weight at `v`.
    #[inline]
    pub fn self_loop(&self, v: NodeId) -> f64 {
        self.self_loops[v.index()]
    }

    /// Number of incident non-loop arcs of `v`.
    #[inline]
    pub fn unweighted_degree(&self, v: NodeId) -> usize {
        self.offsets[v.index() + 1] - self.offsets[v.index()]
    }

    /// Weighted degree of `v` (self-loop counted once).
    pub fn degree(&self, v: NodeId) -> f64 {
        self.neighbor_weights(v).iter().sum::<f64>() + self.self_loops[v.index()]
    }

    /// Maximum weighted degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> f64 {
        (0..self.num_nodes())
            .map(|i| self.degree(NodeId::new(i)))
            .fold(0.0, f64::max)
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes()).map(NodeId::new)
    }

    /// Total number of directed arcs (2× the plain edge count, parallel edges
    /// counted individually). Arc-indexed scratch arrays size themselves here.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// The global arc index of `v`'s first incident arc: `v`'s local position
    /// `q` maps to global arc `arc_offset(v) + q`.
    #[inline]
    pub fn arc_offset(&self, v: NodeId) -> usize {
        self.offsets[v.index()]
    }

    /// The local positions (indices into [`CsrGraph::neighbors`] of `v`) at
    /// which `u` appears, ascending — one entry per parallel edge, empty when
    /// `u` is not a neighbour of `v`. Backed by the precomputed neighbour-rank
    /// map: two binary searches, O(log deg(v)) plus the output length, instead
    /// of a linear scan of the neighbour slice.
    pub fn neighbor_positions(&self, v: NodeId, u: NodeId) -> impl Iterator<Item = usize> + '_ {
        let base = self.offsets[v.index()];
        let perm = &self.rank_by_target[base..self.offsets[v.index() + 1]];
        let lo = perm.partition_point(|&i| self.targets[base + i as usize] < u);
        let hi = lo + perm[lo..].partition_point(|&i| self.targets[base + i as usize] == u);
        perm[lo..hi].iter().map(|&i| i as usize)
    }

    /// Whether two arcs of some node lead to the same neighbour (a parallel
    /// edge). Without one, [`CsrGraph::neighbor_positions`] yields at most
    /// one position.
    pub fn has_parallel_arcs(&self) -> bool {
        self.parallel_arcs
    }

    /// Whether `u` is a neighbour of `v`, in O(log deg(v)).
    pub fn has_neighbor(&self, v: NodeId, u: NodeId) -> bool {
        self.neighbor_positions(v, u).next().is_some()
    }

    /// The global position of the arc matching global arc `p`: for
    /// `p = (u → v)`, the position of the paired `v → u` arc. An involution;
    /// parallel edges pair k-th occurrence with k-th occurrence. O(1).
    #[inline]
    pub fn reverse_arc(&self, p: usize) -> usize {
        self.reverse_arc[p] as usize
    }
}

impl From<&WeightedGraph> for CsrGraph {
    fn from(g: &WeightedGraph) -> Self {
        CsrGraph::from_graph(g)
    }
}

/// `arcs` if the `u32` cross-index arrays can address that many arcs.
fn checked_arcs(arcs: usize) -> Result<usize, IdxOverflow> {
    if arcs > u32::MAX as usize {
        return Err(IdxOverflow::new(arcs, "arc count"));
    }
    Ok(arcs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WeightedGraph {
        let mut g = WeightedGraph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(2), 2.0);
        g.add_edge(NodeId(2), NodeId(3), 3.0);
        g.add_edge(NodeId(0), NodeId(3), 4.0);
        g.add_self_loop(NodeId(2), 0.5);
        g
    }

    #[test]
    fn matches_weighted_graph() {
        let g = sample();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.num_nodes(), 4);
        assert_eq!(csr.num_plain_edges(), 4);
        assert_eq!(csr.total_edge_weight(), 10.5);
        for v in g.nodes() {
            assert_eq!(csr.degree(v), g.degree(v));
            assert_eq!(csr.unweighted_degree(v), g.unweighted_degree(v));
            assert_eq!(csr.self_loop(v), g.self_loop(v));
            let mut a: Vec<_> = csr.neighbors_with_weights(v).collect();
            let mut b: Vec<_> = g.neighbors(v).to_vec();
            a.sort_by_key(|&(u, _)| u);
            b.sort_by_key(|&(u, _)| u);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn max_degree() {
        let g = sample();
        let csr = CsrGraph::from(&g);
        assert_eq!(csr.max_degree(), 7.0); // node 3: 3 + 4
    }

    #[test]
    fn empty_graph() {
        let g = WeightedGraph::new(0);
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.num_nodes(), 0);
        assert_eq!(csr.max_degree(), 0.0);
        assert_eq!(csr.num_arcs(), 0);
    }

    #[test]
    fn neighbor_positions_match_linear_scan() {
        let g = sample();
        let csr = CsrGraph::from_graph(&g);
        for v in csr.nodes() {
            for u in csr.nodes() {
                let expected: Vec<usize> = csr
                    .neighbors(v)
                    .iter()
                    .enumerate()
                    .filter(|&(_, &t)| t == u)
                    .map(|(q, _)| q)
                    .collect();
                let got: Vec<usize> = csr.neighbor_positions(v, u).collect();
                assert_eq!(got, expected, "positions of {u} in {v}'s list");
                assert_eq!(csr.has_neighbor(v, u), !expected.is_empty());
            }
        }
    }

    #[test]
    fn neighbor_positions_list_every_parallel_edge() {
        let mut g = WeightedGraph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(0), NodeId(1), 2.0);
        g.add_edge(NodeId(0), NodeId(2), 3.0);
        let csr = CsrGraph::from_graph(&g);
        assert!(csr.has_parallel_arcs());
        assert!(!CsrGraph::from_graph(&sample()).has_parallel_arcs());
        let positions: Vec<usize> = csr.neighbor_positions(NodeId(0), NodeId(1)).collect();
        assert_eq!(positions.len(), 2);
        for &q in &positions {
            assert_eq!(csr.neighbors(NodeId(0))[q], NodeId(1));
        }
        assert!(csr
            .neighbor_positions(NodeId(1), NodeId(2))
            .next()
            .is_none());
        assert_eq!(csr.arc_offset(NodeId(1)) - csr.arc_offset(NodeId(0)), 3);
    }

    #[test]
    fn reverse_arc_is_a_matching_involution() {
        // Includes parallel edges to exercise occurrence pairing.
        let mut g = WeightedGraph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(0), NodeId(1), 2.0);
        g.add_edge(NodeId(1), NodeId(2), 1.0);
        g.add_edge(NodeId(2), NodeId(3), 1.0);
        g.add_edge(NodeId(0), NodeId(3), 1.0);
        let csr = CsrGraph::from_graph(&g);
        let mut seen = vec![false; csr.num_arcs()];
        for v in csr.nodes() {
            let base = csr.arc_offset(v);
            for (q, &u) in csr.neighbors(v).iter().enumerate() {
                let p = base + q;
                let rp = csr.reverse_arc(p);
                // The reverse arc belongs to u and points back at v.
                let ru = csr
                    .nodes()
                    .find(|&w| {
                        csr.arc_offset(w) <= rp && rp < csr.arc_offset(w) + csr.unweighted_degree(w)
                    })
                    .unwrap();
                assert_eq!(ru, u, "reverse of {p} must be owned by {u}");
                assert_eq!(csr.neighbors(u)[rp - csr.arc_offset(u)], v);
                assert_eq!(csr.reverse_arc(rp), p, "involution");
                assert!(!seen[rp], "each arc matched exactly once");
                seen[rp] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    /// Reference pairing by binary search: for arc `p = v → t` at local
    /// position `q`, find its occurrence index `k` among `v`'s arcs to `t`,
    /// then take the k-th `t → v`, each through `neighbor_positions`.
    fn binary_search_pairing(csr: &CsrGraph) -> Vec<usize> {
        let mut reverse = Vec::with_capacity(csr.num_arcs());
        for v in csr.nodes() {
            for (q, &t) in csr.neighbors(v).iter().enumerate() {
                let k = csr.neighbor_positions(v, t).position(|pos| pos == q);
                let rq = csr.neighbor_positions(t, v).nth(k.unwrap()).unwrap();
                reverse.push(csr.arc_offset(t) + rq);
            }
        }
        reverse
    }

    #[test]
    fn cursor_pairing_matches_binary_search_pairing() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..30usize);
            // Raw `add_edge` keeps parallel edges and leaves adjacency lists
            // in insertion order, unlike `GraphBuilder`.
            let mut g = WeightedGraph::new(n);
            for _ in 0..rng.gen_range(0..4 * n) {
                let u = rng.gen_range(0..n);
                let v = if rng.gen_bool(0.3) {
                    (u + 1) % n // a favourite pair, so parallel edges are common
                } else {
                    rng.gen_range(0..n)
                };
                g.add_edge(NodeId::new(u), NodeId::new(v), rng.gen_range(0..4) as f64);
            }
            let csr = CsrGraph::from_graph(&g);
            let oracle = binary_search_pairing(&csr);
            let got: Vec<usize> = (0..csr.num_arcs()).map(|p| csr.reverse_arc(p)).collect();
            assert_eq!(got, oracle, "seed {seed}");
        }
    }

    /// Every field of `a` equals `b`'s, weights compared by bits.
    fn assert_same_csr(a: &CsrGraph, b: &CsrGraph) {
        let bits = |w: &[f64]| w.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.targets, b.targets);
        assert_eq!(bits(&a.weights), bits(&b.weights));
        assert_eq!(bits(&a.self_loops), bits(&b.self_loops));
        assert_eq!(a.total_edge_weight.to_bits(), b.total_edge_weight.to_bits());
        assert_eq!(a.num_plain_edges, b.num_plain_edges);
        assert_eq!(a.rank_by_target, b.rank_by_target);
        assert_eq!(a.reverse_arc, b.reverse_arc);
    }

    #[test]
    fn try_from_edges_is_the_csr_of_from_edges() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(0..25usize);
            let mut edges = Vec::new();
            let mut loops = Vec::new();
            if n > 0 {
                // Nodes at or past `hot` stay isolated.
                let hot = rng.gen_range(0..n) + 1;
                for _ in 0..rng.gen_range(0..4 * n) {
                    let u = rng.gen_range(0..hot);
                    let v = match rng.gen_range(0..4) {
                        0 => u,             // a self-loop edge
                        1 => (u + 1) % hot, // a favourite pair: parallel edges
                        _ => rng.gen_range(0..hot),
                    };
                    // Tenths, so sums of parallel weights are inexact.
                    let w = rng.gen_range(0..8) as f64 * 0.1;
                    edges.push((NodeId::new(u), NodeId::new(v), w));
                }
                for _ in 0..rng.gen_range(0..n) {
                    let v = NodeId::new(rng.gen_range(0..n));
                    loops.push((v, rng.gen_range(0..4) as f64 * 0.3));
                }
            }
            // `GraphBuilder`'s order: `(min, max)` pairs, ascending.
            let mut sorted: Vec<_> = edges
                .iter()
                .map(|&(u, v, w)| (u.min(v), u.max(v), w))
                .collect();
            sorted.sort_by_key(|&(u, v, _)| (u, v));
            for edges in [&edges, &sorted] {
                let reference = CsrGraph::from_graph(&WeightedGraph::from_edges(n, edges, &loops));
                let csr = CsrGraph::try_from_edges(n, edges, &loops).unwrap();
                assert_same_csr(&csr, &reference);
            }
        }
    }

    #[test]
    fn try_from_graph_reports_typed_overflow() {
        // A real 2³²-arc graph is infeasible to build in a test, so check the
        // error type surface directly and the Ok path on a small graph.
        let g = sample();
        assert!(CsrGraph::try_from_graph(&g).is_ok());
        let e = IdxOverflow::new(u32::MAX as usize + 1, "arc count");
        assert!(e.to_string().contains("exceeds u32 index range"));
    }

    #[test]
    fn arc_offsets_partition_the_arc_array() {
        let g = sample();
        let csr = CsrGraph::from_graph(&g);
        let mut total = 0usize;
        for v in csr.nodes() {
            assert_eq!(csr.arc_offset(v), total);
            total += csr.unweighted_degree(v);
        }
        assert_eq!(total, csr.num_arcs());
        assert_eq!(csr.num_arcs(), 2 * csr.num_plain_edges());
    }
}
