//! Immutable compressed sparse-row (CSR) snapshot of a [`WeightedGraph`].
//!
//! The distributed simulator and the hot analysis loops iterate neighbourhoods
//! millions of times per run; CSR gives contiguous, cache-friendly neighbour
//! slices (see the heap-allocation and iteration guidance in the Rust
//! Performance Book). The snapshot is built in O(arcs): arcs are copied per
//! node, and each arc is paired with its reverse by one cursor per node (see
//! [`CsrGraph::try_from_graph`]).

use crate::idx::{Idx, IdxOverflow};
use crate::node::NodeId;
use crate::weighted::WeightedGraph;

/// Compressed sparse-row view of an undirected weighted graph.
///
/// Every undirected edge `{u, v}` appears as a directed arc in both `u`'s and
/// `v`'s neighbour slice. Self-loops are kept out of the adjacency arrays and
/// exposed via [`CsrGraph::self_loop`].
///
/// The arc-index width `I` (see [`Idx`]) sizes the per-arc cross-index arrays;
/// the `u32` default caps a graph at 2³² − 1 directed arcs with the compact
/// layout every existing consumer relies on, while `CsrGraph<u64>` lifts the
/// cap for shard-scale inputs.
#[derive(Clone, Debug)]
pub struct CsrGraph<I: Idx = u32> {
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
    rank_by_target: Vec<I>,
    /// Cross index: `reverse_arc[p]` is the global position of the arc
    /// `v → u` matching arc `p = (u → v)`. Parallel edges pair the k-th
    /// occurrence on each side, so the map is an involution.
    reverse_arc: Vec<I>,
}

impl<I: Idx> CsrGraph<I> {
    /// Builds a CSR snapshot from a [`WeightedGraph`], returning a typed
    /// [`IdxOverflow`] error when the arc count exceeds the index width `I`.
    ///
    /// The build is O(arcs) apart from sorting each neighbour-rank list,
    /// which is linear on the already-sorted lists [`crate::GraphBuilder`]
    /// produces. Reverse arcs are paired in one pass: visiting sources in
    /// ascending order, with positions in order within each source, meets
    /// the arcs into `t` in exactly the order of `t`'s rank list (targets
    /// ascending, ties by position). So one cursor per node walks its rank
    /// list, and the k-th `v → t` pairs with the k-th `t → v`.
    pub fn try_from_graph(g: &WeightedGraph) -> Result<Self, IdxOverflow> {
        let n = g.num_nodes();
        let arcs: usize = g.nodes().map(|v| g.unweighted_degree(v)).sum();
        if arcs > I::MAX_USIZE {
            return Err(IdxOverflow::new::<I>(arcs, "arc count"));
        }
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
        let mut rank_by_target = vec![I::default(); arcs];
        for v in 0..n {
            let (lo, hi) = (offsets[v], offsets[v + 1]);
            let perm = &mut rank_by_target[lo..hi];
            for (i, r) in perm.iter_mut().enumerate() {
                *r = I::from_usize(i);
            }
            // Ties (parallel edges) stay in position order so
            // `neighbor_positions` yields ascending positions.
            perm.sort_unstable_by_key(|&i| (targets[lo + i.to_usize()], i));
        }
        // `cursor[t]` is the next unpaired entry of `t`'s rank list.
        let mut cursor = offsets[..n].to_vec();
        let mut reverse_arc = vec![I::default(); arcs];
        for v in 0..n {
            let vid = NodeId::new(v);
            for p in offsets[v]..offsets[v + 1] {
                let t = targets[p].index();
                let slot = cursor[t];
                cursor[t] += 1;
                // The entry under `t`'s cursor must be an arc back to `v`.
                let rp = (slot < offsets[t + 1])
                    .then(|| offsets[t] + rank_by_target[slot].to_usize())
                    .filter(|&rp| targets[rp] == vid)
                    .expect("undirected arcs come in matched pairs");
                reverse_arc[p] = I::from_usize(rp);
            }
        }
        Ok(CsrGraph {
            offsets,
            targets,
            weights,
            self_loops,
            total_edge_weight: g.total_edge_weight(),
            num_plain_edges: g.num_plain_edges(),
            rank_by_target,
            reverse_arc,
        })
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
        let lo = perm.partition_point(|&i| self.targets[base + i.to_usize()] < u);
        let hi = lo + perm[lo..].partition_point(|&i| self.targets[base + i.to_usize()] == u);
        perm[lo..hi].iter().map(|&i| i.to_usize())
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
        self.reverse_arc[p].to_usize()
    }
}

// `from_graph` lives on the `u32` default (the `HashMap::new` pattern) so
// existing `CsrGraph::from_graph(g)` call sites infer `I = u32` without
// annotations; wider widths go through the explicit
// `CsrGraph::<u64>::try_from_graph`.
impl CsrGraph {
    /// Builds a CSR snapshot from a [`WeightedGraph`] at the default `u32`
    /// index width.
    ///
    /// # Panics
    ///
    /// Panics if the arc count exceeds `u32::MAX`; use
    /// [`CsrGraph::try_from_graph`] (optionally at `u64` width) to handle
    /// overflow as a typed [`IdxOverflow`] error instead.
    pub fn from_graph(g: &WeightedGraph) -> Self {
        match Self::try_from_graph(g) {
            Ok(csr) => csr,
            Err(e) => panic!("{e}"),
        }
    }
}

impl From<&WeightedGraph> for CsrGraph {
    fn from(g: &WeightedGraph) -> Self {
        CsrGraph::from_graph(g)
    }
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
    fn binary_search_pairing<I: Idx>(csr: &CsrGraph<I>) -> Vec<usize> {
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
            let narrow = CsrGraph::from_graph(&g);
            let wide = CsrGraph::<u64>::try_from_graph(&g).unwrap();
            let oracle = binary_search_pairing(&narrow);
            assert_eq!(oracle, binary_search_pairing(&wide), "seed {seed}");
            let got: Vec<usize> = (0..narrow.num_arcs())
                .map(|p| narrow.reverse_arc(p))
                .collect();
            assert_eq!(got, oracle, "u32 pairing, seed {seed}");
            let got: Vec<usize> = (0..wide.num_arcs()).map(|p| wide.reverse_arc(p)).collect();
            assert_eq!(got, oracle, "u64 pairing, seed {seed}");
        }
    }

    #[test]
    fn u64_width_matches_u32_width() {
        let g = sample();
        let narrow = CsrGraph::from_graph(&g);
        let wide = CsrGraph::<u64>::try_from_graph(&g).unwrap();
        assert_eq!(wide.num_nodes(), narrow.num_nodes());
        assert_eq!(wide.num_arcs(), narrow.num_arcs());
        for v in narrow.nodes() {
            assert_eq!(wide.neighbors(v), narrow.neighbors(v));
            let base = narrow.arc_offset(v);
            for q in 0..narrow.unweighted_degree(v) {
                assert_eq!(wide.reverse_arc(base + q), narrow.reverse_arc(base + q));
            }
            for u in narrow.nodes() {
                let a: Vec<usize> = wide.neighbor_positions(v, u).collect();
                let b: Vec<usize> = narrow.neighbor_positions(v, u).collect();
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn try_from_graph_reports_typed_overflow() {
        // A real 2³²-arc graph is infeasible to build in a test, so check the
        // error type surface directly and the Ok path on a small graph.
        let g = sample();
        assert!(CsrGraph::<u32>::try_from_graph(&g).is_ok());
        let e = crate::idx::IdxOverflow {
            value: u32::MAX as usize + 1,
            width: "u32",
            what: "arc count",
        };
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
