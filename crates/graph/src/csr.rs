//! Immutable compressed sparse-row (CSR) snapshot of a weighted graph.
//!
//! The distributed simulator and the hot analysis loops iterate neighbourhoods
//! millions of times per run; CSR gives contiguous, cache-friendly neighbour
//! slices (see the heap-allocation and iteration guidance in the Rust
//! Performance Book). The snapshot is built in O(arcs), from a graph or
//! straight from an edge list: arcs are placed per node, and each arc is
//! paired with its reverse by one cursor per node (see
//! [`CsrGraph::try_from_edges`]).
//!
//! A snapshot stores only the arrays its graph needs. Every snapshot keeps
//! the node offsets (4 B per node) and, per arc, the target and the reverse
//! arc (8 B per arc). The others exist only when the graph needs them:
//!
//! * per-arc weights (8 B per arc), when some arc weighs other than exactly
//!   1.0. Otherwise one slice of ones, as long as the largest degree, serves
//!   every node's weights;
//! * the neighbour-rank map (4 B per arc), when some node's neighbour list
//!   is not sorted by target;
//! * the self-loop weights (8 B per node), when some node's self-loop
//!   weight is not +0.0.
//!
//! Every accessor returns the same in each case. Every graph
//! [`crate::GraphBuilder`] builds, and so every text file the ingest readers
//! take, has sorted lists, so an unweighted one without self-loops costs
//! 8 B per arc plus 4 B per node.

use crate::idx::IdxOverflow;
use crate::node::NodeId;
use crate::weighted::{check_edge, WeightedGraph};
use std::ops::Range;

/// Compressed sparse-row view of an undirected weighted graph.
///
/// Every undirected edge `{u, v}` appears as a directed arc in both `u`'s and
/// `v`'s neighbour slice. Self-loops are kept out of the adjacency arrays and
/// exposed via [`CsrGraph::self_loop`].
///
/// The offsets and the per-arc cross-index arrays are `u32`, which caps a
/// graph at 2³² − 1 directed arcs (see [`IdxOverflow`]).
#[derive(Clone, Debug)]
pub struct CsrGraph {
    /// `v`'s arcs are the global positions `offsets[v]..offsets[v + 1]`.
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
    weights: ArcWeights,
    /// Self-loop weight per node; `None` when every one is +0.0.
    self_loops: Option<Vec<f64>>,
    total_edge_weight: f64,
    num_plain_edges: usize,
    /// Per-node permutation of local arc positions sorted by target id — the
    /// neighbour-rank map. `rank_by_target[offsets[v]..offsets[v+1]]` lists
    /// `v`'s local positions ordered so the targets are ascending (ties by
    /// position), enabling O(log deg) membership / position lookup of a
    /// neighbour id ([`CsrGraph::neighbor_positions`]). `None` when every
    /// neighbour list is sorted by target: the map would be the identity,
    /// and the targets are searched directly.
    rank_by_target: Option<Vec<u32>>,
    /// Cross index: `reverse_arc[p]` is the global position of the arc
    /// `v → u` matching arc `p = (u → v)`. Parallel edges pair the k-th
    /// occurrence on each side, so the map is an involution.
    reverse_arc: Vec<u32>,
    /// Whether some node has two arcs to one neighbour (a parallel edge).
    parallel_arcs: bool,
}

/// The weights of a CSR's arcs.
#[derive(Clone, Debug)]
enum ArcWeights {
    /// Every arc weighs exactly 1.0: as many ones as the largest degree,
    /// whose first `deg(v)` are `v`'s weights.
    Unit(Vec<f64>),
    /// One weight per arc, aligned with the targets.
    PerArc(Vec<f64>),
}

/// Whether `w` is exactly 1.0, compared by bits.
fn is_unit(w: f64) -> bool {
    w.to_bits() == 1.0f64.to_bits()
}

impl CsrGraph {
    /// Builds a CSR snapshot from a [`WeightedGraph`], returning a typed
    /// [`IdxOverflow`] error when the arc count exceeds `u32::MAX`.
    ///
    /// Whether the graph needs per-arc or self-loop weights is read off `g`
    /// before either is allocated. Arcs are then copied node by node, and
    /// the neighbour-rank and reverse-arc maps are built as
    /// [`CsrGraph::try_from_edges`] builds them.
    pub fn try_from_graph(g: &WeightedGraph) -> Result<Self, IdxOverflow> {
        let n = g.num_nodes();
        let arcs = checked_arcs(g.nodes().map(|v| g.unweighted_degree(v)).sum())?;
        let unit = g
            .nodes()
            .all(|v| g.neighbors(v).iter().all(|&(_, w)| is_unit(w)));
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut targets = Vec::with_capacity(arcs);
        for v in g.nodes() {
            targets.extend(g.neighbors(v).iter().map(|&(u, _)| u));
            offsets.push(targets.len() as u32);
        }
        let weights = (!unit).then(|| {
            let mut weights = Vec::with_capacity(arcs);
            for v in g.nodes() {
                weights.extend(g.neighbors(v).iter().map(|&(_, w)| w));
            }
            weights
        });
        let self_loops = g
            .nodes()
            .any(|v| g.self_loop(v).to_bits() != 0.0f64.to_bits())
            .then(|| g.nodes().map(|v| g.self_loop(v)).collect());
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
    /// One pass counts degrees and finds whether some arc weighs other than
    /// 1.0 and some self-loop more than 0.0, so per-arc and self-loop weights
    /// are allocated only when the graph has them. A second pass fills the
    /// arcs through one cursor per node. When some neighbour list is not
    /// sorted by target, the neighbour-rank map then sorts each node's
    /// positions by target (the lists [`crate::GraphBuilder`] merges are
    /// sorted already). Reverse arcs are paired in one pass: visiting
    /// sources in ascending order, with positions in order within each
    /// source, meets the arcs into `t` in exactly the order of `t`'s rank
    /// list (targets ascending, ties by position). So one cursor per node
    /// walks its rank list, or its own list when that is sorted, and the
    /// k-th `v → t` pairs with the k-th `t → v`.
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
        let mut offsets = vec![0u32; n + 1];
        let mut arcs = 0usize;
        let mut unit = true;
        // The weights are finite and non-negative, so a self-loop sums to
        // +0.0 unless some weight added to it is positive.
        let mut has_loops = false;
        for &(u, v, w) in edges {
            check_edge(n, u, v, w);
            if u == v {
                has_loops |= w > 0.0;
            } else {
                // A count wraps only past `u32::MAX` arcs, which
                // `checked_arcs` rejects before any count is read.
                for end in [u, v] {
                    offsets[end.index() + 1] = offsets[end.index() + 1].wrapping_add(1);
                }
                arcs += 2;
                unit &= is_unit(w);
            }
        }
        for &(v, w) in loops {
            assert!(v.index() < n, "node {v} out of range");
            assert!(w.is_finite() && w >= 0.0);
            has_loops |= w > 0.0;
        }
        let arcs = checked_arcs(arcs)?;
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut targets = vec![NodeId(0); arcs];
        let mut weights = (!unit).then(|| vec![0.0; arcs]);
        let mut self_loops = has_loops.then(|| vec![0.0; n]);
        let mut total_edge_weight = 0.0;
        let mut num_plain_edges = 0;
        for &(u, v, w) in edges {
            if u == v {
                if let Some(self_loops) = &mut self_loops {
                    self_loops[u.index()] += w;
                }
            } else {
                for (from, to) in [(u, v), (v, u)] {
                    let slot = &mut cursor[from.index()];
                    targets[*slot as usize] = to;
                    if let Some(weights) = &mut weights {
                        weights[*slot as usize] = w;
                    }
                    *slot += 1;
                }
                num_plain_edges += 1;
            }
            total_edge_weight += w;
        }
        for &(v, w) in loops {
            if let Some(self_loops) = &mut self_loops {
                self_loops[v.index()] += w;
            }
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

    /// The CSR over the given arc arrays, with unit weights standing in for
    /// absent per-arc weights, and its neighbour-rank (when some list is
    /// unsorted) and reverse-arc maps built (see
    /// [`CsrGraph::try_from_edges`]).
    fn indexed(
        offsets: Vec<u32>,
        targets: Vec<NodeId>,
        weights: Option<Vec<f64>>,
        self_loops: Option<Vec<f64>>,
        total_edge_weight: f64,
        num_plain_edges: usize,
    ) -> Self {
        let lists = || offsets.windows(2).map(|w| w[0] as usize..w[1] as usize);
        let weights = match weights {
            Some(weights) => ArcWeights::PerArc(weights),
            None => ArcWeights::Unit(vec![1.0; lists().map(|arcs| arcs.len()).max().unwrap_or(0)]),
        };
        let rank_by_target = lists().any(|arcs| !targets[arcs].is_sorted()).then(|| {
            let mut rank = vec![0u32; targets.len()];
            for arcs in lists() {
                let list = &targets[arcs.clone()];
                let perm = &mut rank[arcs];
                for (i, r) in perm.iter_mut().enumerate() {
                    *r = i as u32;
                }
                // Ties (parallel edges) stay in position order so
                // `neighbor_positions` yields ascending positions.
                perm.sort_unstable_by_key(|&i| (list[i as usize], i));
            }
            rank
        });
        let mut csr = CsrGraph {
            offsets,
            targets,
            weights,
            self_loops,
            total_edge_weight,
            num_plain_edges,
            rank_by_target,
            reverse_arc: Vec::new(),
            parallel_arcs: false,
        };
        let parallel_arcs = csr.nodes().any(|v| {
            let list = csr.neighbors(v);
            let base = csr.arc_offset(v);
            (1..list.len()).any(|i| list[csr.ranked(base, i - 1)] == list[csr.ranked(base, i)])
        });
        csr.parallel_arcs = parallel_arcs;
        csr.reverse_arc = csr.paired_arcs();
        csr
    }

    /// The reverse-arc map (see [`CsrGraph::try_from_edges`]).
    fn paired_arcs(&self) -> Vec<u32> {
        // `cursor[t]` is the next unpaired entry of `t`'s rank list.
        let mut cursor = self.offsets[..self.num_nodes()].to_vec();
        let mut reverse_arc = vec![0u32; self.num_arcs()];
        for v in self.nodes() {
            for p in self.arc_range(v) {
                let t = self.targets[p];
                let base = self.arc_offset(t);
                let slot = cursor[t.index()] as usize;
                cursor[t.index()] += 1;
                // The entry under `t`'s cursor must be an arc back to `v`.
                let rp = (slot < base + self.unweighted_degree(t))
                    .then(|| base + self.ranked(base, slot - base))
                    .filter(|&rp| self.targets[rp] == v)
                    .expect("undirected arcs come in matched pairs");
                reverse_arc[p] = rp as u32;
            }
        }
        reverse_arc
    }

    /// The local position of the `i`-th arc, in target order, of the node
    /// whose arcs start at global position `base`.
    #[inline]
    fn ranked(&self, base: usize, i: usize) -> usize {
        match &self.rank_by_target {
            Some(rank) => rank[base + i] as usize,
            None => i,
        }
    }

    /// The global positions of `v`'s arcs.
    #[inline]
    fn arc_range(&self, v: NodeId) -> Range<usize> {
        self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize
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

    /// Number of non-loop edges plus the number of nodes carrying a positive
    /// self-loop, as [`WeightedGraph::num_edges`] counts them.
    pub fn num_edges(&self) -> usize {
        let loops = self.self_loops.as_deref().unwrap_or(&[]);
        self.num_plain_edges + loops.iter().filter(|&&w| w > 0.0).count()
    }

    /// Sum of all edge weights (undirected edges once, self-loops once).
    #[inline]
    pub fn total_edge_weight(&self) -> f64 {
        self.total_edge_weight
    }

    /// Density of the whole graph: `w(E) / n` (0 for the empty graph).
    pub fn density(&self) -> f64 {
        match self.num_nodes() {
            0 => 0.0,
            n => self.total_edge_weight / n as f64,
        }
    }

    /// Whether every arc weighs 1.0 and no node has a self-loop, as
    /// [`WeightedGraph::is_unit_weighted`] decides it.
    pub fn is_unit_weighted(&self) -> bool {
        let loops = self.self_loops.as_deref().unwrap_or(&[]);
        matches!(self.weights, ArcWeights::Unit(_)) && loops.iter().all(|&w| w == 0.0)
    }

    /// Neighbour ids of `v` (no self-loops; parallel edges appear individually).
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.targets[self.arc_range(v)]
    }

    /// Weights aligned with [`CsrGraph::neighbors`].
    #[inline]
    pub fn neighbor_weights(&self, v: NodeId) -> &[f64] {
        match &self.weights {
            ArcWeights::Unit(ones) => &ones[..self.unweighted_degree(v)],
            ArcWeights::PerArc(weights) => &weights[self.arc_range(v)],
        }
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
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a node of the graph.
    #[inline]
    pub fn self_loop(&self, v: NodeId) -> f64 {
        match &self.self_loops {
            Some(self_loops) => self_loops[v.index()],
            None => {
                assert!(v.index() < self.num_nodes(), "node {v} out of range");
                0.0
            }
        }
    }

    /// Number of incident non-loop arcs of `v`.
    #[inline]
    pub fn unweighted_degree(&self, v: NodeId) -> usize {
        self.arc_range(v).len()
    }

    /// Weighted degree of `v` (self-loop counted once).
    pub fn degree(&self, v: NodeId) -> f64 {
        self.neighbor_weights(v).iter().sum::<f64>() + self.self_loop(v)
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
        self.offsets[v.index()] as usize
    }

    /// The local positions (indices into [`CsrGraph::neighbors`] of `v`) at
    /// which `u` appears, ascending — one entry per parallel edge, empty when
    /// `u` is not a neighbour of `v`. Two binary searches, O(log deg(v)) plus
    /// the output length, instead of a linear scan of the neighbour slice:
    /// over the neighbour-rank map, or over the neighbours themselves when
    /// every list is sorted.
    pub fn neighbor_positions(&self, v: NodeId, u: NodeId) -> impl Iterator<Item = usize> + '_ {
        let arcs = self.arc_range(v);
        let base = arcs.start;
        let list = &self.targets[arcs.clone()];
        let ranks = match &self.rank_by_target {
            Some(rank) => equal_range(&rank[arcs], |&i| list[i as usize], u),
            None => equal_range(list, |&t| t, u),
        };
        ranks.map(move |i| self.ranked(base, i))
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

/// The indices of the items whose key is `u`, in items sorted by key.
fn equal_range<T>(items: &[T], key: impl Fn(&T) -> NodeId, u: NodeId) -> Range<usize> {
    let lo = items.partition_point(|x| key(x) < u);
    lo..lo + items[lo..].partition_point(|x| key(x) == u)
}

/// `arcs` if the `u32` offsets and cross-index arrays can address that many
/// arcs.
fn checked_arcs(arcs: usize) -> Result<usize, IdxOverflow> {
    if arcs > u32::MAX as usize {
        return Err(IdxOverflow::new(arcs, "arc count"));
    }
    Ok(arcs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    #[should_panic(expected = "out of range")]
    fn self_loop_of_a_missing_node_panics_without_loops() {
        let mut g = WeightedGraph::new(2);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        let csr = CsrGraph::from_graph(&g);
        assert!(csr.self_loops.is_none());
        csr.self_loop(NodeId(2));
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

    /// Which of its optional arrays a CSR stores: the neighbour-rank map,
    /// per-arc weights and self-loop weights.
    fn stored(csr: &CsrGraph) -> (bool, bool, bool) {
        (
            csr.rank_by_target.is_some(),
            matches!(csr.weights, ArcWeights::PerArc(_)),
            csr.self_loops.is_some(),
        )
    }

    /// `csr` is the CSR of `g`: every accessor agrees with `g`'s adjacency
    /// lists, weights and degrees compared by bits, and `csr` stores each
    /// optional array exactly when `g` needs it.
    fn assert_same_csr(csr: &CsrGraph, g: &WeightedGraph) {
        let bits = |w: &[f64]| w.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        assert_eq!(csr.num_nodes(), g.num_nodes());
        assert_eq!(csr.num_plain_edges(), g.num_plain_edges());
        assert_eq!(
            csr.total_edge_weight().to_bits(),
            g.total_edge_weight().to_bits()
        );
        let mut offset = 0;
        for v in g.nodes() {
            let list = g.neighbors(v);
            let targets: Vec<NodeId> = list.iter().map(|&(u, _)| u).collect();
            let weights: Vec<f64> = list.iter().map(|&(_, w)| w).collect();
            assert_eq!(csr.arc_offset(v), offset, "node {v}");
            assert_eq!(csr.neighbors(v), targets, "node {v}");
            assert_eq!(csr.unweighted_degree(v), list.len());
            assert_eq!(bits(csr.neighbor_weights(v)), bits(&weights), "node {v}");
            assert_eq!(csr.degree(v).to_bits(), g.degree(v).to_bits(), "node {v}");
            assert_eq!(csr.self_loop(v).to_bits(), g.self_loop(v).to_bits());
            for u in g.nodes() {
                let positions: Vec<usize> = (0..list.len()).filter(|&q| targets[q] == u).collect();
                assert!(csr.neighbor_positions(v, u).eq(positions.iter().copied()));
                assert_eq!(csr.has_neighbor(v, u), !positions.is_empty());
                // The k-th arc `v → u` pairs with the k-th `u → v`.
                let back: Vec<usize> = (0..g.unweighted_degree(u))
                    .filter(|&q| g.neighbors(u)[q].0 == v)
                    .map(|q| csr.arc_offset(u) + q)
                    .collect();
                for (k, &q) in positions.iter().enumerate() {
                    assert_eq!(csr.reverse_arc(offset + q), back[k], "arc {v} → {u}");
                }
            }
            offset += list.len();
        }
        assert_eq!(csr.num_arcs(), offset);
        let mut parallel = false;
        let mut unsorted = false;
        for v in g.nodes() {
            let mut targets: Vec<NodeId> = g.neighbors(v).iter().map(|&(u, _)| u).collect();
            unsorted |= !targets.is_sorted();
            targets.sort_unstable();
            parallel |= targets.windows(2).any(|w| w[0] == w[1]);
        }
        assert_eq!(csr.has_parallel_arcs(), parallel);
        let per_arc = g
            .nodes()
            .any(|v| g.neighbors(v).iter().any(|&(_, w)| !is_unit(w)));
        let loops = g.nodes().any(|v| g.self_loop(v).to_bits() != 0);
        assert_eq!(stored(csr), (unsorted, per_arc, loops));
        if let ArcWeights::Unit(ones) = &csr.weights {
            let max_degree = g.nodes().map(|v| g.unweighted_degree(v)).max();
            assert_eq!(ones.len(), max_degree.unwrap_or(0));
        }
    }

    type Edges = Vec<(NodeId, NodeId, f64)>;

    /// Random edges and self-loops over `n < 25` nodes. Plain weights are
    /// all 1.0 (`weights == 0`), 1.0 but for one −0.0 (`1`), or tenths
    /// (`2`). Self-loops are absent (`loops == 0`), all ±0.0 (`1`), or
    /// positive (`2`). Parallel edges are common when `parallel` holds, and
    /// absent otherwise.
    fn random_edges(
        rng: &mut StdRng,
        weights: u8,
        loops: u8,
        parallel: bool,
    ) -> (usize, Edges, Vec<(NodeId, f64)>) {
        let n = rng.gen_range(1..25usize);
        // Nodes at or past `hot` stay isolated.
        let hot = rng.gen_range(0..n) + 1;
        let weight = |rng: &mut StdRng| match weights {
            2 => rng.gen_range(0..8) as f64 * 0.1, // sums of tenths are inexact
            _ => 1.0,
        };
        let loop_weight = |rng: &mut StdRng| match loops {
            1 if rng.gen_bool(0.5) => -0.0,
            1 => 0.0,
            _ => rng.gen_range(1..4) as f64 * 0.3,
        };
        let mut edges = Vec::new();
        for _ in 0..rng.gen_range(0..4 * n) {
            let u = rng.gen_range(0..hot);
            let v = match rng.gen_range(0..4) {
                0 if loops > 0 => u,
                1 if parallel => (u + 1) % hot, // a favourite pair
                _ => rng.gen_range(0..hot),
            };
            let (u, v) = (NodeId::new(u), NodeId::new(v));
            let seen = |&(a, b, _): &(NodeId, NodeId, f64)| (a, b) == (u, v) || (a, b) == (v, u);
            if (u == v && loops == 0) || (u != v && !parallel && edges.iter().any(seen)) {
                continue;
            }
            let w = if u == v {
                loop_weight(rng)
            } else {
                weight(rng)
            };
            edges.push((u, v, w));
        }
        if weights == 1 {
            if let Some(e) = edges.iter_mut().find(|(u, v, _)| u != v) {
                e.2 = -0.0;
            }
        }
        let mut self_loops = Vec::new();
        if loops > 0 {
            for _ in 0..rng.gen_range(0..n) {
                self_loops.push((NodeId::new(rng.gen_range(0..n)), loop_weight(rng)));
            }
        }
        (n, edges, self_loops)
    }

    /// Both builders give the CSR of the source graph in every
    /// representation: sorted or unsorted lists, unit or other weights
    /// (−0.0 included), with or without self-loops and parallel edges.
    #[test]
    fn try_from_edges_is_the_csr_of_from_edges() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            for weight_mode in 0..3 {
                for loop_mode in 0..3 {
                    for parallel in [false, true] {
                        let (n, edges, loops) =
                            random_edges(&mut rng, weight_mode, loop_mode, parallel);
                        // `GraphBuilder`'s order: `(min, max)` pairs,
                        // ascending, which sorts every list.
                        let mut sorted: Vec<_> = edges
                            .iter()
                            .map(|&(u, v, w)| (u.min(v), u.max(v), w))
                            .collect();
                        sorted.sort_by_key(|&(u, v, _)| (u, v));
                        for edges in [&edges, &sorted] {
                            let g = WeightedGraph::from_edges(n, edges, &loops);
                            let from_graph = CsrGraph::from_graph(&g);
                            let from_edges = CsrGraph::try_from_edges(n, edges, &loops).unwrap();
                            assert_same_csr(&from_graph, &g);
                            assert_same_csr(&from_edges, &g);
                            seen.insert((stored(&from_edges), from_edges.has_parallel_arcs()));
                        }
                    }
                }
            }
        }
        // Every combination of the three optional arrays and parallel arcs.
        assert_eq!(seen.len(), 16, "{seen:?}");
    }

    /// A unit-weight graph with sorted lists and no self-loops keeps 8 B per
    /// arc (targets and reverse arcs), 4 B per node (offsets) and one slice
    /// of ones as long as the largest degree.
    #[test]
    fn unit_weight_sorted_loop_free_csr_holds_eight_bytes_per_arc() {
        fn heap_bytes(csr: &CsrGraph) -> usize {
            let (ArcWeights::Unit(weights) | ArcWeights::PerArc(weights)) = &csr.weights;
            let f64s = weights.capacity() + csr.self_loops.as_ref().map_or(0, Vec::capacity);
            let u32s = csr.offsets.capacity()
                + csr.targets.capacity()
                + csr.rank_by_target.as_ref().map_or(0, Vec::capacity)
                + csr.reverse_arc.capacity();
            8 * f64s + 4 * u32s
        }
        let n = 2000usize;
        let mut rng = StdRng::seed_from_u64(3);
        // Distinct `(min, max)` pairs in ascending order, as `GraphBuilder`
        // merges them, so every list is sorted.
        let mut pairs = std::collections::BTreeSet::new();
        while pairs.len() < 10_000 {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u != v {
                pairs.insert((NodeId::new(u.min(v)), NodeId::new(u.max(v))));
            }
        }
        let plain: Vec<_> = pairs.into_iter().map(|(u, v)| (u, v, 1.0)).collect();
        let g = WeightedGraph::from_edges(n, &plain, &[]);
        for csr in [
            CsrGraph::from_graph(&g),
            CsrGraph::try_from_edges(n, &plain, &[]).unwrap(),
        ] {
            assert_eq!(stored(&csr), (false, false, false));
            let max_degree = csr.nodes().map(|v| csr.unweighted_degree(v)).max();
            let bound = 8 * csr.num_arcs() + 4 * (n + 1) + 8 * max_degree.unwrap();
            assert!(heap_bytes(&csr) <= bound, "{} > {bound}", heap_bytes(&csr));
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
