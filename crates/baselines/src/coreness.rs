//! Exact (centralized) coreness computation.
//!
//! The coreness `c(v)` of a node is the largest `k` such that `v` belongs to a
//! subgraph of minimum (weighted) degree ≥ `k` (Seidman). It is computed by the
//! classic peeling procedure: repeatedly remove a node of minimum remaining
//! degree; `c(v)` equals the largest minimum-degree value seen up to the moment
//! `v` is removed.

use dkc_graph::{CsrGraph, NodeId, WeightedGraph};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Exact coreness for **unit-weight** graphs via the Batagelj–Zaversnik bucket
/// algorithm (`O(n + m)`).
///
/// Self-loops are not supported here (they do not occur in the unit-weight
/// inputs of the experiments); use [`weighted_coreness`] for graphs with
/// self-loops.
pub fn unweighted_coreness(g: &WeightedGraph) -> Vec<usize> {
    assert!(
        g.is_unit_weighted(),
        "unweighted_coreness requires a unit-weight graph; use weighted_coreness"
    );
    let n = g.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let mut degree: Vec<usize> = (0..n)
        .map(|i| g.unweighted_degree(NodeId::new(i)))
        .collect();
    let max_degree = degree.iter().copied().max().unwrap_or(0);

    // Bucket sort nodes by degree.
    let mut bin_starts = vec![0usize; max_degree + 2];
    for &d in &degree {
        bin_starts[d + 1] += 1;
    }
    for i in 1..bin_starts.len() {
        bin_starts[i] += bin_starts[i - 1];
    }
    let mut pos = vec![0usize; n]; // position of node in `order`
    let mut order = vec![0usize; n]; // nodes sorted by current degree
    {
        let mut next = bin_starts.clone();
        for v in 0..n {
            let d = degree[v];
            order[next[d]] = v;
            pos[v] = next[d];
            next[d] += 1;
        }
    }
    // bin_starts[d] = index of first node with degree >= d in `order`.
    let mut bin = bin_starts;

    let mut core = vec![0usize; n];
    let mut removed = vec![false; n];
    for i in 0..n {
        let v = order[i];
        core[v] = degree[v];
        removed[v] = true;
        for &u in g.neighbor_set(NodeId::new(v)).iter() {
            let u = u.index();
            if removed[u] || degree[u] <= degree[v] {
                continue;
            }
            // Move u one bucket down: swap it with the first node of its bucket.
            let du = degree[u];
            let pu = pos[u];
            let pw = bin[du];
            let w = order[pw];
            if u != w {
                order[pu] = w;
                order[pw] = u;
                pos[u] = pw;
                pos[w] = pu;
            }
            bin[du] += 1;
            degree[u] -= 1;
        }
    }
    // Coreness is the running maximum of the removal degrees.
    // (The bucket algorithm already guarantees monotonicity of `core` along the
    // removal order, but enforce it for robustness.)
    let mut running = 0usize;
    for &v in &order {
        running = running.max(core[v]);
        core[v] = running;
    }
    core
}

/// Exact coreness for arbitrary non-negative weights (and self-loops) via
/// heap-based peeling in `O(m log n)`: [`weighted_coreness_csr`] on the CSR
/// of `g`.
///
/// A self-loop of weight `w` at `v` contributes `w` to the degree of `v` in
/// every subgraph containing `v`, so it simply shifts `c(v)` up — consistent
/// with the quotient-graph semantics of the paper.
pub fn weighted_coreness(g: &WeightedGraph) -> Vec<f64> {
    weighted_coreness_csr(&CsrGraph::from_graph(g))
}

/// [`weighted_coreness`] on a CSR. A CSR lists each node's arcs in the
/// order of its adjacency list, so degree sums and peeling order, and with
/// them the result, are bit-identical to the adjacency-list graph's.
pub fn weighted_coreness_csr(g: &CsrGraph) -> Vec<f64> {
    let n = g.num_nodes();
    let mut degree: Vec<f64> = g.nodes().map(|v| g.degree(v)).collect();
    let mut removed = vec![false; n];
    let mut core = vec![0.0f64; n];
    // Min-heap of (degree, node) with lazy deletion.
    let mut heap: BinaryHeap<Reverse<(OrderedF64, usize)>> = (0..n)
        .map(|v| Reverse((OrderedF64(degree[v]), v)))
        .collect();
    let mut running_max = 0.0f64;
    let mut processed = 0usize;
    while processed < n {
        let Reverse((OrderedF64(d), v)) = heap.pop().expect("heap exhausted early");
        if removed[v] || d > degree[v] + 1e-12 {
            continue; // stale entry
        }
        removed[v] = true;
        processed += 1;
        running_max = running_max.max(degree[v]);
        core[v] = running_max;
        for (u, w) in g.neighbors_with_weights(NodeId::new(v)) {
            let u = u.index();
            if !removed[u] {
                degree[u] -= w;
                heap.push(Reverse((OrderedF64(degree[u]), u)));
            }
        }
    }
    core
}

/// Total-order wrapper for non-NaN f64 keys.
#[derive(Clone, Copy, PartialEq, PartialOrd)]
struct OrderedF64(f64);

impl Eq for OrderedF64 {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.partial_cmp(other).expect("NaN degree")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkc_graph::generators::{
        complete_graph, cycle_graph, erdos_renyi, path_graph, star_graph, tree_with_leaf_clique,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn path_coreness_is_one() {
        let g = path_graph(6);
        assert_eq!(unweighted_coreness(&g), vec![1; 6]);
    }

    #[test]
    fn single_node_coreness() {
        let g = WeightedGraph::new(1);
        assert_eq!(unweighted_coreness(&g), vec![0]);
        assert_eq!(weighted_coreness(&g), vec![0.0]);
    }

    #[test]
    fn cycle_coreness_is_two() {
        let g = cycle_graph(8);
        assert_eq!(unweighted_coreness(&g), vec![2; 8]);
    }

    #[test]
    fn star_coreness_is_one() {
        let g = star_graph(10);
        assert_eq!(unweighted_coreness(&g), vec![1; 10]);
    }

    #[test]
    fn clique_coreness() {
        let g = complete_graph(6);
        assert_eq!(unweighted_coreness(&g), vec![5; 6]);
    }

    #[test]
    fn clique_with_tail() {
        // K_4 (nodes 0..4) + path 3-4-5: coreness 3 for the clique, 1 for the tail.
        let mut g = complete_graph(4);
        let a = g.add_node();
        let b = g.add_node();
        g.add_unit_edge(NodeId(3), a);
        g.add_unit_edge(a, b);
        let core = unweighted_coreness(&g);
        assert_eq!(core, vec![3, 3, 3, 3, 1, 1]);
    }

    #[test]
    fn lower_bound_tree_construction() {
        // Lemma III.13: tree alone has coreness 1 everywhere; with the leaf
        // clique, the root has coreness >= gamma.
        let (tree, root, _) = tree_with_leaf_clique(3, 3, false);
        let core_tree = unweighted_coreness(&tree);
        assert_eq!(core_tree[root.index()], 1);

        let (g2, root, leaves) = tree_with_leaf_clique(3, 3, true);
        let core2 = unweighted_coreness(&g2);
        assert!(core2[root.index()] >= 3);
        // Leaves are in a large clique: coreness at least #leaves - 1... at
        // least gamma anyway.
        assert!(core2[leaves[0].index()] >= leaves.len() - 1);
    }

    #[test]
    fn weighted_matches_unweighted_on_unit_graphs() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = erdos_renyi(150, 0.05, &mut rng);
        let cu = unweighted_coreness(&g);
        let cw = weighted_coreness(&g);
        for v in 0..150 {
            assert!(
                (cw[v] - cu[v] as f64).abs() < 1e-9,
                "mismatch at node {v}: {} vs {}",
                cw[v],
                cu[v]
            );
        }
    }

    #[test]
    fn weighted_coreness_weighted_triangle() {
        // Triangle with weights 1, 2, 3:
        // degrees: v0: 1+3=4, v1: 1+2=3, v2: 2+3=5.
        // Peel v1 (min 3): coreness(v1)=3. Then v0 degree 3, v2 degree 3;
        // peel either at 3. All coreness 3.
        let mut g = WeightedGraph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(2), 2.0);
        g.add_edge(NodeId(0), NodeId(2), 3.0);
        let c = weighted_coreness(&g);
        assert_eq!(c, vec![3.0, 3.0, 3.0]);
    }

    #[test]
    fn weighted_coreness_with_self_loop() {
        // Node 0 has a self-loop of weight 5 and a unit edge to node 1.
        // Subgraph {0}: min degree 5 => c(0) >= 5. c(1) = 1.
        let mut g = WeightedGraph::new(2);
        g.add_self_loop(NodeId(0), 5.0);
        g.add_unit_edge(NodeId(0), NodeId(1));
        let c = weighted_coreness(&g);
        assert_eq!(c[0], 5.0);
        assert_eq!(c[1], 1.0);
    }

    #[test]
    fn coreness_is_monotone_under_edge_addition() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = erdos_renyi(60, 0.05, &mut rng);
        let before = unweighted_coreness(&g);
        let mut g2 = g.clone();
        // Add an edge between two low-degree nodes (find any non-adjacent pair).
        'outer: for a in 0..60 {
            for b in (a + 1)..60 {
                if !g2
                    .neighbors(NodeId::new(a))
                    .iter()
                    .any(|&(x, _)| x == NodeId::new(b))
                {
                    g2.add_unit_edge(NodeId::new(a), NodeId::new(b));
                    break 'outer;
                }
            }
        }
        let after = unweighted_coreness(&g2);
        for v in 0..60 {
            assert!(after[v] >= before[v], "coreness decreased at {v}");
        }
    }

    /// Verify the defining property on a random graph: the c(v)-core (subgraph
    /// of nodes with coreness >= c(v)) has min degree >= c(v) at v.
    #[test]
    fn coreness_certificate_property() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = erdos_renyi(100, 0.08, &mut rng);
        let core = unweighted_coreness(&g);
        for v in 0..100 {
            let k = core[v];
            let members: Vec<bool> = (0..100).map(|u| core[u] >= k).collect();
            let deg_in = g
                .neighbors(NodeId::new(v))
                .iter()
                .filter(|&&(u, _)| members[u.index()])
                .count();
            assert!(
                deg_in >= k,
                "node {v} has only {deg_in} neighbours in its {k}-core"
            );
        }
    }
}
