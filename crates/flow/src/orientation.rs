//! Exact min-max edge orientation for unit-weight graphs, and the fractional
//! LP lower bound `ρ*` for the weighted case.
//!
//! For unit weights the problem is polynomial (Venkateswaran; Asahiro et al.):
//! an orientation with maximum in-degree ≤ k exists iff the bipartite flow
//! network `source → edge (cap 1) → endpoints (cap 1) → sink (cap k)` has a
//! flow saturating all edges, so the optimum is found by binary search on `k`.
//!
//! For general weights the problem is NP-hard, but the densest-subset LP value
//! `ρ*` is a lower bound on the optimum by weak duality (Section II of the
//! paper); [`fractional_orientation_lower_bound`] exposes it for the
//! approximation-ratio measurements.

use crate::densest::densest_subgraph;
use crate::dinic::Dinic;
use dkc_graph::{NodeId, WeightedGraph};

/// An exact solution of the unit-weight min-max orientation problem.
#[derive(Clone, Debug)]
pub struct ExactOrientation {
    /// The optimal maximum in-degree.
    pub max_in_degree: usize,
    /// One optimal orientation: for each non-loop edge `(u, v)` (as returned by
    /// `WeightedGraph::edges`), the endpoint the edge is assigned to (i.e. the
    /// head of the arc).
    pub assignment: Vec<(NodeId, NodeId, NodeId)>,
}

/// Feasibility test: can the unit edges of `edges` be oriented so every node
/// has in-degree ≤ k? If so, returns the assignment.
fn orient_with_bound(
    n: usize,
    edges: &[(NodeId, NodeId)],
    k: usize,
) -> Option<Vec<(NodeId, NodeId, NodeId)>> {
    let m = edges.len();
    // Layout: 0 = source, 1 = sink, 2..2+m = edge nodes, 2+m.. = graph nodes.
    let source = 0usize;
    let sink = 1usize;
    let edge_base = 2usize;
    let node_base = 2 + m;
    let mut net = Dinic::new(2 + m + n);
    let mut arc_ids = Vec::with_capacity(m);
    for (idx, &(u, v)) in edges.iter().enumerate() {
        net.add_edge(source, edge_base + idx, 1.0);
        let to_u = net.add_edge(edge_base + idx, node_base + u.index(), 1.0);
        let to_v = net.add_edge(edge_base + idx, node_base + v.index(), 1.0);
        arc_ids.push((to_u, to_v));
    }
    for v in 0..n {
        net.add_edge(node_base + v, sink, k as f64);
    }
    let flow = net.max_flow(source, sink);
    if (flow - m as f64).abs() > 1e-6 {
        return None;
    }
    let mut assignment = Vec::with_capacity(m);
    for (idx, &(u, v)) in edges.iter().enumerate() {
        let (to_u, to_v) = arc_ids[idx];
        let owner = if net.flow_on(to_u) > 0.5 {
            u
        } else {
            debug_assert!(net.flow_on(to_v) > 0.5, "edge {idx} unassigned");
            v
        };
        assignment.push((u, v, owner));
    }
    Some(assignment)
}

/// Computes an exact optimal orientation of a **unit-weight** graph.
///
/// # Panics
/// Panics if the graph has self-loops or non-unit edge weights.
pub fn exact_unit_orientation(g: &WeightedGraph) -> ExactOrientation {
    assert!(
        g.is_unit_weighted(),
        "exact orientation requires a unit-weight graph without self-loops"
    );
    let n = g.num_nodes();
    let edges: Vec<(NodeId, NodeId)> = g.edges().map(|(u, v, _)| (u, v)).collect();
    if edges.is_empty() {
        return ExactOrientation {
            max_in_degree: 0,
            assignment: Vec::new(),
        };
    }
    // Binary search the smallest feasible k in [1, max_degree].
    let mut hi = g
        .nodes()
        .map(|v| g.unweighted_degree(v))
        .max()
        .unwrap_or(0)
        .max(1);
    let mut lo = 1usize;
    let mut best = orient_with_bound(n, &edges, hi).expect("k = max degree is always feasible");
    while lo < hi {
        let mid = (lo + hi) / 2;
        match orient_with_bound(n, &edges, mid) {
            Some(a) => {
                best = a;
                hi = mid;
            }
            None => lo = mid + 1,
        }
    }
    ExactOrientation {
        max_in_degree: lo,
        assignment: best,
    }
}

/// The fractional optimum of the min-max orientation LP, which equals the
/// maximum subgraph density `ρ*` (LP duality, Section II). It lower-bounds the
/// optimal integral orientation for arbitrary weights.
pub fn fractional_orientation_lower_bound(g: &WeightedGraph) -> f64 {
    densest_subgraph(g).density
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkc_graph::generators::{complete_graph, cycle_graph, path_graph, star_graph};

    fn check_assignment_covers_all_edges(g: &WeightedGraph, o: &ExactOrientation) {
        assert_eq!(o.assignment.len(), g.num_edges());
        let load = {
            let mut load = vec![0usize; g.num_nodes()];
            for &(u, v, owner) in &o.assignment {
                assert!(owner == u || owner == v);
                load[owner.index()] += 1;
            }
            load
        };
        assert_eq!(load.iter().max().copied().unwrap_or(0), o.max_in_degree);
    }

    #[test]
    fn path_orientation_optimum_is_one() {
        let g = path_graph(6);
        let o = exact_unit_orientation(&g);
        assert_eq!(o.max_in_degree, 1);
        check_assignment_covers_all_edges(&g, &o);
    }

    #[test]
    fn cycle_orientation_optimum_is_one() {
        let g = cycle_graph(7);
        let o = exact_unit_orientation(&g);
        assert_eq!(o.max_in_degree, 1);
        check_assignment_covers_all_edges(&g, &o);
    }

    #[test]
    fn star_orientation_optimum_is_one() {
        // Orient every spoke towards the leaves.
        let g = star_graph(9);
        let o = exact_unit_orientation(&g);
        assert_eq!(o.max_in_degree, 1);
        check_assignment_covers_all_edges(&g, &o);
    }

    #[test]
    fn clique_orientation_optimum() {
        // K_n has m = n(n-1)/2 edges; optimum is ceil(m-related density):
        // for K_5, density 2, and an Eulerian-style orientation gives 2.
        let g = complete_graph(5);
        let o = exact_unit_orientation(&g);
        assert_eq!(o.max_in_degree, 2);
        check_assignment_covers_all_edges(&g, &o);

        // K_4: 6 edges over 4 nodes; optimum 2 (ceil(3/2)... verified by flow).
        let g4 = complete_graph(4);
        let o4 = exact_unit_orientation(&g4);
        assert_eq!(o4.max_in_degree, 2);
    }

    #[test]
    fn optimum_at_least_ceil_of_density() {
        let g = complete_graph(6);
        let o = exact_unit_orientation(&g);
        let rho = fractional_orientation_lower_bound(&g);
        assert!((rho - 2.5).abs() < 1e-6);
        assert!(o.max_in_degree as f64 >= rho - 1e-9);
        assert_eq!(o.max_in_degree, 3);
    }

    #[test]
    fn empty_graph_orientation() {
        let g = WeightedGraph::new(4);
        let o = exact_unit_orientation(&g);
        assert_eq!(o.max_in_degree, 0);
        assert!(o.assignment.is_empty());
    }

    #[test]
    #[should_panic]
    fn weighted_graph_rejected() {
        let mut g = WeightedGraph::new(2);
        g.add_edge(NodeId(0), NodeId(1), 2.0);
        let _ = exact_unit_orientation(&g);
    }
}
