//! Orientation baselines.
//!
//! * [`greedy_orientation`] — assign each edge (heaviest first) to the endpoint
//!   with the currently smaller load. Simple and fast, no worst-case guarantee
//!   relative to `ρ*`, used as the "naive" comparator.
//! * [`peeling_orientation`] — orient along the weighted degeneracy (peeling)
//!   order: when a node is peeled, it takes ownership of all its remaining
//!   incident edges. Its load is then its remaining weighted degree, which is
//!   at most `2·ρ(remaining subgraph) ≤ 2·ρ*`, so this is a centralized
//!   2-approximation for arbitrary weights.
//! * [`barenboim_elkin_orientation`] — the Barenboim–Elkin-style two-phase
//!   distributed scheme: given a global density/arboricity estimate `A`, nodes
//!   whose remaining degree is at most `(2+ε)·A` are peeled in synchronous
//!   rounds and take ownership of their remaining edges. With an estimate
//!   `A ≥ ρ*` the peeling finishes in `O(log_{1+ε/2} n)` rounds and every load
//!   is at most `(2+ε)·A`; feeding it the elimination-procedure estimate
//!   (`A ≈ 2(1+ε)ρ*`) therefore yields the `2(2+ε)`-approximation the paper
//!   compares against.

use dkc_graph::{NodeId, WeightedGraph};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An orientation produced by a baseline algorithm.
#[derive(Clone, Debug)]
pub struct OrientationBaseline {
    /// For each non-loop edge `(u, v)`: the endpoint that owns it.
    pub assignment: Vec<(NodeId, NodeId, NodeId)>,
    /// The maximum weighted in-degree (load) of the orientation.
    pub max_in_degree: f64,
    /// Number of synchronous rounds used (1 for centralized algorithms).
    pub rounds: usize,
    /// Whether every edge was assigned (always true for the centralized
    /// baselines; may be false for Barenboim–Elkin if the estimate was too low
    /// or the round budget too small).
    pub complete: bool,
}

fn loads_from_assignment(
    n: usize,
    assignment: &[(NodeId, NodeId, NodeId)],
    g: &WeightedGraph,
) -> Vec<f64> {
    let mut load = vec![0.0f64; n];
    for &(u, v, owner) in assignment {
        let w = g
            .neighbors(u)
            .iter()
            .find(|&&(x, _)| x == v)
            .map(|&(_, w)| w)
            .unwrap_or(0.0);
        load[owner.index()] += w;
    }
    load
}

/// Greedy load-balancing orientation: edges in descending weight order, each
/// assigned to the endpoint with the smaller current load. Self-loops are
/// charged to their node.
pub fn greedy_orientation(g: &WeightedGraph) -> OrientationBaseline {
    let n = g.num_nodes();
    let mut load = vec![0.0f64; n];
    // Charge self-loops first (they have no choice of endpoint).
    for v in g.nodes() {
        load[v.index()] += g.self_loop(v);
    }
    let mut edges: Vec<(NodeId, NodeId, f64)> = g.edges().filter(|(u, v, _)| u != v).collect();
    edges.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("NaN weight"));
    let mut assignment = Vec::with_capacity(edges.len());
    for (u, v, w) in edges {
        let owner = if load[u.index()] <= load[v.index()] {
            u
        } else {
            v
        };
        load[owner.index()] += w;
        assignment.push((u, v, owner));
    }
    let max_in_degree = load.iter().fold(0.0f64, |a, &b| a.max(b));
    OrientationBaseline {
        assignment,
        max_in_degree,
        rounds: 1,
        complete: true,
    }
}

#[derive(Clone, Copy, PartialEq, PartialOrd)]
struct OrderedF64(f64);
impl Eq for OrderedF64 {}
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.partial_cmp(other).expect("NaN degree")
    }
}

/// Peeling (degeneracy-order) orientation: a centralized 2-approximation for
/// arbitrary weights. Every edge is owned by whichever endpoint is peeled
/// first, and a peeled node's load equals its remaining weighted degree at the
/// moment of peeling, which never exceeds `2·ρ*`.
pub fn peeling_orientation(g: &WeightedGraph) -> OrientationBaseline {
    let n = g.num_nodes();
    let mut degree: Vec<f64> = (0..n).map(|i| g.degree(NodeId::new(i))).collect();
    let mut removed = vec![false; n];
    let mut heap: BinaryHeap<Reverse<(OrderedF64, usize)>> = (0..n)
        .map(|v| Reverse((OrderedF64(degree[v]), v)))
        .collect();
    let mut assignment = Vec::with_capacity(g.num_plain_edges());
    let mut load = vec![0.0f64; n];
    for v in g.nodes() {
        load[v.index()] += g.self_loop(v);
    }
    while let Some(Reverse((OrderedF64(d), v))) = heap.pop() {
        if removed[v] || d > degree[v] + 1e-12 {
            continue;
        }
        removed[v] = true;
        let vid = NodeId::new(v);
        for &(u, w) in g.neighbors(vid) {
            if !removed[u.index()] {
                // Edge {v, u}: v is peeled first, so v owns it.
                assignment.push((vid.min(u), vid.max(u), vid));
                load[v] += w;
                degree[u.index()] -= w;
                heap.push(Reverse((OrderedF64(degree[u.index()]), u.index())));
            }
        }
    }
    let max_in_degree = load.iter().fold(0.0f64, |a, &b| a.max(b));
    OrientationBaseline {
        assignment,
        max_in_degree,
        rounds: 1,
        complete: true,
    }
}

/// Barenboim–Elkin-style two-phase orientation, simulated in synchronous
/// rounds: given the global estimate `estimate_a` (of the maximum density /
/// arboricity), every round peels all surviving nodes whose remaining weighted
/// degree is at most `(2 + epsilon) · estimate_a`; peeled nodes take ownership
/// of their remaining incident edges.
///
/// If `estimate_a ≥ ρ*`, each round removes at least an `ε/(2+ε)` fraction of
/// the surviving nodes, so `O(log n / ε)` rounds suffice; the resulting maximum
/// load is at most `(2+ε)·estimate_a`.
pub fn barenboim_elkin_orientation(
    g: &WeightedGraph,
    estimate_a: f64,
    epsilon: f64,
    max_rounds: usize,
) -> OrientationBaseline {
    assert!(epsilon > 0.0);
    let n = g.num_nodes();
    let threshold = (2.0 + epsilon) * estimate_a;
    let mut alive = vec![true; n];
    let mut degree: Vec<f64> = (0..n).map(|i| g.degree(NodeId::new(i))).collect();
    let mut assignment = Vec::with_capacity(g.num_plain_edges());
    let mut rounds = 0usize;
    let mut alive_count = n;
    while alive_count > 0 && rounds < max_rounds {
        rounds += 1;
        // All peels within a round look at the same snapshot (synchronous).
        let peeled: Vec<usize> = (0..n)
            .filter(|&v| alive[v] && degree[v] <= threshold + 1e-12)
            .collect();
        if peeled.is_empty() {
            break;
        }
        let peel_set: Vec<bool> = {
            let mut s = vec![false; n];
            for &v in &peeled {
                s[v] = true;
            }
            s
        };
        for &v in &peeled {
            let vid = NodeId::new(v);
            for &(u, w) in g.neighbors(vid) {
                let ui = u.index();
                if alive[ui] && !peel_set[ui] {
                    // Edge to a survivor: the peeled endpoint owns it.
                    assignment.push((vid.min(u), vid.max(u), vid));
                    degree[ui] -= w;
                } else if alive[ui] && peel_set[ui] && vid < u {
                    // Both endpoints peeled this round: break the tie by id
                    // (each node can decide this locally from the ids).
                    assignment.push((vid, u, vid));
                }
            }
        }
        for &v in &peeled {
            alive[v] = false;
            alive_count -= 1;
        }
    }
    let complete = alive_count == 0;
    let load = loads_from_assignment(n, &assignment, g);
    let mut max_in_degree = load.iter().fold(0.0f64, |a, &b| a.max(b));
    for v in g.nodes() {
        // Self-loops are always charged to their node.
        if g.self_loop(v) > 0.0 {
            max_in_degree = max_in_degree.max(load[v.index()] + g.self_loop(v));
        }
    }
    OrientationBaseline {
        assignment,
        max_in_degree,
        rounds,
        complete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkc_flow::{densest_subgraph, exact_unit_orientation};
    use dkc_graph::generators::{
        barabasi_albert, complete_graph, cycle_graph, path_graph, with_random_integer_weights,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Checks that an assignment covers every non-loop edge of `g` exactly once.
    fn assignment_covers_all_edges(
        g: &WeightedGraph,
        assignment: &[(NodeId, NodeId, NodeId)],
    ) -> bool {
        let expected = g.edges().filter(|(u, v, _)| u != v).count();
        if assignment.len() != expected {
            return false;
        }
        let mut seen: Vec<(NodeId, NodeId)> = assignment
            .iter()
            .map(|&(u, v, _)| (u.min(v), u.max(v)))
            .collect();
        seen.sort();
        seen.dedup();
        seen.len() == expected
    }

    #[test]
    fn greedy_on_path_is_optimal() {
        let g = path_graph(8);
        let r = greedy_orientation(&g);
        assert!(assignment_covers_all_edges(&g, &r.assignment));
        assert_eq!(r.max_in_degree, 1.0);
    }

    #[test]
    fn peeling_on_cycle_is_optimal() {
        let g = cycle_graph(9);
        let r = peeling_orientation(&g);
        assert!(assignment_covers_all_edges(&g, &r.assignment));
        // Peeling a cycle: each peeled node takes its (at most 2) remaining
        // edges; max load 2 is within factor 2 of the optimum 1.
        assert!(r.max_in_degree <= 2.0);
    }

    #[test]
    fn peeling_is_within_factor_two_of_rho_star() {
        let mut rng = StdRng::seed_from_u64(4);
        let base = barabasi_albert(150, 3, &mut rng);
        let g = with_random_integer_weights(&base, 5, &mut rng);
        let rho = densest_subgraph(&g).density;
        let r = peeling_orientation(&g);
        assert!(assignment_covers_all_edges(&g, &r.assignment));
        assert!(
            r.max_in_degree <= 2.0 * rho + 1e-6,
            "peeling load {} exceeds 2ρ* = {}",
            r.max_in_degree,
            2.0 * rho
        );
        // And it is lower-bounded by ρ* (weak duality).
        assert!(r.max_in_degree >= rho - 1e-6);
    }

    #[test]
    fn greedy_vs_exact_on_clique() {
        let g = complete_graph(7);
        let exact = exact_unit_orientation(&g);
        let greedy = greedy_orientation(&g);
        assert!(assignment_covers_all_edges(&g, &greedy.assignment));
        // Greedy can never beat the optimum and stays within factor 2 of it on
        // a clique (loads remain roughly balanced).
        assert!(greedy.max_in_degree >= exact.max_in_degree as f64);
        assert!(greedy.max_in_degree <= 2.0 * exact.max_in_degree as f64);
    }

    #[test]
    fn barenboim_elkin_with_good_estimate() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = barabasi_albert(200, 3, &mut rng);
        let rho = densest_subgraph(&g).density;
        let epsilon = 0.5;
        let r = barenboim_elkin_orientation(&g, rho, epsilon, 200);
        assert!(
            r.complete,
            "peeling must finish when the estimate is >= rho*"
        );
        assert!(assignment_covers_all_edges(&g, &r.assignment));
        assert!(
            r.max_in_degree <= (2.0 + epsilon) * rho + 1e-6,
            "load {} exceeds (2+eps)*rho = {}",
            r.max_in_degree,
            (2.0 + epsilon) * rho
        );
        // Round bound: O(log n / eps); generous constant.
        let bound = (10.0 * (200f64).ln() / epsilon).ceil() as usize;
        assert!(r.rounds <= bound);
    }

    #[test]
    fn barenboim_elkin_with_too_small_estimate_stalls() {
        let g = complete_graph(10);
        // rho* = 4.5; an estimate of 1 with eps=0.1 gives threshold 2.1 < 9,
        // so nothing can ever be peeled.
        let r = barenboim_elkin_orientation(&g, 1.0, 0.1, 50);
        assert!(!r.complete);
        assert!(r.assignment.is_empty());
    }

    #[test]
    fn self_loops_are_charged_to_their_node() {
        let mut g = WeightedGraph::new(2);
        g.add_self_loop(NodeId(0), 4.0);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        let r = greedy_orientation(&g);
        // Node 0 carries its self-loop (4); the edge goes to node 1 (load 1).
        assert_eq!(r.max_in_degree, 4.0);
    }

    #[test]
    fn empty_graph_orientations() {
        let g = WeightedGraph::new(0);
        assert_eq!(greedy_orientation(&g).max_in_degree, 0.0);
        assert_eq!(peeling_orientation(&g).max_in_degree, 0.0);
        let be = barenboim_elkin_orientation(&g, 1.0, 0.5, 10);
        assert!(be.complete);
    }
}
