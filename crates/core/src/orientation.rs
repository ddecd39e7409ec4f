//! Min-max edge orientation from the augmented elimination procedure
//! (Theorem I.2).
//!
//! After running Algorithm 2 with Λ = ℝ, every node `v` holds the auxiliary
//! subset `N_v` of neighbours whose shared edge is assigned to `v`. The
//! invariants of Definition III.7 guarantee that (i) the weight assigned to `v`
//! is at most `b_v = β^T(v) ≤ 2n^{1/T}·r(v) ≤ 2n^{1/T}·ρ*`, and (ii) every edge
//! is claimed by at least one endpoint. A final conflict-resolution step (the
//! paper's "one more round of communication") drops doubly-claimed edges from
//! one side, which can only lower loads.
//!
//! The claim walk reads the [`CsrGraph`] the elimination ran on, which
//! [`crate::api::approximate_orientation_with_rounds`] gets back from the
//! run: each plain edge once, from its smaller endpoint, in arc order.

use crate::compact::CompactOutcome;
use dkc_graph::{CsrGraph, NodeId};

/// A complete edge orientation derived from the augmented elimination
/// procedure.
#[derive(Clone, Debug)]
pub struct OrientationResult {
    /// For every non-loop edge `(u, v)` (with `u < v`): the endpoint that owns
    /// it (the head of the arc).
    pub assignment: Vec<(NodeId, NodeId, NodeId)>,
    /// Total weight assigned to each node (self-loops included).
    pub loads: Vec<f64>,
    /// The maximum weighted in-degree of the orientation.
    pub max_in_degree: f64,
    /// Number of edges claimed by *neither* endpoint. Always 0 when the
    /// elimination was run with Λ = ℝ (Lemma III.11); such edges are assigned
    /// to the endpoint with the larger surviving number as a fallback.
    pub uncovered_edges: usize,
}

/// Builds the final orientation of `g` from a [`CompactOutcome`] of a run
/// on it: claims from `N_v` are honoured, double claims are resolved
/// deterministically (the endpoint with the smaller id keeps the edge), and
/// self-loops are charged to their node. Edges are listed as
/// `WeightedGraph::edges` lists them: by smaller endpoint, in arc order.
pub fn orientation_from_compact(g: &CsrGraph, outcome: &CompactOutcome) -> OrientationResult {
    let n = g.num_nodes();
    assert_eq!(outcome.surviving.len(), n, "outcome does not match graph");
    let mut loads: Vec<f64> = g.nodes().map(|v| g.self_loop(v)).collect();
    let mut assignment = Vec::with_capacity(g.num_plain_edges());
    let mut uncovered = 0usize;
    let plain_edges = g.nodes().flat_map(|u| {
        g.neighbors_with_weights(u)
            .filter(move |&(v, _)| u < v)
            .map(move |(v, w)| (u, v, w))
    });
    for (u, v, w) in plain_edges {
        let u_claims = outcome.in_neighbors[u.index()].contains(&v);
        let v_claims = outcome.in_neighbors[v.index()].contains(&u);
        let owner = match (u_claims, v_claims) {
            (true, false) => u,
            (false, true) => v,
            // Conflict: both claimed it — either choice preserves the load
            // bound; pick the smaller id (one extra round in the real protocol).
            (true, true) => u.min(v),
            (false, false) => {
                // Cannot happen with Λ = ℝ (second invariant of
                // Definition III.7); fall back to the larger surviving number.
                uncovered += 1;
                if outcome.surviving[u.index()] >= outcome.surviving[v.index()] {
                    u
                } else {
                    v
                }
            }
        };
        loads[owner.index()] += w;
        assignment.push((u, v, owner));
    }
    let max_in_degree = loads.iter().fold(0.0f64, |a, &b| a.max(b));
    OrientationResult {
        assignment,
        loads,
        max_in_degree,
        uncovered_edges: uncovered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::{run_compact_elimination, RunSpec};
    use dkc_distsim::ExecutionMode;
    use dkc_flow::{densest_subgraph, exact_unit_orientation};
    use dkc_graph::generators::{
        barabasi_albert, complete_graph, cycle_graph, erdos_renyi, path_graph,
        with_random_integer_weights,
    };
    use dkc_graph::WeightedGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rounds_for(n: usize, epsilon: f64) -> usize {
        ((n as f64).ln() / (1.0 + epsilon).ln()).ceil() as usize
    }

    fn orientation_of(g: &WeightedGraph, rounds: usize) -> OrientationResult {
        let outcome =
            run_compact_elimination(g, &RunSpec::new(rounds).mode(ExecutionMode::Dense)).unwrap();
        orientation_from_compact(&CsrGraph::from(g), &outcome)
    }

    #[test]
    fn every_edge_is_assigned_exactly_once() {
        let mut rng = StdRng::seed_from_u64(31);
        let g = barabasi_albert(100, 3, &mut rng);
        let result = orientation_of(&g, 6);
        assert_eq!(result.assignment.len(), g.num_plain_edges());
        assert_eq!(result.uncovered_edges, 0);
        for &(u, v, owner) in &result.assignment {
            assert!(owner == u || owner == v);
        }
        // Loads are consistent with the assignment.
        let mut recomputed = vec![0.0; g.num_nodes()];
        for &(u, v, owner) in &result.assignment {
            let w = g
                .neighbors(u)
                .iter()
                .find(|&&(x, _)| x == v)
                .map(|&(_, w)| w)
                .unwrap();
            recomputed[owner.index()] += w;
        }
        for v in 0..g.num_nodes() {
            assert!((recomputed[v] - result.loads[v]).abs() < 1e-9);
        }
    }

    /// Theorem I.2 / Corollary III.12: the orientation is a 2n^{1/T}
    /// approximation against the LP lower bound ρ*.
    #[test]
    fn load_bounded_by_gamma_times_rho_star() {
        let mut rng = StdRng::seed_from_u64(32);
        for trial in 0..3 {
            let base = barabasi_albert(70, 3, &mut rng);
            let g = if trial == 0 {
                base
            } else {
                with_random_integer_weights(&base, 6, &mut rng)
            };
            let rho = densest_subgraph(&g).density;
            let n = g.num_nodes() as f64;
            for rounds in [2usize, 4, 8] {
                let result = orientation_of(&g, rounds);
                let gamma = 2.0 * n.powf(1.0 / rounds as f64);
                assert!(
                    result.max_in_degree <= gamma * rho + 1e-6,
                    "trial {trial}, rounds {rounds}: load {} > γρ* = {}",
                    result.max_in_degree,
                    gamma * rho
                );
                // Weak duality: no orientation can beat ρ*.
                assert!(result.max_in_degree >= rho - 1e-6);
            }
        }
    }

    #[test]
    fn against_exact_optimum_on_unit_graphs() {
        let mut rng = StdRng::seed_from_u64(33);
        let g = erdos_renyi(60, 0.1, &mut rng);
        let exact = exact_unit_orientation(&g);
        let rounds = rounds_for(60, 0.1);
        let result = orientation_of(&g, rounds);
        assert!(result.max_in_degree >= exact.max_in_degree as f64 - 1e-9);
        assert!(
            result.max_in_degree <= 2.0 * 1.1 * exact.max_in_degree as f64 + 1e-6,
            "distributed load {} exceeds 2(1+ε) × optimum {}",
            result.max_in_degree,
            exact.max_in_degree
        );
    }

    #[test]
    fn structured_graphs() {
        // Path: optimum 1; the elimination-based orientation achieves ≤ 2.
        let path = path_graph(12);
        let r = orientation_of(&path, rounds_for(12, 0.5));
        assert!(r.max_in_degree <= 2.0);
        assert_eq!(r.uncovered_edges, 0);

        // Cycle: every node has β = 2; loads stay ≤ 2 (optimum 1).
        let cyc = cycle_graph(10);
        let r = orientation_of(&cyc, rounds_for(10, 0.5));
        assert!(r.max_in_degree <= 2.0);

        // Clique K_6: optimum 3 (15 edges / 6 nodes => ceil(2.5)); β = 5, so
        // the guarantee allows up to 5; check it is within the theorem bound.
        let k6 = complete_graph(6);
        let r = orientation_of(&k6, 4);
        assert!(r.max_in_degree <= 5.0 + 1e-9);
        assert!(r.max_in_degree >= 2.5);
    }

    #[test]
    fn self_loops_are_charged_to_their_node() {
        let mut g = WeightedGraph::new(3);
        g.add_self_loop(NodeId(0), 4.0);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(2), 1.0);
        let r = orientation_of(&g, 3);
        assert!(r.loads[0] >= 4.0);
        assert_eq!(r.assignment.len(), 2);
    }

    #[test]
    fn empty_graph() {
        let g = WeightedGraph::new(0);
        let r = orientation_of(&g, 2);
        assert!(r.assignment.is_empty());
        assert_eq!(r.max_in_degree, 0.0);
    }
}
