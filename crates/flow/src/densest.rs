//! Exact maximum-density subgraph via min-cuts (Goldberg's reduction with
//! edge-nodes, driven by Dinkelbach iteration).
//!
//! For a guess `g`, build the network
//!
//! ```text
//!   source ──w_e──▶ edge-node e ──∞──▶ each endpoint of e
//!   node v ──g──▶ sink
//! ```
//!
//! Then `max_S ( w(E(S)) − g·|S| ) = W − mincut`, where `W` is the total edge
//! weight, and the source side of a minimum cut (restricted to graph nodes) is
//! a maximizer. Dinkelbach iteration (`g ← ρ(S)` of the extracted maximizer)
//! converges to the maximum density `ρ*` in finitely many steps because each
//! `g` is the density of an actual subset and strictly increases.
//!
//! Self-loops are supported (an edge-node with a single endpoint arc), which is
//! required because the diminishingly-dense decomposition operates on quotient
//! graphs.

use crate::dinic::Dinic;
use dkc_graph::WeightedGraph;

/// Relative tolerance for density comparisons during Dinkelbach iteration.
const DENSITY_TOL: f64 = 1e-9;

/// The result of an exact densest-subgraph computation.
#[derive(Clone, Debug)]
pub struct DensestSubgraph {
    /// The maximum density `ρ* = max_S w(E(S)) / |S|`.
    pub density: f64,
    /// Indicator of the **maximal** densest subset (Fact II.1: it is unique and
    /// contains every densest subset).
    pub members: Vec<bool>,
}

impl DensestSubgraph {
    /// Number of nodes in the maximal densest subset.
    pub fn size(&self) -> usize {
        self.members.iter().filter(|&&b| b).count()
    }
}

/// Internal: builds the guess-`g` cut network and returns
/// `(solver, source, sink, first_graph_node_index)`.
fn build_network(g: &WeightedGraph, guess: f64) -> (Dinic, usize, usize, usize) {
    let n = g.num_nodes();
    let edges: Vec<_> = g.edges().collect();
    let m = edges.len();
    // Layout: 0 = source, 1 = sink, 2..2+n = graph nodes, 2+n..2+n+m = edge nodes.
    let source = 0usize;
    let sink = 1usize;
    let node_base = 2usize;
    let edge_base = 2 + n;
    let mut net = Dinic::new(2 + n + m);
    for (idx, &(u, v, w)) in edges.iter().enumerate() {
        let e_node = edge_base + idx;
        net.add_edge(source, e_node, w);
        net.add_edge(e_node, node_base + u.index(), f64::INFINITY);
        if u != v {
            net.add_edge(e_node, node_base + v.index(), f64::INFINITY);
        }
    }
    for v in 0..n {
        net.add_edge(node_base + v, sink, guess);
    }
    (net, source, sink, node_base)
}

/// Extracts the graph-node indicator from a cut side.
fn members_from_cut(cut: &[bool], node_base: usize, n: usize) -> Vec<bool> {
    (0..n).map(|v| cut[node_base + v]).collect()
}

/// Computes the exact maximum density and the maximal densest subset of `g`.
///
/// Runs in `O(k · maxflow(n + m))` where `k` is the number of Dinkelbach
/// iterations (at most `n`, typically a handful). Intended for ground-truth
/// computation on the experiment workloads, not for huge graphs.
pub fn densest_subgraph(g: &WeightedGraph) -> DensestSubgraph {
    let n = g.num_nodes();
    if n == 0 {
        return DensestSubgraph {
            density: 0.0,
            members: Vec::new(),
        };
    }
    let total_w = g.total_edge_weight();
    if total_w <= 0.0 {
        // No edges: every subset has density 0; the maximal one is V.
        return DensestSubgraph {
            density: 0.0,
            members: vec![true; n],
        };
    }

    // Dinkelbach iteration starting from the density of the whole graph.
    let mut guess = g.density();
    let mut best_members = vec![true; n];
    loop {
        let (mut net, source, sink, node_base) = build_network(g, guess);
        let cut = net.max_flow(source, sink);
        let excess = total_w - cut; // = max_S ( w(E(S)) - guess*|S| )
        let members = members_from_cut(&net.min_cut_source_side(source), node_base, n);
        let size = members.iter().filter(|&&b| b).count();
        if size == 0 || excess <= DENSITY_TOL * (1.0 + total_w) {
            break;
        }
        let density = g.subset_edge_weight(&members) / size as f64;
        if density <= guess * (1.0 + DENSITY_TOL) {
            // No strict improvement: converged.
            best_members = members;
            break;
        }
        guess = density;
        best_members = members;
    }

    // Final pass at g = ρ*: the *maximal* min-cut source side is the maximal
    // densest subset.
    let rho = {
        let size = best_members.iter().filter(|&&b| b).count().max(1);
        g.subset_edge_weight(&best_members) / size as f64
    };
    let rho = rho.max(guess);
    let (mut net, source, sink, node_base) = build_network(g, rho);
    net.max_flow(source, sink);
    let maximal = members_from_cut(&net.max_cut_source_side(sink), node_base, n);
    let maximal_size = maximal.iter().filter(|&&b| b).count();
    let (density, members) = if maximal_size > 0 {
        let d = g.subset_edge_weight(&maximal) / maximal_size as f64;
        // Guard against numerical noise making the maximal side slightly worse.
        if d + DENSITY_TOL * (1.0 + rho) >= rho {
            (d, maximal)
        } else {
            (rho, best_members)
        }
    } else {
        (rho, best_members)
    };
    DensestSubgraph { density, members }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkc_graph::generators::{complete_graph, path_graph, planted_dense_community, star_graph};
    use dkc_graph::NodeId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Brute-force densest subset over all non-empty subsets (for tiny graphs).
    fn brute_force_density(g: &WeightedGraph) -> f64 {
        let n = g.num_nodes();
        assert!(n <= 16);
        let mut best = 0.0f64;
        for mask in 1u32..(1 << n) {
            let members: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
            if let Some(d) = g.density_of(&members) {
                best = best.max(d);
            }
        }
        best
    }

    #[test]
    fn clique_density() {
        let g = complete_graph(6);
        let result = densest_subgraph(&g);
        assert!((result.density - 2.5).abs() < 1e-6);
        assert_eq!(result.size(), 6);
    }

    #[test]
    fn path_density() {
        // Densest subset of a path P_n is the whole path: (n-1)/n.
        let g = path_graph(5);
        let result = densest_subgraph(&g);
        assert!((result.density - 0.8).abs() < 1e-6);
        assert_eq!(result.size(), 5);
    }

    #[test]
    fn star_density() {
        // Star S_n: densest subset is the whole star with density (n-1)/n.
        let g = star_graph(7);
        let result = densest_subgraph(&g);
        assert!((result.density - 6.0 / 7.0).abs() < 1e-6);
    }

    #[test]
    fn clique_plus_pendant_excludes_pendant() {
        // K_5 plus a pendant node attached to node 0: the densest subset is K_5.
        let mut g = complete_graph(5);
        let p = g.add_node();
        g.add_unit_edge(NodeId(0), p);
        let result = densest_subgraph(&g);
        assert!((result.density - 2.0).abs() < 1e-6);
        assert_eq!(result.size(), 5);
        assert!(!result.members[p.index()]);
    }

    #[test]
    fn weighted_edges_dominate() {
        // A heavy edge {0,1} of weight 10 vs a unit triangle {2,3,4}: densest
        // subset is the heavy pair with density 5.
        let mut g = WeightedGraph::new(5);
        g.add_edge(NodeId(0), NodeId(1), 10.0);
        g.add_unit_edge(NodeId(2), NodeId(3));
        g.add_unit_edge(NodeId(3), NodeId(4));
        g.add_unit_edge(NodeId(2), NodeId(4));
        let result = densest_subgraph(&g);
        assert!((result.density - 5.0).abs() < 1e-6);
        assert_eq!(result.size(), 2);
        assert!(result.members[0] && result.members[1]);
    }

    #[test]
    fn self_loops_contribute_to_density() {
        // A single node with a self-loop of weight 3 has density 3.
        let mut g = WeightedGraph::new(3);
        g.add_self_loop(NodeId(0), 3.0);
        g.add_unit_edge(NodeId(1), NodeId(2));
        let result = densest_subgraph(&g);
        assert!((result.density - 3.0).abs() < 1e-6);
        assert!(result.members[0]);
        assert!(!result.members[1]);
    }

    #[test]
    fn maximal_densest_subset_is_returned() {
        // Two disjoint triangles: both have density 1; the maximal densest
        // subset is their union (also density 1).
        let mut g = WeightedGraph::new(6);
        for (a, b) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            g.add_unit_edge(NodeId(a), NodeId(b));
        }
        let result = densest_subgraph(&g);
        assert!((result.density - 1.0).abs() < 1e-6);
        assert_eq!(result.size(), 6, "expected the union of both triangles");
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..20 {
            let n = rng.gen_range(2..9);
            let mut g = WeightedGraph::new(n);
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.gen_bool(0.5) {
                        let w = rng.gen_range(1..5) as f64;
                        g.add_edge(NodeId::new(i), NodeId::new(j), w);
                    }
                }
            }
            let exact = brute_force_density(&g);
            let result = densest_subgraph(&g);
            assert!(
                (result.density - exact).abs() < 1e-6,
                "trial {trial}: flow-based {} vs brute force {exact}",
                result.density
            );
        }
    }

    #[test]
    fn planted_community_is_recovered() {
        let mut rng = StdRng::seed_from_u64(5);
        let planted = planted_dense_community(120, 20, 0.02, 0.9, &mut rng);
        let result = densest_subgraph(&planted.graph);
        assert!(result.density >= planted.planted_density - 1e-9);
        // The recovered set should be mostly the planted community.
        let overlap = result
            .members
            .iter()
            .zip(&planted.members)
            .filter(|&(&a, &b)| a && b)
            .count();
        assert!(overlap >= 15, "only {overlap} planted nodes recovered");
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let empty = WeightedGraph::new(0);
        let r = densest_subgraph(&empty);
        assert_eq!(r.density, 0.0);
        assert_eq!(r.size(), 0);

        let edgeless = WeightedGraph::new(4);
        let r = densest_subgraph(&edgeless);
        assert_eq!(r.density, 0.0);
        assert_eq!(r.size(), 4);
    }
}
