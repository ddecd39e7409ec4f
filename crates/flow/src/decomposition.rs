//! Exact diminishingly-dense decomposition (Definition II.3) and the maximal
//! density `r(v)` of every node.
//!
//! The decomposition repeatedly extracts the **maximal densest subset** of the
//! current quotient graph: `B_0 = ∅`, `G_i = G \ B_{i-1}`, `S_i` = maximal
//! densest subset of `G_i`, `B_i = B_{i-1} ∪ S_i`. Every node `v ∈ S_i` gets
//! maximal density `r(v) = ρ_{G_i}(S_i)`. The sequence of layer densities is
//! strictly decreasing (Fact II.4), and `r(v) ≤ c(v) ≤ 2·r(v)`
//! (Lemma III.4 / Corollary III.6).

use crate::densest::densest_subgraph;
use dkc_graph::quotient::quotient;
use dkc_graph::{NodeId, WeightedGraph};

/// The exact diminishingly-dense decomposition of a graph.
#[derive(Clone, Debug)]
pub struct DenseDecomposition {
    /// `r(v)` — the maximal density of each node (indexed by node id).
    pub maximal_density: Vec<f64>,
    /// The layers `S_1, S_2, …` in extraction order (original node ids).
    pub layers: Vec<Vec<NodeId>>,
    /// The density of each layer, `ρ_{G_i}(S_i)` — strictly decreasing.
    pub layer_densities: Vec<f64>,
}

/// Computes the exact diminishingly-dense decomposition of `g`.
pub fn dense_decomposition(g: &WeightedGraph) -> DenseDecomposition {
    let n = g.num_nodes();
    let mut maximal_density = vec![0.0; n];
    let mut layers = Vec::new();
    let mut layer_densities = Vec::new();

    // Current quotient graph, plus the mapping from its node ids to originals.
    let mut current = g.clone();
    let mut current_to_original: Vec<NodeId> = (0..n).map(NodeId::new).collect();

    while current.num_nodes() > 0 {
        let densest = densest_subgraph(&current);
        let layer_nodes: Vec<NodeId> = densest
            .members
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b)
            .map(|(i, _)| current_to_original[i])
            .collect();
        assert!(
            !layer_nodes.is_empty(),
            "densest subgraph of a non-empty graph must be non-empty"
        );
        if let Some(&prev) = layer_densities.last() {
            debug_assert!(
                densest.density < prev + 1e-6,
                "layer densities must be non-increasing: {} after {}",
                densest.density,
                prev
            );
        }
        for &v in &layer_nodes {
            maximal_density[v.index()] = densest.density;
        }
        layer_densities.push(densest.density);
        layers.push(layer_nodes);

        // Quotient away the layer.
        let q = quotient(&current, &densest.members);
        current_to_original = q
            .old_of_new
            .iter()
            .map(|&old| current_to_original[old.index()])
            .collect();
        current = q.graph;
    }

    DenseDecomposition {
        maximal_density,
        layers,
        layer_densities,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkc_graph::generators::{complete_graph, path_graph, planted_dense_community};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clique_is_a_single_layer() {
        let g = complete_graph(5);
        let d = dense_decomposition(&g);
        assert_eq!(d.layers.len(), 1);
        assert_eq!(d.layers[0].len(), 5);
        for v in 0..5 {
            assert!((d.maximal_density[v] - 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn clique_with_pendant_has_two_layers() {
        let mut g = complete_graph(4);
        let p = g.add_node();
        g.add_unit_edge(NodeId(0), p);
        let d = dense_decomposition(&g);
        assert_eq!(d.layers.len(), 2);
        // Layer 1: the K4 with density 1.5.
        assert!((d.layer_densities[0] - 1.5).abs() < 1e-6);
        // Layer 2: the pendant node alone. Its edge to node 0 becomes a
        // self-loop in the quotient, so its maximal density is 1.
        assert!((d.layer_densities[1] - 1.0).abs() < 1e-6);
        assert!((d.maximal_density[p.index()] - 1.0).abs() < 1e-6);
        assert_eq!(d.layers[1], vec![p]);
        assert!(d.layers[0].contains(&NodeId(0)));
    }

    #[test]
    fn layer_densities_strictly_decrease() {
        let mut rng = StdRng::seed_from_u64(17);
        let planted = planted_dense_community(80, 15, 0.05, 0.9, &mut rng);
        let d = dense_decomposition(&planted.graph);
        for w in d.layer_densities.windows(2) {
            assert!(
                w[1] < w[0] + 1e-9,
                "densities must strictly decrease: {:?}",
                d.layer_densities
            );
        }
        // Every node is assigned to exactly one layer.
        let total: usize = d.layers.iter().map(Vec::len).sum();
        assert_eq!(total, 80);
    }

    #[test]
    fn max_density_matches_densest_subgraph() {
        let mut rng = StdRng::seed_from_u64(23);
        let planted = planted_dense_community(60, 12, 0.05, 0.85, &mut rng);
        let d = dense_decomposition(&planted.graph);
        let ds = crate::densest::densest_subgraph(&planted.graph);
        assert!((d.layer_densities[0] - ds.density).abs() < 1e-6);
    }

    #[test]
    fn path_decomposition() {
        // P_4 has maximum density 3/4 (the whole path); then nothing remains.
        let g = path_graph(4);
        let d = dense_decomposition(&g);
        assert_eq!(d.layers.len(), 1);
        assert!((d.layer_densities[0] - 0.75).abs() < 1e-6);
    }

    #[test]
    fn empty_graph_decomposition() {
        let g = WeightedGraph::new(0);
        let d = dense_decomposition(&g);
        assert!(d.layers.is_empty());
        assert!(d.layer_densities.is_empty());
    }

    #[test]
    fn edgeless_graph_single_zero_layer() {
        let g = WeightedGraph::new(5);
        let d = dense_decomposition(&g);
        assert_eq!(d.layers.len(), 1);
        assert_eq!(d.layer_densities[0], 0.0);
        assert!(d.maximal_density.iter().all(|&r| r == 0.0));
    }

    /// Lemma III.4 / Corollary III.6: r(v) <= c(v) <= 2 r(v), where c(v) is the
    /// exact (weighted) coreness. Here we verify the weaker sanity property
    /// that r(v) is at most the weighted degree of v (since c(v) <= deg(v)).
    #[test]
    fn maximal_density_at_most_degree() {
        let mut rng = StdRng::seed_from_u64(31);
        let planted = planted_dense_community(50, 10, 0.1, 0.8, &mut rng);
        let d = dense_decomposition(&planted.graph);
        for v in planted.graph.nodes() {
            assert!(
                d.maximal_density[v.index()] <= planted.graph.degree(v) + 1e-6,
                "r({v}) = {} exceeds degree {}",
                d.maximal_density[v.index()],
                planted.graph.degree(v)
            );
        }
    }
}
