//! Graphs with a planted dense community, used for the densest-subset
//! experiments (the planted set gives a known near-optimal density to compare
//! against).

use crate::builder::GraphBuilder;
use crate::node::NodeId;
use crate::weighted::WeightedGraph;
use rand::Rng;
use std::collections::HashSet;

/// A graph with a planted dense community.
#[derive(Clone, Debug)]
pub struct PlantedCommunity {
    /// The full graph.
    pub graph: WeightedGraph,
    /// Indicator of community membership (nodes `0..community_size`).
    pub members: Vec<bool>,
    /// The density of the planted community counted in isolation
    /// (`w(E(community)) / |community|`).
    pub planted_density: f64,
}

/// Generates a sparse Erdős–Rényi background on `n` nodes with edge
/// probability `p_background`, and plants a dense Erdős–Rényi community with
/// probability `p_community` on the first `community_size` nodes.
///
/// With `p_community` close to 1 and `p_background` small, the planted set is
/// (close to) the maximum-density subgraph, giving a known ground truth that
/// the weak densest-subset protocol must recover up to factor `2(1+ε)`.
pub fn planted_dense_community<R: Rng>(
    n: usize,
    community_size: usize,
    p_background: f64,
    p_community: f64,
    rng: &mut R,
) -> PlantedCommunity {
    assert!(community_size <= n);
    assert!((0.0..=1.0).contains(&p_background));
    assert!((0.0..=1.0).contains(&p_community));
    let mut builder = GraphBuilder::new(n);
    // The pairs `(i, j)`, `i < j`, added so far, for membership tests only.
    let mut added: HashSet<(usize, usize)> = HashSet::new();
    // Background edges.
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(p_background) {
                builder.add_unit_edge(NodeId::new(i), NodeId::new(j));
                added.insert((i, j));
            }
        }
    }
    // Planted community edges, skipping pairs the background already has.
    for i in 0..community_size {
        for j in (i + 1)..community_size {
            if rng.gen_bool(p_community) && added.insert((i, j)) {
                builder.add_unit_edge(NodeId::new(i), NodeId::new(j));
            }
        }
    }
    let graph = builder.build();
    let members: Vec<bool> = (0..n).map(|i| i < community_size).collect();
    let planted_density = graph.density_of(&members).unwrap_or(0.0);
    PlantedCommunity {
        graph,
        members,
        planted_density,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn planted_community_is_denser_than_background() {
        let mut rng = StdRng::seed_from_u64(11);
        let planted = planted_dense_community(300, 30, 0.01, 0.8, &mut rng);
        planted.graph.check_consistency();
        assert_eq!(planted.graph.num_nodes(), 300);
        let whole = planted.graph.density();
        assert!(
            planted.planted_density > 2.0 * whole,
            "planted density {} should dominate overall density {whole}",
            planted.planted_density
        );
        // A dense-ish community of 30 nodes at p=0.8 has density ≈ 0.8*29/2 ≈ 11.6.
        assert!(planted.planted_density > 8.0);
    }

    #[test]
    fn members_indicator_matches_size() {
        let mut rng = StdRng::seed_from_u64(12);
        let planted = planted_dense_community(100, 10, 0.02, 0.9, &mut rng);
        assert_eq!(planted.members.iter().filter(|&&b| b).count(), 10);
        assert!(planted.members[0] && planted.members[9] && !planted.members[10]);
    }

    #[test]
    fn zero_probabilities_give_empty_graph() {
        let mut rng = StdRng::seed_from_u64(13);
        let planted = planted_dense_community(50, 10, 0.0, 0.0, &mut rng);
        assert_eq!(planted.graph.num_edges(), 0);
        assert_eq!(planted.planted_density, 0.0);
    }
}
