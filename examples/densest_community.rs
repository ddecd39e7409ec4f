//! Community detection via the weak densest-subset protocol.
//!
//! A planted dense community inside a sparse background graph stands in for a
//! group of users with shared interests inside a large social network. The
//! four-phase protocol of Section IV (Theorem I.3) lets every node learn, in
//! `O(log_{1+ε} n)` rounds, whether it belongs to one of a family of disjoint
//! candidate subsets, one of which is guaranteed to be a `2(1+ε)`-approximate
//! densest subset.
//!
//! Run with: `cargo run --release --example densest_community`

use dkc::flow::densest_subgraph;
use dkc::graph::generators::planted_dense_community;
use dkc::prelude::*;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let n = 2_000;
    let community_size = 60;
    let planted = planted_dense_community(n, community_size, 0.004, 0.8, &mut rng);
    let g = &planted.graph;
    println!(
        "network: {} users, {} ties; planted community of {} users with density {:.2}",
        g.num_nodes(),
        g.num_edges(),
        community_size,
        planted.planted_density
    );

    // Exact densest subgraph (centralized ground truth).
    let exact = densest_subgraph(g);
    println!(
        "exact densest subset: density {:.2}, size {}",
        exact.density,
        exact.size()
    );

    // Weak densest-subset protocol.
    let epsilon = 0.25;
    let result = weak_densest_subsets(g, epsilon);
    println!(
        "\nprotocol: {} total rounds across 4 phases {:?}, {} messages",
        result.rounds_total, result.phase_rounds, result.total_messages
    );
    println!("candidate subsets returned: {}", result.clusters.len());

    let mut clusters = result.clusters.clone();
    clusters.sort_by(|a, b| b.actual_density.partial_cmp(&a.actual_density).unwrap());
    println!("\n   leader | size | est. density | true density");
    for c in clusters.iter().take(5) {
        println!(
            " {:>8} | {:>4} | {:>12.2} | {:>12.2}",
            c.leader.index(),
            c.size,
            c.estimated_density,
            c.actual_density
        );
    }

    let best = &clusters[0];
    let guarantee = exact.density / (2.0 * (1.0 + epsilon));
    println!(
        "\nbest candidate density {:.2} ≥ ρ*/(2(1+ε)) = {:.2}  ✓ (Theorem I.3)",
        best.actual_density, guarantee
    );
    assert!(best.actual_density >= guarantee - 1e-9);

    // How well does the best candidate overlap the planted community?
    let members_in_planted = result
        .membership
        .iter()
        .enumerate()
        .filter(|(v, m)| **m == Some(best.leader) && planted.members[*v])
        .count();
    println!(
        "overlap with the planted community: {}/{} of the candidate's members",
        members_in_planted, best.size
    );
}
