//! Influential-spreader identification in a synthetic social network.
//!
//! The paper motivates coreness as a proxy for spreading power in social
//! networks (Kitsak et al.): users in high-coreness shells are good seeds for
//! diffusion. This example builds a Barabási–Albert graph (a stand-in for a
//! social network), ranks nodes by their *distributed approximate* coreness,
//! and shows that the ranking agrees with the exact coreness ranking — while
//! using a number of rounds that is logarithmic in `n` and independent of the
//! network diameter.
//!
//! Run with: `cargo run --release --example social_spreaders`

use dkc::graph::generators::barabasi_albert;
use dkc::graph::properties::{degree_stats, diameter_double_sweep};
use dkc::graph::CsrGraph;
use dkc::prelude::*;

fn main() {
    let n = 20_000;
    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
    let g = barabasi_albert(n, 4, &mut rng);
    let csr = CsrGraph::from(&g);
    let diameter_lb = diameter_double_sweep(&csr, NodeId(0));
    let stats = degree_stats(&csr);
    println!(
        "social network: {} users, {} ties, max degree {:.0}, hop-diameter ≥ {}",
        g.num_nodes(),
        g.num_edges(),
        stats.max,
        diameter_lb
    );

    // Distributed approximation with ε = 0.2.
    let epsilon = 0.2;
    let approx = approximate_coreness(&g, epsilon);
    println!(
        "distributed protocol: {} rounds (vs. diameter ≥ {}), {} messages",
        approx.rounds,
        diameter_lb,
        approx.metrics.total_messages()
    );

    // Exact coreness (centralized) for validation.
    let exact = dkc::baselines::weighted_coreness(&g);
    let ratio = ApproxRatio::compute(&approx.values, &exact);
    println!(
        "approximation quality: max ratio {:.3}, mean ratio {:.3} (bound {:.3})",
        ratio.max,
        ratio.mean,
        2.0 * (1.0 + epsilon)
    );

    // Rank users by approximate coreness and report the top spreaders.
    let mut ranking: Vec<usize> = (0..n).collect();
    ranking.sort_by(|&a, &b| approx.values[b].partial_cmp(&approx.values[a]).unwrap());
    println!("\ntop 10 candidate spreaders (by approximate coreness):");
    println!(" rank | user  | approx shell | exact shell | degree");
    for (rank, &v) in ranking.iter().take(10).enumerate() {
        println!(
            " {:>4} | {:>5} | {:>12.1} | {:>11.1} | {:>6}",
            rank + 1,
            v,
            approx.values[v],
            exact[v],
            g.unweighted_degree(NodeId::new(v as u32 as usize))
        );
    }

    // How much of the exact top-1% shell does the approximate top-1% capture?
    let k = n / 100;
    let mut exact_ranking: Vec<usize> = (0..n).collect();
    exact_ranking.sort_by(|&a, &b| exact[b].partial_cmp(&exact[a]).unwrap());
    let exact_top: std::collections::HashSet<usize> =
        exact_ranking.iter().take(k).copied().collect();
    let overlap = ranking
        .iter()
        .take(k)
        .filter(|v| exact_top.contains(v))
        .count();
    println!(
        "\noverlap between approximate and exact top-1% shells: {}/{} ({:.0}%)",
        overlap,
        k,
        100.0 * overlap as f64 / k as f64
    );
}
