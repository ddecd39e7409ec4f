//! Quickstart: approximate coreness on a small hand-built graph and compare
//! against the exact values.
//!
//! Run with: `cargo run --release --example quickstart`

use dkc::prelude::*;

fn main() {
    // Build a small graph by hand: a dense community (clique on 0..5) with a
    // sparse tail (5-6-7-8).
    let mut builder = GraphBuilder::new(9);
    for i in 0..5u32 {
        for j in (i + 1)..5 {
            builder.add_unit_edge(NodeId(i), NodeId(j));
        }
    }
    builder.add_unit_edge(NodeId(4), NodeId(5));
    builder.add_unit_edge(NodeId(5), NodeId(6));
    builder.add_unit_edge(NodeId(6), NodeId(7));
    builder.add_unit_edge(NodeId(7), NodeId(8));
    let g = builder.build();

    println!("graph: {} nodes, {} edges", g.num_nodes(), g.num_edges());

    // Distributed 2(1+ε)-approximate coreness (Theorem I.1).
    let epsilon = 0.1;
    let approx = approximate_coreness(&g, epsilon);
    println!(
        "compact elimination: {} rounds (guaranteed factor {:.3})",
        approx.rounds, approx.guaranteed_factor
    );

    // Exact coreness for comparison (centralized baseline).
    let exact = dkc::baselines::weighted_coreness(&g);

    println!("\n node | approx β(v) | exact c(v) | ratio");
    println!(" -----+-------------+------------+------");
    for v in 0..g.num_nodes() {
        let ratio = if exact[v] > 0.0 {
            approx.values[v] / exact[v]
        } else {
            1.0
        };
        println!(
            " {:>4} | {:>11.2} | {:>10.2} | {:>5.2}",
            v, approx.values[v], exact[v], ratio
        );
    }

    let stats = ApproxRatio::compute(&approx.values, &exact);
    println!(
        "\nmax ratio {:.3}, mean ratio {:.3} (theorem guarantees ≤ {:.3})",
        stats.max,
        stats.mean,
        2.0 * (1.0 + epsilon)
    );
    println!(
        "messages sent: {}, largest message: {} bits",
        approx.metrics.total_messages(),
        approx.metrics.totals().max_message_bits
    );
    assert!(stats.max <= 2.0 * (1.0 + epsilon) + 1e-9);
    assert_eq!(stats.lower_bound_violations, 0);
}
