//! Message-size accounting: the CONGEST model and (1+λ)-quantization.
//!
//! The compact elimination procedure sends one number per edge per round. With
//! Λ = ℝ that number is a full machine word; restricting Λ to powers of
//! `(1 + λ)` compresses each message to `⌈log₂ |Λ|⌉` bits at the cost of an
//! extra `(1+λ)` factor in the approximation (Corollary III.10). This example
//! quantifies the trade-off measured by the simulator.
//!
//! Run with: `cargo run --release --example congest_messages`

use dkc::distsim::congest_budget_bits;
use dkc::graph::generators::{barabasi_albert, with_random_integer_weights};
use dkc::prelude::*;

fn main() {
    let n = 5_000;
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let base = barabasi_albert(n, 4, &mut rng);
    let g = with_random_integer_weights(&base, 100, &mut rng);
    let exact_core = dkc::baselines::weighted_coreness(&g);

    let epsilon = 0.2f64;
    let rounds = rounds_for_epsilon(n, epsilon);
    let congest_budget = congest_budget_bits(n, 1);
    println!(
        "graph: {} nodes, {} edges; T = {} rounds; CONGEST budget ≈ {} bits/word",
        g.num_nodes(),
        g.num_edges(),
        rounds,
        congest_budget
    );

    println!("\n        Λ         | max msg bits | total Mbits | max ratio | mean ratio");
    println!(" -----------------+--------------+-------------+-----------+-----------");
    let mut configs: Vec<(String, ThresholdSet)> =
        vec![("reals (exact)".into(), ThresholdSet::Reals)];
    for &lambda in &[0.01, 0.1, 0.5] {
        configs.push((
            format!("powers of {:.2}", 1.0 + lambda),
            ThresholdSet::power_grid(lambda),
        ));
    }
    for (name, lambda_set) in configs {
        let spec = RunSpec::new(rounds).threshold_set(lambda_set);
        let run = run_compact_elimination(&g, &spec).expect("a legal T and no checkpoint");
        let ratio = ApproxRatio::compute(&run.surviving, &exact_core);
        println!(
            " {:<17}| {:>12} | {:>11.1} | {:>9.3} | {:>10.3}",
            name,
            run.metrics.totals().max_message_bits,
            run.metrics.totals().payload_bits as f64 / 1e6,
            ratio.max,
            ratio.mean
        );
    }

    println!("\nquantized messages fit comfortably in the O(log n) CONGEST budget while the");
    println!("approximation quality degrades only by the promised (1+λ) factor.");
}
