//! Property-based tests (proptest) of the paper's invariants on random
//! weighted graphs.

use dkc::baselines::weighted_coreness;
use dkc::core::orientation::orientation_from_compact;
use dkc::core::surviving::surviving_numbers;
use dkc::flow::{dense_decomposition, densest_subgraph};
use dkc::graph::CsrGraph;
use dkc::prelude::*;
use proptest::prelude::*;

/// Strategy: a random weighted graph with up to `max_n` nodes and integer-ish
/// weights, given as (n, edge list).
fn arb_graph(max_n: usize) -> impl Strategy<Value = WeightedGraph> {
    (2usize..max_n).prop_flat_map(move |n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec(
            (0..n, 0..n, 1u32..6u32),
            0..(2 * max_edges).min(4 * n).max(1),
        )
        .prop_map(move |edges| {
            let mut builder = GraphBuilder::new(n);
            for (u, v, w) in edges {
                if u != v {
                    builder.add_edge(NodeId::new(u), NodeId::new(v), w as f64);
                }
            }
            builder.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem III.5 sandwich on arbitrary random graphs and round budgets:
    /// r(v) ≤ c(v) ≤ β^T(v) ≤ 2 n^{1/T} · r(v).
    #[test]
    fn surviving_number_sandwich(g in arb_graph(24), rounds in 1usize..8) {
        let beta = surviving_numbers(&g, rounds);
        let core = weighted_coreness(&g);
        let decomposition = dense_decomposition(&g);
        let gamma = 2.0 * (g.num_nodes().max(1) as f64).powf(1.0 / rounds as f64);
        for v in 0..g.num_nodes() {
            let r = decomposition.maximal_density[v];
            let c = core[v];
            prop_assert!(r <= c + 1e-6);
            prop_assert!(c <= 2.0 * r + 1e-6);
            prop_assert!(c <= beta[v] + 1e-6);
            prop_assert!(beta[v] <= gamma * r + 1e-6,
                "node {v}: beta {} > {} (gamma {gamma}, r {r})", beta[v], gamma * r);
        }
    }

    /// The distributed compact elimination equals the centralized reference.
    #[test]
    fn distributed_equals_centralized(g in arb_graph(20), rounds in 1usize..6) {
        let reference = surviving_numbers(&g, rounds);
        let outcome = run_compact_elimination(&g, &RunSpec::new(rounds).mode(ExecutionMode::Dense)).unwrap();
        for v in 0..g.num_nodes() {
            prop_assert!((outcome.surviving[v] - reference[v]).abs() < 1e-9);
        }
    }

    /// Definition III.7 invariants after any number of rounds: every edge is
    /// claimed by an endpoint, and claimed weight never exceeds the claimer's
    /// surviving number; consequently the orientation load is at most
    /// 2 n^{1/T} ρ*.
    #[test]
    fn orientation_invariants(g in arb_graph(20), rounds in 1usize..6) {
        let outcome = run_compact_elimination(&g, &RunSpec::new(rounds).mode(ExecutionMode::Dense)).unwrap();
        for (u, v, _) in g.edges() {
            if u == v { continue; }
            prop_assert!(
                outcome.in_neighbors[u.index()].contains(&v)
                    || outcome.in_neighbors[v.index()].contains(&u),
                "edge {{{u},{v}}} unclaimed"
            );
        }
        let orientation = orientation_from_compact(&CsrGraph::from(&g), &outcome);
        prop_assert_eq!(orientation.uncovered_edges, 0);
        let rho = densest_subgraph(&g).density;
        let gamma = 2.0 * (g.num_nodes().max(1) as f64).powf(1.0 / rounds as f64);
        prop_assert!(orientation.max_in_degree <= gamma * rho + 1e-6);
    }

    /// Quantized runs (Λ = powers of 1+λ) stay within the extra (1+λ) factor of
    /// the exact run and never increase.
    #[test]
    fn quantization_error_is_bounded(g in arb_graph(20), lambda_pct in 1u32..60) {
        let lambda = lambda_pct as f64 / 100.0;
        let rounds = 4;
        let exact = run_compact_elimination(&g, &RunSpec::new(rounds).mode(ExecutionMode::Dense)).unwrap();
        let quantized = run_compact_elimination(&g, &RunSpec::new(rounds).threshold_set(ThresholdSet::power_grid(lambda)).mode(ExecutionMode::Dense)).unwrap();
        for v in 0..g.num_nodes() {
            prop_assert!(quantized.surviving[v] <= exact.surviving[v] + 1e-9);
            prop_assert!(
                quantized.surviving[v] * (1.0 + lambda).powi(rounds as i32)
                    >= exact.surviving[v] - 1e-9,
                "node {v}: quantized {} too far below exact {}",
                quantized.surviving[v], exact.surviving[v]
            );
        }
    }

    /// The weak densest-subset protocol returns disjoint clusters, one of which
    /// is 2 n^{1/T}-approximately densest.
    #[test]
    fn weak_densest_guarantee(g in arb_graph(18), rounds in 2usize..6) {
        let result = dkc::core::densest::weak_densest_subsets_with_rounds(
            &g, rounds, ExecutionMode::Dense);
        let exact = densest_subgraph(&g).density;
        let gamma = 2.0 * (g.num_nodes().max(1) as f64).powf(1.0 / rounds as f64);
        if exact > 0.0 {
            prop_assert!(
                result.best_density >= exact / gamma - 1e-9,
                "best {} below rho*/gamma = {}", result.best_density, exact / gamma
            );
        }
        let assigned = result.membership.iter().filter(|m| m.is_some()).count();
        let total: usize = result.clusters.iter().map(|c| c.size).sum();
        prop_assert_eq!(assigned, total);
    }

    /// Coreness (exact baseline) is itself consistent: the c(v)-core containing
    /// v has minimum degree ≥ c(v) — cross-validating the two baselines used as
    /// ground truth everywhere else.
    #[test]
    fn exact_coreness_certificate(g in arb_graph(24)) {
        let core = weighted_coreness(&g);
        for v in 0..g.num_nodes() {
            let members: Vec<bool> = (0..g.num_nodes())
                .map(|u| core[u] >= core[v] - 1e-9)
                .collect();
            let deg = g.degree_within(NodeId::new(v), &members);
            prop_assert!(deg >= core[v] - 1e-6,
                "node {v}: degree {deg} within its own core < c(v) = {}", core[v]);
        }
    }
}
