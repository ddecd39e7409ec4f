//! End-to-end integration tests spanning all workspace crates: the three
//! problems are solved on the same workloads and validated against the exact
//! centralized ground truth, including the paper's adversarial constructions.

use dkc::baselines::{montresor_exact_coreness, weighted_coreness};
use dkc::core::orientation::orientation_from_compact;
use dkc::core::surviving::surviving_numbers;
use dkc::flow::{dense_decomposition, densest_subgraph, exact_unit_orientation};
use dkc::graph::generators::{
    barabasi_albert, chung_lu_power_law, erdos_renyi, fig1_gadget, grid_graph,
    planted_dense_community, tree_with_leaf_clique, with_random_integer_weights, Fig1Variant,
};
use dkc::graph::properties::{diameter_double_sweep, diameter_exact};
use dkc::graph::CsrGraph;
use dkc::prelude::*;

fn workloads() -> Vec<(&'static str, WeightedGraph)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(12345);
    vec![
        ("erdos_renyi", erdos_renyi(120, 0.06, &mut rng)),
        ("barabasi_albert", barabasi_albert(150, 3, &mut rng)),
        ("chung_lu", chung_lu_power_law(150, 2.5, 6.0, &mut rng)),
        (
            "planted",
            planted_dense_community(120, 20, 0.04, 0.85, &mut rng).graph,
        ),
        (
            "weighted_ba",
            with_random_integer_weights(&barabasi_albert(100, 3, &mut rng), 9, &mut rng),
        ),
        ("grid", grid_graph(10, 12)),
    ]
}

/// Theorem I.1 on every workload: c(v) ≤ β^T(v) ≤ 2(1+ε)·r(v) ≤ 2(1+ε)·c(v).
#[test]
fn coreness_guarantee_across_workloads() {
    let epsilon = 0.25;
    for (name, g) in workloads() {
        let approx = approximate_coreness(&g, epsilon);
        let core = weighted_coreness(&g);
        let decomposition = dense_decomposition(&g);
        for v in 0..g.num_nodes() {
            assert!(
                approx.values[v] >= core[v] - 1e-9,
                "{name}: node {v} approx below coreness"
            );
            assert!(
                approx.values[v] <= 2.0 * (1.0 + epsilon) * decomposition.maximal_density[v] + 1e-6,
                "{name}: node {v} approx {} above 2(1+ε)·r = {}",
                approx.values[v],
                2.0 * (1.0 + epsilon) * decomposition.maximal_density[v]
            );
            // Corollary III.6: r(v) <= c(v) <= 2 r(v).
            assert!(decomposition.maximal_density[v] <= core[v] + 1e-6, "{name}");
            assert!(
                core[v] <= 2.0 * decomposition.maximal_density[v] + 1e-6,
                "{name}"
            );
        }
    }
}

/// Theorem I.2 on every workload: the orientation is feasible and its maximum
/// load is at most 2(1+ε)·ρ*.
#[test]
fn orientation_guarantee_across_workloads() {
    let epsilon = 0.25;
    for (name, g) in workloads() {
        let approx = approximate_orientation(&g, epsilon);
        let rho = densest_subgraph(&g).density;
        assert_eq!(
            approx.assignment.len(),
            g.num_plain_edges(),
            "{name}: not every edge assigned"
        );
        assert!(
            approx.max_in_degree <= 2.0 * (1.0 + epsilon) * rho + 1e-6,
            "{name}: load {} > 2(1+ε)ρ* = {}",
            approx.max_in_degree,
            2.0 * (1.0 + epsilon) * rho
        );
        assert!(approx.max_in_degree >= rho - 1e-6, "{name}: below LP bound");
    }
}

/// Theorem I.3 on every workload: some returned subset is 2(1+ε)-densest, and
/// the subsets are disjoint.
#[test]
fn densest_guarantee_across_workloads() {
    let epsilon = 0.25;
    for (name, g) in workloads() {
        let exact = densest_subgraph(&g).density;
        let result = weak_densest_subsets(&g, epsilon);
        assert!(
            result.best_density >= exact / (2.0 * (1.0 + epsilon)) - 1e-9,
            "{name}: best density {} below ρ*/(2(1+ε)) = {}",
            result.best_density,
            exact / (2.0 * (1.0 + epsilon))
        );
        let assigned = result.membership.iter().filter(|m| m.is_some()).count();
        let total: usize = result.clusters.iter().map(|c| c.size).sum();
        assert_eq!(assigned, total, "{name}: clusters overlap or leak");
    }
}

/// The exact distributed baseline (Montresor et al.) agrees with the exact
/// centralized coreness, and the approximate protocol uses far fewer rounds on
/// high-diameter graphs.
#[test]
fn approximate_beats_exact_on_round_count_for_high_diameter_graphs() {
    // A long path: the hardest case for the exact distributed protocol, whose
    // estimates travel one hop per round from the endpoints inwards.
    let g = dkc::graph::generators::path_graph(240);
    let csr = CsrGraph::from(&g);
    assert!(diameter_exact(&csr) >= 239);

    let exact_run = montresor_exact_coreness(&g, 10_000, ExecutionMode::Dense);
    assert!(exact_run.converged);
    let core = weighted_coreness(&g);
    for v in 0..g.num_nodes() {
        assert!((exact_run.coreness[v] - core[v]).abs() < 1e-9);
    }

    let epsilon = 0.5;
    let approx = approximate_coreness(&g, epsilon);
    assert!(
        approx.rounds < exact_run.rounds,
        "approximate rounds {} should be below exact convergence rounds {}",
        approx.rounds,
        exact_run.rounds
    );
    let ratio = ApproxRatio::compute(&approx.values, &core);
    assert!(ratio.max <= 2.0 * (1.0 + epsilon) + 1e-9);
}

/// Figure I.1: the three gadgets are indistinguishable from node v's
/// perspective for T ≪ n, even though the coreness of v differs by a factor 2 —
/// the elimination procedure therefore reports identical surviving numbers for
/// v on all three, and the factor-2 gap is real.
#[test]
fn figure_1_indistinguishability() {
    let n = 60;
    let a = fig1_gadget(n, Fig1Variant::A);
    let b = fig1_gadget(n, Fig1Variant::B);
    let c = fig1_gadget(n, Fig1Variant::C);

    let core_a = weighted_coreness(&a);
    let core_b = weighted_coreness(&b);
    let core_c = weighted_coreness(&c);
    assert_eq!(core_a[0], 2.0);
    assert_eq!(core_b[0], 1.0);
    assert_eq!(core_c[0], 1.0);

    // For T well below n/2, the surviving number of v (node 0) is identical on
    // all three gadgets.
    for rounds in [1usize, 3, 8, 15] {
        let beta_a = surviving_numbers(&a, rounds)[0];
        let beta_b = surviving_numbers(&b, rounds)[0];
        let beta_c = surviving_numbers(&c, rounds)[0];
        assert_eq!(beta_a, beta_b, "T = {rounds}");
        assert_eq!(beta_a, beta_c, "T = {rounds}");
        assert_eq!(beta_a, 2.0, "on a ring the surviving number stays 2");
    }

    // The exact orientation optimum is 1 on all gadgets (they are sparse), so
    // any algorithm claiming a < 2 approximation for v's incident edges would
    // have to distinguish the gadgets — which the surviving numbers cannot.
    assert_eq!(exact_unit_orientation(&b).max_in_degree, 1);
    assert_eq!(exact_unit_orientation(&c).max_in_degree, 1);
}

/// Lemma III.13: on the γ-ary tree with a leaf clique, the root cannot learn
/// its coreness jump within fewer than ~depth rounds.
#[test]
fn lower_bound_tree_requires_depth_rounds() {
    let gamma = 3;
    let depth = 5;
    let (tree, root, _) = tree_with_leaf_clique(gamma, depth, false);
    let (clique, root2, _) = tree_with_leaf_clique(gamma, depth, true);
    assert_eq!(root, root2);

    let core_tree = weighted_coreness(&tree)[root.index()];
    let core_clique = weighted_coreness(&clique)[root.index()];
    assert_eq!(core_tree, 1.0);
    assert!(core_clique >= gamma as f64);

    // With fewer rounds than the depth, the root's surviving number is the same
    // in both graphs (it cannot see the leaves), so no < γ approximation is
    // possible at that budget.
    for rounds in 1..depth {
        let beta_tree = surviving_numbers(&tree, rounds)[root.index()];
        let beta_clique = surviving_numbers(&clique, rounds)[root.index()];
        assert_eq!(
            beta_tree, beta_clique,
            "root distinguishable after only {rounds} rounds"
        );
    }
    // Once the root budget covers the depth, the clique's effect reaches it.
    let beta_tree_full = surviving_numbers(&tree, 3 * depth)[root.index()];
    let beta_clique_full = surviving_numbers(&clique, 3 * depth)[root.index()];
    assert!(beta_clique_full > beta_tree_full);
}

/// The compact elimination, and the orientation built from it, behave
/// identically on one thread and on four, in dense and in frontier rounds
/// (rounds are barriers).
#[test]
fn deterministic_across_execution_modes() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(777);
    let g = barabasi_albert(300, 4, &mut rng);
    let spec = RunSpec::new(rounds_for_epsilon(g.num_nodes(), 0.3));
    let on_threads = |threads: usize, mode: ExecutionMode| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let outcome = pool
            .install(|| run_compact_elimination(&g, &spec.clone().mode(mode)))
            .unwrap();
        let orientation = orientation_from_compact(&CsrGraph::from(&g), &outcome);
        (outcome, orientation)
    };
    let (a, oa) = on_threads(1, ExecutionMode::Dense);
    for (threads, mode) in [
        (4, ExecutionMode::Dense),
        (1, ExecutionMode::Auto),
        (4, ExecutionMode::Auto),
    ] {
        let (b, ob) = on_threads(threads, mode);
        assert_eq!(a.surviving, b.surviving, "{mode:?} on {threads}");
        assert_eq!(oa.assignment, ob.assignment, "{mode:?} on {threads}");
        assert_eq!(oa.max_in_degree, ob.max_in_degree, "{mode:?} on {threads}");
    }
}

/// The rounds used by the protocol do not grow with the diameter: a long grid
/// and a compact expander of the same size use the same round budget.
#[test]
fn round_budget_is_diameter_independent() {
    let epsilon = 0.5;
    let long = grid_graph(2, 450); // 900 nodes, diameter ~ 450
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let compact_g = erdos_renyi(900, 0.01, &mut rng); // diameter ~ 3-4
    let csr_long = CsrGraph::from(&long);
    let csr_compact = CsrGraph::from(&compact_g);
    assert!(diameter_double_sweep(&csr_long, NodeId(0)) > 100);
    assert!(diameter_double_sweep(&csr_compact, NodeId(0)) < 20);

    let a = approximate_coreness(&long, epsilon);
    let b = approximate_coreness(&compact_g, epsilon);
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.rounds, rounds_for_epsilon(900, epsilon));
}
