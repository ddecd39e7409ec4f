//! High-level one-call entry points for the three problems.

use crate::checkpoint::MAX_ROUNDS;
use crate::compact::{run_compact_elimination, CompactOutcome, RunSpec};
use crate::orientation::{orientation_from_compact, OrientationResult};
use crate::threshold::ThresholdSet;
use dkc_distsim::{ExecutionMode, RunMetrics};
use dkc_graph::{NodeId, WeightedGraph};
use std::fmt;

pub use crate::densest::{weak_densest_subsets, weak_densest_subsets_with_rounds};

/// A round budget T outside `1..=`[`MAX_ROUNDS`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundsOutOfRange {
    /// The rejected round count.
    pub rounds: usize,
}

impl fmt::Display for RoundsOutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rounds is outside the legal range 1..={MAX_ROUNDS}",
            self.rounds
        )
    }
}

impl std::error::Error for RoundsOutOfRange {}

/// `rounds` if it is a legal round budget, `1..=`[`MAX_ROUNDS`].
pub fn checked_rounds(rounds: usize) -> Result<usize, RoundsOutOfRange> {
    if rounds >= 1 && rounds as u64 <= MAX_ROUNDS {
        Ok(rounds)
    } else {
        Err(RoundsOutOfRange { rounds })
    }
}

/// Number of rounds needed for a `2(1+ε)`-approximation: `⌈log_{1+ε} n⌉`
/// (Theorems I.1 / I.2; at least 1).
pub fn rounds_for_epsilon(n: usize, epsilon: f64) -> usize {
    assert!(epsilon > 0.0, "epsilon must be positive");
    if n <= 1 {
        return 1;
    }
    ((n as f64).ln() / (1.0 + epsilon).ln()).ceil().max(1.0) as usize
}

/// Number of rounds needed for a γ-approximation with γ > 2:
/// `⌈log n / log(γ/2)⌉` (Theorem III.5; at least 1).
pub fn rounds_for_gamma(n: usize, gamma: f64) -> usize {
    assert!(gamma > 2.0, "gamma must exceed 2");
    if n <= 1 {
        return 1;
    }
    ((n as f64).ln() / (gamma / 2.0).ln()).ceil().max(1.0) as usize
}

/// The guaranteed approximation factor after `rounds` rounds on an `n`-node
/// graph: `2·n^{1/T}` (Lemma III.3).
pub fn guaranteed_factor(n: usize, rounds: usize) -> f64 {
    assert!(rounds >= 1);
    2.0 * (n.max(1) as f64).powf(1.0 / rounds as f64)
}

/// Output of [`approximate_coreness`].
#[derive(Clone, Debug)]
pub struct CorenessApproximation {
    /// Per-node surviving numbers `β^T(v)`: simultaneously a γ-approximation of
    /// the coreness `c(v)` and of the maximal density `r(v)`.
    pub values: Vec<f64>,
    /// Number of communication rounds used.
    pub rounds: usize,
    /// The guaranteed approximation factor `2·n^{1/T}`.
    pub guaranteed_factor: f64,
    /// Communication metrics.
    pub metrics: RunMetrics,
}

impl CorenessApproximation {
    /// Wraps a finished run on an `n`-node graph under threshold set Λ. The
    /// guarantee is `2·n^{1/T}`, times `(1+λ)` for a quantized Λ; under a
    /// fault plan it is what the run *targets*, not what it proves (faults
    /// only slow convergence, so the values stay valid upper bounds).
    pub fn new(n: usize, threshold_set: ThresholdSet, outcome: CompactOutcome) -> Self {
        CorenessApproximation {
            guaranteed_factor: guaranteed_factor(n, outcome.rounds) * threshold_set.rounding_loss(),
            values: outcome.surviving,
            rounds: outcome.rounds,
            metrics: outcome.metrics,
        }
    }
}

/// Approximates every node's coreness value (and maximal density) within a
/// factor `2(1+ε)` using `⌈log_{1+ε} n⌉` rounds (Theorem I.1). For any other
/// round budget, threshold set, fault plan, sharding or checkpointing, build a
/// [`RunSpec`] and call [`run_compact_elimination`].
///
/// # Panics
///
/// Panics if ε is so small that the round count exceeds [`MAX_ROUNDS`].
pub fn approximate_coreness(
    g: &WeightedGraph,
    epsilon: f64,
    mode: ExecutionMode,
) -> CorenessApproximation {
    let spec = RunSpec::new(rounds_for_epsilon(g.num_nodes(), epsilon)).mode(mode);
    let outcome = run_compact_elimination(g, &spec).unwrap_or_else(|e| panic!("{e}"));
    CorenessApproximation::new(g.num_nodes(), spec.threshold_set, outcome)
}

/// Output of [`approximate_orientation`].
#[derive(Clone, Debug)]
pub struct OrientationApproximation {
    /// The per-edge assignment (`(u, v, owner)` triples).
    pub assignment: Vec<(NodeId, NodeId, NodeId)>,
    /// Per-node assigned weight.
    pub loads: Vec<f64>,
    /// The maximum weighted in-degree achieved.
    pub max_in_degree: f64,
    /// Number of communication rounds used (including the conflict-resolution
    /// round).
    pub rounds: usize,
    /// The guaranteed approximation factor `2·n^{1/T}`.
    pub guaranteed_factor: f64,
    /// Communication metrics of the elimination phase.
    pub metrics: RunMetrics,
}

/// Computes a `2(1+ε)`-approximate min-max edge orientation in
/// `⌈log_{1+ε} n⌉ + 1` rounds (Theorem I.2).
pub fn approximate_orientation(
    g: &WeightedGraph,
    epsilon: f64,
    mode: ExecutionMode,
) -> OrientationApproximation {
    let rounds = rounds_for_epsilon(g.num_nodes(), epsilon);
    approximate_orientation_with_rounds(g, rounds, mode)
}

/// Same as [`approximate_orientation`] with an explicit round budget.
///
/// # Panics
///
/// Panics if `rounds` is outside `1..=`[`MAX_ROUNDS`].
pub fn approximate_orientation_with_rounds(
    g: &WeightedGraph,
    rounds: usize,
    mode: ExecutionMode,
) -> OrientationApproximation {
    let outcome = run_compact_elimination(g, &RunSpec::new(rounds).mode(mode))
        .unwrap_or_else(|e| panic!("{e}"));
    let OrientationResult {
        assignment,
        loads,
        max_in_degree,
        uncovered_edges,
    } = orientation_from_compact(g, &outcome);
    debug_assert_eq!(uncovered_edges, 0, "Λ = ℝ guarantees full edge coverage");
    OrientationApproximation {
        assignment,
        loads,
        max_in_degree,
        rounds: rounds + 1,
        guaranteed_factor: guaranteed_factor(g.num_nodes(), rounds),
        metrics: outcome.metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkc_baselines::weighted_coreness;
    use dkc_flow::{densest_subgraph, fractional_orientation_lower_bound};
    use dkc_graph::generators::{barabasi_albert, erdos_renyi, with_random_integer_weights};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn round_formulas() {
        assert_eq!(rounds_for_epsilon(1, 0.1), 1);
        assert_eq!(rounds_for_epsilon(1000, 1.0), 10);
        // log_{1.1} 1000 ≈ 72.5 -> 73
        assert_eq!(rounds_for_epsilon(1000, 0.1), 73);
        // gamma = 2(1+eps) must agree with the epsilon formula.
        assert_eq!(rounds_for_gamma(1000, 4.0), rounds_for_epsilon(1000, 1.0));
        assert!(guaranteed_factor(1000, 10) > 2.0);
        assert!((guaranteed_factor(1000, 10) - 2.0 * 1000f64.powf(0.1)).abs() < 1e-12);
        let cap = MAX_ROUNDS as usize;
        assert_eq!(checked_rounds(1), Ok(1));
        assert_eq!(checked_rounds(cap), Ok(cap));
        for bad in [0, cap + 1, usize::MAX] {
            assert_eq!(checked_rounds(bad), Err(RoundsOutOfRange { rounds: bad }));
        }
        // At the cap the factor is within 0.034% of 2 for any u32 node count.
        assert!(guaranteed_factor(u32::MAX as usize, cap) < 2.0 * 1.00034);
    }

    #[test]
    fn coreness_api_satisfies_guarantee() {
        let mut rng = StdRng::seed_from_u64(71);
        let g = barabasi_albert(120, 3, &mut rng);
        let epsilon = 0.25;
        let approx = approximate_coreness(&g, epsilon, ExecutionMode::Sequential);
        let exact = weighted_coreness(&g);
        assert_eq!(approx.rounds, rounds_for_epsilon(120, epsilon));
        for v in 0..120 {
            assert!(approx.values[v] >= exact[v] - 1e-9);
            assert!(
                approx.values[v] <= 2.0 * (1.0 + epsilon) * exact[v] + 1e-9,
                "node {v}: {} vs coreness {}",
                approx.values[v],
                exact[v]
            );
        }
        assert!(approx.guaranteed_factor <= 2.0 * (1.0 + epsilon) + 1e-9);
    }

    #[test]
    fn orientation_api_satisfies_guarantee() {
        let mut rng = StdRng::seed_from_u64(72);
        let base = erdos_renyi(80, 0.08, &mut rng);
        let g = with_random_integer_weights(&base, 4, &mut rng);
        let epsilon = 0.5;
        let approx = approximate_orientation(&g, epsilon, ExecutionMode::Sequential);
        let rho = fractional_orientation_lower_bound(&g);
        assert!(approx.max_in_degree >= rho - 1e-9);
        assert!(
            approx.max_in_degree <= 2.0 * (1.0 + epsilon) * rho + 1e-6,
            "load {} exceeds 2(1+ε)ρ* = {}",
            approx.max_in_degree,
            2.0 * (1.0 + epsilon) * rho
        );
        assert_eq!(approx.assignment.len(), g.num_plain_edges());
    }

    #[test]
    fn sharded_api_matches_unsharded() {
        let mut rng = StdRng::seed_from_u64(74);
        let g = erdos_renyi(50, 0.1, &mut rng);
        let spec = RunSpec::new(6).mode(ExecutionMode::SparseSequential);
        let approx = |spec: &RunSpec| {
            let outcome = run_compact_elimination(&g, spec).unwrap();
            CorenessApproximation::new(g.num_nodes(), spec.threshold_set, outcome)
        };
        let plain = approx(&spec);
        let sharded = approx(&spec.clone().sharded(4, 3));
        assert_eq!(plain.values, sharded.values);
        assert_eq!(plain.guaranteed_factor, sharded.guaranteed_factor);
        assert_eq!(
            plain.metrics.total_wire_bits(),
            sharded.metrics.total_wire_bits()
        );
    }

    #[test]
    fn densest_api_reexport_works() {
        let mut rng = StdRng::seed_from_u64(73);
        let g = erdos_renyi(50, 0.1, &mut rng);
        let result = weak_densest_subsets(&g, 0.5, ExecutionMode::Sequential);
        let exact = densest_subgraph(&g).density;
        assert!(result.best_density >= exact / 3.0 - 1e-9);
    }

    #[test]
    #[should_panic]
    fn epsilon_must_be_positive() {
        let _ = rounds_for_epsilon(10, 0.0);
    }

    #[test]
    #[should_panic]
    fn gamma_must_exceed_two() {
        let _ = rounds_for_gamma(10, 2.0);
    }
}
