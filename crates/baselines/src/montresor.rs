//! The distributed **exact** coreness protocol of Montresor, De Pellegrini and
//! Miorandi (TPDS 2013), generalized to weighted graphs.
//!
//! Every node maintains an upper-bound estimate of its coreness, initialized to
//! its weighted degree, and repeatedly lowers it to the largest `b` such that
//! the total weight of edges towards neighbours whose current estimate is at
//! least `b` is at least `b`. The estimates converge to the exact coreness
//! values, but the number of rounds required depends on the graph structure and
//! can be as large as `Ω(n)` even for constant diameter — this is precisely the
//! behaviour the paper's `O(log n)`-round approximation escapes (experiment
//! E8 compares the two).

use dkc_distsim::{
    Delivery, ExecutionMode, NetworkBuilder, NodeContext, NodeProgram, Outgoing, RunMetrics,
};
use dkc_graph::WeightedGraph;

/// Per-node state of the Montresor et al. protocol.
#[derive(Clone, Debug)]
pub struct MontresorNode {
    estimate: f64,
    /// Latest estimates heard from each neighbour (by neighbour position).
    neighbor_estimates: Vec<f64>,
    initialized: bool,
}

impl MontresorNode {
    /// Current coreness estimate.
    pub fn estimate(&self) -> f64 {
        self.estimate
    }
}

/// The largest `b` such that the total weight of incident edges whose
/// neighbour estimate is at least `b` is itself at least `b`, capped at the
/// node's own current estimate. `self_loop` always counts (a self-loop survives
/// as long as the node itself does).
fn coreness_update(
    own_estimate: f64,
    neighbor_estimates: &[f64],
    weights: &[f64],
    self_loop: f64,
) -> f64 {
    debug_assert_eq!(neighbor_estimates.len(), weights.len());
    let mut pairs: Vec<(f64, f64)> = neighbor_estimates
        .iter()
        .copied()
        .zip(weights.iter().copied())
        .map(|(est, w)| (est.min(own_estimate), w))
        .collect();
    // Sort by estimate descending and scan: candidate b = min(estimate_i,
    // cumulative weight) maximized.
    pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("NaN estimate"));
    let mut best = self_loop.min(own_estimate);
    let mut cumulative = self_loop;
    for &(est, w) in &pairs {
        cumulative += w;
        let candidate = est.min(cumulative);
        if candidate > best {
            best = candidate;
        }
    }
    best.min(own_estimate)
}

impl NodeProgram for MontresorNode {
    type Message = f64;

    fn broadcast(&mut self, _ctx: &NodeContext<'_>) -> Outgoing<f64> {
        Outgoing::Broadcast(self.estimate)
    }

    fn receive(&mut self, ctx: &NodeContext<'_>, inbox: &[Delivery<f64>]) -> bool {
        if !self.initialized {
            self.neighbor_estimates = vec![f64::INFINITY; ctx.num_neighbors()];
            self.initialized = true;
        }
        // Record the latest estimate per neighbour (arc) position.
        for d in inbox {
            self.neighbor_estimates[d.pos as usize] = d.msg;
        }
        let new_estimate = coreness_update(
            self.estimate,
            &self.neighbor_estimates,
            ctx.neighbor_weights(),
            ctx.self_loop(),
        );
        let changed = (new_estimate - self.estimate).abs() > 1e-12;
        self.estimate = new_estimate;
        changed
    }
}

/// Outcome of running the Montresor et al. protocol to convergence.
#[derive(Clone, Debug)]
pub struct MontresorOutcome {
    /// Final per-node coreness values (exact once converged).
    pub coreness: Vec<f64>,
    /// Number of rounds executed until quiescence (including the final
    /// no-change round used to detect it).
    pub rounds: usize,
    /// Whether the protocol reached quiescence within the round budget.
    pub converged: bool,
    /// Communication metrics of the run.
    pub metrics: RunMetrics,
}

/// Runs the protocol until no estimate changes, or until `max_rounds`.
///
/// The program has not (yet) declared the delta-driven contract, so it runs
/// dense rounds under every mode.
pub fn montresor_exact_coreness(
    g: &WeightedGraph,
    max_rounds: usize,
    mode: ExecutionMode,
) -> MontresorOutcome {
    montresor_exact_coreness_with_faults(g, max_rounds, mode, dkc_distsim::FaultPlan::none())
}

/// Runs the protocol under a deterministic [`dkc_distsim::FaultPlan`].
///
/// Unlike the paper's elimination procedure — whose merges are monotone
/// non-increasing, so omission faults only slow convergence — Montresor's
/// estimates track the *latest* heard value and never recover from a
/// downward lie: a byzantine neighbour can permanently drag exact coreness
/// estimates below the truth. The E14 experiment quantifies exactly this
/// fragility gap.
pub fn montresor_exact_coreness_with_faults(
    g: &WeightedGraph,
    max_rounds: usize,
    mode: ExecutionMode,
    faults: dkc_distsim::FaultPlan,
) -> MontresorOutcome {
    let mut net = NetworkBuilder::new()
        .mode(mode)
        .faults(faults)
        .build(g, |ctx| MontresorNode {
            estimate: ctx.degree(),
            neighbor_estimates: Vec::new(),
            initialized: false,
        });
    let rounds = net.run_until_quiescent(max_rounds);
    let converged = net
        .metrics()
        .rounds()
        .last()
        .map(|r| r.changed_nodes == 0)
        .unwrap_or(true);
    let (programs, metrics) = net.into_parts();
    MontresorOutcome {
        coreness: programs.iter().map(|p| p.estimate).collect(),
        rounds,
        converged,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coreness::{unweighted_coreness, weighted_coreness};
    use dkc_graph::generators::{complete_graph, cycle_graph, erdos_renyi, path_graph, star_graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn converges_to_exact(g: &WeightedGraph) {
        let outcome = montresor_exact_coreness(g, 4 * g.num_nodes() + 10, ExecutionMode::Dense);
        assert!(outcome.converged, "did not converge");
        let exact = weighted_coreness(g);
        for v in 0..g.num_nodes() {
            assert!(
                (outcome.coreness[v] - exact[v]).abs() < 1e-9,
                "node {v}: montresor {} vs exact {}",
                outcome.coreness[v],
                exact[v]
            );
        }
    }

    #[test]
    fn exact_on_structured_graphs() {
        converges_to_exact(&path_graph(12));
        converges_to_exact(&cycle_graph(9));
        converges_to_exact(&star_graph(8));
        converges_to_exact(&complete_graph(7));
    }

    #[test]
    fn exact_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..3 {
            let g = erdos_renyi(80, 0.06, &mut rng);
            converges_to_exact(&g);
        }
    }

    #[test]
    fn exact_on_unit_graph_matches_bz() {
        let mut rng = StdRng::seed_from_u64(78);
        let g = erdos_renyi(100, 0.05, &mut rng);
        let outcome = montresor_exact_coreness(&g, 1000, ExecutionMode::Dense);
        let exact = unweighted_coreness(&g);
        for v in 0..100 {
            assert_eq!(outcome.coreness[v] as usize, exact[v]);
        }
    }

    #[test]
    fn path_needs_linear_rounds() {
        // Estimates on a path decrease one hop per round from the ends inwards:
        // convergence takes Θ(n) rounds, demonstrating the diameter dependence.
        let n = 60;
        let outcome = montresor_exact_coreness(&path_graph(n), 10 * n, ExecutionMode::Dense);
        assert!(outcome.converged);
        assert!(
            outcome.rounds >= n / 4,
            "expected Ω(n) rounds on a path, got {}",
            outcome.rounds
        );
    }

    #[test]
    fn respects_round_budget() {
        let outcome = montresor_exact_coreness(&path_graph(100), 3, ExecutionMode::Dense);
        assert_eq!(outcome.rounds, 3);
        assert!(!outcome.converged);
    }

    #[test]
    fn update_rule_basic_cases() {
        // Node with estimate 4, neighbours with estimates [5, 3, 1] and unit
        // weights: b=2 works (two neighbours with est>=2 gives weight 2), b=3
        // gives weight 2 < 3. So result 2.
        let b = coreness_update(4.0, &[5.0, 3.0, 1.0], &[1.0, 1.0, 1.0], 0.0);
        assert_eq!(b, 2.0);
        // Self-loop alone supports the estimate.
        let b = coreness_update(10.0, &[], &[], 7.5);
        assert_eq!(b, 7.5);
        // Cap at own estimate.
        let b = coreness_update(1.5, &[9.0, 9.0, 9.0], &[1.0, 1.0, 1.0], 0.0);
        assert_eq!(b, 1.5);
    }
}
