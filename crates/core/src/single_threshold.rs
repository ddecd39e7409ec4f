//! Algorithm 1: the elimination procedure for a single threshold `b`.
//!
//! Each node keeps a state `σ_v ∈ {0, 1}`; in every round a node whose
//! weighted degree towards surviving neighbours drops below `b` is removed at
//! the end of the round. After `n` rounds all surviving nodes have coreness at
//! least `b`; the paper's insight is that `O(log n)` rounds already give
//! constant-factor information.
//!
//! ## Delta encoding
//!
//! The textbook formulation has every surviving node re-announce itself each
//! round, making every round cost Θ(m) messages. This implementation
//! **delta-encodes** the protocol: aliveness is the initial assumption, each
//! node caches its neighbours' alive flags (in one arc-indexed arena slab)
//! together with its alive-degree, and only **deaths** are announced — once,
//! the round after they happen, after which the dead node halts. In
//! fault-free runs the survivor sets per round are identical to the textbook
//! protocol (a death is observed by the neighbours exactly one round after it
//! happens in both encodings, modulo floating-point summation-order effects
//! on non-integer weights: the alive-degree is maintained by incremental
//! decrement rather than re-summation, so a threshold sitting within one ulp
//! of a degree may resolve differently), messages drop from Θ(m·rounds) to
//! at most one announcement per edge endpoint, and the program becomes
//! delta-driven — [`ExecutionMode::Auto`] runs it in frontier rounds, where
//! a round without deaths costs O(1).
//!
//! **Under message loss** announcements are at-most-once: a dropped death is
//! never retransmitted (the textbook encoding would implicitly repeat it by
//! staying silent every round), so neighbours that missed it keep the dead
//! node in their cached degree and the computed survivor set degrades to a
//! **superset** of the fault-free one — the same graceful upper-bound
//! semantics as the compact elimination under loss. Dense and sparse
//! executors still agree exactly (both skip the halted announcer), pinned by
//! `modes_agree_under_loss`.

use dkc_distsim::{
    Delivery, ExecutionMode, NetworkBuilder, NodeContext, NodeProgram, Outgoing, RunMetrics,
};
use dkc_graph::{CsrGraph, WeightedGraph};

/// Structure-of-arrays state of the single-threshold elimination, indexed by
/// the [`CsrGraph`] arc offsets.
#[derive(Clone, Debug)]
pub struct SingleThresholdArena {
    offsets: Vec<usize>,
    /// Arc slab: cached alive flag per neighbour (init true).
    nbr_alive: Vec<bool>,
    /// Node slab: alive flags.
    alive: Vec<bool>,
    /// Node slab: weighted degree towards alive neighbours (+ self-loop).
    degree: Vec<f64>,
    /// Node slab: whether the node's death has been announced.
    announced: Vec<bool>,
}

impl SingleThresholdArena {
    /// Builds the initial whole-graph arena: everyone alive, degrees at full
    /// weight.
    pub fn new(graph: &CsrGraph) -> Self {
        let n = graph.num_nodes();
        let mut offsets: Vec<usize> = graph.nodes().map(|v| graph.arc_offset(v)).collect();
        offsets.push(graph.num_arcs());
        SingleThresholdArena {
            offsets,
            nbr_alive: vec![true; graph.num_arcs()],
            alive: vec![true; n],
            degree: graph.nodes().map(|v| graph.degree(v)).collect(),
            announced: vec![false; n],
        }
    }

    /// Carves the arena into per-node programs (disjoint slab slices).
    pub fn programs(&mut self, threshold: f64) -> Vec<SingleThresholdNode<'_>> {
        let n = self.alive.len();
        let mut out = Vec::with_capacity(n);
        let mut nbr_alive = self.nbr_alive.as_mut_slice();
        let mut alive = self.alive.iter_mut();
        let mut degree = self.degree.iter_mut();
        let mut announced = self.announced.iter_mut();
        for v in 0..n {
            let deg = self.offsets[v + 1] - self.offsets[v];
            let (nbr_alive_v, rest) = nbr_alive.split_at_mut(deg);
            nbr_alive = rest;
            out.push(SingleThresholdNode {
                threshold,
                alive: alive.next().expect("node slab length"),
                degree: degree.next().expect("node slab length"),
                announced: announced.next().expect("node slab length"),
                nbr_alive: nbr_alive_v,
            });
        }
        out
    }

    /// The final survivor flags (by node index).
    pub fn survivors(&self) -> &[bool] {
        &self.alive
    }
}

/// Per-node program for Algorithm 1 (delta-encoded; see the module docs).
#[derive(Debug)]
pub struct SingleThresholdNode<'a> {
    threshold: f64,
    alive: &'a mut bool,
    degree: &'a mut f64,
    announced: &'a mut bool,
    nbr_alive: &'a mut [bool],
}

impl SingleThresholdNode<'_> {
    /// Whether the node is still surviving.
    pub fn is_alive(&self) -> bool {
        *self.alive
    }
}

impl NodeProgram for SingleThresholdNode<'_> {
    /// "I just died" — no payload needed beyond the sender id.
    type Message = ();

    /// Deaths are announced exactly once, the cached alive-degree makes the
    /// receive step an idempotent decrement merge, and an empty inbox after
    /// the first step changes nothing.
    const DELTA_DRIVEN: bool = true;

    fn broadcast(&mut self, _ctx: &NodeContext<'_>) -> Outgoing<()> {
        // The `announced` latch is the one deviation from a strictly pure
        // broadcast: it makes the node halt after its single announcement.
        // This cannot desynchronize the executors — the only round in which
        // broadcast would be skipped or repeated for this node is after the
        // latch flips, and then `halted()` silences it identically under
        // both dense execution and the sparse re-send path.
        if !*self.alive && !*self.announced {
            *self.announced = true;
            Outgoing::Broadcast(())
        } else {
            Outgoing::Silent
        }
    }

    fn receive(&mut self, ctx: &NodeContext<'_>, inbox: &[Delivery<()>]) -> bool {
        if !*self.alive {
            return false;
        }
        // Fold the death announcements into the cached alive-degree: one
        // O(1) decrement per delivery, no adjacency rescan.
        let weights = ctx.neighbor_weights();
        for d in inbox {
            let pos = d.pos as usize;
            if self.nbr_alive[pos] {
                self.nbr_alive[pos] = false;
                *self.degree -= weights[pos];
            }
        }
        if *self.degree < self.threshold {
            *self.alive = false;
            true
        } else {
            false
        }
    }

    fn halted(&self) -> bool {
        // A dead node stays up for one more broadcast phase to announce its
        // death, then leaves the protocol.
        !*self.alive && *self.announced
    }
}

/// Result of running Algorithm 1.
#[derive(Clone, Debug)]
pub struct SingleThresholdOutcome {
    /// Which nodes survive after the requested number of rounds.
    pub survivors: Vec<bool>,
    /// Communication metrics.
    pub metrics: RunMetrics,
}

/// Runs the elimination procedure with threshold `b` for `rounds` rounds.
pub fn run_single_threshold(
    g: &WeightedGraph,
    b: f64,
    rounds: usize,
    mode: ExecutionMode,
) -> SingleThresholdOutcome {
    let csr = CsrGraph::from_graph(g);
    let mut arena = SingleThresholdArena::new(&csr);
    let mut net = NetworkBuilder::new()
        .mode(mode)
        .build_from_parts(csr.clone(), arena.programs(b));
    net.run(rounds);
    let (_programs, metrics) = net.into_parts();
    SingleThresholdOutcome {
        survivors: arena.survivors().to_vec(),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surviving::survivors_for_threshold;
    use crate::test_legs::{on_threads, LEGS};
    use dkc_graph::generators::{complete_graph, erdos_renyi, path_graph, star_graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clique_survives_thresholds_up_to_degree() {
        let g = complete_graph(6);
        let low = run_single_threshold(&g, 5.0, 10, ExecutionMode::Dense);
        assert!(low.survivors.iter().all(|&s| s));
        let high = run_single_threshold(&g, 5.5, 10, ExecutionMode::Dense);
        assert!(high.survivors.iter().all(|&s| !s));
    }

    #[test]
    fn path_cascades_from_the_ends() {
        // Threshold 2 on a path: endpoints die in round 1, then the cascade
        // moves inwards one node per round.
        let g = path_graph(9);
        let after2 = run_single_threshold(&g, 2.0, 2, ExecutionMode::Dense);
        assert_eq!(
            after2.survivors,
            vec![false, false, true, true, true, true, true, false, false]
        );
        let after5 = run_single_threshold(&g, 2.0, 5, ExecutionMode::Dense);
        assert!(after5.survivors.iter().all(|&s| !s));
    }

    #[test]
    fn star_hub_dies_after_leaves() {
        let g = star_graph(6);
        let r1 = run_single_threshold(&g, 1.5, 1, ExecutionMode::Dense);
        // Leaves (degree 1) die in round 1, hub (degree 5) survives round 1.
        assert!(r1.survivors[0]);
        assert!(r1.survivors[1..].iter().all(|&s| !s));
        let r2 = run_single_threshold(&g, 1.5, 2, ExecutionMode::Dense);
        assert!(!r2.survivors[0]);
    }

    #[test]
    fn matches_centralized_reference() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = erdos_renyi(60, 0.08, &mut rng);
        for &b in &[1.0, 2.0, 3.0, 4.5] {
            for rounds in [1usize, 2, 5] {
                let reference = survivors_for_threshold(&g, b, rounds);
                for (mode, threads) in LEGS {
                    let distributed =
                        on_threads(threads, || run_single_threshold(&g, b, rounds, mode));
                    assert_eq!(
                        distributed.survivors, reference,
                        "mismatch at threshold {b}, rounds {rounds} ({mode:?} on {threads})"
                    );
                }
            }
        }
    }

    #[test]
    fn messages_are_death_announcements_only() {
        // Delta encoding: total messages are bounded by one announcement per
        // (dead node, incident edge) — not Θ(m · rounds).
        let g = star_graph(20);
        let outcome = run_single_threshold(&g, 1.5, 10, ExecutionMode::Dense);
        // 19 leaves die in round 1 and announce to the hub in round 2
        // (19 copies); the hub dies in round 2 and announces to its 19
        // (halted) neighbours in round 3.
        let rounds = outcome.metrics.rounds();
        assert_eq!(rounds[0].messages, 0);
        assert_eq!(rounds[1].messages, 19);
        assert_eq!(rounds[2].messages, 19);
        assert!(rounds[3..].iter().all(|r| r.messages == 0));
        assert_eq!(outcome.metrics.total_messages(), 38);
    }

    #[test]
    fn sparse_mode_skips_quiescent_rounds() {
        let g = path_graph(40);
        let dense = run_single_threshold(&g, 2.0, 60, ExecutionMode::Dense);
        let sparse = run_single_threshold(&g, 2.0, 60, ExecutionMode::Auto);
        assert_eq!(dense.survivors, sparse.survivors);
        assert_eq!(
            dense.metrics.total_messages(),
            sparse.metrics.total_messages(),
            "the delta protocol sends identical traffic under both executors"
        );
        assert!(sparse.metrics.total_node_updates() < dense.metrics.total_node_updates() / 4);
    }

    #[test]
    fn modes_agree_under_loss() {
        // Announcements are at-most-once: under loss the survivor set is a
        // superset of the fault-free one, and every executor computes the
        // same (deterministic drops; the halted announcer is silenced
        // identically in dense and sparse runs).
        use dkc_distsim::LossModel;
        let mut rng = StdRng::seed_from_u64(5);
        let g = erdos_renyi(50, 0.12, &mut rng);
        let clean = run_single_threshold(&g, 3.0, 20, ExecutionMode::Dense);
        for seed in [1u64, 42, 1234] {
            let model = LossModel::new(0.5, seed);
            let run_lossy = |(mode, threads)| {
                let csr = dkc_graph::CsrGraph::from_graph(&g);
                let mut arena = SingleThresholdArena::new(&csr);
                let mut net = dkc_distsim::NetworkBuilder::new()
                    .mode(mode)
                    .faults(dkc_distsim::FaultPlan::from_loss(model))
                    .build_from_parts(csr, arena.programs(3.0));
                on_threads(threads, || net.run(20));
                drop(net.into_parts());
                arena.survivors().to_vec()
            };
            let reference = run_lossy(LEGS[0]);
            for leg in LEGS {
                assert_eq!(reference, run_lossy(leg), "seed {seed}, {leg:?}");
            }
            // Superset of the fault-free survivors.
            for (v, (&lossy_alive, &clean_alive)) in
                reference.iter().zip(&clean.survivors).enumerate()
            {
                assert!(
                    lossy_alive || !clean_alive,
                    "node {v} died under loss but survived fault-free (seed {seed})"
                );
            }
        }
    }

    /// Sharded execution (a halting, unit-message program over the
    /// boundary-delta exchange) matches the unsharded run on survivors and
    /// every deterministic counter, for every shard count. Sharding only
    /// moves where messages travel, so one whole-graph arena serves both.
    #[test]
    fn sharded_matches_unsharded() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = erdos_renyi(60, 0.1, &mut rng);
        let reference = run_single_threshold(&g, 3.0, 15, ExecutionMode::Auto);
        for shards in [1usize, 2, 4, 8] {
            let csr = CsrGraph::from_graph(&g);
            let mut arena = SingleThresholdArena::new(&csr);
            let mut net = dkc_distsim::NetworkBuilder::new()
                .shards(shards)
                .shard_seed(21)
                .build_from_parts(csr, arena.programs(3.0));
            net.run(15);
            let metrics = net.into_parts().1;
            assert_eq!(reference.survivors, arena.survivors(), "shards={shards}");
            assert_eq!(
                reference.metrics.total_messages(),
                metrics.total_messages(),
                "shards={shards}"
            );
            assert_eq!(
                reference.metrics.total_wire_bits(),
                metrics.total_wire_bits(),
                "shards={shards}"
            );
            if shards > 1 {
                assert!(metrics.total_boundary_bits() > 0, "shards={shards}");
            }
        }
    }

    #[test]
    fn zero_threshold_keeps_everyone() {
        let g = path_graph(5);
        let outcome = run_single_threshold(&g, 0.0, 10, ExecutionMode::Dense);
        assert!(outcome.survivors.iter().all(|&s| s));
    }
}
