//! Algorithm 5: the augmented elimination procedure within each BFS tree.
//!
//! Every node that joined a tree runs the single-threshold elimination with the
//! threshold `b_u` carried by its leader key, for `T` rounds, and records for
//! each round whether it was still active (`num_v[t]`) and its weighted degree
//! towards active nodes of the **same tree** (`deg_v[t]`). These per-round
//! records are what Phase 4 aggregates to locate an approximate densest subset
//! (Lemma IV.4).
//!
//! Faithfulness note: the paper's pseudocode says nodes communicate only with
//! their BFS parent and children in this phase, but the density argument of
//! Lemma IV.4 requires degrees to be counted over *all* graph edges between
//! same-tree active nodes (and the survival of the root requires exactly the
//! elimination it would experience on the whole graph).
//! We therefore broadcast the (leader, active) pair over every incident edge —
//! still a single `O(log n)`-bit message per edge per round — and count edges
//! towards active neighbours with the same leader.
//!
//! Phase 3 of the weak densest-subset pipeline ([`crate::densest`]): it runs
//! on the [`CsrGraph`] phase 2 handed back and hands it on to phase 4. Each
//! node's `num` and `deg` histories move into [`TreeElimOutcome`] when the
//! run ends, and from there into phase 4's programs, so Θ(n·T) of history is
//! held once, not copied.

use crate::bfs::BfsForest;
use dkc_distsim::message::{MessageSize, Tamper};
use dkc_distsim::wire::{WireCodec, WireError, WireReader, WireSink};
use dkc_distsim::{
    Delivery, ExecutionMode, NetworkBuilder, NodeContext, NodeProgram, Outgoing, RunMetrics,
};
use dkc_graph::{CsrGraph, NodeId};

/// Message of the per-tree elimination: the sender's leader id (the sender is
/// implicitly "still active", otherwise it would be silent).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ActiveMsg {
    /// Identity of the sender's leader.
    pub leader: NodeId,
}

impl MessageSize for ActiveMsg {
    fn size_bits(&self) -> usize {
        32
    }
}

impl WireCodec for ActiveMsg {
    fn encode<S: WireSink>(&self, s: &mut S) {
        self.leader.0.encode(s);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ActiveMsg {
            leader: NodeId(r.read_u32()?),
        })
    }
}

// The payload is a leader *identity*: a byzantine lie about it is structurally
// detectable (receivers compare leaders for tree membership), so per the
// [`Tamper`] contract an id-only message is transmitted verbatim.
impl Tamper for ActiveMsg {}

/// Per-node program for Algorithm 5.
#[derive(Clone, Debug)]
pub struct TreeElimNode {
    /// The elimination threshold (the leader's surviving number).
    threshold: f64,
    /// This node's leader id.
    leader: NodeId,
    /// Whether the node participates at all (it joined a tree).
    participates: bool,
    /// Whether the node is still active in the elimination.
    active: bool,
    /// `num[t]` — 1 if the node was active at the start of round `t+1`.
    num: Vec<bool>,
    /// `deg[t]` — the node's weighted degree towards same-tree active nodes at
    /// the start of round `t+1` (only meaningful where `num[t]` is set).
    deg: Vec<f64>,
    /// Total number of elimination rounds.
    rounds: usize,
}

impl TreeElimNode {
    /// The per-round activity indicators.
    pub fn num(&self) -> &[bool] {
        &self.num
    }

    /// The per-round degrees.
    pub fn deg(&self) -> &[f64] {
        &self.deg
    }
}

impl NodeProgram for TreeElimNode {
    type Message = ActiveMsg;

    fn broadcast(&mut self, _ctx: &NodeContext<'_>) -> Outgoing<ActiveMsg> {
        if self.participates && self.active {
            Outgoing::Broadcast(ActiveMsg {
                leader: self.leader,
            })
        } else {
            Outgoing::Silent
        }
    }

    fn receive(&mut self, ctx: &NodeContext<'_>, inbox: &[Delivery<ActiveMsg>]) -> bool {
        if !self.participates || !self.active {
            return false;
        }
        let t = ctx.round() - 1;
        if t >= self.rounds {
            return false;
        }
        // Weighted degree towards active same-tree neighbours.
        let weights = ctx.neighbor_weights();
        let mut degree = ctx.self_loop();
        for d in inbox {
            if d.msg.leader == self.leader {
                degree += weights[d.pos as usize];
            }
        }
        self.num[t] = true;
        self.deg[t] = degree;
        if degree < self.threshold {
            self.active = false;
        }
        true
    }
}

/// The records produced by Algorithm 5 for all nodes.
#[derive(Clone, Debug)]
pub struct TreeElimOutcome {
    /// `num[v][t]` — whether node `v` was active at the start of round `t+1`.
    pub num: Vec<Vec<bool>>,
    /// `deg[v][t]` — the corresponding weighted degree (0 where inactive).
    pub deg: Vec<Vec<f64>>,
    /// Which nodes were still active after the final round.
    pub final_active: Vec<bool>,
    /// Number of rounds executed.
    pub rounds: usize,
    /// Communication metrics.
    pub metrics: RunMetrics,
}

/// Runs Algorithm 5 on `g` for `rounds` rounds, using the leaders and tree
/// membership from `forest` (the leader's surviving number is the threshold
/// of its whole tree). The network runs on `g` and hands it back beside the
/// outcome.
///
/// Records per-round history (`num[t]`/`deg[t]`), so every node must step
/// every round: not delta-driven, so it runs dense rounds under every mode.
pub fn run_tree_elimination(
    g: CsrGraph,
    forest: &BfsForest,
    rounds: usize,
    mode: ExecutionMode,
) -> (TreeElimOutcome, CsrGraph) {
    let mut net = NetworkBuilder::new().mode(mode).build(g, |ctx| {
        let v = ctx.node();
        let leader_key = forest.leader[v.index()];
        TreeElimNode {
            threshold: leader_key.b,
            leader: leader_key.id,
            participates: forest.in_tree(v),
            active: forest.in_tree(v),
            num: vec![false; rounds],
            deg: vec![0.0; rounds],
            rounds,
        }
    });
    net.run(rounds);
    let (graph, programs, metrics) = net.into_graph_and_parts();
    let mut num = Vec::with_capacity(programs.len());
    let mut deg = Vec::with_capacity(programs.len());
    let mut final_active = Vec::with_capacity(programs.len());
    for p in programs {
        final_active.push(p.participates && p.active);
        num.push(p.num);
        deg.push(p.deg);
    }
    let outcome = TreeElimOutcome {
        num,
        deg,
        final_active,
        rounds,
        metrics,
    };
    (outcome, graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::run_bfs_construction;
    use crate::compact::{eliminate, RunSpec};
    use dkc_graph::generators::{complete_graph, path_graph, planted_dense_community};
    use dkc_graph::WeightedGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pipeline_through_phase3(
        g: &WeightedGraph,
        rounds: usize,
    ) -> (Vec<f64>, BfsForest, TreeElimOutcome) {
        let spec = RunSpec::new(rounds).mode(ExecutionMode::Dense);
        let (compact, csr) = eliminate(CsrGraph::from(g), &spec);
        let (forest, csr) =
            run_bfs_construction(csr, &compact.surviving, rounds, ExecutionMode::Dense);
        let (elim, _) = run_tree_elimination(csr, &forest, rounds, ExecutionMode::Dense);
        (compact.surviving, forest, elim)
    }

    #[test]
    fn root_with_max_value_survives_all_rounds() {
        let mut rng = StdRng::seed_from_u64(51);
        let planted = planted_dense_community(60, 12, 0.05, 0.9, &mut rng);
        let rounds = 6;
        let (surviving, forest, elim) = pipeline_through_phase3(&planted.graph, rounds);
        // The node with the global maximum surviving number is a root …
        let (best, _) = surviving
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(b.0.cmp(&a.0)))
            .unwrap();
        assert!(forest.roots().contains(&NodeId::new(best)));
        // … and it survives every elimination round with its own threshold
        // (Lemma IV.4: |A_T| >= 1).
        assert!(
            elim.num[best].iter().all(|&x| x),
            "the top root was eliminated: {:?}",
            elim.num[best]
        );
        assert!(elim.final_active[best]);
    }

    #[test]
    fn clique_everyone_survives() {
        let g = complete_graph(8);
        let (_, _, elim) = pipeline_through_phase3(&g, 4);
        for v in 0..8 {
            assert!(elim.num[v].iter().all(|&x| x));
            for t in 0..4 {
                assert_eq!(elim.deg[v][t], 7.0);
            }
        }
    }

    #[test]
    fn recorded_degrees_match_active_sets() {
        // Recompute deg[v][t] centrally from num[.][t] and verify.
        let mut rng = StdRng::seed_from_u64(52);
        let planted = planted_dense_community(50, 10, 0.06, 0.85, &mut rng);
        let g = &planted.graph;
        let rounds = 5;
        let (_, forest, elim) = pipeline_through_phase3(g, rounds);
        for t in 0..rounds {
            for v in 0..g.num_nodes() {
                if !elim.num[v][t] {
                    continue;
                }
                let vid = NodeId::new(v);
                let expected: f64 = g
                    .neighbors(vid)
                    .iter()
                    .filter(|&&(u, _)| {
                        elim.num[u.index()][t] && forest.leader[u.index()].id == forest.leader[v].id
                    })
                    .map(|&(_, w)| w)
                    .sum();
                assert!(
                    (elim.deg[v][t] - expected).abs() < 1e-9,
                    "deg mismatch at node {v}, round {t}: {} vs {expected}",
                    elim.deg[v][t]
                );
            }
        }
    }

    #[test]
    fn inactive_nodes_stop_participating() {
        // On a path with threshold = 2 (the surviving numbers converge to 1 for
        // long runs but are 2 in the middle for short ones), ends get
        // eliminated and stop counting.
        let g = path_graph(8);
        let (_, _, elim) = pipeline_through_phase3(&g, 3);
        // Endpoint 0: its leader's threshold is >= 1; it records round 0 and
        // possibly dies later. All records after deactivation stay false.
        for v in 0..8 {
            let mut seen_inactive = false;
            for t in 0..3 {
                if !elim.num[v][t] {
                    seen_inactive = true;
                } else {
                    assert!(!seen_inactive, "node {v} became active again at {t}");
                }
            }
        }
    }

    #[test]
    fn non_tree_nodes_do_not_participate() {
        // With zero flood rounds every node is its own root, so everyone
        // participates with its own threshold — sanity-check participation flag
        // wiring via a manual forest instead.
        let csr = CsrGraph::from(&path_graph(4));
        let (compact, csr) = eliminate(csr, &RunSpec::new(2).mode(ExecutionMode::Dense));
        let (mut forest, csr) =
            run_bfs_construction(csr, &compact.surviving, 2, ExecutionMode::Dense);
        // Artificially orphan node 3.
        forest.parent[3] = None;
        let (elim, _) = run_tree_elimination(csr, &forest, 2, ExecutionMode::Dense);
        assert!(elim.num[3].iter().all(|&x| !x));
        assert!(!elim.final_active[3]);
    }
}
