//! Algorithm 6 (aggregation and densest-subset identification) and the full
//! four-phase weak densest-subset pipeline (Theorem I.3).
//!
//! Phase 4 is a convergecast/broadcast over each BFS tree: every node sends its
//! per-round activity and degree arrays up to its parent once all of its
//! children have reported; the root picks the round `t*` with the highest
//! implied density `deg'[t]/(2·num'[t])` and floods `t*` (and the density) back
//! down. A node then belongs to its tree's subset iff it was still active at
//! round `t*`.
//!
//! Message-size note: the upward messages carry the two length-`T` arrays in
//! one message (`Θ(T)` words). The paper observes they can be pipelined one
//! entry per round to restore `O(log n)`-bit messages at the cost of `T` extra
//! rounds; this module implements the batched variant only. A pipelined Phase 4
//! would replace the aggregation program here rather than sit beside it, since
//! it moves E5's counters and the densest goldens.
//!
//! One graph runs through the pipeline: [`weak_densest_subsets_with_rounds`]
//! converts its input to a [`CsrGraph`] once, and each phase builds its
//! network on the CSR the previous phase handed back
//! (`Network::into_graph_and_parts`). Phase 3's per-round histories move into
//! Phase 4's programs, and a sender hands its subtree totals to its `Up`
//! message. The clusters are then assembled in one pass over the arcs,
//! bucketed by leader, in `O(n + m)` for any number of clusters.

use crate::bfs::{run_bfs_construction, BfsForest};
use crate::compact::{eliminate, CompactOutcome, RunSpec};
use crate::tree_elim::{run_tree_elimination, TreeElimOutcome};
use dkc_distsim::message::{MessageSize, Tamper};
use dkc_distsim::wire::{WireCodec, WireError, WireReader, WireSink};
use dkc_distsim::{
    Delivery, ExecutionMode, NetworkBuilder, NodeContext, NodeProgram, Outgoing, RunMetrics,
};
use dkc_graph::{CsrGraph, NodeId};

/// Messages of the aggregation phase.
#[derive(Clone, Debug, PartialEq)]
pub enum AggMessage {
    /// Convergecast: aggregated `(num, deg)` arrays of a subtree.
    Up(Vec<u32>, Vec<f64>),
    /// Broadcast down: the selected round `t*` and the root's density estimate.
    Down(u32, f64),
}

impl MessageSize for AggMessage {
    fn size_bits(&self) -> usize {
        match self {
            AggMessage::Up(num, deg) => 2 + 32 * num.len() + 64 * deg.len(),
            AggMessage::Down(_, _) => 2 + 32 + 64,
        }
    }
}

impl WireCodec for AggMessage {
    fn encode<S: WireSink>(&self, s: &mut S) {
        match self {
            AggMessage::Up(num, deg) => {
                // The two arrays are indexed by the same rounds, so the wire
                // form shares one length prefix instead of framing each
                // array separately.
                debug_assert_eq!(num.len(), deg.len(), "Up arrays must be aligned");
                0u8.encode(s);
                s.put_len(num.len());
                num.iter().for_each(|x| x.encode(s));
                deg.iter().for_each(|x| x.encode(s));
            }
            AggMessage::Down(t, density) => {
                1u8.encode(s);
                t.encode(s);
                density.encode(s);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.read_u8()? {
            0 => {
                let len = r.read_len()?;
                // Clamp pre-allocation against hostile lengths: reads fail
                // with `Truncated` before memory does.
                let mut num = Vec::with_capacity(len.min(r.remaining() / 4));
                for _ in 0..len {
                    num.push(r.read_u32()?);
                }
                let mut deg = Vec::with_capacity(len.min(r.remaining() / 8));
                for _ in 0..len {
                    deg.push(r.read_f64()?);
                }
                Ok(AggMessage::Up(num, deg))
            }
            1 => Ok(AggMessage::Down(r.read_u32()?, r.read_f64()?)),
            tag => Err(WireError::BadTag {
                ty: "AggMessage",
                tag,
            }),
        }
    }
}

// A byzantine aggregator lies about the real-valued degree totals (downward,
// per the [`Tamper`] contract); the structural parts — the round-indexed
// layout, the integer activity counts, and the chosen round `t*` — stay
// verbatim so the tampered frame is length-preserving.
impl Tamper for AggMessage {
    fn tamper(&self, salt: u64) -> Self {
        match self {
            AggMessage::Up(num, deg) => {
                AggMessage::Up(num.clone(), deg.iter().map(|d| d.tamper(salt)).collect())
            }
            AggMessage::Down(t, density) => AggMessage::Down(*t, density.tamper(salt)),
        }
    }
}

/// Per-node program for Algorithm 6.
#[derive(Clone, Debug)]
struct AggregationNode {
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    /// Aggregated subtree counts (starts as the node's own records). A
    /// non-root hands both to its `Up` message and keeps them empty after.
    num: Vec<u32>,
    deg: Vec<f64>,
    /// Own activity records (membership test at `t*`).
    own_num: Vec<bool>,
    children_received: usize,
    sent_up: bool,
    /// Set once the node learns `(t*, density)`.
    decision: Option<(u32, f64)>,
    sent_down: bool,
    selected: bool,
}

impl AggregationNode {
    fn is_root(&self, v: NodeId) -> bool {
        self.parent == Some(v)
    }

    fn ready_to_aggregate(&self) -> bool {
        self.children_received == self.children.len()
    }

    fn decide_as_root(&mut self) {
        // t* = argmax_t deg'[t] / (2 num'[t]) over rounds with num'[t] > 0.
        let mut best_t = 0u32;
        let mut best_density = 0.0f64;
        for t in 0..self.num.len() {
            if self.num[t] == 0 {
                continue;
            }
            let density = self.deg[t] / (2.0 * self.num[t] as f64);
            if density > best_density {
                best_density = density;
                best_t = t as u32;
            }
        }
        self.decision = Some((best_t, best_density));
        self.selected = self.own_num.get(best_t as usize).copied().unwrap_or(false);
    }
}

impl NodeProgram for AggregationNode {
    type Message = AggMessage;

    fn broadcast(&mut self, ctx: &NodeContext<'_>) -> Outgoing<AggMessage> {
        let v = ctx.node();
        if self.parent.is_none() {
            return Outgoing::Silent;
        }
        // Root: once everything is aggregated, decide and send downwards.
        if self.is_root(v) {
            if self.decision.is_none() && self.ready_to_aggregate() {
                self.decide_as_root();
            }
            if let Some((t_star, density)) = self.decision {
                if !self.sent_down && !self.children.is_empty() {
                    self.sent_down = true;
                    return Outgoing::Multicast(
                        AggMessage::Down(t_star, density),
                        self.children.clone(),
                    );
                }
            }
            return Outgoing::Silent;
        }
        // Internal node / leaf: send up once all children have reported.
        if !self.sent_up && self.ready_to_aggregate() {
            self.sent_up = true;
            let parent = self.parent.expect("non-root has a parent");
            let up = AggMessage::Up(std::mem::take(&mut self.num), std::mem::take(&mut self.deg));
            return Outgoing::Unicast(vec![(parent, up)]);
        }
        // Forward the decision to children once known.
        if let Some((t_star, density)) = self.decision {
            if !self.sent_down && !self.children.is_empty() {
                self.sent_down = true;
                return Outgoing::Multicast(
                    AggMessage::Down(t_star, density),
                    self.children.clone(),
                );
            }
        }
        Outgoing::Silent
    }

    fn receive(&mut self, ctx: &NodeContext<'_>, inbox: &[Delivery<AggMessage>]) -> bool {
        if self.parent.is_none() {
            return false;
        }
        let v = ctx.node();
        let mut changed = false;
        for Delivery { sender, msg, .. } in inbox {
            match msg {
                AggMessage::Up(num, deg) => {
                    // Only accept reports from our own children.
                    if self.children.contains(sender) {
                        for t in 0..self.num.len().min(num.len()) {
                            self.num[t] += num[t];
                            self.deg[t] += deg[t];
                        }
                        self.children_received += 1;
                        changed = true;
                    }
                }
                AggMessage::Down(t_star, density) => {
                    if Some(*sender) == self.parent && !self.is_root(v) && self.decision.is_none() {
                        self.decision = Some((*t_star, *density));
                        self.selected =
                            self.own_num.get(*t_star as usize).copied().unwrap_or(false);
                        changed = true;
                    }
                }
            }
        }
        changed
    }
}

/// One candidate subset produced by the weak densest-subset protocol.
#[derive(Clone, Debug)]
pub struct WeakCluster {
    /// The leader (root) identifying the subset.
    pub leader: NodeId,
    /// The elimination round the root selected.
    pub t_star: usize,
    /// The root's density estimate `deg'[t*] / (2·num'[t*])` (a lower bound on
    /// the true density of the subset).
    pub estimated_density: f64,
    /// Number of member nodes.
    pub size: usize,
    /// The true density of the member set, recomputed centrally for reporting.
    pub actual_density: f64,
}

/// The result of the weak densest-subset protocol (Definition IV.1).
#[derive(Clone, Debug)]
pub struct WeakDensestResult {
    /// `membership[v]` — the leader of the subset containing `v`, or `None`.
    pub membership: Vec<Option<NodeId>>,
    /// The non-empty candidate subsets, one per declaring root.
    pub clusters: Vec<WeakCluster>,
    /// Rounds used by each phase (elimination, BFS, per-tree elimination,
    /// aggregation).
    pub phase_rounds: [usize; 4],
    /// Total number of rounds across all phases.
    pub rounds_total: usize,
    /// Total messages across all phases.
    pub total_messages: usize,
    /// The largest actual density among the clusters (0 if none).
    pub best_density: f64,
}

/// Outcome of running only the aggregation phase.
#[derive(Clone, Debug)]
pub struct AggregationOutcome {
    /// `selected[v]` — whether `v` belongs to its tree's chosen subset.
    pub selected: Vec<bool>,
    /// Per-root decision `(t*, estimated density)`.
    pub decisions: Vec<Option<(usize, f64)>>,
    /// Rounds executed.
    pub rounds: usize,
    /// Communication metrics.
    pub metrics: RunMetrics,
}

/// Runs Algorithm 6 on `g` over the forest produced by Algorithms 4–5. Each
/// node's `num` and `deg` histories move from `elim` into its program. The
/// network runs on `g` and hands it back beside the outcome.
///
/// The convergecast schedule lives in broadcast-phase side effects, so the
/// program is not delta-driven and runs dense rounds under every mode.
pub fn run_aggregation(
    g: CsrGraph,
    forest: &BfsForest,
    elim: TreeElimOutcome,
    mode: ExecutionMode,
) -> (AggregationOutcome, CsrGraph) {
    let rounds_budget = 2 * elim.rounds + forest.rounds + 4;
    let histories = elim.num.into_iter().zip(elim.deg);
    let programs = forest
        .parent
        .iter()
        .zip(&forest.children)
        .zip(histories)
        .map(|((&parent, children), (own_num, deg))| AggregationNode {
            parent,
            children: children.clone(),
            num: own_num.iter().map(|&b| u32::from(b)).collect(),
            deg,
            own_num,
            children_received: 0,
            sent_up: false,
            decision: None,
            sent_down: false,
            selected: false,
        })
        .collect();
    let mut net = NetworkBuilder::new()
        .mode(mode)
        .build_from_parts(g, programs);
    let rounds = net.run_until_quiescent(rounds_budget);
    let (graph, programs, metrics) = net.into_graph_and_parts();
    let selected = programs.iter().map(|p| p.selected).collect();
    let decisions = programs
        .iter()
        .enumerate()
        .map(|(v, p)| {
            if p.is_root(NodeId::new(v)) {
                p.decision.map(|(t, d)| (t as usize, d))
            } else {
                None
            }
        })
        .collect();
    let outcome = AggregationOutcome {
        selected,
        decisions,
        rounds,
        metrics,
    };
    (outcome, graph)
}

/// Runs the full four-phase weak densest-subset protocol with approximation
/// target `2(1+ε)` (Theorem I.3), under [`ExecutionMode::Auto`]. Like
/// [`crate::compact::run_compact_elimination`], this takes a [`CsrGraph`] as
/// is and converts a `&WeightedGraph` first.
pub fn weak_densest_subsets(g: impl Into<CsrGraph>, epsilon: f64) -> WeakDensestResult {
    let csr = g.into();
    let rounds = crate::api::rounds_for_epsilon(csr.num_nodes(), epsilon);
    weak_densest_subsets_with_rounds(csr, rounds, ExecutionMode::Auto)
}

/// Same as [`weak_densest_subsets`] but with an explicit per-phase round count
/// `T` (the approximation guarantee is then `2·n^{1/T}`) and execution mode.
/// The four phases run on the one CSR `g` converts to, each handing it to
/// the next.
///
/// # Panics
///
/// Panics if `rounds` is outside `1..=`[`crate::checkpoint::MAX_ROUNDS`].
pub fn weak_densest_subsets_with_rounds(
    g: impl Into<CsrGraph>,
    rounds: usize,
    mode: ExecutionMode,
) -> WeakDensestResult {
    // Phase 1: approximate the maximal densities. Only `b` goes on.
    let (compact, csr) = eliminate(g.into(), &RunSpec::new(rounds).mode(mode));
    let CompactOutcome {
        surviving,
        rounds: compact_rounds,
        metrics: compact_metrics,
        ..
    } = compact;
    // Phase 2: leader election / BFS forest.
    let (forest, csr) = run_bfs_construction(csr, &surviving, rounds, mode);
    // Phase 3: per-tree elimination with history.
    let (elim, csr) = run_tree_elimination(csr, &forest, rounds, mode);
    let (elim_rounds, elim_messages) = (elim.rounds, elim.metrics.total_messages());
    // Phase 4: aggregation, which takes Phase 3's histories.
    let (agg, csr) = run_aggregation(csr, &forest, elim, mode);

    let membership: Vec<Option<NodeId>> = forest
        .leader
        .iter()
        .zip(&agg.selected)
        .map(|(key, &selected)| selected.then_some(key.id))
        .collect();
    let clusters = assemble_clusters(&csr, &forest, &agg, &membership);
    let best_density = clusters
        .iter()
        .fold(0.0f64, |best, c| best.max(c.actual_density));
    let phase_rounds = [compact_rounds, forest.rounds, elim_rounds, agg.rounds];
    let total_messages = compact_metrics.total_messages()
        + forest.metrics.total_messages()
        + elim_messages
        + agg.metrics.total_messages();
    WeakDensestResult {
        membership,
        clusters,
        phase_rounds,
        rounds_total: phase_rounds.iter().sum(),
        total_messages,
        best_density,
    }
}

/// The non-empty cluster of every root that declared a round `t*`, in root
/// order, with its size and actual density, from one pass over the arcs
/// bucketed by leader. Each cluster's weight `w(E(S))` is summed in the
/// order `WeightedGraph::subset_edge_weight` sums it: members ascending,
/// each member's arcs to later members in list order, then its self-loop.
fn assemble_clusters(
    g: &CsrGraph,
    forest: &BfsForest,
    agg: &AggregationOutcome,
    membership: &[Option<NodeId>],
) -> Vec<WeakCluster> {
    // `slot[l]`: the cluster of leader `l`, if `l` is a root with a decision.
    let mut slot = vec![u32::MAX; g.num_nodes()];
    let mut clusters = Vec::new();
    for root in forest.roots() {
        if let Some((t_star, est)) = agg.decisions[root.index()] {
            slot[root.index()] = clusters.len() as u32;
            clusters.push(WeakCluster {
                leader: root,
                t_star,
                estimated_density: est,
                size: 0,
                actual_density: 0.0,
            });
        }
    }
    let mut weight = vec![0.0f64; clusters.len()];
    for v in g.nodes() {
        let Some(leader) = membership[v.index()] else {
            continue;
        };
        let c = slot[leader.index()] as usize;
        let Some(cluster) = clusters.get_mut(c) else {
            continue;
        };
        cluster.size += 1;
        for (u, w) in g.neighbors_with_weights(v) {
            if v < u && membership[u.index()] == Some(leader) {
                weight[c] += w;
            }
        }
        weight[c] += g.self_loop(v);
    }
    clusters
        .into_iter()
        .zip(weight)
        .filter(|(c, _)| c.size > 0)
        .map(|(c, w)| WeakCluster {
            actual_density: w / c.size as f64,
            ..c
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_legs::on_threads;
    use dkc_flow::densest_subgraph;
    use dkc_graph::generators::{complete_graph, erdos_renyi, path_graph, planted_dense_community};
    use dkc_graph::WeightedGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// 600 components of 2 to 7 nodes, cliques with some edges left out,
    /// weights varying with the component: many clusters of different
    /// densities, one or more per component.
    fn many_components() -> WeightedGraph {
        let sizes: Vec<usize> = (0..600).map(|c| 2 + c % 6).collect();
        let mut g = WeightedGraph::new(sizes.iter().sum());
        let mut base = 0;
        for (c, &k) in sizes.iter().enumerate() {
            for i in 0..k {
                for j in i + 1..k {
                    if j == i + 1 || (i + j + c) % 4 != 0 {
                        let w = 1.0 + ((i * j + c * c) % 13) as f64 + c as f64 / 4096.0;
                        g.add_edge(NodeId::new(base + i), NodeId::new(base + j), w);
                    }
                }
            }
            if c % 5 == 0 {
                g.add_self_loop(NodeId::new(base), 0.5 + c as f64 / 1024.0);
            }
            base += k;
        }
        g
    }

    /// The one-pass assembly gives every cluster the size and the density,
    /// to the bit, that `WeightedGraph::density_of` gives its member set.
    #[test]
    fn assembled_clusters_match_density_of() {
        let g = many_components();
        let result = weak_densest_subsets(&g, 0.5);
        assert!(result.clusters.len() >= 600, "{}", result.clusters.len());
        for c in &result.clusters {
            let members: Vec<bool> = result
                .membership
                .iter()
                .map(|&m| m == Some(c.leader))
                .collect();
            assert_eq!(c.size, members.iter().filter(|&&b| b).count());
            let expected = g.density_of(&members).unwrap();
            assert_eq!(
                c.actual_density.to_bits(),
                expected.to_bits(),
                "cluster of {:?}: {} against {expected}",
                c.leader,
                c.actual_density
            );
        }
        let best = result.clusters.iter().map(|c| c.actual_density);
        assert_eq!(result.best_density, best.fold(0.0, f64::max));
    }

    /// Theorem I.3: one of the returned subsets is a 2(1+ε)-approximate densest
    /// subset.
    #[test]
    fn some_cluster_is_approximately_densest() {
        let mut rng = StdRng::seed_from_u64(61);
        let epsilon = 0.3;
        for trial in 0..3 {
            let planted = planted_dense_community(80, 15, 0.04, 0.9, &mut rng);
            let g = &planted.graph;
            let exact = densest_subgraph(g).density;
            let result = weak_densest_subsets(g, epsilon);
            assert!(
                result.best_density >= exact / (2.0 * (1.0 + epsilon)) - 1e-9,
                "trial {trial}: best cluster density {} below ρ*/(2(1+ε)) = {}",
                result.best_density,
                exact / (2.0 * (1.0 + epsilon))
            );
            assert!(result.best_density <= exact + 1e-9);
        }
    }

    /// The four-phase pipeline mixes a delta-driven phase (compact) with
    /// round-phased ones (BFS, tree elimination, aggregation); under `Auto`
    /// the first runs frontier rounds and the rest dense rounds, end to end
    /// and with identical results, on one thread and on four.
    #[test]
    fn sparse_modes_run_the_full_pipeline() {
        let mut rng = StdRng::seed_from_u64(63);
        let g = erdos_renyi(60, 0.1, &mut rng);
        let rounds = crate::api::rounds_for_epsilon(g.num_nodes(), 0.5);
        let dense = weak_densest_subsets_with_rounds(&g, rounds, ExecutionMode::Dense);
        for threads in [1, 4] {
            let sparse = on_threads(threads, || {
                weak_densest_subsets_with_rounds(&g, rounds, ExecutionMode::Auto)
            });
            assert_eq!(dense.membership, sparse.membership, "{threads} threads");
            assert_eq!(dense.best_density, sparse.best_density, "{threads} threads");
        }
    }

    #[test]
    fn clusters_are_disjoint_and_consistent() {
        let mut rng = StdRng::seed_from_u64(62);
        let g = erdos_renyi(70, 0.08, &mut rng);
        let result = weak_densest_subsets(&g, 0.5);
        // Each node belongs to at most one cluster by construction; check the
        // cluster sizes add up to the number of assigned nodes.
        let assigned = result.membership.iter().filter(|m| m.is_some()).count();
        let total_size: usize = result.clusters.iter().map(|c| c.size).sum();
        assert_eq!(assigned, total_size);
        // Cluster leaders are distinct.
        let mut leaders: Vec<_> = result.clusters.iter().map(|c| c.leader).collect();
        leaders.sort();
        leaders.dedup();
        assert_eq!(leaders.len(), result.clusters.len());
        // Members carry their cluster's leader.
        for cluster in &result.clusters {
            let count = result
                .membership
                .iter()
                .filter(|&&m| m == Some(cluster.leader))
                .count();
            assert_eq!(count, cluster.size);
        }
    }

    #[test]
    fn estimated_density_lower_bounds_actual() {
        let mut rng = StdRng::seed_from_u64(63);
        let planted = planted_dense_community(60, 12, 0.05, 0.9, &mut rng);
        let result = weak_densest_subsets(&planted.graph, 0.2);
        for cluster in &result.clusters {
            assert!(
                cluster.estimated_density <= cluster.actual_density + 1e-9,
                "cluster at {:?}: estimate {} above actual {}",
                cluster.leader,
                cluster.estimated_density,
                cluster.actual_density
            );
        }
    }

    #[test]
    fn clique_is_recovered_exactly() {
        let g = complete_graph(10);
        let result = weak_densest_subsets(&g, 0.5);
        assert_eq!(result.clusters.len(), 1);
        let c = &result.clusters[0];
        assert_eq!(c.size, 10);
        assert!((c.actual_density - 4.5).abs() < 1e-9);
        assert!((result.best_density - 4.5).abs() < 1e-9);
    }

    #[test]
    fn round_budget_is_logarithmic() {
        let mut rng = StdRng::seed_from_u64(64);
        let g = erdos_renyi(100, 0.05, &mut rng);
        let epsilon = 0.5f64;
        let result = weak_densest_subsets(&g, epsilon);
        let t = ((100f64).ln() / (1.0 + epsilon).ln()).ceil() as usize;
        // Phases 1–3 use exactly T (plus 2 for the BFS hand-shake); phase 4 is
        // at most 2T + (T + 2) + 4.
        assert_eq!(result.phase_rounds[0], t);
        assert_eq!(result.phase_rounds[1], t + 2);
        assert_eq!(result.phase_rounds[2], t);
        assert!(result.phase_rounds[3] <= 3 * t + 6);
        assert!(result.rounds_total <= 8 * t + 10);
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(65);
        let planted = planted_dense_community(50, 10, 0.05, 0.9, &mut rng);
        let rounds = crate::api::rounds_for_epsilon(planted.graph.num_nodes(), 0.3);
        let run = |threads| {
            on_threads(threads, || {
                weak_densest_subsets_with_rounds(&planted.graph, rounds, ExecutionMode::Dense)
            })
        };
        let (a, b) = (run(1), run(4));
        assert_eq!(a.membership, b.membership);
        assert_eq!(a.best_density, b.best_density);
    }

    #[test]
    fn path_graph_degenerate_case() {
        let g = path_graph(12);
        let result = weak_densest_subsets(&g, 0.5);
        // The densest subset of a path has density (n-1)/n < 1; any non-empty
        // cluster with density >= 1/2 · 11/12 / (1+eps)… just sanity-check the
        // guarantee formula.
        let exact = 11.0 / 12.0;
        assert!(result.best_density >= exact / (2.0 * 1.5) - 1e-9);
    }

    #[test]
    fn empty_graph() {
        let g = WeightedGraph::new(0);
        let result = weak_densest_subsets(&g, 0.5);
        assert!(result.clusters.is_empty());
        assert_eq!(result.best_density, 0.0);
    }
}
