//! Algorithm 2: the compact elimination procedure over a flat state arena.
//!
//! Instead of running Algorithm 1 for every threshold in parallel, each node
//! only remembers the largest threshold for which it still survives — its
//! *surviving number* `b_v` — and broadcasts it each round. After receiving its
//! neighbours' numbers, a node recomputes `b_v` with the `Update` subroutine
//! (Algorithm 3), optionally rounding down to the threshold set Λ, and (for
//! Λ = ℝ) maintains the auxiliary in-neighbour set `N_v` used by the min-max
//! orientation (Theorem I.2).
//!
//! ## Flat state arena
//!
//! Per-node state does **not** live in per-node heap allocations: the
//! [`CompactArena`] packs everything into structure-of-arrays slabs indexed by
//! the [`CsrGraph`] offsets — one contiguous `neighbor_values` slab for the
//! whole graph, one slab each for the `Update` ordering, its inverse, the
//! in-neighbour stamps and the scratch area, plus node-indexed slabs for the
//! surviving numbers. Each [`CompactNode`] program handed to the executor is a
//! set of disjoint `&mut` slices into those slabs (carved with
//! `split_at_mut`), so the executor's parallel phases stream through
//! contiguous memory instead of chasing per-node pointers.
//!
//! The receive path is **incremental**: deliveries carry the receiver-local
//! arc position ([`dkc_distsim::Delivery::pos`]), so merging the inbox writes
//! only the changed `neighbor_values` slots, and the `Update` re-sort bubbles
//! exactly those entries ([`UpdateOrder::resort_decreased`]) instead of
//! re-scanning the full adjacency list. Combined with the sparse frontier
//! executor (`ExecutionMode::Sparse*` — the program is
//! [`NodeProgram::DELTA_DRIVEN`]) the per-round cost becomes proportional to
//! the active frontier; the dense modes remain available for A/B comparison
//! and are result-identical.

use crate::api::{checked_rounds, RoundsOutOfRange};
use crate::checkpoint::{CheckpointConfig, RunPreamble};
use crate::threshold::ThresholdSet;
use crate::update::{suffix_scan, UpdateOrder};
use dkc_distsim::message::QuantizedValue;
use dkc_distsim::wire::{WireError, WireReader, WireWriter};
use dkc_distsim::{
    CheckpointError, Delivery, ExecutionMode, FaultPlan, Network, NetworkBuilder, NodeContext,
    NodeProgram, Outgoing, RunMetrics, SnapshotState,
};
use dkc_graph::{CsrGraph, NodeId, WeightedGraph};
use serde::ser::Serialize;
use std::fmt;

/// Structure-of-arrays storage for every node's elimination state, indexed
/// by CSR arc offset (arc slabs) and by node (node slabs).
#[derive(Clone, Debug)]
pub struct CompactArena {
    threshold_set: ThresholdSet,
    /// Arc offsets (`offsets[v]..offsets[v+1]` is node v's slice).
    offsets: Vec<usize>,
    /// Arc slab: latest surviving number heard per neighbour (init +∞).
    values: Vec<f64>,
    /// Arc slab: the `Update` ordering (sorted adjacency positions).
    order: Vec<u32>,
    /// Arc slab: inverse of `order`.
    inv: Vec<u32>,
    /// Arc slab: round at which the position was last included in `N_v`;
    /// a position belongs to `N_v` iff its stamp equals the node's
    /// `last_update_round` (0/0 initially ⇒ all neighbours, matching the
    /// paper's initial state).
    in_stamp: Vec<u32>,
    /// Arc slab: scratch for the changed-position list of one update.
    scratch: Vec<u32>,
    /// Node slab: current surviving numbers (init +∞).
    b: Vec<f64>,
    /// Node slab: round of the last executed update (0 = never).
    last_update_round: Vec<u32>,
    /// Node slab: bits charged per transmitted surviving number.
    message_bits: Vec<u32>,
}

impl CompactArena {
    /// Builds the initial arena for `graph` under threshold set Λ.
    pub fn new(graph: &CsrGraph, threshold_set: ThresholdSet) -> Self {
        // The build walks a collected node list: building the same slabs
        // without it raised the benchmark harness's `peak_rss_mb` by up to
        // 10%, an allocator artifact (see ROADMAP "Bytes per arc").
        let nodes: Vec<NodeId> = graph.nodes().collect();
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        offsets.push(0usize);
        for &v in &nodes {
            offsets.push(offsets.last().expect("non-empty") + graph.neighbors(v).len());
        }
        let arcs = *offsets.last().expect("non-empty");
        let mut order = vec![0u32; arcs];
        let mut inv = vec![0u32; arcs];
        for (i, &v) in nodes.iter().enumerate() {
            let (lo, hi) = (offsets[i], offsets[i + 1]);
            UpdateOrder {
                order: &mut order[lo..hi],
                inv: &mut inv[lo..hi],
            }
            .init_by_id(graph.neighbors(v));
        }
        CompactArena {
            threshold_set,
            values: vec![f64::INFINITY; arcs],
            order,
            inv,
            in_stamp: vec![0; arcs],
            scratch: vec![0; arcs],
            b: vec![f64::INFINITY; nodes.len()],
            last_update_round: vec![0; nodes.len()],
            message_bits: nodes
                .iter()
                .map(|&v| threshold_set.message_bits(graph.degree(v).max(1.0)) as u32)
                .collect(),
            offsets,
        }
    }

    /// Number of nodes the arena was built for.
    pub fn num_nodes(&self) -> usize {
        self.b.len()
    }

    /// Carves the arena into one [`CompactNode`] program per node — disjoint
    /// mutable slices of the slabs, for
    /// [`NetworkBuilder::build_from_parts`], which keeps this vector as the
    /// network's program array. Each program is a bundle of slice handles
    /// (120 B) over the arena, not a copy of its state. The arena is
    /// mutably borrowed for as long as the programs live; drop them (e.g.
    /// via [`Network::into_parts`]) before reading results.
    pub fn programs(&mut self) -> Vec<CompactNode<'_>> {
        let n = self.b.len();
        let mut out = Vec::with_capacity(n);
        let mut values = self.values.as_mut_slice();
        let mut order = self.order.as_mut_slice();
        let mut inv = self.inv.as_mut_slice();
        let mut in_stamp = self.in_stamp.as_mut_slice();
        let mut scratch = self.scratch.as_mut_slice();
        let mut b = self.b.iter_mut();
        let mut last = self.last_update_round.iter_mut();
        for v in 0..n {
            let deg = self.offsets[v + 1] - self.offsets[v];
            let (values_v, values_rest) = values.split_at_mut(deg);
            let (order_v, order_rest) = order.split_at_mut(deg);
            let (inv_v, inv_rest) = inv.split_at_mut(deg);
            let (in_stamp_v, in_stamp_rest) = in_stamp.split_at_mut(deg);
            let (scratch_v, scratch_rest) = scratch.split_at_mut(deg);
            values = values_rest;
            order = order_rest;
            inv = inv_rest;
            in_stamp = in_stamp_rest;
            scratch = scratch_rest;
            out.push(CompactNode {
                b: b.next().expect("node slab length"),
                last_update_round: last.next().expect("node slab length"),
                values: values_v,
                order: order_v,
                inv: inv_v,
                in_stamp: in_stamp_v,
                scratch: scratch_v,
                threshold_set: self.threshold_set,
                message_bits: self.message_bits[v],
            });
        }
        out
    }

    /// The surviving numbers `b_v` (by node index).
    pub fn surviving(&self) -> &[f64] {
        &self.b
    }

    /// Materializes the auxiliary in-neighbour sets `N_v` from the stamp slab
    /// (by node index).
    pub fn in_neighbors(&self, graph: &CsrGraph) -> Vec<Vec<NodeId>> {
        (0..self.b.len())
            .map(|v| {
                let lo = self.offsets[v];
                let last = self.last_update_round[v];
                graph
                    .neighbors(NodeId::new(v))
                    .iter()
                    .enumerate()
                    .filter(|&(pos, _)| self.in_stamp[lo + pos] == last)
                    .map(|(_, &u)| u)
                    .collect()
            })
            .collect()
    }
}

/// The node-state arena of a sharded run: one [`CompactArena`]. Sharding
/// only charges each round's cross-shard copies
/// ([`dkc_distsim::NetworkBuilder::shards`]), so node state does not depend
/// on it; this wrapper remains because the benchmark harness's replica of
/// `dkc coreness` builds it, and goes when that replica does.
#[derive(Clone, Debug)]
pub struct ShardedCompactArena(CompactArena);

impl ShardedCompactArena {
    /// The arena of a run of `graph` over `num_shards` shards with
    /// partitioner seed `seed`: [`CompactArena::new`], which neither
    /// parameter changes.
    pub fn new(
        graph: &CsrGraph,
        threshold_set: ThresholdSet,
        _num_shards: usize,
        _seed: u64,
    ) -> Self {
        ShardedCompactArena(CompactArena::new(graph, threshold_set))
    }

    /// [`CompactArena::programs`].
    pub fn programs(&mut self) -> Vec<CompactNode<'_>> {
        self.0.programs()
    }

    /// The surviving numbers `b_v` (by node index).
    pub fn surviving(&self) -> Vec<f64> {
        self.0.surviving().to_vec()
    }
}

/// Per-node program for the compact elimination procedure: disjoint slices of
/// a [`CompactArena`]. Delta-driven — valid under the sparse frontier
/// execution modes.
#[derive(Debug)]
pub struct CompactNode<'a> {
    /// Current surviving number (starts at +∞, as in Algorithm 2).
    b: &'a mut f64,
    /// Round of the last executed update (0 = never); doubles as the valid
    /// stamp value for `in_stamp`.
    last_update_round: &'a mut u32,
    /// Latest surviving numbers heard from each neighbour (by adjacency
    /// position), initialized to +∞.
    values: &'a mut [f64],
    /// Persistent `Update` ordering (history-encoding neighbour order).
    order: &'a mut [u32],
    /// Inverse of `order`.
    inv: &'a mut [u32],
    /// `N_v` membership stamps (by adjacency position).
    in_stamp: &'a mut [u32],
    /// Scratch for the changed-position list.
    scratch: &'a mut [u32],
    /// The threshold set Λ.
    threshold_set: ThresholdSet,
    /// Bits charged per transmitted surviving number (fixed per node; see
    /// [`ThresholdSet::message_bits`]).
    message_bits: u32,
}

impl CompactNode<'_> {
    /// The node's current surviving number.
    pub fn surviving_number(&self) -> f64 {
        *self.b
    }

    /// `Update` over the cached neighbour values in the current `order`: the
    /// surviving number rounded down to Λ, and the position in `order` from
    /// which neighbours belong to `N_v`.
    fn recompute(&self, ctx: &NodeContext<'_>) -> (f64, usize) {
        let (raw, include_from) = suffix_scan(
            &*self.order,
            &*self.values,
            ctx.neighbor_weights(),
            ctx.self_loop(),
        );
        (self.threshold_set.round_down(raw), include_from)
    }

    /// Where `N_v` starts in `order`: the number of neighbours outside it.
    /// Positions stamped with the last update round are exactly the suffix
    /// `order[include_from..]` of that update.
    fn cut(&self) -> usize {
        let last = *self.last_update_round;
        let cut = self.in_stamp.iter().filter(|&&s| s != last).count();
        debug_assert!(self.order[cut..]
            .iter()
            .all(|&p| self.in_stamp[p as usize] == last));
        cut
    }
}

impl NodeProgram for CompactNode<'_> {
    type Message = QuantizedValue;

    /// The broadcast is a pure function of `b`, the merge is an idempotent
    /// per-position cache write, and an empty inbox after the first step is a
    /// no-op — the contract the sparse frontier executor needs.
    const DELTA_DRIVEN: bool = true;

    fn broadcast(&mut self, _ctx: &NodeContext<'_>) -> Outgoing<QuantizedValue> {
        Outgoing::Broadcast(QuantizedValue {
            value: *self.b,
            bits: self.message_bits as usize,
        })
    }

    fn receive(&mut self, ctx: &NodeContext<'_>, inbox: &[Delivery<QuantizedValue>]) -> bool {
        // Merge the received numbers into the per-neighbour value slab,
        // collecting the positions that actually decreased. Surviving numbers
        // are monotone non-increasing, so an already-known (or stale) value
        // never exceeds the cache.
        let mut changed_count = 0usize;
        for d in inbox {
            let pos = d.pos as usize;
            let v = d.msg.value;
            if v < self.values[pos] {
                self.values[pos] = v;
                self.scratch[changed_count] = d.pos;
                changed_count += 1;
            }
        }
        if changed_count == 0 && *self.last_update_round != 0 {
            // Nothing new: `Update` would recompute the identical state.
            return false;
        }
        UpdateOrder {
            order: &mut *self.order,
            inv: &mut *self.inv,
        }
        .resort_decreased(&*self.values, &mut self.scratch[..changed_count]);
        let (rounded, include_from) = self.recompute(ctx);
        debug_assert!(
            rounded <= *self.b + 1e-9,
            "surviving number increased: {} -> {rounded}",
            self.b
        );
        let round = ctx.round() as u32;
        for &pos in &self.order[include_from..] {
            self.in_stamp[pos as usize] = round;
        }
        *self.last_update_round = round;
        let changed = (rounded - *self.b).abs() > 1e-12 || self.b.is_infinite();
        *self.b = rounded;
        changed
    }
}

/// Checkpoint payload of one node (format v4): `deg` u32, `b` f64,
/// `last_update_round` u32 and the cut `deg − |N_v|` u32, then `values` (f64)
/// and `order` (u32) as little-endian slabs — 20 B plus 12 B per arc. The
/// degree leads as a cross-check against the arena the state is restored
/// into. The other slabs are derived, not stored: `inv` is the inverse of
/// `order`, and `N_v` is the suffix `order[cut..]` stamped at the last
/// update (every position while the node has never updated), because
/// `order` changes only inside an update. The scratch slab is per-step
/// workspace, and the message-bit/threshold parameters are rebuilt from the
/// graph.
impl SnapshotState for CompactNode<'_> {
    fn save_state(&self, w: &mut WireWriter) -> Result<(), WireError> {
        let deg = self.values.len() as u32;
        deg.serialize(&mut *w)?;
        self.b.serialize(&mut *w)?;
        self.last_update_round.serialize(&mut *w)?;
        (self.cut() as u32).serialize(&mut *w)?;
        w.write_f64s(self.values);
        w.write_u32s(self.order);
        Ok(())
    }

    fn load_state(&mut self, r: &mut WireReader<'_>) -> Result<(), CheckpointError> {
        let deg = self.values.len();
        let saved_deg = r.read_u32()? as usize;
        if saved_deg != deg {
            return Err(CheckpointError::Mismatch(format!(
                "node degree {saved_deg} in checkpoint, {deg} in this graph"
            )));
        }
        *self.b = r.read_f64()?;
        let last = r.read_u32()?;
        *self.last_update_round = last;
        let cut = r.read_u32()? as usize;
        if cut > deg {
            return Err(CheckpointError::Mismatch(format!(
                "N_v cut {cut} is past the node degree {deg}"
            )));
        }
        if last == 0 && cut != 0 {
            return Err(CheckpointError::Mismatch(format!(
                "a node that never updated has every neighbour in N_v, not a cut at {cut}"
            )));
        }
        r.read_f64s_into(self.values)?;
        r.read_u32s_into(self.order)?;
        // `order` must be a permutation of 0..deg — anything else would make
        // the Update re-sort read out of bounds. Building `inv` as its
        // inverse checks that: an entry out of range or repeated is rejected.
        self.inv.fill(u32::MAX);
        for (i, &p) in self.order.iter().enumerate() {
            match self.inv.get_mut(p as usize) {
                Some(q) if *q == u32::MAX => *q = i as u32,
                _ => {
                    return Err(CheckpointError::Mismatch(
                        "checkpointed update order is not a valid permutation".to_string(),
                    ))
                }
            }
        }
        // Members of N_v carry the last update's stamp. Every other position
        // gets 0, which no round equals (rounds count from 1), so a later
        // update that shrinks N_v leaves them out.
        self.in_stamp.fill(0);
        for &p in &self.order[cut..] {
            self.in_stamp[p as usize] = last;
        }
        // Surviving numbers are non-negative (+∞ before the first update), and
        // `order` keeps `values` sorted ascending between rounds. A NaN would
        // panic the `Update` sort and an unsorted order breaks the incremental
        // re-sort, so both are rejected here rather than panicking later.
        let in_domain = |x: f64| x >= 0.0;
        if !in_domain(*self.b) || !self.values.iter().all(|&x| in_domain(x)) {
            return Err(CheckpointError::Mismatch(
                "checkpointed surviving number is NaN or negative".to_string(),
            ));
        }
        let values = &*self.values;
        if !self
            .order
            .windows(2)
            .all(|w| values[w[0] as usize] <= values[w[1] as usize])
        {
            return Err(CheckpointError::Mismatch(
                "checkpointed update order does not sort the neighbour values".to_string(),
            ));
        }
        Ok(())
    }
}

/// The output of the compact elimination procedure.
#[derive(Clone, Debug)]
pub struct CompactOutcome {
    /// `surviving[v]` = the surviving number `b_v` after the requested number
    /// of rounds (equal to `β^T(v)` for Λ = ℝ, Fact III.9).
    pub surviving: Vec<f64>,
    /// `in_neighbors[v]` = the auxiliary subset `N_v` (neighbours whose shared
    /// edge is assigned to `v`). Meaningful for Λ = ℝ (Definition III.7).
    pub in_neighbors: Vec<Vec<NodeId>>,
    /// Number of rounds executed.
    pub rounds: usize,
    /// Communication metrics of the run.
    pub metrics: RunMetrics,
}

impl CompactOutcome {
    /// The largest surviving number in the network (an upper bound on the
    /// maximum density / coreness; used e.g. to feed the Barenboim–Elkin
    /// baseline).
    pub fn max_surviving(&self) -> f64 {
        self.surviving.iter().fold(0.0, |a, &b| a.max(b))
    }
}

/// The parameters of one compact-elimination run: Algorithm 2 for `rounds`
/// rounds under a threshold set Λ, an execution backend, a fault plan, an
/// optional shard partition, and optional checkpointing.
/// [`RunSpec::new`] starts from the fault-free, unsharded, uncheckpointed
/// run over Λ = ℝ in the default mode; each setter changes one parameter.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Number of rounds T.
    pub rounds: usize,
    /// The threshold set Λ.
    pub threshold_set: ThresholdSet,
    /// The execution backend; `None` takes the `NetworkBuilder` default,
    /// [`ExecutionMode::SparseParallel`]. A sharded run needs a sparse mode
    /// (see [`dkc_distsim::NetworkBuilder::shards`]).
    pub mode: Option<ExecutionMode>,
    /// The deterministic fault plan (trivial = fault-free).
    pub faults: FaultPlan,
    /// Shard count: 0 = unsharded; ≥ 1 also charges each round's
    /// cross-shard copies as `BoundaryDelta` frames (the `boundary_bits` and
    /// `boundary_nodes` counters).
    pub shards: usize,
    /// Seed of the edge-cut partitioner (meaningful only when `shards > 0`).
    pub shard_seed: u64,
    /// Where and how often to write checkpoints (`None` = never).
    pub checkpoint: Option<CheckpointConfig>,
}

impl RunSpec {
    /// A fault-free, unsharded, uncheckpointed run of `rounds` rounds over
    /// Λ = ℝ in the default [`ExecutionMode`].
    pub fn new(rounds: usize) -> Self {
        RunSpec {
            rounds,
            threshold_set: ThresholdSet::Reals,
            mode: None,
            faults: FaultPlan::none(),
            shards: 0,
            shard_seed: 0,
            checkpoint: None,
        }
    }

    /// Sets the threshold set Λ.
    pub fn threshold_set(mut self, threshold_set: ThresholdSet) -> Self {
        self.threshold_set = threshold_set;
        self
    }

    /// Sets the execution backend.
    pub fn mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = Some(mode);
        self
    }

    /// Sets the fault plan.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Partitions the run into `shards` shards with partitioner seed `seed`
    /// (0 shards = unsharded).
    pub fn sharded(mut self, shards: usize, seed: u64) -> Self {
        self.shards = shards;
        self.shard_seed = seed;
        self
    }

    /// Writes a checkpoint as `cfg` says.
    pub fn checkpoint(mut self, cfg: CheckpointConfig) -> Self {
        self.checkpoint = Some(cfg);
        self
    }
}

/// Why [`run_compact_elimination`] returned no outcome.
#[derive(Clone, Debug, PartialEq)]
pub enum RunError {
    /// [`RunSpec::rounds`] is outside `1..=`[`crate::checkpoint::MAX_ROUNDS`]:
    /// the run keeps one `RoundStats` per round, so the bound keeps its
    /// history bounded. Nothing was built.
    Rounds(RoundsOutOfRange),
    /// Writing a checkpoint failed.
    Checkpoint(CheckpointError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Rounds(e) => e.fmt(f),
            RunError::Checkpoint(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RunError {}

impl From<RoundsOutOfRange> for RunError {
    fn from(e: RoundsOutOfRange) -> Self {
        RunError::Rounds(e)
    }
}

impl From<CheckpointError> for RunError {
    fn from(e: CheckpointError) -> Self {
        RunError::Checkpoint(e)
    }
}

/// Runs Algorithm 2 on `g` as `spec` says. A round count outside
/// `1..=`[`crate::checkpoint::MAX_ROUNDS`] is rejected before anything is
/// built; past that, only checkpoint writing can fail, so a run with a legal
/// T and without [`RunSpec::checkpoint`] always returns `Ok`.
///
/// **Faults.** Dropped messages leave the receiver's cached neighbour value
/// at its previous (higher) level, so the computed surviving numbers can only
/// be **larger** than in a fault-free run — the output therefore remains a
/// valid upper bound on the coreness (Lemma III.2 is unaffected) and only the
/// convergence slows down gracefully; the E10/E13 experiments quantify this.
/// A crash-stopped node freezes at its last computed value (still an upper
/// bound: surviving numbers are monotone non-increasing). Under the sparse
/// modes, a sender with dropped copies stays in the frontier and re-sends,
/// while a crashed node leaves the frontier for good — so sparse and dense
/// runs remain result-identical under every fault class.
///
/// **Sharding.** With `shards > 0` each round also encodes, decodes and
/// validates the `BoundaryDelta` frames its cross-shard copies would travel
/// in between shard hosts, and charges them to the boundary counters. The
/// run itself is the unsharded one: node values, rounds, `node_updates`,
/// `wire_bits` and all fault counters are byte-identical, pinned by
/// `prop_sharded` and the E15 experiment.
///
/// **Checkpoints** are written atomically every `every` rounds (counted in
/// absolute rounds), so a kill mid-write never corrupts the latest one and
/// [`crate::checkpoint::resume_compact_elimination`] can finish the run.
pub fn run_compact_elimination(
    g: &WeightedGraph,
    spec: &RunSpec,
) -> Result<CompactOutcome, RunError> {
    checked_rounds(spec.rounds)?;
    Ok(execute(CsrGraph::from_graph(g), spec, None)?.0)
}

/// Builds the arena and network for `spec` over `csr`, which becomes the
/// network's topology, restores a checkpoint's `(preamble, executor state)`
/// if one is given, and runs on to round `spec.rounds`. Returns the outcome
/// and the round execution started from (0 for a fresh run).
/// [`run_compact_elimination`] and
/// [`crate::checkpoint::resume_compact_elimination`] both run through here.
pub(crate) fn execute(
    csr: CsrGraph,
    spec: &RunSpec,
    resume: Option<(&[u8], &[u8])>,
) -> Result<(CompactOutcome, usize), CheckpointError> {
    let mut arena = CompactArena::new(&csr, spec.threshold_set);
    let mut builder = NetworkBuilder::new()
        .faults(spec.faults)
        .shards(spec.shards)
        .shard_seed(spec.shard_seed)
        .checkpoint_every(spec.checkpoint.as_ref().map_or(0, |c| c.every.max(1)));
    if let Some(mode) = spec.mode {
        builder = builder.mode(mode);
    }
    let mut net = builder.build_from_parts(csr, arena.programs());
    if let Some(cfg) = &spec.checkpoint {
        let preamble = match resume {
            Some((preamble, _)) => preamble.to_vec(),
            None => RunPreamble::for_run(net.graph(), spec).encode(),
        };
        net.checkpoint_to(&cfg.path, preamble);
    }
    if let Some((_, state)) = resume {
        net.restore_state(state)?;
        check_restored_surviving(&net)?;
    }
    let started_from = net.round();
    if started_from > spec.rounds {
        return Err(CheckpointError::Mismatch(format!(
            "checkpoint is at round {started_from}, past the run's target of {} rounds",
            spec.rounds
        )));
    }
    net.run_with_checkpoints(spec.rounds - started_from)?;
    // The programs borrow the arena: drop them, and with them the
    // network's scratch, before reading the results off the arena.
    let (graph, programs, metrics) = net.into_graph_and_parts();
    drop(programs);
    let outcome = CompactOutcome {
        surviving: arena.surviving().to_vec(),
        in_neighbors: arena.in_neighbors(&graph),
        rounds: spec.rounds,
        metrics,
    };
    Ok((outcome, started_from))
}

/// Every executed `Update` leaves `b` and the `N_v` cut equal to what it
/// computes from the node's values, order and edge weights, and no later
/// round changes one without the other. A restored node that has updated
/// (`last_update_round != 0`) and breaks this was not written by a run:
/// resuming it would let a surviving number increase or hand out a wrong
/// orientation, so it is rejected here.
fn check_restored_surviving(net: &Network<CompactNode<'_>>) -> Result<(), CheckpointError> {
    for v in net.graph().nodes() {
        let node = net.program(v);
        if *node.last_update_round == 0 {
            continue;
        }
        let (b, include_from) = node.recompute(&NodeContext::new(net.graph(), v, net.round()));
        if b != *node.b {
            return Err(CheckpointError::Mismatch(format!(
                "checkpointed surviving number of node {v} disagrees with its neighbour values"
            )));
        }
        if include_from != node.cut() {
            return Err(CheckpointError::Mismatch(format!(
                "checkpointed N_v cut of node {v} disagrees with its neighbour values"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surviving::surviving_numbers;
    use dkc_baselines::weighted_coreness;
    use dkc_flow::dense_decomposition;
    use dkc_graph::generators::{
        barabasi_albert, complete_graph, erdos_renyi, path_graph, with_random_integer_weights,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Runs `spec`, which writes no checkpoint and so cannot fail.
    fn run(g: &WeightedGraph, spec: RunSpec) -> CompactOutcome {
        run_compact_elimination(g, &spec).unwrap()
    }

    #[test]
    fn distributed_matches_centralized_reference() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..3 {
            let g = erdos_renyi(50, 0.1, &mut rng);
            for rounds in [1usize, 2, 4, 7] {
                let outcome = run(&g, RunSpec::new(rounds).mode(ExecutionMode::Sequential));
                let reference = surviving_numbers(&g, rounds);
                for v in 0..50 {
                    assert!(
                        (outcome.surviving[v] - reference[v]).abs() < 1e-9,
                        "rounds {rounds}, node {v}: {} vs {}",
                        outcome.surviving[v],
                        reference[v]
                    );
                }
            }
        }
    }

    #[test]
    fn all_execution_modes_match() {
        let mut rng = StdRng::seed_from_u64(22);
        let g = barabasi_albert(120, 3, &mut rng);
        let seq = run(&g, RunSpec::new(5).mode(ExecutionMode::Sequential));
        for mode in [
            ExecutionMode::Parallel,
            ExecutionMode::SparseSequential,
            ExecutionMode::SparseParallel,
        ] {
            let other = run(&g, RunSpec::new(5).mode(mode));
            assert_eq!(seq.surviving, other.surviving, "{mode:?}");
            assert_eq!(seq.in_neighbors, other.in_neighbors, "{mode:?}");
        }
    }

    #[test]
    fn sparse_execution_prunes_node_updates() {
        // A path has a long convergence tail with a narrow frontier.
        let g = path_graph(120);
        let rounds = 120;
        let dense = run(&g, RunSpec::new(rounds).mode(ExecutionMode::Sequential));
        let sparse = run(
            &g,
            RunSpec::new(rounds).mode(ExecutionMode::SparseSequential),
        );
        assert_eq!(dense.surviving, sparse.surviving);
        assert_eq!(dense.in_neighbors, sparse.in_neighbors);
        let d = dense.metrics.total_node_updates();
        let s = sparse.metrics.total_node_updates();
        assert_eq!(d, 120 * rounds, "dense runs every node every round");
        assert!(
            s * 4 < d,
            "sparse should cut node updates by >4x on the long tail ({s} vs {d})"
        );
        assert!(sparse.metrics.total_messages() < dense.metrics.total_messages());
    }

    /// Theorem III.5: r(v) <= c(v) <= β^T(v) <= γ·r(v) <= γ·c(v) with
    /// γ = 2 n^{1/T}.
    #[test]
    fn theorem_iii_5_sandwich() {
        let mut rng = StdRng::seed_from_u64(23);
        let base = erdos_renyi(40, 0.15, &mut rng);
        let g = with_random_integer_weights(&base, 3, &mut rng);
        let core = weighted_coreness(&g);
        let decomposition = dense_decomposition(&g);
        let n = 40f64;
        for rounds in [1usize, 2, 4, 6, 10] {
            let outcome = run(&g, RunSpec::new(rounds).mode(ExecutionMode::Sequential));
            let gamma = 2.0 * n.powf(1.0 / rounds as f64);
            for v in 0..40 {
                let beta = outcome.surviving[v];
                let r = decomposition.maximal_density[v];
                let c = core[v];
                assert!(r <= c + 1e-6, "r > c at node {v}");
                assert!(c <= beta + 1e-6, "c > beta at node {v} (rounds {rounds})");
                assert!(
                    beta <= gamma * r + 1e-6,
                    "beta {beta} > gamma*r = {} at node {v} (rounds {rounds})",
                    gamma * r
                );
            }
        }
    }

    /// Definition III.7, second invariant: every edge is covered by at least
    /// one endpoint's auxiliary set.
    #[test]
    fn every_edge_is_covered() {
        let mut rng = StdRng::seed_from_u64(24);
        for trial in 0..4 {
            let base = barabasi_albert(80, 3, &mut rng);
            let g = if trial % 2 == 0 {
                base
            } else {
                with_random_integer_weights(&base, 10, &mut rng)
            };
            // Exercise the sparse executor on half the trials: the covering
            // invariant must survive frontier-driven (partial) updates too.
            let mode = if trial < 2 {
                ExecutionMode::Sequential
            } else {
                ExecutionMode::SparseSequential
            };
            for rounds in [1usize, 3, 6] {
                let outcome = run(&g, RunSpec::new(rounds).mode(mode));
                for (u, v, _) in g.edges() {
                    if u == v {
                        continue;
                    }
                    let covered = outcome.in_neighbors[v.index()].contains(&u)
                        || outcome.in_neighbors[u.index()].contains(&v);
                    assert!(
                        covered,
                        "edge {{{u}, {v}}} uncovered after {rounds} rounds (trial {trial})"
                    );
                }
            }
        }
    }

    /// Definition III.7, first invariant: Σ_{u ∈ N_v} w_uv <= b_v.
    #[test]
    fn in_neighbor_weight_bounded_by_surviving_number() {
        let mut rng = StdRng::seed_from_u64(25);
        let base = barabasi_albert(100, 4, &mut rng);
        let g = with_random_integer_weights(&base, 7, &mut rng);
        let outcome = run(&g, RunSpec::new(5).mode(ExecutionMode::Sequential));
        for v in g.nodes() {
            let total: f64 = outcome.in_neighbors[v.index()]
                .iter()
                .map(|&u| {
                    g.neighbors(v)
                        .iter()
                        .find(|&&(x, _)| x == u)
                        .map(|&(_, w)| w)
                        .unwrap()
                })
                .sum();
            assert!(
                total <= outcome.surviving[v.index()] + 1e-9,
                "node {v}: N weight {total} > b {}",
                outcome.surviving[v.index()]
            );
        }
    }

    /// Corollary III.10: with Λ = powers of (1+λ), the output is within a
    /// (1+λ) factor below the exact surviving number.
    #[test]
    fn quantization_loses_at_most_one_grid_step() {
        let mut rng = StdRng::seed_from_u64(26);
        let g = erdos_renyi(60, 0.1, &mut rng);
        let rounds = 6;
        let exact = run(&g, RunSpec::new(rounds).mode(ExecutionMode::Sequential));
        for &lambda in &[0.01, 0.1, 0.5] {
            let quantized = run(
                &g,
                RunSpec::new(rounds)
                    .threshold_set(ThresholdSet::power_grid(lambda))
                    .mode(ExecutionMode::Sequential),
            );
            for v in 0..60 {
                let e = exact.surviving[v];
                let q = quantized.surviving[v];
                assert!(q <= e + 1e-9, "quantized above exact at node {v}");
                assert!(
                    q * (1.0 + lambda) * (1.0 + lambda) >= e - 1e-9,
                    "node {v}: quantized {q} more than (1+λ)^2 below exact {e} (λ={lambda})"
                );
            }
            // Quantized messages must be smaller than full words.
            assert!(
                quantized.metrics.totals().max_message_bits
                    < exact.metrics.totals().max_message_bits
            );
        }
    }

    #[test]
    fn clique_values_equal_degree() {
        let g = complete_graph(8);
        let outcome = run(&g, RunSpec::new(3).mode(ExecutionMode::Sequential));
        // K_8: coreness = density-ish = 7; β stays at 7 from round 1 on.
        for v in 0..8 {
            assert_eq!(outcome.surviving[v], 7.0);
        }
    }

    #[test]
    fn path_converges_to_coreness_one() {
        let g = path_graph(10);
        // After enough rounds, β = coreness = 1 everywhere.
        let outcome = run(&g, RunSpec::new(20).mode(ExecutionMode::Sequential));
        for v in 0..10 {
            assert_eq!(outcome.surviving[v], 1.0);
        }
        // After a single round, β = degree.
        let one = run(&g, RunSpec::new(1).mode(ExecutionMode::Sequential));
        assert_eq!(one.surviving[0], 1.0);
        assert_eq!(one.surviving[5], 2.0);
    }

    #[test]
    fn empty_graph_and_isolated_nodes() {
        let g = WeightedGraph::new(3);
        for mode in [ExecutionMode::Sequential, ExecutionMode::SparseSequential] {
            let outcome = run(&g, RunSpec::new(2).mode(mode));
            assert_eq!(outcome.surviving, vec![0.0; 3], "{mode:?}");
            assert!(outcome.in_neighbors.iter().all(Vec::is_empty));
        }
    }

    #[test]
    fn message_loss_degrades_gracefully() {
        use dkc_distsim::LossModel;
        let mut rng = StdRng::seed_from_u64(27);
        let g = barabasi_albert(100, 3, &mut rng);
        let rounds = 8;
        let clean = run(&g, RunSpec::new(rounds).mode(ExecutionMode::Sequential));
        let core = weighted_coreness(&g);

        // Zero loss is exactly the clean run.
        let zero = run(
            &g,
            RunSpec::new(rounds)
                .mode(ExecutionMode::Sequential)
                .faults(FaultPlan::from_loss(LossModel::new(0.0, 1))),
        );
        assert_eq!(zero.surviving, clean.surviving);

        for &p in &[0.1, 0.3, 0.8] {
            let lossy = run(
                &g,
                RunSpec::new(rounds)
                    .mode(ExecutionMode::Sequential)
                    .faults(FaultPlan::from_loss(LossModel::new(p, 99))),
            );
            for v in 0..100 {
                // Still a valid upper bound on the coreness …
                assert!(lossy.surviving[v] >= core[v] - 1e-9, "p={p}, node {v}");
                // … and never better-informed than the fault-free run.
                assert!(
                    lossy.surviving[v] >= clean.surviving[v] - 1e-9,
                    "p={p}, node {v}: lossy {} below clean {}",
                    lossy.surviving[v],
                    clean.surviving[v]
                );
            }
            // Every execution mode agrees even under loss (deterministic
            // drops; sparse senders re-send after dropped copies).
            for mode in [
                ExecutionMode::Parallel,
                ExecutionMode::SparseSequential,
                ExecutionMode::SparseParallel,
            ] {
                let other = run(
                    &g,
                    RunSpec::new(rounds)
                        .mode(mode)
                        .faults(FaultPlan::from_loss(LossModel::new(p, 99))),
                );
                assert_eq!(lossy.surviving, other.surviving, "p={p}, {mode:?}");
            }
        }
    }

    /// Crash-stop fault injection: frozen values stay valid upper bounds on
    /// the coreness, dense and sparse agree byte-for-byte, and the crash run
    /// does strictly fewer node updates than the fault-free run.
    #[test]
    fn crash_stop_degrades_gracefully() {
        use dkc_distsim::{CrashModel, FaultPlan};
        let mut rng = StdRng::seed_from_u64(31);
        let g = barabasi_albert(120, 3, &mut rng);
        let rounds = 12;
        let core = weighted_coreness(&g);
        let plan = FaultPlan::none().with_crash(CrashModel::new(0.25, 2, 8, 7));
        let clean = run(&g, RunSpec::new(rounds).mode(ExecutionMode::Sequential));
        let crashed = run(
            &g,
            RunSpec::new(rounds)
                .mode(ExecutionMode::Sequential)
                .faults(plan),
        );
        assert!(crashed.metrics.crashed_nodes() > 0, "no node crashed");
        for v in 0..120 {
            assert!(
                crashed.surviving[v].is_finite(),
                "node {v}: crash window starts after round 1, every node ran once"
            );
            assert!(
                crashed.surviving[v] >= core[v] - 1e-9,
                "node {v}: frozen value below the coreness"
            );
            assert!(
                crashed.surviving[v] >= clean.surviving[v] - 1e-9,
                "node {v}: crashed run better-informed than the clean run"
            );
        }
        for mode in [
            ExecutionMode::Parallel,
            ExecutionMode::SparseSequential,
            ExecutionMode::SparseParallel,
        ] {
            let other = run(&g, RunSpec::new(rounds).mode(mode).faults(plan));
            assert_eq!(crashed.surviving, other.surviving, "{mode:?}");
            assert_eq!(crashed.in_neighbors, other.in_neighbors, "{mode:?}");
        }
        assert!(
            crashed.metrics.total_node_updates() < clean.metrics.total_node_updates(),
            "crashed nodes must stop executing steps"
        );
    }

    /// A sharded run produces byte-identical counters and values to the
    /// unsharded sparse run for every shard count, clean and under faults,
    /// and charges boundary traffic once there is a cut.
    #[test]
    fn sharded_run_matches_unsharded() {
        use dkc_distsim::{CrashModel, FaultPlan, LossModel};
        let mut rng = StdRng::seed_from_u64(33);
        let g = barabasi_albert(90, 3, &mut rng);
        let rounds = 8;
        for plan in [
            FaultPlan::none(),
            FaultPlan::from_loss(LossModel::new(0.3, 5)).with_crash(CrashModel::new(0.2, 2, 6, 9)),
        ] {
            let reference = run(
                &g,
                RunSpec::new(rounds)
                    .mode(ExecutionMode::SparseSequential)
                    .faults(plan),
            );
            for shards in [1usize, 2, 3, 8] {
                let sharded = run(&g, RunSpec::new(rounds).faults(plan).sharded(shards, 7));
                assert_eq!(reference.surviving, sharded.surviving, "shards={shards}");
                assert_eq!(
                    reference.in_neighbors, sharded.in_neighbors,
                    "shards={shards}"
                );
                assert_eq!(
                    reference.metrics.total_wire_bits(),
                    sharded.metrics.total_wire_bits(),
                    "shards={shards}"
                );
                assert_eq!(
                    reference.metrics.total_node_updates(),
                    sharded.metrics.total_node_updates(),
                    "shards={shards}"
                );
                if shards > 1 {
                    assert!(sharded.metrics.total_boundary_bits() > 0, "shards={shards}");
                }
            }
        }
    }

    /// A library caller's T is bounded like the CLI's and a checkpoint's:
    /// one past `MAX_ROUNDS` is a typed error before anything runs (instead
    /// of a round history that grows with T), and `MAX_ROUNDS` itself runs.
    #[test]
    fn round_count_is_capped_at_max_rounds() {
        use crate::api::RoundsOutOfRange;
        use crate::checkpoint::MAX_ROUNDS;
        let g = path_graph(4);
        let cap = MAX_ROUNDS as usize;
        for rounds in [0, cap + 1] {
            assert_eq!(
                run_compact_elimination(&g, &RunSpec::new(rounds)).unwrap_err(),
                RunError::Rounds(RoundsOutOfRange { rounds })
            );
        }
        let outcome = run(&g, RunSpec::new(cap));
        assert_eq!(outcome.metrics.num_rounds(), cap);
        assert_eq!(outcome.surviving, vec![1.0; 4]);
    }

    #[test]
    fn round_metrics_are_recorded() {
        let g = complete_graph(5);
        let outcome = run(&g, RunSpec::new(4).mode(ExecutionMode::Sequential));
        assert_eq!(outcome.metrics.num_rounds(), 4);
        assert_eq!(outcome.rounds, 4);
        // Every node broadcasts a number to 4 neighbours in every round.
        assert_eq!(outcome.metrics.rounds()[0].messages, 20);
        assert_eq!(outcome.metrics.rounds()[0].node_updates, 5);
    }
}
