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
//! [`CompactArena`] packs it into three slabs. Two are indexed by the
//! [`CsrGraph`] arc offsets, 16 B per arc in all: one `f64` per arc for the
//! values heard from the neighbours, and one `u32` slab holding each node's
//! `Update` ordering followed by its inverse. The third holds one 24 B record
//! per node: `b_v`, the round of its last update, the cut where `N_v` starts
//! in the ordering, its message width and its degree. `Update` returns `N_v`
//! as a suffix of the ordering, `order[cut..]`, and only an update reorders,
//! so the cut alone keeps `N_v` exact between rounds. Each [`CompactNode`]
//! program handed to the executor is four references (48 B): its record, its
//! two arc slices (carved with `split_at_mut`) and the shared threshold set,
//! so the executor's parallel phases stream through contiguous memory
//! instead of chasing per-node pointers. The changed-position list of one
//! step lives in a buffer per thread, not in the arena.
//!
//! The receive path is **incremental**: deliveries carry the receiver-local
//! arc position ([`dkc_distsim::Delivery::pos`]), so merging the inbox writes
//! only the changed `neighbor_values` slots, and the `Update` re-sort bubbles
//! exactly those entries ([`UpdateOrder::resort_decreased`]) instead of
//! re-scanning the full adjacency list. The program is
//! [`NodeProgram::DELTA_DRIVEN`], so [`ExecutionMode::Auto`] runs it in
//! frontier rounds and the per-round cost becomes proportional to the active
//! frontier; [`ExecutionMode::Dense`] remains available for A/B comparison
//! and is result-identical.

use crate::api::{checked_rounds, RoundsOutOfRange};
use crate::checkpoint::{CheckpointConfig, RunPreamble, MAX_SHARDS};
use crate::threshold::ThresholdSet;
use crate::update::{suffix_scan, UpdateOrder};
use dkc_distsim::message::QuantizedValue;
use dkc_distsim::wire::{WireError, WireReader, WireSink, WireWriter};
use dkc_distsim::{
    CheckpointError, Delivery, ExecutionMode, FaultPlan, Network, NetworkBuilder, NodeContext,
    NodeProgram, Outgoing, RunMetrics, SnapshotState,
};
use dkc_graph::{CsrGraph, NodeId};
use std::cell::RefCell;
use std::fmt;
use std::ops::Index;

/// One node's scalar state in a [`CompactArena`].
#[derive(Clone, Copy, Debug)]
struct NodeRecord {
    /// Current surviving number (starts at +∞, as in Algorithm 2).
    b: f64,
    /// Round of the last executed update (0 = never).
    last_update_round: u32,
    /// Where `N_v` starts in the `Update` ordering: `N_v = order[cut..]`,
    /// the suffix the last update returned (0, every neighbour, before the
    /// first update: the paper's initial state).
    cut: u32,
    /// Bits charged per transmitted surviving number (fixed per node; see
    /// [`ThresholdSet::message_bits`]).
    message_bits: u32,
    /// Number of arcs: the node's slice length in each arc slab.
    deg: u32,
}

/// Structure-of-arrays storage for every node's elimination state: two
/// slabs indexed by CSR arc offset and one record per node.
#[derive(Clone, Debug)]
pub struct CompactArena {
    threshold_set: ThresholdSet,
    /// Arc slab: latest surviving number heard per neighbour (init +∞).
    values: Vec<f64>,
    /// Arc slab, two entries per arc: each node's `Update` ordering (sorted
    /// adjacency positions) and then its inverse, so node v's `2·deg`
    /// entries start at twice its arc offset.
    order_inv: Vec<u32>,
    /// Node slab: one record per node.
    nodes: Vec<NodeRecord>,
}

impl CompactArena {
    /// Builds the initial arena for `graph` under threshold set Λ.
    pub fn new(graph: &CsrGraph, threshold_set: ThresholdSet) -> Self {
        let mut order_inv = vec![0u32; 2 * graph.num_arcs()];
        let nodes = graph
            .nodes()
            .map(|v| {
                let neighbors = graph.neighbors(v);
                let (lo, deg) = (2 * graph.arc_offset(v), neighbors.len());
                let (order, inv) = order_inv[lo..lo + 2 * deg].split_at_mut(deg);
                UpdateOrder { order, inv }.init_by_id(neighbors);
                NodeRecord {
                    b: f64::INFINITY,
                    last_update_round: 0,
                    cut: 0,
                    message_bits: threshold_set.message_bits(graph.degree(v).max(1.0)) as u32,
                    deg: deg as u32,
                }
            })
            .collect();
        CompactArena {
            threshold_set,
            values: vec![f64::INFINITY; graph.num_arcs()],
            order_inv,
            nodes,
        }
    }

    /// Number of nodes the arena was built for.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Carves the arena into one [`CompactNode`] program per node — its
    /// record and disjoint mutable slices of the arc slabs, for
    /// [`NetworkBuilder::build_from_parts`], which keeps this vector as the
    /// network's program array. Each program is four references (48 B) into
    /// the arena, not a copy of its state. The arena is mutably borrowed for
    /// as long as the programs live; drop them (e.g. via
    /// [`Network::into_parts`]) before reading results.
    pub fn programs(&mut self) -> Vec<CompactNode<'_>> {
        let mut values = self.values.as_mut_slice();
        let mut order_inv = self.order_inv.as_mut_slice();
        let threshold_set = &self.threshold_set;
        self.nodes
            .iter_mut()
            .map(|state| {
                let deg = state.deg as usize;
                let (values_v, values_rest) = std::mem::take(&mut values).split_at_mut(deg);
                let (order_inv_v, order_inv_rest) =
                    std::mem::take(&mut order_inv).split_at_mut(2 * deg);
                values = values_rest;
                order_inv = order_inv_rest;
                CompactNode {
                    state,
                    values: values_v,
                    order_inv: order_inv_v,
                    threshold_set,
                }
            })
            .collect()
    }

    /// The surviving numbers `b_v` (by node index).
    pub fn surviving(&self) -> Vec<f64> {
        self.nodes.iter().map(|s| s.b).collect()
    }

    /// The auxiliary in-neighbour sets `N_v`, read off each node's cut in one
    /// pass over the arcs.
    pub fn in_neighbors(&self, graph: &CsrGraph) -> InNeighbors {
        let size = self.nodes.iter().map(|s| (s.deg - s.cut) as usize).sum();
        let mut offsets = Vec::with_capacity(self.nodes.len() + 1);
        let mut members = Vec::with_capacity(size);
        offsets.push(0);
        for (v, s) in graph.nodes().zip(&self.nodes) {
            let (lo, deg) = (graph.arc_offset(v), s.deg as usize);
            // Position p is in N_v iff its rank `inv[p]` is at or past the cut.
            let inv = &self.order_inv[2 * lo + deg..2 * (lo + deg)];
            members.extend(
                graph
                    .neighbors(v)
                    .iter()
                    .zip(inv)
                    .filter(|&(_, &rank)| rank >= s.cut)
                    .map(|(&u, _)| u),
            );
            offsets.push(members.len());
        }
        InNeighbors { offsets, members }
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
        self.0.surviving()
    }
}

/// The auxiliary sets `N_v` of every node in one CSR-shaped list:
/// `in_neighbors[v]` is node v's set, in adjacency order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InNeighbors {
    /// `offsets[v]..offsets[v + 1]` is node v's range of `members`.
    offsets: Vec<usize>,
    members: Vec<NodeId>,
}

impl Index<usize> for InNeighbors {
    type Output = [NodeId];

    fn index(&self, v: usize) -> &[NodeId] {
        &self.members[self.offsets[v]..self.offsets[v + 1]]
    }
}

thread_local! {
    /// The adjacency positions whose value fell in the step this thread is
    /// running: one buffer per thread, reused by every step on it.
    static CHANGED: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Per-node program for the compact elimination procedure: its record and
/// disjoint slices of a [`CompactArena`]. Delta-driven — valid under the
/// sparse frontier execution modes.
#[derive(Debug)]
pub struct CompactNode<'a> {
    /// `b`, the last update round, the `N_v` cut and the message width.
    state: &'a mut NodeRecord,
    /// Latest surviving numbers heard from each neighbour (by adjacency
    /// position), initialized to +∞.
    values: &'a mut [f64],
    /// The persistent `Update` ordering (history-encoding neighbour order)
    /// and then its inverse, `values.len()` entries each.
    order_inv: &'a mut [u32],
    /// The threshold set Λ.
    threshold_set: &'a ThresholdSet,
}

impl CompactNode<'_> {
    /// The `Update` ordering.
    fn order(&self) -> &[u32] {
        &self.order_inv[..self.values.len()]
    }

    /// `Update` over the cached neighbour values in the current `order`: the
    /// surviving number rounded down to Λ, and the position in `order` from
    /// which neighbours belong to `N_v`.
    fn recompute(&self, ctx: &NodeContext<'_>) -> (f64, usize) {
        let (raw, include_from) = suffix_scan(
            self.order(),
            &*self.values,
            ctx.neighbor_weights(),
            ctx.self_loop(),
        );
        (self.threshold_set.round_down(raw), include_from)
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
            value: self.state.b,
            bits: self.state.message_bits as usize,
        })
    }

    fn receive(&mut self, ctx: &NodeContext<'_>, inbox: &[Delivery<QuantizedValue>]) -> bool {
        // Merge the received numbers into the per-neighbour value slab,
        // collecting the positions that actually decreased, and re-sort
        // those. Surviving numbers are monotone non-increasing, so an
        // already-known (or stale) value never exceeds the cache.
        let merged = CHANGED.with_borrow_mut(|changed| {
            changed.clear();
            for d in inbox {
                let pos = d.pos as usize;
                let v = d.msg.value;
                if v < self.values[pos] {
                    self.values[pos] = v;
                    changed.push(d.pos);
                }
            }
            let (order, inv) = self.order_inv.split_at_mut(self.values.len());
            UpdateOrder { order, inv }.resort_decreased(self.values, changed);
            !changed.is_empty()
        });
        if !merged && self.state.last_update_round != 0 {
            // Nothing new: `Update` would recompute the identical state.
            return false;
        }
        let (rounded, include_from) = self.recompute(ctx);
        let state = &mut *self.state;
        debug_assert!(
            rounded <= state.b + 1e-9,
            "surviving number increased: {} -> {rounded}",
            state.b
        );
        state.last_update_round = ctx.round() as u32;
        state.cut = include_from as u32;
        let changed = (rounded - state.b).abs() > 1e-12 || state.b.is_infinite();
        state.b = rounded;
        changed
    }
}

/// Checkpoint payload of one node (format v5): the degree, `b`, the round of
/// the last update and the cut `deg − |N_v|`, then each neighbour value and
/// the `Update` order. The degree, round and cut are varints
/// ([`WireWriter::write_varint`]). `b` and each value are one code byte:
/// 0–253 is that integer, 254 is +∞, and 255 is followed by the raw
/// little-endian `f64`, so every value reads back bit for bit. The order is
/// at the narrowest width that holds `deg − 1`: `u8` up to 256 neighbours,
/// `u16` up to 65,536, else `u32`. Under Λ = ℝ with integer weights every
/// value is an integer (`Update` returns a neighbour's value or a sum of
/// incident weights) or +∞. So a node whose degree and last update round
/// are below 128 and whose values are below 254 takes 4 B plus 2 B per arc,
/// where v4 took 20 B plus 12 B; a power-grid value that is not an integer
/// stays raw. The degree leads as
/// a cross-check against the arena the state is restored into. `inv` is
/// derived, not stored: it is the inverse of `order`. The message width and
/// threshold set are rebuilt from the graph.
impl SnapshotState for CompactNode<'_> {
    fn save_state(&self, w: &mut WireWriter) {
        let (deg, s) = (self.values.len(), &*self.state);
        let (last, cut) = (s.last_update_round, s.cut);
        // Most nodes' four head fields take a byte each. One `put` for the
        // four, rather than one per field, took encoding the 500×500 grid's
        // image in memory from about 12 ms to 8 ms (2-vCPU VM).
        match value_code(s.b) {
            Some(b) if deg < 0x80 && last < 0x80 && cut < 0x80 => {
                w.put(&[deg as u8, b, last as u8, cut as u8])
            }
            _ => {
                w.write_varint(deg as u32);
                put_value(w, s.b);
                w.write_varint(last);
                w.write_varint(cut);
            }
        }
        for &x in &*self.values {
            put_value(w, x);
        }
        let order = self.order();
        match order_width(deg) {
            1 => order.iter().for_each(|&p| w.put(&[p as u8])),
            2 => order.iter().for_each(|&p| w.put(&(p as u16).to_le_bytes())),
            _ => w.write_u32s(order),
        }
    }

    fn load_state(&mut self, r: &mut WireReader<'_>) -> Result<(), CheckpointError> {
        let deg = self.values.len();
        let saved_deg = r.read_varint()? as usize;
        if saved_deg != deg {
            return Err(CheckpointError::Mismatch(format!(
                "node degree {saved_deg} in checkpoint, {deg} in this graph"
            )));
        }
        let b = read_value(r)?;
        let last = r.read_varint()?;
        let cut = r.read_varint()?;
        if cut as usize > deg {
            return Err(CheckpointError::Mismatch(format!(
                "N_v cut {cut} is past the node degree {deg}"
            )));
        }
        if last == 0 && cut != 0 {
            return Err(CheckpointError::Mismatch(format!(
                "a node that never updated has every neighbour in N_v, not a cut at {cut}"
            )));
        }
        for x in self.values.iter_mut() {
            *x = read_value(r)?;
        }
        let (order, inv) = self.order_inv.split_at_mut(deg);
        match order_width(deg) {
            1 => {
                for p in order.iter_mut() {
                    *p = u32::from(r.read_u8()?);
                }
            }
            2 => {
                for p in order.iter_mut() {
                    *p = u32::from(r.read_u16()?);
                }
            }
            _ => r.read_u32s_into(order)?,
        }
        // `order` must be a permutation of 0..deg — anything else would make
        // the Update re-sort read out of bounds. Building `inv` as its
        // inverse checks that: an entry out of range or repeated is rejected.
        inv.fill(u32::MAX);
        for (i, &p) in order.iter().enumerate() {
            match inv.get_mut(p as usize) {
                Some(q) if *q == u32::MAX => *q = i as u32,
                _ => {
                    return Err(CheckpointError::Mismatch(
                        "checkpointed update order is not a valid permutation".to_string(),
                    ))
                }
            }
        }
        // Surviving numbers are non-negative (+∞ before the first update), and
        // `order` keeps `values` sorted ascending between rounds. A NaN would
        // panic the `Update` sort and an unsorted order breaks the incremental
        // re-sort, so both are rejected here rather than panicking later.
        let in_domain = |x: f64| x >= 0.0;
        if !in_domain(b) || !self.values.iter().all(|&x| in_domain(x)) {
            return Err(CheckpointError::Mismatch(
                "checkpointed surviving number is NaN or negative".to_string(),
            ));
        }
        let values = &*self.values;
        if !order
            .windows(2)
            .all(|w| values[w[0] as usize] <= values[w[1] as usize])
        {
            return Err(CheckpointError::Mismatch(
                "checkpointed update order does not sort the neighbour values".to_string(),
            ));
        }
        *self.state = NodeRecord {
            b,
            last_update_round: last,
            cut,
            ..*self.state
        };
        Ok(())
    }
}

/// The value code of +∞.
const INFINITY_CODE: u8 = 254;
/// The value code followed by the value's raw little-endian `f64`.
const RAW_CODE: u8 = 255;

/// The one-byte code of a surviving number, if it has one: 0–253 for that
/// integer and [`INFINITY_CODE`] for +∞.
fn value_code(x: f64) -> Option<u8> {
    // Saturating: NaN and anything below 1 give 0, anything above 255 gives
    // 255; the bit comparison keeps only exact small integers, so `-0.0`
    // has no code.
    let small = x as u8;
    if small < INFINITY_CODE && f64::from(small).to_bits() == x.to_bits() {
        Some(small)
    } else if x == f64::INFINITY {
        Some(INFINITY_CODE)
    } else {
        None
    }
}

/// Writes a surviving number as its [`value_code`], or as [`RAW_CODE`]
/// followed by the `f64` itself, so every value, `-0.0` and NaN included,
/// reads back bit for bit.
fn put_value(w: &mut WireWriter, x: f64) {
    match value_code(x) {
        Some(code) => w.put(&[code]),
        None => {
            let mut raw = [RAW_CODE; 9];
            raw[1..].copy_from_slice(&x.to_le_bytes());
            w.put(&raw);
        }
    }
}

/// Reads a value of [`put_value`].
fn read_value(r: &mut WireReader<'_>) -> Result<f64, WireError> {
    Ok(match r.read_u8()? {
        INFINITY_CODE => f64::INFINITY,
        RAW_CODE => r.read_f64()?,
        small => f64::from(small),
    })
}

/// Bytes per `order` entry in a node's payload: the narrowest width that
/// holds the largest position, `deg − 1`.
fn order_width(deg: usize) -> usize {
    if deg <= 1 << 8 {
        1
    } else if deg <= 1 << 16 {
        2
    } else {
        4
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
    pub in_neighbors: InNeighbors,
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
    /// The execution backend. A sharded run needs [`ExecutionMode::Auto`]
    /// (see [`dkc_distsim::NetworkBuilder::shards`]).
    pub mode: ExecutionMode,
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
    /// Λ = ℝ under [`ExecutionMode::Auto`].
    pub fn new(rounds: usize) -> Self {
        RunSpec {
            rounds,
            threshold_set: ThresholdSet::Reals,
            mode: ExecutionMode::Auto,
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
        self.mode = mode;
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
    /// [`RunSpec::shards`] exceeds [`MAX_SHARDS`]: a sharded run keeps one
    /// byte counter per ordered shard pair. Nothing was built.
    Shards(usize),
    /// Writing a checkpoint failed.
    Checkpoint(CheckpointError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Rounds(e) => e.fmt(f),
            RunError::Shards(n) => write!(f, "{n} shards exceeds the maximum of {MAX_SHARDS}"),
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

/// Runs Algorithm 2 on `g` as `spec` says. The run takes `g` as the
/// network's topology: a [`CsrGraph`] moves in as is, and a
/// `&WeightedGraph` is converted first. A round count outside
/// `1..=`[`crate::checkpoint::MAX_ROUNDS`], or more than [`MAX_SHARDS`]
/// shards, is rejected before anything is built; past that, only checkpoint
/// writing can fail, so a run with a legal T and shard count and without
/// [`RunSpec::checkpoint`] always returns `Ok`.
///
/// **Faults.** Dropped messages leave the receiver's cached neighbour value
/// at its previous (higher) level, so the computed surviving numbers can only
/// be **larger** than in a fault-free run — the output therefore remains a
/// valid upper bound on the coreness (Lemma III.2 is unaffected) and only the
/// convergence slows down gracefully; the E10/E13 experiments quantify this.
/// A crash-stopped node freezes at its last computed value (still an upper
/// bound: surviving numbers are monotone non-increasing). In frontier
/// rounds, a sender with dropped copies stays in the frontier and re-sends,
/// while a crashed node leaves the frontier for good — so sparse and dense
/// runs remain result-identical under every fault class.
///
/// **Sharding.** With `shards > 0` each round also charges the
/// `BoundaryDelta` frames its cross-shard copies would travel in between
/// shard hosts to the boundary counters, at their encoded length, without
/// building them. The
/// run itself is the unsharded one: node values, rounds, `node_updates`,
/// `wire_bits` and all fault counters are byte-identical, pinned by
/// `prop_sharded` and the E15 experiment.
///
/// **Checkpoints** are written atomically every `every` rounds (counted in
/// absolute rounds), so a kill mid-write never corrupts the latest one and
/// [`crate::checkpoint::resume_compact_elimination`] can finish the run.
pub fn run_compact_elimination(
    g: impl Into<CsrGraph>,
    spec: &RunSpec,
) -> Result<CompactOutcome, RunError> {
    checked_rounds(spec.rounds)?;
    if spec.shards > MAX_SHARDS {
        return Err(RunError::Shards(spec.shards));
    }
    Ok(execute(g.into(), spec, None)?.0)
}

/// Phase 1 of a pipeline: [`run_compact_elimination`] of an unsharded spec
/// without checkpointing, handing `csr` back with the outcome for the next
/// phase.
///
/// # Panics
///
/// Panics if `spec.rounds` is outside `1..=`[`crate::checkpoint::MAX_ROUNDS`].
pub(crate) fn eliminate(csr: CsrGraph, spec: &RunSpec) -> (CompactOutcome, CsrGraph) {
    checked_rounds(spec.rounds).unwrap_or_else(|e| panic!("{e}"));
    let (outcome, _, csr) = execute(csr, spec, None).unwrap_or_else(|e| panic!("{e}"));
    (outcome, csr)
}

/// Builds the arena and network for `spec` over `csr`, which becomes the
/// network's topology, restores a checkpoint's `(preamble, executor state)`
/// if one is given, and runs on to round `spec.rounds`. Returns the outcome,
/// the round execution started from (0 for a fresh run) and the topology.
/// [`run_compact_elimination`], [`eliminate`] and
/// [`crate::checkpoint::resume_compact_elimination`] all run through here.
pub(crate) fn execute(
    csr: CsrGraph,
    spec: &RunSpec,
    resume: Option<(&[u8], &[u8])>,
) -> Result<(CompactOutcome, usize, CsrGraph), CheckpointError> {
    let mut arena = CompactArena::new(&csr, spec.threshold_set);
    let mut net = NetworkBuilder::new()
        .mode(spec.mode)
        .faults(spec.faults)
        .shards(spec.shards)
        .shard_seed(spec.shard_seed)
        .build_from_parts(csr, arena.programs());
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
    let rounds = spec.rounds - started_from;
    match &spec.checkpoint {
        Some(cfg) => {
            let preamble = resume.map_or_else(
                || RunPreamble::for_run(net.graph(), spec).encode(),
                |(preamble, _)| preamble.to_vec(),
            );
            net.run_with_checkpoints(rounds, cfg.every, &cfg.path, &preamble)?;
        }
        None => net.run(rounds),
    }
    // The programs borrow the arena: drop them, and with them the
    // network's scratch, before reading the results off the arena.
    let (graph, programs, metrics) = net.into_graph_and_parts();
    drop(programs);
    let outcome = CompactOutcome {
        surviving: arena.surviving(),
        in_neighbors: arena.in_neighbors(&graph),
        rounds: spec.rounds,
        metrics,
    };
    Ok((outcome, started_from, graph))
}

/// Every executed `Update` runs in a round the image has completed, and
/// leaves `b` and the `N_v` cut equal to what it computes from the node's
/// values, order and edge weights; no later round changes one without the
/// other. A restored node that breaks this was not written by a run:
/// resuming it would let a surviving number increase or hand out a wrong
/// orientation, so it is rejected here.
fn check_restored_surviving(net: &Network<CompactNode<'_>>) -> Result<(), CheckpointError> {
    let round = net.round();
    for v in net.graph().nodes() {
        let node = net.program(v);
        let last = node.state.last_update_round;
        if last as usize > round {
            return Err(CheckpointError::Mismatch(format!(
                "node {v} last updated in round {last}, past the checkpoint's round {round}"
            )));
        }
        if last == 0 {
            continue;
        }
        let (b, include_from) = node.recompute(&NodeContext::new(net.graph(), v, round));
        if b != node.state.b {
            return Err(CheckpointError::Mismatch(format!(
                "checkpointed surviving number of node {v} disagrees with its neighbour values"
            )));
        }
        if include_from != node.state.cut as usize {
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
        barabasi_albert, complete_graph, erdos_renyi, path_graph, star_graph,
        with_random_integer_weights,
    };
    use dkc_graph::WeightedGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The checkpoint payload of one node.
    fn snapshot(node: &CompactNode<'_>) -> Vec<u8> {
        let mut w = WireWriter::new();
        node.save_state(&mut w);
        w.into_bytes()
    }

    /// Takes the payload of the node with record `state`, `values` and
    /// `order`, checks it is `expected`, restores it into the hub of a star
    /// of the same degree and checks the hub takes the same state and
    /// writes the same bytes.
    fn pin_payload(mut state: NodeRecord, mut values: Vec<f64>, order: &[u32], expected: &[u8]) {
        let deg = values.len();
        let mut inv = vec![0u32; deg];
        for (i, &p) in order.iter().enumerate() {
            inv[p as usize] = i as u32;
        }
        let mut order_inv = [order, &inv].concat();
        let node = CompactNode {
            state: &mut state,
            values: &mut values,
            order_inv: &mut order_inv,
            threshold_set: &ThresholdSet::Reals,
        };
        let bytes = snapshot(&node);
        assert!(bytes == expected, "degree {deg}: payload differs");

        let star = CsrGraph::from(&star_graph(deg + 1));
        let mut arena = CompactArena::new(&star, ThresholdSet::Reals);
        let mut programs = arena.programs();
        let mut r = WireReader::new(&bytes);
        programs[0].load_state(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        let back = &programs[0];
        let s = &*back.state;
        assert_eq!(
            (s.b.to_bits(), s.last_update_round, s.cut),
            (state.b.to_bits(), state.last_update_round, state.cut)
        );
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(back.values), bits(&values));
        assert!(*back.order_inv == order_inv[..], "degree {deg}: order");
        assert!(
            snapshot(back) == expected,
            "degree {deg}: payload after restore"
        );
    }

    fn record(b: f64, last_update_round: u32, cut: u32, deg: usize) -> NodeRecord {
        NodeRecord {
            b,
            last_update_round,
            cut,
            message_bits: 64,
            deg: deg as u32,
        }
    }

    /// A node's checkpoint payload (format v5) is the varint degree, the
    /// `b` code, the varint last update round and cut, one code per
    /// neighbour value and the order at the degree's width, and it
    /// restores the node it was taken from.
    #[test]
    fn snapshot_layout_is_pinned() {
        let raw = |x: f64| [&[255u8][..], &x.to_le_bytes()].concat();

        // Three neighbours: position 1 left `N_v` at the last update
        // (round 4), so the cut is 1; 2.5 is no integer and stays raw.
        let expected = [&[3u8][..], &raw(2.5), &[4, 1, 3, 1], &raw(2.5), &[1, 2, 0]].concat();
        pin_payload(
            record(2.5, 4, 1, 3),
            vec![3.0, 1.0, 2.5],
            &[1, 2, 0],
            &expected,
        );
        // Round 127 is the last whose varint is one byte.
        for (last, varint) in [(127, &[127][..]), (128, &[0x80, 0x01])] {
            let expected = [&[3, 2][..], varint, &[1, 3, 1, 2, 1, 2, 0]].concat();
            pin_payload(
                record(2.0, last, 1, 3),
                vec![3.0, 1.0, 2.0],
                &[1, 2, 0],
                &expected,
            );
        }

        // 300 neighbours: two-byte varints and a `u16` order. 253 is the
        // largest integer code, 254.0 and -0.0 are raw, +∞ is code 254.
        let mut values: Vec<f64> = (0..296).map(|p| (p / 2) as f64).collect();
        values.splice(0..0, [-0.0]);
        values.extend([254.0, 1e9, f64::INFINITY]);
        let order: Vec<u32> = (0..300).collect();
        let mut expected = vec![0xAC, 0x02, 253, 0xAC, 0x02, 0xAB, 0x02];
        expected.extend(raw(-0.0));
        expected.extend((0..296).map(|p| (p / 2) as u8));
        expected.extend([raw(254.0), raw(1e9), vec![254]].concat());
        expected.extend(order.iter().flat_map(|&p| (p as u16).to_le_bytes()));
        pin_payload(record(253.0, 300, 299, 300), values, &order, &expected);

        // Never-updated nodes, every value +∞, on each side of the two
        // order widths: 256 neighbours take a `u8` order, 257 to 65,536 a
        // `u16` one, and more a `u32` one.
        let widths: [(usize, &[u8], usize); 4] = [
            (1 << 8, &[0x80, 0x02], 1),
            ((1 << 8) + 1, &[0x81, 0x02], 2),
            (1 << 16, &[0x80, 0x80, 0x04], 2),
            ((1 << 16) + 1, &[0x81, 0x80, 0x04], 4),
        ];
        for (deg, varint, width) in widths {
            let order: Vec<u32> = (0..deg as u32).rev().collect();
            let mut expected = [varint, &[254, 0, 0]].concat();
            expected.extend(vec![254; deg]);
            expected.extend(
                order
                    .iter()
                    .flat_map(|&p| p.to_le_bytes()[..width].to_vec()),
            );
            pin_payload(
                record(f64::INFINITY, 0, 0, deg),
                vec![f64::INFINITY; deg],
                &order,
                &expected,
            );
        }
    }

    /// A program is four references into the arena: its record, its two
    /// arc slices and the threshold set.
    #[test]
    fn a_program_handle_is_48_bytes() {
        assert!(std::mem::size_of::<CompactNode<'_>>() <= 48);
        assert!(std::mem::size_of::<NodeRecord>() <= 24);
    }

    /// `N_v` comes out in adjacency order, one flat list for every node,
    /// and matches the cut each node's last update left.
    #[test]
    fn in_neighbors_follow_each_cut_in_adjacency_order() {
        let mut rng = StdRng::seed_from_u64(28);
        let g = with_random_integer_weights(&barabasi_albert(60, 3, &mut rng), 5, &mut rng);
        let csr = CsrGraph::from(&g);
        let mut arena = CompactArena::new(&csr, ThresholdSet::Reals);
        let mut net = NetworkBuilder::new().build_from_parts(csr.clone(), arena.programs());
        net.run(3);
        drop(net);
        let sets = arena.in_neighbors(&csr);
        for (v, s) in csr.nodes().zip(&arena.nodes) {
            let lo = 2 * csr.arc_offset(v);
            let order = &arena.order_inv[lo..lo + s.deg as usize];
            let mut positions: Vec<usize> = order[s.cut as usize..]
                .iter()
                .map(|&p| p as usize)
                .collect();
            positions.sort_unstable();
            let neighbors = csr.neighbors(v);
            let expected: Vec<NodeId> = positions.iter().map(|&p| neighbors[p]).collect();
            assert_eq!(&sets[v.index()], &expected[..], "node {v}");
        }
    }

    /// Runs `spec`, which writes no checkpoint and so cannot fail.
    fn run(g: &WeightedGraph, spec: RunSpec) -> CompactOutcome {
        run_compact_elimination(g, &spec).unwrap()
    }

    /// Runs `spec` under `mode` in a rayon pool of `threads` threads.
    fn run_on(
        g: &WeightedGraph,
        spec: RunSpec,
        mode: ExecutionMode,
        threads: usize,
    ) -> CompactOutcome {
        crate::test_legs::on_threads(threads, || run(g, spec.mode(mode)))
    }

    #[test]
    fn distributed_matches_centralized_reference() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..3 {
            let g = erdos_renyi(50, 0.1, &mut rng);
            for rounds in [1usize, 2, 4, 7] {
                let outcome = run(&g, RunSpec::new(rounds).mode(ExecutionMode::Dense));
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
        let seq = run(&g, RunSpec::new(5).mode(ExecutionMode::Dense));
        for (mode, threads) in crate::test_legs::LEGS {
            let other = run_on(&g, RunSpec::new(5), mode, threads);
            assert_eq!(seq.surviving, other.surviving, "{mode:?} on {threads}");
            assert_eq!(
                seq.in_neighbors, other.in_neighbors,
                "{mode:?} on {threads}"
            );
        }
    }

    #[test]
    fn sparse_execution_prunes_node_updates() {
        // A path has a long convergence tail with a narrow frontier.
        let g = path_graph(120);
        let rounds = 120;
        let dense = run(&g, RunSpec::new(rounds).mode(ExecutionMode::Dense));
        let sparse = run(&g, RunSpec::new(rounds));
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
            let outcome = run(&g, RunSpec::new(rounds).mode(ExecutionMode::Dense));
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
                ExecutionMode::Dense
            } else {
                ExecutionMode::Auto
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
        let outcome = run(&g, RunSpec::new(5).mode(ExecutionMode::Dense));
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
        let exact = run(&g, RunSpec::new(rounds).mode(ExecutionMode::Dense));
        for &lambda in &[0.01, 0.1, 0.5] {
            let quantized = run(
                &g,
                RunSpec::new(rounds)
                    .threshold_set(ThresholdSet::power_grid(lambda))
                    .mode(ExecutionMode::Dense),
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
        let outcome = run(&g, RunSpec::new(3).mode(ExecutionMode::Dense));
        // K_8: coreness = density-ish = 7; β stays at 7 from round 1 on.
        for v in 0..8 {
            assert_eq!(outcome.surviving[v], 7.0);
        }
    }

    #[test]
    fn path_converges_to_coreness_one() {
        let g = path_graph(10);
        // After enough rounds, β = coreness = 1 everywhere.
        let outcome = run(&g, RunSpec::new(20).mode(ExecutionMode::Dense));
        for v in 0..10 {
            assert_eq!(outcome.surviving[v], 1.0);
        }
        // After a single round, β = degree.
        let one = run(&g, RunSpec::new(1).mode(ExecutionMode::Dense));
        assert_eq!(one.surviving[0], 1.0);
        assert_eq!(one.surviving[5], 2.0);
    }

    #[test]
    fn empty_graph_and_isolated_nodes() {
        let g = WeightedGraph::new(3);
        for mode in [ExecutionMode::Dense, ExecutionMode::Auto] {
            let outcome = run(&g, RunSpec::new(2).mode(mode));
            assert_eq!(outcome.surviving, vec![0.0; 3], "{mode:?}");
            assert!((0..3).all(|v| outcome.in_neighbors[v].is_empty()));
        }
    }

    #[test]
    fn message_loss_degrades_gracefully() {
        use dkc_distsim::LossModel;
        let mut rng = StdRng::seed_from_u64(27);
        let g = barabasi_albert(100, 3, &mut rng);
        let rounds = 8;
        let clean = run(&g, RunSpec::new(rounds).mode(ExecutionMode::Dense));
        let core = weighted_coreness(&g);

        // Zero loss is exactly the clean run.
        let zero = run(
            &g,
            RunSpec::new(rounds)
                .mode(ExecutionMode::Dense)
                .faults(FaultPlan::from_loss(LossModel::new(0.0, 1))),
        );
        assert_eq!(zero.surviving, clean.surviving);

        for &p in &[0.1, 0.3, 0.8] {
            let lossy = run(
                &g,
                RunSpec::new(rounds)
                    .mode(ExecutionMode::Dense)
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
            for (mode, threads) in crate::test_legs::LEGS {
                let spec = RunSpec::new(rounds).faults(FaultPlan::from_loss(LossModel::new(p, 99)));
                let other = run_on(&g, spec, mode, threads);
                assert_eq!(
                    lossy.surviving, other.surviving,
                    "p={p}, {mode:?} on {threads}"
                );
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
        let clean = run(&g, RunSpec::new(rounds).mode(ExecutionMode::Dense));
        let crashed = run(
            &g,
            RunSpec::new(rounds).mode(ExecutionMode::Dense).faults(plan),
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
        for (mode, threads) in crate::test_legs::LEGS {
            let other = run_on(&g, RunSpec::new(rounds).faults(plan), mode, threads);
            assert_eq!(crashed.surviving, other.surviving, "{mode:?} on {threads}");
            assert_eq!(
                crashed.in_neighbors, other.in_neighbors,
                "{mode:?} on {threads}"
            );
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
            let reference = run(&g, RunSpec::new(rounds).faults(plan));
            for shards in [1usize, 2, 3, 8] {
                let spec = RunSpec::new(rounds).faults(plan).sharded(shards, 7);
                let [sharded, four] = [1, 4]
                    .map(|threads| crate::test_legs::on_threads(threads, || run(&g, spec.clone())));
                // The boundary counters too agree at any thread count.
                assert_eq!(
                    sharded.metrics.first_divergence(&four.metrics),
                    None,
                    "shards={shards}"
                );
                assert_eq!(sharded.surviving, four.surviving, "shards={shards}");
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

    /// A library caller's shard count is bounded like the CLI's and a
    /// checkpoint's: one past `MAX_SHARDS` is a typed error before anything
    /// is built (instead of N² pair counters), and `MAX_SHARDS` itself runs.
    #[test]
    fn shard_count_is_capped_at_max_shards() {
        let g = path_graph(8);
        let spec = |shards| RunSpec::new(2).sharded(shards, 1);
        assert_eq!(
            run_compact_elimination(&g, &spec(MAX_SHARDS + 1)).unwrap_err(),
            RunError::Shards(MAX_SHARDS + 1)
        );
        let outcome = run(&g, spec(MAX_SHARDS));
        assert_eq!(outcome.surviving, run(&g, RunSpec::new(2)).surviving);
    }

    #[test]
    fn round_metrics_are_recorded() {
        let g = complete_graph(5);
        let outcome = run(&g, RunSpec::new(4).mode(ExecutionMode::Dense));
        assert_eq!(outcome.metrics.num_rounds(), 4);
        assert_eq!(outcome.rounds, 4);
        // Every node broadcasts a number to 4 neighbours in every round.
        assert_eq!(outcome.metrics.rounds()[0].messages, 20);
        assert_eq!(outcome.metrics.rounds()[0].node_updates, 5);
    }
}
