//! The synchronous round executor.
//!
//! ## Hot-path design
//!
//! `run_round` is the inner loop of every experiment. The network keeps the
//! programs it was built from in one `Vec<P>` and holds no inbox per node:
//! a node only ever needs one round's copies, so each round hands them over
//! from shared, reused buffers.
//!
//! * The outbox array holds one `Outgoing` per node and is refilled in
//!   place. A dense round collects every sender's accounting row into a
//!   second array next to it (`unzip_into_vecs`); a sparse round folds each
//!   frontier sender's row into the round's totals as it produces it.
//! * A dense round, and a sparse pull round, gathers each node's copies into
//!   a scratch inbox and steps the node at once. The inbox belongs to a
//!   worker (`map_init`), so each round allocates one per worker, grown to
//!   the largest inbox that worker gathers.
//! * A sparse push round stages the frontier's copies in scatter order in
//!   one flat buffer. A counting sort over the ascending touch list then
//!   buckets them by receiver (stable, so each receiver keeps scatter
//!   order), and every touched node steps on its own slice. The staging
//!   buffers are reserved in round 1 for the `num_arcs / `[`PULL_DIVISOR`]
//!   copies a push round puts on the wire.
//! * Multicast delivery is resolved through a stamp array indexed by CSR arc
//!   position (scattered once per round by the senders), replacing the
//!   per-receiver `targets.contains(&v)` scan.
//!
//! [`Network::buffer_stats`] reports every persistent scratch buffer: O(n)
//! entries plus the push staging and, for multicasts, the arc stamps (and
//! under the mailbox backend its inboxes and per-shard stamps). After a
//! warm-up round none of them grows (see the `buffer_reuse` tests).
//!
//! ## Dense vs frontier rounds
//!
//! The paper's elimination procedures converge monotonically: after a few
//! rounds most nodes' state stops changing, yet a dense round still runs
//! every node. Under [`ExecutionMode::Auto`] a program that opts into the
//! delta-driven contract ([`NodeProgram::DELTA_DRIVEN`]) runs **frontier
//! rounds** instead, over a persistent active frontier:
//!
//! * only nodes whose last step reported a change (plus senders whose copies
//!   were dropped by the fault plan — crashed receivers excepted, see
//!   [`crate::faults`]) run `broadcast`; crashed nodes leave the frontier,
//! * only nodes that actually received something run `receive`,
//! * quiescence detection falls out for free: an empty frontier makes the
//!   round O(1).
//!
//! Each frontier round delivers in one of two directions (the push/pull
//! round of Beamer, Asanović and Patterson, "Direction-Optimizing
//! Breadth-First Search", SC 2012), chosen from the copies its frontier put
//! on the wire:
//!
//! * a **push round** (at most `num_arcs / `[`PULL_DIVISOR`] copies) stages
//!   every frontier sender's copies for their receivers, translating arc
//!   positions through [`CsrGraph::reverse_arc`], and steps the touched
//!   nodes in ascending order — cost proportional to the frontier's arcs;
//! * a **pull round** (more copies than that) runs the dense gather: every
//!   live node collects from the neighbours whose outbox is non-silent this
//!   round — cost proportional to all arcs, but a sequential read per
//!   receiver instead of a random write per copy, and data-parallel.
//!
//! Both directions deliver exactly the same copies, so the choice never
//! shows in a counter, a node's state, or a checkpoint. A sharded network
//! ([`NetworkBuilder::shards`]) delivers the same way; before delivering, it
//! charges the copies that cross a shard cut as boundary frames.
//!
//! Frontier rounds are result-identical to dense rounds for programs that
//! satisfy the delta-driven contract, and every other program runs dense
//! rounds under `Auto`, so no mode can run a program outside its contract.
//! The per-round work executed is reported as [`RoundStats::node_updates`],
//! a deterministic counter suitable for CI gating.
//!
//! ## Threads
//!
//! The thread count is not a mode: dense rounds and pull rounds run through
//! the rayon pipeline, and a mailbox round splits the nodes into
//! [`rayon::current_num_threads`] shards for that round, shard 0 on the
//! calling thread. Run a network inside
//! `rayon::ThreadPoolBuilder::new().num_threads(n).build()?.install(..)` to
//! pin the count; one thread runs every round inline on the caller. The
//! deterministic counters never depend on it.
//!
//! ## One round loop
//!
//! Every mode's round passes through `Network::step_round`, which alone
//! advances the round counter, closes the round's schedule counters, records
//! its [`RoundStats`] and reads the clock. A dense, frontier or mailbox round
//! only delivers and steps, and hands back its share of the statistics.

use crate::checkpoint::{self, CheckpointError, SnapshotState, StateWriter};
use crate::faults::{Behavior, ByzantineModel, DropCause, FaultPlan};
use crate::mailbox::MailboxScratch;
use crate::message::{MessageSize, Tamper};
use crate::metrics::{RoundStats, RunMetrics};
use crate::program::{Delivery, NodeContext, NodeProgram, Outgoing};
use crate::shard::{BoundaryDelta, BoundaryRecord};
use crate::wire::{WireCodec, WireReader};
use dkc_graph::{CsrGraph, NodeId, Partitioner, WeightedGraph};
use rayon::prelude::*;
use serde::ser::Serialize;
use std::path::Path;
use std::time::{Duration, Instant};

/// How a round is scheduled. Rounds are barriers, and within a round nodes
/// interact only through the immutable outbox snapshot, so every mode
/// produces **identical** protocol results at any thread count (see the
/// module docs); the modes differ in the work a round does and in how its
/// messages travel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Frontier rounds (push or pull, see the module docs) for a
    /// [`NodeProgram::DELTA_DRIVEN`] program, dense rounds for any other.
    #[default]
    Auto,
    /// Dense rounds: every non-halted node broadcasts and steps every round
    /// (for A/B measurements against `Auto`).
    Dense,
    /// Dense semantics over a message-passing runtime: node shards run on
    /// scoped threads and exchange **wire-encoded byte frames** through
    /// bounded mailbox channels instead of reading a shared outbox snapshot
    /// (see [`crate::wire`]). Deterministic counters (including
    /// `wire_bits`) are byte-identical to [`ExecutionMode::Dense`] for any
    /// program and fault plan, at any thread count. Configure via
    /// [`NetworkBuilder::mailbox_capacity`] /
    /// [`NetworkBuilder::max_frame_bytes`].
    Mailbox,
}

/// The largest shard count a network may be built with
/// ([`NetworkBuilder::shards`]). Sharded execution allocates one boundary
/// record buffer per ordered shard pair, N² in all.
pub const MAX_SHARDS: usize = 1024;

/// A frontier round pulls when its frontier puts more than
/// `num_arcs / PULL_DIVISOR` copies on the wire (delivered plus dropped),
/// and pushes otherwise (see the module docs). A push costs a random write
/// per copy, a pull a sequential scan of every arc, so the break-even
/// frontier covers a fixed fraction of the arcs. Timing each round of three
/// inputs both ways (a 100k-node BA graph with attach 4; a 500×500 grid with
/// 2% loss and crashes; a weighted BA graph at ε = 2; 2-vCPU VM), choosing
/// pull above `num_arcs/4` to `num_arcs/8` came within 2% of the per-round
/// best, while `num_arcs/16` lost 10% on BA.
pub const PULL_DIVISOR: usize = 8;

/// Per-sender accounting row produced by the broadcast phase (post-fault:
/// only delivered copies are counted in the message/bit totals; dropped
/// copies are tallied per fault component).
#[derive(Clone, Copy, Default)]
pub(crate) struct SendAccount {
    pub(crate) messages: usize,
    pub(crate) payload_bits: usize,
    /// Measured wire bits (length-prefixed encoded frames) of the delivered
    /// copies.
    pub(crate) wire_bits: usize,
    pub(crate) max_message_bits: usize,
    /// Copies of this round's send dropped by the i.i.d. loss component.
    pub(crate) dropped_loss: usize,
    /// Copies dropped inside a burst-outage window.
    pub(crate) dropped_burst: usize,
    /// Copies dropped by the active partition cut.
    pub(crate) dropped_partition: usize,
    /// Copies dropped by the byzantine sender selectively muting.
    pub(crate) dropped_byzantine: usize,
}

impl SendAccount {
    /// Records `k` dropped copies at once (a spamming sender's duplicated
    /// frames share one drop decision, so the whole burst drops together).
    #[inline]
    pub(crate) fn record_drops(&mut self, cause: DropCause, k: usize) {
        match cause {
            DropCause::Loss => self.dropped_loss += k,
            DropCause::Burst => self.dropped_burst += k,
            DropCause::Partition => self.dropped_partition += k,
            DropCause::ByzantineMute => self.dropped_byzantine += k,
        }
    }

    /// Whether any copy of this round's send was dropped. The sparse executor
    /// keeps such senders in the frontier so they re-send next round,
    /// reproducing exactly the delivery rounds of a dense run (which
    /// re-broadcasts every round anyway). Dense execution ignores this.
    /// Copies addressed to crashed nodes are *not* drops: a crash is
    /// permanent, so re-sending to the dead receiver would pin its
    /// neighbours in the frontier forever for no observable effect.
    #[inline]
    pub(crate) fn any_dropped(&self) -> bool {
        self.dropped_loss + self.dropped_burst + self.dropped_partition + self.dropped_byzantine > 0
    }

    /// This sender's share of its round's statistics, for
    /// [`RoundStats::merge`].
    #[inline]
    pub(crate) fn row(&self) -> RoundStats {
        RoundStats {
            messages: self.messages,
            payload_bits: self.payload_bits,
            wire_bits: self.wire_bits,
            max_message_bits: self.max_message_bits,
            sending_nodes: usize::from(self.messages > 0),
            dropped_loss: self.dropped_loss,
            dropped_burst: self.dropped_burst,
            dropped_partition: self.dropped_partition,
            dropped_byzantine: self.dropped_byzantine,
            ..RoundStats::default()
        }
    }
}

/// The sorted rounds of every schedule-driven event under the installed
/// fault plan: crashes ([`FaultPlan::crash_schedule`]), byzantine accusations
/// ([`FaultPlan::byz_accusation_schedule`]) and quarantine entries
/// ([`FaultPlan::quarantine_schedule`]). All empty without a plan, and
/// identical in every mode.
#[derive(Default)]
struct Schedules {
    crash: Vec<u32>,
    accusations: Vec<u32>,
    quarantine: Vec<u32>,
}

impl Schedules {
    fn for_plan(plan: &FaultPlan, n: usize) -> Self {
        Schedules {
            crash: plan.crash_schedule(n),
            accusations: plan.byz_accusation_schedule(n),
            quarantine: plan.quarantine_schedule(n),
        }
    }

    /// Completes a round's statistics: its number and the cumulative
    /// schedule-driven counters as of that round.
    fn close(&self, mut stats: RoundStats, round: usize) -> RoundStats {
        let through = |schedule: &[u32]| schedule.partition_point(|&r| (r as usize) <= round);
        stats.round = round;
        stats.crashed_nodes = through(&self.crash);
        stats.byzantine_accusations = through(&self.accusations);
        stats.quarantined_nodes = through(&self.quarantine);
        stats
    }
}

/// Outcome of one node's receive phase.
#[derive(Clone, Copy, Default)]
struct StepResult {
    /// Whether the node executed its step (false for halted/untouched nodes).
    ran: bool,
    /// Whether the node reported a state change.
    changed: bool,
}

/// Capacities of the executor's persistent scratch buffers, in entries. Two
/// snapshots taken after warm-up must be equal if the hot path is
/// allocation-free; the buffer-reuse tests pin exactly that.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecutorBufferStats {
    /// Capacity of the outbox array (one `Outgoing` per node).
    pub outbox_capacity: usize,
    /// Capacity of the dense rounds' per-sender accounting array (0 under
    /// frontier rounds, which fold each row into the round's totals).
    pub account_capacity: usize,
    /// Capacity of the step-result array.
    pub changed_capacity: usize,
    /// Summed length of the arc-indexed multicast stamp arrays: the
    /// network's, and each mailbox shard's (0 until the first multicast
    /// round).
    pub multicast_stamp_slots: usize,
    /// Summed capacity of the frontier rounds' frontier / touch / resend
    /// worklists (0 under dense rounds).
    pub frontier_capacity_total: usize,
    /// Length of the frontier rounds' per-node push-bucket array (0 under
    /// dense rounds).
    pub bucket_slots: usize,
    /// Summed capacity of the push rounds' staging buffers: the copies and
    /// their receivers (0 under dense rounds).
    pub staged_capacity_total: usize,
    /// Summed capacity of a sharded network's owner table, per-pair record
    /// buffers and sender scratch (0 unsharded). The record buffers hold
    /// one round's cross-shard copies.
    pub boundary_capacity_total: usize,
    /// Summed capacity of the mailbox backend's per-node inboxes and its
    /// shards' pending-frame buffers (0 under the other modes).
    pub mailbox_capacity_total: usize,
}

impl ExecutorBufferStats {
    /// Every buffer's entries, summed.
    pub fn total(&self) -> usize {
        self.outbox_capacity
            + self.account_capacity
            + self.changed_capacity
            + self.multicast_stamp_slots
            + self.frontier_capacity_total
            + self.bucket_slots
            + self.staged_capacity_total
            + self.boundary_capacity_total
            + self.mailbox_capacity_total
    }
}

/// State of a sharded network ([`NetworkBuilder::shards`]): the
/// deterministic node → shard assignment plus the per-pair record buffers
/// that [`Network::account_boundary`] fills and drains within a round, so
/// they are empty at round boundaries and never appear in checkpoints.
struct ShardState<M> {
    /// Number of shards (≥ 1; a single shard has no cut and charges nothing).
    num_shards: usize,
    /// The `Partitioner` hash seed the owner table was derived from.
    seed: u64,
    /// `owner[v]` is the shard owning node `v` (the `Partitioner::shard_of`
    /// table materialized once at install time).
    owner: Vec<u32>,
    /// Per ordered shard pair `(src, dst)` (indexed `src * num_shards + dst`)
    /// the round's cross-shard records, encoded as one frame per pair.
    pair_bufs: Vec<Vec<BoundaryRecord<M>>>,
    /// Scratch for counting the round's distinct cross-shard senders.
    senders_scratch: Vec<u32>,
}

/// A simulated synchronous network: a topology plus one [`NodeProgram`] per
/// node.
pub struct Network<P: NodeProgram> {
    pub(crate) graph: CsrGraph,
    /// One program per node, in node order: the vector the network was
    /// built from.
    pub(crate) programs: Vec<P>,
    pub(crate) round: usize,
    metrics: RunMetrics,
    mode: ExecutionMode,
    /// The installed fault plan; `None` ⇔ the plan is trivial, so the
    /// fault-free hot path runs with zero fault bookkeeping.
    pub(crate) faults: Option<FaultPlan>,
    /// The plan's crash, accusation and quarantine rounds.
    schedules: Schedules,
    /// Bounded per-shard mailbox capacity (frames) for the mailbox backend.
    pub(crate) mailbox_capacity: usize,
    /// Maximum accepted frame payload, in bytes; longer frames are rejected
    /// on decode and attributed to the sender (tofn-style).
    pub(crate) max_frame_bytes: usize,
    /// Per-sender counts of frames rejected by the wire decoder under the
    /// mailbox backend (truncated/oversized/garbage); empty until a decode
    /// failure happens. Indexed by node.
    pub(crate) decode_faults: Vec<u32>,
    /// The mailbox backend's inboxes and shard scratch (unused under the
    /// other modes).
    pub(crate) mailbox: MailboxScratch<P::Message>,
    // Persistent per-round scratch (see module docs).
    outboxes: Vec<Outgoing<P::Message>>,
    /// A dense round's per-sender accounting rows, aligned with `outboxes`.
    accounts: Vec<SendAccount>,
    step_results: Vec<StepResult>,
    /// `multicast_stamps[arc] == round` ⇔ the arc's **source** node listed the
    /// arc's destination as a multicast target this round. Senders stamp their
    /// own (cache-resident) arc range; receivers translate through
    /// [`CsrGraph::reverse_arc`]. Stamping avoids an O(arcs) clear per round;
    /// round numbers start at 1 so the zero-initialized array never
    /// false-positives. (The sparse copy walk, [`RoundCopies::for_each`], reuses the
    /// same array to deduplicate repeated multicast target entries.)
    multicast_stamps: Vec<u64>,
    // Frontier-round state (unused under dense rounds).
    /// Nodes that broadcast this round, ascending.
    frontier: Vec<u32>,
    /// Next round's frontier, built during the receive phase.
    next_frontier: Vec<u32>,
    /// The live nodes a push round delivers to (all of them in round 1):
    /// the nodes that step. Ascending once the scatter is done.
    touch_list: Vec<u32>,
    /// Per node: [`UNTOUCHED`] outside a push round. Within one, a touched
    /// node's count of staged copies, then the end of its slice of `staged`.
    bucket: Vec<u32>,
    /// A push round's copies: in scatter order, then bucketed by receiver.
    staged: Vec<Delivery<P::Message>>,
    /// The receiver of each staged copy, then its index in bucketed order.
    staged_to: Vec<u32>,
    /// Frontier senders with loss-dropped copies (they re-send next round).
    resend: Vec<u32>,
    /// Shard partition + boundary-frame buffers; `Some` ⇔ the network
    /// was built with [`NetworkBuilder::shards`] > 0.
    shard: Option<ShardState<P::Message>>,
    /// Overrides the push/pull choice of every sparse round: `Some(true)`
    /// pulls, `Some(false)` pushes.
    #[cfg(test)]
    force_pull: Option<bool>,
}

/// [`Network::bucket`] of a node that no push copy has reached this round.
const UNTOUCHED: u32 = u32::MAX;

/// Measures one message's on-the-wire frame size in bits, flagging (in debug
/// builds) any message whose `MessageSize` estimate undercounts its encoding.
#[inline]
fn measured_frame_bits<M: MessageSize + crate::wire::WireCodec>(m: &M) -> usize {
    crate::wire::debug_assert_estimate_covers(m);
    crate::wire::frame_bits(crate::wire::payload_len(m))
}

/// Runs one node's broadcast phase and computes its post-fault accounting row
/// (shared by the dense map, the sparse frontier loop, and the mailbox
/// shards). A crashed sender is treated exactly like a program-halted one:
/// it produces nothing; a quarantined byzantine sender likewise sends
/// nothing, but (unlike a crash) still receives and steps.
pub(crate) fn produce_outgoing<P: NodeProgram>(
    graph: &CsrGraph,
    faults: Option<FaultPlan>,
    round: usize,
    i: usize,
    program: &mut P,
) -> (Outgoing<P::Message>, SendAccount) {
    let sender = NodeId::new(i);
    if program.halted()
        || faults.is_some_and(|f| f.crashed(round, sender) || f.quarantined(round, sender))
    {
        return (Outgoing::Silent, SendAccount::default());
    }
    let ctx = NodeContext::new(graph, sender, round);
    let out = program.broadcast(&ctx);
    let mut acct = SendAccount::default();
    // An active byzantine spammer transmits every outgoing frame `spam` times;
    // the duplicates share the original's drop decision, so both the
    // delivered-copy totals and the drop counters scale by the factor
    // (invariant: messages + drops == wire copies × factor).
    let spam = faults.map_or(1, |f| f.spam_factor(round, sender));
    // Post-fault accounting evaluates the drop decision here and the delivery
    // phase evaluates it again per arc — a deliberate trade-off: the hash is a
    // handful of integer ops, and sharing it would need another arc-indexed
    // scratch array written under the parallel map. Fault-free runs and
    // crash-only plans (`link_faults == None`) skip both.
    let link_faults = faults.filter(FaultPlan::affects_links);
    match &out {
        Outgoing::Silent => {}
        Outgoing::Broadcast(m) => {
            let degree = graph.unweighted_degree(sender);
            let copies = match link_faults {
                None => degree * spam,
                Some(f) => {
                    let mut delivered = 0usize;
                    for &t in graph.neighbors(sender) {
                        match f.drop_cause(round, sender, t, 0) {
                            None => delivered += spam,
                            Some(cause) => acct.record_drops(cause, spam),
                        }
                    }
                    delivered
                }
            };
            if copies > 0 {
                let bits = m.size_bits();
                acct.messages = copies;
                acct.payload_bits = bits * copies;
                acct.wire_bits = measured_frame_bits(m) * copies;
                acct.max_message_bits = bits;
            }
        }
        Outgoing::Multicast(m, targets) => {
            debug_assert!(
                targets.iter().all(|&t| graph.has_neighbor(sender, t)),
                "multicast target is not a neighbour of {sender}"
            );
            let copies = match link_faults {
                None => targets.len() * spam,
                Some(f) => {
                    let mut delivered = 0usize;
                    for &t in targets {
                        match f.drop_cause(round, sender, t, 0) {
                            None => delivered += spam,
                            Some(cause) => acct.record_drops(cause, spam),
                        }
                    }
                    delivered
                }
            };
            if copies > 0 {
                let bits = m.size_bits();
                acct.messages = copies;
                acct.payload_bits = bits * copies;
                acct.wire_bits = measured_frame_bits(m) * copies;
                acct.max_message_bits = bits;
            }
        }
        Outgoing::Unicast(msgs) => {
            // The batch position is the per-message fault index: two distinct
            // messages to the same target in one round get independent drop
            // decisions (see `LossModel::drops`).
            for (idx, (target, m)) in msgs.iter().enumerate() {
                debug_assert!(
                    graph.has_neighbor(sender, *target),
                    "unicast target {target} is not a neighbour of {sender}"
                );
                match link_faults.and_then(|f| f.drop_cause(round, sender, *target, idx)) {
                    None => {
                        let bits = m.size_bits();
                        acct.messages += spam;
                        acct.payload_bits += bits * spam;
                        acct.wire_bits += measured_frame_bits(m) * spam;
                        acct.max_message_bits = acct.max_message_bits.max(bits);
                    }
                    Some(cause) => acct.record_drops(cause, spam),
                }
            }
        }
    }
    (out, acct)
}

/// Stamps the sender-side arcs of every multicast target of `senders` with
/// `round`, so a gathering receiver resolves membership with one O(1) stamp
/// load per arc (each sender stamps its own cache-resident arc range, found
/// through its neighbour-rank map) instead of scanning the target list. The
/// stamp array is allocated on the first non-empty multicast.
fn stamp_multicasts<M>(
    graph: &CsrGraph,
    outboxes: &[Outgoing<M>],
    stamps: &mut Vec<u64>,
    senders: impl Iterator<Item = usize>,
    round: usize,
) {
    for i in senders {
        let Outgoing::Multicast(_, targets) = &outboxes[i] else {
            continue;
        };
        if targets.is_empty() {
            continue;
        }
        if stamps.len() != graph.num_arcs() {
            *stamps = vec![0; graph.num_arcs()];
        }
        let sender = NodeId::new(i);
        let base = graph.arc_offset(sender);
        for &t in targets {
            for q in graph.neighbor_positions(sender, t) {
                stamps[base + q] = round as u64;
            }
        }
    }
}

/// What a round's copies are: the arcs the senders' outboxes put a copy on,
/// after the link faults' drops, and what each copy hands its receiver under
/// the active byzantine model. A push round and a mailbox round deliver
/// through [`RoundCopies::for_each`], a sharded round charges its
/// cross-shard copies through it, and the dense and pull gather asks it arc
/// by arc.
#[derive(Clone, Copy)]
pub(crate) struct RoundCopies<'a> {
    graph: &'a CsrGraph,
    round: usize,
    /// The plan when it drops copies on links.
    link_faults: Option<FaultPlan>,
    /// The byzantine model when it is active this round.
    byz: Option<ByzantineModel>,
}

impl<'a> RoundCopies<'a> {
    pub(crate) fn new(graph: &'a CsrGraph, faults: Option<FaultPlan>, round: usize) -> Self {
        RoundCopies {
            graph,
            round,
            link_faults: faults.filter(FaultPlan::affects_links),
            byz: faults
                .and_then(|f| f.byzantine)
                .filter(|b| b.fraction > 0.0 && b.active(round)),
        }
    }

    /// How many times each copy from `sender` arrives (an active spammer's
    /// arrive `spam` times).
    #[inline]
    pub(crate) fn spam(&self, sender: NodeId) -> usize {
        self.byz.map_or(1, |b| b.spam_factor(self.round, sender))
    }

    /// Whether the link faults drop `sender`'s copy to `to` of the message at
    /// batch position `idx` (0 for a broadcast or multicast).
    #[inline]
    fn drops(&self, sender: NodeId, to: NodeId, idx: usize) -> bool {
        self.link_faults
            .is_some_and(|f| f.drops(self.round, sender, to, idx))
    }

    /// The salt `sender` tampers its copies to `v` with, if it tampers.
    #[inline]
    pub(crate) fn salt(&self, sender: NodeId, v: NodeId) -> Option<u64> {
        self.byz.and_then(|b| b.tamper_salt(self.round, sender, v))
    }

    /// The receiver-local position of `sender`'s arc at position `q`, whose
    /// receiver is `v`.
    #[inline]
    pub(crate) fn position(&self, sender: NodeId, q: usize, v: NodeId) -> u32 {
        let graph = self.graph;
        (graph.reverse_arc(graph.arc_offset(sender) + q) - graph.arc_offset(v)) as u32
    }

    /// Calls `f(q, v, m)` for each copy `sender`'s outbox puts on an arc:
    /// `q` is the arc's position in `sender`'s neighbour list and `v` its
    /// receiver. Copies the link faults drop are skipped. A broadcast puts a
    /// copy on every arc and a unicast on every parallel arc to its target.
    /// A multicast does the same per target, but a repeated target entry
    /// adds no copy (dense delivery is idempotent in them): the walk marks
    /// each arc it takes by writing `stamp` into `stamps`, so two walks in
    /// one round must use different stamps.
    pub(crate) fn for_each<'o, M>(
        &self,
        sender: NodeId,
        outgoing: &'o Outgoing<M>,
        stamps: &mut Vec<u64>,
        stamp: u64,
        mut f: impl FnMut(usize, NodeId, &'o M),
    ) {
        let graph = self.graph;
        let dropped = |to: NodeId, idx: usize| self.drops(sender, to, idx);
        match outgoing {
            Outgoing::Silent => {}
            Outgoing::Broadcast(m) => {
                for (q, &v) in graph.neighbors(sender).iter().enumerate() {
                    if !dropped(v, 0) {
                        f(q, v, m);
                    }
                }
            }
            Outgoing::Multicast(m, targets) => {
                if targets.is_empty() {
                    return;
                }
                if stamps.len() != graph.num_arcs() {
                    *stamps = vec![0; graph.num_arcs()];
                }
                let base = graph.arc_offset(sender);
                for &t in targets {
                    if dropped(t, 0) {
                        continue;
                    }
                    for q in graph.neighbor_positions(sender, t) {
                        if stamps[base + q] != stamp {
                            stamps[base + q] = stamp;
                            f(q, t, m);
                        }
                    }
                }
            }
            Outgoing::Unicast(msgs) => {
                for (idx, (t, m)) in msgs.iter().enumerate() {
                    if !dropped(*t, idx) {
                        for q in graph.neighbor_positions(sender, *t) {
                            f(q, *t, m);
                        }
                    }
                }
            }
        }
    }

    /// What the copy of `m` on `sender`'s arc at position `q` hands its
    /// receiver `v`: the receiver-local position of the arc, and the message
    /// after the sender's tamper salt for `v`.
    fn received<M: Clone + Tamper>(&self, sender: NodeId, q: usize, v: NodeId, m: &M) -> (u32, M) {
        let msg = match self.salt(sender, v) {
            Some(salt) => m.tamper(salt),
            None => m.clone(),
        };
        (self.position(sender, q, v), msg)
    }
}

/// The receive half of a dense round and of a sparse pull round: a live node
/// collects the copies its neighbours' outboxes address to it into a scratch
/// inbox, in its neighbour-list order, then steps.
struct Gather<'a, M> {
    /// The round's copy rules: link drops, tamper salts and spam factors.
    copies: RoundCopies<'a>,
    outboxes: &'a [Outgoing<M>],
    /// The round's multicast arc stamps (see [`stamp_multicasts`]).
    stamps: &'a [u64],
    faults: Option<FaultPlan>,
    /// Whether a node that receives nothing still steps: every dense round,
    /// and round 1 of a sparse run (whose step initializes every node).
    step_empty: bool,
}

impl<M: Clone + Tamper> Gather<'_, M> {
    /// Gathers node `i`'s copies into `inbox` (cleared first) and runs its
    /// step. A halted or crashed node neither receives nor steps.
    fn receive<P: NodeProgram<Message = M>>(
        &self,
        i: usize,
        program: &mut P,
        inbox: &mut Vec<Delivery<M>>,
    ) -> StepResult {
        let RoundCopies { graph, round, .. } = self.copies;
        let v = NodeId::new(i);
        if program.halted() || self.faults.is_some_and(|f| f.crashed(round, v)) {
            return StepResult::default();
        }
        let arc_base = graph.arc_offset(v);
        inbox.clear();
        for (q, &u) in graph.neighbors(v).iter().enumerate() {
            // The outbox holds the sender's true message, so a byzantine
            // sender's tamper salt and spam factor apply here, receiver-side;
            // push and mailbox rounds apply them sender-side, with the same
            // result because tampering is salt-pure (see
            // `crate::message::Tamper`).
            let deliver = |inbox: &mut Vec<Delivery<M>>, msg: &M| {
                let msg = match self.copies.salt(u, v) {
                    Some(s) => msg.tamper(s),
                    None => msg.clone(),
                };
                for _ in 1..self.copies.spam(u) {
                    inbox.push(Delivery {
                        sender: u,
                        pos: q as u32,
                        msg: msg.clone(),
                    });
                }
                inbox.push(Delivery {
                    sender: u,
                    pos: q as u32,
                    msg,
                });
            };
            match &self.outboxes[u.index()] {
                Outgoing::Silent => {}
                Outgoing::Broadcast(m) => {
                    if !self.copies.drops(u, v, 0) {
                        deliver(inbox, m);
                    }
                }
                Outgoing::Multicast(m, targets) => {
                    // The paired sender-side arc (u → v) carries the stamp.
                    // The emptiness check both short-circuits no-op
                    // multicasts and guarantees the stamp array was
                    // allocated (the stamping allocates on the first
                    // non-empty multicast).
                    if !targets.is_empty()
                        && self.stamps[graph.reverse_arc(arc_base + q)] == round as u64
                        && !self.copies.drops(u, v, 0)
                    {
                        deliver(inbox, m);
                    }
                }
                Outgoing::Unicast(msgs) => {
                    // The batch position is the per-message fault index
                    // (mirrors the sender-side accounting).
                    for (idx, (target, m)) in msgs.iter().enumerate() {
                        if *target == v && !self.copies.drops(u, v, idx) {
                            deliver(inbox, m);
                        }
                    }
                }
            }
        }
        if inbox.is_empty() && !self.step_empty {
            return StepResult::default();
        }
        let ctx = NodeContext::new(graph, v, round);
        StepResult {
            ran: true,
            changed: program.receive(&ctx, inbox),
        }
    }
}

/// Fluent construction of a [`Network`]: the one entry point selecting the
/// execution mode, fault plan, sharding, and mailbox configuration.
///
/// ```
/// use dkc_distsim::{ExecutionMode, NetworkBuilder};
/// # use dkc_distsim::{NodeContext, NodeProgram, Delivery, Outgoing};
/// # use dkc_graph::WeightedGraph;
/// # struct Noop;
/// # impl NodeProgram for Noop {
/// #     type Message = ();
/// #     fn broadcast(&mut self, _: &NodeContext<'_>) -> Outgoing<()> { Outgoing::Silent }
/// #     fn receive(&mut self, _: &NodeContext<'_>, _: &[Delivery<()>]) -> bool { false }
/// # }
/// # let mut graph = WeightedGraph::new(2);
/// # graph.add_edge(dkc_graph::NodeId::new(0), dkc_graph::NodeId::new(1), 1.0);
/// let mut net = NetworkBuilder::new()
///     .mode(ExecutionMode::Mailbox)
///     .build(&graph, |_ctx| Noop);
/// net.run(3);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct NetworkBuilder {
    mode: ExecutionMode,
    faults: FaultPlan,
    mailbox_capacity: usize,
    max_frame_bytes: usize,
    shards: usize,
    shard_seed: u64,
}

impl Default for NetworkBuilder {
    fn default() -> Self {
        NetworkBuilder {
            mode: ExecutionMode::Auto,
            faults: FaultPlan::none(),
            mailbox_capacity: Self::DEFAULT_MAILBOX_CAPACITY,
            max_frame_bytes: Self::DEFAULT_MAX_FRAME_BYTES,
            shards: 0,
            shard_seed: 0,
        }
    }
}

impl NetworkBuilder {
    /// Default bounded capacity (frames) of each mailbox shard's channel.
    pub const DEFAULT_MAILBOX_CAPACITY: usize = 256;
    /// Default cap on a received frame's payload, in bytes.
    pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 20;

    /// A builder with the defaults: [`ExecutionMode::Auto`], no faults,
    /// unsharded.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the execution mode ([`ExecutionMode::Auto`] by default).
    pub fn mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Installs a deterministic [`FaultPlan`] (replaces any previously
    /// configured plan; a trivial plan means fault-free execution).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Bounded capacity (frames) of each mailbox shard's channel; clamped to
    /// at least 1. Smaller capacities exercise backpressure, larger ones
    /// reduce sender stalls.
    pub fn mailbox_capacity(mut self, frames: usize) -> Self {
        self.mailbox_capacity = frames.max(1);
        self
    }

    /// Cap on a received frame's payload in bytes; longer frames are
    /// rejected on decode and attributed to the sender
    /// (see [`Network::decode_faults`]).
    pub fn max_frame_bytes(mut self, bytes: usize) -> Self {
        self.max_frame_bytes = bytes;
        self
    }

    /// Partitions the graph into `n` shards (0 = unsharded, the default) by
    /// the deterministic `dkc_graph::Partitioner` assignment. Every round
    /// then charges the copies that cross a shard cut as they would travel
    /// between shard hosts: one [`crate::shard::BoundaryDelta`] wire frame per
    /// ordered shard pair, encoded, then decoded and validated as a peer's
    /// frame would be. The frames are reported as
    /// [`RoundStats::boundary_bits`] / [`RoundStats::boundary_nodes`];
    /// delivery is the frontier round's push or pull, so every other
    /// counter, every node's state and every checkpoint is byte-identical to
    /// the unsharded run, for any shard count.
    ///
    /// A sharded network runs frontier rounds, so it needs
    /// [`ExecutionMode::Auto`] and a delta-driven program, and at most
    /// [`MAX_SHARDS`] shards. It composes with any fault plan and with
    /// checkpointing; building it otherwise panics.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Seed of the deterministic hash-based node → shard assignment (see
    /// `dkc_graph::Partitioner`); only meaningful with
    /// [`NetworkBuilder::shards`] > 0.
    pub fn shard_seed(mut self, seed: u64) -> Self {
        self.shard_seed = seed;
        self
    }

    /// Builds a network over `graph`, instantiating one program per node via
    /// `factory` (which receives the node's local view at round 0).
    ///
    /// # Panics
    ///
    /// Panics if a sharded network would not run frontier rounds, or has more
    /// than [`MAX_SHARDS`] shards (see [`NetworkBuilder::shards`]).
    pub fn build<P, F>(self, graph: &WeightedGraph, mut factory: F) -> Network<P>
    where
        P: NodeProgram,
        F: FnMut(&NodeContext<'_>) -> P,
    {
        let csr = CsrGraph::from_graph(graph);
        let programs = (0..csr.num_nodes())
            .map(|i| factory(&NodeContext::new(&csr, NodeId::new(i), 0)))
            .collect();
        self.build_from_parts(csr, programs)
    }

    /// Builds a network from an existing CSR topology and explicit programs
    /// (one per node, in node order).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`NetworkBuilder::build`], or if
    /// `programs` and `graph` disagree on the node count.
    pub fn build_from_parts<P: NodeProgram>(self, graph: CsrGraph, programs: Vec<P>) -> Network<P> {
        assert!(
            self.shards <= MAX_SHARDS,
            "{} shards exceeds the maximum of {MAX_SHARDS}",
            self.shards
        );
        let mut net = Network::from_parts(graph, programs, self.mode);
        assert!(
            self.shards == 0 || net.frontier_rounds(),
            "sharded execution runs frontier rounds: it needs ExecutionMode::Auto and a \
             delta-driven program"
        );
        if self.shards > 0 {
            net.install_sharding(self.shards, self.shard_seed);
        }
        net.install_faults(self.faults);
        net.mailbox_capacity = self.mailbox_capacity;
        net.max_frame_bytes = self.max_frame_bytes;
        net
    }
}

impl<P: NodeProgram> Network<P> {
    /// A network running `mode` over an existing CSR topology and explicit
    /// programs (one per node, in node order); [`NetworkBuilder`] installs
    /// the rest of its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the node counts disagree.
    pub(crate) fn from_parts(graph: CsrGraph, programs: Vec<P>, mode: ExecutionMode) -> Self {
        assert_eq!(
            graph.num_nodes(),
            programs.len(),
            "one program per node required"
        );
        Network {
            graph,
            programs,
            round: 0,
            metrics: RunMetrics::new(),
            mode,
            faults: None,
            schedules: Schedules::default(),
            mailbox_capacity: NetworkBuilder::DEFAULT_MAILBOX_CAPACITY,
            max_frame_bytes: NetworkBuilder::DEFAULT_MAX_FRAME_BYTES,
            decode_faults: Vec::new(),
            mailbox: MailboxScratch::default(),
            outboxes: Vec::new(),
            accounts: Vec::new(),
            step_results: Vec::new(),
            multicast_stamps: Vec::new(),
            frontier: Vec::new(),
            next_frontier: Vec::new(),
            touch_list: Vec::new(),
            bucket: Vec::new(),
            staged: Vec::new(),
            staged_to: Vec::new(),
            resend: Vec::new(),
            shard: None,
            #[cfg(test)]
            force_pull: None,
        }
    }

    /// Whether rounds run over the active frontier: a delta-driven program
    /// under [`ExecutionMode::Auto`].
    fn frontier_rounds(&self) -> bool {
        P::DELTA_DRIVEN && self.mode == ExecutionMode::Auto
    }

    /// Installs the deterministic shard partition for sharded execution:
    /// materializes the `Partitioner::shard_of` owner table and the per-pair
    /// record buffers.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards == 0` or rounds have already executed.
    pub(crate) fn install_sharding(&mut self, num_shards: usize, seed: u64) {
        assert_eq!(self.round, 0, "install the shard partition before running");
        let part = Partitioner::new(num_shards, seed);
        let owner = (0..self.graph.num_nodes())
            .map(|i| part.shard_of(NodeId::new(i)) as u32)
            .collect();
        self.shard = Some(ShardState {
            num_shards,
            seed,
            owner,
            pair_bufs: (0..num_shards * num_shards).map(|_| Vec::new()).collect(),
            senders_scratch: Vec::new(),
        });
    }

    /// Installs a fault plan in place (shared with [`NetworkBuilder`]). A
    /// trivial plan uninstalls.
    ///
    /// # Panics
    ///
    /// Panics if rounds have already executed.
    pub(crate) fn install_faults(&mut self, plan: FaultPlan) {
        assert_eq!(self.round, 0, "install the fault plan before running");
        if plan.is_trivial() {
            self.faults = None;
            self.schedules = Schedules::default();
        } else {
            self.schedules = Schedules::for_plan(&plan, self.programs.len());
            self.faults = Some(plan);
        }
    }

    /// The simulated topology.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The installed shard partition as `(num_shards, seed)`; `None` when
    /// unsharded.
    pub fn shard_config(&self) -> Option<(usize, u64)> {
        self.shard.as_ref().map(|s| (s.num_shards, s.seed))
    }

    /// Number of rounds executed so far.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Accumulated run metrics.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Per-sender counts of wire frames rejected by the decoder under
    /// [`ExecutionMode::Mailbox`] (tofn-style fault attribution: a truncated,
    /// oversized, or garbage frame is charged to the sending peer, never a
    /// panic). Empty if no frame was ever rejected; otherwise one count per
    /// node. Well-formed senders always report 0 here.
    pub fn decode_faults(&self) -> &[u32] {
        &self.decode_faults
    }

    /// The program of one node.
    pub fn program(&self, v: NodeId) -> &P {
        &self.programs[v.index()]
    }

    /// Capacities of the executor's persistent scratch buffers (diagnostic;
    /// see the buffer-reuse acceptance tests).
    pub fn buffer_stats(&self) -> ExecutorBufferStats {
        ExecutorBufferStats {
            outbox_capacity: self.outboxes.capacity(),
            account_capacity: self.accounts.capacity(),
            changed_capacity: self.step_results.capacity(),
            multicast_stamp_slots: self.multicast_stamps.len() + self.mailbox.stamp_slots(),
            frontier_capacity_total: self.frontier.capacity()
                + self.next_frontier.capacity()
                + self.touch_list.capacity()
                + self.resend.capacity(),
            bucket_slots: self.bucket.len(),
            staged_capacity_total: self.staged.capacity() + self.staged_to.capacity(),
            boundary_capacity_total: self.shard.as_ref().map_or(0, |st| {
                st.owner.capacity()
                    + st.pair_bufs.iter().map(Vec::capacity).sum::<usize>()
                    + st.senders_scratch.capacity()
            }),
            mailbox_capacity_total: self.mailbox.capacity_total(),
        }
    }

    /// Consumes the network, returning the final per-node programs and metrics.
    pub fn into_parts(self) -> (Vec<P>, RunMetrics) {
        (self.programs, self.metrics)
    }

    /// Consumes the network like [`Network::into_parts`], handing back its
    /// topology as well. Every scratch buffer is freed by then, so results
    /// read off the graph afterwards do not add to the run's peak memory.
    pub fn into_graph_and_parts(self) -> (CsrGraph, Vec<P>, RunMetrics) {
        (self.graph, self.programs, self.metrics)
    }

    /// Executes one synchronous round (broadcast phase, then receive phase) and
    /// returns its statistics.
    pub fn run_round(&mut self) -> RoundStats {
        self.run_rounds(1, false);
        *self.metrics.rounds().last().expect("round recorded")
    }

    /// Runs exactly `rounds` rounds.
    pub fn run(&mut self, rounds: usize) {
        self.run_rounds(rounds, false);
    }

    /// Runs until a round in which no node's state changed (quiescence), or
    /// until `max_rounds` additional rounds have been executed. Returns the
    /// number of rounds executed by this call.
    pub fn run_until_quiescent(&mut self, max_rounds: usize) -> usize {
        self.run_rounds(max_rounds, true)
    }

    /// Runs up to `rounds` rounds, stopping after the first round in which
    /// no node changed if `until_quiescent`, and returns how many ran.
    fn run_rounds(&mut self, rounds: usize, until_quiescent: bool) -> usize {
        for executed in 1..=rounds {
            if self.step_round().changed_nodes == 0 && until_quiescent {
                return executed;
            }
        }
        rounds
    }

    /// Executes one round in the network's mode: dense, over the frontier,
    /// or through the mailbox backend. The one round loop of every mode (see
    /// the module docs).
    fn step_round(&mut self) -> RoundStats {
        // Wall-clock audit (dkc-lint D02 allowlist): this reading feeds only
        // RunMetrics::add_elapsed, i.e. wall_clock_ms / messages_per_sec —
        // never a deterministic counter (crates/bench/tests/wall_clock_isolation.rs).
        let started = Instant::now();
        self.round += 1;
        let stats = if self.mode == ExecutionMode::Mailbox {
            crate::mailbox::run_round(self)
        } else if self.frontier_rounds() {
            self.run_round_sparse()
        } else {
            self.run_round_dense()
        };
        let stats = self.schedules.close(stats, self.round);
        self.metrics.push(stats);
        self.metrics.add_elapsed(started.elapsed());
        stats
    }

    /// Dense activation: every non-halted, non-crashed node broadcasts and
    /// steps.
    fn run_round_dense(&mut self) -> RoundStats {
        let round = self.round;
        let graph = &self.graph;
        let faults = self.faults;

        // Phase 1: every (non-halted) node produces its outgoing messages.
        // The accounting (post-fault, see `produce_outgoing`) is computed in
        // the same map so no separate sequential pass over the outboxes is
        // needed afterwards.
        self.programs
            .par_iter_mut()
            .enumerate()
            .map(|(i, program)| produce_outgoing(graph, faults, round, i, program))
            .unzip_into_vecs(&mut self.outboxes, &mut self.accounts);

        // Reduce the per-sender accounting rows (cheap: plain integers).
        let mut stats = RoundStats::default();
        for acct in &self.accounts {
            stats.merge(&acct.row());
        }

        stamp_multicasts(
            &self.graph,
            &self.outboxes,
            &mut self.multicast_stamps,
            0..self.programs.len(),
            round,
        );

        // Phase 2: every (non-halted, non-crashed) node gathers the copies
        // addressed to it and steps. Delivery order guarantee (dense rounds
        // only): the inbox is in the receiver's neighbour-list order,
        // which node programs may rely on to merge messages with
        // per-neighbour state in linear time.
        self.gather_and_step(true);
        stats.changed_nodes = self.step_results.iter().filter(|r| r.changed).count();
        stats.node_updates = self.step_results.iter().filter(|r| r.ran).count();
        stats
    }

    /// A frontier round: only the frontier broadcasts, only nodes that
    /// receive a copy step, and the round pushes or pulls the copies (see
    /// [`PULL_DIVISOR`]). Runs only [`NodeProgram::DELTA_DRIVEN`] programs
    /// (see [`Network::frontier_rounds`]); result-identical to a dense
    /// round.
    fn run_round_sparse(&mut self) -> RoundStats {
        let round = self.round;
        let n = self.programs.len();

        if round == 1 {
            // Every node runs its first step, so the initial frontier is the
            // full (non-halted) node set.
            self.size_sparse_scratch();
            self.frontier.clear();
            self.frontier
                .extend((0..n as u32).filter(|&i| !self.programs[i as usize].halted()));
        }

        // Byzantine lie/equivocate window boundaries re-activate the liars:
        // a dense run re-broadcasts every round, so receivers hear the
        // tampered value at `first_round` and the restored true value at
        // `last_round + 1` even if the liar's state never changed. Injecting
        // the (non-crashed, non-halted) tampering nodes into the frontier at
        // exactly those two rounds reproduces both deliveries; mute needs no
        // injection (its drops keep the sender in the resend list and its
        // values are never tampered) and spam duplicates are idempotent.
        if let Some(byz) = self.faults.and_then(|f| f.byzantine) {
            let tampering = Behavior::Lie.bit() | Behavior::Equivocate.bit();
            if byz.fraction > 0.0
                && byz.behaviors & tampering != 0
                && (round == byz.first_round || round == byz.last_round + 1)
            {
                let faults = self.faults;
                for i in 0..n {
                    let v = NodeId::new(i);
                    if !matches!(
                        byz.behavior_of(v),
                        Some(Behavior::Lie) | Some(Behavior::Equivocate)
                    ) {
                        continue;
                    }
                    if self.programs[i].halted() || faults.is_some_and(|f| f.crashed(round, v)) {
                        continue;
                    }
                    self.frontier.push(i as u32);
                }
                self.frontier.sort_unstable();
                self.frontier.dedup();
            }
        }

        if self.frontier.is_empty() {
            // Quiescent: the round is a no-op (and costs O(1)).
            return RoundStats::default();
        }

        // Phase 1: frontier nodes produce their outgoing messages, with the
        // same post-fault accounting as the dense path. A sender with dropped
        // copies is queued for re-send so receivers hear its current value at
        // exactly the rounds a dense run would have delivered it; a crashed
        // frontier node produces nothing and silently leaves the frontier
        // (it can never report a change again).
        let mut stats = RoundStats::default();
        self.resend.clear();
        for idx in 0..self.frontier.len() {
            let u = self.frontier[idx] as usize;
            let (out, acct) =
                produce_outgoing(&self.graph, self.faults, round, u, &mut self.programs[u]);
            self.outboxes[u] = out;
            stats.merge(&acct.row());
            if acct.any_dropped() {
                self.resend.push(u as u32);
            }
        }

        // Phases 2 and 3: deliver the frontier's copies and step their
        // receivers. Both directions deliver the same copies; a sharded
        // network first charges the ones that cross a shard cut.
        self.account_boundary(&mut stats);
        self.next_frontier.clear();
        let copies = stats.messages + stats.dropped();
        let pull = copies > self.graph.num_arcs() / PULL_DIVISOR;
        #[cfg(test)]
        let pull = self.force_pull.unwrap_or(pull);
        if pull {
            self.pull(&mut stats);
        } else {
            self.push(&mut stats);
        }
        // A pull round reads every neighbour's outbox, so only the senders
        // of the round under way may hold a message: silence this round's.
        for &u in &self.frontier {
            self.outboxes[u as usize] = Outgoing::Silent;
        }
        // Nodes that changed, plus re-senders, form the next frontier.
        self.next_frontier.extend_from_slice(&self.resend);
        self.next_frontier.sort_unstable();
        self.next_frontier.dedup();
        std::mem::swap(&mut self.frontier, &mut self.next_frontier);
        stats
    }

    /// Charges a sharded round's cross-shard copies to
    /// [`RoundStats::boundary_bits`] and [`RoundStats::boundary_nodes`]; a
    /// no-op unless the network has more than one shard. The frontier's
    /// copies between nodes of different shards, walked in ascending sender
    /// order and tampered and multiplied as they are delivered, fill one
    /// record buffer per ordered shard pair. Each nonempty buffer is encoded
    /// as one length-prefixed [`BoundaryDelta`] frame, whose bytes are the
    /// charge, then decoded and validated against the owner table as a
    /// remote peer's frame would be. Delivery stays with the round's push or
    /// pull, which delivers these same copies; so a copy to a crashed or
    /// halted receiver is charged here and dropped there.
    fn account_boundary(&mut self, stats: &mut RoundStats) {
        let Some(st) = self.shard.as_mut().filter(|s| s.num_shards > 1) else {
            return;
        };
        let round = self.round;
        let copies = RoundCopies::new(&self.graph, self.faults, round);
        let s = st.num_shards;
        // The delivery that follows stamps multicast arcs with `round`, so
        // this walk marks them with a stamp no round number reaches.
        let stamp = u64::MAX - round as u64;
        let stamps = &mut self.multicast_stamps;
        for &u in &self.frontier {
            let sender = NodeId(u);
            let su = st.owner[u as usize] as usize;
            let spam = copies.spam(sender);
            let outgoing = &self.outboxes[u as usize];
            copies.for_each(sender, outgoing, stamps, stamp, |q, v, m| {
                let sv = st.owner[v.index()] as usize;
                if su == sv {
                    return;
                }
                let (pos, msg) = copies.received(sender, q, v, m);
                let record = |msg| BoundaryRecord {
                    sender: u,
                    receiver: v.0,
                    pos,
                    msg,
                };
                let buf = &mut st.pair_bufs[su * s + sv];
                for _ in 1..spam {
                    buf.push(record(msg.clone()));
                }
                buf.push(record(msg));
            });
        }
        st.senders_scratch.clear();
        for src in 0..s {
            for dst in 0..s {
                let pair = src * s + dst;
                if st.pair_bufs[pair].is_empty() {
                    continue;
                }
                let delta = BoundaryDelta {
                    src_shard: src as u32,
                    dst_shard: dst as u32,
                    round: round as u64,
                    records: std::mem::take(&mut st.pair_bufs[pair]),
                };
                let frame = crate::wire::encode_frame(&delta);
                stats.boundary_bits += 8 * frame.len();
                // A boundary frame aggregates a whole cut's frontier, so it
                // is not subject to the per-node-message frame cap; both
                // checks are infallible here because the frame was encoded
                // in this very loop.
                let decoded: BoundaryDelta<P::Message> =
                    crate::wire::decode_frame(&frame, usize::MAX)
                        .expect("self-encoded boundary frame decodes");
                decoded
                    .validate(src as u32, dst as u32, round as u64, &self.graph, &st.owner)
                    .expect("self-built boundary frame validates");
                st.senders_scratch
                    .extend(decoded.records.iter().map(|r| r.sender));
                // Hand the drained buffer's capacity back for reuse.
                let mut records = delta.records;
                records.clear();
                st.pair_bufs[pair] = records;
            }
        }
        st.senders_scratch.sort_unstable();
        st.senders_scratch.dedup();
        stats.boundary_nodes = st.senders_scratch.len();
    }

    /// A push round's delivery and steps: the frontier's copies are staged
    /// in scatter order, bucketed by receiver, and the touched nodes step on
    /// their buckets in ascending order; those that change join the next
    /// frontier.
    fn push(&mut self, stats: &mut RoundStats) {
        let round = self.round;
        let n = self.programs.len();

        // Phase 2: sender-side scatter into the staging buffers. Each copy
        // translates the sender-side arc to the receiver-local position
        // through `reverse_arc`, so receivers never rescan their adjacency
        // lists. A receiver's first copy of the round registers it in the
        // touch list; its bucket counts the copies.
        {
            let Network {
                graph,
                programs,
                outboxes,
                multicast_stamps: stamps,
                touch_list,
                bucket,
                staged,
                staged_to,
                frontier,
                faults,
                ..
            } = self;
            touch_list.clear();
            let faults = *faults;
            // The same byzantine corruption as the dense gather, applied at
            // the sender-side scatter point.
            let copies = RoundCopies::new(graph, faults, round);
            // A crashed (or halted) node is never touched: it does not step,
            // mirroring the dense receive skip, so it stays out of the
            // frontier bookkeeping entirely.
            let mut touch = |v: NodeId, k: usize| -> bool {
                if programs[v.index()].halted() || faults.is_some_and(|f| f.crashed(round, v)) {
                    return false;
                }
                let count = &mut bucket[v.index()];
                if *count == UNTOUCHED {
                    *count = 0;
                    touch_list.push(v.0);
                }
                *count += k as u32;
                true
            };
            for &u in frontier.iter() {
                let sender = NodeId(u);
                let spam = copies.spam(sender);
                let outgoing = &outboxes[u as usize];
                copies.for_each(sender, outgoing, stamps, round as u64, |q, v, m| {
                    if !touch(v, spam) {
                        return;
                    }
                    let (pos, msg) = copies.received(sender, q, v, m);
                    let delivery = |msg| Delivery { sender, pos, msg };
                    for _ in 1..spam {
                        staged.push(delivery(msg.clone()));
                    }
                    staged.push(delivery(msg));
                    staged_to.extend(std::iter::repeat_n(v.0, spam));
                });
            }
            if round == 1 {
                // Every node executes its first step even with an empty inbox
                // (initialization transitions, e.g. ∞ → degree, happen here).
                for i in 0..n {
                    touch(NodeId::new(i), 0);
                }
            }
        }

        // Counting sort of the staged copies by receiver: each touched
        // node's count becomes the start of its bucket, each copy takes the
        // next index of its receiver's bucket (so a bucket keeps scatter
        // order), and a cycle walk swaps every copy to its index.
        self.touch_list.sort_unstable();
        stats.node_updates = self.touch_list.len();
        let mut start = 0u32;
        for &v in &self.touch_list {
            let count = std::mem::replace(&mut self.bucket[v as usize], start);
            start += count;
        }
        for to in &mut self.staged_to {
            let next = &mut self.bucket[*to as usize];
            *to = *next;
            *next += 1;
        }
        for k in 0..self.staged.len() {
            loop {
                let dest = self.staged_to[k] as usize;
                if dest == k {
                    break;
                }
                self.staged.swap(k, dest);
                self.staged_to.swap(k, dest);
            }
        }

        // Phase 3: every touched node steps on its bucket, which now ends
        // where its count says.
        let mut start = 0;
        for &v in &self.touch_list {
            let end = std::mem::replace(&mut self.bucket[v as usize], UNTOUCHED) as usize;
            let ctx = NodeContext::new(&self.graph, NodeId(v), round);
            if self.programs[v as usize].receive(&ctx, &self.staged[start..end]) {
                stats.changed_nodes += 1;
                self.next_frontier.push(v);
            }
            start = end;
        }
        self.staged.clear();
        self.staged_to.clear();
    }

    /// A pull round's delivery and steps: every live node gathers from its
    /// neighbours' outboxes, of which only the frontier's are non-silent, as
    /// in a dense round; the nodes that received a copy step (every node in
    /// round 1), and those that change join the next frontier.
    fn pull(&mut self, stats: &mut RoundStats) {
        stamp_multicasts(
            &self.graph,
            &self.outboxes,
            &mut self.multicast_stamps,
            self.frontier.iter().map(|&u| u as usize),
            self.round,
        );
        self.gather_and_step(self.round == 1);
        for (v, r) in self.step_results.iter().enumerate() {
            stats.node_updates += usize::from(r.ran);
            if r.changed {
                stats.changed_nodes += 1;
                self.next_frontier.push(v as u32);
            }
        }
    }

    /// Runs [`Gather::receive`] for every node into `step_results`,
    /// data-parallel, with one scratch inbox per worker.
    fn gather_and_step(&mut self, step_empty: bool) {
        let gather = Gather {
            copies: RoundCopies::new(&self.graph, self.faults, self.round),
            outboxes: &self.outboxes,
            stamps: &self.multicast_stamps,
            faults: self.faults,
            step_empty,
        };
        self.programs
            .par_iter_mut()
            .enumerate()
            .map_init(Vec::new, |inbox, (i, program)| {
                gather.receive(i, program, inbox)
            })
            .collect_into_vec(&mut self.step_results);
    }

    /// Sizes the sparse executor's per-node state before its first round:
    /// the outbox array, the push buckets, and the touch list and staging
    /// buffers of the widest push round (`num_arcs / PULL_DIVISOR` copies),
    /// so no later round grows them. Run at round 1 and on restore, since a
    /// resumed run starts past round 1.
    fn size_sparse_scratch(&mut self) {
        let n = self.programs.len();
        self.outboxes.clear();
        self.outboxes.resize_with(n, || Outgoing::Silent);
        self.bucket = vec![UNTOUCHED; n];
        self.touch_list.reserve(n);
        let widest_push = self.graph.num_arcs() / PULL_DIVISOR + 1;
        self.staged.reserve(widest_push);
        self.staged_to.reserve(widest_push);
    }
}

/// Checkpoint/restore of mid-run executor state (see [`crate::checkpoint`]
/// for the container format). Available for programs that implement
/// [`SnapshotState`].
impl<P: NodeProgram + SnapshotState> Network<P> {
    /// Serializes the complete resumable state of this network — round
    /// counter, sparse frontier, metrics, decode-fault attribution, the
    /// installed fault plan (its splitmix64 decisions are pure functions of
    /// the parameters and round, so parameters + round counter *are* the
    /// full fault state), and every node program's [`SnapshotState`] payload.
    /// [`checkpoint::state_is_sparse`] reads the head of this layout.
    /// [`Network::write_checkpoint`] streams the same bytes to disk instead.
    pub fn save_state(&self) -> Result<Vec<u8>, CheckpointError> {
        checkpoint::encode_state(|s| self.write_state(s))
    }

    /// Writes the [`Network::save_state`] layout into `s`, handing the
    /// buffered bytes on after every node that fills the buffer.
    fn write_state(&self, s: &mut StateWriter<'_>) -> Result<(), CheckpointError> {
        let w = s.wire();
        (self.programs.len() as u64).serialize(&mut *w)?;
        (self.graph.num_arcs() as u64).serialize(&mut *w)?;
        self.faults.unwrap_or_default().serialize(&mut *w)?;
        self.frontier_rounds().serialize(&mut *w)?;
        (self.round as u64).serialize(&mut *w)?;
        self.frontier.serialize(&mut *w)?;
        self.decode_faults.serialize(&mut *w)?;
        (self.metrics.elapsed().as_nanos() as u64).serialize(&mut *w)?;
        self.metrics.rounds().serialize(&mut *w)?;
        for program in &self.programs {
            s.flush_if_full()?;
            program.save_state(s.wire())?;
        }
        Ok(())
    }

    /// Restores executor state saved by [`Network::save_state`] into this
    /// freshly built network (same graph, same fault plan, same activation —
    /// frontier or dense rounds — all validated). On success the network continues exactly where the
    /// checkpointed run left off, byte-identical on every deterministic
    /// counter; on error nothing observable has run, but node-program state
    /// may be partially overwritten — discard the network.
    ///
    /// # Panics
    ///
    /// Panics if rounds have already executed on this network.
    pub fn restore_state(&mut self, state: &[u8]) -> Result<(), CheckpointError> {
        assert_eq!(self.round, 0, "restore requires a freshly built network");
        let mismatch = |msg: String| Err(CheckpointError::Mismatch(msg));
        let n = self.programs.len();
        let mut r = WireReader::new(state);
        let saved_n = r.read_u64()? as usize;
        if saved_n != n {
            return mismatch(format!("checkpoint has {saved_n} nodes, this run has {n}"));
        }
        let saved_arcs = r.read_u64()? as usize;
        if saved_arcs != self.graph.num_arcs() {
            return mismatch(format!(
                "checkpoint graph has {saved_arcs} arcs, this run has {}",
                self.graph.num_arcs()
            ));
        }
        let plan = FaultPlan::decode(&mut r)?;
        checkpoint::validate_plan(&plan)?;
        if plan != self.faults.unwrap_or_default() {
            return mismatch("fault plan differs from the checkpointed run".to_string());
        }
        let sparse = r.read_bool()?;
        if sparse != self.frontier_rounds() {
            let rounds = |sparse| if sparse { "frontier" } else { "dense" };
            return mismatch(format!(
                "checkpoint was written with {} rounds, resuming with {} rounds",
                rounds(sparse),
                rounds(!sparse)
            ));
        }
        let round = r.read_u64()? as usize;
        let frontier = Vec::<u32>::decode(&mut r)?;
        if !frontier.windows(2).all(|w| w[0] < w[1])
            || frontier.last().is_some_and(|&v| v as usize >= n)
        {
            return mismatch("frontier is not a strictly ascending node list".to_string());
        }
        let decode_faults = Vec::<u32>::decode(&mut r)?;
        if !decode_faults.is_empty() && decode_faults.len() != n {
            return mismatch("decode-fault attribution has the wrong node count".to_string());
        }
        let elapsed = Duration::from_nanos(r.read_u64()?);
        let rounds = Vec::<RoundStats>::decode(&mut r)?;
        if rounds.len() != round {
            return mismatch(format!(
                "round counter {round} disagrees with {} recorded rounds",
                rounds.len()
            ));
        }
        if rounds.iter().enumerate().any(|(i, s)| s.round != i + 1) {
            return mismatch("recorded round numbers are not 1..=rounds".to_string());
        }
        for program in &mut self.programs {
            program.load_state(&mut r)?;
        }
        if r.remaining() > 0 {
            return Err(CheckpointError::TrailingBytes {
                remaining: r.remaining(),
            });
        }
        self.round = round;
        self.metrics = RunMetrics::from_parts(rounds, elapsed);
        self.frontier = frontier;
        self.decode_faults = decode_faults;
        if self.frontier_rounds() && round > 0 {
            // A resumed sparse run never executes the round-1 initialization
            // branch, so size its lazily allocated state here.
            self.size_sparse_scratch();
        }
        Ok(())
    }

    /// Writes a complete checkpoint image for the current state to `path`,
    /// with `preamble` as the embedder section. The state streams into the
    /// file through one [`checkpoint::WRITE_BUFFER_BYTES`] buffer, and the
    /// write is atomic: temp file + rename, so a kill mid-write can never
    /// leave a truncated checkpoint.
    pub fn write_checkpoint(&self, path: &Path, preamble: &[u8]) -> Result<(), CheckpointError> {
        checkpoint::write_checkpoint(path, preamble, |s| self.write_state(s))
    }

    /// Runs exactly `rounds` rounds like [`Network::run`], writing a
    /// checkpoint to `path` (see [`Network::write_checkpoint`]) every `every`
    /// rounds (0 counts as 1) — counted in *absolute* round numbers, so a
    /// resumed run checkpoints at the same boundaries as an uninterrupted
    /// one. `preamble` is the embedder-defined section stored ahead of the
    /// executor state (run parameters, graph identity, ...; see
    /// [`crate::checkpoint`]).
    pub fn run_with_checkpoints(
        &mut self,
        rounds: usize,
        every: usize,
        path: &Path,
        preamble: &[u8],
    ) -> Result<(), CheckpointError> {
        let every = every.max(1);
        let target = self.round + rounds;
        while self.round < target {
            let stop = ((self.round / every + 1) * every).min(target);
            self.run_rounds(stop - self.round, false);
            if self.round.is_multiple_of(every) {
                self.write_checkpoint(path, preamble)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::LossModel;
    use crate::wire::WireWriter;
    use dkc_graph::generators::{complete_graph, grid_graph, path_graph};

    use ExecutionMode::{Auto, Dense, Mailbox};

    /// One execution path: a mode run in a rayon pool of `threads` threads,
    /// sharded when `shards > 0`.
    #[derive(Clone, Copy, Debug)]
    struct Leg {
        mode: ExecutionMode,
        threads: usize,
        shards: usize,
    }

    /// The unsharded leg of `mode` on `threads` threads.
    const fn leg(mode: ExecutionMode, threads: usize) -> Leg {
        Leg {
            mode,
            threads,
            shards: 0,
        }
    }

    impl Leg {
        /// Runs `f` in this leg's pool.
        fn install<R>(self, f: impl FnOnce() -> R) -> R {
            on_threads(self.threads, f)
        }
    }

    impl From<ExecutionMode> for Leg {
        fn from(mode: ExecutionMode) -> Self {
            leg(mode, 1)
        }
    }

    /// Runs `f` in a rayon pool of `threads` threads: the count every dense
    /// and pull round, and the mailbox backend, reads.
    fn on_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(f)
    }

    /// Each mode on one thread and on four (the mailbox backend only on
    /// four shards), so the data-parallel paths run even on one CPU.
    const ALL_LEGS: [Leg; 6] = [
        leg(Dense, 1),
        leg(Dense, 4),
        leg(Auto, 1),
        leg(Auto, 4),
        leg(Mailbox, 4),
        // A single shard has no cut, so every counter (including the
        // boundary pair) matches the other modes exactly.
        Leg {
            mode: Auto,
            threads: 1,
            shards: 1,
        },
    ];

    /// Toy protocol: every node repeatedly broadcasts the smallest node id it
    /// has heard of. Converges to the global minimum in (eccentricity of the
    /// minimum) rounds — a classic diameter-dependent protocol. Delta-driven:
    /// the broadcast is a pure function of `best`, and the min-merge is
    /// idempotent and order-insensitive.
    struct MinIdFlood {
        best: u32,
    }

    impl NodeProgram for MinIdFlood {
        type Message = u32;

        const DELTA_DRIVEN: bool = true;

        fn broadcast(&mut self, _ctx: &NodeContext<'_>) -> Outgoing<u32> {
            Outgoing::Broadcast(self.best)
        }

        fn receive(&mut self, _ctx: &NodeContext<'_>, inbox: &[Delivery<u32>]) -> bool {
            let before = self.best;
            for d in inbox {
                self.best = self.best.min(d.msg);
            }
            self.best != before
        }
    }

    fn min_id_network(g: &WeightedGraph, leg: impl Into<Leg>) -> Network<MinIdFlood> {
        min_id_faulty(g, leg, FaultPlan::none())
    }

    fn min_id_faulty(
        g: &WeightedGraph,
        leg: impl Into<Leg>,
        plan: FaultPlan,
    ) -> Network<MinIdFlood> {
        let Leg { mode, shards, .. } = leg.into();
        NetworkBuilder::new()
            .mode(mode)
            .shards(shards)
            .faults(plan)
            .build(g, |ctx| MinIdFlood { best: ctx.node().0 })
    }

    /// [`min_id_faulty`] run for `rounds` rounds in `leg`'s pool.
    fn min_id_ran(
        g: &WeightedGraph,
        leg: Leg,
        plan: FaultPlan,
        rounds: usize,
    ) -> Network<MinIdFlood> {
        leg.install(|| {
            let mut net = min_id_faulty(g, leg, plan);
            net.run(rounds);
            net
        })
    }

    /// Runs every leg for `rounds` rounds under `plan`: all agree on every
    /// node's value, and each activation's counters agree at any thread
    /// count and shard count (dense on one thread is the mailbox reference
    /// too).
    fn assert_all_legs_agree(g: &WeightedGraph, plan: FaultPlan, rounds: usize) {
        let dense = min_id_ran(g, leg(Dense, 1), plan, rounds);
        let frontier = min_id_ran(g, leg(Auto, 1), plan, rounds);
        for leg in ALL_LEGS {
            let net = min_id_ran(g, leg, plan, rounds);
            for v in g.nodes() {
                assert_eq!(dense.program(v).best, net.program(v).best, "{leg:?}");
            }
            let same = if leg.mode == Auto { &frontier } else { &dense };
            assert_eq!(
                same.metrics().first_divergence(net.metrics()),
                None,
                "{leg:?}"
            );
        }
    }

    use dkc_graph::WeightedGraph;

    #[test]
    fn flood_takes_diameter_rounds_on_a_path() {
        let g = path_graph(10);
        for leg in ALL_LEGS {
            leg.install(|| {
                let mut net = min_id_network(&g, leg);
                // After k rounds, node k knows id 0 but node k+1 does not.
                net.run(5);
                assert_eq!(net.program(NodeId(5)).best, 0, "{leg:?}");
                assert_eq!(net.program(NodeId(6)).best, 1, "{leg:?}");
                net.run(4);
                for v in net.graph().nodes() {
                    assert_eq!(net.program(v).best, 0, "node {v} not converged ({leg:?})");
                }
            });
        }
    }

    #[test]
    fn all_modes_agree() {
        assert_all_legs_agree(&complete_graph(20), FaultPlan::none(), 3);
    }

    #[test]
    fn sparse_skips_redundant_work() {
        let g = path_graph(32);
        let rounds = 200; // well past convergence: the tail is free for sparse
        let mut dense = min_id_network(&g, Dense);
        let mut sparse = min_id_network(&g, Auto);
        dense.run(rounds);
        sparse.run(rounds);
        for v in g.nodes() {
            assert_eq!(dense.program(v).best, sparse.program(v).best);
        }
        let d = dense.metrics();
        let s = sparse.metrics();
        assert_eq!(d.num_rounds(), s.num_rounds());
        assert!(
            s.total_node_updates() < d.total_node_updates() / 4,
            "sparse executed {} steps vs dense {}",
            s.total_node_updates(),
            d.total_node_updates()
        );
        assert!(s.total_messages() < d.total_messages() / 4);
        // Dense runs every node every round.
        assert_eq!(d.total_node_updates(), 32 * rounds);
    }

    #[test]
    fn sparse_matches_dense_under_loss() {
        let g = path_graph(16);
        for seed in [1u64, 7, 99] {
            let model = LossModel::new(0.4, seed);
            let plan = FaultPlan::from_loss(model);
            let mut dense = min_id_faulty(&g, Dense, plan);
            let mut sparse = min_id_faulty(&g, Auto, plan);
            dense.run(40);
            sparse.run(40);
            for v in g.nodes() {
                assert_eq!(
                    dense.program(v).best,
                    sparse.program(v).best,
                    "seed {seed}, node {v}"
                );
            }
        }
    }

    #[test]
    fn quiescence_detection() {
        let g = path_graph(8);
        for leg in ALL_LEGS {
            let mut net = min_id_network(&g, leg);
            let rounds = leg.install(|| net.run_until_quiescent(100));
            // 7 rounds to converge + 1 quiescent round to detect it.
            assert_eq!(rounds, 8, "{leg:?}");
            for v in net.graph().nodes() {
                assert_eq!(net.program(v).best, 0);
            }
        }
    }

    #[test]
    fn quiescent_sparse_rounds_are_free() {
        let g = path_graph(6);
        let mut net = min_id_network(&g, Auto);
        net.run(50);
        let trailing = &net.metrics().rounds()[10..];
        assert!(trailing
            .iter()
            .all(|r| r.messages == 0 && r.node_updates == 0));
    }

    #[test]
    fn message_accounting_counts_per_edge() {
        let g = complete_graph(5);
        let mut net = min_id_network(&g, Dense);
        let stats = net.run_round();
        // Every node broadcasts to 4 neighbours: 20 messages of 32 bits.
        assert_eq!(stats.messages, 20);
        assert_eq!(stats.payload_bits, 20 * 32);
        assert_eq!(stats.max_message_bits, 32);
        assert_eq!(stats.sending_nodes, 5);
        assert_eq!(stats.node_updates, 5);
    }

    /// A protocol with explicit halting: each node sends one message then halts.
    struct OneShot {
        sent: bool,
        received: usize,
    }

    impl NodeProgram for OneShot {
        type Message = ();

        fn broadcast(&mut self, _ctx: &NodeContext<'_>) -> Outgoing<()> {
            if self.sent {
                Outgoing::Silent
            } else {
                self.sent = true;
                Outgoing::Broadcast(())
            }
        }

        fn receive(&mut self, _ctx: &NodeContext<'_>, inbox: &[Delivery<()>]) -> bool {
            self.received += inbox.len();
            !inbox.is_empty()
        }

        fn halted(&self) -> bool {
            self.sent
        }
    }

    #[test]
    fn halted_nodes_do_not_participate() {
        let g = complete_graph(4);
        for leg in [leg(Dense, 1), leg(Dense, 4), leg(Mailbox, 4)] {
            let mut net = NetworkBuilder::new().mode(leg.mode).build(&g, |_| OneShot {
                sent: false,
                received: 0,
            });
            let (s1, s2) = leg.install(|| (net.run_round(), net.run_round()));
            assert_eq!(s1.messages, 12);
            // Everyone halted after sending; nothing is delivered in round 1's
            // receive phase? No: messages are delivered in the same round they are
            // sent, but `halted()` became true after the broadcast phase, so the
            // receive phase is skipped for everyone and nothing is counted.
            assert_eq!(s1.node_updates, 0, "{leg:?}");
            assert_eq!(s2.messages, 0, "{leg:?}");
            assert_eq!(s2.changed_nodes, 0, "{leg:?}");
        }
    }

    /// A builder that names no mode runs `Auto`: frontier rounds for a
    /// delta-driven program, dense rounds for any other.
    #[test]
    fn unnamed_mode_follows_the_program() {
        let g = path_graph(32);
        let mut default = NetworkBuilder::new().build(&g, |ctx| MinIdFlood { best: ctx.node().0 });
        let mut dense = min_id_network(&g, Dense);
        assert_eq!(default.mode, Auto);
        assert!(default.frontier_rounds());
        default.run(40);
        dense.run(40);
        for v in g.nodes() {
            assert_eq!(default.program(v).best, dense.program(v).best);
        }
        assert!(
            default.metrics().total_node_updates() < dense.metrics().total_node_updates(),
            "unnamed mode ran {} steps, dense {}",
            default.metrics().total_node_updates(),
            dense.metrics().total_node_updates()
        );
        let one_shot = NetworkBuilder::new().build(&g, |_| OneShot {
            sent: false,
            received: 0,
        });
        assert!(!one_shot.frontier_rounds());
    }

    #[test]
    fn unicast_and_multicast_delivery() {
        struct Directed;
        impl NodeProgram for Directed {
            type Message = u64;
            fn broadcast(&mut self, ctx: &NodeContext<'_>) -> Outgoing<u64> {
                // Node 0 unicasts 7 to node 1 only; others multicast 9 to their
                // first neighbour.
                if ctx.node() == NodeId(0) {
                    Outgoing::Unicast(vec![(NodeId(1), 7)])
                } else {
                    let first = ctx.neighbors()[0];
                    Outgoing::Multicast(9, vec![first])
                }
            }
            fn receive(&mut self, ctx: &NodeContext<'_>, inbox: &[Delivery<u64>]) -> bool {
                if ctx.node() == NodeId(1) {
                    assert!(inbox.iter().any(|d| d.sender == NodeId(0) && d.msg == 7));
                    // Delivered positions index the receiver's neighbour list.
                    for d in inbox {
                        assert_eq!(ctx.neighbors()[d.pos as usize], d.sender);
                    }
                }
                if ctx.node() == NodeId(2) {
                    // Node 2's message from node 0 must NOT be delivered
                    // (node 0 unicast only to node 1).
                    assert!(!inbox.iter().any(|d| d.sender == NodeId(0)));
                }
                false
            }
        }
        let g = complete_graph(3);
        for mode in [Dense, Mailbox] {
            let mut net = NetworkBuilder::new().mode(mode).build(&g, |_| Directed);
            let stats = net.run_round();
            // node0: 1 unicast; node1: 1 multicast; node2: 1 multicast.
            assert_eq!(stats.messages, 3, "{mode:?}");
            assert_eq!(stats.max_message_bits, 64, "{mode:?}");
        }
    }

    /// Every node multicasts to a rotating subset of its neighbours — keeps
    /// the multicast stamp path busy across rounds.
    struct RotatingMulticast {
        heard: Vec<(u32, u32)>,
    }

    impl NodeProgram for RotatingMulticast {
        type Message = u32;

        fn broadcast(&mut self, ctx: &NodeContext<'_>) -> Outgoing<u32> {
            let nbrs = ctx.neighbors();
            let take = (ctx.round() % (nbrs.len() + 1)).max(1);
            let start = (ctx.node().index() + ctx.round()) % nbrs.len();
            let targets: Vec<NodeId> = (0..take).map(|k| nbrs[(start + k) % nbrs.len()]).collect();
            Outgoing::Multicast(ctx.node().0, targets)
        }

        fn receive(&mut self, ctx: &NodeContext<'_>, inbox: &[Delivery<u32>]) -> bool {
            for d in inbox {
                self.heard
                    .push((d.sender.0, d.msg.wrapping_add(ctx.round() as u32)));
            }
            !inbox.is_empty()
        }
    }

    #[test]
    fn multicast_modes_agree_on_rotating_subsets() {
        let g = complete_graph(9);
        let run = |leg: Leg| {
            let mut net = NetworkBuilder::new()
                .mode(leg.mode)
                .build(&g, |_| RotatingMulticast { heard: vec![] });
            leg.install(|| net.run(6));
            net
        };
        let seq = run(leg(Dense, 1));
        let par = run(leg(Dense, 4));
        let mb = run(leg(Mailbox, 4));
        for v in g.nodes() {
            assert_eq!(seq.program(v).heard, par.program(v).heard);
            // The mailbox inbox order (stable sort by arc position over
            // per-arc FIFO channels) reproduces the dense delivery order.
            assert_eq!(seq.program(v).heard, mb.program(v).heard);
        }
        assert_eq!(seq.metrics().rounds(), par.metrics().rounds());
        assert_eq!(seq.metrics().rounds(), mb.metrics().rounds());
    }

    #[test]
    fn multicast_delivery_covers_parallel_edges() {
        // Node 0 and node 1 are joined by two parallel edges; a multicast
        // naming the neighbour once must be delivered once per parallel arc
        // (the receiver scans its neighbour list), exactly like the old
        // `targets.contains` path.
        let mut g = WeightedGraph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(2), 1.0);
        struct ZeroMulticasts {
            received: usize,
        }
        impl NodeProgram for ZeroMulticasts {
            type Message = u32;
            fn broadcast(&mut self, ctx: &NodeContext<'_>) -> Outgoing<u32> {
                if ctx.node() == NodeId(0) {
                    Outgoing::Multicast(1, vec![NodeId(1)])
                } else {
                    Outgoing::Silent
                }
            }
            fn receive(&mut self, _ctx: &NodeContext<'_>, inbox: &[Delivery<u32>]) -> bool {
                self.received += inbox.len();
                false
            }
        }
        for mode in [Dense, Mailbox] {
            let mut net = NetworkBuilder::new()
                .mode(mode)
                .build(&g, |_| ZeroMulticasts { received: 0 });
            let stats = net.run_round();
            assert_eq!(stats.messages, 1, "accounting counts target entries");
            assert_eq!(
                net.program(NodeId(1)).received,
                2,
                "one delivery per parallel arc ({mode:?})"
            );
            assert_eq!(net.program(NodeId(2)).received, 0);
        }
    }

    #[test]
    fn buffer_reuse_after_warmup() {
        let g = complete_graph(12);
        for leg in [
            leg(Dense, 1),
            leg(Dense, 4),
            leg(Mailbox, 1),
            leg(Mailbox, 4),
        ] {
            let mut net = NetworkBuilder::new()
                .mode(leg.mode)
                .build(&g, |_| RotatingMulticast { heard: vec![] });
            // Warm-up: one full rotation cycle, so every inbox has seen its
            // maximum per-round message count at least once.
            leg.install(|| net.run(12));
            let warm = net.buffer_stats();
            let arcs = net.graph().num_arcs();
            if leg.mode == Mailbox {
                // The 12 per-node inboxes and every shard's multicast
                // stamps persist, and a mailbox round keeps no outbox
                // array. Round 11 multicasts to every neighbour, so each
                // inbox has held its node's whole degree.
                assert!(warm.mailbox_capacity_total >= 12 + arcs, "{leg:?}");
                assert_eq!(warm.multicast_stamp_slots, leg.threads * arcs);
                assert_eq!(warm.outbox_capacity, 0);
            } else {
                assert!(warm.outbox_capacity >= 12);
                assert!(warm.multicast_stamp_slots == arcs);
                assert_eq!(warm.mailbox_capacity_total, 0);
            }
            leg.install(|| net.run(24));
            assert_eq!(
                net.buffer_stats(),
                warm,
                "steady-state rounds must not grow executor buffers ({leg:?})"
            );
        }
    }

    #[test]
    fn sparse_buffer_reuse_after_warmup() {
        let g = path_graph(24);
        for threads in [1, 4] {
            let mut net = min_id_network(&g, Auto);
            on_threads(threads, || net.run(4));
            let warm = net.buffer_stats();
            on_threads(threads, || net.run(40));
            assert_eq!(
                net.buffer_stats(),
                warm,
                "steady-state sparse rounds must not grow executor buffers ({threads} threads)"
            );
        }
    }

    /// The executor keeps no inbox per node, so its scratch is O(n) entries
    /// plus one push round's copies, however many arcs the graph has. A BA
    /// flood under loss, crashes and a spam window takes push and pull
    /// rounds; the staging buffers reserved in round 1 hold every push
    /// round's copies without growing.
    #[test]
    fn scratch_is_nodes_plus_one_push_round() {
        use dkc_graph::generators::barabasi_albert;
        use rand::{rngs::StdRng, SeedableRng};
        let g = barabasi_albert(600, 10, &mut StdRng::seed_from_u64(8));
        let spam = ByzantineModel::new(0.3, Behavior::Spam.bit(), 3, 8, 17);
        let plan = FaultPlan::from_loss(LossModel::new(0.002, 3))
            .with_crash(CrashModel::new(0.05, 2, 12, 4))
            .with_byzantine(spam);
        for threads in [1, 4] {
            on_threads(threads, || {
                let mut net = min_id_faulty(&g, Auto, plan);
                let (n, arcs) = (g.num_nodes(), net.graph().num_arcs());
                let widest_push = arcs / PULL_DIVISOR;
                net.run_round();
                let reserved = net.buffer_stats().staged_capacity_total;
                assert!(reserved >= 2 * (widest_push + 1), "{threads} threads");
                let mut spammed_pushes = 0;
                for _ in 2..=30 {
                    let stats = net.run_round();
                    let copies = stats.messages + stats.dropped();
                    if copies > 0 && copies <= widest_push && spam.active(stats.round) {
                        spammed_pushes += 1;
                    }
                    let scratch = net.buffer_stats();
                    assert_eq!(
                        scratch.staged_capacity_total, reserved,
                        "{threads} threads: round {} outgrew the push staging",
                        stats.round
                    );
                    // Outboxes, step results and buckets take n entries each,
                    // the four frontier worklists (a next frontier holds changed
                    // nodes plus re-senders) a few n together.
                    assert!(
                        scratch.total() <= 10 * n + 2 * (widest_push + 1),
                        "{threads} threads round {}: {scratch:?} for {n} nodes, {arcs} arcs",
                        stats.round
                    );
                }
                assert!(
                    spammed_pushes > 0,
                    "{threads} threads: no push round under spam"
                );
                assert!(net.metrics().crashed_nodes() > 0);
                assert!(net.metrics().totals().dropped_loss > 0);
            });
        }
    }

    #[test]
    fn empty_multicast_is_silent_and_does_not_panic() {
        // Regression: an empty-target multicast in a round with no other
        // multicast used to index the unallocated stamp array in the receive
        // phase.
        struct EmptyMulticast {
            received: usize,
        }
        impl NodeProgram for EmptyMulticast {
            type Message = u32;
            fn broadcast(&mut self, _ctx: &NodeContext<'_>) -> Outgoing<u32> {
                Outgoing::Multicast(1, vec![])
            }
            fn receive(&mut self, _ctx: &NodeContext<'_>, inbox: &[Delivery<u32>]) -> bool {
                self.received += inbox.len();
                false
            }
        }
        let g = complete_graph(3);
        for threads in [1, 4] {
            let mut net = NetworkBuilder::new()
                .mode(Dense)
                .build(&g, |_| EmptyMulticast { received: 0 });
            let stats = on_threads(threads, || net.run_round());
            assert_eq!(stats.messages, 0);
            assert_eq!(stats.sending_nodes, 0);
            for v in g.nodes() {
                assert_eq!(net.program(v).received, 0);
            }
        }
    }

    #[test]
    fn multicast_loss_accounting_reflects_delivery() {
        // With certain loss, a multicast sender's copies are all dropped:
        // nothing may be counted. (Regression test: the old executor counted
        // the sender's messages even when every target was dropped.)
        let g = complete_graph(4);
        struct AlwaysMulticast;
        impl NodeProgram for AlwaysMulticast {
            type Message = u32;
            fn broadcast(&mut self, ctx: &NodeContext<'_>) -> Outgoing<u32> {
                Outgoing::Multicast(3, ctx.neighbors().to_vec())
            }
            fn receive(&mut self, _ctx: &NodeContext<'_>, inbox: &[Delivery<u32>]) -> bool {
                assert!(inbox.is_empty(), "loss=1.0 must drop every copy");
                false
            }
        }
        let mut net = NetworkBuilder::new()
            .mode(Dense)
            .faults(FaultPlan::from_loss(LossModel::new(1.0, 7)))
            .build(&g, |_| AlwaysMulticast);
        let stats = net.run_round();
        assert_eq!(stats.messages, 0);
        assert_eq!(stats.payload_bits, 0);
        assert_eq!(stats.max_message_bits, 0);
        assert_eq!(stats.sending_nodes, 0);
    }

    #[test]
    fn partial_loss_accounting_matches_the_loss_model() {
        let g = complete_graph(6);
        let model = LossModel::new(0.5, 99);
        let mut net = min_id_faulty(&g, Dense, FaultPlan::from_loss(model));
        let stats = net.run_round();
        // Recompute the expected delivered-copy count straight from the model.
        let mut expected = 0usize;
        for u in g.nodes() {
            for v in g.nodes() {
                if u != v && !model.drops(1, u, v, 0) {
                    expected += 1;
                }
            }
        }
        assert!(
            expected > 0 && expected < 30,
            "seed produced a trivial case"
        );
        assert_eq!(stats.messages, expected);
        assert_eq!(stats.payload_bits, expected * 32);
    }

    use crate::faults::{BurstLoss, ByzantineModel, CrashModel, FaultPlan, PartitionModel};

    /// Regression (the correlated-drop bug): a unicast batch carrying several
    /// distinct messages to the SAME receiver in the same round used to share
    /// one drop decision keyed on `(round, from, to)` — all copies lived or
    /// died together. The per-message index decorrelates them; delivery and
    /// accounting must agree on the per-message decisions, in both executors.
    #[test]
    fn unicast_batch_to_one_receiver_gets_independent_drop_decisions() {
        struct Batch {
            received: Vec<u64>,
        }
        impl NodeProgram for Batch {
            type Message = u64;
            fn broadcast(&mut self, ctx: &NodeContext<'_>) -> Outgoing<u64> {
                if ctx.node() == NodeId(0) {
                    // Four distinct messages to the same neighbour each round.
                    Outgoing::Unicast((0..4).map(|k| (NodeId(1), 100 + k)).collect())
                } else {
                    Outgoing::Silent
                }
            }
            fn receive(&mut self, _ctx: &NodeContext<'_>, inbox: &[Delivery<u64>]) -> bool {
                self.received.extend(inbox.iter().map(|d| d.msg));
                !inbox.is_empty()
            }
        }
        let mut g = WeightedGraph::new(2);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        let model = LossModel::new(0.5, 7);
        let rounds = 60;
        let run = |leg: Leg| {
            let mut net = NetworkBuilder::new()
                .mode(leg.mode)
                .faults(FaultPlan::from_loss(model))
                .build(&g, |_| Batch { received: vec![] });
            leg.install(|| net.run(rounds));
            let received = net.program(NodeId(1)).received.clone();
            let (_, metrics) = net.into_parts();
            (received, metrics)
        };
        let (received, metrics) = run(leg(Dense, 1));
        // Per round, the delivered subset must match the per-index model
        // decisions — not an all-or-nothing link-level coin flip.
        let mut expected = Vec::new();
        for r in 1..=rounds {
            for k in 0..4u64 {
                if !model.drops(r, NodeId(0), NodeId(1), k as usize) {
                    expected.push(100 + k);
                }
            }
        }
        assert_eq!(received, expected);
        let partial_rounds = (1..=rounds)
            .filter(|&r| {
                let delivered = (0..4)
                    .filter(|&k| !model.drops(r, NodeId(0), NodeId(1), k))
                    .count();
                delivered > 0 && delivered < 4
            })
            .count();
        assert!(
            partial_rounds > 10,
            "decisions still correlated: no partially-delivered batches"
        );
        // Accounting counted exactly the delivered copies.
        assert_eq!(metrics.total_messages(), expected.len());
        assert_eq!(metrics.totals().dropped_loss, rounds * 4 - expected.len());
        // Four threads agree exactly (the program accumulates duplicates, so
        // it is not delta-driven and runs dense rounds under every mode).
        let (par_received, par_metrics) = run(leg(Dense, 4));
        assert_eq!(par_received, received);
        assert_eq!(par_metrics.first_divergence(&metrics), None);
        // The mailbox backend preserves the batch order of same-arc unicasts
        // and agrees on every counter, including the per-index drops.
        let (mb_received, mb_metrics) = run(leg(Mailbox, 4));
        assert_eq!(mb_received, received);
        assert_eq!(mb_metrics.first_divergence(&metrics), None);
    }

    /// Every execution mode agrees on state and counters under a fault plan
    /// mixing all four components.
    #[test]
    fn all_modes_agree_under_a_full_fault_plan() {
        let g = path_graph(20);
        let plan = FaultPlan::from_loss(LossModel::new(0.2, 5))
            .with_burst(BurstLoss::new(6, 2, 9))
            .with_crash(CrashModel::new(0.15, 2, 10, 13))
            .with_partition(PartitionModel::new(0.3, 4, 9, 21));
        // The mailbox backend agrees with dense lockstep on every counter,
        // including the measured wire bits and per-component drop counts.
        assert_all_legs_agree(&g, plan, 30);
    }

    /// The tentpole acceptance at the executor level: under a byzantine plan
    /// with every behavior enabled plus quarantine, every mode agrees on
    /// final values and each activation on every counter (tamper and spam
    /// accounting included), and the schedule-driven byzantine counters
    /// (accusations, quarantined nodes) are byte-identical per round across
    /// activations — they are pure hash schedules, independent of executor
    /// traffic.
    #[test]
    fn all_modes_agree_under_byzantine_and_quarantine() {
        let g = path_graph(20);
        let plan = FaultPlan::none().with_byzantine(
            ByzantineModel::new(0.35, ByzantineModel::ALL_BEHAVIORS, 2, 16, 23).with_quarantine(2),
        );
        assert_all_legs_agree(&g, plan, 30);
        let reference = min_id_ran(&g, leg(Dense, 1), plan, 30);
        assert!(reference.metrics().totals().byzantine_accusations > 0);
        assert!(reference.metrics().totals().quarantined_nodes > 0);
        for leg in ALL_LEGS {
            let net = min_id_ran(&g, leg, plan, 30);
            for (a, b) in reference
                .metrics()
                .rounds()
                .iter()
                .zip(net.metrics().rounds())
            {
                assert_eq!(
                    (a.byzantine_accusations, a.quarantined_nodes),
                    (b.byzantine_accusations, b.quarantined_nodes),
                    "{leg:?} round {}",
                    a.round
                );
            }
        }
    }

    /// Spam accounting: an active spammer puts [`ByzantineModel::SPAM_FACTOR`]
    /// copies of each frame on the wire, every copy individually counted —
    /// and in a drop-free plan, individually delivered.
    #[test]
    fn spam_multiplies_wire_copies_per_sender() {
        let g = complete_graph(8);
        let model = ByzantineModel::new(0.5, Behavior::Spam.bit(), 2, 4, 31);
        let spammers: usize = (0..8)
            .filter(|&v| model.behavior_of(NodeId::new(v)) == Some(Behavior::Spam))
            .count();
        assert!(spammers > 0, "seed produced no spammers");
        let mut net = min_id_faulty(&g, Dense, FaultPlan::none().with_byzantine(model));
        net.run(6);
        for r in net.metrics().rounds() {
            let expected = if model.active(r.round) {
                (8 - spammers) * 7 + spammers * 7 * ByzantineModel::SPAM_FACTOR
            } else {
                8 * 7
            };
            assert_eq!(r.messages, expected, "round {}", r.round);
        }
    }

    /// Quarantine silences a node's outgoing traffic but never its inbox:
    /// on a complete graph the quarantined nodes still converge to the global
    /// minimum, while the per-round message count visibly shrinks once the
    /// quarantine takes effect.
    #[test]
    fn quarantine_silences_outgoing_but_still_receives() {
        let g = complete_graph(12);
        // detect = 1.0 and threshold 1: every byzantine node is accused in
        // round 2 and quarantined from round 3 on.
        let model = ByzantineModel::new(0.4, ByzantineModel::ALL_BEHAVIORS, 2, 20, 47)
            .with_detect(1.0)
            .with_quarantine(1);
        let quarantined: Vec<usize> = (0..12)
            .filter(|&v| model.quarantine_round(NodeId::new(v)) == Some(3))
            .collect();
        assert!(!quarantined.is_empty(), "seed produced no quarantines");
        // Keep the true minimum honest so its floods are never tampered.
        assert!(
            !model.is_byzantine(NodeId(0)),
            "seed made node 0 byzantine; pick another seed"
        );
        let mut net = min_id_faulty(&g, Dense, FaultPlan::none().with_byzantine(model));
        net.run(20);
        // Quarantined nodes keep receiving: node 0 broadcasts its id to
        // everyone directly, so every node — quarantined or not — ends at 0.
        for v in g.nodes() {
            assert_eq!(net.program(v).best, 0, "node {v}");
        }
        let rounds = net.metrics().rounds();
        // From round 3 on, the quarantined nodes' 11 outgoing copies each are
        // gone from the wire (the remaining byzantine nodes may also mute or
        // spam, so compare against the exact pre-quarantine round-1 count).
        assert_eq!(rounds[0].messages, 12 * 11);
        assert!(
            rounds[3].messages <= (12 - quarantined.len()) * 11 * ByzantineModel::SPAM_FACTOR,
            "quarantined senders still on the wire in round 4"
        );
        assert_eq!(net.metrics().totals().quarantined_nodes, quarantined.len());
    }

    /// A byzantine window opening AFTER the protocol has quiesced must
    /// reactivate the sparse frontier: the liar's newly tampered (smaller)
    /// value floods the graph, and sparse stays value-identical to dense.
    #[test]
    fn lie_window_reactivates_quiescent_sparse_frontier() {
        let g = path_graph(12);
        // MinIdFlood on a 12-path quiesces within ~11 rounds; the lie window
        // opens well after that.
        let model = ByzantineModel::new(0.3, Behavior::Lie.bit(), 15, 18, 5);
        let liars: usize = (0..12)
            .filter(|&v| model.behavior_of(NodeId::new(v)) == Some(Behavior::Lie))
            .count();
        assert!(liars > 0, "seed produced no liars");
        let plan = FaultPlan::none().with_byzantine(model);
        let mut dense = min_id_faulty(&g, Dense, plan);
        let mut sparse = min_id_faulty(&g, Auto, plan);
        dense.run(25);
        sparse.run(25);
        for v in g.nodes() {
            assert_eq!(dense.program(v).best, sparse.program(v).best, "node {v}");
        }
        let by_round = sparse.metrics().rounds();
        // Quiet before the window…
        assert_eq!(
            by_round[13].messages, 0,
            "frontier not quiescent by round 14"
        );
        // …and lying (tampered ids scale DOWN, so the min-merge absorbs them
        // and the flood restarts) once it opens.
        assert!(
            by_round[14].messages > 0,
            "sparse frontier failed to wake for the byzantine window"
        );
    }

    /// The acceptance criterion of the fault PR: an empty (or trivial) plan
    /// reproduces the fault-free run bit-for-bit, in every mode.
    #[test]
    fn trivial_plan_is_bit_identical_to_no_plan() {
        let g = complete_graph(10);
        let trivial = [
            FaultPlan::none(),
            FaultPlan::from_loss(LossModel::new(0.0, 7)),
            FaultPlan::none().with_burst(BurstLoss::new(5, 0, 1)),
            FaultPlan::none().with_crash(CrashModel::new(0.0, 1, 4, 2)),
            FaultPlan::none().with_partition(PartitionModel::new(0.0, 1, 4, 3)),
        ];
        for leg in ALL_LEGS {
            let clean = min_id_ran(&g, leg, FaultPlan::none(), 5);
            for plan in trivial {
                let planned = min_id_ran(&g, leg, plan, 5);
                assert_eq!(
                    clean.metrics().first_divergence(planned.metrics()),
                    None,
                    "{leg:?} {plan:?}"
                );
                for v in g.nodes() {
                    assert_eq!(clean.program(v).best, planned.program(v).best);
                }
            }
        }
    }

    /// Crash-stop: crashed nodes stop sending and stepping, leave the sparse
    /// frontier, and the cumulative crash counter reports them.
    #[test]
    fn crashed_nodes_leave_the_frontier_and_freeze() {
        let g = path_graph(30);
        // Deterministically crash ~40% of nodes between rounds 2 and 6.
        let plan = FaultPlan::none().with_crash(CrashModel::new(0.4, 2, 6, 99));
        let crash = plan.crash.unwrap();
        let crashed: Vec<usize> = (0..30)
            .filter(|&v| crash.crash_round(NodeId::new(v)).is_some())
            .collect();
        assert!(!crashed.is_empty(), "seed produced no crashes");

        let mut clean = min_id_network(&g, Auto);
        let mut faulty = min_id_faulty(&g, Auto, plan);
        let mut dense = min_id_faulty(&g, Dense, plan);
        clean.run(40);
        faulty.run(40);
        dense.run(40);

        // Dense and sparse agree on the final state under the crash plan.
        for v in g.nodes() {
            assert_eq!(faulty.program(v).best, dense.program(v).best, "node {v}");
        }
        // A node crashed at round r last stepped in round r - 1, when the
        // flood had reached it from at most r - 1 hops away — unless an
        // upstream node crashed even earlier and never relayed the smaller
        // id, in which case it knows strictly less.
        for &v in &crashed {
            let r = crash.crash_round(NodeId::new(v)).unwrap();
            let frozen = faulty.program(NodeId::new(v)).best;
            assert!(
                frozen >= (v as u32).saturating_sub((r - 1) as u32),
                "node {v} crashed at round {r} but knows id {frozen}"
            );
        }
        // Strictly fewer node updates than the fault-free run (crashed nodes
        // left the frontier), and the crash counter is cumulative.
        assert!(
            faulty.metrics().total_node_updates() < clean.metrics().total_node_updates(),
            "crash run must do strictly less work ({} vs {})",
            faulty.metrics().total_node_updates(),
            clean.metrics().total_node_updates()
        );
        assert_eq!(faulty.metrics().crashed_nodes(), crashed.len());
        let per_round: Vec<usize> = faulty
            .metrics()
            .rounds()
            .iter()
            .map(|r| r.crashed_nodes)
            .collect();
        assert!(per_round.windows(2).all(|w| w[0] <= w[1]), "monotone");
        assert_eq!(per_round[0], 0, "crash window starts at round 2");
        // No drops were involved: crashes are not counted as dropped copies.
        assert_eq!(faulty.metrics().total_dropped(), 0);
    }

    /// Partition: during the window nothing crosses the cut (both directions),
    /// partitioned-but-alive senders stay in the frontier, and after healing
    /// the protocol converges to the same fixpoint as a fault-free run.
    #[test]
    fn partition_heals_and_senders_stay_in_frontier() {
        let g = path_graph(12);
        let plan = FaultPlan::none().with_partition(PartitionModel::new(0.5, 2, 8, 17));
        let part = plan.partition.unwrap();
        assert!(
            (1..12u32).any(|v| part.minority_side(NodeId(v)) != part.minority_side(NodeId(0))),
            "seed produced a trivial cut"
        );
        for mode in [Dense, Auto] {
            let mut net = min_id_faulty(&g, mode, plan);
            net.run(40);
            // Healing: everyone still converges to the global minimum.
            for v in g.nodes() {
                assert_eq!(net.program(v).best, 0, "{mode:?} node {v}");
            }
            assert!(
                net.metrics().totals().dropped_partition > 0,
                "{mode:?}: the cut never dropped anything"
            );
            assert_eq!(net.metrics().totals().dropped_loss, 0);
            assert_eq!(net.metrics().totals().dropped_burst, 0);
        }
        // Sparse and dense deliver the same rounds-to-convergence.
        let mut dense = min_id_faulty(&g, Dense, plan);
        let mut sparse = min_id_faulty(&g, Auto, plan);
        let dr = dense.run_until_quiescent(100);
        let sr = sparse.run_until_quiescent(100);
        assert_eq!(dr, sr, "convergence rounds must agree");
    }

    /// Burst loss: dark windows drop copies (counted per component) but the
    /// periodic re-sends still converge the flood, identically across modes.
    #[test]
    fn burst_loss_drops_in_windows_and_converges() {
        let g = path_graph(10);
        let plan = FaultPlan::none().with_burst(BurstLoss::new(4, 2, 33));
        let mut dense = min_id_faulty(&g, Dense, plan);
        let mut sparse = min_id_faulty(&g, Auto, plan);
        dense.run(40);
        sparse.run(40);
        for v in g.nodes() {
            assert_eq!(dense.program(v).best, 0, "node {v}");
            assert_eq!(sparse.program(v).best, 0, "node {v}");
        }
        assert!(dense.metrics().totals().dropped_burst > 0);
        assert_eq!(dense.metrics().totals().dropped_loss, 0);
        // Burst drops plus delivered copies account for every copy a dense
        // round put on the wire: n-1 edges, 2 copies per edge per round.
        let per_round_copies = 2 * (10 - 1);
        for r in dense.metrics().rounds() {
            assert_eq!(
                r.messages + r.dropped_burst,
                per_round_copies,
                "round {}",
                r.round
            );
        }
    }

    /// Drop attribution is exclusive: each dropped copy is charged to exactly
    /// one component, and totals reconcile with delivered messages.
    #[test]
    fn drop_counters_reconcile_with_deliveries() {
        let g = complete_graph(8);
        let plan = FaultPlan::from_loss(LossModel::new(0.3, 3))
            .with_burst(BurstLoss::new(5, 2, 4))
            .with_partition(PartitionModel::new(0.4, 2, 6, 5))
            .with_byzantine(ByzantineModel::new(0.4, Behavior::Mute.bit(), 2, 6, 9));
        let mut net = min_id_faulty(&g, Dense, plan);
        net.run(8);
        let m = net.metrics();
        assert!(m.totals().dropped_loss > 0);
        assert!(m.totals().dropped_burst > 0);
        assert!(m.totals().dropped_partition > 0);
        assert!(m.totals().dropped_byzantine > 0);
        // 8*7 copies put on the wire per round (mute-only byzantine nodes
        // still send every copy — a hashed half just vanishes in flight);
        // all either delivered or attributed to exactly one fault component.
        for r in m.rounds() {
            assert_eq!(
                r.messages
                    + r.dropped_loss
                    + r.dropped_burst
                    + r.dropped_partition
                    + r.dropped_byzantine,
                8 * 7,
                "round {}",
                r.round
            );
        }
    }

    #[test]
    #[should_panic(expected = "before running")]
    fn fault_plan_must_be_installed_before_running() {
        let g = complete_graph(3);
        let mut net = min_id_network(&g, Dense);
        net.run(1);
        net.install_faults(FaultPlan::from_loss(LossModel::new(0.5, 1)));
    }

    #[test]
    #[should_panic(expected = "before running")]
    fn shard_partition_must_be_installed_before_running() {
        let g = complete_graph(3);
        let mut net = min_id_network(&g, Auto);
        net.run(1);
        net.install_sharding(2, 0);
    }

    /// Strips the counters that only sharded execution populates, so a
    /// multi-shard run can be compared field-for-field against an unsharded
    /// one. Everything else must be byte-identical.
    fn strip_boundary(rounds: &[RoundStats]) -> Vec<RoundStats> {
        rounds
            .iter()
            .map(|r| RoundStats {
                boundary_bits: 0,
                boundary_nodes: 0,
                ..*r
            })
            .collect()
    }

    /// Tentpole acceptance (unit form; the cross-crate proptest pins the same
    /// property over random graphs × fault plans): sharded execution is
    /// byte-identical to unsharded frontier rounds on every deterministic
    /// counter and every node value, for any shard count, under a full fault
    /// plan.
    #[test]
    fn sharded_is_byte_identical_across_shard_counts() {
        let g = path_graph(17);
        let plan = FaultPlan::from_loss(LossModel::new(0.25, 3))
            .with_burst(BurstLoss::new(5, 2, 8))
            .with_crash(CrashModel::new(0.2, 2, 9, 4))
            .with_partition(PartitionModel::new(0.3, 3, 7, 6))
            .with_byzantine(
                ByzantineModel::new(0.2, ByzantineModel::ALL_BEHAVIORS, 2, 12, 7)
                    .with_detect(0.5)
                    .with_quarantine(3),
            );
        let mut reference = min_id_faulty(&g, Auto, plan);
        reference.run(25);
        for shards in [1usize, 2, 4, 8] {
            let mut net = NetworkBuilder::new()
                .shards(shards)
                .shard_seed(42)
                .faults(plan)
                .build(&g, |ctx| MinIdFlood { best: ctx.node().0 });
            assert_eq!(net.shard_config(), Some((shards, 42)));
            net.run(25);
            assert_eq!(
                strip_boundary(reference.metrics().rounds()),
                strip_boundary(net.metrics().rounds()),
                "shards={shards}"
            );
            for v in g.nodes() {
                assert_eq!(
                    reference.program(v).best,
                    net.program(v).best,
                    "shards={shards} node {v}"
                );
            }
            if shards == 1 {
                // Single shard: no cut, no boundary traffic, full equality.
                assert_eq!(reference.metrics().rounds(), net.metrics().rounds());
                assert_eq!(net.metrics().total_boundary_bits(), 0);
            } else {
                // A path partitioned by hash always cuts some edge, and each
                // boundary frame costs real measured bits.
                assert!(net.metrics().total_boundary_bits() > 0, "shards={shards}");
                assert!(net.metrics().total_boundary_nodes() > 0, "shards={shards}");
            }
        }
    }

    /// Boundary traffic is sparse: once the frontier collapses, boundary
    /// frames stop too (frontier ∩ boundary ⊆ frontier).
    #[test]
    fn boundary_traffic_follows_the_frontier() {
        let g = path_graph(32);
        let mut net = NetworkBuilder::new()
            .shards(4)
            .build(&g, |ctx| MinIdFlood { best: ctx.node().0 });
        net.run(200);
        let rounds = net.metrics().rounds();
        let last_active = net.metrics().last_active_round().expect("converges");
        for r in rounds {
            if r.round > last_active + 1 {
                assert_eq!(r.boundary_bits, 0, "round {}", r.round);
                assert_eq!(r.boundary_nodes, 0, "round {}", r.round);
            }
            // Boundary senders are frontier members that own a cut arc.
            assert!(r.boundary_nodes <= r.sending_nodes, "round {}", r.round);
        }
    }

    #[test]
    #[should_panic(expected = "sharded execution runs frontier rounds")]
    fn sharding_rejects_the_mailbox_backend() {
        let g = path_graph(4);
        let _ = NetworkBuilder::new()
            .mode(Mailbox)
            .shards(2)
            .build(&g, |ctx| MinIdFlood { best: ctx.node().0 });
    }

    #[test]
    #[should_panic(expected = "1025 shards exceeds the maximum of 1024")]
    fn shard_count_is_capped_at_max_shards() {
        let g = path_graph(4);
        let _ = NetworkBuilder::new()
            .shards(MAX_SHARDS + 1)
            .build(&g, |ctx| MinIdFlood { best: ctx.node().0 });
    }

    #[test]
    #[should_panic(expected = "sharded execution runs frontier rounds")]
    fn sharding_rejects_dense_modes() {
        let g = path_graph(4);
        let _ = NetworkBuilder::new()
            .mode(Dense)
            .shards(2)
            .build(&g, |ctx| MinIdFlood { best: ctx.node().0 });
    }

    /// Push and pull rounds deliver the same copies. A 12×12 grid floods
    /// under loss, crashes and a byzantine lie window that re-activates the
    /// liars mid-run, on one thread and on four and three ways each: every
    /// round pushed, every round pulled, and each round choosing by
    /// [`PULL_DIVISOR`]. Every round's counters and every node's value agree,
    /// and the unforced run took both directions.
    #[test]
    fn push_and_pull_rounds_agree_round_by_round() {
        let g = grid_graph(12, 12);
        let lies = ByzantineModel::new(0.1, Behavior::Lie.bit(), 8, 11, 6);
        assert!(
            g.nodes()
                .any(|v| lies.behavior_of(v) == Some(Behavior::Lie)),
            "seed produced no liars"
        );
        let plan = FaultPlan::from_loss(LossModel::new(0.05, 3))
            .with_crash(CrashModel::new(0.05, 2, 10, 4))
            .with_byzantine(lies);
        let run = |threads: usize, force_pull: Option<bool>| {
            let mut net = min_id_faulty(&g, Auto, plan);
            net.force_pull = force_pull;
            on_threads(threads, || net.run(24));
            net
        };
        let reference = run(1, None);
        for threads in [1, 4] {
            for force_pull in [None, Some(false), Some(true)] {
                let net = run(threads, force_pull);
                assert_eq!(
                    net.metrics().first_divergence(reference.metrics()),
                    None,
                    "{threads} threads, force_pull={force_pull:?}"
                );
                for v in g.nodes() {
                    assert_eq!(
                        net.program(v).best,
                        reference.program(v).best,
                        "{threads} threads, force_pull={force_pull:?} node {v}"
                    );
                }
            }
        }
        let threshold = reference.graph().num_arcs() / PULL_DIVISOR;
        let copies: Vec<usize> = reference
            .metrics()
            .rounds()
            .iter()
            .map(|r| r.messages + r.dropped())
            .collect();
        assert!(copies.iter().any(|&c| c > threshold), "{copies:?}");
        assert!(
            copies.iter().any(|&c| c > 0 && c <= threshold),
            "{copies:?}"
        );
    }

    /// Tentpole acceptance (unit form; the cross-crate proptest pins the
    /// same property over random graphs): the mailbox backend's RoundStats —
    /// including measured wire bits and per-component drop counters — are
    /// byte-identical to dense lockstep, for any thread (shard) count and
    /// even under a tiny mailbox capacity that forces backpressure stalls.
    #[test]
    fn mailbox_is_byte_identical_across_thread_counts() {
        let g = path_graph(17);
        let plan = FaultPlan::from_loss(LossModel::new(0.25, 3))
            .with_burst(BurstLoss::new(5, 2, 8))
            .with_crash(CrashModel::new(0.2, 2, 9, 4))
            .with_partition(PartitionModel::new(0.3, 3, 7, 6));
        let mut reference = min_id_faulty(&g, Dense, plan);
        reference.run(25);
        for threads in [1, 2, 3, 8, 64] {
            let mut mb = NetworkBuilder::new()
                .mode(Mailbox)
                .faults(plan)
                .mailbox_capacity(2)
                .build(&g, |ctx| MinIdFlood { best: ctx.node().0 });
            on_threads(threads, || mb.run(25));
            assert_eq!(
                reference.metrics().first_divergence(mb.metrics()),
                None,
                "threads={threads}"
            );
            for v in g.nodes() {
                assert_eq!(reference.program(v).best, mb.program(v).best);
            }
            // Well-formed in-tree programs never fail wire decoding.
            assert!(mb.decode_faults().is_empty());
        }
    }

    /// A frame over the receiver's payload cap is rejected on decode and
    /// attributed to the **sending** node — never a panic. (In-tree programs
    /// never hit this; the cap guards the protocol boundary.)
    #[test]
    fn oversized_frames_are_attributed_to_the_sender() {
        let g = path_graph(4);
        let mut net = NetworkBuilder::new()
            .mode(Mailbox)
            // u32 payloads are 4 bytes; a 3-byte cap rejects every frame.
            .max_frame_bytes(3)
            .build(&g, |ctx| MinIdFlood { best: ctx.node().0 });
        net.run(3);
        // Nothing was ever delivered, so nothing changed.
        for v in g.nodes() {
            assert_eq!(net.program(v).best, v.0);
        }
        // Each rejected frame is charged to its sender: per round the path
        // endpoints send 1 copy, the interior nodes 2.
        assert_eq!(net.decode_faults(), &[3, 6, 6, 3]);
        // Send-side accounting is unaffected (the sender put the copies on
        // the wire); rejection is receiver-side attribution, not a drop.
        assert_eq!(net.metrics().total_messages(), 3 * 6);
    }

    #[test]
    #[should_panic]
    fn program_count_must_match_node_count() {
        let g = complete_graph(3);
        let csr = CsrGraph::from(&g);
        let _ = NetworkBuilder::new().build_from_parts(csr, vec![MinIdFlood { best: 0 }]);
    }

    // -----------------------------------------------------------------------
    // Checkpoint/restore.
    // -----------------------------------------------------------------------

    impl SnapshotState for MinIdFlood {
        fn save_state(&self, w: &mut WireWriter) -> Result<(), crate::wire::WireError> {
            self.best.serialize(w)
        }

        fn load_state(&mut self, r: &mut WireReader<'_>) -> Result<(), CheckpointError> {
            self.best = r.read_u32()?;
            Ok(())
        }
    }

    fn checkpoint_plan() -> FaultPlan {
        FaultPlan::from_loss(LossModel::new(0.3, 7))
            .with_burst(crate::faults::BurstLoss::new(5, 2, 11))
            .with_crash(crate::faults::CrashModel::new(0.2, 2, 8, 13))
            .with_partition(crate::faults::PartitionModel::new(0.3, 3, 6, 17))
            .with_byzantine(
                crate::faults::ByzantineModel::new(
                    0.3,
                    crate::faults::ByzantineModel::ALL_BEHAVIORS,
                    2,
                    9,
                    19,
                )
                .with_quarantine(2),
            )
    }

    /// The tentpole guarantee at the executor level: a run snapshotted after
    /// *any* round and restored into a fresh network finishes byte-identical
    /// — final values, per-round counters, the lot — to an uninterrupted run,
    /// in every execution mode, under a full fault plan.
    #[test]
    fn save_restore_is_byte_identical_at_every_round() {
        let g = path_graph(14);
        let plan = checkpoint_plan();
        let total = 12usize;
        for leg in ALL_LEGS {
            let reference = min_id_ran(&g, leg, plan, total);
            for cut in 0..=total {
                let first = min_id_ran(&g, leg, plan, cut);
                let state = first.save_state().expect("save");
                drop(first); // the "killed" process

                let mut resumed = min_id_faulty(&g, leg, plan);
                resumed.restore_state(&state).expect("restore");
                assert_eq!(resumed.round(), cut);
                leg.install(|| resumed.run(total - cut));

                for v in g.nodes() {
                    assert_eq!(
                        reference.program(v).best,
                        resumed.program(v).best,
                        "{leg:?} cut at {cut}, node {v}"
                    );
                }
                assert_eq!(
                    reference.metrics().first_divergence(resumed.metrics()),
                    None,
                    "{leg:?} cut at {cut}"
                );
            }
        }
    }

    /// Checkpoint/restore composes with multi-shard execution: the boundary
    /// buffers are drained every round, so a round boundary carries no
    /// sharding state beyond the (rebuilt-from-config) partition — cut at any
    /// round and the resumed run finishes byte-identical.
    #[test]
    fn sharded_save_restore_is_byte_identical_at_every_round() {
        let g = path_graph(14);
        let plan = checkpoint_plan();
        let total = 12usize;
        let build = || {
            NetworkBuilder::new()
                .shards(4)
                .shard_seed(9)
                .faults(plan)
                .build(&g, |ctx| MinIdFlood { best: ctx.node().0 })
        };
        let mut reference = build();
        reference.run(total);
        for cut in 0..=total {
            let mut first = build();
            first.run(cut);
            let state = first.save_state().expect("save");
            drop(first);

            let mut resumed = build();
            resumed.restore_state(&state).expect("restore");
            assert_eq!(resumed.round(), cut);
            resumed.run(total - cut);

            for v in g.nodes() {
                assert_eq!(
                    reference.program(v).best,
                    resumed.program(v).best,
                    "cut at {cut}, node {v}"
                );
            }
            assert_eq!(
                reference.metrics().rounds(),
                resumed.metrics().rounds(),
                "cut at {cut}"
            );
        }
    }

    /// Every unsharded leg checkpoints on the same absolute boundaries and
    /// resumes from disk to the uninterrupted run.
    #[test]
    fn run_with_checkpoints_writes_at_boundaries_and_resumes_from_disk() {
        let dir = std::env::temp_dir().join(format!("dkc-net-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.dkck");
        let g = path_graph(10);
        let plan = checkpoint_plan();

        for leg in ALL_LEGS.into_iter().filter(|leg| leg.shards == 0) {
            let reference = min_id_ran(&g, leg, plan, 9);

            let builder = NetworkBuilder::new().mode(leg.mode).faults(plan);
            let mut interrupted = builder.build(&g, |ctx| MinIdFlood { best: ctx.node().0 });
            // "Killed" after 5 rounds: the latest checkpoint on disk is round 4.
            leg.install(|| interrupted.run_with_checkpoints(5, 2, &path, b"run-params"))
                .unwrap();
            drop(interrupted);

            let image = checkpoint::read_checkpoint_bytes(&path).unwrap();
            let (preamble, state) = checkpoint::decode_checkpoint(&image).unwrap();
            assert_eq!(preamble, b"run-params");
            let mut resumed = builder.build(&g, |ctx| MinIdFlood { best: ctx.node().0 });
            resumed.restore_state(state).unwrap();
            assert_eq!(
                resumed.round(),
                4,
                "{leg:?}: latest checkpoint is the round-4 boundary"
            );
            leg.install(|| resumed.run_with_checkpoints(9 - 4, 2, &path, b"run-params"))
                .unwrap();

            for v in g.nodes() {
                assert_eq!(
                    reference.program(v).best,
                    resumed.program(v).best,
                    "{leg:?}"
                );
            }
            assert_eq!(
                reference.metrics().rounds(),
                resumed.metrics().rounds(),
                "{leg:?}"
            );

            // The resumed run checkpointed at absolute boundaries: the file
            // now holds the round-8 snapshot (9 is not a boundary).
            let image = checkpoint::read_checkpoint_bytes(&path).unwrap();
            let (_, state) = checkpoint::decode_checkpoint(&image).unwrap();
            let mut last = builder.build(&g, |ctx| MinIdFlood { best: ctx.node().0 });
            last.restore_state(state).unwrap();
            assert_eq!(last.round(), 8, "{leg:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A checkpoint carries the decode-fault attribution: a mailbox run
    /// whose every frame is over the cap, saved after round 1 or 2 and
    /// resumed, charges its senders exactly as the uninterrupted run does.
    #[test]
    fn decode_faults_survive_save_and_restore() {
        let g = path_graph(4);
        let build = || {
            NetworkBuilder::new()
                .mode(Mailbox)
                // u32 payloads are 4 bytes; a 3-byte cap rejects every frame.
                .max_frame_bytes(3)
                .build(&g, |ctx| MinIdFlood { best: ctx.node().0 })
        };
        let mut reference = build();
        reference.run(3);
        assert_eq!(reference.decode_faults(), &[3, 6, 6, 3]);
        for cut in [1u32, 2] {
            let mut first = build();
            first.run(cut as usize);
            assert_eq!(first.decode_faults(), &[cut, 2 * cut, 2 * cut, cut]);
            let state = first.save_state().unwrap();
            drop(first);

            let mut resumed = build();
            resumed.restore_state(&state).unwrap();
            assert_eq!(resumed.decode_faults(), &[cut, 2 * cut, 2 * cut, cut]);
            resumed.run(3 - cut as usize);
            assert_eq!(resumed.decode_faults(), &[3, 6, 6, 3], "cut at {cut}");
            assert_eq!(
                reference.metrics().first_divergence(resumed.metrics()),
                None,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn restore_rejects_mismatched_runs() {
        let g = path_graph(8);
        let plan = checkpoint_plan();
        let mut src = min_id_faulty(&g, Dense, plan);
        src.run(3);
        let state = src.save_state().unwrap();

        // Different node count.
        let other = path_graph(9);
        let err = min_id_faulty(&other, Dense, plan)
            .restore_state(&state)
            .unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");

        // Different fault plan.
        let err = min_id_faulty(&g, Dense, FaultPlan::none())
            .restore_state(&state)
            .unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");

        // Wrong activation (a dense checkpoint into frontier rounds).
        let err = min_id_faulty(&g, Auto, plan)
            .restore_state(&state)
            .unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
        // ... but any mode that runs dense rounds accepts it.
        for mode in [Dense, Mailbox] {
            min_id_faulty(&g, mode, plan).restore_state(&state).unwrap();
        }

        // Truncated and trailing-garbage state payloads.
        let err = min_id_faulty(&g, Dense, plan)
            .restore_state(&state[..state.len() - 1])
            .unwrap_err();
        assert_eq!(err, CheckpointError::Truncated);
        let mut trailing = state.clone();
        trailing.push(0);
        let err = min_id_faulty(&g, Dense, plan)
            .restore_state(&trailing)
            .unwrap_err();
        assert_eq!(err, CheckpointError::TrailingBytes { remaining: 1 });
    }
}
