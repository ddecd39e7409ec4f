//! The mailbox executor backend ([`crate::ExecutionMode::Mailbox`]): a
//! per-round transport.
//!
//! [`run_round`] runs one dense round as message passing: the nodes split
//! into [`rayon::current_num_threads`] contiguous **shards** for that round
//! (shard 0 on the calling thread, the others on scoped threads), and every
//! copy crosses to its receiver's shard as a **wire-encoded byte frame**
//! (see [`crate::wire`]) through that shard's bounded channel; there is no
//! shared outbox snapshot. It hands back the round's [`RoundStats`]; the
//! round loop every mode shares (`Network::step_round`) owns the rest. The
//! per-node inboxes and each shard's pending frames persist between rounds
//! ([`MailboxScratch`]).
//!
//! ## Why results are byte-identical to dense rounds
//!
//! * Send-side fault decisions and accounting reuse the `produce_outgoing`
//!   every executor runs, so every send counter agrees by construction (the
//!   measured `wire_bits` runs the frame's own encoder into a byte count,
//!   [`crate::wire::payload_len`]).
//! * A sender's copies are the ones [`RoundCopies::for_each`] walks, with
//!   the positions, tamper salts and spam factors [`RoundCopies`] gives every
//!   executor. A message is encoded once and its frame shared by its copies;
//!   only a tampered copy gets a frame of its own (tampering is
//!   length-preserving, see [`crate::message::Tamper`]).
//! * Each arc's frames are sent by one thread, so per-arc FIFO order holds
//!   end to end; the receiver **stable-sorts** its inbox by receiver-local
//!   arc position, reproducing the dense delivery order.
//! * Every non-halted, non-crashed node steps, once its shard's channel has
//!   no sender left: every shard drops its senders when its send phase ends.
//!
//! ## Backpressure without deadlock
//!
//! Each mailbox holds [`MAILBOX_CAPACITY`] frames. A sender whose
//! `try_send` hits a full mailbox drains its *own* mailbox into a pending
//! buffer before retrying, so any cycle of blocked senders contains a shard
//! that is making progress; the pending frames are received first, ahead of
//! the channel's.
//!
//! ## Decode failures
//!
//! A frame that fails [`crate::wire::decode_frame`] (truncated, a payload
//! over [`MAX_FRAME_BYTES`], trailing garbage, bad bytes) is dropped and
//! **attributed to the sending node** in [`crate::Network::decode_faults`]:
//! tofn-style per-peer fault attribution instead of a panic. In-tree
//! programs never produce such frames; the tests reach this path with a
//! message type whose decoder rejects every frame.

use crate::faults::FaultPlan;
use crate::message::Tamper;
use crate::metrics::RoundStats;
use crate::network::{produce_outgoing, Network, RoundCopies, Schedules};
use crate::program::{Delivery, NodeContext, NodeProgram};
use crate::wire::{decode_frame, encode_frame};
use dkc_graph::{CsrGraph, NodeId};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;

/// Frames each shard's channel holds before a sender must wait.
pub(crate) const MAILBOX_CAPACITY: usize = 256;

/// The largest frame payload a receiver decodes, in bytes; a longer frame is
/// a decode fault of its sender.
const MAX_FRAME_BYTES: usize = 1 << 20;

/// One delivered message copy on one arc. `pos` is the receiver-local arc
/// position (what dense delivery reports in [`Delivery::pos`]); `bytes` is
/// the complete wire frame, shared between the copies of one message.
struct Frame {
    sender: u32,
    receiver: u32,
    pos: u32,
    bytes: Arc<[u8]>,
}

/// The mailbox backend's scratch, kept across rounds (see the module docs).
pub(crate) struct MailboxScratch<M> {
    /// One inbox per node, in node order; empty between rounds.
    inboxes: Vec<Vec<Delivery<M>>>,
    /// One entry per shard of the latest round.
    shards: Vec<ShardScratch>,
}

/// One shard's scratch, and its share of the round's outcome.
#[derive(Default)]
struct ShardScratch {
    /// Frames drained from the shard's own mailbox while a send was blocked.
    pending: Vec<Frame>,
    /// The shard's share of the round's statistics.
    stats: RoundStats,
    /// The sender of each frame the shard rejected this round.
    faulters: Vec<u32>,
}

impl<M> Default for MailboxScratch<M> {
    fn default() -> Self {
        MailboxScratch {
            inboxes: Vec::new(),
            shards: Vec::new(),
        }
    }
}

impl<M> MailboxScratch<M> {
    /// Summed capacity of the inboxes and the shards' pending buffers.
    pub(crate) fn capacity_total(&self) -> usize {
        self.inboxes.capacity()
            + self.inboxes.iter().map(Vec::capacity).sum::<usize>()
            + self
                .shards
                .iter()
                .map(|s| s.pending.capacity())
                .sum::<usize>()
    }
}

/// Sends one frame, draining our own mailbox into `pending` while the
/// destination mailbox is full (see module docs on deadlock freedom).
fn send_with_backpressure(
    tx: &SyncSender<Frame>,
    rx: &Receiver<Frame>,
    pending: &mut Vec<Frame>,
    mut frame: Frame,
) {
    loop {
        match tx.try_send(frame) {
            Ok(()) => return,
            Err(TrySendError::Full(f)) => {
                frame = f;
                let mut drained = false;
                while let Ok(incoming) = rx.try_recv() {
                    pending.push(incoming);
                    drained = true;
                }
                if !drained {
                    std::thread::yield_now();
                }
            }
            Err(TrySendError::Disconnected(_)) => {
                unreachable!("mailbox receiver disconnected mid-round")
            }
        }
    }
}

/// Runs round `net.round` under the mailbox backend and returns its
/// statistics, before `Network::step_round` closes them. Decode failures
/// are charged to their senders in `net.decode_faults`.
pub(crate) fn run_round<P: NodeProgram>(net: &mut Network<P>) -> RoundStats {
    let n = net.programs.len();
    if n == 0 {
        return RoundStats::default();
    }
    let chunk = n.div_ceil(rayon::current_num_threads().clamp(1, n));
    let num_shards = n.div_ceil(chunk);
    let Network {
        graph,
        programs,
        round,
        faults,
        schedules,
        decode_faults,
        mailbox,
        ..
    } = net;
    let ctx = RoundCtx {
        graph,
        copies: RoundCopies::new(graph, *faults, *round),
        faults: *faults,
        schedules,
        round: *round,
        chunk,
    };
    mailbox.inboxes.resize_with(n, Vec::new);
    mailbox
        .shards
        .resize_with(num_shards, ShardScratch::default);
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..num_shards)
        .map(|_| sync_channel(MAILBOX_CAPACITY))
        .unzip();
    let shards: Vec<Shard<'_, P>> = programs
        .chunks_mut(chunk)
        .zip(mailbox.inboxes.chunks_mut(chunk))
        .zip(&mut mailbox.shards)
        .zip(rxs)
        .enumerate()
        .map(|(s, (((programs, inboxes), scratch), rx))| Shard {
            programs,
            inboxes,
            scratch,
            base: s * chunk,
            rx,
            peers: txs.clone(),
        })
        .collect();
    // Each shard holds the only senders now, so a shard's channel
    // disconnects once every shard has finished sending.
    drop(txs);
    let ctx = &ctx;
    rayon::scope(|scope| {
        let mut shards = shards.into_iter();
        let first = shards.next();
        for shard in shards {
            scope.spawn(move |_| shard.run(ctx));
        }
        if let Some(first) = first {
            first.run(ctx);
        }
    });

    let mut stats = RoundStats::default();
    for scratch in &mut mailbox.shards {
        stats.merge(&scratch.stats);
        if !scratch.faulters.is_empty() && decode_faults.len() != n {
            decode_faults.resize(n, 0);
        }
        for sender in scratch.faulters.drain(..) {
            decode_faults[sender as usize] += 1;
        }
    }
    stats
}

/// What every shard of one round reads.
struct RoundCtx<'a> {
    graph: &'a CsrGraph,
    copies: RoundCopies<'a>,
    faults: Option<FaultPlan>,
    schedules: &'a Schedules,
    round: usize,
    /// Shard width: node `v` lives on shard `v / chunk`.
    chunk: usize,
}

/// One shard of one round: its nodes, their inboxes and its channels.
struct Shard<'a, P: NodeProgram> {
    programs: &'a mut [P],
    inboxes: &'a mut [Vec<Delivery<P::Message>>],
    scratch: &'a mut ShardScratch,
    /// Global index of this shard's first node.
    base: usize,
    rx: Receiver<Frame>,
    /// Every shard's mailbox sender, this shard's own included.
    peers: Vec<SyncSender<Frame>>,
}

impl<P: NodeProgram> Shard<'_, P> {
    /// Sends the shard's copies, receives its nodes' copies, then steps its
    /// nodes; the outcome lands in its [`ShardScratch`].
    fn run(self, ctx: &RoundCtx<'_>) {
        let Shard {
            programs,
            inboxes,
            scratch,
            base,
            rx,
            peers,
        } = self;
        let RoundCtx {
            graph,
            copies,
            faults,
            schedules,
            round,
            chunk,
        } = *ctx;
        let ShardScratch {
            pending,
            stats,
            faulters,
        } = scratch;
        *stats = RoundStats::default();

        // Send phase: every local node broadcasts; frames go out per arc.
        for (li, program) in programs.iter_mut().enumerate() {
            let i = base + li;
            let (out, acct) = produce_outgoing(graph, faults, schedules, round, i, program);
            stats.merge(&acct.row());
            let sender = NodeId::new(i);
            let spam = copies.spam(sender);
            // The frame of the message whose copies the walk is on: it hands
            // over a broadcast's or multicast's copies, and a unicast entry's
            // parallel copies, one after another with the same `&M`.
            let mut shared: Option<(&P::Message, Arc<[u8]>)> = None;
            copies.for_each(sender, &out, |q, v, m| {
                let bytes: Arc<[u8]> = match copies.salt(sender, v) {
                    Some(salt) => {
                        let frame = encode_frame(&m.tamper(salt));
                        debug_assert_eq!(
                            frame.len(),
                            encode_frame(m).len(),
                            "tamper must be length-preserving (see message::Tamper)"
                        );
                        frame.into()
                    }
                    None => match &shared {
                        Some((msg, bytes)) if std::ptr::eq(*msg, m) => Arc::clone(bytes),
                        _ => {
                            let bytes: Arc<[u8]> = encode_frame(m).into();
                            shared = Some((m, Arc::clone(&bytes)));
                            bytes
                        }
                    },
                };
                // Copies to crashed or halted receivers are still sent (the
                // sender cannot know) and discarded by the receiving shard.
                let pos = copies.position(sender, q, v);
                for _ in 0..spam {
                    let frame = Frame {
                        sender: sender.0,
                        receiver: v.0,
                        pos,
                        bytes: Arc::clone(&bytes),
                    };
                    send_with_backpressure(&peers[v.index() / chunk], &rx, pending, frame);
                }
            });
        }
        drop(peers);

        // Receive phase: the frames drained while sending, then the channel
        // until every shard has dropped its senders. A halted or crashed
        // receiver's copies count as delivered but are never seen.
        for frame in pending.drain(..).chain(rx.iter()) {
            let li = frame.receiver as usize - base;
            let v = NodeId(frame.receiver);
            if programs[li].halted() || faults.is_some_and(|f| f.crashed(round, v)) {
                continue;
            }
            match decode_frame::<P::Message>(&frame.bytes, MAX_FRAME_BYTES) {
                Ok(msg) => inboxes[li].push(Delivery {
                    sender: NodeId(frame.sender),
                    pos: frame.pos,
                    msg,
                }),
                Err(_rejected) => faulters.push(frame.sender),
            }
        }

        // Step phase: every non-halted, non-crashed local node steps, its
        // inbox stable-sorted into dense delivery order (per-arc FIFO keeps
        // the copies on one arc in batch order).
        for (li, (program, inbox)) in programs.iter_mut().zip(inboxes.iter_mut()).enumerate() {
            let v = NodeId::new(base + li);
            if program.halted() || faults.is_some_and(|f| f.crashed(round, v)) {
                continue;
            }
            inbox.sort_by_key(|d| d.pos);
            let ctx = NodeContext::new(graph, v, round);
            stats.node_updates += 1;
            if program.receive(&ctx, inbox) {
                stats.changed_nodes += 1;
            }
            inbox.clear();
        }
    }
}
