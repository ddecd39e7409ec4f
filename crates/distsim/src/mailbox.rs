//! The mailbox executor backend ([`crate::ExecutionMode::Mailbox`]).
//!
//! Dense round semantics over a message-passing runtime: the node array is
//! split into contiguous **shards**, one scoped thread per shard, and every
//! message crosses shards as a **wire-encoded byte frame** (length prefix +
//! payload, see [`crate::wire`]) through that shard's bounded mpsc mailbox —
//! there is no shared outbox snapshot. The main thread acts as the
//! coordinator: it merges the shards' per-round partial statistics, decides
//! continuation (round budget / quiescence), and releases the next round.
//!
//! ## Why results are byte-identical to lockstep
//!
//! * Send-side fault decisions and accounting reuse the exact
//!   `produce_outgoing` the lockstep executors run, so `messages`,
//!   `payload_bits`, `wire_bits` and the drop counters agree by construction
//!   (the measured `wire_bits` uses the counting serializer, whose output
//!   length equals the encoder's).
//! * Each delivered copy travels on exactly one CSR arc, and each arc's
//!   frames are produced by exactly one sender thread, so per-arc FIFO order
//!   is preserved end-to-end; the receiver then **stable-sorts** its inbox by
//!   receiver-local arc position, reproducing the dense delivery order
//!   (neighbour-list order, unicast batches in batch order).
//! * Every non-halted, non-crashed node steps every round (dense
//!   activation), and round barriers are enforced by per-shard end-of-round
//!   markers plus the coordinator's control release.
//!
//! ## Backpressure without deadlock
//!
//! Mailboxes are bounded. A sender whose `try_send` hits a full mailbox
//! drains its *own* mailbox into a local pending buffer before retrying, so
//! any cycle of blocked senders contains a shard that is making progress;
//! the pending buffer is folded into the inboxes after the shard's send
//! phase, keeping receive-side effects out of the send phase.
//!
//! ## Decode failures
//!
//! A frame that fails [`crate::wire::decode_frame`] (truncated, over the
//! [`crate::NetworkBuilder::max_frame_bytes`] cap, trailing garbage, bad
//! bytes) is dropped and **attributed to the sending node** in
//! [`crate::Network::decode_faults`] — tofn-style per-peer fault attribution
//! instead of a panic. In-tree programs never produce such frames; the
//! accounting exists for the protocol boundary.

use crate::message::Tamper;
use crate::metrics::RoundStats;
use crate::network::{produce_outgoing, Network};
use crate::program::{Delivery, NodeProgram, Outgoing};
use crate::wire::{decode_frame, encode_frame};
use dkc_graph::{CsrGraph, NodeId};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Instant;

/// One unit of shard-to-shard traffic.
enum Packet {
    /// A delivered message copy on one arc. `pos` is the receiver-local arc
    /// position (what dense delivery reports in [`Delivery::pos`]); `bytes`
    /// is the complete wire frame, shared between the copies of a broadcast.
    Frame {
        sender: u32,
        receiver: u32,
        pos: u32,
        bytes: Arc<[u8]>,
    },
    /// The sending shard has finished its send phase for this round.
    EndOfRound,
}

/// Shard-to-coordinator messages.
enum ToCoordinator {
    /// End of one round on one shard: its share of the round's statistics.
    Round(RoundStats),
    /// Shard shutdown: the node ids charged with decode failures (one entry
    /// per rejected frame).
    Done(Vec<u32>),
}

/// Sends one packet, draining our own mailbox into `pending` while the
/// destination mailbox is full (see module docs on deadlock freedom).
fn send_with_backpressure(
    tx: &SyncSender<Packet>,
    rx: &Receiver<Packet>,
    pending: &mut Vec<Packet>,
    mut pkt: Packet,
) {
    loop {
        match tx.try_send(pkt) {
            Ok(()) => return,
            Err(TrySendError::Full(p)) => {
                pkt = p;
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
                unreachable!("mailbox receiver disconnected mid-run")
            }
        }
    }
}

/// Runs up to `max_rounds` rounds under the mailbox backend, starting after
/// `net.round`. With `stop_on_quiescent`, stops after the first round in
/// which no node changed. Returns the number of rounds executed; metrics,
/// round counter, and decode-fault attribution are updated on `net`.
pub(crate) fn run_mailbox<P: NodeProgram>(
    net: &mut Network<P>,
    max_rounds: usize,
    stop_on_quiescent: bool,
) -> usize {
    if max_rounds == 0 {
        return 0;
    }
    // Wall-clock audit (dkc-lint D02 allowlist): timing-only, accumulated via
    // RunMetrics::add_elapsed; deterministic counters never see it.
    let started = Instant::now();
    let threads = rayon::current_num_threads();
    let Network {
        graph,
        programs,
        round,
        metrics,
        faults,
        schedules,
        mailbox_capacity,
        max_frame_bytes,
        decode_faults,
        ..
    } = net;
    let start_round = *round;
    let n = programs.len();

    if n == 0 {
        // Degenerate topology: rounds are empty barriers, identical to dense.
        let mut executed = 0;
        for _ in 0..max_rounds {
            *round += 1;
            executed += 1;
            metrics.push(RoundStats {
                round: *round,
                ..RoundStats::default()
            });
            if stop_on_quiescent {
                break;
            }
        }
        metrics.add_elapsed(started.elapsed());
        return executed;
    }

    let faults = *faults;
    let graph: &CsrGraph = graph;
    let max_payload = *max_frame_bytes;
    let chunk = n.div_ceil(threads.clamp(1, n));
    let shards: Vec<&mut [P]> = programs.chunks_mut(chunk).collect();
    let num_shards = shards.len();

    let mut mailbox_txs: Vec<SyncSender<Packet>> = Vec::with_capacity(num_shards);
    let mut mailbox_rxs: Vec<Receiver<Packet>> = Vec::with_capacity(num_shards);
    for _ in 0..num_shards {
        let (tx, rx) = sync_channel((*mailbox_capacity).max(1));
        mailbox_txs.push(tx);
        mailbox_rxs.push(rx);
    }
    let (coord_tx, coord_rx) = channel::<ToCoordinator>();
    let mut ctrl_txs: Vec<Sender<bool>> = Vec::with_capacity(num_shards);
    let mut ctrl_rxs: Vec<Receiver<bool>> = Vec::with_capacity(num_shards);
    for _ in 0..num_shards {
        let (tx, rx) = channel::<bool>();
        ctrl_txs.push(tx);
        ctrl_rxs.push(rx);
    }

    let mut executed = 0usize;
    rayon::scope(|s| {
        let mut ctrl_iter = ctrl_rxs.into_iter();
        let mut rx_iter = mailbox_rxs.into_iter();
        for (shard, shard_programs) in shards.into_iter().enumerate() {
            let base = shard * chunk;
            let my_rx = rx_iter.next().expect("one mailbox per shard");
            let ctrl_rx = ctrl_iter.next().expect("one control channel per shard");
            let peers: Vec<SyncSender<Packet>> = mailbox_txs.clone();
            let coord = coord_tx.clone();
            s.spawn(move |_| {
                shard_main::<P>(ShardArgs {
                    graph,
                    faults,
                    programs: shard_programs,
                    base,
                    chunk,
                    num_shards,
                    start_round,
                    max_rounds,
                    max_payload,
                    my_rx,
                    ctrl_rx,
                    peers,
                    coord,
                });
            });
        }
        drop(mailbox_txs);
        drop(coord_tx);

        // Coordinator: merge shard partials per round, publish RoundStats,
        // and release (or stop) the next round.
        for k in 1..=max_rounds {
            let r = start_round + k;
            let mut merged = RoundStats::default();
            let mut seen = 0usize;
            while seen < num_shards {
                match coord_rx.recv().expect("shard exited before round end") {
                    ToCoordinator::Round(p) => {
                        merged.merge(&p);
                        seen += 1;
                    }
                    ToCoordinator::Done(_) => {
                        unreachable!("shard shut down before the final round")
                    }
                }
            }
            let stats = schedules.close(merged, r);
            metrics.push(stats);
            executed = k;
            let stop = k == max_rounds || (stop_on_quiescent && stats.changed_nodes == 0);
            for tx in &ctrl_txs {
                tx.send(!stop).expect("shard exited before control release");
            }
            if stop {
                break;
            }
        }

        // Collect shutdown reports and fold decode-failure attribution.
        let mut done = 0usize;
        while done < num_shards {
            match coord_rx.recv().expect("shard exited without Done") {
                ToCoordinator::Done(faulters) => {
                    if !faulters.is_empty() && decode_faults.len() != n {
                        decode_faults.resize(n, 0);
                    }
                    for sender in faulters {
                        decode_faults[sender as usize] += 1;
                    }
                    done += 1;
                }
                ToCoordinator::Round(_) => unreachable!("round partial after final round"),
            }
        }
    });

    *round = start_round + executed;
    metrics.add_elapsed(started.elapsed());
    executed
}

/// Everything one shard thread needs.
struct ShardArgs<'a, P: NodeProgram> {
    graph: &'a CsrGraph,
    faults: Option<crate::faults::FaultPlan>,
    programs: &'a mut [P],
    /// Global index of this shard's first node.
    base: usize,
    /// Shard width (last shard may be narrower).
    chunk: usize,
    num_shards: usize,
    start_round: usize,
    max_rounds: usize,
    max_payload: usize,
    my_rx: Receiver<Packet>,
    ctrl_rx: Receiver<bool>,
    peers: Vec<SyncSender<Packet>>,
    coord: Sender<ToCoordinator>,
}

fn shard_main<P: NodeProgram>(args: ShardArgs<'_, P>) {
    let ShardArgs {
        graph,
        faults,
        programs,
        base,
        chunk,
        num_shards,
        start_round,
        max_rounds,
        max_payload,
        my_rx,
        ctrl_rx,
        peers,
        coord,
    } = args;
    let link_faults = faults.filter(crate::faults::FaultPlan::affects_links);
    let byz = faults
        .and_then(|f| f.byzantine)
        .filter(|b| b.fraction > 0.0);
    let mut faulters: Vec<u32> = Vec::new();
    // The shard's nodes' inboxes, kept across the rounds of this call.
    let mut inboxes: Vec<Vec<Delivery<P::Message>>> =
        (0..programs.len()).map(|_| Vec::new()).collect();
    // Lazily allocated per-shard multicast dedup stamps (arc-indexed; this
    // shard only ever stamps its own senders' disjoint arc ranges).
    let mut stamps: Vec<u64> = Vec::new();
    let mut pending: Vec<Packet> = Vec::new();

    for k in 1..=max_rounds {
        let r = start_round + k;
        let round_stamp = r as u64;
        let mut partial = RoundStats::default();

        // Send phase: every local node broadcasts; frames go out per arc.
        for li in 0..programs.len() {
            let i = base + li;
            // Fresh inbox for this round's deliveries (dense clears at
            // receive time; all receive-side effects here happen after the
            // send loop, so clearing up front is equivalent).
            inboxes[li].clear();
            let (out, acct) = produce_outgoing::<P>(graph, faults, r, i, &mut programs[li]);
            partial.merge(&acct.row());

            let sender = NodeId::new(i);
            let arc_base = graph.arc_offset(sender);
            let dropped = |to: NodeId, idx: usize| -> bool {
                link_faults.is_some_and(|f| f.drops(r, sender, to, idx))
            };
            // A byzantine lie/equivocate sender encodes a **per-arc tampered
            // frame** in place of the shared broadcast frame (equivocation
            // sends different bytes to different receivers); tampering is
            // length-preserving, so the wire accounting from
            // `produce_outgoing` still matches the encoder exactly. An active
            // spammer emits each frame `spam` times on the same arc.
            let spam = byz.as_ref().map_or(1, |b| b.spam_factor(r, sender));
            let tampered = |m: &P::Message, v: NodeId| -> Option<Arc<[u8]>> {
                let salt = byz.as_ref()?.tamper_salt(r, sender, v)?;
                let frame: Arc<[u8]> = encode_frame(&m.tamper(salt)).into();
                debug_assert_eq!(
                    frame.len(),
                    encode_frame(m).len(),
                    "tamper must be length-preserving (see message::Tamper)"
                );
                Some(frame)
            };
            // Emit the frame copies on the sender-local arc `q` (the
            // receiver-local position comes from the paired reverse arc, as
            // in the sparse scatter). Copies to crashed/halted receivers are
            // still sent — the sender cannot know — and discarded by the
            // receiving shard.
            let emit = |pending: &mut Vec<Packet>, q: usize, m: &P::Message, bytes: &Arc<[u8]>| {
                let v = graph.neighbors(sender)[q];
                let pos = (graph.reverse_arc(arc_base + q) - graph.arc_offset(v)) as u32;
                let bytes = tampered(m, v).unwrap_or_else(|| Arc::clone(bytes));
                for _ in 0..spam {
                    let pkt = Packet::Frame {
                        sender: i as u32,
                        receiver: v.0,
                        pos,
                        bytes: Arc::clone(&bytes),
                    };
                    send_with_backpressure(&peers[v.index() / chunk], &my_rx, pending, pkt);
                }
            };
            match &out {
                Outgoing::Silent => {}
                Outgoing::Broadcast(m) => {
                    let bytes: Arc<[u8]> = encode_frame(m).into();
                    for (q, &v) in graph.neighbors(sender).iter().enumerate() {
                        if !dropped(v, 0) {
                            emit(&mut pending, q, m, &bytes);
                        }
                    }
                }
                Outgoing::Multicast(m, targets) => {
                    if !targets.is_empty() {
                        if stamps.len() != graph.num_arcs() {
                            stamps = vec![0; graph.num_arcs()];
                        }
                        let bytes: Arc<[u8]> = encode_frame(m).into();
                        for &t in targets {
                            if dropped(t, 0) {
                                continue;
                            }
                            for q in graph.neighbor_positions(sender, t) {
                                // Deduplicate repeated target entries by arc,
                                // exactly like the dense stamp scatter.
                                if stamps[arc_base + q] == round_stamp {
                                    continue;
                                }
                                stamps[arc_base + q] = round_stamp;
                                emit(&mut pending, q, m, &bytes);
                            }
                        }
                    }
                }
                Outgoing::Unicast(msgs) => {
                    for (idx, (t, m)) in msgs.iter().enumerate() {
                        if dropped(*t, idx) {
                            continue;
                        }
                        let bytes: Arc<[u8]> = encode_frame(m).into();
                        // Dense delivery hands a unicast to every parallel
                        // arc towards the target; mirror that.
                        for q in graph.neighbor_positions(sender, *t) {
                            emit(&mut pending, q, m, &bytes);
                        }
                    }
                }
            }
        }
        for tx in &peers {
            send_with_backpressure(tx, &my_rx, &mut pending, Packet::EndOfRound);
        }

        // Receive phase: fold buffered + incoming frames into local inboxes
        // until every shard's end-of-round marker (including our own) has
        // arrived.
        let mut eor_seen = 0usize;
        let handle = |pkt: Packet,
                      inboxes: &mut [Vec<Delivery<P::Message>>],
                      faulters: &mut Vec<u32>,
                      eor_seen: &mut usize| {
            match pkt {
                Packet::EndOfRound => *eor_seen += 1,
                Packet::Frame {
                    sender,
                    receiver,
                    pos,
                    bytes,
                } => {
                    let li = receiver as usize - base;
                    let v = NodeId::new(receiver as usize);
                    // Dense semantics: a halted or crashed receiver's copies
                    // count as delivered but are never seen by the program.
                    if programs[li].halted() || faults.is_some_and(|f| f.crashed(r, v)) {
                        return;
                    }
                    match decode_frame::<P::Message>(&bytes, max_payload) {
                        Ok(msg) => inboxes[li].push(Delivery {
                            sender: NodeId::new(sender as usize),
                            pos,
                            msg,
                        }),
                        Err(_rejected) => faulters.push(sender),
                    }
                }
            }
        };
        for pkt in pending.drain(..) {
            handle(pkt, &mut inboxes, &mut faulters, &mut eor_seen);
        }
        while eor_seen < num_shards {
            let pkt = my_rx.recv().expect("peer shard exited mid-round");
            handle(pkt, &mut inboxes, &mut faulters, &mut eor_seen);
        }

        // Step phase: every non-halted, non-crashed local node steps, its
        // inbox stable-sorted into dense delivery order (per-arc FIFO is
        // preserved by the channels, so equal positions keep batch order).
        for (li, (program, inbox)) in programs.iter_mut().zip(&mut inboxes).enumerate() {
            let v = NodeId::new(base + li);
            if program.halted() || faults.is_some_and(|f| f.crashed(r, v)) {
                continue;
            }
            inbox.sort_by_key(|d| d.pos);
            let ctx = crate::program::NodeContext::new(graph, v, r);
            partial.node_updates += 1;
            if program.receive(&ctx, inbox) {
                partial.changed_nodes += 1;
            }
        }

        coord
            .send(ToCoordinator::Round(partial))
            .expect("coordinator exited mid-run");
        if !ctrl_rx.recv().expect("coordinator exited mid-run") {
            break;
        }
    }
    coord
        .send(ToCoordinator::Done(std::mem::take(&mut faulters)))
        .expect("coordinator exited before shutdown");
}
