//! Property test: dense rounds on four threads and the mailbox executor are
//! **result-identical** to dense rounds on one thread — same per-node inbox
//! streams (senders, payloads, order) and same `RunMetrics` counters
//! (including the measured wire bits and per-component drop counters) —
//! across random graphs, random broadcast/multicast/unicast mixes, random
//! fault plans, and random mailbox shard (thread) counts. This pins the hot-path rewrite (buffer
//! reuse, multicast delivery from the sender's sorted target list, fused
//! accounting) and the message-passing backend to the simple executor
//! semantics.

use dkc_distsim::{
    BurstLoss, CrashModel, Delivery, ExecutionMode, FaultPlan, LossModel, NetworkBuilder,
    NodeContext, NodeProgram, Outgoing, PartitionModel, RunMetrics,
};
use dkc_graph::generators::erdos_renyi;
use dkc_graph::NodeId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// splitmix64-style mixer: deterministic per (seed, node, round), so both
/// executors generate identical traffic without shared state.
fn mix(seed: u64, node: u64, round: u64) -> u64 {
    let mut x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(node.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(round);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Sends a pseudorandom mix of silence / broadcast / multicast (random
/// neighbour subset, sometimes with duplicate targets) / unicast, and logs
/// every delivered message.
struct ChaosNode {
    seed: u64,
    log: Vec<LoggedMessage>,
}

impl NodeProgram for ChaosNode {
    type Message = u64;

    fn broadcast(&mut self, ctx: &NodeContext<'_>) -> Outgoing<u64> {
        let nbrs = ctx.neighbors();
        if nbrs.is_empty() {
            return Outgoing::Silent;
        }
        let r = mix(self.seed, ctx.node().0 as u64, ctx.round() as u64);
        match r % 5 {
            0 => Outgoing::Silent,
            1 => Outgoing::Broadcast(r),
            2 => Outgoing::Unicast(vec![(nbrs[(r >> 8) as usize % nbrs.len()], r)]),
            _ => {
                let mut targets: Vec<NodeId> = nbrs
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| (r >> (i % 48)) & 1 == 1)
                    .map(|(_, &u)| u)
                    .collect();
                if targets.is_empty() {
                    targets.push(nbrs[(r >> 16) as usize % nbrs.len()]);
                }
                if r % 5 == 4 {
                    // Duplicate target entries must not change delivery.
                    let dup = targets[(r >> 24) as usize % targets.len()];
                    targets.push(dup);
                }
                Outgoing::Multicast(r, targets)
            }
        }
    }

    fn receive(&mut self, ctx: &NodeContext<'_>, inbox: &[Delivery<u64>]) -> bool {
        for d in inbox {
            // The arc position must point back at the sender.
            assert_eq!(ctx.neighbors()[d.pos as usize], d.sender);
            self.log.push((ctx.round(), d.sender.0, d.pos, d.msg));
        }
        !inbox.is_empty()
    }
}

/// One delivered message as logged by a receiver: (round, sender, arc
/// position, payload).
type LoggedMessage = (usize, u32, u32, u64);

fn run(
    g: &dkc_graph::WeightedGraph,
    seed: u64,
    rounds: usize,
    plan: FaultPlan,
    mode: ExecutionMode,
    threads: usize,
) -> (Vec<Vec<LoggedMessage>>, RunMetrics) {
    let mut net = NetworkBuilder::new()
        .mode(mode)
        .faults(plan)
        .build(g, |_| ChaosNode {
            seed,
            log: Vec::new(),
        });
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(|| net.run(rounds));
    let logs = g.nodes().map(|v| net.program(v).log.clone()).collect();
    assert!(net.decode_faults().is_empty(), "in-tree frames must decode");
    let (_, metrics) = net.into_parts();
    (logs, metrics)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_and_mailbox_are_result_identical_to_sequential(
        n in 2usize..48,
        edge_p in 0.02..0.6f64,
        seed in 0u64..1_000_000,
        rounds in 1usize..6,
        loss_mill in 0usize..1000,
        threads in 1usize..9,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi(n, edge_p, &mut rng);
        // Every third case runs fault-free; otherwise inject a deterministic
        // plan mixing loss with (sometimes) burst, crash, and partition
        // components derived from the same entropy.
        let plan = if loss_mill % 3 == 0 {
            FaultPlan::none()
        } else {
            let mut plan = FaultPlan::from_loss(
                LossModel::new(loss_mill as f64 / 1000.0, seed ^ 0xA5A5));
            if loss_mill % 2 == 0 {
                plan = plan.with_burst(BurstLoss::new(3, 2, seed ^ 0x11));
            }
            if loss_mill % 5 == 0 {
                plan = plan.with_crash(CrashModel::new(0.2, 2, 4, seed ^ 0x22));
            }
            if loss_mill % 7 == 0 {
                plan = plan.with_partition(
                    PartitionModel::new(0.3, 2, 4, seed ^ 0x33));
            }
            plan
        };
        let (seq_logs, seq_metrics) =
            run(&g, seed, rounds, plan, ExecutionMode::Dense, 1);
        let (par_logs, par_metrics) =
            run(&g, seed, rounds, plan, ExecutionMode::Dense, 4);
        prop_assert_eq!(&seq_logs, &par_logs, "parallel inbox streams diverged");
        prop_assert_eq!(seq_metrics.first_divergence(&par_metrics), None,
            "parallel metrics diverged");
        // Tentpole acceptance: the mailbox backend — wire-encoded frames over
        // bounded shard channels — reproduces the lockstep inbox streams and
        // every RoundStats counter byte-for-byte, at any shard count.
        let (mb_logs, mb_metrics) =
            run(&g, seed, rounds, plan, ExecutionMode::Mailbox, threads);
        prop_assert_eq!(&seq_logs, &mb_logs, "mailbox inbox streams diverged");
        prop_assert_eq!(seq_metrics.first_divergence(&mb_metrics), None,
            "mailbox metrics diverged");
        // Sanity: the traffic mix actually exercised delivery.
        if plan.is_trivial() && g.num_edges() > 0 {
            let delivered: usize = seq_logs.iter().map(Vec::len).sum();
            prop_assert!(delivered > 0 || seq_metrics.total_messages() == 0);
        }
    }
}
