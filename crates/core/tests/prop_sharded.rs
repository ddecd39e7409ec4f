//! Property tests for the shard-partitioned engine:
//!
//! 1. **Byte-identity** — for random graphs, composed `FaultPlan`s, threshold
//!    sets, and every shard count in 1–8, the sharded run produces surviving
//!    numbers, in-neighbour sets, and per-round deterministic counters
//!    identical to the unsharded frontier-round reference. The only permitted
//!    difference is the sharded run's own `boundary_bits`/`boundary_nodes`
//!    accounting (zero for a single shard).
//! 2. **Resume-at-every-round equivalence** — a sharded run checkpointed
//!    after round `k` and resumed from disk (the shard topology comes from
//!    the preamble, not from flags) matches the uninterrupted sharded run
//!    for **every** cut round `k`, boundary counters included.

use dkc_core::checkpoint::{resume_compact_elimination, RunPreamble};
use dkc_core::compact::{run_compact_elimination, CompactArena, CompactOutcome, RunSpec};
use dkc_core::graph_fingerprint;
use dkc_core::threshold::ThresholdSet;
use dkc_distsim::{
    BurstLoss, ByzantineModel, CrashModel, FaultPlan, LossModel, NetworkBuilder, PartitionModel,
    RoundStats, RunMetrics,
};
use dkc_graph::generators::erdos_renyi;
use dkc_graph::CsrGraph;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::Duration;

/// A case's checkpoint path, directly under the temp directory, so that
/// removing the file (as each test does) leaves nothing behind.
fn tmp_file(tag: &str, case: u64) -> PathBuf {
    let pid = std::process::id();
    std::env::temp_dir().join(format!("dkc-prop-shard-{pid}-{tag}-{case}.dkck"))
}

fn surviving_bits(o: &CompactOutcome) -> Vec<u64> {
    o.surviving.iter().map(|b| b.to_bits()).collect()
}

/// `metrics` without the counters only sharded execution populates.
fn without_boundary(metrics: &RunMetrics) -> RunMetrics {
    let rounds = metrics.rounds().iter().map(|r| RoundStats {
        boundary_bits: 0,
        boundary_nodes: 0,
        ..*r
    });
    RunMetrics::from_parts(rounds.collect(), Duration::ZERO)
}

/// Builds a composed fault plan from the raw proptest components — the same
/// scheme `prop_checkpoint.rs` uses, so the two suites cover the same plan
/// space.
#[allow(clippy::too_many_arguments)]
fn compose_plan(
    components: u8,
    seed: u64,
    loss_mill: usize,
    period: usize,
    crash_mill: usize,
    window_a: usize,
    window_len: usize,
    byz_mill: usize,
    behaviors: u8,
    quarantine: u32,
) -> FaultPlan {
    let mut plan = FaultPlan::none();
    if components & 1 != 0 {
        plan = plan.with_loss(LossModel::new(loss_mill as f64 / 1000.0, seed ^ 0x10));
    }
    if components & 2 != 0 {
        plan = plan.with_burst(BurstLoss::new(period, period / 2, seed ^ 0x20));
    }
    if components & 4 != 0 {
        plan = plan.with_crash(CrashModel::new(
            crash_mill as f64 / 1000.0,
            window_a.max(2),
            window_a.max(2) + window_len,
            seed ^ 0x30,
        ));
    }
    if components & 8 != 0 {
        plan = plan.with_partition(PartitionModel::new(
            loss_mill as f64 / 1000.0,
            window_a,
            window_a + window_len,
            seed ^ 0x40,
        ));
    }
    if components & 16 != 0 {
        plan = plan.with_byzantine(
            ByzantineModel::new(
                byz_mill as f64 / 1000.0,
                behaviors,
                window_a.max(2),
                window_a.max(2) + window_len,
                seed ^ 0x50,
            )
            .with_quarantine(quarantine),
        );
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sharded_run_is_byte_identical_to_unsharded_for_every_shard_count(
        n in 2usize..28,
        edge_p in 0.03..0.5f64,
        seed in 0u64..1_000_000,
        rounds in 1usize..10,
        grid in 0usize..3,
        shard_seed in 0u64..1_000,
        components in 0u8..32,
        loss_mill in 0usize..800,
        period in 2usize..8,
        crash_mill in 0usize..500,
        window_a in 1usize..10,
        window_len in 0usize..8,
        byz_mill in 0usize..600,
        behaviors in 1u8..16,
        quarantine in 0u32..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi(n, edge_p, &mut rng);
        let threshold = match grid {
            0 => ThresholdSet::Reals,
            1 => ThresholdSet::power_grid(0.1),
            _ => ThresholdSet::power_grid(0.5),
        };
        let plan = compose_plan(
            components, seed, loss_mill, period, crash_mill,
            window_a, window_len, byz_mill, behaviors, quarantine,
        );

        let reference = run_compact_elimination(&g, &RunSpec::new(rounds).threshold_set(threshold).faults(plan)).unwrap();

        for shards in 1..=8usize {
            let sharded =
                run_compact_elimination(&g, &RunSpec::new(rounds).threshold_set(threshold).faults(plan).sharded(shards, shard_seed)).unwrap();
            prop_assert_eq!(
                surviving_bits(&reference), surviving_bits(&sharded),
                "surviving diverged at {} shards", shards
            );
            prop_assert_eq!(
                &reference.in_neighbors, &sharded.in_neighbors,
                "in-neighbours diverged at {} shards", shards
            );
            // Per-round counters must match bit-for-bit once the sharded
            // run's own boundary accounting is masked out.
            prop_assert_eq!(
                reference.metrics.first_divergence(&without_boundary(&sharded.metrics)), None,
                "counters diverged at {} shards", shards
            );
            if shards == 1 {
                prop_assert_eq!(sharded.metrics.total_boundary_bits(), 0);
                prop_assert_eq!(sharded.metrics.total_boundary_nodes(), 0);
            }
            // The reference never crosses a shard cut.
            prop_assert_eq!(reference.metrics.total_boundary_bits(), 0);
        }
    }

    #[test]
    fn sharded_resume_at_every_round_is_byte_identical(
        n in 2usize..24,
        edge_p in 0.05..0.5f64,
        seed in 0u64..1_000_000,
        rounds in 1usize..9,
        grid in 0usize..3,
        shards in 2usize..9,
        shard_seed in 0u64..1_000,
        components in 0u8..32,
        loss_mill in 0usize..800,
        period in 2usize..8,
        crash_mill in 0usize..500,
        window_a in 1usize..10,
        window_len in 0usize..8,
        byz_mill in 0usize..600,
        behaviors in 1u8..16,
        quarantine in 0u32..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi(n, edge_p, &mut rng);
        let threshold = match grid {
            0 => ThresholdSet::Reals,
            1 => ThresholdSet::power_grid(0.1),
            _ => ThresholdSet::power_grid(0.5),
        };
        let plan = compose_plan(
            components, seed, loss_mill, period, crash_mill,
            window_a, window_len, byz_mill, behaviors, quarantine,
        );

        let reference =
            run_compact_elimination(&g, &RunSpec::new(rounds).threshold_set(threshold).faults(plan).sharded(shards, shard_seed)).unwrap();
        let csr = CsrGraph::from_graph(&g);
        let preamble = RunPreamble {
            nodes: csr.num_nodes() as u64,
            arcs: csr.num_arcs() as u64,
            fingerprint: graph_fingerprint(&csr),
            rounds_target: rounds as u64,
            threshold_set: threshold,
            faults: plan,
            shards: shards as u64,
            shard_seed,
        }
        .encode();
        let path = tmp_file("cut", seed ^ ((rounds * 8 + shards) as u64) << 32);

        // Kill the sharded run after every possible round and resume from
        // disk: the preamble's shard topology must reproduce the partition,
        // the boundary traffic, and every other deterministic counter.
        for cut in 1..=rounds {
            let mut arena = CompactArena::new(&csr, threshold);
            let mut net = NetworkBuilder::new()
                .shards(shards)
                .shard_seed(shard_seed)
                .faults(plan)
                .build_from_parts(csr.clone(), arena.programs());
            net.run(cut);
            net.write_checkpoint(&path, &preamble).unwrap();
            drop(net);

            let resumed = resume_compact_elimination(&g, &path, None).unwrap();
            prop_assert_eq!(resumed.resumed_from, cut);
            prop_assert_eq!(resumed.spec.rounds, rounds);
            prop_assert_eq!(
                surviving_bits(&reference), surviving_bits(&resumed.outcome),
                "surviving diverged after cut at round {}", cut
            );
            prop_assert_eq!(
                &reference.in_neighbors, &resumed.outcome.in_neighbors,
                "in-neighbours diverged after cut at round {}", cut
            );
            prop_assert_eq!(
                reference.metrics.first_divergence(&resumed.outcome.metrics), None,
                "deterministic counters (boundary included) diverged after cut at round {}", cut
            );
        }
        std::fs::remove_file(&path).ok();
    }
}
