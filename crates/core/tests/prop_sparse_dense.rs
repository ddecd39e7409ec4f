//! Property test: frontier rounds and the mailbox executor are
//! **result-identical** to dense rounds for the compact elimination
//! procedure — byte-identical surviving numbers and in-neighbour sets —
//! across random graphs, loss models, round budgets, and threshold sets.
//! Deterministic counters do not depend on the thread count (one thread ==
//! four within each activation; the mailbox backend matches dense lockstep
//! on every counter including the measured wire bits), and frontier rounds
//! never exceed the dense rounds' work.

use dkc_core::compact::{run_compact_elimination, CompactOutcome, RunSpec};
use dkc_core::threshold::ThresholdSet;
use dkc_distsim::ExecutionMode::{self, Auto, Dense, Mailbox};
use dkc_distsim::{BurstLoss, ByzantineModel, CrashModel, FaultPlan, LossModel, PartitionModel};
use dkc_graph::generators::erdos_renyi;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs `spec` under `mode` in a rayon pool of `threads` threads.
fn run_on(
    g: &dkc_graph::WeightedGraph,
    spec: RunSpec,
    mode: ExecutionMode,
    threads: usize,
) -> CompactOutcome {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(|| run_compact_elimination(g, &spec.mode(mode)).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn sparse_executor_is_result_identical_to_dense(
        n in 2usize..40,
        edge_p in 0.02..0.5f64,
        seed in 0u64..1_000_000,
        rounds in 1usize..40,
        loss_mill in 0usize..1000,
        grid in 0usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi(n, edge_p, &mut rng);
        // Every third case runs fault-free; otherwise inject deterministic loss.
        let loss = if loss_mill % 3 == 0 {
            None
        } else {
            Some(LossModel::new((loss_mill as f64 / 1000.0).min(0.9), seed ^ 0x5A5A))
        };
        let threshold_set = match grid {
            0 => ThresholdSet::Reals,
            1 => ThresholdSet::power_grid(0.1),
            _ => ThresholdSet::power_grid(0.5),
        };
        let spec = RunSpec::new(rounds)
            .threshold_set(threshold_set)
            .faults(loss.map_or_else(FaultPlan::none, FaultPlan::from_loss));
        let run = |mode, threads| run_on(&g, spec.clone(), mode, threads);
        let dense_seq = run(Dense, 1);
        let dense_par = run(Dense, 4);
        let sparse_seq = run(Auto, 1);
        let sparse_par = run(Auto, 4);
        let mailbox = run(Mailbox, 4);

        // Protocol output: byte-identical across all five legs.
        let surviving_bits = |o: &CompactOutcome| -> Vec<u64> {
            o.surviving.iter().map(|b| b.to_bits()).collect()
        };
        let reference = surviving_bits(&dense_seq);
        for (label, o) in [
            ("dense-par", &dense_par),
            ("sparse-seq", &sparse_seq),
            ("sparse-par", &sparse_par),
            ("mailbox", &mailbox),
        ] {
            prop_assert_eq!(&reference, &surviving_bits(o), "surviving diverged: {}", label);
            prop_assert_eq!(&dense_seq.in_neighbors, &o.in_neighbors,
                "in-neighbours diverged: {}", label);
        }

        // The mailbox backend reproduces the dense RoundStats byte-for-byte,
        // including the measured wire bits (quantized-value frames under the
        // power-grid threshold sets exercise the QuantizedValue codec).
        prop_assert_eq!(dense_seq.metrics.first_divergence(&mailbox.metrics), None,
            "mailbox counters diverged");

        // Deterministic counters: identical within each activation kind…
        prop_assert_eq!(dense_seq.metrics.first_divergence(&dense_par.metrics), None,
            "dense counters diverged");
        prop_assert_eq!(sparse_seq.metrics.first_divergence(&sparse_par.metrics), None,
            "sparse counters diverged");

        // … and the sparse executor never does more work than the dense one.
        prop_assert!(sparse_seq.metrics.total_node_updates()
            <= dense_seq.metrics.total_node_updates());
        prop_assert!(sparse_seq.metrics.total_messages()
            <= dense_seq.metrics.total_messages());
        prop_assert!(sparse_seq.metrics.totals().payload_bits
            <= dense_seq.metrics.totals().payload_bits);
        prop_assert_eq!(sparse_seq.metrics.num_rounds(), dense_seq.metrics.num_rounds());

        // changed_nodes (quiescence signal) agrees round by round across
        // activation kinds: a node not run by the sparse executor would not
        // have changed under the dense one either.
        let changed = |o: &CompactOutcome| {
            o.metrics.rounds().iter().map(|r| r.changed_nodes).collect::<Vec<_>>()
        };
        prop_assert_eq!(changed(&dense_seq), changed(&sparse_seq));
    }

    /// The same five-way byte-identity under a randomly composed `FaultPlan`:
    /// random crash rounds, partition windows, burst phases, and byzantine
    /// models (random behavior subsets, detection rates, and quarantine
    /// thresholds — plus i.i.d. loss), composed in every combination the
    /// component bits select.
    #[test]
    fn all_modes_are_byte_identical_under_random_fault_plans(
        n in 2usize..36,
        edge_p in 0.03..0.5f64,
        seed in 0u64..1_000_000,
        rounds in 1usize..32,
        components in 1u8..32,
        loss_mill in 0usize..900,
        period in 2usize..9,
        burst_frac in 0usize..100,
        crash_mill in 0usize..600,
        window_a in 1usize..16,
        window_len in 0usize..12,
        fraction_mill in 0usize..1000,
        byz_mill in 0usize..600,
        behaviors in 1u8..16,
        detect_mill in 0usize..1000,
        quarantine in 0u32..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi(n, edge_p, &mut rng);
        let mut plan = FaultPlan::none();
        if components & 1 != 0 {
            plan = plan.with_loss(LossModel::new(loss_mill as f64 / 1000.0, seed ^ 0x10));
        }
        if components & 2 != 0 {
            plan = plan.with_burst(BurstLoss::new(period, burst_frac * period / 100, seed ^ 0x20));
        }
        if components & 4 != 0 {
            // Crash windows start at round 2 at the earliest, so every node
            // executes its initialization step.
            plan = plan.with_crash(CrashModel::new(
                crash_mill as f64 / 1000.0,
                window_a.max(2),
                window_a.max(2) + window_len,
                seed ^ 0x30,
            ));
        }
        if components & 8 != 0 {
            plan = plan.with_partition(PartitionModel::new(
                fraction_mill as f64 / 1000.0,
                window_a,
                window_a + window_len,
                seed ^ 0x40,
            ));
        }
        if components & 16 != 0 {
            // Byzantine windows start at round 2 at the earliest (like crash
            // windows) so every node executes its initialization step.
            plan = plan.with_byzantine(
                ByzantineModel::new(
                    byz_mill as f64 / 1000.0,
                    behaviors,
                    window_a.max(2),
                    window_a.max(2) + window_len,
                    seed ^ 0x50,
                )
                .with_detect(detect_mill as f64 / 1000.0)
                .with_quarantine(quarantine),
            );
        }

        let run = |mode, threads| run_on(&g, RunSpec::new(rounds).faults(plan), mode, threads);
        let dense_seq = run(Dense, 1);
        let dense_par = run(Dense, 4);
        let sparse_seq = run(Auto, 1);
        let sparse_par = run(Auto, 4);
        let mailbox = run(Mailbox, 4);

        let surviving_bits = |o: &CompactOutcome| -> Vec<u64> {
            o.surviving.iter().map(|b| b.to_bits()).collect()
        };
        let reference = surviving_bits(&dense_seq);
        for (label, o) in [
            ("dense-par", &dense_par),
            ("sparse-seq", &sparse_seq),
            ("sparse-par", &sparse_par),
            ("mailbox", &mailbox),
        ] {
            prop_assert_eq!(&reference, &surviving_bits(o), "surviving diverged: {}", label);
            prop_assert_eq!(&dense_seq.in_neighbors, &o.in_neighbors,
                "in-neighbours diverged: {}", label);
        }

        // Deterministic counters (including the per-component drop and crash
        // counters) are identical within each activation kind; the mailbox
        // backend matches dense lockstep exactly, wire bits included.
        prop_assert_eq!(dense_seq.metrics.first_divergence(&dense_par.metrics), None,
            "dense counters diverged");
        prop_assert_eq!(dense_seq.metrics.first_divergence(&mailbox.metrics), None,
            "mailbox counters diverged");
        prop_assert_eq!(sparse_seq.metrics.first_divergence(&sparse_par.metrics), None,
            "sparse counters diverged");

        // The sparse executor never does more work than the dense one, and
        // the schedule-driven counters — cumulative crashes, byzantine
        // accusations, quarantined nodes — are identical across activation
        // kinds (they are pure hash schedules, independent of traffic).
        prop_assert!(sparse_seq.metrics.total_node_updates()
            <= dense_seq.metrics.total_node_updates());
        prop_assert!(sparse_seq.metrics.total_messages()
            <= dense_seq.metrics.total_messages());
        prop_assert_eq!(sparse_seq.metrics.crashed_nodes(), dense_seq.metrics.crashed_nodes());
        prop_assert_eq!(
            sparse_seq.metrics.totals().byzantine_accusations,
            dense_seq.metrics.totals().byzantine_accusations
        );
        prop_assert_eq!(
            sparse_seq.metrics.totals().quarantined_nodes,
            dense_seq.metrics.totals().quarantined_nodes
        );

        // Fault-free equivalence: a trivial plan reproduces the loss=None
        // path bit-for-bit (checked on the cheapest mode).
        if plan.is_trivial() {
            let clean = run_compact_elimination(&g, &RunSpec::new(rounds).mode(Dense)).unwrap();
            prop_assert_eq!(surviving_bits(&clean), reference);
            prop_assert_eq!(clean.metrics.first_divergence(&dense_seq.metrics), None);
        }
    }
}
