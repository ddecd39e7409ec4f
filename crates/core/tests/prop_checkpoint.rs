//! Property tests for the checkpoint/restore subsystem (the kill-and-resume
//! guarantee the CI gate exercises with a real SIGKILL):
//!
//! 1. **Resume-at-every-round equivalence** — for random graphs, composed
//!    `FaultPlan`s, threshold sets, and every execution mode on one thread
//!    and on four, a run
//!    checkpointed after round `k` and resumed from disk produces surviving
//!    numbers, in-neighbour sets, and per-round deterministic counters
//!    byte-identical to an uninterrupted run, for **every** cut round `k`.
//! 2. **Corruption rejection** — a real checkpoint file that is truncated,
//!    grown by trailing garbage, re-stamped with a wrong magic, or re-stamped
//!    with an unknown version is rejected with the matching error instead of
//!    restoring garbage, and so is node state no run can reach.
//! 3. **Byte sweep** — every single-byte flip, every `u32::MAX` stamp and
//!    every truncation of a real image either resumes to completion within
//!    `MAX_ROUNDS` or is a typed `CheckpointError`; none panics.

use dkc_core::checkpoint::{resume_compact_elimination, RunPreamble, MAX_ROUNDS};
use dkc_core::compact::{run_compact_elimination, CompactArena, CompactOutcome, RunSpec};
use dkc_core::graph_fingerprint;
use dkc_core::threshold::ThresholdSet;
use dkc_distsim::checkpoint::{CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
use dkc_distsim::ExecutionMode::{self, Auto, Dense, Mailbox};
use dkc_distsim::{
    BurstLoss, ByzantineModel, CheckpointError, CrashModel, FaultPlan, LossModel, NetworkBuilder,
    PartitionModel,
};
use dkc_graph::generators::erdos_renyi;
use dkc_graph::CsrGraph;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// A case's checkpoint path, directly under the temp directory, so that
/// removing the file (as each test does) leaves nothing behind.
fn tmp_file(tag: &str, case: u64) -> PathBuf {
    let pid = std::process::id();
    std::env::temp_dir().join(format!("dkc-prop-ckpt-{pid}-{tag}-{case}.dkck"))
}

/// Each mode with the rayon pool size it runs under.
const LEGS: [(ExecutionMode, usize); 5] =
    [(Dense, 1), (Dense, 4), (Auto, 1), (Auto, 4), (Mailbox, 4)];

fn surviving_bits(o: &CompactOutcome) -> Vec<u64> {
    o.surviving.iter().map(|b| b.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn resume_at_every_round_is_byte_identical(
        n in 2usize..30,
        edge_p in 0.03..0.5f64,
        seed in 0u64..1_000_000,
        rounds in 1usize..14,
        mode_ix in 0usize..5,
        grid in 0usize..3,
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
        let (mode, threads) = LEGS[mode_ix];
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let threshold = match grid {
            0 => ThresholdSet::Reals,
            1 => ThresholdSet::power_grid(0.1),
            _ => ThresholdSet::power_grid(0.5),
        };
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
            // A mid-byzantine-window kill is the interesting cut: the resumed
            // run must reproduce the same lies, mutes, accusations, and
            // quarantine activations from the checkpointed round on.
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

        let spec = RunSpec::new(rounds).threshold_set(threshold).mode(mode).faults(plan);
        let reference = pool.install(|| run_compact_elimination(&g, &spec)).unwrap();
        let csr = CsrGraph::from_graph(&g);
        let preamble = RunPreamble {
            nodes: csr.num_nodes() as u64,
            arcs: csr.num_arcs() as u64,
            fingerprint: graph_fingerprint(&csr),
            rounds_target: rounds as u64,
            threshold_set: threshold,
            faults: plan,
            shards: 0,
            shard_seed: 0,
        }
        .encode();
        let path = tmp_file("cut", seed ^ (rounds as u64) << 32);

        // Kill the run after every possible round and resume from disk:
        // identity must hold no matter where the axe falls.
        for cut in 1..=rounds {
            let mut arena = CompactArena::new(&csr, threshold);
            let mut net = NetworkBuilder::new()
                .mode(mode)
                .faults(plan)
                .build_from_parts(csr.clone(), arena.programs());
            pool.install(|| net.run(cut));
            net.write_checkpoint(&path, &preamble).unwrap();
            drop(net);

            let resumed = pool.install(|| resume_compact_elimination(&g, &path, None)).unwrap();
            prop_assert_eq!(resumed.spec.rounds, rounds);
            prop_assert_eq!(resumed.spec.threshold_set, threshold);
            prop_assert_eq!(resumed.spec.faults, plan);
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
                "deterministic counters diverged after cut at round {}", cut
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Writes a real mid-run checkpoint and returns its bytes plus its path: a
/// sparse 9-round run under message loss and crash-stop faults, cut after
/// round 4, so the image holds frozen nodes and a frontier. It is about
/// 2 KB. Sparse, because a corrupted round target can resume into tens of
/// thousands of rounds, and quiescent sparse rounds cost next to nothing.
fn real_checkpoint(tag: &str) -> (Vec<u8>, PathBuf, dkc_graph::WeightedGraph) {
    let mut rng = StdRng::seed_from_u64(99);
    let g = erdos_renyi(18, 0.3, &mut rng);
    let csr = CsrGraph::from_graph(&g);
    let threshold = ThresholdSet::power_grid(0.25);
    let plan =
        FaultPlan::from_loss(LossModel::new(0.1, 5)).with_crash(CrashModel::new(0.2, 2, 3, 6));
    let preamble = RunPreamble {
        nodes: csr.num_nodes() as u64,
        arcs: csr.num_arcs() as u64,
        fingerprint: graph_fingerprint(&csr),
        rounds_target: 9,
        threshold_set: threshold,
        faults: plan,
        shards: 0,
        shard_seed: 0,
    }
    .encode();
    let mut arena = CompactArena::new(&csr, threshold);
    let mut net = NetworkBuilder::new()
        .faults(plan)
        .build_from_parts(csr.clone(), arena.programs());
    net.run(4);
    assert!(
        net.metrics().crashed_nodes() > 0,
        "the image must hold frozen nodes"
    );
    let path = tmp_file(tag, 0);
    net.write_checkpoint(&path, &preamble).unwrap();
    (std::fs::read(&path).unwrap(), path, g)
}

#[test]
fn corrupted_checkpoint_files_are_rejected() {
    let (bytes, path, g) = real_checkpoint("corrupt");
    let resume = |img: &[u8]| {
        std::fs::write(&path, img).unwrap();
        resume_compact_elimination(&g, &path, None)
    };
    let reject = |img: &[u8]| resume(img).unwrap_err();

    // The intact file resumes (sanity check for the corruption cases below).
    let ok = resume(&bytes).unwrap();
    assert_eq!(ok.resumed_from, 4);

    // Truncation at every prefix length dies with Truncated (or, within the
    // first four bytes, BadMagic — a short magic cannot be distinguished
    // from a wrong one).
    for len in 0..bytes.len() {
        let err = reject(&bytes[..len]);
        assert!(
            matches!(err, CheckpointError::Truncated | CheckpointError::BadMagic),
            "truncation to {len} bytes: unexpected {err}"
        );
    }

    // Trailing garbage is rejected, not silently ignored.
    let mut trailing = bytes.clone();
    trailing.extend_from_slice(&[0xAB, 0xCD]);
    assert!(
        matches!(
            reject(&trailing),
            CheckpointError::TrailingBytes { remaining: 2 }
        ),
        "trailing bytes must be rejected"
    );

    // A wrong magic — including the graph container's own `DKCB` — is
    // rejected before any state is touched.
    let mut bad_magic = bytes.clone();
    bad_magic[..4].copy_from_slice(b"DKCB");
    assert!(matches!(reject(&bad_magic), CheckpointError::BadMagic));

    // An unknown version — a future one, or v3 with its u32 section
    // lengths and its stored `inv` and per-arc `N_v` slabs — is rejected
    // with both versions named.
    for found in [CHECKPOINT_VERSION + 1, 3] {
        let mut bad_version = bytes.clone();
        bad_version[4..8].copy_from_slice(&found.to_le_bytes());
        assert_eq!(
            reject(&bad_version),
            CheckpointError::BadVersion {
                found,
                expected: CHECKPOINT_VERSION
            }
        );
    }

    // Node state no run can reach is a typed error too, not a panic later
    // on. The image ends with the last node's payload: degree, `b`,
    // last-update round and the N_v cut, then the `values` and `order`
    // slabs (20 B plus 12 B per neighbour).
    let csr = CsrGraph::from_graph(&g);
    let deg = csr.unweighted_degree(dkc_graph::NodeId::new(csr.num_nodes() - 1));
    assert!(
        deg >= 2,
        "the last node needs two neighbours to be unsortable"
    );
    let node = bytes.len() - (20 + 12 * deg);
    let (b_at, last_at, cut_at) = (node + 4, node + 12, node + 16);
    let (values_at, order_at) = (node + 20, node + 20 + 8 * deg);
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    assert_eq!(u32_at(node), deg, "the offsets must land on the last node");
    let (last, cut) = (u32_at(last_at), u32_at(cut_at));
    assert!(
        (1..=4).contains(&last) && cut <= deg,
        "last node: updated at {last}, cut {cut}"
    );
    let stamp = |edits: &[(usize, &[u8])]| {
        let mut img = bytes.clone();
        for &(at, x) in edits {
            img[at..at + x.len()].copy_from_slice(x);
        }
        resume(&img)
    };
    let mismatch = |edits: &[(usize, &[u8])], what: &str| {
        let err = stamp(edits).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{what}: {err}");
    };
    for at in [b_at, values_at, values_at + 8 * (deg - 1)] {
        mismatch(&[(at, &f64::NAN.to_le_bytes())], &format!("NaN at {at}"));
    }
    let (first, last_ranked) = (u32_at(order_at), u32_at(order_at + 4 * (deg - 1)));
    let first_value = f64::from_le_bytes(bytes[values_at + 8 * first..][..8].try_into().unwrap());
    assert!(
        first_value > 0.0,
        "the lowest-ranked value must be positive"
    );
    // Zeroing the highest-ranked value leaves `order` unsorted.
    mismatch(
        &[(values_at + 8 * last_ranked, &0f64.to_le_bytes())],
        "unsorted order",
    );
    // A `b` in domain but below what the node's own values give is
    // rejected too, before a resumed round could raise it again.
    mismatch(
        &[(b_at, &0f64.to_le_bytes())],
        "inconsistent surviving number",
    );
    // `order` with a repeated position is no permutation, so `inv` cannot
    // be rebuilt from it.
    mismatch(
        &[(order_at + 4, &(first as u32).to_le_bytes())],
        "repeated position in order",
    );
    // A cut past the degree would slice `order` out of bounds.
    mismatch(
        &[(cut_at, &(deg as u32 + 1).to_le_bytes())],
        "cut past the degree",
    );
    // Any other cut in range disagrees with the node's `Update`.
    for other in (0..=deg).filter(|&c| c != cut) {
        mismatch(
            &[(cut_at, &(other as u32).to_le_bytes())],
            &format!("cut {other} instead of {cut}"),
        );
    }
    // A node that never updated has all of N_v: a nonzero cut is rejected,
    // while the same node with cut 0 resumes.
    let never = 0u32.to_le_bytes();
    let nonzero = (cut.max(1) as u32).to_le_bytes();
    mismatch(
        &[(last_at, &never), (cut_at, &nonzero)],
        "nonzero cut on a node that never updated",
    );
    stamp(&[(last_at, &never), (cut_at, &0u32.to_le_bytes())]).unwrap();

    // The magic constant itself is what the file starts with.
    assert_eq!(&bytes[..4], &CHECKPOINT_MAGIC);
    std::fs::remove_file(&path).ok();
}

/// No run writes a node whose last update is past the image's round, since
/// its `N_v` cut and stamps would name a round that has not run: such an
/// image is rejected, not resumed.
#[test]
fn a_node_updated_after_the_image_round_is_rejected() {
    let (mut bytes, path, g) = real_checkpoint("future");
    let csr = CsrGraph::from_graph(&g);
    let deg = csr.unweighted_degree(dkc_graph::NodeId::new(csr.num_nodes() - 1));
    // The last node's payload: degree, `b`, last-update round, cut, slabs.
    let last_at = bytes.len() - (20 + 12 * deg) + 12;
    let last = u32::from_le_bytes(bytes[last_at..last_at + 4].try_into().unwrap());
    assert!((1..=4).contains(&last), "last node updated at {last}");
    // The image is taken after round 4.
    bytes[last_at..last_at + 4].copy_from_slice(&5u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let err = resume_compact_elimination(&g, &path, None).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
}

/// Every byte of a real image, flipped three ways and stamped with
/// `u32::MAX`, and every truncation: each variant resumes to completion
/// within `MAX_ROUNDS` or fails with a typed `CheckpointError`. A panic
/// anywhere in decode, restore or the resumed rounds fails the sweep.
#[test]
fn every_byte_of_a_checkpoint_resumes_or_is_rejected() {
    let (bytes, path, g) = real_checkpoint("sweep");
    let mut failures = Vec::new();
    let mut try_variant = |what: String, img: &[u8]| {
        std::fs::write(&path, img).unwrap();
        let run = std::panic::catch_unwind(|| resume_compact_elimination(&g, &path, None));
        match run {
            Err(_) => failures.push(format!("{what}: panicked")),
            Ok(Ok(resumed)) => {
                let rounds = resumed.outcome.metrics.num_rounds();
                if rounds as u64 > MAX_ROUNDS || rounds != resumed.spec.rounds {
                    failures.push(format!("{what}: resumed to {rounds} rounds"));
                }
            }
            Ok(Err(_)) => {}
        }
    };
    for at in 0..bytes.len() {
        for mask in [0xFF, 0x01, 0x80] {
            let mut img = bytes.clone();
            img[at] ^= mask;
            try_variant(format!("byte {at} ^ {mask:#04x}"), &img);
        }
        let mut img = bytes.clone();
        let end = (at + 4).min(img.len());
        img[at..end].copy_from_slice(&u32::MAX.to_le_bytes()[..end - at]);
        try_variant(format!("u32::MAX at {at}"), &img);
    }
    for len in 0..bytes.len() {
        try_variant(format!("truncated to {len}"), &bytes[..len]);
    }
    std::fs::remove_file(&path).ok();
    assert!(
        failures.is_empty(),
        "{} variants failed: {failures:#?}",
        failures.len()
    );
}
