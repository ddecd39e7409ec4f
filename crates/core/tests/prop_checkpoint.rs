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
use dkc_distsim::wire::{WireCodec, WireError, WireReader};
use dkc_distsim::ExecutionMode::{self, Auto, Dense, Mailbox};
use dkc_distsim::{
    BurstLoss, ByzantineModel, CheckpointError, CrashModel, FaultPlan, LossModel, NetworkBuilder,
    PartitionModel, RoundStats,
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

/// Where a field of a node payload sits in an image: its offset and its
/// length in bytes.
#[derive(Clone, Copy, Debug)]
struct Field {
    at: usize,
    len: usize,
}

/// The fields of the last node's payload in a v5 image.
struct LastNode {
    deg: Field,
    b: Field,
    last: Field,
    cut: Field,
    /// One code per neighbour value, by adjacency position.
    values: Vec<Field>,
    /// The `Update` order: one entry of `width` bytes per neighbour, from
    /// `order_at`.
    order_at: usize,
    width: usize,
}

impl LastNode {
    /// The order's `i`-th entry.
    fn order(&self, i: usize) -> Field {
        Field {
            at: self.order_at + self.width * i,
            len: self.width,
        }
    }
}

/// The field at `*at`, `len(*at)` bytes long; `*at` moves past it.
fn take(at: &mut usize, len: impl Fn(usize) -> usize) -> Field {
    let f = Field {
        at: *at,
        len: len(*at),
    };
    *at += f.len;
    f
}

/// Finds the last node's payload by walking the v5 layout, written out here
/// apart from the encoder: past the executor head, each node is a varint
/// degree, the `b` code (a raw `f64` follows code 255), the varint last
/// update and cut, one code per neighbour value, and the order at 1 B up to
/// 256 neighbours, 2 B up to 65,536, else 4 B. The walk must end exactly
/// at the end of the image.
fn last_node(bytes: &[u8]) -> LastNode {
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    // Magic, version, the preamble's length and bytes, the state's length.
    let mut r = WireReader::new(&bytes[16 + u64_at(8) + 8..]);
    let nodes = r.read_u64().unwrap() as usize;
    r.read_u64().unwrap(); // arcs
    FaultPlan::decode(&mut r).unwrap();
    r.read_bool().unwrap(); // frontier rounds
    r.read_u64().unwrap(); // round
    Vec::<u32>::decode(&mut r).unwrap(); // frontier
    Vec::<u32>::decode(&mut r).unwrap(); // decode faults
    r.read_u64().unwrap(); // elapsed ns
    Vec::<RoundStats>::decode(&mut r).unwrap();
    let mut at = bytes.len() - r.remaining();
    let varint_len = |at: usize| 1 + bytes[at..].iter().take_while(|&&b| b >= 0x80).count();
    let code_len = |at: usize| if bytes[at] == 255 { 9 } else { 1 };
    let mut node = None;
    for _ in 0..nodes {
        let deg = take(&mut at, varint_len);
        let b = take(&mut at, code_len);
        let last = take(&mut at, varint_len);
        let cut = take(&mut at, varint_len);
        let n = varint(bytes, deg);
        let values = (0..n).map(|_| take(&mut at, code_len)).collect();
        let width = match n {
            0..=256 => 1,
            257..=65_536 => 2,
            _ => 4,
        };
        let order_at = take(&mut at, |_| width * n).at;
        node = Some(LastNode {
            deg,
            b,
            last,
            cut,
            values,
            order_at,
            width,
        });
    }
    assert_eq!(at, bytes.len(), "the node payloads must end the image");
    node.expect("the image has nodes")
}

/// The number in a varint field: seven bits per byte, lowest first.
fn varint(bytes: &[u8], f: Field) -> usize {
    let raw = &bytes[f.at..f.at + f.len];
    raw.iter()
        .rev()
        .fold(0, |x, &b| x << 7 | (b & 0x7F) as usize)
}

/// The position in an order entry, little-endian.
fn entry(bytes: &[u8], f: Field) -> usize {
    let raw = &bytes[f.at..f.at + f.len];
    raw.iter().rev().fold(0, |x, &b| x << 8 | b as usize)
}

/// The value in a value code: 0–253 that integer, 254 +∞, 255 the `f64`
/// that follows.
fn value(bytes: &[u8], f: Field) -> f64 {
    match bytes[f.at] {
        254 => f64::INFINITY,
        255 => f64::from_le_bytes(bytes[f.at + 1..f.at + 9].try_into().unwrap()),
        small => small as f64,
    }
}

/// The varint bytes of `x`.
fn varint_bytes(mut x: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while x >= 0x80 {
        out.push(x as u8 | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
    out
}

/// The raw value code of `x`: code 255, then its `f64`.
fn raw(x: f64) -> Vec<u8> {
    [&[255u8][..], &x.to_le_bytes()].concat()
}

/// `bytes` with each field replaced by the bytes given for it, and the
/// state section's length patched to match.
fn splice(bytes: &[u8], edits: &[(Field, Vec<u8>)]) -> Vec<u8> {
    let mut edits = edits.to_vec();
    edits.sort_by_key(|(f, _)| std::cmp::Reverse(f.at));
    let mut img = bytes.to_vec();
    for (f, x) in &edits {
        img.splice(f.at..f.at + f.len, x.iter().copied());
    }
    let len_at = 16 + u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
    let state_len = (img.len() - len_at - 8) as u64;
    img[len_at..len_at + 8].copy_from_slice(&state_len.to_le_bytes());
    img
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

    // An unknown version — a future one, v4 with its `u32` counts, `f64`
    // values and `u32` order, or v3 with its u32 section lengths and its
    // stored `inv` and per-arc `N_v` slabs — is rejected with both
    // versions named.
    for found in [CHECKPOINT_VERSION + 1, 4, 3] {
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
    // on. The image ends with the last node's payload, found by walking
    // the layout.
    let node = last_node(&bytes);
    let csr = CsrGraph::from_graph(&g);
    let deg = csr.unweighted_degree(dkc_graph::NodeId::new(csr.num_nodes() - 1));
    assert_eq!(
        varint(&bytes, node.deg),
        deg,
        "the walk must land on the last node"
    );
    assert!(
        deg >= 2 && node.width == 1,
        "the last node needs two neighbours to be unsortable, and a narrow order"
    );
    let (last, cut) = (varint(&bytes, node.last), varint(&bytes, node.cut));
    assert!(
        (1..=4).contains(&last) && cut <= deg,
        "last node: updated at {last}, cut {cut}"
    );
    let stamp = |edits: &[(Field, Vec<u8>)]| resume(&splice(&bytes, edits));
    let mismatch = |edits: &[(Field, Vec<u8>)], what: &str| {
        let err = stamp(edits).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{what}: {err}");
    };
    // A NaN or a negative value can only come through the raw code.
    for f in [node.b, node.values[0], node.values[deg - 1]] {
        mismatch(&[(f, raw(f64::NAN))], &format!("NaN at {}", f.at));
        mismatch(&[(f, raw(-1.0))], &format!("-1 at {}", f.at));
    }
    let (first, last_ranked) = (
        entry(&bytes, node.order(0)),
        entry(&bytes, node.order(deg - 1)),
    );
    assert!(
        value(&bytes, node.values[first]) > 0.0,
        "the lowest-ranked value must be positive"
    );
    // Zeroing the highest-ranked value leaves `order` unsorted.
    mismatch(&[(node.values[last_ranked], vec![0])], "unsorted order");
    // A `b` in domain but below what the node's own values give is
    // rejected too, before a resumed round could raise it again.
    mismatch(&[(node.b, vec![0])], "inconsistent surviving number");
    // `order` with a repeated position is no permutation, so `inv` cannot
    // be rebuilt from it, and neither can it from a position past the
    // degree, which a one-byte entry can still hold.
    mismatch(
        &[(node.order(1), vec![first as u8])],
        "repeated position in order",
    );
    for past in [deg, 255] {
        mismatch(
            &[(node.order(0), vec![past as u8])],
            &format!("position {past} in order"),
        );
    }
    // A cut past the degree would slice `order` out of bounds.
    mismatch(
        &[(node.cut, varint_bytes(deg as u64 + 1))],
        "cut past the degree",
    );
    // Any other cut in range disagrees with the node's `Update`.
    for other in (0..=deg).filter(|&c| c != cut) {
        mismatch(
            &[(node.cut, varint_bytes(other as u64))],
            &format!("cut {other} instead of {cut}"),
        );
    }
    // A node that never updated has all of N_v: a nonzero cut is rejected,
    // while the same node with cut 0 resumes.
    let never = (node.last, varint_bytes(0));
    mismatch(
        &[never.clone(), (node.cut, varint_bytes(cut.max(1) as u64))],
        "nonzero cut on a node that never updated",
    );
    stamp(&[never, (node.cut, varint_bytes(0))]).unwrap();
    // A varint is at most five bytes and at most `u32::MAX`: a sixth byte
    // or a larger value is corrupt, while the same number padded to five
    // bytes still reads.
    for f in [node.deg, node.last] {
        let x = varint(&bytes, f) as u8;
        for (bad, what) in [
            (vec![x | 0x80, 0x80, 0x80, 0x80, 0x80, 0x00], "six bytes"),
            (vec![x | 0x80, 0x80, 0x80, 0x80, 0x10], "above u32::MAX"),
        ] {
            assert_eq!(
                stamp(&[(f, bad)]).unwrap_err(),
                CheckpointError::Corrupt(WireError::BadVarint),
                "varint at {} of {what}",
                f.at
            );
        }
        stamp(&[(f, vec![x | 0x80, 0x80, 0x80, 0x80, 0x00])]).unwrap();
    }

    // The magic constant itself is what the file starts with.
    assert_eq!(&bytes[..4], &CHECKPOINT_MAGIC);
    std::fs::remove_file(&path).ok();
}

/// No run writes a node whose last update is past the image's round, since
/// its `N_v` cut would name a round that has not run: such an image is
/// rejected, not resumed.
#[test]
fn a_node_updated_after_the_image_round_is_rejected() {
    let (bytes, path, g) = real_checkpoint("future");
    let node = last_node(&bytes);
    let last = varint(&bytes, node.last);
    assert!((1..=4).contains(&last), "last node updated at {last}");
    // The image is taken after round 4.
    std::fs::write(&path, splice(&bytes, &[(node.last, varint_bytes(5))])).unwrap();
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
