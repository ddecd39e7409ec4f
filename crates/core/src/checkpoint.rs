//! Checkpointed and resumable compact-elimination runs.
//!
//! The distsim layer ([`dkc_distsim::checkpoint`]) owns the container format
//! and the executor-state snapshot; this module adds the *run identity*: a
//! preamble recording the graph (node/arc counts plus a structural
//! fingerprint over adjacency and weight bits), the round target, the
//! threshold set Λ, and the fault plan. Resume rebuilds the arena and
//! network from the preamble, restores the executor state into it, and runs
//! the remaining rounds — producing a [`CompactOutcome`] byte-identical on
//! every deterministic counter to an uninterrupted run (pinned by the
//! `prop_checkpoint` property tests and the CI kill-and-resume gate).

use crate::compact::{execute, CompactOutcome, RunSpec};
use crate::threshold::ThresholdSet;
use dkc_distsim::checkpoint::{
    decode_checkpoint, read_checkpoint_bytes, remove_temp_slots, state_is_sparse, validate_plan,
    CheckpointError,
};
use dkc_distsim::wire::{WireCodec, WireReader, WireWriter};
use dkc_distsim::{ExecutionMode, FaultPlan};
use dkc_graph::partition::splitmix64 as splitmix;
use dkc_graph::CsrGraph;
use std::path::{Path, PathBuf};

/// Where and how often a run writes checkpoints.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Checkpoint file path (written atomically; one file, overwritten at
    /// each boundary).
    pub path: PathBuf,
    /// Interval in rounds between checkpoints (≥ 1). Boundaries are counted
    /// in absolute round numbers, so a resumed run checkpoints at the same
    /// rounds as an uninterrupted one.
    pub every: usize,
}

/// An order-sensitive structural fingerprint of the CSR topology: node and
/// arc counts, adjacency lists, weight bits, and self-loops all feed the
/// hash, so resuming against a graph that differs anywhere — an edge, a
/// weight, a node ordering — is rejected instead of silently producing
/// garbage.
pub fn graph_fingerprint(g: &CsrGraph) -> u64 {
    let mut h = splitmix(0xD1C0_5EED ^ g.num_nodes() as u64);
    h = splitmix(h ^ g.num_arcs() as u64);
    for v in g.nodes() {
        h = splitmix(h ^ u64::from(v.0));
        h = splitmix(h ^ g.self_loop(v).to_bits());
        for (&u, &w) in g.neighbors(v).iter().zip(g.neighbor_weights(v)) {
            h = splitmix(h ^ (u64::from(u.0) << 1));
            h = splitmix(h ^ w.to_bits());
        }
    }
    h
}

/// The largest shard count a run may use, re-exported from the executor:
/// a checkpoint naming a larger count is rejected before anything is built.
pub use dkc_distsim::MAX_SHARDS;

/// The largest round count T a run may be asked for, re-exported from the
/// executor: a checkpoint's round target and every fault window's last
/// round are checked against it before anything is built.
pub use dkc_distsim::MAX_ROUNDS;

/// The run-identity preamble stored ahead of the executor state in every
/// checkpoint file.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunPreamble {
    /// Node count of the graph the run was started on.
    pub nodes: u64,
    /// Arc count of that graph.
    pub arcs: u64,
    /// [`graph_fingerprint`] of that graph.
    pub fingerprint: u64,
    /// Total rounds the run was asked for (`dkc coreness --rounds`).
    pub rounds_target: u64,
    /// The threshold set Λ of the run.
    pub threshold_set: ThresholdSet,
    /// The fault plan of the run.
    pub faults: FaultPlan,
    /// Shard count of the run (0 = unsharded; ≥ 1 = sharded execution with
    /// that many shards). Resume rebuilds the same partition, so a sharded
    /// checkpoint can only resume into the sharded topology it was written
    /// under.
    pub shards: u64,
    /// Seed of the deterministic edge-cut partitioner (meaningful only when
    /// `shards > 0`).
    pub shard_seed: u64,
}

impl RunPreamble {
    /// Encodes the preamble section bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.nodes.encode(&mut w);
        self.arcs.encode(&mut w);
        self.fingerprint.encode(&mut w);
        self.rounds_target.encode(&mut w);
        match self.threshold_set {
            ThresholdSet::Reals => 0u8.encode(&mut w),
            ThresholdSet::PowerGrid { lambda } => {
                1u8.encode(&mut w);
                lambda.encode(&mut w);
            }
        }
        self.faults.encode(&mut w);
        self.shards.encode(&mut w);
        self.shard_seed.encode(&mut w);
        w.into_bytes()
    }

    /// Decodes a preamble section, rejecting truncation, trailing bytes,
    /// unknown threshold tags, and out-of-domain parameters.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = WireReader::new(bytes);
        let nodes = r.read_u64()?;
        let arcs = r.read_u64()?;
        let fingerprint = r.read_u64()?;
        let rounds_target = r.read_u64()?;
        if !(1..=MAX_ROUNDS).contains(&rounds_target) {
            return Err(CheckpointError::Mismatch(format!(
                "checkpointed round target {rounds_target} is outside 1..={MAX_ROUNDS}"
            )));
        }
        let threshold_set = match r.read_u8()? {
            0 => ThresholdSet::Reals,
            1 => {
                let lambda = r.read_f64()?;
                if !(lambda.is_finite() && lambda >= 1e-12) {
                    return Err(CheckpointError::Mismatch(format!(
                        "checkpointed lambda {lambda} is out of domain"
                    )));
                }
                ThresholdSet::PowerGrid { lambda }
            }
            tag => {
                return Err(CheckpointError::Mismatch(format!(
                    "unknown threshold-set tag {tag}"
                )))
            }
        };
        let faults = FaultPlan::decode(&mut r)?;
        validate_plan(&faults)?;
        let shards = r.read_u64()?;
        if shards > MAX_SHARDS as u64 {
            return Err(CheckpointError::Mismatch(format!(
                "checkpointed shard count {shards} exceeds the maximum of {MAX_SHARDS}"
            )));
        }
        let shard_seed = r.read_u64()?;
        if r.remaining() > 0 {
            return Err(CheckpointError::TrailingBytes {
                remaining: r.remaining(),
            });
        }
        Ok(RunPreamble {
            nodes,
            arcs,
            fingerprint,
            rounds_target,
            threshold_set,
            faults,
            shards,
            shard_seed,
        })
    }

    /// The preamble of a fresh run of `spec` over `csr`.
    pub(crate) fn for_run(csr: &CsrGraph, spec: &RunSpec) -> Self {
        RunPreamble {
            nodes: csr.num_nodes() as u64,
            arcs: csr.num_arcs() as u64,
            fingerprint: graph_fingerprint(csr),
            rounds_target: spec.rounds as u64,
            threshold_set: spec.threshold_set,
            faults: spec.faults,
            shards: spec.shards as u64,
            shard_seed: spec.shard_seed,
        }
    }
}

/// A resumed run's result plus where it picked up.
#[derive(Clone, Debug)]
pub struct ResumedRun {
    /// The completed outcome, byte-identical on every deterministic counter
    /// to an uninterrupted run of `spec`.
    pub outcome: CompactOutcome,
    /// The round the checkpoint was written at (execution continued from
    /// `resumed_from + 1`).
    pub resumed_from: usize,
    /// The run recovered from the checkpoint: round target, threshold set Λ,
    /// fault plan, shard topology and activation, plus the caller's
    /// checkpointing.
    pub spec: RunSpec,
}

/// Resumes a run from the checkpoint at `path` and completes it. The run
/// comes from the checkpoint, not from flags: the preamble gives the round
/// target, threshold set, fault plan and shard topology, and the executor
/// state's activation picks the mode — [`ExecutionMode::Auto`] for a
/// checkpoint written in frontier rounds, [`ExecutionMode::Dense`] for one
/// written in dense rounds (modes of one activation are byte-identical). A
/// sharded checkpoint (`shards > 0` in the preamble) resumes sharded, with
/// the recorded partition, under `Auto`: sharded runs take frontier rounds,
/// so a dense state under a sharded preamble fails the executor's activation
/// check. The caller only chooses whether to keep checkpointing, via `cfg`.
/// Like [`crate::compact::run_compact_elimination`], the run takes `g` (a
/// [`CsrGraph`], or a `&WeightedGraph` to convert) as its topology. A
/// finished run removes the temp slots that the killed run may have left
/// beside `path` ([`remove_temp_slots`]), checkpointing or not.
pub fn resume_compact_elimination(
    g: impl Into<CsrGraph>,
    path: &Path,
    cfg: Option<&CheckpointConfig>,
) -> Result<ResumedRun, CheckpointError> {
    let image = read_checkpoint_bytes(path)?;
    let (preamble_bytes, state) = decode_checkpoint(&image)?;
    let pre = RunPreamble::decode(preamble_bytes)?;
    let csr = g.into();
    if pre.nodes != csr.num_nodes() as u64 || pre.arcs != csr.num_arcs() as u64 {
        return Err(CheckpointError::Mismatch(format!(
            "checkpoint graph has {} nodes / {} arcs, this graph has {} / {}",
            pre.nodes,
            pre.arcs,
            csr.num_nodes(),
            csr.num_arcs()
        )));
    }
    if pre.fingerprint != graph_fingerprint(&csr) {
        return Err(CheckpointError::Mismatch(
            "graph fingerprint differs from the checkpointed run (different edges, \
             weights, or node order)"
                .to_string(),
        ));
    }
    let mode = if state_is_sparse(state)? || pre.shards > 0 {
        ExecutionMode::Auto
    } else {
        ExecutionMode::Dense
    };
    let spec = RunSpec {
        rounds: pre.rounds_target as usize,
        threshold_set: pre.threshold_set,
        mode,
        faults: pre.faults,
        shards: pre.shards as usize,
        shard_seed: pre.shard_seed,
        checkpoint: cfg.cloned(),
    };
    let (outcome, resumed_from, _) = execute(csr, &spec, Some((preamble_bytes, state)))?;
    remove_temp_slots(path)?;
    Ok(ResumedRun {
        outcome,
        resumed_from,
        spec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::run_compact_elimination;
    use dkc_graph::generators::{barabasi_albert, path_graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dkc-core-ckpt-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn preamble_round_trips_and_rejects_corruption() {
        let pre = RunPreamble {
            nodes: 12,
            arcs: 40,
            fingerprint: 0xDEAD_BEEF,
            rounds_target: 30,
            threshold_set: ThresholdSet::power_grid(0.25),
            faults: FaultPlan::from_loss(dkc_distsim::LossModel::new(0.1, 7)),
            shards: 4,
            shard_seed: 0xACE,
        };
        let bytes = pre.encode();
        assert_eq!(RunPreamble::decode(&bytes).unwrap(), pre);
        assert_eq!(
            RunPreamble::decode(&bytes[..bytes.len() - 1]),
            Err(CheckpointError::Truncated)
        );
        let mut trailing = bytes.clone();
        trailing.push(9);
        assert_eq!(
            RunPreamble::decode(&trailing),
            Err(CheckpointError::TrailingBytes { remaining: 1 })
        );
        // Unknown threshold tag.
        let mut bad_tag = bytes.clone();
        bad_tag[32] = 7;
        assert!(matches!(
            RunPreamble::decode(&bad_tag),
            Err(CheckpointError::Mismatch(_))
        ));
        // A shard count that would allocate without bound.
        let too_many = RunPreamble {
            shards: MAX_SHARDS as u64 + 1,
            ..pre
        };
        assert!(matches!(
            RunPreamble::decode(&too_many.encode()),
            Err(CheckpointError::Mismatch(_))
        ));
        // A round target of 0 (no round to resume into) or past the cap
        // (one `RoundStats` per round, without bound).
        for rounds_target in [0, MAX_ROUNDS + 1, u64::from(u32::MAX), u64::MAX] {
            let bad = RunPreamble {
                rounds_target,
                ..pre
            };
            assert!(
                matches!(
                    RunPreamble::decode(&bad.encode()),
                    Err(CheckpointError::Mismatch(_))
                ),
                "rounds_target {rounds_target}"
            );
        }
        for rounds_target in [1, MAX_ROUNDS] {
            let good = RunPreamble {
                rounds_target,
                ..pre
            };
            assert_eq!(RunPreamble::decode(&good.encode()).unwrap(), good);
        }
    }

    #[test]
    fn fingerprint_distinguishes_structure_and_weights() {
        let a = CsrGraph::from_graph(&path_graph(8));
        let b = CsrGraph::from_graph(&path_graph(9));
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&b));
        assert_eq!(
            graph_fingerprint(&a),
            graph_fingerprint(&CsrGraph::from_graph(&path_graph(8)))
        );
        let mut weighted = path_graph(8);
        weighted.add_edge(dkc_graph::NodeId::new(0), dkc_graph::NodeId::new(1), 0.5);
        assert_ne!(
            graph_fingerprint(&a),
            graph_fingerprint(&CsrGraph::from_graph(&weighted))
        );
    }

    #[test]
    fn checkpointed_run_matches_plain_run_and_resume_completes_it() {
        let mut rng = StdRng::seed_from_u64(42);
        let g = barabasi_albert(40, 3, &mut rng);
        let threshold = ThresholdSet::power_grid(0.5);
        let plan = FaultPlan::from_loss(dkc_distsim::LossModel::new(0.15, 9));
        let spec = RunSpec::new(14).threshold_set(threshold).faults(plan);
        let plain = run_compact_elimination(&g, &spec).unwrap();

        let dir = tmp_dir("resume");
        let cfg = CheckpointConfig {
            path: dir.join("run.dkck"),
            every: 3,
        };
        let checkpointed =
            run_compact_elimination(&g, &spec.clone().checkpoint(cfg.clone())).unwrap();
        assert_eq!(plain.surviving, checkpointed.surviving);
        assert_eq!(plain.metrics.rounds(), checkpointed.metrics.rounds());

        // The file now holds the round-12 boundary; resume finishes 13..14.
        // A killed run can leave both temp slots beside it, and the resume,
        // which does not checkpoint, removes them.
        let slots = ["run.dkck.tmp", "run.dkck.tmp1"].map(|slot| dir.join(slot));
        for slot in &slots {
            std::fs::write(slot, b"stale").unwrap();
        }
        let resumed = resume_compact_elimination(&g, &cfg.path, None).unwrap();
        assert!(slots.iter().all(|slot| !slot.exists()));
        assert_eq!(resumed.resumed_from, 12);
        assert_eq!(resumed.spec.rounds, 14);
        assert_eq!(resumed.spec.threshold_set, threshold);
        assert_eq!(resumed.spec.faults, plan);
        assert_eq!(plain.surviving, resumed.outcome.surviving);
        assert_eq!(plain.in_neighbors, resumed.outcome.in_neighbors);
        assert_eq!(plain.metrics.rounds(), resumed.outcome.metrics.rounds());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Sharded checkpointed runs: identical to the plain sharded run, and a
    /// resume rebuilds the recorded shard topology from the preamble alone.
    #[test]
    fn sharded_checkpointed_run_resumes_into_the_same_partition() {
        let mut rng = StdRng::seed_from_u64(43);
        let g = barabasi_albert(40, 3, &mut rng);
        let plan = FaultPlan::from_loss(dkc_distsim::LossModel::new(0.2, 5));
        let spec = RunSpec::new(14).faults(plan).sharded(4, 77);
        let plain = run_compact_elimination(&g, &spec).unwrap();

        let dir = tmp_dir("shard-resume");
        let cfg = CheckpointConfig {
            path: dir.join("run.dkck"),
            every: 3,
        };
        let checkpointed = run_compact_elimination(&g, &spec.checkpoint(cfg.clone())).unwrap();
        assert_eq!(plain.surviving, checkpointed.surviving);
        assert_eq!(plain.metrics.rounds(), checkpointed.metrics.rounds());

        // Resume reads the shard topology from the preamble.
        let resumed = resume_compact_elimination(&g, &cfg.path, None).unwrap();
        assert_eq!(resumed.resumed_from, 12);
        assert_eq!((resumed.spec.shards, resumed.spec.shard_seed), (4, 77));
        assert_eq!(plain.surviving, resumed.outcome.surviving);
        assert_eq!(plain.in_neighbors, resumed.outcome.in_neighbors);
        assert_eq!(plain.metrics.rounds(), resumed.outcome.metrics.rounds());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Sharded runs are sparse, so a preamble that claims shards over a dense
    /// executor state is a typed mismatch on resume, not a panic.
    #[test]
    fn resume_rejects_a_dense_state_under_a_sharded_preamble() {
        let g = path_graph(10);
        let dir = tmp_dir("dense-sharded");
        let cfg = CheckpointConfig {
            path: dir.join("run.dkck"),
            every: 2,
        };
        let spec = RunSpec::new(6)
            .mode(ExecutionMode::Dense)
            .checkpoint(cfg.clone());
        run_compact_elimination(&g, &spec).unwrap();
        let image = read_checkpoint_bytes(&cfg.path).unwrap();
        let (preamble, state) = decode_checkpoint(&image).unwrap();
        let forged = RunPreamble {
            shards: 4,
            ..RunPreamble::decode(preamble).unwrap()
        };
        let forged = dkc_distsim::checkpoint::encode_checkpoint(&forged.encode(), state);
        std::fs::write(&cfg.path, forged).unwrap();
        let err = resume_compact_elimination(&g, &cfg.path, None).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_a_different_graph() {
        let g = path_graph(10);
        let dir = tmp_dir("fpr");
        let cfg = CheckpointConfig {
            path: dir.join("run.dkck"),
            every: 2,
        };
        let spec = RunSpec::new(6)
            .mode(ExecutionMode::Dense)
            .checkpoint(cfg.clone());
        run_compact_elimination(&g, &spec).unwrap();
        // A re-weighted graph is caught by the fingerprint (or, if the extra
        // edge adds arcs, by the arc-count check — either way a Mismatch).
        let mut reweighted = path_graph(10);
        reweighted.add_edge(dkc_graph::NodeId::new(3), dkc_graph::NodeId::new(4), 2.0);
        let err = resume_compact_elimination(&reweighted, &cfg.path, None).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
        let err = resume_compact_elimination(&path_graph(11), &cfg.path, None).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
