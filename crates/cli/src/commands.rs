//! Command implementations. Every command returns its full output as a
//! `String` so the logic is unit-testable without capturing stdout.

use crate::args::Parsed;
use dkc_baselines::{greedy_orientation, peeling_orientation, weighted_coreness};
use dkc_core::api::{
    approximate_orientation_with_rounds, checked_rounds, rounds_for_epsilon,
    weak_densest_subsets_with_rounds, CorenessApproximation,
};
use dkc_core::checkpoint::{resume_compact_elimination, CheckpointConfig, MAX_SHARDS};
use dkc_core::compact::{run_compact_elimination, RunSpec};
use dkc_core::ratio::ApproxRatio;
use dkc_core::threshold::ThresholdSet;
use dkc_distsim::ExecutionMode;
use dkc_flow::{densest_subgraph, fractional_orientation_lower_bound};
use dkc_graph::generators as gen;
use dkc_graph::ingest::{read_dataset, stream_stats, write_dataset, Dataset, DatasetFormat};
use dkc_graph::io::write_edge_list;
use dkc_graph::properties::{degree_stats, diameter_double_sweep};
use dkc_graph::{CsrGraph, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

/// Dispatches a parsed command line.
pub fn dispatch(parsed: &Parsed) -> Result<String, String> {
    match parsed.command.as_str() {
        "help" | "--help" | "-h" => Ok(crate::USAGE.to_string()),
        "generate" => generate(parsed),
        "stats" => stats(parsed),
        "coreness" => coreness(parsed),
        "orientation" => orientation(parsed),
        "densest" => densest(parsed),
        "convert" => convert(parsed),
        other => Err(format!("unknown command {other:?}\n{}", crate::USAGE)),
    }
}

/// Resolves a dataset format from an explicit flag value or, absent the
/// flag, from the file extension (defaulting to the edge-list format).
fn resolve_format(parsed: &Parsed, flag: &str, path: &str) -> Result<DatasetFormat, String> {
    match parsed.flags.get(flag) {
        Some(value) => DatasetFormat::from_flag(value).ok_or_else(|| {
            format!("unknown format {value:?} for --{flag}; expected edgelist|metis|binary")
        }),
        None => Ok(DatasetFormat::from_path_or_default(path)),
    }
}

/// Loads the input dataset (positional 0) with sparse external ids remapped
/// to dense internal indices; command output reports the original ids.
fn load(parsed: &Parsed) -> Result<Dataset, String> {
    let path = parsed.positional(0, "input dataset file")?;
    let format = resolve_format(parsed, "format", path)?;
    read_dataset(path, format).map_err(|e| format!("failed to read {path}: {e}"))
}

fn generate(parsed: &Parsed) -> Result<String, String> {
    parsed.expect_flags(&[
        "nodes",
        "seed",
        "out",
        "attach",
        "prob",
        "alpha",
        "avg-degree",
        "k",
        "beta",
        "rows",
        "cols",
        "weights",
    ])?;
    let model = parsed.positional(0, "generator model")?;
    let n: usize = parsed.flag_num_positive("nodes", 1000)?;
    let seed: u64 = parsed.flag_num("seed", 42)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = match model {
        "ba" => {
            let attach: usize = parsed.flag_num("attach", 3)?;
            gen::barabasi_albert(n, attach, &mut rng)
        }
        "er" => {
            let p: f64 = parsed.flag_num("prob", 0.01)?;
            gen::erdos_renyi(n, p, &mut rng)
        }
        "chung-lu" => {
            let alpha: f64 = parsed.flag_num("alpha", 2.5)?;
            let avg: f64 = parsed.flag_num("avg-degree", 8.0)?;
            gen::chung_lu_power_law(n, alpha, avg, &mut rng)
        }
        "ws" => {
            let k: usize = parsed.flag_num("k", 6)?;
            let beta: f64 = parsed.flag_num("beta", 0.1)?;
            gen::watts_strogatz(n, k, beta, &mut rng)
        }
        "grid" => {
            let rows: usize = parsed.flag_num("rows", 10)?;
            let cols: usize = parsed.flag_num("cols", n / 10)?;
            gen::grid_graph(rows, cols)
        }
        "path" => gen::path_graph(n),
        "cycle" => gen::cycle_graph(n),
        "complete" => gen::complete_graph(n),
        other => {
            return Err(format!(
                "unknown generator model {other:?}\n{}",
                crate::USAGE
            ))
        }
    };
    let max_weight: u32 = parsed.flag_num("weights", 1)?;
    if max_weight > 1 {
        g = gen::with_random_integer_weights(&g, max_weight, &mut rng);
    }
    let mut out = format!(
        "generated {model}: {} nodes, {} edges, total weight {:.1}\n",
        g.num_nodes(),
        g.num_edges(),
        g.total_edge_weight()
    );
    let target = parsed.flag_str("out", "");
    if !target.is_empty() {
        write_edge_list(&g, &target).map_err(|e| format!("failed to write {target}: {e}"))?;
        let _ = writeln!(out, "written to {target}");
    } else {
        out.push_str(&dkc_graph::io::to_edge_list(&g));
    }
    Ok(out)
}

fn stats(parsed: &Parsed) -> Result<String, String> {
    parsed.expect_flags(&["format", "stream"])?;
    if parsed.switch("stream") {
        // One-pass streaming statistics: no adjacency lists are built, so
        // memory stays O(distinct nodes + distinct edges).
        let path = parsed.positional(0, "input dataset file")?;
        let format = resolve_format(parsed, "format", path)?;
        let s = stream_stats(path, format).map_err(|e| format!("failed to read {path}: {e}"))?;
        let mut out = String::new();
        let _ = writeln!(out, "nodes: {}", s.nodes);
        let _ = writeln!(out, "edges: {}", s.edges);
        let _ = writeln!(out, "total edge weight: {:.2}", s.total_weight);
        let _ = writeln!(
            out,
            "weighted degree: min {:.2} / mean {:.2} / max {:.2}",
            s.min_degree, s.mean_degree, s.max_degree
        );
        let _ = writeln!(out, "(streaming pass: diameter and density omitted)");
        return Ok(out);
    }
    let ds = load(parsed)?;
    let g = &ds.graph;
    let csr = CsrGraph::from(g);
    let deg = degree_stats(g);
    let diameter = diameter_double_sweep(&csr, NodeId(0));
    let mut out = String::new();
    let _ = writeln!(out, "nodes: {}", g.num_nodes());
    let _ = writeln!(out, "edges: {}", g.num_edges());
    let _ = writeln!(out, "total edge weight: {:.2}", g.total_edge_weight());
    let _ = writeln!(out, "density w(E)/n: {:.3}", g.density());
    let _ = writeln!(
        out,
        "weighted degree: min {:.2} / mean {:.2} / max {:.2}",
        deg.min, deg.mean, deg.max
    );
    let _ = writeln!(out, "hop diameter (double-sweep lower bound): {diameter}");
    let _ = writeln!(out, "unit weights: {}", g.is_unit_weighted());
    if !ds.ids.is_identity() {
        let _ = writeln!(out, "sparse external ids remapped to 0..{}", g.num_nodes());
    }
    Ok(out)
}

fn convert(parsed: &Parsed) -> Result<String, String> {
    parsed.expect_flags(&["from", "to"])?;
    let input = parsed.positional(0, "input dataset file")?;
    let output = parsed.positional(1, "output dataset file")?;
    let from = resolve_format(parsed, "from", input)?;
    let to = resolve_format(parsed, "to", output)?;
    let ds = read_dataset(input, from).map_err(|e| format!("failed to read {input}: {e}"))?;
    write_dataset(&ds, output, to).map_err(|e| format!("failed to write {output}: {e}"))?;
    Ok(format!(
        "converted {input} ({}) -> {output} ({}): {} nodes, {} edges\n",
        from.name(),
        to.name(),
        ds.graph.num_nodes(),
        ds.graph.num_edges()
    ))
}

/// Builds a `FaultPlan` from the fault flags (`--loss P`,
/// `--burst PERIOD:LEN`, `--crash P:FIRST:LAST`, `--partition F:FIRST:LAST`,
/// `--byzantine F:BEHAVIORS:FIRST:LAST`, `--quarantine THRESHOLD`,
/// `--fault-seed S`) through the shared spec grammar in
/// `dkc_distsim::faults::spec` — the exact parser the `exp_*` binaries use,
/// so both front ends accept identical specs and derive identical seeds.
fn fault_plan(parsed: &Parsed) -> Result<dkc_distsim::FaultPlan, String> {
    use dkc_distsim::faults::spec;
    let seed: u64 = parsed.flag_num("fault-seed", spec::DEFAULT_SEED)?;
    spec::plan_from_flags(
        parsed.flags.get("loss").map(String::as_str),
        parsed.flags.get("burst").map(String::as_str),
        parsed.flags.get("crash").map(String::as_str),
        parsed.flags.get("partition").map(String::as_str),
        parsed.flags.get("byzantine").map(String::as_str),
        parsed.flags.get("quarantine").map(String::as_str),
        seed,
    )
}

/// Parses `--checkpoint PATH` / `--checkpoint-every N` into a
/// [`CheckpointConfig`]; `--checkpoint-every` without a path is an error,
/// `--checkpoint` alone defaults to a checkpoint every round.
fn checkpoint_config(parsed: &Parsed) -> Result<Option<CheckpointConfig>, String> {
    let path = parsed.flag_str("checkpoint", "");
    if path.is_empty() {
        if parsed.flags.contains_key("checkpoint-every") {
            return Err("--checkpoint-every requires --checkpoint <path>".to_string());
        }
        return Ok(None);
    }
    let every: usize = parsed.flag_num_positive("checkpoint-every", 1)?;
    Ok(Some(CheckpointConfig {
        path: path.into(),
        every,
    }))
}

/// Flags that name run parameters recorded in a checkpoint's preamble; with
/// `--resume` they would be silently ignored, so they are rejected instead.
const RESUME_CONFLICTS: [&str; 12] = [
    "rounds",
    "epsilon",
    "lambda",
    "loss",
    "burst",
    "crash",
    "partition",
    "byzantine",
    "quarantine",
    "fault-seed",
    "shards",
    "shard-seed",
];

/// The round budget `⌈log_{1+ε} n⌉` of an `n`-node graph, rejected when it
/// exceeds `MAX_ROUNDS`.
fn epsilon_rounds(epsilon: f64, n: usize) -> Result<usize, String> {
    checked_rounds(rounds_for_epsilon(n, epsilon))
        .map_err(|e| format!("--epsilon {epsilon} on {n} nodes: {e}"))
}

/// Builds the run of a fresh `dkc coreness` from its flags: the round budget
/// (`--rounds`, else `⌈log_{1+ε} n⌉` from `--epsilon`), the threshold set
/// (`--lambda`), the fault flags, the shard partition (`--shards`,
/// `--shard-seed`) and the checkpointing parsed by [`checkpoint_config`].
fn run_spec(
    parsed: &Parsed,
    n: usize,
    checkpoint: Option<CheckpointConfig>,
) -> Result<RunSpec, String> {
    let epsilon: f64 = parsed.flag_num_positive("epsilon", 0.25)?;
    let rounds = if parsed.flags.contains_key("rounds") {
        checked_rounds(parsed.flag_num("rounds", 0)?).map_err(|e| format!("--rounds: {e}"))?
    } else {
        epsilon_rounds(epsilon, n)?
    };
    let faults = fault_plan(parsed)?;
    let lambda: f64 = parsed.flag_num("lambda", 0.0)?;
    if lambda < 0.0 || !lambda.is_finite() {
        return Err(format!("--lambda must be >= 0 (got {lambda})"));
    }
    // ThresholdSet::power_grid requires lambda >= 1e-12 (the grid base
    // must be representable above 1); turn smaller positive values into a
    // clean CLI error instead of an assertion panic.
    if lambda > 0.0 && lambda < 1e-12 {
        return Err(format!(
            "--lambda must be 0 (exact) or >= 1e-12 (got {lambda})"
        ));
    }
    let threshold_set = if lambda > 0.0 {
        ThresholdSet::power_grid(lambda)
    } else {
        ThresholdSet::Reals
    };
    // `--shards N` selects the shard-partitioned executor; N >= 1 (1 is the
    // degenerate single-shard partition, byte-identical to unsharded with
    // zero boundary traffic).
    let shards = if parsed.flags.contains_key("shards") {
        let shards = parsed.flag_num_positive::<u64>("shards", 1)?;
        if shards > MAX_SHARDS {
            return Err(format!(
                "--shards must be at most {MAX_SHARDS} (got {shards})"
            ));
        }
        shards as usize
    } else {
        if parsed.flags.contains_key("shard-seed") {
            return Err("--shard-seed requires --shards".to_string());
        }
        0
    };
    let shard_seed: u64 = parsed.flag_num("shard-seed", 0)?;
    Ok(RunSpec {
        threshold_set,
        faults,
        shards,
        shard_seed,
        checkpoint,
        ..RunSpec::new(rounds)
    })
}

fn coreness(parsed: &Parsed) -> Result<String, String> {
    parsed.expect_flags(&[
        "epsilon",
        "rounds",
        "lambda",
        "exact",
        "top",
        "json",
        "format",
        "loss",
        "burst",
        "crash",
        "partition",
        "byzantine",
        "quarantine",
        "fault-seed",
        "checkpoint",
        "checkpoint-every",
        "resume",
        "shards",
        "shard-seed",
    ])?;
    let ckpt = checkpoint_config(parsed)?;
    let ds = load(parsed)?;
    let g = &ds.graph;
    let resume_path = parsed.flag_str("resume", "");
    let (spec, outcome, resumed_from) = if !resume_path.is_empty() {
        // The run's parameters live in the checkpoint preamble; flags that
        // would contradict it are rejected rather than silently ignored.
        for flag in RESUME_CONFLICTS {
            if parsed.flags.contains_key(flag) {
                return Err(format!(
                    "--{flag} conflicts with --resume: the run's parameters \
                     (rounds, threshold set, fault plan, shard partition) come \
                     from the checkpoint"
                ));
            }
        }
        let resumed =
            resume_compact_elimination(g, std::path::Path::new(&resume_path), ckpt.as_ref())
                .map_err(|e| format!("failed to resume from {resume_path}: {e}"))?;
        (resumed.spec, resumed.outcome, Some(resumed.resumed_from))
    } else {
        let spec = run_spec(parsed, g.num_nodes(), ckpt.clone())?;
        let outcome = run_compact_elimination(g, &spec)
            .map_err(|e| format!("checkpointed run failed: {e}"))?;
        (spec, outcome, None)
    };
    let faults = spec.faults;
    let approx = CorenessApproximation::new(g.num_nodes(), spec.threshold_set, outcome);
    let mut out = String::new();
    if let Some(from) = resumed_from {
        let _ = writeln!(out, "resumed from checkpoint at round {from}");
    }
    if let Some(cfg) = &ckpt {
        let _ = writeln!(
            out,
            "checkpointing to {} every {} round(s)",
            cfg.path.display(),
            cfg.every
        );
    }
    let t = approx.metrics.totals();
    let _ = writeln!(
        out,
        "compact elimination: {} rounds, guaranteed factor {:.3}, {} messages, max message {} bits",
        approx.rounds, approx.guaranteed_factor, t.messages, t.max_message_bits
    );
    let _ = writeln!(
        out,
        "traffic: {} payload bits estimated, {} wire bits measured (encoded frames)",
        t.payload_bits, t.wire_bits
    );
    if t.boundary_bits > 0 {
        let _ = writeln!(
            out,
            "sharded execution: {} boundary bits in cross-shard delta frames, \
             {} boundary senders summed over rounds",
            t.boundary_bits, t.boundary_nodes
        );
    }
    if !faults.is_trivial() {
        let _ = writeln!(
            out,
            "fault injection: {} dropped (loss {}, burst {}, partition {}, byzantine-mute {}), \
             {} crashed nodes; \
             values remain upper bounds but the factor is no longer guaranteed",
            approx.metrics.total_dropped(),
            t.dropped_loss,
            t.dropped_burst,
            t.dropped_partition,
            t.dropped_byzantine,
            t.crashed_nodes
        );
        if faults.byzantine.is_some() {
            let _ = writeln!(
                out,
                "byzantine detection: {} accusations, {} nodes quarantined",
                t.byzantine_accusations, t.quarantined_nodes
            );
        }
    }
    let top: usize = parsed.flag_num("top", 5)?;
    let mut ranked: Vec<usize> = (0..g.num_nodes()).collect();
    ranked.sort_by(|&a, &b| approx.values[b].partial_cmp(&approx.values[a]).unwrap());
    let _ = writeln!(out, "top {top} nodes by approximate coreness:");
    for &v in ranked.iter().take(top) {
        // Report the dataset's original (external) id, not the dense index.
        let _ = writeln!(
            out,
            "  node {}: beta = {:.3}",
            ds.external(NodeId::new(v)),
            approx.values[v]
        );
    }
    if parsed.switch("exact") {
        let exact = weighted_coreness(g);
        let ratio = ApproxRatio::compute(&approx.values, &exact);
        let _ = writeln!(
            out,
            "vs exact coreness: max ratio {:.3}, mean ratio {:.3}, degeneracy {:.2}",
            ratio.max,
            ratio.mean,
            exact.iter().fold(0.0f64, |a, &b| a.max(b))
        );
    }
    let json_path = parsed.flag_str("json", "");
    if !json_path.is_empty() {
        let mut report = dkc_bench::Report::with_scale_name("cli-coreness", "custom");
        if let Some(from) = resumed_from {
            report.push_note(format!("resumed from checkpoint at round {from}"));
        }
        report.extend(vec![dkc_bench::ExperimentRecord::from_metrics(
            "cli",
            parsed.positional(0, "input edge-list file")?,
            "custom",
            &approx.metrics,
        )]);
        report
            .write_to(&json_path)
            .map_err(|e| format!("failed to write report {json_path}: {e}"))?;
        let _ = writeln!(out, "benchmark report written to {json_path}");
    }
    Ok(out)
}

fn orientation(parsed: &Parsed) -> Result<String, String> {
    parsed.expect_flags(&["epsilon", "compare", "format"])?;
    let ds = load(parsed)?;
    let g = &ds.graph;
    let epsilon: f64 = parsed.flag_num_positive("epsilon", 0.25)?;
    let rounds = epsilon_rounds(epsilon, g.num_nodes())?;
    let approx = approximate_orientation_with_rounds(g, rounds, ExecutionMode::SparseParallel);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "distributed orientation: {} rounds, max in-degree {:.3} (guaranteed factor {:.3})",
        approx.rounds, approx.max_in_degree, approx.guaranteed_factor
    );
    if parsed.switch("compare") {
        let rho = fractional_orientation_lower_bound(g);
        let peel = peeling_orientation(g);
        let greedy = greedy_orientation(g);
        let _ = writeln!(out, "LP lower bound rho*: {rho:.3}");
        let _ = writeln!(
            out,
            "ratios vs rho*: distributed {:.3}, peeling {:.3}, greedy {:.3}",
            approx.max_in_degree / rho.max(1e-12),
            peel.max_in_degree / rho.max(1e-12),
            greedy.max_in_degree / rho.max(1e-12)
        );
    }
    Ok(out)
}

fn densest(parsed: &Parsed) -> Result<String, String> {
    parsed.expect_flags(&["epsilon", "exact", "format"])?;
    let ds = load(parsed)?;
    let g = &ds.graph;
    let epsilon: f64 = parsed.flag_num_positive("epsilon", 0.25)?;
    let rounds = epsilon_rounds(epsilon, g.num_nodes())?;
    // Phases that are not delta-driven fall back to dense (see
    // `ExecutionMode::dense`).
    let result = weak_densest_subsets_with_rounds(g, rounds, ExecutionMode::SparseParallel);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "weak densest subsets: {} clusters, {} total rounds (phases {:?})",
        result.clusters.len(),
        result.rounds_total,
        result.phase_rounds
    );
    let _ = writeln!(out, "best cluster density: {:.3}", result.best_density);
    let mut clusters = result.clusters.clone();
    clusters.sort_by(|a, b| b.actual_density.partial_cmp(&a.actual_density).unwrap());
    for c in clusters.iter().take(5) {
        let _ = writeln!(
            out,
            "  leader {} : size {}, density {:.3}",
            ds.external(c.leader),
            c.size,
            c.actual_density
        );
    }
    if parsed.switch("exact") {
        let exact = densest_subgraph(g);
        let _ = writeln!(
            out,
            "exact densest subset: density {:.3}, size {} (ratio {:.3})",
            exact.density,
            exact.size(),
            exact.density / result.best_density.max(1e-12)
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Parsed {
        Parsed::parse(&v.iter().map(|x| x.to_string()).collect::<Vec<_>>()).unwrap()
    }

    fn temp_graph() -> String {
        static GRAPH: std::sync::OnceLock<String> = std::sync::OnceLock::new();
        GRAPH
            .get_or_init(|| {
                let dir = std::env::temp_dir().join("dkc_cli_cmd_test");
                std::fs::create_dir_all(&dir).unwrap();
                let path = dir.join(format!("small-{}.edges", std::process::id()));
                let mut rng = StdRng::seed_from_u64(3);
                let g = gen::barabasi_albert(80, 3, &mut rng);
                write_edge_list(&g, &path).unwrap();
                path.to_string_lossy().to_string()
            })
            .clone()
    }

    #[test]
    fn generate_inline_output_without_file() {
        let out = dispatch(&parse(&["generate", "path", "--nodes", "5"])).unwrap();
        assert!(out.contains("5 nodes"));
        assert!(out.contains("0 1 1"));
    }

    #[test]
    fn generate_rejects_unknown_model() {
        assert!(dispatch(&parse(&["generate", "hypercube", "--nodes", "8"])).is_err());
    }

    #[test]
    fn stats_reports_basic_quantities() {
        let path = temp_graph();
        let out = dispatch(&parse(&["stats", &path])).unwrap();
        assert!(out.contains("nodes: 80"));
        assert!(out.contains("hop diameter"));
    }

    #[test]
    fn coreness_with_quantization_and_exact() {
        let path = temp_graph();
        let out = dispatch(&parse(&[
            "coreness",
            &path,
            "--epsilon",
            "0.5",
            "--lambda",
            "0.1",
            "--exact",
            "--top",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("max ratio"));
        assert!(out.contains("top 2 nodes"));
        // The measured wire counter is reported next to the estimate.
        assert!(out.contains("wire bits measured"), "{out}");
        assert!(out.contains("payload bits estimated"), "{out}");
    }

    #[test]
    fn orientation_and_densest_commands() {
        let path = temp_graph();
        let o = dispatch(&parse(&["orientation", &path, "--compare"])).unwrap();
        assert!(o.contains("rho*"));
        let d = dispatch(&parse(&["densest", &path, "--exact"])).unwrap();
        assert!(d.contains("exact densest subset"));
    }

    #[test]
    fn missing_file_is_reported() {
        let err = dispatch(&parse(&["stats", "/nonexistent/nowhere.edges"])).unwrap_err();
        assert!(err.contains("failed to read"));
    }

    #[test]
    fn typoed_flags_are_rejected() {
        let path = temp_graph();
        let err = dispatch(&parse(&["coreness", &path, "--epsilonn", "0.1"])).unwrap_err();
        assert!(err.contains("--epsilonn"), "{err}");
        assert!(err.contains("supported flags"), "{err}");
        let err = dispatch(&parse(&["stats", &path, "--top", "3"])).unwrap_err();
        assert!(err.contains("--top"), "{err}");
        let err = dispatch(&parse(&["generate", "path", "--nodse", "5"])).unwrap_err();
        assert!(err.contains("--nodse"), "{err}");
    }

    #[test]
    fn coreness_fault_flags_run_and_report() {
        let path = temp_graph();
        let out = dispatch(&parse(&[
            "coreness",
            &path,
            "--epsilon",
            "0.5",
            "--loss",
            "0.2",
            "--crash",
            "0.3:2:6",
            "--fault-seed",
            "11",
        ]))
        .unwrap();
        assert!(out.contains("fault injection:"), "{out}");
        assert!(out.contains("crashed nodes"), "{out}");
        // Fault-free runs stay silent about fault injection.
        let clean = dispatch(&parse(&["coreness", &path, "--epsilon", "0.5"])).unwrap();
        assert!(!clean.contains("fault injection"), "{clean}");
    }

    #[test]
    fn coreness_fault_flags_are_validated() {
        let path = temp_graph();
        let err = dispatch(&parse(&["coreness", &path, "--loss", "1.5"])).unwrap_err();
        assert!(err.contains("[0, 1]"), "{err}");
        let err = dispatch(&parse(&["coreness", &path, "--crash", "0.5"])).unwrap_err();
        assert!(err.contains("<p>:<first-round>:<last-round>"), "{err}");
        let err = dispatch(&parse(&["coreness", &path, "--crash", "0.5:9:2"])).unwrap_err();
        assert!(err.contains("first <= last"), "{err}");
        // Round-1 crashes would freeze nodes at uninitialized (infinite)
        // surviving numbers; the flag surface rejects them.
        let err = dispatch(&parse(&["coreness", &path, "--crash", "0.5:1:4"])).unwrap_err();
        assert!(err.contains("2 <= first"), "{err}");
        let err = dispatch(&parse(&["coreness", &path, "--burst", "3:9"])).unwrap_err();
        assert!(err.contains("len <= period"), "{err}");
        let err = dispatch(&parse(&["coreness", &path, "--partition", "x:1:2"])).unwrap_err();
        assert!(err.contains("expects a probability"), "{err}");
        // Fault flags belong to coreness only (for now).
        let err = dispatch(&parse(&["stats", &path, "--loss", "0.1"])).unwrap_err();
        assert!(err.contains("--loss"), "{err}");
    }

    #[test]
    fn coreness_shards_match_unsharded_and_report_boundary_traffic() {
        let path = temp_graph();
        let plain = dispatch(&parse(&["coreness", &path, "--rounds", "6", "--top", "3"])).unwrap();
        let sharded = dispatch(&parse(&[
            "coreness",
            &path,
            "--rounds",
            "6",
            "--top",
            "3",
            "--shards",
            "4",
            "--shard-seed",
            "7",
        ]))
        .unwrap();
        // Same coreness estimates: the per-line "top K" output must be
        // identical. (Wire accounting is not compared here — the unsharded CLI
        // path runs the parallel executor, whose frame counts differ from the
        // sparse lockstep that the sharded engine is byte-identical to; that
        // identity is asserted in `dkc-core` and E15.)
        let top = |s: &str| {
            s.lines()
                .filter(|l| l.starts_with("  node"))
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        assert_eq!(top(&plain), top(&sharded), "sharded run diverged");
        assert!(sharded.contains("sharded execution:"), "{sharded}");
        assert!(!plain.contains("sharded execution:"), "{plain}");
        // A single shard has no boundary, hence no boundary line.
        let one = dispatch(&parse(&[
            "coreness", &path, "--rounds", "6", "--shards", "1",
        ]))
        .unwrap();
        assert!(!one.contains("sharded execution:"), "{one}");
        // Sharding composes with fault injection.
        let faulty = dispatch(&parse(&[
            "coreness", &path, "--rounds", "8", "--shards", "2", "--loss", "0.2",
        ]))
        .unwrap();
        assert!(faulty.contains("fault injection:"), "{faulty}");
        assert!(faulty.contains("sharded execution:"), "{faulty}");
    }

    #[test]
    fn coreness_shard_flags_are_validated() {
        let path = temp_graph();
        let err = dispatch(&parse(&["coreness", &path, "--shards", "0"])).unwrap_err();
        assert!(err.contains("must be > 0"), "{err}");
        let err = dispatch(&parse(&["coreness", &path, "--shards", "1025"])).unwrap_err();
        assert!(err.contains("at most 1024"), "{err}");
        let err = dispatch(&parse(&["coreness", &path, "--shard-seed", "7"])).unwrap_err();
        assert!(err.contains("--shard-seed requires --shards"), "{err}");
        // Shard flags belong to coreness only (for now).
        let err = dispatch(&parse(&["stats", &path, "--shards", "2"])).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
    }

    /// A sharded checkpointed run resumes into the same shard partition (the
    /// preamble carries the topology), matching the uninterrupted sharded
    /// run on every deterministic counter, boundary traffic included.
    #[test]
    fn coreness_sharded_checkpoint_and_resume_match() {
        let path = temp_graph();
        let dir = std::env::temp_dir().join("dkc_cli_cmd_test");
        let pid = std::process::id();
        let ck = dir.join(format!("shard-resume-{pid}.dkck"));
        let ref_json = dir.join(format!("shard-ckref-{pid}.json"));
        let res_json = dir.join(format!("shard-ckres-{pid}.json"));
        let ck_s = ck.to_string_lossy().to_string();
        let ref_s = ref_json.to_string_lossy().to_string();
        let res_s = res_json.to_string_lossy().to_string();
        let base = [
            "coreness",
            path.as_str(),
            "--rounds",
            "8",
            "--shards",
            "3",
            "--shard-seed",
            "5",
            "--loss",
            "0.1",
            "--fault-seed",
            "11",
        ];
        let mut v: Vec<&str> = base.to_vec();
        v.extend(["--json", &ref_s]);
        dispatch(&parse(&v)).unwrap();
        let mut v: Vec<&str> = base.to_vec();
        v.extend(["--checkpoint", &ck_s, "--checkpoint-every", "3"]);
        dispatch(&parse(&v)).unwrap();
        let out = dispatch(&parse(&[
            "coreness", &path, "--resume", &ck_s, "--json", &res_s,
        ]))
        .unwrap();
        assert!(out.contains("resumed from checkpoint at round 6"), "{out}");
        let reference = dkc_bench::Report::read_from(&ref_json).unwrap();
        let resumed = dkc_bench::Report::read_from(&res_json).unwrap();
        let (a, b) = (&reference.records[0], &resumed.records[0]);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.counters, b.counters);
        assert!(
            a.counters.boundary_bits > 0,
            "3 shards must exchange boundary frames"
        );
    }

    #[test]
    fn coreness_byzantine_flags_run_and_report() {
        let path = temp_graph();
        let out = dispatch(&parse(&[
            "coreness",
            &path,
            "--rounds",
            "10",
            "--byzantine",
            "0.3:all:2:8",
            "--quarantine",
            "1",
            "--fault-seed",
            "11",
        ]))
        .unwrap();
        assert!(out.contains("byzantine-mute"), "{out}");
        assert!(out.contains("byzantine detection:"), "{out}");
        assert!(out.contains("accusations"), "{out}");
        assert!(out.contains("quarantined"), "{out}");
        // Non-byzantine fault runs do not print the detection line.
        let plain = dispatch(&parse(&["coreness", &path, "--loss", "0.2"])).unwrap();
        assert!(!plain.contains("byzantine detection"), "{plain}");
    }

    #[test]
    fn coreness_byzantine_flags_are_validated() {
        let path = temp_graph();
        let err = dispatch(&parse(&["coreness", &path, "--byzantine", "0.2"])).unwrap_err();
        assert_eq!(
            err,
            "--byzantine expects <fraction>:<behaviors>:<first-round>:<last-round>, got \"0.2\""
        );
        let err = dispatch(&parse(&["coreness", &path, "--byzantine", "1.5:all:2:9"])).unwrap_err();
        assert_eq!(err, "--byzantine must be in [0, 1] (got 1.5)");
        let err = dispatch(&parse(&[
            "coreness",
            &path,
            "--byzantine",
            "0.2:gossip:2:9",
        ]))
        .unwrap_err();
        assert_eq!(
            err,
            "--byzantine: unknown behavior name \"gossip\" \
             (expected lie, equivocate, mute, spam, or all)"
        );
        let err = dispatch(&parse(&["coreness", &path, "--byzantine", "0.2:all:1:9"])).unwrap_err();
        assert_eq!(
            err,
            "--byzantine window must satisfy 2 <= first <= last (got 1..=9)"
        );
        let err = dispatch(&parse(&["coreness", &path, "--byzantine", "0.2:all:2:x"])).unwrap_err();
        assert_eq!(err, "--byzantine: last round must be an integer, got \"x\"");
        let err = dispatch(&parse(&["coreness", &path, "--quarantine", "2"])).unwrap_err();
        assert_eq!(err, "--quarantine requires --byzantine");
        let err = dispatch(&parse(&[
            "coreness",
            &path,
            "--byzantine",
            "0.2:all:2:9",
            "--quarantine",
            "many",
        ]))
        .unwrap_err();
        assert_eq!(
            err,
            "--quarantine expects an accusation threshold, got \"many\""
        );
        // Byzantine flags belong to coreness only (for now).
        let err = dispatch(&parse(&["stats", &path, "--byzantine", "0.2:all:2:9"])).unwrap_err();
        assert!(err.contains("--byzantine"), "{err}");
    }

    #[test]
    fn epsilon_range_is_validated() {
        let path = temp_graph();
        for bad in ["-0.5", "0", "nan"] {
            let err = dispatch(&parse(&["coreness", &path, "--epsilon", bad])).unwrap_err();
            assert!(err.contains("must be > 0"), "{bad}: {err}");
            let err = dispatch(&parse(&["orientation", &path, "--epsilon", bad])).unwrap_err();
            assert!(err.contains("must be > 0"), "{bad}: {err}");
            let err = dispatch(&parse(&["densest", &path, "--epsilon", bad])).unwrap_err();
            assert!(err.contains("must be > 0"), "{bad}: {err}");
        }
        // A derived T past MAX_ROUNDS (here billions of rounds) is an
        // error, not an allocation of one `RoundStats` per round.
        for cmd in ["coreness", "orientation", "densest"] {
            let err = dispatch(&parse(&[cmd, &path, "--epsilon", "1e-9"])).unwrap_err();
            assert!(err.contains("outside the legal range"), "{cmd}: {err}");
        }
        // --rounds must lie in 1..=MAX_ROUNDS: 0 used to trip an assertion,
        // u32::MAX an allocation of gigabytes.
        for bad in ["0", "65537", "4294967295"] {
            let err = dispatch(&parse(&["coreness", &path, "--rounds", bad])).unwrap_err();
            assert!(
                err.contains("--rounds") && err.contains("1..=65536"),
                "{bad}: {err}"
            );
        }
        let err = dispatch(&parse(&["coreness", &path, "--lambda", "-1"])).unwrap_err();
        assert!(err.contains("lambda"), "{err}");
        // Positive but below the power-grid representability floor: a clean
        // error, not an assertion panic.
        let err = dispatch(&parse(&["coreness", &path, "--lambda", "1e-13"])).unwrap_err();
        assert!(err.contains(">= 1e-12"), "{err}");
    }

    fn sparse_fixture() -> String {
        // Written exactly once: the tests sharing this fixture run on
        // parallel threads, and a concurrent truncate-then-write could hand
        // a reader a partial file.
        static FIXTURE: std::sync::OnceLock<String> = std::sync::OnceLock::new();
        FIXTURE
            .get_or_init(|| {
                let dir = std::env::temp_dir().join("dkc_cli_cmd_test");
                std::fs::create_dir_all(&dir).unwrap();
                let path = dir.join(format!("sparse-{}.edges", std::process::id()));
                // A triangle plus a pendant, with SNAP-style sparse ids.
                std::fs::write(
                    &path,
                    "# sparse-id fixture\n1000000000 7 1\n7 123456 1\n123456 1000000000 1\n7 99 1\n",
                )
                .unwrap();
                path.to_string_lossy().to_string()
            })
            .clone()
    }

    #[test]
    fn sparse_ids_load_and_report_original_ids() {
        let path = sparse_fixture();
        let stats = dispatch(&parse(&["stats", &path])).unwrap();
        assert!(stats.contains("nodes: 4"), "{stats}");
        assert!(stats.contains("sparse external ids remapped"), "{stats}");
        let core = dispatch(&parse(&[
            "coreness",
            &path,
            "--epsilon",
            "0.5",
            "--top",
            "4",
        ]))
        .unwrap();
        assert!(core.contains("node 1000000000"), "{core}");
    }

    #[test]
    fn stream_stats_matches_materialized_stats() {
        let path = sparse_fixture();
        let streamed = dispatch(&parse(&["stats", &path, "--stream"])).unwrap();
        assert!(streamed.contains("nodes: 4"), "{streamed}");
        assert!(streamed.contains("edges: 4"), "{streamed}");
        assert!(streamed.contains("streaming pass"), "{streamed}");
    }

    #[test]
    fn convert_round_trips_with_identical_coreness() {
        use dkc_baselines::weighted_coreness;
        let sparse = sparse_fixture();
        let dir = std::env::temp_dir().join("dkc_cli_cmd_test");
        let pid = std::process::id();
        let metis = dir
            .join(format!("conv-{pid}.metis"))
            .to_string_lossy()
            .to_string();
        let binary = dir
            .join(format!("conv-{pid}.dkcb"))
            .to_string_lossy()
            .to_string();
        let back = dir
            .join(format!("conv_back-{pid}.edges"))
            .to_string_lossy()
            .to_string();
        dispatch(&parse(&["convert", &sparse, &metis])).unwrap();
        dispatch(&parse(&["convert", &metis, &binary])).unwrap();
        dispatch(&parse(&["convert", &binary, &back])).unwrap();
        let original = dkc_graph::ingest::read_dataset(&sparse, DatasetFormat::EdgeList).unwrap();
        let reference = weighted_coreness(&original.graph);
        for (path, fmt) in [
            (&metis, DatasetFormat::Metis),
            (&binary, DatasetFormat::Binary),
            (&back, DatasetFormat::EdgeList),
        ] {
            let ds = dkc_graph::ingest::read_dataset(path, fmt).unwrap();
            let coreness = weighted_coreness(&ds.graph);
            assert_eq!(
                coreness,
                reference,
                "coreness drifted through {}",
                fmt.name()
            );
        }
    }

    #[test]
    fn convert_rejects_unknown_formats() {
        let sparse = sparse_fixture();
        let err = dispatch(&parse(&[
            "convert",
            &sparse,
            "/tmp/x.edges",
            "--to",
            "parquet",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown format"), "{err}");
        let err = dispatch(&parse(&["convert", &sparse])).unwrap_err();
        assert!(err.contains("output dataset file"), "{err}");
    }

    #[test]
    fn coreness_checkpoint_and_resume_match_uninterrupted_run() {
        let path = temp_graph();
        let dir = std::env::temp_dir().join("dkc_cli_cmd_test");
        let pid = std::process::id();
        let ck = dir.join(format!("resume-{pid}.dkck"));
        let ref_json = dir.join(format!("ckref-{pid}.json"));
        let res_json = dir.join(format!("ckres-{pid}.json"));
        let ck_s = ck.to_string_lossy().to_string();
        let ref_s = ref_json.to_string_lossy().to_string();
        let res_s = res_json.to_string_lossy().to_string();
        let base = [
            "coreness",
            path.as_str(),
            "--rounds",
            "8",
            "--loss",
            "0.1",
            "--fault-seed",
            "11",
        ];
        // Uninterrupted reference run.
        let mut v: Vec<&str> = base.to_vec();
        v.extend(["--json", &ref_s]);
        dispatch(&parse(&v)).unwrap();
        // The same run with checkpoints every 3 rounds (boundaries 3 and 6;
        // the file ends up holding round 6).
        let mut v: Vec<&str> = base.to_vec();
        v.extend(["--checkpoint", &ck_s, "--checkpoint-every", "3"]);
        let out = dispatch(&parse(&v)).unwrap();
        assert!(out.contains("checkpointing to"), "{out}");
        assert!(ck.exists());
        // Resume finishes the remaining rounds; all run parameters come from
        // the checkpoint, so only output flags are passed.
        let out = dispatch(&parse(&[
            "coreness", &path, "--resume", &ck_s, "--json", &res_s,
        ]))
        .unwrap();
        assert!(out.contains("resumed from checkpoint at round 6"), "{out}");
        // Every deterministic counter matches the uninterrupted run.
        let reference = dkc_bench::Report::read_from(&ref_json).unwrap();
        let resumed = dkc_bench::Report::read_from(&res_json).unwrap();
        let (a, b) = (&reference.records[0], &resumed.records[0]);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.counters, b.counters);
        // The resumed report carries a provenance note; the reference does not.
        assert!(reference.notes.is_empty());
        assert!(
            resumed
                .notes
                .iter()
                .any(|n| n.contains("resumed from checkpoint at round 6")),
            "{:?}",
            resumed.notes
        );
    }

    /// `--resume` runs under the activation the checkpoint was written with:
    /// a dense checkpoint resumes dense and one written by the default run
    /// resumes sparse, each finishing exactly like its uninterrupted run.
    #[test]
    fn coreness_resume_follows_the_checkpoint_activation() {
        let path = temp_graph();
        let ds = read_dataset(&path, DatasetFormat::EdgeList).unwrap();
        let g = &ds.graph;
        let dir = std::env::temp_dir().join("dkc_cli_cmd_test");
        let pid = std::process::id();
        let runs = [
            ("dense", RunSpec::new(8).mode(ExecutionMode::Parallel)),
            ("default", RunSpec::new(8)),
        ]
        .map(|(tag, spec)| (tag, run_compact_elimination(g, &spec).unwrap(), spec));
        // The two activations send different traffic, so the counters tell
        // which one a resume ran.
        assert_ne!(runs[0].1.metrics.rounds(), runs[1].1.metrics.rounds());
        for (tag, reference, spec) in runs {
            let ck = dir.join(format!("activation-{tag}-{pid}.dkck"));
            let json = dir.join(format!("activation-{tag}-{pid}.json"));
            let cfg = CheckpointConfig {
                path: ck.clone(),
                every: 3,
            };
            run_compact_elimination(g, &spec.checkpoint(cfg)).unwrap();
            let args = [
                "coreness",
                &path,
                "--resume",
                &ck.to_string_lossy(),
                "--top",
                "80",
                "--json",
                &json.to_string_lossy(),
            ]
            .map(String::from);
            let out = crate::run(&args).unwrap();
            assert!(out.contains("resumed from checkpoint at round 6"), "{out}");
            // Every node's printed value matches the uninterrupted run.
            for v in 0..g.num_nodes() {
                let line = format!(
                    "  node {}: beta = {:.3}\n",
                    ds.external(NodeId::new(v)),
                    reference.surviving[v]
                );
                assert!(out.contains(&line), "{tag}: missing {line:?} in\n{out}");
            }
            // So does every counter.
            let report = dkc_bench::Report::read_from(&json).unwrap();
            let expected =
                dkc_bench::ExperimentRecord::from_metrics("cli", "", "", &reference.metrics);
            assert_eq!(report.records[0].counters, expected.counters, "{tag}");
        }
    }

    #[test]
    fn coreness_checkpoint_flags_are_validated() {
        let path = temp_graph();
        // --checkpoint-every needs a path to write to.
        let err = dispatch(&parse(&["coreness", &path, "--checkpoint-every", "2"])).unwrap_err();
        assert!(err.contains("requires --checkpoint"), "{err}");
        // Zero intervals are rejected by the numeric range check.
        let err = dispatch(&parse(&[
            "coreness",
            &path,
            "--checkpoint",
            "/tmp/x.dkck",
            "--checkpoint-every",
            "0",
        ]))
        .unwrap_err();
        assert!(err.contains("checkpoint-every"), "{err}");
        // Run-parameter flags conflict with --resume.
        for flag in RESUME_CONFLICTS {
            let dashed = format!("--{flag}");
            let err = dispatch(&parse(&[
                "coreness",
                &path,
                "--resume",
                "/tmp/x.dkck",
                &dashed,
                "3",
            ]))
            .unwrap_err();
            assert!(err.contains("conflicts with --resume"), "{flag}: {err}");
        }
        // A missing checkpoint file is a clean error.
        let err = dispatch(&parse(&[
            "coreness",
            &path,
            "--resume",
            "/nonexistent/nowhere.dkck",
        ]))
        .unwrap_err();
        assert!(err.contains("failed to resume"), "{err}");
    }

    #[test]
    fn coreness_json_writes_a_valid_report() {
        let path = temp_graph();
        let report_path = std::env::temp_dir()
            .join("dkc_cli_cmd_test")
            .join("coreness_report.json");
        let report_str = report_path.to_string_lossy().to_string();
        let out = dispatch(&parse(&[
            "coreness",
            &path,
            "--epsilon",
            "0.5",
            "--json",
            &report_str,
        ]))
        .unwrap();
        assert!(out.contains("benchmark report written"));
        let report = dkc_bench::Report::read_from(&report_path).unwrap();
        assert_eq!(report.suite, "cli-coreness");
        assert_eq!(report.records.len(), 1);
        assert!(report.records[0].counters.messages > 0);
        assert_eq!(report.records[0].scale, "custom");
    }
}
