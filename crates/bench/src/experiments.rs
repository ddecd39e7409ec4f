//! Experiment implementations E1–E15 (see DESIGN.md §4). Each returns an
//! [`ExperimentOutput`]: a [`Table`] for human consumption plus the
//! [`ExperimentRecord`]s feeding the machine-readable report pipeline
//! (`--json`, see [`crate::report`]).

use crate::report::ExperimentRecord;
use crate::table::{f1, f3, Table};
use crate::workloads::{standard_suite, WorkloadScale};
use dkc_baselines::{
    barenboim_elkin_orientation, greedy_orientation, montresor_exact_coreness,
    montresor_exact_coreness_with_faults, peeling_orientation, weighted_coreness,
};
use dkc_core::api::{guaranteed_factor, rounds_for_epsilon};
use dkc_core::compact::{run_compact_elimination, CompactOutcome, RunSpec};
use dkc_core::densest::weak_densest_subsets_with_rounds;
use dkc_core::orientation::orientation_from_compact;
use dkc_core::ratio::ApproxRatio;
use dkc_core::surviving::surviving_numbers;
use dkc_core::threshold::ThresholdSet;
use dkc_distsim::{ExecutionMode, RoundStats, RunMetrics};
use dkc_flow::{dense_decomposition, densest_subgraph, exact_unit_orientation};
use dkc_graph::generators::{complete_graph, fig1_gadget, tree_with_leaf_clique, Fig1Variant};
use dkc_graph::properties::diameter_double_sweep;
use dkc_graph::{CsrGraph, NodeId};
// Wall-clock audit (dkc-lint D02 allowlist): every `Instant::now` in this
// file times a phase for a table column or a record's wall_clock_ms /
// messages_per_sec; the counters `dkc-bench check` gates never depend on it
// (crates/bench/tests/wall_clock_isolation.rs pins this).
use std::time::Instant;

/// The process-wide `--mode` override (see [`set_default_mode`]).
static DEFAULT_MODE: std::sync::OnceLock<ExecutionMode> = std::sync::OnceLock::new();

/// Installs the executor backend protocol measurements run under — called
/// once by `ExpArgs::parse` (the `--mode` flag), before any experiment runs.
/// Later calls are ignored, mirroring the first-wins semantics of the global
/// rayon pool the `--threads` flag configures.
pub fn set_default_mode(mode: ExecutionMode) {
    let _ = DEFAULT_MODE.set(mode);
}

/// The executor backend experiments use where they do not explicitly compare
/// modes (E9/E12 keep their explicit per-mode legs): the dense lockstep
/// parallel executor unless `--mode mailbox` selected the message-passing
/// backend. Every deterministic counter is identical across the two by
/// construction, so reports gate against the same baseline either way.
fn default_mode() -> ExecutionMode {
    *DEFAULT_MODE.get().unwrap_or(&ExecutionMode::Parallel)
}

/// Runs compact elimination as `spec` says; experiments never checkpoint and
/// ask for a legal T, so the run cannot fail.
fn eliminate(g: &dkc_graph::WeightedGraph, spec: RunSpec) -> CompactOutcome {
    run_compact_elimination(g, &spec).expect("a legal T and no checkpoint")
}

/// The result of one experiment: the rendered table plus the structured
/// measurement records behind it.
pub struct ExperimentOutput {
    /// Human-readable rows (what the binaries print).
    pub table: Table,
    /// Machine-readable per-run records (what `--json` serializes). Records
    /// from scale-parameterized experiments carry their scale; records from
    /// scale-agnostic gadget experiments leave it empty for
    /// [`crate::report::Report::extend`] to stamp.
    pub records: Vec<ExperimentRecord>,
}

impl ExperimentOutput {
    fn new(table: Table) -> Self {
        ExperimentOutput {
            table,
            records: Vec::new(),
        }
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        self.table.print();
    }
}

/// Canonical E1 ring sizes per scale — the single source of truth shared by
/// `exp_fig1` and `exp_all` so their tiny/full runs agree.
pub fn fig1_sizes(scale: WorkloadScale) -> &'static [usize] {
    match scale {
        WorkloadScale::Tiny => &[16, 32, 64],
        _ => &[16, 32, 64, 128, 256, 512, 1024],
    }
}

/// Canonical E6 runs (`(gammas, depth)` pairs) per scale — shared by
/// `exp_lower_bound` and `exp_all`.
pub fn lower_bound_runs(scale: WorkloadScale) -> &'static [(&'static [usize], usize)] {
    match scale {
        WorkloadScale::Tiny => &[(&[2], 4)],
        _ => &[(&[2, 3], 8), (&[4], 5), (&[8], 4)],
    }
}

/// Canonical E9 scaling sizes (Barabási–Albert node counts) per scale.
pub fn scaling_sizes(scale: WorkloadScale) -> &'static [usize] {
    match scale {
        WorkloadScale::Tiny => &[2_000],
        WorkloadScale::Small => &[20_000],
        WorkloadScale::Medium => &[20_000, 100_000],
    }
}

/// E1 / Figure I.1: the factor-2 lower-bound gadgets. For each ring size the
/// table reports the coreness of the distinguished node `v` in each variant
/// and its surviving number after `T ≪ n/2` rounds — identical across
/// variants, certifying that no `o(n)`-round protocol can beat factor 2.
pub fn exp_fig1(ring_sizes: &[usize]) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(Table::new(
        "E1 (Figure I.1): 2-approximation barrier gadgets",
        &[
            "n",
            "T",
            "c(v) A",
            "c(v) B",
            "c(v) C",
            "beta(v) A",
            "beta(v) B",
            "beta(v) C",
            "identical",
        ],
    ));
    for &n in ring_sizes {
        let a = fig1_gadget(n, Fig1Variant::A);
        let b = fig1_gadget(n, Fig1Variant::B);
        let c = fig1_gadget(n, Fig1Variant::C);
        let rounds = (n / 2).saturating_sub(3).max(1).min(n);
        let ca = weighted_coreness(&a)[0];
        let cb = weighted_coreness(&b)[0];
        let cc = weighted_coreness(&c)[0];
        let ba = surviving_numbers(&a, rounds)[0];
        let bb = surviving_numbers(&b, rounds)[0];
        let bc = surviving_numbers(&c, rounds)[0];
        // Record the distributed counterpart on variant A: the simulator run
        // gives the real message/bit counters behind the beta column.
        let run = eliminate(&a, RunSpec::new(rounds).mode(default_mode()));
        out.records.push(ExperimentRecord::from_metrics(
            "E1",
            format!("fig1-ring-{n}"),
            "",
            &run.metrics,
        ));
        out.table.row(vec![
            n.to_string(),
            rounds.to_string(),
            f1(ca),
            f1(cb),
            f1(cc),
            f1(ba),
            f1(bb),
            f1(bc),
            (ba == bb && bb == bc).to_string(),
        ]);
    }
    out
}

/// E2 / Theorem I.1: approximation ratio of the surviving numbers against the
/// exact coreness (and maximal density on small instances) as a function of
/// the number of rounds.
pub fn exp_coreness_ratio(
    scale: WorkloadScale,
    round_fractions: &[f64],
    epsilon: f64,
) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(Table::new(
        format!("E2 (Theorem I.1): coreness approximation ratio vs rounds (eps = {epsilon})"),
        &[
            "graph",
            "n",
            "T",
            "bound 2n^(1/T)",
            "max b/c",
            "mean b/c",
            "max b/r",
            "mean b/r",
        ],
    ));
    for workload in standard_suite(scale) {
        let g = &workload.graph;
        let n = g.num_nodes();
        let t_full = rounds_for_epsilon(n, epsilon);
        let started = Instant::now();
        let exact_core = weighted_coreness(g);
        // Exact maximal densities are flow-based and only computed at small scale.
        let maximal_density = if n <= 2500 {
            Some(dense_decomposition(g).maximal_density)
        } else {
            None
        };
        for &fraction in round_fractions {
            let rounds = ((t_full as f64 * fraction).round() as usize).clamp(1, t_full);
            let beta = surviving_numbers(g, rounds);
            let vs_core = ApproxRatio::compute(&beta, &exact_core);
            let (max_r, mean_r) = match &maximal_density {
                Some(r) => {
                    let vs_r = ApproxRatio::compute(&beta, r);
                    (f3(vs_r.max), f3(vs_r.mean))
                }
                None => ("-".into(), "-".into()),
            };
            out.table.row(vec![
                workload.name.into(),
                n.to_string(),
                rounds.to_string(),
                f3(guaranteed_factor(n, rounds)),
                f3(vs_core.max),
                f3(vs_core.mean),
                max_r,
                mean_r,
            ]);
        }
        // The reference computations are centralized: real wall-clock and
        // round budget, no simulated communication.
        out.records.push(ExperimentRecord::centralized(
            "E2",
            format!("{}-eps{epsilon}", workload.name),
            scale.name(),
            started.elapsed(),
            t_full,
        ));
    }
    out
}

/// E3 / Theorem I.1: empirical rounds needed to reach a 2(1+ε) (and plain 2)
/// worst-node approximation, versus the theoretical bound and the diameter.
pub fn exp_rounds_to_target(scale: WorkloadScale, epsilon: f64) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(Table::new(
        format!("E3: rounds to reach the target ratio (eps = {epsilon})"),
        &[
            "graph",
            "n",
            "diameter>=",
            "T theory",
            "T to 2(1+eps)",
            "T to 2.0",
            "T to 1.1",
        ],
    ));
    for workload in standard_suite(scale) {
        let g = &workload.graph;
        let n = g.num_nodes();
        let t_theory = rounds_for_epsilon(n, epsilon);
        let started = Instant::now();
        let exact_core = weighted_coreness(g);
        let diameter = diameter_double_sweep(&CsrGraph::from(g), NodeId(0));
        let budget = t_theory.max(24);
        let per_round = dkc_core::surviving::surviving_numbers_per_round(g, budget);
        let first_round_below = |target: f64| -> String {
            per_round
                .iter()
                .position(|beta| ApproxRatio::compute(beta, &exact_core).max <= target + 1e-9)
                .map(|i| (i + 1).to_string())
                .unwrap_or_else(|| format!(">{}", per_round.len()))
        };
        out.table.row(vec![
            workload.name.into(),
            n.to_string(),
            diameter.to_string(),
            t_theory.to_string(),
            first_round_below(2.0 * (1.0 + epsilon)),
            first_round_below(2.0),
            first_round_below(1.1),
        ]);
        out.records.push(ExperimentRecord::centralized(
            "E3",
            workload.name,
            scale.name(),
            started.elapsed(),
            budget,
        ));
    }
    out
}

/// E4 / Theorem I.2: min-max orientation quality of the distributed algorithm
/// versus the LP lower bound ρ*, the exact optimum (unit-weight instances),
/// and the baselines.
pub fn exp_orientation(scale: WorkloadScale, epsilon: f64) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(Table::new(
        format!("E4 (Theorem I.2): min-max orientation, load / rho* (eps = {epsilon})"),
        &[
            "graph",
            "rho*",
            "opt (unit)",
            "distributed",
            "peeling",
            "greedy",
            "BE 2-phase",
            "bound",
        ],
    ));
    for workload in standard_suite(scale) {
        let g = &workload.graph;
        let n = g.num_nodes();
        if n > 2500 {
            continue; // exact rho* is flow-based; keep instances small
        }
        let rho = densest_subgraph(g).density;
        if rho <= 0.0 {
            continue;
        }
        let rounds = rounds_for_epsilon(n, epsilon);
        let compact = eliminate(g, RunSpec::new(rounds).mode(default_mode()));
        out.records.push(ExperimentRecord::from_metrics(
            "E4",
            format!("{}-eps{epsilon}", workload.name),
            scale.name(),
            &compact.metrics,
        ));
        let distributed = orientation_from_compact(g, &compact);
        let opt = if workload.weighted {
            "-".to_string()
        } else {
            exact_unit_orientation(g).max_in_degree.to_string()
        };
        let peel = peeling_orientation(g);
        let greedy = greedy_orientation(g);
        let be = barenboim_elkin_orientation(g, compact.max_surviving(), epsilon, 20 * rounds);
        out.table.row(vec![
            workload.name.into(),
            f3(rho),
            opt,
            f3(distributed.max_in_degree / rho),
            f3(peel.max_in_degree / rho),
            f3(greedy.max_in_degree / rho),
            if be.complete {
                f3(be.max_in_degree / rho)
            } else {
                "stalled".into()
            },
            f3(guaranteed_factor(n, rounds)),
        ]);
    }
    out
}

/// E5 / Theorem I.3: quality of the weak densest-subset protocol.
pub fn exp_densest(scale: WorkloadScale, epsilon: f64) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(Table::new(
        format!("E5 (Theorem I.3): weak densest subset (eps = {epsilon})"),
        &[
            "graph",
            "rho*",
            "best cluster",
            "ratio rho*/best",
            "clusters",
            "rounds",
            "guarantee",
        ],
    ));
    for workload in standard_suite(scale) {
        let g = &workload.graph;
        let n = g.num_nodes();
        if n > 2500 {
            continue;
        }
        let rho = densest_subgraph(g).density;
        if rho <= 0.0 {
            continue;
        }
        let rounds = rounds_for_epsilon(n, epsilon);
        let started = Instant::now();
        let result = weak_densest_subsets_with_rounds(g, rounds, default_mode());
        // The four-phase protocol exposes round and message totals but not
        // bit-level counters; those fields stay zero.
        out.records.push(ExperimentRecord::from_counts(
            "E5",
            format!("{}-eps{epsilon}", workload.name),
            scale.name(),
            started.elapsed(),
            result.rounds_total,
            result.total_messages,
        ));
        out.table.row(vec![
            workload.name.into(),
            f3(rho),
            f3(result.best_density),
            f3(rho / result.best_density.max(1e-12)),
            result.clusters.len().to_string(),
            result.rounds_total.to_string(),
            f3(guaranteed_factor(n, rounds)),
        ]);
    }
    out
}

/// E6 / Lemma III.13: the γ-ary tree with a leaf clique. The root's surviving
/// number only reflects the clique once the round budget reaches the tree
/// depth, matching the Ω(log n / log γ) lower bound.
pub fn exp_lower_bound(gammas: &[usize], depth: usize) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(Table::new(
        "E6 (Lemma III.13): gamma-ary tree with leaf clique — root's view vs rounds",
        &[
            "gamma",
            "n",
            "depth",
            "T",
            "beta tree",
            "beta clique",
            "distinguishable",
        ],
    ));
    for &gamma in gammas {
        let (tree, root, _) = tree_with_leaf_clique(gamma, depth, false);
        let (clique, _, _) = tree_with_leaf_clique(gamma, depth, true);
        let n = clique.num_nodes();
        for rounds in [
            1,
            depth / 2,
            depth.saturating_sub(1),
            depth,
            depth + 2,
            3 * depth,
        ] {
            let rounds = rounds.max(1);
            let bt = surviving_numbers(&tree, rounds)[root.index()];
            let bc = surviving_numbers(&clique, rounds)[root.index()];
            out.table.row(vec![
                gamma.to_string(),
                n.to_string(),
                depth.to_string(),
                rounds.to_string(),
                f3(bt),
                f3(bc),
                (bt != bc).to_string(),
            ]);
        }
        // Record a simulator run on the clique variant at the critical round
        // budget (the tree depth).
        let run = eliminate(&clique, RunSpec::new(depth).mode(default_mode()));
        out.records.push(ExperimentRecord::from_metrics(
            "E6",
            format!("tree-g{gamma}-d{depth}"),
            "",
            &run.metrics,
        ));
    }
    out
}

/// E7 / Corollary III.10: message size and accuracy under (1+λ)-quantization.
pub fn exp_message_size(scale: WorkloadScale, lambdas: &[f64], epsilon: f64) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(Table::new(
        format!("E7 (Cor. III.10): CONGEST message size under quantization (eps = {epsilon})"),
        &[
            "graph",
            "lambda",
            "max msg bits",
            "total kbits",
            "wire kbits",
            "max ratio vs exact-run",
            "congest budget",
        ],
    ));
    for workload in standard_suite(scale) {
        let g = &workload.graph;
        if !workload.weighted && workload.name != "ba" {
            continue; // one unweighted and one weighted representative suffice
        }
        let n = g.num_nodes();
        let rounds = rounds_for_epsilon(n, epsilon);
        let exact = eliminate(g, RunSpec::new(rounds).mode(default_mode()));
        out.records.push(ExperimentRecord::from_metrics(
            "E7",
            format!("{}-reals", workload.name),
            scale.name(),
            &exact.metrics,
        ));
        let budget = dkc_distsim::congest_budget_bits(n, 1);
        let exact_totals = exact.metrics.totals();
        out.table.row(vec![
            workload.name.into(),
            "0 (reals)".into(),
            exact_totals.max_message_bits.to_string(),
            f1(exact_totals.payload_bits as f64 / 1e3),
            f1(exact_totals.wire_bits as f64 / 1e3),
            f3(1.0),
            budget.to_string(),
        ]);
        for &lambda in lambdas {
            let quantized = eliminate(
                g,
                RunSpec::new(rounds)
                    .threshold_set(ThresholdSet::power_grid(lambda))
                    .mode(default_mode()),
            );
            out.records.push(ExperimentRecord::from_metrics(
                "E7",
                format!("{}-lam{lambda}", workload.name),
                scale.name(),
                &quantized.metrics,
            ));
            let ratio = ApproxRatio::compute(&exact.surviving, &quantized.surviving);
            let totals = quantized.metrics.totals();
            out.table.row(vec![
                workload.name.into(),
                format!("{lambda}"),
                totals.max_message_bits.to_string(),
                f1(totals.payload_bits as f64 / 1e3),
                f1(totals.wire_bits as f64 / 1e3),
                f3(ratio.max),
                budget.to_string(),
            ]);
        }
    }
    out
}

/// E8: rounds to convergence of the exact distributed protocol (Montresor et
/// al.) versus the rounds of the 2(1+ε)-approximation, on low- and
/// high-diameter graphs.
pub fn exp_vs_exact(scale: WorkloadScale, epsilon: f64) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(Table::new(
        format!("E8: exact distributed k-core vs diameter-free approximation (eps = {epsilon})"),
        &[
            "graph",
            "n",
            "diameter>=",
            "exact rounds",
            "approx rounds",
            "approx max ratio",
        ],
    ));
    for workload in standard_suite(scale) {
        let g = &workload.graph;
        let n = g.num_nodes();
        let diameter = diameter_double_sweep(&CsrGraph::from(g), NodeId(0));
        let exact_core = weighted_coreness(g);
        let exact_run = montresor_exact_coreness(g, 20 * n, default_mode());
        out.records.push(ExperimentRecord::from_metrics(
            "E8",
            format!("{}-exact", workload.name),
            scale.name(),
            &exact_run.metrics,
        ));
        let rounds = rounds_for_epsilon(n, epsilon);
        let approx = eliminate(g, RunSpec::new(rounds).mode(default_mode()));
        out.records.push(ExperimentRecord::from_metrics(
            "E8",
            format!("{}-approx", workload.name),
            scale.name(),
            &approx.metrics,
        ));
        let ratio = ApproxRatio::compute(&approx.surviving, &exact_core);
        out.table.row(vec![
            workload.name.into(),
            n.to_string(),
            diameter.to_string(),
            exact_run.rounds.to_string(),
            rounds.to_string(),
            f3(ratio.max),
        ]);
    }
    out
}

/// E9: simulator scaling — the same protocol run sequentially and
/// data-parallel, on (a) the compact elimination over a Barabási–Albert graph
/// (broadcast-heavy; the paper's main protocol) and (b) a dense multicast
/// stress where every node of a complete graph multicasts to every second
/// neighbour (exercising the CSR-position-indexed scatter). Counters are
/// identical across modes by construction; the timing columns are the
/// measurement.
pub fn exp_scaling(scale: WorkloadScale) -> ExperimentOutput {
    use dkc_graph::generators::barabasi_albert;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut out = ExperimentOutput::new(Table::new(
        "E9: round executor scaling (sequential vs parallel)",
        &[
            "workload",
            "n",
            "rounds",
            "messages",
            "seq ms",
            "par ms",
            "seq Mmsg/s",
            "par Mmsg/s",
        ],
    ));
    let modes = [
        ("seq", ExecutionMode::Sequential),
        ("par", ExecutionMode::Parallel),
    ];

    for &n in scaling_sizes(scale) {
        let mut rng = StdRng::seed_from_u64(9);
        let g = barabasi_albert(n, 4, &mut rng);
        let rounds = rounds_for_epsilon(n, 0.5);
        for (label, mode) in modes {
            let run = eliminate(&g, RunSpec::new(rounds).mode(mode));
            out.records.push(ExperimentRecord::from_metrics(
                "E9",
                format!("ba-{n}-{label}"),
                scale.name(),
                &run.metrics,
            ));
        }
        push_scaling_row(&mut out, "ba-compact", n);
        // The same protocol under the sparse frontier executor (E12 studies
        // the activation win in depth; here it rides the scaling matrix so
        // thread scaling of the sparse receive phase is visible too).
        for (label, mode) in [
            ("sparse-seq", ExecutionMode::SparseSequential),
            ("sparse-par", ExecutionMode::SparseParallel),
        ] {
            let run = eliminate(&g, RunSpec::new(rounds).mode(mode));
            out.records.push(ExperimentRecord::from_metrics(
                "E9",
                format!("ba-{n}-{label}"),
                scale.name(),
                &run.metrics,
            ));
        }
        push_scaling_row(&mut out, "ba-compact-sparse", n);
    }

    // Multicast stress: small complete graph, five rounds of half-degree
    // multicasts.
    let stress_n = match scale {
        WorkloadScale::Tiny => 200,
        WorkloadScale::Small => 1_000,
        WorkloadScale::Medium => 2_000,
    };
    let g = complete_graph(stress_n);
    let stress_rounds = 5usize;
    for (label, mode) in modes {
        let mut net = dkc_distsim::NetworkBuilder::new()
            .mode(mode)
            .build(&g, |_| HalfMulticast);
        net.run(stress_rounds);
        out.records.push(ExperimentRecord::from_metrics(
            "E9",
            format!("multicast-stress-{stress_n}-{label}"),
            scale.name(),
            net.metrics(),
        ));
    }
    push_scaling_row(&mut out, "multicast-stress", stress_n);
    out
}

/// Renders one E9 table row from the last two (seq, par) records pushed.
fn push_scaling_row(out: &mut ExperimentOutput, workload: &str, n: usize) {
    let [seq, par] = &out.records[out.records.len() - 2..] else {
        unreachable!("a scaling row always follows a seq/par record pair");
    };
    let mmsg = |r: &ExperimentRecord| {
        if r.messages_per_sec > 0.0 {
            f3(r.messages_per_sec / 1e6)
        } else {
            "-".into()
        }
    };
    out.table.row(vec![
        workload.into(),
        n.to_string(),
        seq.rounds.to_string(),
        seq.counters.messages.to_string(),
        format!("{:.1}", seq.wall_clock_ms),
        format!("{:.1}", par.wall_clock_ms),
        mmsg(seq),
        mmsg(par),
    ]);
}

/// The E9 stress program: every node multicasts its id to every second
/// neighbour, every round.
struct HalfMulticast;

impl dkc_distsim::NodeProgram for HalfMulticast {
    type Message = u32;

    fn broadcast(&mut self, ctx: &dkc_distsim::NodeContext<'_>) -> dkc_distsim::Outgoing<u32> {
        let targets: Vec<NodeId> = ctx.neighbors().iter().copied().step_by(2).collect();
        dkc_distsim::Outgoing::Multicast(ctx.node().0, targets)
    }

    fn receive(
        &mut self,
        _ctx: &dkc_distsim::NodeContext<'_>,
        inbox: &[dkc_distsim::Delivery<u32>],
    ) -> bool {
        !inbox.is_empty()
    }
}

/// E10 (extension): robustness of the compact elimination under message loss.
/// Lost messages can only slow convergence down (values stay upper bounds), so
/// the table reports how the worst-node ratio degrades with the loss rate at a
/// fixed round budget, and how many extra rounds restore the fault-free
/// quality.
pub fn exp_robustness(scale: WorkloadScale, epsilon: f64, loss_rates: &[f64]) -> ExperimentOutput {
    use dkc_distsim::{FaultPlan, LossModel};
    let mut out = ExperimentOutput::new(Table::new(
        format!("E10 (extension): compact elimination under message loss (eps = {epsilon})"),
        &[
            "graph",
            "loss",
            "T",
            "wire kbits",
            "max ratio",
            "mean ratio",
            "max ratio @2T",
        ],
    ));
    for workload in standard_suite(scale) {
        let g = &workload.graph;
        if workload.name != "ba" && workload.name != "grid" {
            continue;
        }
        let n = g.num_nodes();
        let rounds = rounds_for_epsilon(n, epsilon);
        let exact_core = weighted_coreness(g);
        for &p in loss_rates {
            let faults = if p > 0.0 {
                FaultPlan::from_loss(LossModel::new(p, 2024))
            } else {
                FaultPlan::none()
            };
            let spec = RunSpec::new(rounds).mode(default_mode()).faults(faults);
            let run = eliminate(g, spec.clone());
            out.records.push(ExperimentRecord::from_metrics(
                "E10",
                format!("{}-loss{p:.2}", workload.name),
                scale.name(),
                &run.metrics,
            ));
            let run2 = eliminate(
                g,
                RunSpec {
                    rounds: 2 * rounds,
                    ..spec
                },
            );
            let ratio = ApproxRatio::compute(&run.surviving, &exact_core);
            let ratio2 = ApproxRatio::compute(&run2.surviving, &exact_core);
            out.table.row(vec![
                workload.name.into(),
                format!("{p:.2}"),
                rounds.to_string(),
                f1(run.metrics.total_wire_bits() as f64 / 1e3),
                f3(ratio.max),
                f3(ratio.mean),
                f3(ratio2.max),
            ]);
        }
    }
    out
}

/// The E12 long-convergence-tail workloads: instances whose compact
/// elimination keeps a narrow active frontier for many rounds (cascades along
/// paths/grids) or quiesces long before the round budget expires (heavy-tailed
/// graphs), each paired with a deterministic round budget. These are the
/// shapes on which dense re-execution wastes the most work.
pub fn frontier_workloads(scale: WorkloadScale) -> Vec<(String, dkc_graph::WeightedGraph, usize)> {
    use dkc_graph::generators::{barabasi_albert, grid_graph, path_graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(12);
    let path_n = scale.scaled(2_000);
    let grid_cols = scale.scaled(50);
    let ba_n = scale.scaled(1_500);
    vec![
        (format!("path-{path_n}"), path_graph(path_n), path_n / 2 + 8),
        (
            format!("grid-20x{grid_cols}"),
            grid_graph(20, grid_cols),
            grid_cols / 2 + 20,
        ),
        (
            format!("ba-tail-{ba_n}"),
            barabasi_albert(ba_n, 4, &mut rng),
            4 * rounds_for_epsilon(ba_n, 0.5),
        ),
    ]
}

/// E12: delta-driven sparse round execution. Runs the compact elimination
/// dense and sparse on the long-tail workloads and reports the deterministic
/// `node_updates` counters — the CI-gated measure of the active-set work
/// reduction — plus message totals. The run aborts if the two executors'
/// surviving numbers are not byte-identical, so every CI pass re-certifies
/// the equivalence on top of the proptest.
pub fn exp_frontier(scale: WorkloadScale) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(Table::new(
        "E12: sparse frontier executor vs dense re-execution (compact elimination)",
        &[
            "workload",
            "n",
            "T",
            "updates dense",
            "updates sparse",
            "update ratio",
            "msgs dense",
            "msgs sparse",
            "identical",
        ],
    ));
    for (name, g, rounds) in frontier_workloads(scale) {
        let dense = eliminate(&g, RunSpec::new(rounds).mode(default_mode()));
        let sparse = eliminate(&g, RunSpec::new(rounds).mode(ExecutionMode::SparseParallel));
        let identical =
            dense.surviving == sparse.surviving && dense.in_neighbors == sparse.in_neighbors;
        assert!(
            identical,
            "sparse executor diverged from dense on {name} — this is a bug"
        );
        out.records.push(ExperimentRecord::from_metrics(
            "E12",
            format!("{name}-dense"),
            scale.name(),
            &dense.metrics,
        ));
        out.records.push(ExperimentRecord::from_metrics(
            "E12",
            format!("{name}-sparse"),
            scale.name(),
            &sparse.metrics,
        ));
        let du = dense.metrics.total_node_updates();
        let su = sparse.metrics.total_node_updates();
        out.table.row(vec![
            name,
            g.num_nodes().to_string(),
            rounds.to_string(),
            du.to_string(),
            su.to_string(),
            f3(su as f64 / du.max(1) as f64),
            dense.metrics.total_messages().to_string(),
            sparse.metrics.total_messages().to_string(),
            identical.to_string(),
        ]);
    }
    out
}

/// The deterministic E13 fault-scenario matrix: one representative plan per
/// fault class (plus the fault-free control), with crash/partition windows
/// derived from the workload's round budget so every scale exercises the
/// same phases of the run. All scenarios share one seed constant, so the
/// counters are reproducible and CI-gateable.
pub fn fault_scenarios(budget: usize) -> Vec<(&'static str, dkc_distsim::FaultPlan)> {
    use dkc_distsim::{BurstLoss, CrashModel, FaultPlan, LossModel, PartitionModel};
    const SEED: u64 = 0xE13;
    // Crash from round 2 (so every node executes its initialization step and
    // all surviving numbers stay finite) until mid-run; partition the middle
    // half of the run, healing afterwards.
    let crash_last = (budget / 2).max(2);
    let part_first = (budget / 4).max(2);
    let part_last = (budget / 2).max(part_first);
    vec![
        ("none", FaultPlan::none()),
        ("loss-0.20", FaultPlan::from_loss(LossModel::new(0.2, SEED))),
        (
            "burst-6:2",
            FaultPlan::none().with_burst(BurstLoss::new(6, 2, SEED)),
        ),
        (
            "crash-0.20",
            FaultPlan::none().with_crash(CrashModel::new(0.2, 2, crash_last, SEED)),
        ),
        (
            "partition-0.30",
            FaultPlan::none().with_partition(PartitionModel::new(0.3, part_first, part_last, SEED)),
        ),
    ]
}

/// The three E13 workloads: a heavy-tailed social stand-in, a near-regular
/// random graph, and a high-diameter grid (the shape on which partitions and
/// bursts bite hardest).
pub fn fault_workloads(scale: WorkloadScale) -> Vec<crate::workloads::Workload> {
    standard_suite(scale)
        .into_iter()
        .filter(|w| matches!(w.name, "ba" | "erdos-renyi" | "grid"))
        .collect()
}

/// E13: fault injection. Runs the compact elimination under each fault class
/// (and the fault-free control) on three workloads, reporting coreness
/// quality (worst/mean node ratio vs the exact coreness) and
/// rounds-to-converge, plus the deterministic per-component drop/crash
/// counters CI gates on. When `custom` is given (the `exp_faults` fault
/// flags), it replaces the scenario matrix and runs against the control.
///
/// Two invariants are asserted on every run, so each CI pass re-certifies
/// them: the sparse executor stays byte-identical to the dense one under
/// every fault plan, and the crash-stop scenario executes strictly fewer
/// node updates than the fault-free control (crashed nodes leave the
/// frontier).
pub fn exp_faults(
    scale: WorkloadScale,
    custom: Option<dkc_distsim::FaultPlan>,
) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(Table::new(
        "E13: fault injection (FaultPlan) — coreness quality and convergence",
        &[
            "workload",
            "scenario",
            "T",
            "converged@",
            "updates",
            "dropped",
            "crashed",
            "max b/c",
            "mean b/c",
        ],
    ));
    for workload in fault_workloads(scale) {
        let g = &workload.graph;
        let n = g.num_nodes();
        // Three times the theoretical budget: enough slack that every fault
        // class converges (or visibly fails to) inside the run.
        let budget = 3 * rounds_for_epsilon(n, 0.5);
        let exact_core = weighted_coreness(g);
        let scenarios = match custom {
            Some(plan) => vec![("none", dkc_distsim::FaultPlan::none()), ("custom", plan)],
            None => fault_scenarios(budget),
        };
        let mut control_updates: Option<usize> = None;
        for (scenario, plan) in scenarios {
            let run = eliminate(
                g,
                RunSpec::new(budget)
                    .mode(ExecutionMode::SparseParallel)
                    .faults(plan),
            );
            // Re-certify sparse/dense equivalence under this fault plan.
            let dense = eliminate(g, RunSpec::new(budget).mode(default_mode()).faults(plan));
            assert_eq!(
                run.surviving, dense.surviving,
                "sparse executor diverged from dense on {}-{scenario} — this is a bug",
                workload.name
            );
            let updates = run.metrics.total_node_updates();
            match scenario {
                "none" => control_updates = Some(updates),
                "crash-0.20" => {
                    let control = control_updates.expect("control runs first");
                    assert!(
                        updates < control,
                        "{}: crash-stop run executed {updates} node updates, \
                         not fewer than the fault-free {control} — crashed nodes \
                         failed to leave the frontier",
                        workload.name
                    );
                }
                _ => {}
            }
            let ratio = ApproxRatio::compute(&run.surviving, &exact_core);
            let converged = run
                .metrics
                .last_active_round()
                .map_or("never".to_string(), |r| r.to_string());
            out.records.push(ExperimentRecord::from_metrics(
                "E13",
                format!("{}-{scenario}", workload.name),
                scale.name(),
                &run.metrics,
            ));
            out.table.row(vec![
                workload.name.into(),
                scenario.into(),
                budget.to_string(),
                converged,
                updates.to_string(),
                run.metrics.total_dropped().to_string(),
                run.metrics.crashed_nodes().to_string(),
                f3(ratio.max),
                f3(ratio.mean),
            ]);
        }
    }
    out
}

/// Accusation threshold the E14 quarantined scenarios use: two hash-scheduled
/// accusation events silence a byzantine node. With the default 0.5 per-round
/// detection probability this quarantines most byzantine nodes within a
/// handful of rounds, leaving a measurable corruption prefix to recover from.
pub const E14_QUARANTINE_THRESHOLD: u32 = 2;

/// The deterministic E14 byzantine scenario matrix: byzantine fractions 0%,
/// 10%, 20%, and 30% of nodes running all four behaviors (lie, equivocate,
/// mute, spam) over the whole post-initialization run — each nonzero fraction
/// both without and with quarantine
/// ([`E14_QUARANTINE_THRESHOLD`] accusations). One shared seed constant keeps
/// every counter reproducible and CI-gateable.
pub fn byzantine_scenarios(budget: usize) -> Vec<(String, dkc_distsim::FaultPlan)> {
    use dkc_distsim::{ByzantineModel, FaultPlan};
    const SEED: u64 = 0xE14;
    // Misbehave from round 2 (after every node's initialization broadcast,
    // mirroring the E13 crash window) through the end of the budget.
    let last = budget.max(2);
    let mut scenarios = vec![("byz-0.00".to_string(), FaultPlan::none())];
    for fraction in [0.1, 0.2, 0.3] {
        let model = ByzantineModel::new(fraction, ByzantineModel::ALL_BEHAVIORS, 2, last, SEED);
        scenarios.push((
            format!("byz-{fraction:.2}"),
            FaultPlan::none().with_byzantine(model),
        ));
        scenarios.push((
            format!("byz-{fraction:.2}-q"),
            FaultPlan::none().with_byzantine(model.with_quarantine(E14_QUARANTINE_THRESHOLD)),
        ));
    }
    scenarios
}

/// Mean per-node **underestimation** `max(0, 1 - approx(v)/exact(v))` — the
/// E14 soundness metric. The protocol's correctness contract (Lemma III.2)
/// is that surviving numbers stay *upper bounds* on the coreness: omission
/// faults and quarantine staleness only inflate values (costing
/// approximation factor, the documented graceful-degradation mode), while
/// byzantine lies drag values *below* the truth — unsound output that no
/// extra rounds can repair. This measures exactly the unsound half.
fn mean_underestimation(approx: &[f64], exact: &[f64]) -> f64 {
    directional_error(approx, exact, |r| (1.0 - r).max(0.0))
}

/// Mean per-node **overestimation** `max(0, approx(v)/exact(v) - 1)` — the
/// staleness/slack half of the E14 quality picture (how far above the truth
/// the output sits, e.g. because quarantined senders froze their receivers'
/// caches at pre-convergence values).
fn mean_overestimation(approx: &[f64], exact: &[f64]) -> f64 {
    directional_error(approx, exact, |r| (r - 1.0).max(0.0))
}

fn directional_error(approx: &[f64], exact: &[f64], err: impl Fn(f64) -> f64) -> f64 {
    assert_eq!(approx.len(), exact.len());
    let mut sum = 0.0;
    let mut count = 0usize;
    for (&a, &e) in approx.iter().zip(exact) {
        if e.abs() < 1e-12 {
            continue;
        }
        sum += err(a / e);
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// E14: byzantine degradation. Runs the compact elimination and the Montresor
/// exact baseline under byzantine fractions 0–30% (all four behaviors), with
/// and without quarantine, reporting coreness soundness (lower-bound
/// violations and mean underestimation vs the exact coreness), staleness
/// (mean overestimation), rounds-to-converge, and the deterministic
/// accusation/quarantine counters CI gates on. When `custom` is given (the
/// `exp_byzantine` fault flags), it replaces the scenario matrix and runs
/// against the fault-free control.
///
/// Two invariants are asserted on every run of the standard matrix, so each
/// CI pass re-certifies them: the sparse executor stays byte-identical to the
/// dense one under every byzantine plan, and quarantine strictly reduces
/// aggregate unsound corruption (mean underestimation) vs no-quarantine at
/// every fraction ≥ 10% — it converts lies into upper-bound staleness, the
/// failure mode the approximation guarantee is built to absorb (graceful
/// degradation instead of silent corruption).
pub fn exp_byzantine(
    scale: WorkloadScale,
    custom: Option<dkc_distsim::FaultPlan>,
) -> ExperimentOutput {
    use std::collections::BTreeMap;
    let mut out = ExperimentOutput::new(Table::new(
        "E14: byzantine faults (lie/equivocate/mute/spam) — degradation and quarantine recovery",
        &[
            "workload",
            "scenario",
            "T",
            "converged@",
            "accused",
            "quarantined",
            "viol",
            "under",
            "stale",
            "x-viol",
            "x-under",
        ],
    ));
    // Aggregate quality per scenario across workloads, keyed by scenario
    // name (BTreeMap: dkc-lint D01 forbids unordered iteration).
    let mut scenario_error: BTreeMap<String, f64> = BTreeMap::new();
    for workload in fault_workloads(scale) {
        let g = &workload.graph;
        let n = g.num_nodes();
        // Same slack as E13: enough budget that every scenario converges (or
        // visibly fails to) inside the run.
        let budget = 3 * rounds_for_epsilon(n, 0.5);
        let exact_core = weighted_coreness(g);
        let scenarios = match custom {
            Some(plan) => vec![
                ("byz-0.00".to_string(), dkc_distsim::FaultPlan::none()),
                ("custom".to_string(), plan),
            ],
            None => byzantine_scenarios(budget),
        };
        for (scenario, plan) in scenarios {
            let run = eliminate(
                g,
                RunSpec::new(budget)
                    .mode(ExecutionMode::SparseParallel)
                    .faults(plan),
            );
            // Re-certify sparse/dense equivalence under this byzantine plan.
            let dense = eliminate(g, RunSpec::new(budget).mode(default_mode()).faults(plan));
            assert_eq!(
                run.surviving, dense.surviving,
                "sparse executor diverged from dense on {}-{scenario} — this is a bug",
                workload.name
            );
            // The exact-protocol baseline under the identical plan: Montresor
            // estimates chase the latest heard value, so downward lies stick.
            let exact_run = montresor_exact_coreness_with_faults(g, budget, default_mode(), plan);
            let ratio = ApproxRatio::compute(&run.surviving, &exact_core);
            let under = mean_underestimation(&run.surviving, &exact_core);
            let stale = mean_overestimation(&run.surviving, &exact_core);
            let exact_ratio = ApproxRatio::compute(&exact_run.coreness, &exact_core);
            let exact_under = mean_underestimation(&exact_run.coreness, &exact_core);
            let totals = run.metrics.totals();
            *scenario_error.entry(scenario.clone()).or_insert(0.0) += under;
            let converged = run
                .metrics
                .last_active_round()
                .map_or("never".to_string(), |r| r.to_string());
            out.records.push(ExperimentRecord::from_metrics(
                "E14",
                format!("{}-{scenario}", workload.name),
                scale.name(),
                &run.metrics,
            ));
            out.records.push(ExperimentRecord::from_metrics(
                "E14",
                format!("{}-{scenario}-montresor", workload.name),
                scale.name(),
                &exact_run.metrics,
            ));
            out.table.row(vec![
                workload.name.into(),
                scenario,
                budget.to_string(),
                converged,
                totals.byzantine_accusations.to_string(),
                totals.quarantined_nodes.to_string(),
                ratio.lower_bound_violations.to_string(),
                f3(under),
                f3(stale),
                exact_ratio.lower_bound_violations.to_string(),
                f3(exact_under),
            ]);
        }
    }
    if custom.is_none() {
        // The headline claim of the quarantine layer, re-certified on every
        // run: at every byzantine fraction ≥ 10%, silencing accused nodes
        // strictly reduces aggregate unsound corruption (values below the
        // true coreness).
        for fraction in ["0.10", "0.20", "0.30"] {
            let open = scenario_error[&format!("byz-{fraction}")];
            let quarantined = scenario_error[&format!("byz-{fraction}-q")];
            assert!(
                quarantined < open,
                "quarantine failed to recover coreness soundness at byzantine \
                 fraction {fraction}: mean underestimation {quarantined:.4} \
                 (quarantined) vs {open:.4} (open) — the detection layer is \
                 not helping"
            );
        }
    }
    out
}

/// E11: streaming dataset ingestion. For each sparse-id workload the table
/// reports per-format file size, parse wall-clock, and edge throughput; the
/// records carry deterministic counters (distinct nodes as `rounds`, edges
/// as `total_messages`, on-disk bits as `payload_bits`, and the bit-width of
/// the largest external id as `max_message_bits`) so CI can gate the
/// serialization paths against a committed baseline.
pub fn exp_ingest(scale: WorkloadScale) -> ExperimentOutput {
    use crate::workloads::ingest_suite;
    use dkc_graph::ingest::{read_dataset, write_dataset, Dataset, DatasetFormat};
    let mut out = ExperimentOutput::new(Table::new(
        "E11: streaming ingestion with sparse-id remapping",
        &[
            "workload", "format", "nodes", "edges", "KiB", "parse ms", "Medges/s",
        ],
    ));
    let dir = std::env::temp_dir().join("dkc_exp_ingest").join(format!(
        "{}-{}",
        std::process::id(),
        scale.name()
    ));
    std::fs::create_dir_all(&dir).expect("create ingest scratch dir");
    for workload in ingest_suite(scale) {
        let ds = Dataset::from_external_edges(workload.nodes, workload.edges.iter().copied());
        assert_eq!(ds.graph.num_nodes(), workload.nodes, "{}", workload.name);
        let max_ext = workload
            .edges
            .iter()
            .map(|&(u, v, _)| u.max(v))
            .max()
            .unwrap_or(0);
        for format in [
            DatasetFormat::EdgeList,
            DatasetFormat::Metis,
            DatasetFormat::Binary,
        ] {
            let path = dir.join(format!("{}.{}", workload.name, format.name()));
            write_dataset(&ds, &path, format).expect("write ingest workload");
            let bytes = std::fs::metadata(&path)
                .expect("stat ingest workload")
                .len() as usize;
            let start = Instant::now();
            let parsed = read_dataset(&path, format).expect("parse ingest workload");
            let wall = start.elapsed();
            assert_eq!(
                parsed.graph.num_nodes(),
                ds.graph.num_nodes(),
                "{}",
                workload.name
            );
            assert_eq!(
                parsed.graph.num_edges(),
                ds.graph.num_edges(),
                "{}",
                workload.name
            );
            let edges = parsed.graph.num_edges();
            let secs = wall.as_secs_f64();
            out.records.push(ExperimentRecord {
                experiment: "E11".into(),
                workload: format!("{}-{}", workload.name, format.name()),
                scale: scale.name().into(),
                wall_clock_ms: secs * 1e3,
                rounds: parsed.graph.num_nodes(),
                counters: RoundStats {
                    messages: edges,
                    payload_bits: bytes * 8,
                    max_message_bits: 64 - max_ext.leading_zeros() as usize,
                    ..RoundStats::default()
                },
                messages_per_sec: if secs > 0.0 { edges as f64 / secs } else { 0.0 },
            });
            out.table.row(vec![
                workload.name.into(),
                format.name().into(),
                parsed.graph.num_nodes().to_string(),
                edges.to_string(),
                f1(bytes as f64 / 1024.0),
                f3(secs * 1e3),
                f3(edges as f64 / secs.max(1e-9) / 1e6),
            ]);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// The E15 shard counts swept when `--shards` is not given. 1 is the
/// degenerate control: a single shard has no cross-shard boundary, so its
/// counters — boundary included — must equal the unsharded run's exactly.
pub const E15_SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Seed of the deterministic hash partitioner E15 runs under when
/// `--shard-seed` is not given.
pub const E15_SHARD_SEED: u64 = 0xE15;

/// The composed E15 fault plan for a run of `budget` rounds: i.i.d. loss,
/// burst outages, crash-stop, and quarantining byzantine nodes all at once,
/// so the byte-identity claim is certified under the full fault stack, not
/// just fault-free.
pub fn sharding_fault_plan(budget: usize) -> dkc_distsim::FaultPlan {
    use dkc_distsim::{BurstLoss, ByzantineModel, CrashModel, FaultPlan, LossModel};
    const SEED: u64 = 0xE15;
    let mid = (budget / 2).max(2);
    FaultPlan::from_loss(LossModel::new(0.1, SEED))
        .with_burst(BurstLoss::new(6, 2, SEED))
        .with_crash(CrashModel::new(0.15, 2, mid, SEED))
        .with_byzantine(
            ByzantineModel::new(0.1, ByzantineModel::ALL_BEHAVIORS, 2, mid, SEED)
                .with_quarantine(2),
        )
}

/// E15: shard-partitioned execution. Runs the compact elimination unsharded
/// (the sparse lockstep reference) and sharded (`RunSpec::sharded`) for
/// each shard count, fault-free and under the composed [`sharding_fault_plan`]
/// (or the `--shards`/fault flags' custom versions), and asserts the sharded
/// run **byte-identical** to the unsharded one on every deterministic
/// counter — surviving numbers, in-neighbour sets, messages, wire bits, node
/// updates, and all seven fault counters. What sharding adds is reported in
/// the two v6 counters CI gates on: `boundary_bits` (encoded `BoundaryDelta`
/// frame traffic) and `boundary_nodes` (distinct cross-shard senders per
/// round), alongside the partitioner's per-shard balance and cut-arc ratio.
pub fn exp_sharding(
    scale: WorkloadScale,
    custom_faults: Option<dkc_distsim::FaultPlan>,
    shards: Option<usize>,
    shard_seed: Option<u64>,
) -> ExperimentOutput {
    use dkc_graph::Partitioner;
    let seed = shard_seed.unwrap_or(E15_SHARD_SEED);
    let counts: Vec<usize> = match shards {
        Some(n) => vec![n],
        None => E15_SHARD_COUNTS.to_vec(),
    };
    let mut out = ExperimentOutput::new(Table::new(
        "E15: shard-partitioned execution vs unsharded lockstep (compact elimination)",
        &[
            "workload",
            "faults",
            "shards",
            "balance",
            "cut arcs",
            "boundary bits",
            "bnd/wire",
            "identical",
        ],
    ));
    for workload in standard_suite(scale)
        .into_iter()
        .filter(|w| matches!(w.name, "ba" | "grid"))
    {
        let g = &workload.graph;
        let n = g.num_nodes();
        let budget = rounds_for_epsilon(n, 0.5);
        let csr = CsrGraph::from_graph(g);
        // The largest shard's node count and the cut arcs of a z-shard
        // partition.
        let partition = |z: usize| {
            let part = Partitioner::new(z, seed);
            let mut owned = vec![0usize; z];
            let mut cut_arcs = 0;
            for v in csr.nodes() {
                let s = part.shard_of(v);
                owned[s] += 1;
                cut_arcs += csr
                    .neighbors(v)
                    .iter()
                    .filter(|&&u| part.shard_of(u) != s)
                    .count();
            }
            (owned.into_iter().max().unwrap_or(0), cut_arcs)
        };
        let scenarios = match custom_faults {
            Some(plan) => vec![("custom", plan)],
            None => vec![
                ("none", dkc_distsim::FaultPlan::none()),
                ("composed", sharding_fault_plan(budget)),
            ],
        };
        for (scenario, plan) in scenarios {
            let reference = eliminate(
                g,
                RunSpec::new(budget)
                    .mode(ExecutionMode::SparseSequential)
                    .faults(plan),
            );
            out.records.push(ExperimentRecord::from_metrics(
                "E15",
                format!("{}-{scenario}-unsharded", workload.name),
                scale.name(),
                &reference.metrics,
            ));
            for &z in &counts {
                let sharded = eliminate(g, RunSpec::new(budget).faults(plan).sharded(z, seed));
                // Byte-identity on everything the paper's protocol computes…
                assert_eq!(
                    reference.surviving, sharded.surviving,
                    "{}-{scenario}: sharded ({z} shards) surviving numbers diverged \
                     from unsharded — this is a bug",
                    workload.name
                );
                assert_eq!(
                    reference.in_neighbors, sharded.in_neighbors,
                    "{}-{scenario}: sharded ({z} shards) in-neighbour sets diverged",
                    workload.name
                );
                // …and on every deterministic counter the baseline gate
                // checks (boundary_bits/boundary_nodes are the sharded run's
                // own).
                let rm = &reference.metrics;
                let sm = &sharded.metrics;
                let unsharded = |m: &RunMetrics| RoundStats {
                    boundary_bits: 0,
                    boundary_nodes: 0,
                    ..m.totals()
                };
                let identical =
                    rm.num_rounds() == sm.num_rounds() && unsharded(rm) == unsharded(sm);
                assert!(
                    identical,
                    "{}-{scenario}: sharded ({z} shards) deterministic counters \
                     diverged from unsharded — this is a bug",
                    workload.name
                );
                if z == 1 {
                    assert_eq!(
                        sm.total_boundary_bits(),
                        0,
                        "a single shard has no boundary"
                    );
                    assert_eq!(sm.total_boundary_nodes(), 0);
                }
                let (max_count, cut_arcs) = partition(z);
                let balance = max_count as f64 * z as f64 / n.max(1) as f64;
                out.records.push(ExperimentRecord::from_metrics(
                    "E15",
                    format!("{}-{scenario}-shards{z}", workload.name),
                    scale.name(),
                    &sharded.metrics,
                ));
                out.table.row(vec![
                    workload.name.into(),
                    scenario.into(),
                    z.to_string(),
                    f3(balance),
                    cut_arcs.to_string(),
                    sm.total_boundary_bits().to_string(),
                    f3(sm.total_boundary_bits() as f64 / sm.total_wire_bits().max(1) as f64),
                    identical.to_string(),
                ]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_rows_report_identical_views() {
        let out = exp_fig1(&[24, 40]);
        assert_eq!(out.table.len(), 2);
        assert!(out.table.render().contains("true"));
        assert_eq!(out.records.len(), 2, "one record per ring size");
        for r in &out.records {
            assert_eq!(r.experiment, "E1");
            assert!(r.counters.messages > 0, "simulated run must count messages");
            assert!(r.scale.is_empty(), "gadget runs are scale-agnostic");
        }
    }

    #[test]
    fn lower_bound_table_has_distinguishable_and_indistinguishable_rows() {
        let out = exp_lower_bound(&[2], 4);
        let rendered = out.table.render();
        assert!(rendered.contains("true"));
        assert!(rendered.contains("false"));
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.records[0].rounds, 4);
    }

    #[test]
    fn coreness_ratio_small_scale_runs() {
        let out = exp_coreness_ratio(WorkloadScale::Small, &[0.25, 1.0], 0.5);
        assert!(out.table.len() >= 7);
        assert_eq!(out.records.len(), 7, "one centralized record per workload");
        assert!(out.records.iter().all(|r| r.scale == "small"));
    }

    /// The PR's acceptance criterion: on the E12 long-tail workloads at tiny
    /// scale, the sparse executor runs at most 25% of the dense executor's
    /// node updates (with byte-identical output, asserted inside
    /// `exp_frontier` itself).
    #[test]
    fn frontier_reduction_meets_target() {
        let out = exp_frontier(WorkloadScale::Tiny);
        assert_eq!(out.records.len(), 6, "3 workloads x {{dense, sparse}}");
        for pair in out.records.chunks(2) {
            let (dense, sparse) = (&pair[0], &pair[1]);
            assert!(dense.workload.ends_with("-dense"), "{}", dense.workload);
            assert!(sparse.workload.ends_with("-sparse"), "{}", sparse.workload);
            assert_eq!(dense.rounds, sparse.rounds);
            assert!(
                sparse.counters.node_updates * 4 <= dense.counters.node_updates,
                "{}: sparse ran {} of dense's {} node updates (> 25%)",
                sparse.workload,
                sparse.counters.node_updates,
                dense.counters.node_updates
            );
            assert!(sparse.counters.messages <= dense.counters.messages);
        }
    }

    #[test]
    fn frontier_counters_are_deterministic_across_runs() {
        let strip = |out: ExperimentOutput| {
            out.records
                .into_iter()
                .map(|r| {
                    (
                        r.workload,
                        r.rounds,
                        r.counters.messages,
                        r.counters.node_updates,
                    )
                })
                .collect::<Vec<_>>()
        };
        let a = strip(exp_frontier(WorkloadScale::Tiny));
        let b = strip(exp_frontier(WorkloadScale::Tiny));
        assert_eq!(a, b, "deterministic frontier counters drifted");
    }

    /// E15 at tiny scale: one unsharded reference plus one record per shard
    /// count, per workload and fault scenario; boundary traffic appears
    /// exactly where a real boundary exists (2+ shards) and nowhere else.
    /// Byte-identity itself is asserted inside `exp_sharding`.
    #[test]
    fn sharding_boundary_counters_follow_the_shard_count() {
        let out = exp_sharding(WorkloadScale::Tiny, None, None, None);
        let per_scenario = 1 + E15_SHARD_COUNTS.len();
        assert_eq!(
            out.records.len(),
            2 * 2 * per_scenario,
            "2 workloads x 2 scenarios x (unsharded + {} shard counts)",
            E15_SHARD_COUNTS.len()
        );
        for r in &out.records {
            assert_eq!(r.experiment, "E15");
            let sharded_with_boundary = r
                .workload
                .rsplit_once("-shards")
                .is_some_and(|(_, z)| z.parse::<usize>().unwrap() > 1);
            if sharded_with_boundary {
                assert!(
                    r.counters.boundary_bits > 0,
                    "{}: no boundary traffic",
                    r.workload
                );
                assert!(r.counters.boundary_nodes > 0, "{}", r.workload);
            } else {
                assert_eq!(r.counters.boundary_bits, 0, "{}", r.workload);
                assert_eq!(r.counters.boundary_nodes, 0, "{}", r.workload);
            }
        }
        // The composed fault plan actually dropped and crashed something.
        let faulty = out
            .records
            .iter()
            .find(|r| r.workload.contains("-composed-"))
            .expect("composed scenario records");
        assert!(faulty.counters.dropped_loss > 0);
        assert!(faulty.counters.crashed_nodes > 0);
    }

    /// A `--shards`/`--shard-seed` override narrows the sweep to one count.
    #[test]
    fn sharding_respects_the_shard_override() {
        let out = exp_sharding(WorkloadScale::Tiny, None, Some(3), Some(9));
        assert_eq!(out.records.len(), 2 * 2 * 2, "unsharded + shards3 only");
        assert!(out
            .records
            .iter()
            .all(|r| r.workload.ends_with("-unsharded") || r.workload.ends_with("-shards3")));
    }

    #[test]
    fn ingest_counters_are_deterministic_across_runs() {
        let strip = |out: ExperimentOutput| {
            out.records
                .into_iter()
                .map(|r| {
                    (
                        r.workload,
                        r.rounds,
                        r.counters.messages,
                        r.counters.payload_bits,
                        r.counters.max_message_bits,
                    )
                })
                .collect::<Vec<_>>()
        };
        let a = strip(exp_ingest(WorkloadScale::Tiny));
        let b = strip(exp_ingest(WorkloadScale::Tiny));
        assert_eq!(a, b, "deterministic ingest counters drifted");
        assert_eq!(a.len(), 9, "3 workloads x 3 formats");
        for (workload, nodes, edges, bits, id_bits) in &a {
            assert!(*nodes > 0 && *edges > 0 && *bits > 0, "{workload}");
            assert!(*id_bits >= 20, "{workload}: external ids are not sparse");
        }
    }

    /// The E13 acceptance criteria: 5 scenarios × 3 workloads, deterministic
    /// counters, a fault-free control identical to a plain run, drops/crashes
    /// attributed to the right components. (The crash-beats-control
    /// node_updates inequality and sparse/dense identity are asserted inside
    /// `exp_faults` itself, so running it is the test.)
    #[test]
    fn fault_experiment_matrix_is_deterministic_and_attributed() {
        let strip = |out: ExperimentOutput| {
            out.records
                .into_iter()
                .map(|r| {
                    (
                        r.workload,
                        r.rounds,
                        r.counters.messages,
                        r.counters.node_updates,
                        r.counters.dropped_loss,
                        r.counters.dropped_burst,
                        r.counters.dropped_partition,
                        r.counters.crashed_nodes,
                    )
                })
                .collect::<Vec<_>>()
        };
        let a = strip(exp_faults(WorkloadScale::Tiny, None));
        let b = strip(exp_faults(WorkloadScale::Tiny, None));
        assert_eq!(a, b, "deterministic fault counters drifted");
        assert_eq!(a.len(), 15, "3 workloads x 5 scenarios");
        for chunk in a.chunks(5) {
            let [none, loss, burst, crash, partition] = chunk else {
                unreachable!("five scenarios per workload");
            };
            assert!(none.0.ends_with("-none"), "{}", none.0);
            assert_eq!(
                (none.4, none.5, none.6, none.7),
                (0, 0, 0, 0),
                "{}: control must be fault-free",
                none.0
            );
            assert!(
                loss.4 > 0 && loss.5 == 0 && loss.6 == 0 && loss.7 == 0,
                "{}",
                loss.0
            );
            assert!(
                burst.5 > 0 && burst.4 == 0 && burst.6 == 0 && burst.7 == 0,
                "{}",
                burst.0
            );
            assert!(
                crash.7 > 0 && crash.4 == 0 && crash.5 == 0 && crash.6 == 0,
                "{}",
                crash.0
            );
            assert!(
                partition.6 > 0 && partition.4 == 0 && partition.5 == 0 && partition.7 == 0,
                "{}",
                partition.0
            );
            // The acceptance inequality, re-checked from the records.
            assert!(crash.3 < none.3, "{}: {} !< {}", crash.0, crash.3, none.3);
        }
    }

    #[test]
    fn fault_control_matches_a_plain_sparse_run() {
        let out = exp_faults(WorkloadScale::Tiny, None);
        for workload in fault_workloads(WorkloadScale::Tiny) {
            let budget = 3 * rounds_for_epsilon(workload.graph.num_nodes(), 0.5);
            let plain = eliminate(
                &workload.graph,
                RunSpec::new(budget).mode(ExecutionMode::SparseParallel),
            );
            let control = out
                .records
                .iter()
                .find(|r| r.workload == format!("{}-none", workload.name))
                .expect("control record");
            let plain = ExperimentRecord::from_metrics("", "", "", &plain.metrics);
            assert_eq!(
                (control.rounds, control.counters),
                (plain.rounds, plain.counters)
            );
        }
    }

    #[test]
    fn fault_custom_plan_replaces_the_matrix() {
        use dkc_distsim::{FaultPlan, LossModel};
        let plan = FaultPlan::from_loss(LossModel::new(0.5, 4));
        let out = exp_faults(WorkloadScale::Tiny, Some(plan));
        assert_eq!(out.records.len(), 6, "3 workloads x {{none, custom}}");
        for pair in out.records.chunks(2) {
            assert!(pair[0].workload.ends_with("-none"));
            assert!(pair[1].workload.ends_with("-custom"));
            assert!(pair[1].counters.dropped_loss > 0);
        }
    }

    #[test]
    fn scaling_records_are_mode_identical() {
        let out = exp_scaling(WorkloadScale::Tiny);
        assert_eq!(
            out.records.len(),
            6,
            "ba dense pair + ba sparse pair + multicast pair"
        );
        for pair in out.records.chunks(2) {
            let (seq, par) = (&pair[0], &pair[1]);
            assert!(seq.workload.ends_with("-seq"));
            assert!(par.workload.ends_with("-par"));
            assert_eq!(seq.rounds, par.rounds);
            assert_eq!(seq.counters, par.counters);
        }
        // The sparse pair must do no more work than the dense pair.
        let dense = &out.records[0];
        let sparse = &out.records[2];
        assert!(sparse.workload.contains("sparse"));
        assert_eq!(dense.rounds, sparse.rounds);
        assert!(sparse.counters.node_updates <= dense.counters.node_updates);
        assert!(sparse.counters.messages <= dense.counters.messages);
    }
}
