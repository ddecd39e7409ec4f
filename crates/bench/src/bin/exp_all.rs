//! Runs every table experiment (E1–E15) in sequence. This is the one-shot
//! reproduction entry point: `cargo run --release -p dkc-bench --bin exp_all`.
//! Pass `--scale tiny` for a fast smoke run of the whole suite, and
//! `--json <path>` to aggregate every experiment's records into one report
//! (this is what CI's perf-smoke job diffs against the committed baseline).
//! `--shards <n>` and `--shard-seed <seed>` narrow E15 as they do
//! `exp_sharding`. The fault flags are rejected: E13–E15 run their own
//! fault scenarios here.

#![deny(deprecated)]
use dkc_bench::experiments::{self, fig1_sizes, lower_bound_runs};
use dkc_bench::{ExpArgs, Reads, Report};

fn main() {
    let args = ExpArgs::parse(Reads {
        shards: true,
        ..Reads::COMMON
    });
    let scale = args.scale;
    let mut report = Report::new("exp_all", scale);
    let mut run = |out: experiments::ExperimentOutput| {
        out.print();
        report.extend(out.records);
    };
    run(experiments::exp_fig1(fig1_sizes(scale)));
    run(experiments::exp_coreness_ratio(
        scale,
        &[0.1, 0.25, 0.5, 1.0],
        0.1,
    ));
    run(experiments::exp_rounds_to_target(scale, 0.1));
    run(experiments::exp_orientation(scale, 0.5));
    run(experiments::exp_densest(scale, 0.25));
    for &(gammas, depth) in lower_bound_runs(scale) {
        run(experiments::exp_lower_bound(gammas, depth));
    }
    run(experiments::exp_message_size(scale, &[0.01, 0.1, 0.5], 0.2));
    run(experiments::exp_vs_exact(scale, 0.5));
    run(experiments::exp_scaling(scale));
    run(experiments::exp_robustness(
        scale,
        0.2,
        &[0.0, 0.05, 0.2, 0.5],
    ));
    run(experiments::exp_ingest(scale));
    run(experiments::exp_frontier(scale));
    run(experiments::exp_faults(scale, None));
    run(experiments::exp_byzantine(scale, None));
    run(experiments::exp_sharding(
        scale,
        None,
        args.shards,
        args.shard_seed,
    ));
    args.write_report(&report);
}
