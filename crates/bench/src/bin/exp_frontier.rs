//! E12: delta-driven sparse round execution — dense vs sparse-frontier
//! compact elimination on long-convergence-tail workloads, gated in CI on the
//! deterministic `node_updates` counters (its `E12` records in
//! `bench/baselines/tiny.json`).

#![deny(deprecated)]
use dkc_bench::{ExpArgs, Reads, Report};

fn main() {
    let args = ExpArgs::parse(Reads::COMMON);
    let mut report = Report::new("exp_frontier", args.scale);
    let out = dkc_bench::experiments::exp_frontier(args.scale);
    out.print();
    report.extend(out.records);
    args.write_report(&report);
}
