//! E11: streaming dataset ingestion — per-format file size, parse
//! wall-clock, and edge throughput on sparse-id workloads, with
//! deterministic counters for the CI baseline gate.

#![deny(deprecated)]
use dkc_bench::{ExpArgs, Reads, Report};

fn main() {
    let args = ExpArgs::parse(Reads::COMMON);
    let mut report = Report::new("exp_ingest", args.scale);
    let out = dkc_bench::experiments::exp_ingest(args.scale);
    out.print();
    report.extend(out.records);
    args.write_report(&report);
}
