//! E9: round-executor scaling — sequential vs parallel wall-clock and
//! throughput on the compact elimination and a dense multicast stress.

#![deny(deprecated)]
use dkc_bench::{ExpArgs, Reads, Report};

fn main() {
    let args = ExpArgs::parse(Reads::COMMON);
    let mut report = Report::new("exp_scaling", args.scale);
    let out = dkc_bench::experiments::exp_scaling(args.scale);
    out.print();
    report.extend(out.records);
    args.write_report(&report);
}
