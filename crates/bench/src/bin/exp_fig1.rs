//! E1: Figure I.1 gadgets — the factor-2 lower bound.

#![deny(deprecated)]
use dkc_bench::experiments::fig1_sizes;
use dkc_bench::{ExpArgs, Reads, Report};

fn main() {
    let args = ExpArgs::parse(Reads::COMMON);
    let mut report = Report::new("exp_fig1", args.scale);
    let out = dkc_bench::experiments::exp_fig1(fig1_sizes(args.scale));
    out.print();
    report.extend(out.records);
    args.write_report(&report);
}
