//! E10 (extension): behaviour of the compact elimination under message loss.

#![deny(deprecated)]
use dkc_bench::{ExpArgs, Reads, Report};

fn main() {
    let args = ExpArgs::parse(Reads::COMMON);
    let mut report = Report::new("exp_robustness", args.scale);
    let out = dkc_bench::experiments::exp_robustness(args.scale, 0.2, &[0.0, 0.05, 0.2, 0.5]);
    out.print();
    report.extend(out.records);
    args.write_report(&report);
}
