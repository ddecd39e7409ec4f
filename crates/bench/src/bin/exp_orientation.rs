//! E4: min-max edge orientation (Theorem I.2) vs baselines.

#![deny(deprecated)]
use dkc_bench::{ExpArgs, Reads, Report};

fn main() {
    let args = ExpArgs::parse(Reads::COMMON);
    let mut report = Report::new("exp_orientation", args.scale);
    for eps in [1.0, 0.5, 0.1] {
        let out = dkc_bench::experiments::exp_orientation(args.scale, eps);
        out.print();
        report.extend(out.records);
    }
    args.write_report(&report);
}
