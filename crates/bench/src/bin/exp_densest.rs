//! E5: weak densest subset protocol (Theorem I.3).

#![deny(deprecated)]
use dkc_bench::{ExpArgs, Reads, Report};

fn main() {
    let args = ExpArgs::parse(Reads::COMMON);
    let mut report = Report::new("exp_densest", args.scale);
    for eps in [0.5, 0.25, 0.1] {
        let out = dkc_bench::experiments::exp_densest(args.scale, eps);
        out.print();
        report.extend(out.records);
    }
    args.write_report(&report);
}
