//! E2: coreness approximation ratio vs rounds (Theorem I.1).

#![deny(deprecated)]
use dkc_bench::{ExpArgs, Reads, Report};

fn main() {
    let args = ExpArgs::parse(Reads::COMMON);
    let mut report = Report::new("exp_coreness_ratio", args.scale);
    for eps in [0.5, 0.1] {
        let out =
            dkc_bench::experiments::exp_coreness_ratio(args.scale, &[0.1, 0.25, 0.5, 1.0], eps);
        out.print();
        report.extend(out.records);
    }
    args.write_report(&report);
}
