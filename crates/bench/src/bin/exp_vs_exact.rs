//! E8: exact distributed k-core (Montresor et al.) vs the approximation.

#![deny(deprecated)]
use dkc_bench::{ExpArgs, Reads, Report};

fn main() {
    let args = ExpArgs::parse(Reads::COMMON);
    let mut report = Report::new("exp_vs_exact", args.scale);
    let out = dkc_bench::experiments::exp_vs_exact(args.scale, 0.5);
    out.print();
    report.extend(out.records);
    args.write_report(&report);
}
