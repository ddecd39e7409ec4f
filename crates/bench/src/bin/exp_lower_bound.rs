//! E6: the Lemma III.13 lower-bound construction.

#![deny(deprecated)]
use dkc_bench::experiments::lower_bound_runs;
use dkc_bench::{ExpArgs, Reads, Report};

fn main() {
    let args = ExpArgs::parse(Reads::COMMON);
    let mut report = Report::new("exp_lower_bound", args.scale);
    for &(gammas, depth) in lower_bound_runs(args.scale) {
        let out = dkc_bench::experiments::exp_lower_bound(gammas, depth);
        out.print();
        report.extend(out.records);
    }
    args.write_report(&report);
}
