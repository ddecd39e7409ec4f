//! E3: empirical rounds to reach the target approximation ratio.

#![deny(deprecated)]
use dkc_bench::{ExpArgs, Reads, Report, WorkloadScale};

fn main() {
    let args = ExpArgs::parse(Reads::COMMON);
    let mut report = Report::new("exp_rounds_to_target", args.scale);
    let out = dkc_bench::experiments::exp_rounds_to_target(args.scale, 0.1);
    out.print();
    report.extend(out.records);
    // The default run also covers the medium scale, where exact ground truth
    // is skipped; an explicit --scale pins the suite to that scale only.
    if args.scale == WorkloadScale::Small && !std::env::args().any(|a| a.starts_with("--scale")) {
        let out = dkc_bench::experiments::exp_rounds_to_target(WorkloadScale::Medium, 0.1);
        out.print();
        report.extend(out.records);
    }
    args.write_report(&report);
}
