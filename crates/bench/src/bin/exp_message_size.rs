//! E7: CONGEST message sizes under (1+lambda)-quantization.

#![deny(deprecated)]
use dkc_bench::{ExpArgs, Reads, Report};

fn main() {
    let args = ExpArgs::parse(Reads::COMMON);
    let mut report = Report::new("exp_message_size", args.scale);
    let out = dkc_bench::experiments::exp_message_size(args.scale, &[0.01, 0.1, 0.5], 0.2);
    out.print();
    report.extend(out.records);
    args.write_report(&report);
}
