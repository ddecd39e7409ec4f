//! E13: fault injection. Runs the compact elimination under each fault class
//! (i.i.d. loss, burst loss, crash-stop, partition) on three workloads.
//!
//! Pass fault flags (`--loss`, `--burst`, `--crash`, `--partition`,
//! `--fault-seed`) to replace the standard scenario matrix with a custom
//! `FaultPlan`, run against the fault-free control:
//!
//! ```sh
//! exp_faults --scale tiny --crash 0.3:2:8 --loss 0.1
//! ```

#![deny(deprecated)]
use dkc_bench::{ExpArgs, Reads, Report};

fn main() {
    let args = ExpArgs::parse(Reads {
        faults: true,
        ..Reads::COMMON
    });
    let custom = (!args.faults.is_trivial()).then_some(args.faults);
    let mut report = Report::new("exp_faults", args.scale);
    let out = dkc_bench::experiments::exp_faults(args.scale, custom);
    out.print();
    report.extend(out.records);
    args.write_report(&report);
}
