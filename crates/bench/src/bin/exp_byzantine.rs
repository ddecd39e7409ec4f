//! E14: byzantine degradation. Runs the compact elimination and the
//! Montresor exact baseline under byzantine fractions 0–30% (lie,
//! equivocate, mute, spam), with and without quarantine, on three workloads.
//!
//! Pass fault flags (`--byzantine`, `--quarantine`, plus the omission-fault
//! flags and `--fault-seed`) to replace the standard scenario matrix with a
//! custom `FaultPlan`, run against the fault-free control:
//!
//! ```sh
//! exp_byzantine --scale tiny --byzantine 0.2:lie,spam:2:20 --quarantine 2
//! ```

#![deny(deprecated)]
use dkc_bench::{ExpArgs, Reads, Report};

fn main() {
    let args = ExpArgs::parse(Reads {
        faults: true,
        ..Reads::COMMON
    });
    let custom = (!args.faults.is_trivial()).then_some(args.faults);
    let mut report = Report::new("exp_byzantine", args.scale);
    let out = dkc_bench::experiments::exp_byzantine(args.scale, custom);
    out.print();
    report.extend(out.records);
    args.write_report(&report);
}
