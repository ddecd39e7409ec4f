//! The deterministic-counter gate over benchmark reports.
//!
//! ```text
//! dkc-bench check REPORT BASELINE
//! dkc-bench rebaseline REPORT BASELINE
//! ```
//!
//! `check` compares the gated counters of every record
//! ([`ExperimentRecord::gated`]), keyed by (experiment, workload, scale), and
//! fails on any drift: a changed counter, a record the baseline has and the
//! report lacks, or a record the baseline does not have. One run reports
//! every problem — every malformed record of both files, then every missing,
//! unexpected and drifted record with each drifted counter as `old -> new`.
//! Timing fields are never compared.
//!
//! `rebaseline` installs REPORT as BASELINE after an intentional counter
//! change: the report must parse as the current schema with at least one
//! record, and its timing fields are zeroed so the committed diff shows only
//! counters.
//!
//! Both exit 0 on success, 1 on a failed check or an unreadable or malformed
//! file, and 2 on a usage error.

#![deny(deprecated)]
use dkc_bench::report::{ExperimentRecord, Report};
use std::collections::BTreeMap;
use std::process::ExitCode;

const USAGE: &str =
    "usage: dkc-bench check REPORT BASELINE\n       dkc-bench rebaseline REPORT BASELINE";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.as_slice() {
        [cmd, report, baseline] if cmd == "check" => check(report, baseline),
        [cmd, report, baseline] if cmd == "rebaseline" => rebaseline(report, baseline),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(problems) => {
            println!("{problems}");
            ExitCode::from(1)
        }
    }
}

type Key<'a> = (&'a str, &'a str, &'a str);

fn by_key(report: &Report) -> BTreeMap<Key<'_>, &ExperimentRecord> {
    report
        .records
        .iter()
        .map(|r| {
            (
                (r.experiment.as_str(), r.workload.as_str(), r.scale.as_str()),
                r,
            )
        })
        .collect()
}

fn check(report_path: &str, baseline_path: &str) -> Result<String, String> {
    let (report, baseline) = match (
        Report::read_from(report_path),
        Report::read_from(baseline_path),
    ) {
        (Ok(r), Ok(b)) => (r, b),
        (r, b) => {
            let errors: Vec<String> = [r.err(), b.err()].into_iter().flatten().collect();
            return Err(format!("dkc-bench check: {}", errors.join("\n")));
        }
    };
    let (got, expected) = (by_key(&report), by_key(&baseline));
    let mut failures = Vec::new();
    for (key, want) in &expected {
        let Some(have) = got.get(key) else {
            failures.push(format!("missing record {key:?} (the baseline has it)"));
            continue;
        };
        let drift: Vec<String> = want
            .gated()
            .zip(have.gated())
            .filter(|((_, old), (_, new))| old != new)
            .map(|((name, old), (_, new))| format!("{name}: {old} -> {new}"))
            .collect();
        if !drift.is_empty() {
            failures.push(format!("counter drift in {key:?}: {}", drift.join(", ")));
        }
    }
    for key in got.keys().filter(|k| !expected.contains_key(*k)) {
        failures.push(format!(
            "unexpected new record {key:?} (not in the baseline)"
        ));
    }
    if failures.is_empty() {
        return Ok(format!(
            "dkc-bench check: OK — {} records match the baseline ({baseline_path})",
            got.len()
        ));
    }
    Err(format!(
        "dkc-bench check: {} deterministic-counter failure(s) comparing {report_path} \
         against {baseline_path}:\n  - {}\n\
         If this change is intentional, install the new report with \
         `dkc-bench rebaseline {report_path} {baseline_path}` and commit the diff.",
        failures.len(),
        failures.join("\n  - ")
    ))
}

fn rebaseline(report_path: &str, baseline_path: &str) -> Result<String, String> {
    let mut report =
        Report::read_from(report_path).map_err(|e| format!("dkc-bench rebaseline: {e}"))?;
    if report.records.is_empty() {
        return Err(format!(
            "dkc-bench rebaseline: {report_path} has no records — refusing to install it"
        ));
    }
    for r in &mut report.records {
        r.wall_clock_ms = 0.0;
        r.messages_per_sec = 0.0;
    }
    report
        .write_to(baseline_path)
        .map_err(|e| format!("dkc-bench rebaseline: cannot write {baseline_path}: {e}"))?;
    Ok(format!(
        "dkc-bench rebaseline: verified {} records and zeroed their timings into \
         {baseline_path}; review and commit the diff",
        report.records.len()
    ))
}
