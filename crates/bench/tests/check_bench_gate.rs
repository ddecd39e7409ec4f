//! Negative tests for `dkc-bench check`: a doctored report — missing counter
//! keys, a missing identity field, a renamed `records` array, multi-counter
//! drift, a missing or an unexpected record — must fail the gate with a
//! clear, per-problem message instead of a first-failure exit. Plus the
//! `rebaseline` round trip.

use std::path::{Path, PathBuf};
use std::process::Output;

fn dkc_bench(args: &[&Path]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_dkc-bench"))
        .args(args)
        .output()
        .expect("failed to spawn dkc-bench")
}

fn run_gate(report: &Path, baseline: &Path) -> (Option<i32>, String) {
    let out = dkc_bench(&[Path::new("check"), report, baseline]);
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code(), text)
}

fn sample_report() -> dkc_bench::Report {
    use dkc_distsim::{RoundStats, RunMetrics};
    let mut metrics = RunMetrics::new();
    metrics.push(RoundStats {
        round: 1,
        messages: 120,
        payload_bits: 7680,
        wire_bits: 9000,
        max_message_bits: 64,
        sending_nodes: 10,
        changed_nodes: 10,
        node_updates: 10,
        dropped_loss: 3,
        ..RoundStats::default()
    });
    let mut report = dkc_bench::Report::with_scale_name("gate_test", "tiny");
    report.extend(vec![
        dkc_bench::ExperimentRecord::from_metrics("E1", "wl-a", "tiny", &metrics),
        dkc_bench::ExperimentRecord::from_metrics("E2", "wl-b", "tiny", &metrics),
    ]);
    report
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dkc-gate-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(dir: &Path, name: &str, text: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn doctored_reports_fail_with_per_counter_messages() {
    let dir = scratch_dir("check");
    let good_json = sample_report().to_json();
    let baseline = write(&dir, "baseline.json", &good_json);

    // Sanity: an identical report passes.
    let (code, text) = run_gate(&write(&dir, "same.json", &good_json), &baseline);
    assert_eq!(
        code,
        Some(0),
        "identical report must pass the gate:\n{text}"
    );

    // Doctored: strip TWO counter keys from the first record. The gate must
    // fail and name BOTH counters (not stop after the first).
    let doctored = good_json
        .replacen("\"node_updates\": 10,\n", "", 1)
        .replacen("\"dropped_partition\": 0,\n", "", 1);
    assert_ne!(doctored, good_json, "doctoring must change the report");
    let (code, text) = run_gate(&write(&dir, "missing_counters.json", &doctored), &baseline);
    assert_eq!(code, Some(1), "gate must fail with exit 1:\n{text}");
    assert!(
        text.contains("record 0: missing or non-integer field \"node_updates\""),
        "must name node_updates:\n{text}"
    );
    assert!(
        text.contains("record 0: missing or non-integer field \"dropped_partition\""),
        "must name dropped_partition too (every problem reported):\n{text}"
    );

    // Doctored: a record without its identity field.
    let doctored = good_json.replacen("\"experiment\": \"E1\",\n", "", 1);
    let (code, text) = run_gate(&write(&dir, "missing_identity.json", &doctored), &baseline);
    assert_eq!(code, Some(1));
    assert!(
        text.contains("record 0: missing or non-string field \"experiment\""),
        "must report the missing identity field:\n{text}"
    );

    // Doctored: the records array renamed away entirely.
    let doctored = good_json.replacen("\"records\"", "\"wrecks\"", 1);
    let (code, text) = run_gate(&write(&dir, "no_records.json", &doctored), &baseline);
    assert_eq!(code, Some(1));
    assert!(
        text.contains("missing records array"),
        "must point at the missing records field:\n{text}"
    );

    // Drifted counters are caught, with every drifted counter named.
    let doctored = good_json
        .replacen("\"total_messages\": 120", "\"total_messages\": 121", 1)
        .replacen("\"wire_bits\": 9000", "\"wire_bits\": 9001", 1);
    let (code, text) = run_gate(&write(&dir, "drift.json", &doctored), &baseline);
    assert_eq!(code, Some(1));
    assert!(text.contains("counter drift"), "{text}");
    assert!(text.contains("total_messages: 120 -> 121"), "{text}");
    assert!(text.contains("wire_bits: 9000 -> 9001"), "{text}");

    // A record the baseline has and the report lacks, and one the baseline
    // lacks, are both reported in the same run.
    let mut renamed = sample_report();
    renamed.records[1].workload = "wl-c".into();
    let (code, text) = run_gate(&write(&dir, "renamed.json", &renamed.to_json()), &baseline);
    assert_eq!(code, Some(1));
    assert!(
        text.contains("missing record (\"E2\", \"wl-b\", \"tiny\")"),
        "{text}"
    );
    assert!(
        text.contains("unexpected new record (\"E2\", \"wl-c\", \"tiny\")"),
        "{text}"
    );
    assert!(
        text.contains("2 deterministic-counter failure(s)"),
        "{text}"
    );

    // Timing fields are never gated.
    let mut retimed = sample_report();
    retimed.records[0].wall_clock_ms = 1234.5;
    retimed.records[0].messages_per_sec = 9.0;
    let (code, text) = run_gate(&write(&dir, "retimed.json", &retimed.to_json()), &baseline);
    assert_eq!(code, Some(0), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rebaseline_verifies_then_zeroes_timings() {
    let dir = scratch_dir("rebaseline");
    let mut timed = sample_report();
    timed.records[0].wall_clock_ms = 12.5;
    timed.records[1].messages_per_sec = 3.0e6;
    let report = write(&dir, "report.json", &timed.to_json());
    let baseline = dir.join("baseline.json");

    let out = dkc_bench(&[Path::new("rebaseline"), &report, &baseline]);
    assert!(out.status.success(), "{out:?}");
    let installed = dkc_bench::Report::read_from(&baseline).unwrap();
    assert!(installed
        .records
        .iter()
        .all(|r| r.wall_clock_ms == 0.0 && r.messages_per_sec == 0.0));
    assert_eq!(run_gate(&report, &baseline).0, Some(0));

    // A malformed report is refused and the baseline is left untouched.
    let before = std::fs::read_to_string(&baseline).unwrap();
    let bad = write(
        &dir,
        "bad.json",
        &timed.to_json().replacen("\"rounds\": 1,\n", "", 1),
    );
    let out = dkc_bench(&[Path::new("rebaseline"), &bad, &baseline]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(std::fs::read_to_string(&baseline).unwrap(), before);

    // Usage errors exit 2.
    assert_eq!(dkc_bench(&[Path::new("check")]).status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}
