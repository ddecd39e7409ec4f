//! Wall-clock isolation audit (the D02 contract, tested from the data side).
//!
//! The workspace reads `Instant::now` in exactly two places — the round loop
//! every execution mode shares (`Network::step_round` in
//! `crates/distsim/src/network.rs`) and the bench harness
//! (`crates/bench/src/experiments.rs`) — both on the dkc-lint D02 allowlist.
//! Those readings may only ever reach the two timing fields of an
//! [`ExperimentRecord`] (`wall_clock_ms`, `messages_per_sec`), never the
//! deterministic counters `dkc-bench check` gates on
//! ([`ExperimentRecord::gated`]). These tests pin both halves of that
//! contract.

use dkc_bench::report::ExperimentRecord;
use dkc_distsim::{RoundStats, RunMetrics};
use std::time::Duration;

/// A round with every counter nonzero and distinct.
fn busy_round(round: usize) -> RoundStats {
    let mut stats = RoundStats::default();
    for (i, v) in stats.values_mut().into_iter().enumerate() {
        *v = 7 * (i + 1);
    }
    RoundStats { round, ..stats }
}

#[test]
fn elapsed_time_only_reaches_the_timing_fields() {
    let rounds: Vec<RoundStats> = (1..=4).map(busy_round).collect();
    let fast = RunMetrics::from_parts(rounds.clone(), Duration::from_millis(10));
    let slow = RunMetrics::from_parts(rounds, Duration::from_millis(999));

    let a = ExperimentRecord::from_metrics("E1", "w", "tiny", &fast);
    let b = ExperimentRecord::from_metrics("E1", "w", "tiny", &slow);

    // Every gated counter is identical across the two runs, and nonzero…
    let gated: Vec<_> = a.gated().collect();
    assert_eq!(gated, b.gated().collect::<Vec<_>>());
    assert!(gated.iter().all(|&(_, v)| v > 0), "{gated:?}");

    // …and the wall clock moved only the two timing fields.
    assert!((a.wall_clock_ms - 10.0).abs() < 1e-9);
    assert!((b.wall_clock_ms - 999.0).abs() < 1e-9);
    assert!(a.messages_per_sec > b.messages_per_sec);

    // Field-count tripwire: if ExperimentRecord grows a field, this test must
    // be revisited to classify it as deterministic or timing.
    let ExperimentRecord {
        experiment: _,
        workload: _,
        scale: _,
        wall_clock_ms: _,
        rounds: _,
        counters: _,
        messages_per_sec: _,
    } = a;
}

#[test]
fn gated_keys_are_exactly_the_baseline_counters() {
    let record = ExperimentRecord::from_metrics("E1", "w", "tiny", &RunMetrics::new());
    let gated: Vec<&str> = record.gated().map(|(key, _)| key).collect();
    assert!(
        !gated.contains(&"wall_clock_ms") && !gated.contains(&"messages_per_sec"),
        "timing fields must never be gated"
    );

    // The committed baseline's records carry the identity, the two timing
    // fields, and exactly the gated counters — no more, no fewer.
    let baseline = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../bench/baselines/tiny.json"
    );
    let text = std::fs::read_to_string(baseline).unwrap();
    let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
    let first = doc.get("records").and_then(|r| r.as_array()).unwrap()[0]
        .as_object()
        .unwrap();
    let mut keys: Vec<&str> = first.iter().map(|(k, _)| k).collect();
    let mut expected = gated.clone();
    expected.extend([
        "experiment",
        "workload",
        "scale",
        "wall_clock_ms",
        "messages_per_sec",
    ]);
    keys.sort_unstable();
    expected.sort_unstable();
    assert_eq!(keys, expected, "gated counters must match the baseline's");
}
