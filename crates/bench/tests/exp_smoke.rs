//! Smoke tests: every `exp_*` binary must parse its arguments and complete a
//! run on tiny graphs. This keeps the experiment harness from silently
//! rotting — the binaries are compiled and *executed* by `cargo test`.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A test's own directory under the temp directory, removed with its files
/// when the test ends.
struct TestDir(PathBuf);

impl std::ops::Deref for TestDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn test_dir(name: &str) -> TestDir {
    let dir =
        std::env::temp_dir().join(format!("dkc_exp_smoke_json-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    TestDir(dir)
}

/// Runs a compiled workspace binary with `--scale tiny` and asserts it
/// succeeds and produces table output.
fn smoke(bin_path: &str, name: &str) {
    let output = Command::new(bin_path)
        .args(["--scale", "tiny"])
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
    assert!(
        output.status.success(),
        "{name} --scale tiny exited with {:?}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        !stdout.trim().is_empty(),
        "{name} --scale tiny printed nothing"
    );
}

macro_rules! smoke_tests {
    ($($test_name:ident => $bin:literal),+ $(,)?) => {$(
        #[test]
        fn $test_name() {
            smoke(env!(concat!("CARGO_BIN_EXE_", $bin)), $bin);
        }
    )+};
}

smoke_tests! {
    exp_fig1_runs_tiny => "exp_fig1",
    exp_coreness_ratio_runs_tiny => "exp_coreness_ratio",
    exp_rounds_to_target_runs_tiny => "exp_rounds_to_target",
    exp_orientation_runs_tiny => "exp_orientation",
    exp_densest_runs_tiny => "exp_densest",
    exp_lower_bound_runs_tiny => "exp_lower_bound",
    exp_message_size_runs_tiny => "exp_message_size",
    exp_vs_exact_runs_tiny => "exp_vs_exact",
    exp_scaling_runs_tiny => "exp_scaling",
    exp_robustness_runs_tiny => "exp_robustness",
    exp_ingest_runs_tiny => "exp_ingest",
    exp_frontier_runs_tiny => "exp_frontier",
    exp_faults_runs_tiny => "exp_faults",
    exp_byzantine_runs_tiny => "exp_byzantine",
    exp_sharding_runs_tiny => "exp_sharding",
    exp_all_runs_tiny => "exp_all",
}

/// Runs a binary with `--scale tiny --json <tmp>` and validates the emitted
/// report: parseable, schema-valid, non-empty, and suite-stamped.
fn smoke_json(bin_path: &str, name: &str) {
    let dir = test_dir(name);
    let path = dir.join(format!("{name}.json"));
    let output = Command::new(bin_path)
        .args(["--scale", "tiny", "--json"])
        .arg(&path)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
    assert!(
        output.status.success(),
        "{name} --scale tiny --json exited with {:?}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    let report = dkc_bench::Report::read_from(&path)
        .unwrap_or_else(|e| panic!("{name} wrote an invalid report: {e}"));
    assert_eq!(report.suite, name);
    assert_eq!(report.scale, "tiny");
    assert!(!report.records.is_empty(), "{name} wrote zero records");
    for r in &report.records {
        r.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!r.scale.is_empty(), "{name}: record missing scale stamp");
    }
}

macro_rules! smoke_json_tests {
    ($($test_name:ident => $bin:literal),+ $(,)?) => {$(
        #[test]
        fn $test_name() {
            smoke_json(env!(concat!("CARGO_BIN_EXE_", $bin)), $bin);
        }
    )+};
}

smoke_json_tests! {
    exp_fig1_honors_json => "exp_fig1",
    exp_coreness_ratio_honors_json => "exp_coreness_ratio",
    exp_rounds_to_target_honors_json => "exp_rounds_to_target",
    exp_orientation_honors_json => "exp_orientation",
    exp_densest_honors_json => "exp_densest",
    exp_lower_bound_honors_json => "exp_lower_bound",
    exp_message_size_honors_json => "exp_message_size",
    exp_vs_exact_honors_json => "exp_vs_exact",
    exp_scaling_honors_json => "exp_scaling",
    exp_robustness_honors_json => "exp_robustness",
    exp_ingest_honors_json => "exp_ingest",
    exp_frontier_honors_json => "exp_frontier",
    exp_faults_honors_json => "exp_faults",
    exp_byzantine_honors_json => "exp_byzantine",
    exp_sharding_honors_json => "exp_sharding",
    exp_all_honors_json => "exp_all",
}

#[test]
fn exp_all_aggregates_every_experiment() {
    let dir = test_dir("exp_all_aggregates_every_experiment");
    let path = dir.join("exp_all_aggregate.json");
    let output = Command::new(env!("CARGO_BIN_EXE_exp_all"))
        .args(["--scale", "tiny", "--json"])
        .arg(&path)
        .output()
        .expect("failed to spawn exp_all");
    assert!(output.status.success());
    let report = dkc_bench::Report::read_from(&path).unwrap();
    let mut ids: Vec<&str> = report
        .records
        .iter()
        .map(|r| r.experiment.as_str())
        .collect();
    ids.dedup();
    for expected in [
        "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14",
    ] {
        assert!(
            ids.contains(&expected),
            "exp_all report is missing {expected} records"
        );
    }
}

#[test]
fn json_reports_are_deterministic_in_counters() {
    let dir = test_dir("json_reports_are_deterministic_in_counters");
    let counters = |path: &Path| {
        let report = dkc_bench::Report::read_from(path).unwrap();
        report
            .records
            .into_iter()
            .map(|r| (r.experiment, r.workload, r.scale, r.rounds, r.counters))
            .collect::<Vec<_>>()
    };
    let mut runs = Vec::new();
    for i in 0..2 {
        let path = dir.join(format!("exp_scaling_det_{i}.json"));
        let output = Command::new(env!("CARGO_BIN_EXE_exp_scaling"))
            .args(["--scale", "tiny", "--json"])
            .arg(&path)
            .output()
            .expect("failed to spawn exp_scaling");
        assert!(output.status.success());
        runs.push(counters(&path));
    }
    assert_eq!(
        runs[0], runs[1],
        "deterministic counters drifted between identical runs"
    );
}

#[test]
fn exp_binaries_accept_equals_form() {
    let output = Command::new(env!("CARGO_BIN_EXE_exp_fig1"))
        .arg("--scale=tiny")
        .output()
        .expect("failed to spawn exp_fig1");
    assert!(output.status.success(), "--scale=tiny must be accepted");
}

#[test]
fn exp_binaries_reject_unrecognized_args() {
    let output = Command::new(env!("CARGO_BIN_EXE_exp_fig1"))
        .arg("--sclae=tiny")
        .output()
        .expect("failed to spawn exp_fig1");
    assert!(
        !output.status.success(),
        "a typo'd flag must not silently run the full-scale suite"
    );
    assert!(String::from_utf8_lossy(&output.stderr).contains("unrecognized argument"));
}

/// Regression: `--threads 0` must be an explicit CLI rejection (exit code
/// 2 with a clear message), not whatever a zero-sized thread pool would do.
#[test]
fn exp_binaries_reject_zero_threads() {
    let output = Command::new(env!("CARGO_BIN_EXE_exp_fig1"))
        .args(["--threads", "0"])
        .output()
        .expect("failed to spawn exp_fig1");
    assert_eq!(
        output.status.code(),
        Some(2),
        "--threads 0 must exit with the usage-error status"
    );
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("--threads must be at least 1"),
        "rejection should explain the valid range"
    );
}

/// The exp_faults binary accepts a custom fault plan through the shared
/// fault flags and rejects malformed specs.
#[test]
fn exp_faults_accepts_and_rejects_fault_flags() {
    let output = Command::new(env!("CARGO_BIN_EXE_exp_faults"))
        .args(["--scale", "tiny", "--crash", "0.3:2:6", "--fault-seed", "9"])
        .output()
        .expect("failed to spawn exp_faults");
    assert!(
        output.status.success(),
        "custom fault flags failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("custom"),
        "custom scenario missing:
{stdout}"
    );
    let output = Command::new(env!("CARGO_BIN_EXE_exp_faults"))
        .args(["--scale", "tiny", "--crash", "1.5:2:6"])
        .output()
        .expect("failed to spawn exp_faults");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("[0, 1]"));
}

/// A binary rejects every flag it does not read, with the usage-error
/// status and the flag's name: the fault and shard flags outside the
/// binaries that read them, so a run never prints what it would have
/// printed without them. `exp_sharding` reads both groups.
#[test]
fn exp_binaries_reject_the_flags_they_do_not_read() {
    for (bin, name, flag, value) in [
        (
            env!("CARGO_BIN_EXE_exp_coreness_ratio"),
            "exp_coreness_ratio",
            "--loss",
            "0.1",
        ),
        (
            env!("CARGO_BIN_EXE_exp_coreness_ratio"),
            "exp_coreness_ratio",
            "--shards",
            "8",
        ),
        (env!("CARGO_BIN_EXE_exp_all"), "exp_all", "--loss", "0.1"),
        (
            env!("CARGO_BIN_EXE_exp_all"),
            "exp_all",
            "--fault-seed",
            "9",
        ),
        (
            env!("CARGO_BIN_EXE_exp_faults"),
            "exp_faults",
            "--shards",
            "2",
        ),
        (
            env!("CARGO_BIN_EXE_exp_byzantine"),
            "exp_byzantine",
            "--shard-seed",
            "3",
        ),
        (
            env!("CARGO_BIN_EXE_exp_fig1"),
            "exp_fig1",
            "--crash",
            "0.3:2:6",
        ),
    ] {
        let output = Command::new(bin)
            .args(["--scale", "tiny", flag, value])
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{name} {flag}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} is not read")),
            "{name} {flag}: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{name} {flag} ran anyway");
    }
    let output = Command::new(env!("CARGO_BIN_EXE_exp_sharding"))
        .args(["--scale", "tiny", "--shards", "2", "--shard-seed", "3"])
        .args(["--loss", "0.1", "--fault-seed", "9"])
        .output()
        .expect("failed to spawn exp_sharding");
    assert!(
        output.status.success(),
        "exp_sharding rejected the flags it reads: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(String::from_utf8_lossy(&output.stdout).contains("custom"));
}

/// `exp_all` reads `--shards` and `--shard-seed` and hands both to E15:
/// its E15 records are `exp_sharding`'s under the same flags, and the seed
/// moves the boundary counters.
#[test]
fn exp_all_passes_the_shard_flags_to_e15() {
    let dir = test_dir("exp_all_passes_the_shard_flags_to_e15");
    let e15 = |bin: &str, name: &str, flags: &[&str]| {
        let path = dir.join(format!("{name}_e15_{}.json", flags.join("_")));
        let output = Command::new(bin)
            .args(["--scale", "tiny", "--json"])
            .arg(&path)
            .args(flags)
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
        assert!(
            output.status.success(),
            "{name} {flags:?}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let report = dkc_bench::Report::read_from(&path).unwrap();
        report
            .records
            .into_iter()
            .filter(|r| r.experiment == "E15")
            .map(|r| (r.workload, r.counters))
            .collect::<Vec<_>>()
    };
    let sharding = env!("CARGO_BIN_EXE_exp_sharding");
    let seeded = ["--shards", "2", "--shard-seed", "5"];
    let all = e15(env!("CARGO_BIN_EXE_exp_all"), "exp_all", &seeded);
    assert!(all.iter().any(|(w, _)| w.ends_with("-shards2")), "{all:?}");
    assert_eq!(all, e15(sharding, "exp_sharding", &seeded));
    assert_ne!(all, e15(sharding, "exp_sharding", &seeded[..2]));
}

/// The exp_byzantine binary accepts a custom byzantine plan through the
/// shared fault flags and rejects malformed specs.
#[test]
fn exp_byzantine_accepts_and_rejects_byzantine_flags() {
    let output = Command::new(env!("CARGO_BIN_EXE_exp_byzantine"))
        .args([
            "--scale",
            "tiny",
            "--byzantine",
            "0.2:lie+spam:2:20",
            "--quarantine",
            "2",
            "--fault-seed",
            "9",
        ])
        .output()
        .expect("failed to spawn exp_byzantine");
    assert!(
        output.status.success(),
        "custom byzantine flags failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("custom"),
        "custom scenario missing:
{stdout}"
    );
    let output = Command::new(env!("CARGO_BIN_EXE_exp_byzantine"))
        .args(["--scale", "tiny", "--byzantine", "0.2:gossip:2:20"])
        .output()
        .expect("failed to spawn exp_byzantine");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown behavior name"));
}

#[test]
fn exp_binaries_reject_bad_scale() {
    let output = Command::new(env!("CARGO_BIN_EXE_exp_fig1"))
        .args(["--scale", "galactic"])
        .output()
        .expect("failed to spawn exp_fig1");
    assert!(
        !output.status.success(),
        "an unknown --scale value must be rejected"
    );
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("unknown --scale"),
        "rejection should explain the accepted values"
    );
}
