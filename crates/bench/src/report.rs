//! Machine-readable experiment reports.
//!
//! Every `exp_*` binary (and `dkc coreness`) accepts `--json <path>` and
//! serializes its measurements as a [`Report`]: one [`ExperimentRecord`] per
//! protocol (or reference) run, carrying the **deterministic counters** CI
//! gates on plus the non-deterministic timing columns (wall-clock, derived
//! messages/sec) that make regressions visible without failing builds.
//!
//! Schema (version 6):
//!
//! ```json
//! {
//!   "schema_version": 6,
//!   "suite": "exp_all",
//!   "scale": "tiny",
//!   "records": [
//!     {
//!       "experiment": "E9",
//!       "workload": "ba-2000-par",
//!       "scale": "tiny",
//!       "wall_clock_ms": 12.5,
//!       "rounds": 21,
//!       "total_messages": 399900,
//!       "payload_bits": 25593600,
//!       "…": "one key per gated counter",
//!       "messages_per_sec": 31992000.0
//!     }
//!   ]
//! }
//! ```
//!
//! The gated counters are `rounds` plus the run totals of every
//! `dkc_distsim::COUNTERS` row with a report key, written in table order
//! ([`ExperimentRecord::gated`]); every one is mandatory. Key order inside a
//! record carries no meaning. The `dkc-bench` binary gates a fresh report
//! against the committed `bench/baselines/tiny.json` on exactly these
//! counters (`dkc-bench check`) and installs a verified report as the
//! baseline (`dkc-bench rebaseline`); the timing fields are never gated.
//!
//! Serialization goes through the vendored `serde` data model into
//! `serde_json`; parsing uses `serde_json::Value` accessors and reports every
//! malformed field of every record, not only the first.

use crate::workloads::WorkloadScale;
use dkc_distsim::{RoundStats, RunMetrics, COUNTERS};
use serde::{Serialize, SerializeStruct, Serializer};
use serde_json::Value;
use std::path::Path;
use std::time::Duration;

/// Version stamp written into every report; bump when the schema changes.
pub const SCHEMA_VERSION: u64 = 6;

/// One measured run: the deterministic protocol counters plus timing.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentRecord {
    /// Experiment id (`"E1"`–`"E15"`).
    pub experiment: String,
    /// Workload / instance label (e.g. `"ba"`, `"fig1-ring-64"`).
    pub workload: String,
    /// Scale the run executed at (`"tiny"` / `"small"` / `"medium"`, or `""`
    /// until stamped by [`Report::extend`] for scale-agnostic experiments).
    pub scale: String,
    /// Wall-clock of the run in milliseconds (non-deterministic).
    pub wall_clock_ms: f64,
    /// Rounds executed (deterministic).
    pub rounds: usize,
    /// The run totals of the gated counters (deterministic; see
    /// `dkc_distsim::COUNTERS`). Ungated counters are always 0 here, and
    /// records of non-simulated runs leave the counters they do not measure
    /// at 0.
    pub counters: RoundStats,
    /// Derived throughput: `total_messages / wall_clock` (non-deterministic,
    /// 0 when no messages or no measurable time).
    pub messages_per_sec: f64,
}

impl ExperimentRecord {
    /// Builds a record from a simulator run's metrics. The wall-clock and
    /// derived throughput come from the executor's own accumulated timing
    /// ([`RunMetrics::elapsed`]), so they measure the protocol rounds and
    /// exclude graph construction / centralized post-processing.
    pub fn from_metrics(
        experiment: impl Into<String>,
        workload: impl Into<String>,
        scale: impl Into<String>,
        metrics: &RunMetrics,
    ) -> Self {
        let totals = metrics.totals();
        let mut counters = RoundStats::default();
        for ((c, kept), total) in COUNTERS
            .iter()
            .zip(counters.values_mut())
            .zip(totals.values())
        {
            if c.report_key.is_some() {
                *kept = total;
            }
        }
        ExperimentRecord {
            experiment: experiment.into(),
            workload: workload.into(),
            scale: scale.into(),
            wall_clock_ms: metrics.elapsed().as_secs_f64() * 1e3,
            rounds: metrics.num_rounds(),
            counters,
            messages_per_sec: metrics.messages_per_sec(),
        }
    }

    /// Builds a record from bare round/message totals (for protocols that
    /// expose counts but not full metrics, e.g. the four-phase weak-densest
    /// pipeline); the other counters stay zero.
    pub fn from_counts(
        experiment: impl Into<String>,
        workload: impl Into<String>,
        scale: impl Into<String>,
        wall: Duration,
        rounds: usize,
        total_messages: usize,
    ) -> Self {
        ExperimentRecord {
            counters: RoundStats {
                messages: total_messages,
                ..RoundStats::default()
            },
            messages_per_sec: derive_throughput(total_messages, wall),
            ..Self::centralized(experiment, workload, scale, wall, rounds)
        }
    }

    /// Builds a record for a centralized (non-simulated) computation: real
    /// wall-clock and round budget, zero communication counters.
    pub fn centralized(
        experiment: impl Into<String>,
        workload: impl Into<String>,
        scale: impl Into<String>,
        wall: Duration,
        rounds: usize,
    ) -> Self {
        ExperimentRecord {
            experiment: experiment.into(),
            workload: workload.into(),
            scale: scale.into(),
            wall_clock_ms: wall.as_secs_f64() * 1e3,
            rounds,
            counters: RoundStats::default(),
            messages_per_sec: 0.0,
        }
    }

    /// The gated counters as `(report key, value)` pairs: `rounds`, then
    /// the run totals in `dkc_distsim::COUNTERS` order.
    pub fn gated(&self) -> impl Iterator<Item = (&'static str, usize)> + '_ {
        std::iter::once(("rounds", self.rounds)).chain(self.counters.gated())
    }

    /// Field-level validity check used by the smoke tests.
    pub fn validate(&self) -> Result<(), String> {
        if self.experiment.is_empty() {
            return Err("record has an empty experiment id".into());
        }
        if self.workload.is_empty() {
            return Err(format!("{}: empty workload label", self.experiment));
        }
        if !self.wall_clock_ms.is_finite() || self.wall_clock_ms < 0.0 {
            return Err(format!("{}: bad wall_clock_ms", self.experiment));
        }
        if !self.messages_per_sec.is_finite() || self.messages_per_sec < 0.0 {
            return Err(format!("{}: bad messages_per_sec", self.experiment));
        }
        Ok(())
    }
}

fn derive_throughput(total_messages: usize, wall: Duration) -> f64 {
    let secs = wall.as_secs_f64();
    if secs > 0.0 && total_messages > 0 {
        total_messages as f64 / secs
    } else {
        0.0
    }
}

impl Serialize for ExperimentRecord {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let fields = 5 + self.gated().count();
        let mut s = serializer.serialize_struct("ExperimentRecord", fields)?;
        s.serialize_field("experiment", &self.experiment)?;
        s.serialize_field("workload", &self.workload)?;
        s.serialize_field("scale", &self.scale)?;
        s.serialize_field("wall_clock_ms", &self.wall_clock_ms)?;
        for (key, value) in self.gated() {
            s.serialize_field(key, &value)?;
        }
        s.serialize_field("messages_per_sec", &self.messages_per_sec)?;
        s.end()
    }
}

/// A full report: header plus the records of every experiment that ran.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// [`SCHEMA_VERSION`] at write time.
    pub schema_version: u64,
    /// The producing binary (`"exp_all"`, `"exp_fig1"`, …).
    pub suite: String,
    /// The `--scale` the suite ran at.
    pub scale: String,
    /// Free-form provenance notes (e.g. `"resumed from checkpoint at round
    /// 12"`). Serialized only when non-empty, so reports without notes — and
    /// every committed baseline — carry no `notes` key.
    pub notes: Vec<String>,
    /// All measured runs, in execution order.
    pub records: Vec<ExperimentRecord>,
}

impl Report {
    /// Creates an empty report for a suite at a scale.
    pub fn new(suite: impl Into<String>, scale: WorkloadScale) -> Self {
        Self::with_scale_name(suite, scale.name())
    }

    /// Creates an empty report with a free-form scale label (for producers
    /// outside the tiny/small/medium suite, e.g. the CLI's ad-hoc graphs).
    pub fn with_scale_name(suite: impl Into<String>, scale: impl Into<String>) -> Self {
        Report {
            schema_version: SCHEMA_VERSION,
            suite: suite.into(),
            scale: scale.into(),
            notes: Vec::new(),
            records: Vec::new(),
        }
    }

    /// Appends a provenance note (shown in the serialized report's optional
    /// `notes` array).
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Appends records, stamping this report's scale onto records that did
    /// not know theirs (scale-agnostic experiments leave it empty).
    pub fn extend(&mut self, records: Vec<ExperimentRecord>) {
        for mut r in records {
            if r.scale.is_empty() {
                r.scale = self.scale.clone();
            }
            self.records.push(r);
        }
    }

    /// Validates the header and every record.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {} (expected {SCHEMA_VERSION})",
                self.schema_version
            ));
        }
        if self.suite.is_empty() {
            return Err("empty suite name".into());
        }
        let mut keys = std::collections::HashSet::new();
        for r in &self.records {
            r.validate()?;
            if !keys.insert((r.experiment.as_str(), r.workload.as_str(), r.scale.as_str())) {
                return Err(format!(
                    "duplicate record key ({}, {}, {}) — workload labels must disambiguate \
                     repeated runs (e.g. include the epsilon)",
                    r.experiment, r.workload, r.scale
                ));
            }
        }
        Ok(())
    }

    /// Pretty-printed JSON (trailing newline included: the file is meant to
    /// be committed as a baseline).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("report serialization is total");
        s.push('\n');
        s
    }

    /// Parses and validates a JSON report of the current schema. A report
    /// with malformed records is rejected with one line per problem — every
    /// missing or mistyped field of every record.
    pub fn from_json(text: &str) -> Result<Report, String> {
        let value = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
        let version = field_u64(&value, "schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version} (expected {SCHEMA_VERSION})"
            ));
        }
        let mut problems = Vec::new();
        let mut records = Vec::new();
        let values = value
            .get("records")
            .and_then(Value::as_array)
            .ok_or("missing records array")?;
        for (i, v) in values.iter().enumerate() {
            match record_from_value(v) {
                Ok(r) => records.push(r),
                Err(errs) => problems.extend(errs.into_iter().map(|e| format!("record {i}: {e}"))),
            }
        }
        if !problems.is_empty() {
            return Err(format!(
                "{} malformed record problem(s):\n  - {}",
                problems.len(),
                problems.join("\n  - ")
            ));
        }
        let report = Report {
            schema_version: version,
            suite: field_str(&value, "suite")?,
            scale: field_str(&value, "scale")?,
            // Optional: absent means "no notes".
            notes: match value.get("notes") {
                None => Vec::new(),
                Some(v) => v
                    .as_array()
                    .ok_or("field \"notes\" must be an array of strings")?
                    .iter()
                    .map(|n| {
                        n.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| "field \"notes\" must contain only strings".to_string())
                    })
                    .collect::<Result<_, _>>()?,
            },
            records,
        };
        report.validate()?;
        Ok(report)
    }

    /// Writes the pretty JSON to `path`.
    pub fn write_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Reads and validates a report file.
    pub fn read_from(path: impl AsRef<Path>) -> Result<Report, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Report::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

impl Serialize for Report {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let fields = if self.notes.is_empty() { 4 } else { 5 };
        let mut s = serializer.serialize_struct("Report", fields)?;
        s.serialize_field("schema_version", &self.schema_version)?;
        s.serialize_field("suite", &self.suite)?;
        s.serialize_field("scale", &self.scale)?;
        if !self.notes.is_empty() {
            s.serialize_field("notes", &self.notes)?;
        }
        s.serialize_field("records", &self.records)?;
        s.end()
    }
}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

fn field_f64(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
}

fn field_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

/// `r`'s value, or the type's default with the error noted in `problems`.
fn keep<T: Default>(r: Result<T, String>, problems: &mut Vec<String>) -> T {
    r.unwrap_or_else(|e| {
        problems.push(e);
        T::default()
    })
}

/// Reads one record, collecting every missing or mistyped field.
fn record_from_value(v: &Value) -> Result<ExperimentRecord, Vec<String>> {
    let mut p = Vec::new();
    let record = ExperimentRecord {
        experiment: keep(field_str(v, "experiment"), &mut p),
        workload: keep(field_str(v, "workload"), &mut p),
        scale: keep(field_str(v, "scale"), &mut p),
        wall_clock_ms: keep(field_f64(v, "wall_clock_ms"), &mut p),
        rounds: keep(field_u64(v, "rounds"), &mut p) as usize,
        counters: {
            let mut counters = RoundStats::default();
            for (c, slot) in COUNTERS.iter().zip(counters.values_mut()) {
                if let Some(key) = c.report_key {
                    *slot = keep(field_u64(v, key), &mut p) as usize;
                }
            }
            counters
        },
        messages_per_sec: keep(field_f64(v, "messages_per_sec"), &mut p),
    };
    if p.is_empty() {
        Ok(record)
    } else {
        Err(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_report() -> Report {
        let mut report = Report::new("exp_demo", WorkloadScale::Tiny);
        report.extend(vec![
            ExperimentRecord {
                experiment: "E9".into(),
                workload: "ba-2000-seq".into(),
                scale: "".into(), // stamped by extend
                wall_clock_ms: 12.25,
                rounds: 21,
                counters: RoundStats {
                    messages: 399_900,
                    payload_bits: 25_593_600,
                    max_message_bits: 64,
                    wire_bits: 26_803_200,
                    node_updates: 42_000,
                    dropped_loss: 120,
                    dropped_burst: 7,
                    dropped_byzantine: 5,
                    crashed_nodes: 3,
                    byzantine_accusations: 9,
                    quarantined_nodes: 2,
                    boundary_bits: 1_088,
                    boundary_nodes: 6,
                    ..RoundStats::default()
                },
                messages_per_sec: 3.2e7,
            },
            ExperimentRecord::centralized("E2", "grid", "tiny", Duration::from_micros(1500), 17),
        ]);
        report
    }

    #[test]
    fn extend_stamps_missing_scales_only() {
        let report = sample_report();
        assert_eq!(report.records[0].scale, "tiny");
        assert_eq!(report.records[1].scale, "tiny");
        assert!(report.validate().is_ok());
    }

    #[test]
    fn json_round_trip_is_identity() {
        let report = sample_report();
        let parsed = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn counters_survive_round_trip_exactly() {
        let mut report = sample_report();
        report.records[0].counters.messages = usize::MAX / 2;
        report.records[0].counters.payload_bits = (1usize << 53) + 1; // beyond f64 exactness
        let parsed = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed.records[0].counters.messages, usize::MAX / 2);
        assert_eq!(parsed.records[0].counters.payload_bits, (1usize << 53) + 1);
    }

    #[test]
    fn from_json_rejects_malformed_reports() {
        assert!(Report::from_json("not json").is_err());
        assert!(Report::from_json("{}").is_err());
        let wrong_version = sample_report()
            .to_json()
            .replace("\"schema_version\": 6", "\"schema_version\": 999");
        let err = Report::from_json(&wrong_version).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
        let missing_field = sample_report()
            .to_json()
            .replace("\"rounds\"", "\"wrongs\"");
        let err = Report::from_json(&missing_field).unwrap_err();
        assert!(err.contains("rounds"), "{err}");
    }

    #[test]
    fn every_gated_counter_is_mandatory_and_every_gap_is_reported() {
        let json = sample_report().to_json();
        let gated: Vec<&str> = sample_report().records[0].gated().map(|(k, _)| k).collect();
        assert_eq!(gated.len(), 15, "rounds plus the table's report keys");
        // Strip every gated key from both records: one error names them all.
        let stripped: String = json
            .lines()
            .filter(|l| !gated.iter().any(|k| l.contains(&format!("\"{k}\""))))
            .collect::<Vec<_>>()
            .join("\n");
        let err = Report::from_json(&stripped).unwrap_err();
        assert!(err.starts_with("30 malformed record problem(s)"), "{err}");
        for key in &gated {
            assert!(
                err.contains(&format!("record 1: missing or non-integer field \"{key}\"")),
                "{key}: {err}"
            );
        }
        // Reports of older schema versions are no longer read.
        let v5 = json.replace("\"schema_version\": 6", "\"schema_version\": 5");
        let err = Report::from_json(&v5).unwrap_err();
        assert!(err.contains("unsupported schema_version 5"), "{err}");
    }

    #[test]
    fn notes_are_optional_and_round_trip() {
        // No notes: the key is absent, keeping baselines byte-stable.
        let plain = sample_report();
        assert!(!plain.to_json().contains("\"notes\""));
        assert_eq!(Report::from_json(&plain.to_json()).unwrap(), plain);
        // With notes: serialized and recovered verbatim.
        let mut noted = sample_report();
        noted.push_note("resumed from checkpoint at round 12");
        let json = noted.to_json();
        assert!(
            json.contains("resumed from checkpoint at round 12"),
            "{json}"
        );
        assert_eq!(Report::from_json(&json).unwrap(), noted);
        // Malformed notes are rejected with a field-level message.
        let bad = json.replace("\"resumed from checkpoint at round 12\"", "17");
        let err = Report::from_json(&bad).unwrap_err();
        assert!(err.contains("notes"), "{err}");
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("dkc_report_test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let report = sample_report();
        report.write_to(&path).unwrap();
        assert_eq!(Report::read_from(&path).unwrap(), report);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn from_metrics_uses_executor_timing() {
        let mut metrics = RunMetrics::new();
        metrics.push(RoundStats {
            round: 1,
            messages: 1000,
            payload_bits: 64_000,
            max_message_bits: 64,
            wire_bits: 96_000,
            sending_nodes: 10,
            changed_nodes: 10,
            node_updates: 10,
            boundary_bits: 544,
            boundary_nodes: 3,
            ..RoundStats::default()
        });
        metrics.add_elapsed(Duration::from_millis(100));
        let rec = ExperimentRecord::from_metrics("E9", "ba-10", "tiny", &metrics);
        assert_eq!(rec.rounds, 1);
        assert_eq!(
            rec.counters,
            RoundStats {
                sending_nodes: 0,
                changed_nodes: 0,
                round: 0,
                ..metrics.totals()
            },
            "the gated totals, with the ungated counters cleared"
        );
        assert!((rec.messages_per_sec - 10_000.0).abs() < 1e-9);
        assert!((rec.wall_clock_ms - 100.0).abs() < 1e-9);
        assert!(rec.validate().is_ok());
    }

    #[test]
    fn from_counts_derives_throughput() {
        let rec = ExperimentRecord::from_counts(
            "E5",
            "ba-eps0.5",
            "tiny",
            Duration::from_secs(2),
            54,
            500,
        );
        assert_eq!(rec.rounds, 54);
        assert_eq!(rec.counters.messages, 500);
        assert_eq!(rec.counters.payload_bits, 0);
        assert!((rec.messages_per_sec - 250.0).abs() < 1e-9);
    }

    #[test]
    fn validate_rejects_duplicate_record_keys() {
        let mut report = sample_report();
        let dup = report.records[0].clone();
        report.records.push(dup);
        let err = report.validate().unwrap_err();
        assert!(err.contains("duplicate record key"), "{err}");
    }
}
