//! Named synthetic workloads standing in for the real-world graphs of the
//! paper's full-version experiments.

use dkc_distsim::MAX_SHARDS;
use dkc_graph::generators::{
    barabasi_albert, chung_lu_power_law, erdos_renyi, grid_graph, planted_dense_community,
    watts_strogatz, with_random_integer_weights,
};
use dkc_graph::WeightedGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A named experiment workload.
pub struct Workload {
    /// Short name used in table rows.
    pub name: &'static str,
    /// The graph instance.
    pub graph: WeightedGraph,
    /// Whether the instance carries non-unit edge weights.
    pub weighted: bool,
}

/// How large the standard suite should be.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WorkloadScale {
    /// Instances of a few hundred nodes, for smoke tests and CI: every
    /// experiment (including flow-based exact ground truth) finishes in
    /// seconds.
    Tiny,
    /// Small instances for which exact ground truth (flow-based) is cheap.
    /// Roughly 1–2 thousand nodes.
    #[default]
    Small,
    /// Medium instances for protocol-only measurements (tens of thousands of
    /// nodes); exact densest-subgraph ground truth is skipped at this scale.
    Medium,
}

impl WorkloadScale {
    /// Scales a `Small`-calibrated instance size to this scale.
    pub fn scaled(self, base: usize) -> usize {
        match self {
            WorkloadScale::Tiny => (base / 10).max(10),
            WorkloadScale::Small => base,
            WorkloadScale::Medium => base * 10,
        }
    }

    /// The flag spelling of this scale (inverse of
    /// [`WorkloadScale::from_flag`]); used to stamp report records.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadScale::Tiny => "tiny",
            WorkloadScale::Small => "small",
            WorkloadScale::Medium => "medium",
        }
    }

    /// Parses a `--scale` flag value (`tiny` / `small` / `medium`).
    pub fn from_flag(flag: &str) -> Option<Self> {
        match flag {
            "tiny" => Some(WorkloadScale::Tiny),
            "small" => Some(WorkloadScale::Small),
            "medium" => Some(WorkloadScale::Medium),
            _ => None,
        }
    }
}

/// The common command line of every `exp_*` binary:
/// `--scale <tiny|small|medium>` (default `small`), `--json <path>` to
/// additionally write the run's [`crate::report::Report`],
/// `--threads <n>` to pin the rayon pool size (for reproducible thread
/// scaling measurements in E9/E12; default: machine parallelism; `n` must be
/// in `1..=MAX_SHARDS`, so `0` is an explicit error rather than whatever the
/// thread-pool builder would do, and no flag asks for thousands of threads),
/// and `--mode <lockstep|mailbox>` to pick the executor backend protocol
/// measurements run under (`lockstep` = the shared-memory barrier executor,
/// the default; `mailbox` = sharded threads exchanging wire-encoded byte
/// frames — every deterministic counter is identical by construction, so CI
/// gates a mailbox leg against the same baseline).
/// All flags accept the `--flag=value` form. Any other argument is rejected
/// so typos cannot silently fall back to a minutes-long full-scale run, and
/// so is a flag of the two groups below that the binary does not read (see
/// [`Reads`]), so no flag parses only to be ignored.
///
/// Sharding flags (read by `exp_sharding` and by `exp_all` for E15; see
/// `dkc_distsim::NetworkBuilder::shards`):
///
/// * `--shards <n>` — run under the shard-partitioned executor with `n`
///   shards (`1..=MAX_SHARDS`). Rejected together with `--mode mailbox`:
///   the mailbox backend is its own sharded runtime and the two do not
///   compose.
/// * `--shard-seed <seed>` — seed of the deterministic hash partitioner
///   (default: the experiment's own)
///
/// Fault-injection flags (read by `exp_faults`, `exp_byzantine` and
/// `exp_sharding`, whose custom scenario they build; see
/// `dkc_distsim::FaultPlan`):
///
/// * `--loss <p>` — i.i.d. per-message loss probability in `[0, 1]`
/// * `--burst <period>:<len>` — per-link outages: `len` dark rounds per
///   `period`-round cycle
/// * `--crash <p>:<first>:<last>` — each node crash-stops with probability
///   `p` at a deterministic round in `first..=last`
/// * `--partition <f>:<first>:<last>` — a hashed `f`-fraction node set is
///   cut off during rounds `first..=last`, healing afterwards
/// * `--byzantine <f>:<behaviors>:<first>:<last>` — a hashed `f`-fraction of
///   nodes misbehaves (`behaviors` = `+`-separated names from
///   lie/equivocate/mute/spam, or `all`) during rounds `first..=last`
/// * `--quarantine <threshold>` — stop delivering from a byzantine node once
///   it accumulates `threshold` accusations (requires `--byzantine`)
/// * `--fault-seed <seed>` — seed shared by all fault components
#[derive(Clone, Debug, PartialEq)]
pub struct ExpArgs {
    /// The workload scale to run at.
    pub scale: WorkloadScale,
    /// Where to write the JSON report (`None` = tables only).
    pub json: Option<std::path::PathBuf>,
    /// Thread-pool size override (`None` = machine parallelism).
    pub threads: Option<usize>,
    /// Executor backend for protocol measurements (`--mode`): the default
    /// lockstep executor or the mailbox message-passing backend.
    pub mode: dkc_distsim::ExecutionMode,
    /// The fault plan assembled from the fault flags (trivial by default).
    pub faults: dkc_distsim::FaultPlan,
    /// Shard count for the shard-partitioned executor (`--shards`; `None` =
    /// unsharded execution).
    pub shards: Option<usize>,
    /// Seed of the deterministic hash partitioner (`--shard-seed`; `None` =
    /// the experiment's default).
    pub shard_seed: Option<u64>,
}

/// The flag groups an `exp_*` binary reads beyond the common `--scale`,
/// `--json`, `--threads` and `--mode`. [`ExpArgs::parse`] rejects a flag of
/// a group the binary does not read with exit status 2, naming the flag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reads {
    /// `--loss`, `--burst`, `--crash`, `--partition`, `--byzantine`,
    /// `--quarantine` and `--fault-seed`.
    pub faults: bool,
    /// `--shards` and `--shard-seed`.
    pub shards: bool,
}

impl Reads {
    /// The common flags only.
    pub const COMMON: Reads = Reads {
        faults: false,
        shards: false,
    };
}

/// The fault flags, which [`Reads::faults`] admits.
const FAULT_FLAGS: [&str; 7] = [
    "loss",
    "burst",
    "crash",
    "partition",
    "byzantine",
    "quarantine",
    "fault-seed",
];

impl Default for ExpArgs {
    fn default() -> Self {
        ExpArgs {
            scale: WorkloadScale::default(),
            json: None,
            threads: None,
            // `--mode lockstep`: dense lockstep rounds.
            mode: dkc_distsim::ExecutionMode::Dense,
            faults: dkc_distsim::FaultPlan::default(),
            shards: None,
            shard_seed: None,
        }
    }
}

impl ExpArgs {
    /// Parses `std::env::args`, exiting with status 2 on any unknown flag
    /// or any flag outside the common ones and `reads`, and installs the
    /// `--threads` override into the global rayon pool.
    pub fn parse(reads: Reads) -> Self {
        let parsed = Self::try_parse_from(std::env::args().skip(1), reads).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2);
        });
        if let Some(n) = parsed.threads {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build_global()
                .expect("configure global thread pool");
        }
        crate::experiments::set_default_mode(parsed.mode);
        parsed
    }

    /// Pure parsing front end (no process exit, no thread-pool side effects),
    /// so rejection behaviour is unit-testable. Fault specs are parsed by
    /// the shared grammar in `dkc_distsim::faults::spec`, the same one the
    /// `dkc` CLI uses.
    fn try_parse_from(args: impl Iterator<Item = String>, reads: Reads) -> Result<Self, String> {
        use dkc_distsim::faults::spec;

        let parse_scale = |value: &str| {
            WorkloadScale::from_flag(value)
                .ok_or_else(|| format!("unknown --scale {value:?}; expected tiny|small|medium"))
        };
        let parse_mode = |value: &str| -> Result<dkc_distsim::ExecutionMode, String> {
            match value {
                "lockstep" => Ok(dkc_distsim::ExecutionMode::Dense),
                "mailbox" => Ok(dkc_distsim::ExecutionMode::Mailbox),
                _ => Err(format!(
                    "unknown --mode {value:?}; expected lockstep|mailbox"
                )),
            }
        };
        // `--threads` and `--shards` take a count in 1..=MAX_SHARDS. Zero is
        // neither "auto" nor a usable size (the thread-pool builder's
        // behaviour would be backend-defined), and a larger count would
        // start that many threads per round, or N² boundary counters.
        let parse_count = |flag: &str, value: &str, omitted: &str| -> Result<usize, String> {
            let n: usize = value
                .parse()
                .map_err(|_| format!("--{flag} expects a count, got {value:?}"))?;
            if n == 0 {
                return Err(format!(
                    "--{flag} must be at least 1 (omit the flag for {omitted})"
                ));
            }
            if n > MAX_SHARDS {
                return Err(format!("--{flag} must be at most {MAX_SHARDS} (got {n})"));
            }
            Ok(n)
        };

        let mut parsed = ExpArgs::default();
        let mut fault_seed = spec::DEFAULT_SEED;
        // The raw fault specs are collected first and assembled after the
        // loop so `--fault-seed` applies regardless of flag order.
        let mut loss: Option<String> = None;
        let mut burst: Option<String> = None;
        let mut crash: Option<String> = None;
        let mut partition: Option<String> = None;
        let mut byzantine: Option<String> = None;
        let mut quarantine: Option<String> = None;
        let mut args = args;
        let next_value = |flag: &str,
                          args: &mut dyn Iterator<Item = String>,
                          inline: Option<&str>|
         -> Result<String, String> {
            match inline {
                Some(v) => Ok(v.to_string()),
                None => args
                    .next()
                    .ok_or_else(|| format!("--{flag} requires a value")),
            }
        };
        while let Some(arg) = args.next() {
            let (flag, inline) = match arg.strip_prefix("--") {
                Some(rest) => match rest.split_once('=') {
                    Some((f, v)) => (f.to_string(), Some(v.to_string())),
                    None => (rest.to_string(), None),
                },
                None => (String::new(), None),
            };
            if FAULT_FLAGS.contains(&flag.as_str()) && !reads.faults {
                return Err(format!(
                    "--{flag} is not read by this binary; the fault flags are read by \
                     exp_faults, exp_byzantine and exp_sharding"
                ));
            }
            if matches!(flag.as_str(), "shards" | "shard-seed") && !reads.shards {
                return Err(format!(
                    "--{flag} is not read by this binary; the shard flags are read by \
                     exp_sharding and exp_all"
                ));
            }
            match flag.as_str() {
                "scale" => {
                    let v = next_value("scale", &mut args, inline.as_deref())?;
                    parsed.scale = parse_scale(&v)?;
                }
                "json" => {
                    let v = next_value("json", &mut args, inline.as_deref())?;
                    parsed.json = Some(v.into());
                }
                "threads" => {
                    let v = next_value("threads", &mut args, inline.as_deref())?;
                    parsed.threads = Some(parse_count("threads", &v, "machine parallelism")?);
                }
                "mode" => {
                    let v = next_value("mode", &mut args, inline.as_deref())?;
                    parsed.mode = parse_mode(&v)?;
                }
                "loss" => loss = Some(next_value("loss", &mut args, inline.as_deref())?),
                "burst" => burst = Some(next_value("burst", &mut args, inline.as_deref())?),
                "crash" => crash = Some(next_value("crash", &mut args, inline.as_deref())?),
                "partition" => {
                    partition = Some(next_value("partition", &mut args, inline.as_deref())?)
                }
                "byzantine" => {
                    byzantine = Some(next_value("byzantine", &mut args, inline.as_deref())?)
                }
                "quarantine" => {
                    quarantine = Some(next_value("quarantine", &mut args, inline.as_deref())?)
                }
                "fault-seed" => {
                    let v = next_value("fault-seed", &mut args, inline.as_deref())?;
                    fault_seed = v
                        .parse()
                        .map_err(|_| format!("--fault-seed expects an integer, got {v:?}"))?;
                }
                "shards" => {
                    let v = next_value("shards", &mut args, inline.as_deref())?;
                    parsed.shards = Some(parse_count("shards", &v, "unsharded execution")?);
                }
                "shard-seed" => {
                    let v = next_value("shard-seed", &mut args, inline.as_deref())?;
                    parsed.shard_seed = Some(
                        v.parse()
                            .map_err(|_| format!("--shard-seed expects an integer, got {v:?}"))?,
                    );
                }
                _ => {
                    let mut supported = String::from(
                        "--scale <tiny|small|medium>, --json <path>, --threads <n>, \
                         --mode <lockstep|mailbox>",
                    );
                    if reads.shards {
                        supported.push_str(", --shards <n>, --shard-seed <seed>");
                    }
                    if reads.faults {
                        supported.push_str(
                            ", --loss <p>, --burst <period>:<len>, --crash <p>:<first>:<last>, \
                             --partition <f>:<first>:<last>, \
                             --byzantine <f>:<behaviors>:<first>:<last>, \
                             --quarantine <threshold>, --fault-seed <seed>",
                        );
                    }
                    return Err(format!(
                        "unrecognized argument {arg:?}; supported flags: {supported}"
                    ));
                }
            }
        }
        if parsed.shards.is_some() && parsed.mode == dkc_distsim::ExecutionMode::Mailbox {
            return Err(
                "--shards does not compose with --mode mailbox: the mailbox backend is \
                 its own sharded runtime (drop one of the two flags)"
                    .into(),
            );
        }
        parsed.faults = spec::plan_from_flags(
            loss.as_deref(),
            burst.as_deref(),
            crash.as_deref(),
            partition.as_deref(),
            byzantine.as_deref(),
            quarantine.as_deref(),
            fault_seed,
        )?;
        Ok(parsed)
    }

    /// Writes `report` to the `--json` path (no-op without the flag), exiting
    /// with status 1 on I/O failure. The notice goes to stderr so stdout
    /// stays pure table output.
    pub fn write_report(&self, report: &crate::report::Report) {
        let Some(path) = &self.json else { return };
        if let Err(e) = report.write_to(path) {
            eprintln!("failed to write report {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!(
            "wrote {} records to {}",
            report.records.len(),
            path.display()
        );
    }
}

/// The standard workload suite used across experiments: two heavy-tailed
/// models (the social/web-graph stand-ins), a near-regular random graph, a
/// small-world overlay, a planted dense community, a high-diameter grid, and a
/// weighted variant.
pub fn standard_suite(scale: WorkloadScale) -> Vec<Workload> {
    let mut rng = StdRng::seed_from_u64(0xDCC0);
    let ba_n = scale.scaled(1500);
    let er_n = scale.scaled(1200);
    let ws_n = scale.scaled(1000);
    let planted_n = scale.scaled(1000);
    let community = 40.min(planted_n / 4).max(5);
    let ba = barabasi_albert(ba_n, 4, &mut rng);
    let weighted_ba = with_random_integer_weights(&ba, 10, &mut rng);
    vec![
        Workload {
            name: "ba",
            graph: ba,
            weighted: false,
        },
        Workload {
            name: "chung-lu",
            graph: chung_lu_power_law(ba_n, 2.5, 8.0, &mut rng),
            weighted: false,
        },
        Workload {
            name: "erdos-renyi",
            graph: erdos_renyi(er_n, 8.0 / er_n as f64, &mut rng),
            weighted: false,
        },
        Workload {
            name: "small-world",
            graph: watts_strogatz(ws_n, 8, 0.1, &mut rng),
            weighted: false,
        },
        Workload {
            name: "planted",
            graph: planted_dense_community(
                planted_n,
                community,
                4.0 / planted_n as f64,
                0.7,
                &mut rng,
            )
            .graph,
            weighted: false,
        },
        Workload {
            name: "grid",
            graph: grid_graph(20, scale.scaled(50)),
            weighted: false,
        },
        Workload {
            name: "weighted-ba",
            graph: weighted_ba,
            weighted: true,
        },
    ]
}

/// Injectively scatters a dense index into a sparse id space of roughly
/// `10^9` (multiplication by a unit modulo a prime): real SNAP-style
/// datasets use arbitrary sparse ids, and this reproduces that shape
/// deterministically.
pub fn sparse_external_id(i: usize) -> u64 {
    const M: u64 = 1_000_000_007; // prime modulus ≈ the SNAP id range
    const A: u64 = 736_481_777; // unit mod M, so i ↦ i·A is injective
    (i as u64 % M) * A % M
}

/// A "real-shaped" ingestion workload: an edge stream over sparse external
/// ids, as read from disk by the E11 ingestion experiment.
pub struct IngestWorkload {
    /// Short name used in table rows and record labels.
    pub name: &'static str,
    /// Edges in external-id space (weights included).
    pub edges: Vec<(u64, u64, f64)>,
    /// Number of distinct nodes mentioned by the edges.
    pub nodes: usize,
}

fn sparsify(name: &'static str, graph: &WeightedGraph) -> IngestWorkload {
    IngestWorkload {
        name,
        edges: graph
            .edges()
            .map(|(u, v, w)| {
                (
                    sparse_external_id(u.index()),
                    sparse_external_id(v.index()),
                    w,
                )
            })
            .collect(),
        nodes: graph.num_nodes(),
    }
}

/// The ingestion suite: heavy-tailed (social/web stand-in), near-regular,
/// and weighted workloads, each with sparse scattered external ids.
pub fn ingest_suite(scale: WorkloadScale) -> Vec<IngestWorkload> {
    let mut rng = StdRng::seed_from_u64(0x1D9E);
    let ba = barabasi_albert(scale.scaled(1500), 4, &mut rng);
    let er_n = scale.scaled(1200);
    let er = erdos_renyi(er_n, 8.0 / er_n as f64, &mut rng);
    let weighted = with_random_integer_weights(&ba, 10, &mut rng);
    vec![
        sparsify("ba-sparse", &ba),
        sparsify("er-sparse", &er),
        sparsify("weighted-ba-sparse", &weighted),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_well_formed() {
        let suite = standard_suite(WorkloadScale::Small);
        assert_eq!(suite.len(), 7);
        for w in &suite {
            assert!(w.graph.num_nodes() >= 1000, "{} too small", w.name);
            assert!(w.graph.num_edges() > 0, "{} has no edges", w.name);
            assert_eq!(w.weighted, !w.graph.is_unit_weighted(), "{}", w.name);
        }
    }

    #[test]
    fn tiny_suite_is_actually_tiny() {
        let suite = standard_suite(WorkloadScale::Tiny);
        assert_eq!(suite.len(), 7);
        for w in &suite {
            assert!(w.graph.num_nodes() <= 500, "{} too large for tiny", w.name);
            assert!(w.graph.num_edges() > 0, "{} has no edges", w.name);
        }
    }

    #[test]
    fn scale_flag_round_trips() {
        assert_eq!(WorkloadScale::from_flag("tiny"), Some(WorkloadScale::Tiny));
        assert_eq!(
            WorkloadScale::from_flag("small"),
            Some(WorkloadScale::Small)
        );
        assert_eq!(
            WorkloadScale::from_flag("medium"),
            Some(WorkloadScale::Medium)
        );
        assert_eq!(WorkloadScale::from_flag("huge"), None);
    }

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    /// Every flag group: what `exp_sharding` reads.
    const ALL: Reads = Reads {
        faults: true,
        shards: true,
    };

    fn parse_ok(v: &[&str]) -> ExpArgs {
        ExpArgs::try_parse_from(s(v).into_iter(), ALL).expect("arguments should parse")
    }

    fn parse_err(v: &[&str]) -> String {
        ExpArgs::try_parse_from(s(v).into_iter(), ALL).expect_err("arguments should be rejected")
    }

    #[test]
    fn exp_args_parse_scale_json_and_threads() {
        use dkc_distsim::ExecutionMode;
        assert_eq!(
            parse_ok(&[]),
            ExpArgs {
                scale: WorkloadScale::Small,
                json: None,
                threads: None,
                mode: ExecutionMode::Dense,
                faults: dkc_distsim::FaultPlan::none(),
                shards: None,
                shard_seed: None,
            }
        );
        assert_eq!(
            parse_ok(&["--scale", "tiny", "--json", "out.json"]),
            ExpArgs {
                scale: WorkloadScale::Tiny,
                json: Some("out.json".into()),
                threads: None,
                mode: ExecutionMode::Dense,
                faults: dkc_distsim::FaultPlan::none(),
                shards: None,
                shard_seed: None,
            }
        );
        assert_eq!(
            parse_ok(&["--json=r.json", "--scale=medium", "--threads", "4"]),
            ExpArgs {
                scale: WorkloadScale::Medium,
                json: Some("r.json".into()),
                threads: Some(4),
                mode: ExecutionMode::Dense,
                faults: dkc_distsim::FaultPlan::none(),
                shards: None,
                shard_seed: None,
            }
        );
        assert_eq!(parse_ok(&["--threads=2"]).threads, Some(2));
    }

    /// `--mode` selects the executor backend; anything but the two documented
    /// spellings is rejected.
    #[test]
    fn exp_args_parse_mode() {
        use dkc_distsim::ExecutionMode;
        assert_eq!(parse_ok(&[]).mode, ExecutionMode::Dense);
        assert_eq!(parse_ok(&["--mode", "lockstep"]).mode, ExecutionMode::Dense);
        assert_eq!(parse_ok(&["--mode=mailbox"]).mode, ExecutionMode::Mailbox);
        assert!(parse_err(&["--mode", "parallel"]).contains("lockstep|mailbox"));
        assert!(parse_err(&["--mode"]).contains("requires a value"));
    }

    /// `--shards` / `--shard-seed` select the shard-partitioned executor;
    /// zero shards and the mailbox combination are explicit errors.
    #[test]
    fn exp_args_parse_shards() {
        assert_eq!(parse_ok(&[]).shards, None);
        assert_eq!(parse_ok(&[]).shard_seed, None);
        assert_eq!(parse_ok(&["--shards", "4"]).shards, Some(4));
        assert_eq!(parse_ok(&["--shards=1"]).shards, Some(1));
        let both = parse_ok(&["--shards=8", "--shard-seed", "77"]);
        assert_eq!(both.shards, Some(8));
        assert_eq!(both.shard_seed, Some(77));
        // A shard seed without --shards parses (it moves E15's partition).
        assert_eq!(parse_ok(&["--shard-seed=9"]).shard_seed, Some(9));
        assert_eq!(parse_ok(&["--shard-seed=0"]).shard_seed, Some(0));
        assert!(parse_err(&["--shards", "0"]).contains("--shards must be at least 1"));
        assert!(parse_err(&["--shards", "many"]).contains("expects a count"));
        assert!(parse_err(&["--shard-seed", "abc"]).contains("expects an integer"));
        assert!(parse_err(&["--shards"]).contains("requires a value"));
        // The mailbox backend is its own sharded runtime; combining the two
        // is rejected regardless of flag order.
        for argv in [
            &["--shards=2", "--mode", "mailbox"][..],
            &["--mode=mailbox", "--shards", "2"][..],
        ] {
            let err = parse_err(argv);
            assert!(
                err.contains("does not compose with --mode mailbox"),
                "{err}"
            );
        }
        // lockstep + shards is fine.
        assert_eq!(parse_ok(&["--mode=lockstep", "--shards=2"]).shards, Some(2));
    }

    /// Regression: `--threads 0` is an explicit error, not whatever the
    /// thread-pool builder would make of a zero-sized pool.
    #[test]
    fn exp_args_reject_zero_threads() {
        for argv in [&["--threads", "0"][..], &["--threads=0"][..]] {
            let err = parse_err(argv);
            assert!(err.contains("--threads must be at least 1"), "{err}");
        }
        let err = parse_err(&["--threads", "zero"]);
        assert!(err.contains("expects a count"), "{err}");
    }

    /// Regression: `--shards 2000` panicked in the experiment's run, and
    /// `--threads N` asked for N threads per round, for any N.
    #[test]
    fn exp_args_cap_threads_and_shards_at_max_shards() {
        assert_eq!(parse_ok(&["--threads", "1024"]).threads, Some(1024));
        assert_eq!(parse_ok(&["--shards", "1024"]).shards, Some(1024));
        for flag in ["--threads", "--shards"] {
            for n in ["1025".to_string(), u64::MAX.to_string()] {
                let err = parse_err(&[flag, &n]);
                assert!(
                    err.contains(&format!("{flag} must be at most 1024")),
                    "{err}"
                );
            }
        }
    }

    /// A binary rejects every flag of a group it does not read, naming the
    /// flag, whether or not the value would parse; the groups it reads parse.
    #[test]
    fn exp_args_reject_the_flags_a_binary_does_not_read() {
        let parse = |reads: Reads, v: &[&str]| ExpArgs::try_parse_from(s(v).into_iter(), reads);
        let faults = FAULT_FLAGS.map(|flag| format!("--{flag}=0.1"));
        let shards = ["--shards=2", "--shard-seed=3"].map(String::from);
        let only_faults = Reads {
            faults: true,
            ..Reads::COMMON
        };
        let only_shards = Reads {
            shards: true,
            ..Reads::COMMON
        };
        for (reads, rejected) in [
            (Reads::COMMON, [&faults[..], &shards[..]].concat()),
            (only_faults, shards.to_vec()),
            (only_shards, faults.to_vec()),
        ] {
            for arg in rejected {
                let err = parse(reads, &[&arg]).expect_err(&arg);
                let flag = arg.split('=').next().unwrap();
                assert!(
                    err.starts_with(&format!("{flag} is not read by this binary")),
                    "{err}"
                );
            }
        }
        assert!(parse(Reads::COMMON, &["--loss", "0.1"])
            .unwrap_err()
            .contains("--loss is not read"));
        assert_eq!(
            parse(only_shards, &["--shards=2", "--shard-seed=3"]),
            Ok(ExpArgs {
                shards: Some(2),
                shard_seed: Some(3),
                ..ExpArgs::default()
            })
        );
        let custom = parse(only_faults, &["--crash=0.3:2:6", "--fault-seed=9"]).unwrap();
        assert!(!custom.faults.is_trivial());
        let plain = parse(
            Reads::COMMON,
            &["--scale=tiny", "--mode=mailbox", "--threads=2"],
        );
        assert_eq!(plain.unwrap().threads, Some(2));
        let err = parse(Reads::COMMON, &["--sclae=tiny"]).unwrap_err();
        assert!(err.contains("unrecognized argument"), "{err}");
        assert!(
            !err.contains("--loss") && !err.contains("--shards"),
            "{err}"
        );
    }

    #[test]
    fn exp_args_reject_unknown_flags_and_missing_values() {
        assert!(parse_err(&["--sclae=tiny"]).contains("unrecognized argument"));
        assert!(parse_err(&["positional"]).contains("unrecognized argument"));
        assert!(parse_err(&["--scale"]).contains("requires a value"));
        assert!(parse_err(&["--scale", "galactic"]).contains("unknown --scale"));
    }

    #[test]
    fn exp_args_parse_fault_flags_into_a_plan() {
        use dkc_distsim::{BurstLoss, CrashModel, LossModel, PartitionModel};
        let args = parse_ok(&[
            "--loss",
            "0.25",
            "--burst=6:2",
            "--crash",
            "0.1:2:9",
            "--partition=0.3:4:8",
            "--fault-seed",
            "77",
        ]);
        assert_eq!(args.faults.loss, Some(LossModel::new(0.25, 77)));
        assert_eq!(args.faults.burst, Some(BurstLoss::new(6, 2, 77 ^ 0xB0)));
        assert_eq!(
            args.faults.crash,
            Some(CrashModel::new(0.1, 2, 9, 77 ^ 0xC0))
        );
        assert_eq!(
            args.faults.partition,
            Some(PartitionModel::new(0.3, 4, 8, 77 ^ 0xD0))
        );
        assert!(!args.faults.is_trivial());
        // Flag order must not matter for the shared seed.
        let reordered = parse_ok(&["--fault-seed=77", "--loss=0.25"]);
        assert_eq!(reordered.faults.loss, Some(LossModel::new(0.25, 77)));
        // No fault flags => trivial plan.
        assert!(parse_ok(&["--scale", "tiny"]).faults.is_trivial());
    }

    #[test]
    fn exp_args_parse_byzantine_flags_into_a_plan() {
        use dkc_distsim::{Behavior, ByzantineModel};
        let args = parse_ok(&[
            "--byzantine",
            "0.2:lie+mute:3:9",
            "--quarantine=2",
            "--fault-seed",
            "77",
        ]);
        assert_eq!(
            args.faults.byzantine,
            Some(
                ByzantineModel::new(
                    0.2,
                    Behavior::Lie.bit() | Behavior::Mute.bit(),
                    3,
                    9,
                    77 ^ 0xE0
                )
                .with_quarantine(2)
            )
        );
        // `all` expands to every behavior bit; quarantine stays disabled
        // without the flag.
        let all = parse_ok(&["--byzantine=0.1:all:2:5"]);
        let model = all.faults.byzantine.expect("byzantine model");
        assert_eq!(model.behaviors, ByzantineModel::ALL_BEHAVIORS);
        assert_eq!(model.quarantine, 0);
    }

    #[test]
    fn exp_args_reject_malformed_byzantine_specs() {
        assert!(parse_err(&["--byzantine", "0.2"])
            .contains("<fraction>:<behaviors>:<first-round>:<last-round>"));
        assert!(parse_err(&["--byzantine", "1.5:all:2:9"]).contains("[0, 1]"));
        assert!(parse_err(&["--byzantine", "0.2:gossip:2:9"]).contains("unknown behavior name"));
        assert!(parse_err(&["--byzantine", "0.2:all:1:9"]).contains("2 <= first"));
        assert!(parse_err(&["--byzantine", "0.2:all:9:2"]).contains("2 <= first <= last"));
        assert!(parse_err(&["--byzantine", "0.2:all:x:9"]).contains("must be an integer"));
        assert!(parse_err(&["--quarantine", "2"]).contains("--quarantine requires --byzantine"));
        assert!(parse_err(&["--byzantine=0.2:all:2:9", "--quarantine=many"])
            .contains("expects an accusation threshold"));
    }

    #[test]
    fn exp_args_reject_malformed_fault_specs() {
        assert!(parse_err(&["--loss", "1.5"]).contains("[0, 1]"));
        assert!(parse_err(&["--loss", "p"]).contains("expects a probability"));
        assert!(parse_err(&["--burst", "6"]).contains("<period>:<len>"));
        assert!(parse_err(&["--burst", "4:9"]).contains("len <= period"));
        assert!(parse_err(&["--burst", "0:0"]).contains("1 <= period"));
        assert!(parse_err(&["--crash", "0.5"]).contains("<p>:<first-round>:<last-round>"));
        assert!(parse_err(&["--crash", "0.5:0:4"]).contains("2 <= first"));
        assert!(parse_err(&["--crash", "0.5:6:4"]).contains("first <= last"));
        // Round-1 crashes would freeze uninitialized node state; the spec
        // surface rejects them (the library type still allows first == 1).
        assert!(parse_err(&["--crash", "0.5:1:4"]).contains("2 <= first"));
        assert!(parse_err(&["--partition", "0.5:3:x"]).contains("must be an integer"));
        assert!(parse_err(&["--fault-seed", "abc"]).contains("expects an integer"));
    }

    #[test]
    fn scale_names_round_trip() {
        for scale in [
            WorkloadScale::Tiny,
            WorkloadScale::Small,
            WorkloadScale::Medium,
        ] {
            assert_eq!(WorkloadScale::from_flag(scale.name()), Some(scale));
        }
    }

    #[test]
    fn sparse_ids_are_injective_and_sparse() {
        let mut seen = std::collections::HashSet::new();
        let mut any_large = false;
        for i in 0..10_000 {
            let ext = sparse_external_id(i);
            assert!(seen.insert(ext), "collision at {i}");
            assert!(ext < 1_000_000_007);
            any_large |= ext > 500_000_000;
        }
        assert!(any_large, "ids are not scattered across the space");
    }

    #[test]
    fn ingest_suite_is_deterministic_and_sparse() {
        let a = ingest_suite(WorkloadScale::Tiny);
        let b = ingest_suite(WorkloadScale::Tiny);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.edges, y.edges, "{}", x.name);
            assert!(!x.edges.is_empty(), "{}", x.name);
            // The max external id dwarfs the node count: sparse for real.
            let max_ext = x.edges.iter().map(|&(u, v, _)| u.max(v)).max().unwrap();
            assert!(max_ext > 1_000_000, "{}: ids not sparse", x.name);
            assert!(x.nodes < 100_000, "{}", x.name);
        }
    }

    #[test]
    fn suite_is_deterministic() {
        let a = standard_suite(WorkloadScale::Small);
        let b = standard_suite(WorkloadScale::Small);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.graph.num_edges(), y.graph.num_edges());
            assert_eq!(x.graph.total_edge_weight(), y.graph.total_edge_weight());
        }
    }
}
