//! # dkc-cli
//!
//! A small command-line front end over the library: generate synthetic graphs,
//! inspect them, and run the paper's distributed approximation algorithms (or
//! the exact baselines) on edge-list files.
//!
//! ```text
//! dkc generate ba --nodes 10000 --attach 4 --out graph.edges
//! dkc stats graph.edges
//! dkc coreness graph.edges --epsilon 0.1 --exact --top 10
//! dkc orientation graph.edges --epsilon 0.5
//! dkc densest graph.edges --epsilon 0.25
//! ```
//!
//! Argument parsing is deliberately dependency-free (`--flag value` pairs plus
//! positional arguments); see [`args`].

#![deny(deprecated)]

pub mod args;
pub mod commands;

/// Entry point used by the `dkc` binary: parses the raw arguments, dispatches
/// the command, and returns the output text (or a usage/error message).
pub fn run(raw_args: &[String]) -> Result<String, String> {
    let parsed = args::Parsed::parse(raw_args)?;
    commands::dispatch(&parsed)
}

/// The usage string printed on `--help` or on errors.
pub const USAGE: &str = "\
dkc — distributed approximate k-core / min-max orientation / densest subsets

USAGE:
  dkc generate <model> --nodes N [--out FILE] [--seed S] [model options]
      models: ba (--attach M), er (--prob P), chung-lu (--alpha A --avg-degree D),
              ws (--k K --beta B), grid (--rows R --cols C), path, cycle, complete
      common: --weights W   give edges random integer weights in 1..=W
              --out FILE    write FILE in the format its extension names
                            (see convert; an edge list by default)
  dkc stats <file> [--format F] [--stream]
      --stream computes one-pass statistics without materializing the graph
  dkc convert <in> <out> [--from F] [--to F]
      formats: edgelist (SNAP-style, sparse ids remapped), metis, binary (.dkcb);
      inferred from the file extension unless --from/--to is given
  dkc coreness <file> [--epsilon E] [--rounds T] [--lambda L] [--exact] [--top K]
               [--json FILE]   write the run's metrics as a benchmark report
      sharded execution (byte-identical counters, boundary traffic reported):
               [--shards N]      partition the nodes into N shards exchanging
                                 cross-shard delta frames
               [--shard-seed S]  seed of the hash partitioner (default 0)
      fault injection (deterministic, seeded by --fault-seed S):
               [--loss P] [--burst PERIOD:LEN] [--crash P:FIRST:LAST]
               [--partition F:FIRST:LAST]
               [--byzantine F:BEHAVIORS:FIRST:LAST]  a hashed F-fraction of
                           nodes misbehaves; BEHAVIORS is +-separated from
                           lie, equivocate, mute, spam (or \"all\")
               [--quarantine N]  silence a byzantine node after N accusations
      checkpoint / resume (kill-safe long runs):
               [--checkpoint FILE]      write an atomic checkpoint during the run
               [--checkpoint-every N]   rounds between checkpoints (default 1)
               [--resume FILE]          resume a killed run; rounds, threshold
                                        set, fault plan, and shard partition
                                        come from the checkpoint (conflicting
                                        flags rejected)
  dkc orientation <file> [--epsilon E] [--compare]
  dkc densest <file> [--epsilon E] [--exact]
  dkc help

Input files may use arbitrary sparse node ids (e.g. SNAP datasets): ids are
remapped to dense indices on load and original ids are reported in output.
Unknown flags are rejected; numeric flags are range-checked.
";

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn help_and_errors() {
        assert!(run(&s(&["help"])).unwrap().contains("USAGE"));
        assert!(run(&s(&[])).is_err());
        assert!(run(&s(&["frobnicate"])).is_err());
    }

    /// Each of these `generate` flag sets used to trip a generator's
    /// `assert!`, ask for 2^32 nodes or more, or imply more than `u32::MAX`
    /// arcs (tens of GiB before the graph could be refused); each is a
    /// typed error now, before any generator runs.
    #[test]
    fn generate_rejects_what_its_generators_cannot_build() {
        let cases: &[&[&str]] = &[
            &["ba", "--attach", "0"],
            &["ba", "--nodes", "5", "--attach", "5"],
            &["ba", "--nodes", "5", "--attach", "4294967295"],
            &["er", "--prob", "-1"],
            &["er", "--prob", "1.5"],
            &["er", "--prob", "NaN"],
            &["er", "--prob", "inf"],
            &["chung-lu", "--alpha", "1"],
            &["chung-lu", "--alpha", "-inf"],
            &["chung-lu", "--alpha", "inf"],
            &["chung-lu", "--alpha", "NaN"],
            &["chung-lu", "--avg-degree", "0"],
            &["chung-lu", "--avg-degree", "-1"],
            &["chung-lu", "--avg-degree", "inf"],
            &["chung-lu", "--avg-degree", "NaN"],
            &["ws", "--k", "3"],
            &["ws", "--nodes", "6", "--k", "6"],
            &["ws", "--beta", "-0.5"],
            &["ws", "--beta", "1e308"],
            &["ws", "--beta", "NaN"],
            &["cycle", "--nodes", "1"],
            &["cycle", "--nodes", "2"],
            &["path", "--nodes", "4294967296"],
            &["ba", "--nodes", "4294967296"],
            &["path", "--nodes", "18446744073709551615"],
            &["grid", "--rows", "65536", "--cols", "65536"],
            &["grid", "--rows", "4294967296", "--cols", "1"],
            &["grid", "--rows", "18446744073709551615", "--cols", "2"],
            &["path", "--nodes", "4294967295"],
            &["cycle", "--nodes", "2147483648"],
            &["complete", "--nodes", "65537"],
            &["ba", "--nodes", "1000000000", "--attach", "3"],
            &["grid", "--rows", "65535", "--cols", "65535"],
        ];
        for case in cases {
            let mut args = vec!["generate".to_string()];
            args.extend(case.iter().map(|a| a.to_string()));
            let result = std::panic::catch_unwind(|| run(&args));
            assert!(
                matches!(result, Ok(Err(_))),
                "generate {case:?}: {result:?}"
            );
        }
    }

    /// Hostile values for every flag of the commands that read a dataset,
    /// fault windows that are inverted, empty or cross `MAX_ROUNDS`, and
    /// output paths that are a directory or lie in a missing one: each
    /// invocation returns a typed error or a valid run, never a panic.
    #[test]
    fn dataset_commands_survive_a_hostile_flag_sweep() {
        const NUMBERS: [&str; 10] = [
            "0",
            "-1",
            "NaN",
            "inf",
            "-inf",
            "1e308",
            "5e-324",
            "4294967295",
            "4294967296",
            "18446744073709551615",
        ];
        let web_tiny = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../bench/fixtures/web-tiny.edges"
        );
        let dir = std::env::temp_dir().join(format!("dkc_cli_flag_sweep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let in_dir = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let (ckpt, converted) = (in_dir("sweep.dkck"), in_dir("converted.edges"));
        let mut cases: Vec<Vec<String>> = Vec::new();
        let mut case = |args: &[&str]| cases.push(s(args));
        for v in NUMBERS {
            for flag in [
                "--epsilon",
                "--rounds",
                "--lambda",
                "--top",
                "--loss",
                "--fault-seed",
                "--shards",
            ] {
                case(&["coreness", web_tiny, flag, v]);
            }
            case(&["coreness", web_tiny, "--shards", "2", "--shard-seed", v]);
            case(&[
                "coreness",
                web_tiny,
                "--checkpoint",
                &ckpt,
                "--checkpoint-every",
                v,
            ]);
            case(&[
                "coreness",
                web_tiny,
                "--byzantine",
                "0.5:all:2:9",
                "--quarantine",
                v,
            ]);
            for spec in [format!("{v}:1"), format!("4:{v}")] {
                case(&["coreness", web_tiny, "--burst", &spec]);
            }
            for flag in ["--crash", "--partition"] {
                for spec in [
                    format!("{v}:2:9"),
                    format!("0.5:{v}:9"),
                    format!("0.5:2:{v}"),
                ] {
                    case(&["coreness", web_tiny, flag, &spec]);
                }
            }
            for spec in [
                format!("{v}:all:2:9"),
                format!("0.5:all:{v}:9"),
                format!("0.5:all:2:{v}"),
            ] {
                case(&["coreness", web_tiny, "--byzantine", &spec]);
            }
            for command in ["orientation", "densest"] {
                case(&[command, web_tiny, "--epsilon", v]);
            }
        }
        // Inverted, empty, starting at round 0, and crossing MAX_ROUNDS.
        for window in ["9:3", "", "0:0", "65000:70000"] {
            case(&["coreness", web_tiny, "--burst", window]);
            for flag in ["--crash", "--partition"] {
                case(&["coreness", web_tiny, flag, &format!("0.5:{window}")]);
            }
            let byzantine = format!("0.5:all:{window}");
            case(&[
                "coreness",
                web_tiny,
                "--byzantine",
                &byzantine,
                "--quarantine",
                "1",
            ]);
        }
        for path in [in_dir(""), in_dir("missing/out")] {
            for flag in ["--json", "--checkpoint", "--resume"] {
                case(&["coreness", web_tiny, flag, &path]);
            }
            case(&["stats", &path]);
            case(&["stats", &path, "--stream"]);
            case(&["orientation", &path]);
            case(&["densest", &path]);
            case(&["convert", web_tiny, &path]);
            case(&["convert", &path, &converted]);
        }
        for args in &cases {
            let result = std::panic::catch_unwind(|| run(args));
            assert!(result.is_ok(), "dkc {args:?} panicked");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generate_stats_coreness_roundtrip() {
        let dir = std::env::temp_dir().join(format!("dkc_cli_lib_test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.edges");
        let path_str = path.to_string_lossy().to_string();
        let out = run(&s(&[
            "generate", "ba", "--nodes", "200", "--attach", "3", "--seed", "7", "--out", &path_str,
        ]))
        .unwrap();
        assert!(out.contains("200 nodes"));

        let stats = run(&s(&["stats", &path_str])).unwrap();
        assert!(stats.contains("nodes: 200"));

        let core = run(&s(&[
            "coreness",
            &path_str,
            "--epsilon",
            "0.5",
            "--exact",
            "--top",
            "3",
        ]))
        .unwrap();
        assert!(core.contains("max ratio"));

        let orient = run(&s(&[
            "orientation",
            &path_str,
            "--epsilon",
            "0.5",
            "--compare",
        ]))
        .unwrap();
        assert!(orient.contains("max in-degree"));

        let densest = run(&s(&["densest", &path_str, "--epsilon", "0.5", "--exact"])).unwrap();
        assert!(densest.contains("best cluster density"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
