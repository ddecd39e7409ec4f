//! `dkc coreness --resume` finishes a checkpoint that an earlier build of
//! `dkc` wrote, and prints what that build printed.
//!
//! `bench/fixtures/web-tiny.r8.dkck` is round 8 of a 10-round sharded
//! power-grid run under all five fault kinds, so the image holds the
//! PowerGrid preamble, a fault plan with every part, the shard topology,
//! the round history, the frontier and every node's payload. A change that
//! moves any byte of that layout fails here even when the same binary's own
//! write-and-resume still round-trips.
//!
//! Both fixtures come from one build, and a checkpoint format change (a
//! `CHECKPOINT_VERSION` bump) regenerates them with it:
//!
//! ```text
//! dkc coreness bench/fixtures/web-tiny.edges --rounds 10 --lambda 0.5 \
//!     --loss 0.05 --burst 4:1 --crash 0.1:2:9 --partition 0.3:3:6 \
//!     --byzantine 0.2:all:2:9 --quarantine 2 --fault-seed 5 \
//!     --shards 2 --shard-seed 3 \
//!     --checkpoint-every 4 --checkpoint bench/fixtures/web-tiny.r8.dkck
//! dkc coreness bench/fixtures/web-tiny.edges \
//!     --resume bench/fixtures/web-tiny.r8.dkck --top 13 \
//!     > bench/fixtures/web-tiny.resume.coreness.out
//! ```

use std::path::PathBuf;

fn fixture(name: &str) -> String {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "../../bench/fixtures", name]
        .iter()
        .collect();
    path.to_str().expect("UTF-8 path").to_string()
}

#[test]
fn a_checkpoint_written_by_an_earlier_build_resumes_to_its_output() {
    let args = [
        "coreness",
        &fixture("web-tiny.edges"),
        "--resume",
        &fixture("web-tiny.r8.dkck"),
        "--top",
        "13",
    ]
    .map(String::from);
    let out = dkc_cli::run(&args).expect("resume");
    let golden = std::fs::read_to_string(fixture("web-tiny.resume.coreness.out")).unwrap();
    assert_eq!(out, golden);
}
