//! `dkc` stops quietly when its reader closes the pipe early, as
//! `dkc generate … | head -1` does, instead of panicking on the write.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn a_reader_that_stops_early_is_not_a_failure() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dkc"))
        .args(["generate", "ba", "--nodes", "100000", "--attach", "3"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dkc");
    // The edge list is megabytes, far more than the pipe holds, so `dkc` is
    // still writing when the reader goes away.
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read the first line");
    assert!(first.starts_with("generated ba: 100000 nodes"), "{first:?}");
    let out = child.wait_with_output().expect("wait for dkc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{}: {stderr}", out.status);
}
