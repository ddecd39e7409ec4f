//! `Network::run_with_checkpoints` writes its images through a pipeline: the
//! round thread only encodes each one, and two threads of the run write it
//! to a temp slot and commit it (fsync, rename, directory fsync) while the
//! next rounds run. These tests hold that the pipeline changes no byte of an
//! image, leaves no temp file behind, not even one a killed run left, and
//! ends in a typed error, never a hang or a panic.
//!
//! That a checkpoint an earlier build wrote still resumes to that build's
//! output is `crates/cli/tests/resume_parent_checkpoint.rs`; here the same
//! committed image is checked to be the container `encode_checkpoint`
//! writes around its sections.

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Duration;

use dkc_distsim::checkpoint::{
    decode_checkpoint, encode_checkpoint, read_checkpoint_bytes, remove_temp_slots,
    CheckpointError, SnapshotState, WRITE_BUFFER_BYTES,
};
use dkc_distsim::wire::{WireCodec, WireReader, WireWriter};
use dkc_distsim::{
    Delivery, FaultPlan, LossModel, Network, NetworkBuilder, NodeContext, NodeProgram, Outgoing,
};
use dkc_graph::generators::grid_graph;

/// `u32`s of history each node keeps, so that a small grid's image spans
/// several write buffers.
const HISTORY: usize = 128;

/// Floods the smallest node id, and records the id it held after each
/// round in a ring of [`HISTORY`] entries, which its checkpoint payload
/// carries.
struct LoggedFlood {
    best: u32,
    history: Vec<u32>,
}

impl NodeProgram for LoggedFlood {
    type Message = u32;

    const DELTA_DRIVEN: bool = true;

    fn broadcast(&mut self, _ctx: &NodeContext<'_>) -> Outgoing<u32> {
        Outgoing::Broadcast(self.best)
    }

    fn receive(&mut self, ctx: &NodeContext<'_>, inbox: &[Delivery<u32>]) -> bool {
        let before = self.best;
        for d in inbox {
            self.best = self.best.min(d.msg);
        }
        self.history[ctx.round() % HISTORY] = self.best;
        self.best != before
    }
}

impl SnapshotState for LoggedFlood {
    fn save_state(&self, w: &mut WireWriter) {
        self.best.encode(w);
        w.write_u32s(&self.history);
    }

    fn load_state(&mut self, r: &mut WireReader<'_>) -> Result<(), CheckpointError> {
        self.best = r.read_u32()?;
        r.read_u32s_into(&mut self.history)?;
        Ok(())
    }
}

/// An 80×80 grid under message loss: about 3.3 MB of state, more than three
/// write buffers.
fn logged_network() -> Network<LoggedFlood> {
    NetworkBuilder::new()
        .faults(FaultPlan::from_loss(LossModel::new(0.1, 3)))
        .build(&grid_graph(80, 80), |ctx| LoggedFlood {
            best: ctx.node().0,
            history: vec![u32::MAX; HISTORY],
        })
}

/// An empty scratch directory of this test process.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dkc-pipeline-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The files in `dir`.
fn listing(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    files
}

/// Runs `f` on a thread of its own and returns what it returns, failing if
/// it panics or takes more than a minute.
fn returns_in_time<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(out) => out,
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("no return within a minute"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("panicked"),
    }
}

/// With a checkpoint every round, the image at each boundary is
/// `encode_checkpoint(preamble, &save_state())` of the state at that round,
/// whether a call writes one image or several, and once a call returns
/// `Ok` no temp sibling is left beside the checkpoint.
#[test]
fn every_boundary_writes_the_image_of_its_state() {
    let dir = scratch_dir("boundaries");
    let path = dir.join("run.dkck");
    let preamble = b"run-params";
    let mut net = logged_network();
    assert!(net.save_state().unwrap().len() > 3 * WRITE_BUFFER_BYTES);
    let image =
        |net: &Network<LoggedFlood>| encode_checkpoint(preamble, &net.save_state().unwrap());
    for round in 1..=4 {
        net.run_with_checkpoints(1, 1, &path, preamble).unwrap();
        assert_eq!(
            read_checkpoint_bytes(&path).unwrap(),
            image(&net),
            "round {round}"
        );
        assert_eq!(listing(&dir), std::slice::from_ref(&path), "round {round}");
    }
    net.run_with_checkpoints(5, 1, &path, preamble).unwrap();
    assert_eq!(net.round(), 9);
    assert_eq!(read_checkpoint_bytes(&path).unwrap(), image(&net));
    assert_eq!(listing(&dir), std::slice::from_ref(&path));
    // A restore of the last image carries on from round 9.
    let mut resumed = logged_network();
    let on_disk = read_checkpoint_bytes(&path).unwrap();
    resumed
        .restore_state(decode_checkpoint(&on_disk).unwrap().1)
        .unwrap();
    assert_eq!(resumed.round(), 9);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A killed run can leave either temp slot beside the checkpoint. A
/// one-image pipeline writes through slot 0 only, and once it returns `Ok`
/// neither slot is left. A slot that cannot be removed, here a directory,
/// is an I/O error naming it.
#[test]
fn stale_temp_slots_are_gone_after_a_pipeline() {
    let dir = scratch_dir("stale");
    let path = dir.join("run.dkck");
    let slots = ["run.dkck.tmp", "run.dkck.tmp1"].map(|slot| dir.join(slot));
    for slot in &slots {
        std::fs::write(slot, b"stale").unwrap();
    }
    logged_network().write_checkpoint(&path, b"p").unwrap();
    assert_eq!(listing(&dir), std::slice::from_ref(&path));

    std::fs::create_dir(&slots[1]).unwrap();
    let err = remove_temp_slots(&path).unwrap_err();
    let CheckpointError::Io(msg) = &err else {
        panic!("not an I/O error: {err:?}");
    };
    assert!(msg.contains(&slots[1].display().to_string()), "{msg}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint path in a directory that does not exist is an I/O error
/// naming the path, from a run of several boundaries and from a single
/// write alike.
#[test]
fn a_missing_directory_is_an_io_error_naming_the_path() {
    let path = std::env::temp_dir()
        .join(format!("dkc-pipeline-missing-{}", std::process::id()))
        .join("run.dkck");
    let shown = path.display().to_string();
    let (run, write) = returns_in_time(move || {
        let mut net = logged_network();
        let run = net.run_with_checkpoints(4, 1, &path, b"p");
        (run, net.write_checkpoint(&path, b"p"))
    });
    for err in [run.unwrap_err(), write.unwrap_err()] {
        let CheckpointError::Io(msg) = &err else {
            panic!("not an I/O error: {err:?}");
        };
        assert!(msg.contains(&shown), "{msg}");
    }
}

/// The committed image an earlier build wrote is the container
/// `encode_checkpoint` builds around its two sections, byte for byte.
#[test]
fn the_committed_checkpoint_is_the_encoded_container() {
    let fixture: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "../../bench/fixtures/web-tiny.r8.dkck",
    ]
    .iter()
    .collect();
    let bytes = read_checkpoint_bytes(&fixture).unwrap();
    let (preamble, state) = decode_checkpoint(&bytes).unwrap();
    assert_eq!(encode_checkpoint(preamble, state), bytes);
}
