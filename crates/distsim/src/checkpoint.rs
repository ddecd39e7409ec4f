//! Checkpoint/restore for long runs: a versioned little-endian snapshot
//! format in the `.dkcb` family.
//!
//! The paper's convergence guarantees only matter if a run can actually
//! finish: production-scale graphs mean multi-hour executions that must
//! survive the process dying. This module provides the on-disk container and
//! the state-snapshot plumbing; [`crate::Network`] implements the actual
//! save/restore of executor state (round counter, sparse frontier, metrics,
//! per-node program state, decode-fault attribution), and embedders prepend
//! an opaque *preamble* describing the run configuration (graph identity,
//! round target, protocol parameters) so a checkpoint can only ever be
//! resumed into the run that wrote it.
//!
//! File layout (all integers little-endian, following the `.dkcb` magic +
//! version conventions of `dkc_graph::ingest`):
//!
//! ```text
//! magic    4 bytes   b"DKCK"
//! version  u32       CHECKPOINT_VERSION (5)
//! p_len    u64       preamble byte length
//! preamble p_len bytes (embedder-defined, e.g. dkc_core run parameters)
//! s_len    u64       state byte length
//! state    s_len bytes (the Network::save_state layout):
//!   nodes u64, arcs u64, fault plan, sparse flag u8   (read by state_is_sparse)
//!   round u64, frontier (u32 count + u32s), decode faults (u32 count + u32s),
//!   elapsed ns u64, round history (u32 count + RoundStats of 17 u64 each)
//!   one SnapshotState payload per node, in node order
//! ```
//!
//! For compact elimination (`dkc_core::compact::CompactNode`) a node's
//! payload is `deg`, `last_update_round` and the cut `deg − |N_v|` as
//! varints, `b` and each of the `values` as a one-byte code (0–253 is that
//! integer, 254 is +∞, 255 is followed by the raw `f64`), and the `order`
//! at the narrowest of `u8`, `u16` and `u32` that holds `deg − 1`:
//!
//! ```text
//! deg      varint
//! b        code [f64 if the code is 255]
//! last     varint    round of the last update (0 = never)
//! cut      varint    N_v = order[cut..]
//! values   deg codes, each [f64 if 255]
//! order    deg entries of 1 B (deg ≤ 256), 2 B (deg ≤ 65,536) or 4 B
//! ```
//!
//! Under Λ = ℝ with integer weights every value is an integer or +∞, so a
//! node whose degree and last update round are below 128 and whose values
//! are below 254 is 4 B plus 2 B per arc.
//!
//! Version history (a checkpoint is a short-lived artifact of one binary, not
//! an archival format, so only [`CHECKPOINT_VERSION`] is read):
//! - v2: the fault plan gained a byzantine component and `RoundStats` the
//!   byzantine drop/accusation/quarantine counters.
//! - v3: `RoundStats` gained the sharded-execution
//!   `boundary_bits`/`boundary_nodes` counters.
//! - v4: section lengths are u64, and the compact-elimination payload drops
//!   the `inv` slab, which resume rebuilds from `order`, and the per-arc
//!   `N_v` membership stamps, which the cut replaces (16 B per node plus
//!   20 B per arc before).
//! - v5: the compact-elimination payload stores its counts as varints, its
//!   values as one-byte codes and its order at the degree's width (v4:
//!   `u32` counts, `f64` values and `u32` positions, 20 B per node plus
//!   12 B per arc). The 500×500 grid's image fell from 17.0 to 3.0 MB.
//!
//! The reader is defensive in the `wire.rs` style: truncated files, trailing
//! garbage, a wrong magic, or an unknown version are each a distinct
//! [`CheckpointError`] — never a panic, and never a partially-applied
//! restore into a network that then runs.
//!
//! Writes **stream**, are **atomic**, and are **pipelined** behind the
//! rounds. [`crate::Network::run_with_checkpoints`] runs inside one pipeline
//! of two threads:
//! - The round thread only encodes. At a boundary it takes image k−1's
//!   write result and waits until image k−2 has been renamed, which frees
//!   its temp slot. Then it encodes image k into [`WRITE_BUFFER_BYTES`]
//!   buffers, two of which circulate between it and the writer, and goes
//!   back to the rounds.
//! - The writer streams each image into one of two temp siblings
//!   (`<path>.tmp` and `<path>.tmp1`, in turn) and patches the state length
//!   in place.
//! - The syncer, strictly in image order, fsyncs the file, renames it over
//!   the target and fsyncs the directory.
//!
//! A process killed mid-run (the exact scenario checkpoints exist for)
//! therefore leaves at the checkpoint path an image up to two boundaries
//! old, or none, but never a truncated one, and an OS crash after a
//! reported rename cannot undo it. It can also leave a temp slot beside
//! the image, which the next pipeline to return `Ok`, or a resume, removes
//! ([`remove_temp_slots`]). The run returns once its last image is
//! committed: `Ok` means that image is durable, and an error is the first
//! in image order. [`crate::Network::write_checkpoint`] is the same
//! pipeline for one image, and [`write_checkpoint_atomic`] commits an
//! in-memory image the same way.

use std::fmt;
use std::fs;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::thread;

use crate::faults::{BurstLoss, ByzantineModel, CrashModel, FaultPlan, LossModel, PartitionModel};
use crate::metrics::RoundStats;
use crate::network::MAX_ROUNDS;
use crate::wire::{WireCodec, WireError, WireReader, WireSink, WireWriter};

/// Magic bytes identifying a checkpoint file (sibling of the graph loader's
/// `b"DKCB"`).
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"DKCK";

/// Current checkpoint format version. Bump on any layout change; old
/// versions are rejected (see the version history in the module doc).
pub const CHECKPOINT_VERSION: u32 = 5;

/// Size of each buffer a checkpoint image is encoded into: the state is
/// handed to the writer thread once a buffer holds this many bytes, checked
/// between nodes. The executor head (frontier, round history) or a single
/// node payload larger than this grows the buffer to fit.
pub const WRITE_BUFFER_BYTES: usize = 1 << 20;

/// Why a checkpoint could not be written, read, or applied.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckpointError {
    /// Filesystem failure (message includes the path and OS error).
    Io(String),
    /// The file does not start with [`CHECKPOINT_MAGIC`].
    BadMagic,
    /// The file's version is not [`CHECKPOINT_VERSION`].
    BadVersion { found: u32, expected: u32 },
    /// The file ended before a declared section did.
    Truncated,
    /// Bytes remained after the final section decoded cleanly.
    TrailingBytes { remaining: usize },
    /// A section's payload failed to decode.
    Corrupt(WireError),
    /// The checkpoint decoded cleanly but does not belong to the run being
    /// resumed (different graph, fault plan, mode family, ...).
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "checkpoint I/O error: {msg}"),
            CheckpointError::BadMagic => {
                write!(f, "bad magic (not a .dkck checkpoint file)")
            }
            CheckpointError::BadVersion { found, expected } => {
                write!(
                    f,
                    "unsupported checkpoint version {found} (expected {expected})"
                )
            }
            CheckpointError::Truncated => write!(f, "checkpoint file truncated"),
            CheckpointError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after checkpoint payload")
            }
            CheckpointError::Corrupt(e) => write!(f, "corrupt checkpoint payload: {e}"),
            CheckpointError::Mismatch(msg) => {
                write!(f, "checkpoint does not match this run: {msg}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<WireError> for CheckpointError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated => CheckpointError::Truncated,
            other => CheckpointError::Corrupt(other),
        }
    }
}

/// Per-node protocol state that can round-trip through a checkpoint.
///
/// `save_state` writes the node's live state into the checkpoint buffer,
/// through its fields' [`WireCodec::encode`] and the writer's slab writes;
/// like every encoder it cannot fail. `load_state` reads the same bytes back
/// into a freshly constructed program (the embedder rebuilds the
/// arena/topology first, then restores values into it). Implementations
/// must write and read *exactly* the same byte count — the container
/// detects any disagreement as trailing bytes or truncation across the
/// whole state section.
pub trait SnapshotState {
    /// Appends this node's state to the checkpoint payload.
    fn save_state(&self, w: &mut WireWriter);
    /// Restores this node's state from the checkpoint payload.
    fn load_state(&mut self, r: &mut WireReader<'_>) -> Result<(), CheckpointError>;
}

// ---------------------------------------------------------------------------
// Container encode/decode.
// ---------------------------------------------------------------------------

fn io_error(what: &str, path: &Path, e: std::io::Error) -> CheckpointError {
    CheckpointError::Io(format!("{what} {}: {e}", path.display()))
}

/// Bytes of an image that are not section payload: magic, version and the
/// two `u64` section lengths.
const HEAD_BYTES: usize = 24;

/// Writes an image's head: magic, version, the preamble section, then
/// `state_len` as the state section's length, whose offset in the image it
/// returns.
fn put_head(w: &mut WireWriter, preamble: &[u8], state_len: u64) -> u64 {
    w.put(&CHECKPOINT_MAGIC);
    CHECKPOINT_VERSION.encode(w);
    (preamble.len() as u64).encode(w);
    w.put(preamble);
    let len_at = w.len() as u64;
    state_len.encode(w);
    len_at
}

/// Assembles a complete checkpoint file image from the embedder preamble and
/// an executor state payload, with the head
/// [`crate::Network::write_checkpoint`] streams ahead of the state.
pub fn encode_checkpoint(preamble: &[u8], state: &[u8]) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(HEAD_BYTES + preamble.len() + state.len());
    put_head(&mut w, preamble, state.len() as u64);
    w.put(state);
    w.into_bytes()
}

fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], CheckpointError> {
    if bytes.len() - *pos < n {
        return Err(CheckpointError::Truncated);
    }
    let out = &bytes[*pos..*pos + n];
    *pos += n;
    Ok(out)
}

fn take_array<const N: usize>(bytes: &[u8], pos: &mut usize) -> Result<[u8; N], CheckpointError> {
    let mut out = [0u8; N];
    out.copy_from_slice(take(bytes, pos, N)?);
    Ok(out)
}

fn take_section<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<&'a [u8], CheckpointError> {
    let len = u64::from_le_bytes(take_array(bytes, pos)?);
    // A declared length past the bytes left is truncation, whatever its size.
    let len = usize::try_from(len).map_err(|_| CheckpointError::Truncated)?;
    take(bytes, pos, len)
}

/// Splits a checkpoint file image into its `(preamble, state)` sections,
/// rejecting bad magic, unknown versions, truncation, and trailing garbage.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<(&[u8], &[u8]), CheckpointError> {
    let mut pos = 0usize;
    if take(bytes, &mut pos, 4)? != CHECKPOINT_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = u32::from_le_bytes(take_array(bytes, &mut pos)?);
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::BadVersion {
            found: version,
            expected: CHECKPOINT_VERSION,
        });
    }
    let preamble = take_section(bytes, &mut pos)?;
    let state = take_section(bytes, &mut pos)?;
    if pos != bytes.len() {
        return Err(CheckpointError::TrailingBytes {
            remaining: bytes.len() - pos,
        });
    }
    Ok((preamble, state))
}

// ---------------------------------------------------------------------------
// Writes: the state encoder, the commit, and the pipeline.
// ---------------------------------------------------------------------------

/// The state section of a checkpoint being encoded: a [`WireWriter`]
/// buffer that the state's encoder fills. In a [`Pipeline`],
/// [`StateWriter::flush_if_full`] hands the buffer to the writer thread once
/// it holds [`WRITE_BUFFER_BYTES`] and goes on in an empty one; in memory
/// ([`encode_state`]) it keeps every byte.
pub(crate) struct StateWriter<'a> {
    wire: WireWriter,
    /// The writer thread's feed, or `None` to keep every byte in `wire`.
    feed: Option<&'a mut Feed>,
    /// Bytes handed to the feed so far.
    flushed: u64,
}

impl StateWriter<'_> {
    /// The buffer the next bytes go into.
    pub fn wire(&mut self) -> &mut WireWriter {
        &mut self.wire
    }

    /// Hands the buffered bytes to the writer thread once they fill the
    /// buffer.
    pub fn flush_if_full(&mut self) -> Result<(), CheckpointError> {
        if let Some(feed) = &mut self.feed {
            if self.wire.len() >= WRITE_BUFFER_BYTES {
                let full = self.wire.replace_buffer(feed.buffer()?);
                self.flushed += full.len() as u64;
                feed.send(Chunk::Bytes(full))?;
            }
        }
        Ok(())
    }

    /// Bytes written so far, buffered or not.
    fn position(&self) -> u64 {
        self.flushed + self.wire.len() as u64
    }
}

/// Encodes an executor state section in memory: `state` runs over a buffer
/// that keeps every byte, the bytes a [`Pipeline`] streams.
pub(crate) fn encode_state(
    state: impl FnOnce(&mut StateWriter<'_>) -> Result<(), CheckpointError>,
) -> Result<Vec<u8>, CheckpointError> {
    let mut s = StateWriter {
        wire: WireWriter::with_capacity(WRITE_BUFFER_BYTES),
        feed: None,
        flushed: 0,
    };
    state(&mut s)?;
    Ok(s.wire.into_bytes())
}

/// The temp sibling an image is staged in before its rename: `<path>.tmp`
/// for slot 0 and `<path>.tmp1` for slot 1.
fn temp_slot(path: &Path, slot: usize) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    if slot > 0 {
        tmp.push(slot.to_string());
    }
    PathBuf::from(tmp)
}

/// Removes both temp slots of `path`, which a killed run can leave behind
/// beside the checkpoint. A slot that does not exist is fine; any other
/// failure is an I/O error naming the slot. A pipeline that returns `Ok`
/// ends here, and so does a resumed run.
pub fn remove_temp_slots(path: &Path) -> Result<(), CheckpointError> {
    for slot in 0..TEMP_SLOTS {
        let tmp = temp_slot(path, slot);
        match fs::remove_file(&tmp) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(io_error("remove", &tmp, e));
            }
            _ => {}
        }
    }
    Ok(())
}

/// Makes the image staged in `tmp` the checkpoint at `path`: fsyncs the
/// file, renames it over `path`, then fsyncs the directory so the rename is
/// durable too. A SIGKILL before the rename leaves the previous checkpoint
/// or none, never a truncated one. The pipeline's syncer and
/// [`write_checkpoint_atomic`] both end here.
fn commit(file: fs::File, tmp: &Path, path: &Path) -> Result<(), CheckpointError> {
    file.sync_all().map_err(|e| io_error("sync", tmp, e))?;
    drop(file);
    fs::rename(tmp, path).map_err(|e| io_error("rename into", path, e))?;
    sync_parent_dir(path)
}

/// Fsyncs the directory holding `path`, so a rename into it survives an OS
/// crash. Directories cannot be opened as files on every platform, so this
/// is a no-op off Unix.
fn sync_parent_dir(path: &Path) -> Result<(), CheckpointError> {
    if cfg!(unix) {
        let dir = match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        fs::File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| io_error("sync directory", dir, e))?;
    }
    Ok(())
}

/// Atomically writes a checkpoint image that is already in memory: into the
/// `.tmp` sibling, then fsynced, renamed and its directory fsynced by the
/// commit that ends every pipelined image.
pub fn write_checkpoint_atomic(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let tmp = temp_slot(path, 0);
    let mut file = fs::File::create(&tmp).map_err(|e| io_error("create", &tmp, e))?;
    file.write_all(bytes)
        .map_err(|e| io_error("write", &tmp, e))?;
    commit(file, &tmp, path)
}

/// How many [`WRITE_BUFFER_BYTES`] buffers an image's encode circulates:
/// the round thread fills one while the writer thread writes the other.
const WRITE_BUFFERS: usize = 2;

/// How many temp files images are staged in: image k goes to slot k mod 2,
/// so the writer fills one while the syncer commits the image before.
const TEMP_SLOTS: usize = 2;

/// What the round thread sends the writer thread.
enum Chunk {
    /// The current image's next bytes.
    Bytes(Vec<u8>),
    /// The current image is complete; its state length goes at `len_at`.
    End { len_at: u64, state_len: u64 },
}

/// The round thread's end of the writer thread: full buffers go out over a
/// channel of [`WRITE_BUFFERS`], and written ones come back to be refilled.
struct Feed {
    chunks: SyncSender<Chunk>,
    spent: Receiver<Vec<u8>>,
    /// Buffers allocated so far.
    buffers: usize,
    /// The checkpoint path, for errors.
    path: PathBuf,
}

impl Feed {
    /// An empty buffer: a new one while fewer than [`WRITE_BUFFERS`] exist,
    /// else the next one the writer has written out.
    fn buffer(&mut self) -> Result<Vec<u8>, CheckpointError> {
        if self.buffers < WRITE_BUFFERS {
            self.buffers += 1;
            return Ok(Vec::with_capacity(WRITE_BUFFER_BYTES));
        }
        self.spent.recv().map_err(|_| stopped(&self.path))
    }

    fn send(&self, chunk: Chunk) -> Result<(), CheckpointError> {
        self.chunks.send(chunk).map_err(|_| stopped(&self.path))
    }
}

/// The error for a pipeline thread that went away before the run ended.
fn stopped(path: &Path) -> CheckpointError {
    CheckpointError::Io(format!(
        "write {}: the checkpoint writer stopped",
        path.display()
    ))
}

/// One result per image, from a pipeline thread.
type Results = Receiver<Result<(), CheckpointError>>;

/// The round thread's handle on a checkpoint pipeline (see
/// [`with_pipeline`]).
pub(crate) struct Pipeline<'p> {
    preamble: &'p [u8],
    feed: Feed,
    /// Each image's write result, from the writer.
    write_results: Results,
    /// Each written image's commit result, in image order, from the syncer.
    commit_results: Results,
    /// Whether the last image sent to the writer has a write result to take.
    writing: bool,
    /// Images written without error, so handed to the syncer.
    staged: usize,
    /// Images whose commit result has been taken.
    committed: usize,
}

impl Pipeline<'_> {
    /// Writes the next image, whose state section `state` encodes. It takes
    /// the previous image's write result, which also means the writer holds
    /// none of its buffers, and waits until the image before that is
    /// committed, which frees its temp slot for this one. Then it encodes
    /// the image into the writer's buffers and returns, while the write, the
    /// fsync and the rename go on. An error is the first in image order
    /// among the earlier images.
    pub fn write(
        &mut self,
        state: impl FnOnce(&mut StateWriter<'_>) -> Result<(), CheckpointError>,
    ) -> Result<(), CheckpointError> {
        self.settle(TEMP_SLOTS - 1)?;
        let mut wire = WireWriter::from_buffer(self.feed.buffer()?);
        let len_at = put_head(&mut wire, self.preamble, 0);
        let mut s = StateWriter {
            wire,
            feed: Some(&mut self.feed),
            flushed: 0,
        };
        let state_from = s.position();
        state(&mut s)?;
        let state_len = s.position() - state_from;
        let last = s.wire.into_bytes();
        self.feed.send(Chunk::Bytes(last))?;
        self.feed.send(Chunk::End { len_at, state_len })?;
        self.writing = true;
        Ok(())
    }

    /// Takes the last image's write result if it is still to be taken, then
    /// waits until at most `in_flight` written images await their commit.
    /// Commit results come in image order and a failed write never reaches
    /// the syncer, so every commit waited for is of an earlier image than a
    /// failed write: the error returned is the first in image order.
    fn settle(&mut self, in_flight: usize) -> Result<(), CheckpointError> {
        let mut written = Ok(());
        let mut keep = 0;
        if std::mem::take(&mut self.writing) {
            written = take_result(&self.write_results, &self.feed.path);
            if written.is_ok() {
                self.staged += 1;
                keep = in_flight;
            }
        }
        while self.committed + keep < self.staged {
            self.committed += 1;
            take_result(&self.commit_results, &self.feed.path)?;
        }
        written
    }
}

fn take_result(results: &Results, path: &Path) -> Result<(), CheckpointError> {
    results.recv().map_err(|_| stopped(path))?
}

/// Runs `run` with a checkpoint pipeline into `path` whose images carry
/// `preamble`, and returns once every image it wrote is committed, so `Ok`
/// means the last one is durable at `path`, and that neither temp slot is
/// left beside it, not even one a killed earlier run left (see
/// [`remove_temp_slots`]). The first error in image order wins, and no
/// error leaves a thread behind.
///
/// The pipeline is two threads for the whole run. The writer streams each
/// image's buffers into temp slot k mod 2, patches its state length and
/// hands the file on; the syncer commits the images strictly in order
/// (fsync, rename over `path`, directory fsync). The round thread only
/// encodes (see [`Pipeline::write`]), so a kill leaves at `path` an image
/// up to two boundaries old, or none, but never a truncated one.
pub(crate) fn with_pipeline<R>(
    path: &Path,
    preamble: &[u8],
    run: impl FnOnce(&mut Pipeline<'_>) -> Result<R, CheckpointError>,
) -> Result<R, CheckpointError> {
    thread::scope(|scope| {
        let (chunks, chunks_rx) = mpsc::sync_channel(WRITE_BUFFERS);
        let (spent_tx, spent) = mpsc::channel();
        let (written_tx, write_results) = mpsc::channel();
        let (staged_tx, staged) = mpsc::channel();
        let (committed_tx, commit_results) = mpsc::channel();
        spawn(scope, "dkc-checkpoint-writer", path, move || {
            write_images(path, chunks_rx, spent_tx, written_tx, staged_tx)
        })?;
        spawn(scope, "dkc-checkpoint-syncer", path, move || {
            for (tmp, file) in staged {
                // Nothing waits for a result once the round thread stopped.
                let _ = committed_tx.send(commit(file, &tmp, path));
            }
        })?;
        let mut pipeline = Pipeline {
            preamble,
            feed: Feed {
                chunks,
                spent,
                buffers: 0,
                path: path.to_path_buf(),
            },
            write_results,
            commit_results,
            writing: false,
            staged: 0,
            committed: 0,
        };
        // The pipeline drops here, on success, error or panic alike: that
        // closes the channels and ends both threads' loops, so the scope's
        // join never waits on a thread that waits on this one.
        run(&mut pipeline).and_then(|r| pipeline.settle(0).map(|()| r))
    })
    .and_then(|r| remove_temp_slots(path).map(|()| r))
}

fn spawn<'scope>(
    scope: &'scope thread::Scope<'scope, '_>,
    name: &str,
    path: &Path,
    f: impl FnOnce() + Send + 'scope,
) -> Result<(), CheckpointError> {
    thread::Builder::new()
        .name(name.to_string())
        .spawn_scoped(scope, f)
        .map(drop)
        .map_err(|e| io_error("start a thread to write", path, e))
}

/// An image's temp file while the writer fills it.
type Slot = Result<(PathBuf, fs::File), CheckpointError>;

/// The writer thread: streams each image's buffers into its temp slot,
/// sending every buffer back once written, patches the state length, and
/// hands the file to the syncer. A failed image is reported, never
/// committed, and the next one starts afresh.
fn write_images(
    path: &Path,
    chunks: Receiver<Chunk>,
    spent: Sender<Vec<u8>>,
    written: Sender<Result<(), CheckpointError>>,
    staged: Sender<(PathBuf, fs::File)>,
) {
    let mut image = 0;
    let mut slot: Option<Slot> = None;
    for chunk in chunks {
        let open = slot.take().unwrap_or_else(|| {
            let tmp = temp_slot(path, image % TEMP_SLOTS);
            match fs::File::create(&tmp) {
                Ok(file) => Ok((tmp, file)),
                Err(e) => Err(io_error("create", &tmp, e)),
            }
        });
        match chunk {
            Chunk::Bytes(mut bytes) => {
                slot = Some(
                    open.and_then(|(tmp, mut file)| match file.write_all(&bytes) {
                        Ok(()) => Ok((tmp, file)),
                        Err(e) => Err(io_error("write", &tmp, e)),
                    }),
                );
                // A buffer that an outsized head or node grew goes back to
                // the common size, so the pipeline keeps no more than
                // `WRITE_BUFFERS` of them between images.
                bytes.clear();
                bytes.shrink_to(WRITE_BUFFER_BYTES);
                // Nothing waits for the buffer once the round thread stopped.
                let _ = spent.send(bytes);
            }
            Chunk::End { len_at, state_len } => {
                let done = open.and_then(|(tmp, mut file)| {
                    file.seek(SeekFrom::Start(len_at))
                        .and_then(|_| file.write_all(&state_len.to_le_bytes()))
                        .map_err(|e| io_error("write", &tmp, e))?;
                    staged.send((tmp, file)).map_err(|_| stopped(path))
                });
                let _ = written.send(done);
                image += 1;
            }
        }
    }
}

/// Reads a checkpoint file image from disk.
pub fn read_checkpoint_bytes(path: &Path) -> Result<Vec<u8>, CheckpointError> {
    fs::read(path).map_err(|e| io_error("read", path, e))
}

/// Whether an executor state section was saved under a sparse execution
/// mode. [`crate::Network::restore_state`] accepts it only into a network of
/// the same activation, so a resume builds its network to match. Reads the
/// head of the [`crate::Network::save_state`] layout: node and arc counts,
/// the fault plan, then the flag.
pub fn state_is_sparse(state: &[u8]) -> Result<bool, CheckpointError> {
    let mut r = WireReader::new(state);
    r.read_u64()?;
    r.read_u64()?;
    FaultPlan::decode(&mut r)?;
    Ok(r.read_bool()?)
}

// ---------------------------------------------------------------------------
// Wire codecs for the simulator state the checkpoint carries.
// ---------------------------------------------------------------------------
//
// The fault components are pure functions of their parameters (splitmix64
// hashing of round/link/node — there are no RNG cursors to persist), so
// encoding the parameters plus the round counter captures the *entire*
// fault state of a run. Restore validates the stored plan against the plan
// installed in the rebuilt network, catching resumes under the wrong flags.

impl WireCodec for LossModel {
    fn encode<S: WireSink>(&self, s: &mut S) {
        self.probability.encode(s);
        self.seed.encode(s);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(LossModel {
            probability: r.read_f64()?,
            seed: r.read_u64()?,
        })
    }
}

impl WireCodec for BurstLoss {
    fn encode<S: WireSink>(&self, s: &mut S) {
        self.period.encode(s);
        self.burst_len.encode(s);
        self.seed.encode(s);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(BurstLoss {
            period: usize::decode(r)?,
            burst_len: usize::decode(r)?,
            seed: r.read_u64()?,
        })
    }
}

impl WireCodec for CrashModel {
    fn encode<S: WireSink>(&self, s: &mut S) {
        self.probability.encode(s);
        self.first_round.encode(s);
        self.last_round.encode(s);
        self.seed.encode(s);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(CrashModel {
            probability: r.read_f64()?,
            first_round: usize::decode(r)?,
            last_round: usize::decode(r)?,
            seed: r.read_u64()?,
        })
    }
}

impl WireCodec for PartitionModel {
    fn encode<S: WireSink>(&self, s: &mut S) {
        self.fraction.encode(s);
        self.first_round.encode(s);
        self.last_round.encode(s);
        self.seed.encode(s);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(PartitionModel {
            fraction: r.read_f64()?,
            first_round: usize::decode(r)?,
            last_round: usize::decode(r)?,
            seed: r.read_u64()?,
        })
    }
}

impl WireCodec for ByzantineModel {
    fn encode<S: WireSink>(&self, s: &mut S) {
        self.fraction.encode(s);
        self.behaviors.encode(s);
        self.first_round.encode(s);
        self.last_round.encode(s);
        self.detect.encode(s);
        self.quarantine.encode(s);
        self.seed.encode(s);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ByzantineModel {
            fraction: r.read_f64()?,
            behaviors: r.read_u8()?,
            first_round: usize::decode(r)?,
            last_round: usize::decode(r)?,
            detect: r.read_f64()?,
            quarantine: r.read_u32()?,
            seed: r.read_u64()?,
        })
    }
}

impl WireCodec for FaultPlan {
    fn encode<S: WireSink>(&self, s: &mut S) {
        self.loss.encode(s);
        self.burst.encode(s);
        self.crash.encode(s);
        self.partition.encode(s);
        self.byzantine.encode(s);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(FaultPlan {
            loss: Option::decode(r)?,
            burst: Option::decode(r)?,
            crash: Option::decode(r)?,
            partition: Option::decode(r)?,
            byzantine: Option::decode(r)?,
        })
    }
}

/// Decode-side validation of a fault plan read from disk: the model
/// constructors enforce these invariants at build time, but a corrupted
/// checkpoint bypasses the constructors: an inverted crash window would
/// underflow `crash_round`'s span arithmetic, and a window ending past
/// [`MAX_ROUNDS`] would be walked round by round for as long as it lasts.
pub fn validate_plan(plan: &FaultPlan) -> Result<(), CheckpointError> {
    let bad = |msg: &str| Err(CheckpointError::Mismatch(msg.to_string()));
    if let Some(l) = plan.loss {
        if !(0.0..=1.0).contains(&l.probability) {
            return bad("loss probability outside [0, 1]");
        }
    }
    if let Some(b) = plan.burst {
        if b.period < 1 || b.burst_len > b.period {
            return bad("burst window violates 1 <= period, len <= period");
        }
    }
    // A window `first..=last` with 1 <= first <= last <= MAX_ROUNDS.
    let window =
        |first: usize, last: usize| 1 <= first && first <= last && last as u64 <= MAX_ROUNDS;
    if let Some(c) = plan.crash {
        if !(0.0..=1.0).contains(&c.probability) || !window(c.first_round, c.last_round) {
            return bad("crash model violates p in [0, 1], 1 <= first <= last <= MAX_ROUNDS");
        }
    }
    if let Some(p) = plan.partition {
        if !(0.0..=1.0).contains(&p.fraction) || !window(p.first_round, p.last_round) {
            return bad("partition model violates f in [0, 1], 1 <= first <= last <= MAX_ROUNDS");
        }
    }
    if let Some(b) = plan.byzantine {
        if !(0.0..=1.0).contains(&b.fraction)
            || !(0.0..=1.0).contains(&b.detect)
            || b.behaviors == 0
            || b.behaviors & !ByzantineModel::ALL_BEHAVIORS != 0
            || !window(b.first_round, b.last_round)
        {
            return bad("byzantine model violates fraction/detect in [0, 1], \
                 non-empty known behaviors, 1 <= first <= last <= MAX_ROUNDS");
        }
    }
    Ok(())
}

/// `RoundStats` in checkpoints: every counter of the table as a
/// little-endian u64, in [`crate::metrics::COUNTERS`] order.
impl WireCodec for RoundStats {
    fn encode<S: WireSink>(&self, s: &mut S) {
        for v in self.values() {
            v.encode(s);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mut stats = RoundStats::default();
        for v in stats.values_mut() {
            *v = usize::decode(r)?;
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::Behavior;
    use crate::wire::{encode_payload, le_bytes, payload_len};

    /// `value` encodes to exactly `bytes`, [`payload_len`] counts them, and
    /// they decode back to `value`, every byte consumed.
    fn round_trip<T: WireCodec + PartialEq + std::fmt::Debug>(value: &T, bytes: &[u8]) {
        assert_eq!(encode_payload(value), bytes);
        assert_eq!(payload_len(value), bytes.len());
        let mut r = WireReader::new(bytes);
        let back = T::decode(&mut r).expect("decode");
        assert_eq!(r.remaining(), 0, "decode must consume every byte");
        assert_eq!(&back, value);
    }

    #[test]
    fn fault_models_round_trip() {
        let loss = le_bytes!(0.25f64, 77u64);
        round_trip(&LossModel::new(0.25, 77), &loss);
        let burst = le_bytes!(6u64, 2u64, 0xB0u64);
        round_trip(&BurstLoss::new(6, 2, 0xB0), &burst);
        let crash = le_bytes!(0.1f64, 2u64, 9u64, 0xC0u64);
        round_trip(&CrashModel::new(0.1, 2, 9, 0xC0), &crash);
        let partition = le_bytes!(0.3f64, 4u64, 8u64, 0xD0u64);
        round_trip(&PartitionModel::new(0.3, 4, 8, 0xD0), &partition);
        // fraction, behaviors, window, detect, quarantine, seed.
        let byzantine = le_bytes!(0.2f64, 0b1111u8, 2u64, 11u64, 0.75f64, 3u32, 0xE0u64);
        round_trip(
            &ByzantineModel::new(0.2, ByzantineModel::ALL_BEHAVIORS, 2, 11, 0xE0)
                .with_detect(0.75)
                .with_quarantine(3),
            &byzantine,
        );
        // One `Option` flag per part: loss, burst, crash, partition,
        // byzantine.
        round_trip(&FaultPlan::none(), &[0; 5]);
        let every_part = [
            &[1][..],
            &le_bytes!(0.5f64, 7u64),
            &[1],
            &le_bytes!(4u64, 1u64, 8u64),
            &[1],
            &le_bytes!(0.2f64, 2u64, 9u64, 3u64),
            &[1],
            &le_bytes!(0.3f64, 4u64, 7u64, 4u64),
            &[1],
            // Lie | Spam, and the default detect probability.
            &le_bytes!(0.15f64, 0b1001u8, 3u64, 8u64, 0.5f64, 2u32, 5u64),
        ]
        .concat();
        round_trip(
            &FaultPlan::from_loss(LossModel::new(0.5, 7))
                .with_burst(BurstLoss::new(4, 1, 8))
                .with_crash(CrashModel::new(0.2, 2, 9, 3))
                .with_partition(PartitionModel::new(0.3, 4, 7, 4))
                .with_byzantine(
                    ByzantineModel::new(0.15, Behavior::Lie.bit() | Behavior::Spam.bit(), 3, 8, 5)
                        .with_quarantine(2),
                ),
            &every_part,
        );
    }

    #[test]
    fn round_stats_round_trip() {
        let stats = RoundStats {
            round: 3,
            messages: 14,
            payload_bits: 896,
            wire_bits: 1024,
            max_message_bits: 128,
            sending_nodes: 5,
            changed_nodes: 4,
            node_updates: 6,
            dropped_loss: 1,
            dropped_burst: 2,
            dropped_partition: 3,
            dropped_byzantine: 4,
            crashed_nodes: 1,
            byzantine_accusations: 5,
            quarantined_nodes: 2,
            boundary_bits: 544,
            boundary_nodes: 3,
        };
        let counters = [
            3u64, 14, 896, 1024, 128, 5, 4, 6, 1, 2, 3, 4, 1, 5, 2, 544, 3,
        ];
        let bytes: Vec<u8> = counters.into_iter().flat_map(u64::to_le_bytes).collect();
        round_trip(&stats, &bytes);
        round_trip(&RoundStats::default(), &[0; 17 * 8]);
    }

    /// The checkpoint layout of `RoundStats` is pinned: 17 little-endian
    /// u64 in this field order. Reordering or growing the counter table
    /// changes it and needs a `CHECKPOINT_VERSION` bump.
    #[test]
    fn round_stats_layout_is_pinned() {
        let stats = RoundStats {
            round: 1,
            messages: 2,
            payload_bits: 3,
            wire_bits: 4,
            max_message_bits: 5,
            sending_nodes: 6,
            changed_nodes: 7,
            node_updates: 8,
            dropped_loss: 9,
            dropped_burst: 10,
            dropped_partition: 11,
            dropped_byzantine: 12,
            crashed_nodes: 13,
            byzantine_accusations: 14,
            quarantined_nodes: 15,
            boundary_bits: 16,
            boundary_nodes: 17,
        };
        let golden: Vec<u8> = (1u64..=17).flat_map(u64::to_le_bytes).collect();
        round_trip(&stats, &golden);
    }

    #[test]
    fn container_round_trips() {
        let image = encode_checkpoint(b"preamble", b"state bytes");
        let (p, s) = decode_checkpoint(&image).expect("decode");
        assert_eq!(p, b"preamble");
        assert_eq!(s, b"state bytes");
        // Empty sections are legal.
        let empty = encode_checkpoint(b"", b"");
        let (p, s) = decode_checkpoint(&empty).expect("decode");
        assert!(p.is_empty() && s.is_empty());
    }

    /// v5 container layout, as in v4: magic, u32 version, then each section
    /// behind a u64 length.
    #[test]
    fn container_layout_is_pinned() {
        let mut golden = b"DKCK".to_vec();
        golden.extend(5u32.to_le_bytes());
        golden.extend(3u64.to_le_bytes());
        golden.extend(b"pre");
        golden.extend(5u64.to_le_bytes());
        golden.extend(b"state");
        assert_eq!(encode_checkpoint(b"pre", b"state"), golden);
        // A declared length past the bytes left is truncation, however
        // large, in either section.
        for len_at in [8, 8 + 8 + 3] {
            let mut huge = golden.clone();
            huge[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            assert_eq!(decode_checkpoint(&huge), Err(CheckpointError::Truncated));
        }
    }

    /// A scratch directory of this test process, empty.
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dkc-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Image `k`'s state: seven slabs of 100,000 `u32`s, 2.8 MB, so it
    /// streams through several buffers.
    fn slabs(k: u32) -> impl Fn(&mut StateWriter<'_>) -> Result<(), CheckpointError> {
        let chunk: Vec<u32> = (0..100_000).map(|i| i ^ k).collect();
        move |s: &mut StateWriter<'_>| {
            for _ in 0..7 {
                s.flush_if_full()?;
                s.wire().write_u32s(&chunk);
            }
            Ok(())
        }
    }

    /// States larger than the write buffer stream through the pipeline, one
    /// image after another, with their lengths patched in afterwards. Each
    /// write returns only once the image two before it is committed, whose
    /// temp slot it takes, so the file is then a whole image of one of the
    /// last three. Once the pipeline returns it is the last,
    /// `encode_checkpoint`'s image of it, with both temp slots gone.
    #[test]
    fn pipelined_images_match_the_in_memory_ones() {
        let dir = scratch_dir("pipeline");
        let path = dir.join("run.dkck");
        let images: Vec<Vec<u8>> = (0..5)
            .map(|k| encode_checkpoint(b"preamble", &encode_state(slabs(k)).unwrap()))
            .collect();
        assert!(images[0].len() > 2 * WRITE_BUFFER_BYTES);
        with_pipeline(&path, b"preamble", |pipeline| {
            for k in 0..images.len() {
                pipeline.write(slabs(k as u32))?;
                assert_eq!(pipeline.committed, k.saturating_sub(1), "image {k}");
                if k >= 2 {
                    let on_disk = read_checkpoint_bytes(&path)?;
                    assert!(images[k - 2..=k].contains(&on_disk), "after image {k}");
                }
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(read_checkpoint_bytes(&path).unwrap(), images[4]);
        let left: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(left, [path]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A rename that fails (the path is a non-empty directory) fails the
    /// first image's commit; that error is the one returned, and the
    /// pipeline stops instead of waiting on images that never commit.
    #[test]
    fn the_first_failed_commit_is_returned() {
        let dir = scratch_dir("commit");
        let path = dir.join("run.dkck");
        fs::create_dir_all(path.join("occupied")).unwrap();
        for images in [1, 2, 5] {
            let err = with_pipeline(&path, b"pre", |pipeline| {
                (0..images).try_for_each(|k| pipeline.write(slabs(k)))
            })
            .unwrap_err();
            let CheckpointError::Io(msg) = &err else {
                panic!("{images} images: {err:?}");
            };
            assert!(msg.starts_with("rename into"), "{msg}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn container_rejects_the_four_corruption_classes() {
        let image = encode_checkpoint(b"pre", b"state");

        // 1. Truncation at every possible cut point.
        for cut in 0..image.len() {
            let err = decode_checkpoint(&image[..cut]).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Truncated | CheckpointError::BadMagic),
                "cut at {cut}: {err:?}"
            );
        }

        // 2. Trailing garbage.
        let mut trailing = image.clone();
        trailing.push(0xAA);
        assert_eq!(
            decode_checkpoint(&trailing),
            Err(CheckpointError::TrailingBytes { remaining: 1 })
        );

        // 3. Bad magic.
        let mut bad_magic = image.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            decode_checkpoint(&bad_magic),
            Err(CheckpointError::BadMagic)
        );
        // The graph loader's magic is not a checkpoint's.
        let mut dkcb = image.clone();
        dkcb[..4].copy_from_slice(b"DKCB");
        assert_eq!(decode_checkpoint(&dkcb), Err(CheckpointError::BadMagic));

        // 4. Wrong version.
        let mut bad_version = image;
        bad_version[4..8].copy_from_slice(&(CHECKPOINT_VERSION + 1).to_le_bytes());
        assert_eq!(
            decode_checkpoint(&bad_version),
            Err(CheckpointError::BadVersion {
                found: CHECKPOINT_VERSION + 1,
                expected: CHECKPOINT_VERSION,
            })
        );
    }

    #[test]
    fn plan_validation_rejects_constructor_bypasses() {
        assert!(validate_plan(&FaultPlan::none()).is_ok());
        let inverted_window = FaultPlan {
            crash: Some(CrashModel {
                probability: 0.5,
                first_round: 9,
                last_round: 2,
                seed: 1,
            }),
            ..FaultPlan::default()
        };
        assert!(matches!(
            validate_plan(&inverted_window),
            Err(CheckpointError::Mismatch(_))
        ));
        let bad_burst = FaultPlan {
            burst: Some(BurstLoss {
                period: 0,
                burst_len: 0,
                seed: 1,
            }),
            ..FaultPlan::default()
        };
        assert!(validate_plan(&bad_burst).is_err());
        let bad_loss = FaultPlan {
            loss: Some(LossModel {
                probability: 1.5,
                seed: 1,
            }),
            ..FaultPlan::default()
        };
        assert!(validate_plan(&bad_loss).is_err());
        let bad_partition = FaultPlan {
            partition: Some(PartitionModel {
                fraction: -0.1,
                first_round: 1,
                last_round: 2,
                seed: 1,
            }),
            ..FaultPlan::default()
        };
        assert!(validate_plan(&bad_partition).is_err());
        let bad_byzantine = FaultPlan {
            byzantine: Some(ByzantineModel {
                fraction: 0.2,
                behaviors: 0, // no behavior bits — unconstructible via new()
                first_round: 2,
                last_round: 9,
                detect: 0.5,
                quarantine: 0,
                seed: 1,
            }),
            ..FaultPlan::default()
        };
        assert!(validate_plan(&bad_byzantine).is_err());
        let inverted_byzantine = FaultPlan {
            byzantine: Some(ByzantineModel {
                fraction: 0.2,
                behaviors: ByzantineModel::ALL_BEHAVIORS,
                first_round: 9,
                last_round: 2,
                detect: 0.5,
                quarantine: 0,
                seed: 1,
            }),
            ..FaultPlan::default()
        };
        assert!(validate_plan(&inverted_byzantine).is_err());
        // Windows may end at MAX_ROUNDS, and not one round later.
        let past = MAX_ROUNDS as usize + 1;
        let crash = |last_round| CrashModel {
            last_round,
            ..CrashModel::new(0.5, 2, 3, 1)
        };
        let partition = |last_round| PartitionModel {
            last_round,
            ..PartitionModel::new(0.5, 2, 3, 1)
        };
        let byzantine = |last_round| ByzantineModel {
            last_round,
            ..ByzantineModel::new(0.5, ByzantineModel::ALL_BEHAVIORS, 2, 3, 1)
        };
        for last in [MAX_ROUNDS as usize, past, u32::MAX as usize, usize::MAX] {
            let plans = [
                FaultPlan::none().with_crash(crash(last)),
                FaultPlan::none().with_partition(partition(last)),
                FaultPlan::none().with_byzantine(byzantine(last)),
            ];
            for plan in plans {
                assert_eq!(validate_plan(&plan).is_ok(), last < past, "{plan:?}");
            }
        }
    }

    #[test]
    fn atomic_write_replaces_and_reads_back() {
        let dir = std::env::temp_dir().join(format!("dkc-ckpt-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.dkck");
        let first = encode_checkpoint(b"a", b"1");
        write_checkpoint_atomic(&path, &first).unwrap();
        assert_eq!(read_checkpoint_bytes(&path).unwrap(), first);
        let second = encode_checkpoint(b"b", b"22");
        write_checkpoint_atomic(&path, &second).unwrap();
        assert_eq!(read_checkpoint_bytes(&path).unwrap(), second);
        // No temp file is left behind.
        assert!(!temp_slot(&path, 0).exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
