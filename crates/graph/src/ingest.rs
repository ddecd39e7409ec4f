//! Streaming dataset ingestion with sparse→dense id remapping.
//!
//! Real-world edge lists (SNAP and friends) use arbitrary sparse node ids —
//! a single edge `0 1000000000` must not allocate a billion-node graph. This
//! module ingests datasets in **O(edges) memory**:
//!
//! * [`NodeIdMap`] remaps arbitrary `u64` external ids to dense internal
//!   indices in first-seen order, and keeps the reverse table so output can
//!   report original ids.
//! * [`read_dataset`] streams the file through a bounded buffer
//!   (chunk-at-a-time, no whole-file `String`). An edge list is read by a
//!   two-stage pipeline: a reader thread reads each block, cuts it at its
//!   last newline and parses it, with a byte-level fast path for lines of
//!   two integer ids and an optional integer weight, while the calling
//!   thread interns the earlier blocks' ids in file order. Every format
//!   goes through one merged-edge reader (text formats merge parallel edges
//!   through [`GraphBuilder`]), which ends in one exact-size graph build.
//! * [`read_csr`] takes the same merged edges straight into a [`CsrGraph`],
//!   arc for arc the CSR of `read_dataset`'s graph, so a caller that only
//!   needs the CSR never holds the adjacency lists. It returns the
//!   internal→external id table alone: the interning hash is freed before
//!   the CSR is built. Every `dkc` command that runs a protocol, and
//!   `dkc stats`, reads its input this way; `read_dataset` serves the
//!   centralized baselines and `dkc convert`.
//! * Three on-disk formats ([`DatasetFormat`]): SNAP-style edge lists, METIS
//!   adjacency files, and a compact little-endian binary format (`.dkcb`)
//!   that additionally preserves the id map exactly.
//! * [`stream_stats`] computes summary statistics in one pass without
//!   materializing adjacency lists, deduplicating edges on one `u64` key
//!   per edge.
//!
//! Id-remapping contract: internal ids are assigned in first-seen order of
//! the input. The edge-list and binary formats preserve external ids;
//! METIS is positional (nodes are `1..=n`), so reading it yields the
//! identity map. Isolated nodes declared by a `# nodes:` header (edge list)
//! or the METIS/binary headers survive a round-trip, but the *external* ids
//! of isolated nodes are only preserved by the binary format (text formats
//! assign them fresh ids past the largest mapped id).

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::idx::IdxOverflow;
use crate::io::ParseError;
use crate::node::NodeId;
use crate::weighted::WeightedGraph;
use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::hash::{BuildHasherDefault, Hasher};
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, Write};
use std::path::Path;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread;

/// Remaps arbitrary sparse external ids (`u64`) to dense internal indices.
///
/// Internal ids are assigned in first-seen order, so ingestion is
/// deterministic for a given input. Internal ids are [`NodeId`]s, so a map
/// holds at most 2³² distinct ids ([`NodeIdMap::try_intern`] reports more as
/// a typed [`IdxOverflow`]).
#[derive(Clone, Debug, Default)]
pub struct NodeIdMap {
    /// Sparse ids only: ids inside the identity prefix are not stored here,
    /// so fully-dense maps (METIS reads, table-less binary reads) carry an
    /// empty `HashMap` instead of one entry per node.
    to_internal: HashMap<u64, u32>,
    to_external: Vec<u64>,
    /// `to_external[0..identity_prefix]` is exactly `0..identity_prefix`.
    identity_prefix: usize,
    max_external: Option<u64>,
}

impl NodeIdMap {
    /// An empty map.
    pub fn new() -> Self {
        NodeIdMap::default()
    }

    /// The identity map over `0..n` (for graphs whose ids are already
    /// dense). No hash entries are allocated for the identity range.
    pub fn identity(n: usize) -> Self {
        assert!(
            n <= u32::MAX as usize + 1,
            "more than u32::MAX distinct ids"
        );
        NodeIdMap {
            to_internal: HashMap::new(),
            to_external: (0..n as u64).collect(),
            identity_prefix: n,
            max_external: n.checked_sub(1).map(|m| m as u64),
        }
    }

    /// Number of mapped nodes.
    pub fn len(&self) -> usize {
        self.to_external.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.to_external.is_empty()
    }

    /// Whether every external id equals its internal index.
    pub fn is_identity(&self) -> bool {
        self.identity_prefix == self.to_external.len()
    }

    /// Returns the internal id for `external`, allocating the next dense
    /// index on first sight, or a typed [`IdxOverflow`] once the number of
    /// distinct ids outgrows `u32`.
    pub fn try_intern(&mut self, external: u64) -> Result<NodeId, IdxOverflow> {
        if let Some(v) = self.get(external) {
            return Ok(v);
        }
        let next = self.to_external.len();
        let v =
            u32::try_from(next).map_err(|_| IdxOverflow::new(next, "distinct node-id count"))?;
        if self.is_identity() && external == next as u64 {
            // The map stays a pure identity: extend the prefix, skip the hash.
            self.identity_prefix += 1;
        } else {
            self.to_internal.insert(external, v);
        }
        self.to_external.push(external);
        self.max_external = Some(self.max_external.map_or(external, |m| m.max(external)));
        Ok(NodeId(v))
    }

    /// Returns the internal id for `external`, allocating the next dense
    /// index on first sight.
    ///
    /// # Panics
    /// Panics if the number of distinct ids exceeds `u32::MAX` (the internal
    /// id width).
    pub fn intern(&mut self, external: u64) -> NodeId {
        self.try_intern(external)
            // lint: allow(D04) — documented `# Panics` capacity guard on the u32 internal-id width, not a parse path
            .expect("more than u32::MAX distinct ids")
    }

    /// Looks up an already-mapped external id.
    pub fn get(&self, external: u64) -> Option<NodeId> {
        if external < self.identity_prefix as u64 {
            return Some(NodeId(external as u32));
        }
        self.to_internal.get(&external).copied().map(NodeId)
    }

    /// The external id of an internal node.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn external(&self, v: NodeId) -> u64 {
        self.to_external[v.index()]
    }

    /// The full internal→external table.
    pub fn externals(&self) -> &[u64] {
        &self.to_external
    }

    /// The internal→external table alone, freeing the lookup hash.
    pub fn into_externals(self) -> Vec<u64> {
        self.to_external
    }

    /// Grows the map to `n` nodes by assigning fresh external ids to the
    /// padded nodes: sequential past the current maximum, wrapping from
    /// `u64::MAX` to 0, and skipping ids already mapped. A map holds at most
    /// 2³² ids, so the search always ends. Used for isolated nodes declared
    /// by a header but absent from the edges.
    ///
    /// # Panics
    /// Panics if `n` exceeds 2³² (see [`NodeIdMap::intern`]).
    pub fn pad_to(&mut self, n: usize) {
        let mut candidate = self.max_external.map_or(0, |m| m.wrapping_add(1));
        while self.len() < n {
            while self.get(candidate).is_some() {
                candidate = candidate.wrapping_add(1);
            }
            self.intern(candidate);
        }
    }
}

/// A graph together with the id map it was ingested under.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// The dense-id graph.
    pub graph: WeightedGraph,
    /// External-id ↔ internal-index mapping.
    pub ids: NodeIdMap,
}

impl Dataset {
    /// Wraps an already-dense graph with the identity map.
    pub fn from_graph(graph: WeightedGraph) -> Self {
        let ids = NodeIdMap::identity(graph.num_nodes());
        Dataset { graph, ids }
    }

    /// Builds a dataset from externally-identified edges, padding to
    /// `declared_nodes` if the edges mention fewer distinct ids.
    pub fn from_external_edges(
        declared_nodes: usize,
        edges: impl IntoIterator<Item = (u64, u64, f64)>,
    ) -> Self {
        let mut ids = NodeIdMap::new();
        let mut builder = GraphBuilder::new(0);
        for (u, v, w) in edges {
            let iu = ids.intern(u);
            let iv = ids.intern(v);
            builder.add_edge(iu, iv, w);
        }
        ids.pad_to(declared_nodes);
        let mut graph = builder.build();
        while graph.num_nodes() < ids.len() {
            graph.add_node();
        }
        Dataset { graph, ids }
    }

    /// The external id of an internal node.
    pub fn external(&self, v: NodeId) -> u64 {
        self.ids.external(v)
    }
}

/// The on-disk dataset formats.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DatasetFormat {
    /// SNAP-style whitespace edge list: `u v [w]` per line, `#`/`%` comments,
    /// optional `# nodes: N` directive declaring the node count.
    EdgeList,
    /// METIS adjacency format: header `n m [fmt]`, then line `i` lists the
    /// (1-based) neighbors of node `i`, with a weight after each neighbor
    /// when `fmt` is `001`. Positional: ids are not preserved.
    Metis,
    /// Compact little-endian binary (`.dkcb`): magic `DKCB`, version, id
    /// table (unless the map is the identity), then fixed-width edge and
    /// self-loop records. Preserves the id map exactly.
    Binary,
}

impl DatasetFormat {
    /// The canonical flag spelling.
    pub fn name(self) -> &'static str {
        match self {
            DatasetFormat::EdgeList => "edgelist",
            DatasetFormat::Metis => "metis",
            DatasetFormat::Binary => "binary",
        }
    }

    /// Parses a `--format` flag value.
    pub fn from_flag(flag: &str) -> Option<Self> {
        match flag {
            "edgelist" | "edges" | "snap" | "el" => Some(DatasetFormat::EdgeList),
            "metis" => Some(DatasetFormat::Metis),
            "binary" | "bin" | "dkcb" => Some(DatasetFormat::Binary),
            _ => None,
        }
    }

    /// Infers the format from a file extension.
    pub fn from_path(path: impl AsRef<Path>) -> Option<Self> {
        let ext = path.as_ref().extension()?.to_str()?;
        match ext {
            "edges" | "txt" | "el" | "edgelist" | "snap" => Some(DatasetFormat::EdgeList),
            "metis" | "graph" => Some(DatasetFormat::Metis),
            "dkcb" | "bin" => Some(DatasetFormat::Binary),
            _ => None,
        }
    }

    /// Infers from the extension, defaulting to the edge-list format.
    pub fn from_path_or_default(path: impl AsRef<Path>) -> Self {
        Self::from_path(path).unwrap_or(DatasetFormat::EdgeList)
    }
}

/// One parsed item of a streaming pass.
enum StreamItem {
    /// An edge in external-id space (`u == v` is a self-loop).
    Edge(u64, u64, f64),
    /// A declared node count (from a header or directive).
    DeclaredNodes(u64),
}

fn invalid(msg: impl Into<String>) -> ParseError {
    ParseError::Invalid(msg.into())
}

fn malformed(line: usize, content: &str) -> ParseError {
    ParseError::malformed(line, content)
}

/// Recognizes a `# nodes: N` (or `% nodes: N`) comment directive. Matching
/// is case-insensitive so real SNAP headers (`# Nodes: 281903 Edges: ...`)
/// are honored too.
fn nodes_directive(line: &str) -> Option<u64> {
    let body = line.strip_prefix('#').or_else(|| line.strip_prefix('%'))?;
    let mut tokens = body.split_whitespace();
    while let Some(tok) = tokens.next() {
        if tok.eq_ignore_ascii_case("nodes:") {
            return tokens.next()?.parse().ok();
        }
        if let (Some(head), Some(rest)) = (tok.get(..6), tok.get(6..)) {
            if head.eq_ignore_ascii_case("nodes:") {
                return rest.parse().ok();
            }
        }
    }
    None
}

/// Parses one edge-list data line (already known non-empty, non-comment):
/// `u v [w]` with **no trailing tokens**.
fn parse_edge_tokens(line: &str, lineno: usize) -> Result<(u64, u64, f64), ParseError> {
    let mut parts = line.split_whitespace();
    let (u, v) = match (parts.next(), parts.next()) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err(malformed(lineno, line)),
    };
    let w = match parts.next() {
        Some(ws) => ws.parse::<f64>().map_err(|_| malformed(lineno, line))?,
        None => 1.0,
    };
    if parts.next().is_some() {
        return Err(malformed(lineno, line));
    }
    let u: u64 = u.parse().map_err(|_| malformed(lineno, line))?;
    let v: u64 = v.parse().map_err(|_| malformed(lineno, line))?;
    if !w.is_finite() || w < 0.0 {
        return Err(malformed(lineno, line));
    }
    Ok((u, v, w))
}

/// Output of parsing one block of edge-list text. The pipelined reader
/// recycles a fixed set of these between its stages, so each keeps the
/// capacity of the largest block it has held.
#[derive(Default)]
struct ChunkItems {
    edges: Vec<(u64, u64, f64)>,
    declared: Option<u64>,
}

/// Whether `b` is a byte `char::is_whitespace` accepts, other than the
/// `\n` that ends a line: `\t`, `\x0b`, `\x0c`, `\r` and the space. (This
/// is not `u8::is_ascii_whitespace`, which lacks `\x0b`.)
fn is_space(b: u8) -> bool {
    matches!(b, b'\t' | 0x0b | 0x0c | b'\r' | b' ')
}

/// The most digits of an id [`fast_edge`] reads: any 19 digits fit a `u64`.
const FAST_ID_DIGITS: usize = 19;

/// The most digits of a weight [`fast_edge`] reads: any 15 digits are an
/// integer below 2^53, which an `f64` holds exactly.
const FAST_WEIGHT_DIGITS: usize = 15;

/// Reads the line at the start of `text` if it has the shape real edge
/// lists are made of, and declines every other line: two ids of at most
/// [`FAST_ID_DIGITS`] ASCII digits, then an optional integer weight of at
/// most [`FAST_WEIGHT_DIGITS`], apart by [`is_space`] bytes. Returns the
/// edge and the line's length, up to its `\n` or the end of `text`. An
/// accepted line is one [`parse_edge_tokens`] reads as the same bits;
/// comments, signs, fractions, exponents, non-ASCII whitespace, longer
/// numbers and malformed lines are left to it.
fn fast_edge(text: &[u8]) -> Option<((u64, u64, f64), usize)> {
    let at = skip_spaces(text, 0);
    let (u, at) = fast_number(text, at, FAST_ID_DIGITS)?;
    let (v, at) = fast_number(text, at, FAST_ID_DIGITS)?;
    let (w, at) = match text.get(at) {
        None | Some(b'\n') => (1.0, at),
        Some(_) => {
            let (w, at) = fast_number(text, at, FAST_WEIGHT_DIGITS)?;
            (w as f64, at)
        }
    };
    matches!(text.get(at), None | Some(b'\n')).then_some(((u, v, w), at))
}

/// The number of 1 to `max_digits` ASCII digits at `text[at..]`, which must
/// end the line or be followed by a space, and the position past the spaces
/// after it.
fn fast_number(text: &[u8], mut at: usize, max_digits: usize) -> Option<(u64, usize)> {
    let start = at;
    let mut n = 0u64;
    while let Some(digit) = text
        .get(at)
        .map(|b| b.wrapping_sub(b'0'))
        .filter(|&d| d < 10)
    {
        if at - start == max_digits {
            return None;
        }
        n = n * 10 + u64::from(digit);
        at += 1;
    }
    match text.get(at) {
        _ if at == start => None,
        None | Some(b'\n') => Some((n, at)),
        Some(&b) if is_space(b) => Some((n, skip_spaces(text, at))),
        Some(_) => None,
    }
}

fn skip_spaces(text: &[u8], at: usize) -> usize {
    at + text[at..].iter().take_while(|&&b| is_space(b)).count()
}

/// Parses one chunk of edge-list text, whole lines whose first is line
/// `start_line`, into `out`, after clearing it. A line [`fast_edge`] reads
/// within the `CHUNK_BYTES` limit is an edge; every other line is checked
/// against the limit and read by the exact tokenizer.
fn parse_edge_list_chunk(
    start_line: usize,
    text: &str,
    out: &mut ChunkItems,
) -> Result<(), ParseError> {
    out.edges.clear();
    out.declared = None;
    let mut line_start = 0;
    for line_no in start_line.. {
        let rest = &text.as_bytes()[line_start..];
        let len = match fast_edge(rest) {
            Some((edge, len)) if len <= CHUNK_BYTES => {
                out.edges.push(edge);
                len
            }
            _ => {
                let len = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
                parse_slow_line(&text[line_start..line_start + len], line_no, out)?;
                len
            }
        };
        line_start += len + 1;
        if line_start > text.len() {
            break;
        }
    }
    Ok(())
}

/// Reads one line [`fast_edge`] declined into `out`, if it is within the
/// `CHUNK_BYTES` limit: blank lines and comments add nothing, but for a
/// `# nodes:` directive, and any other line must be an edge.
fn parse_slow_line(raw: &str, line_no: usize, out: &mut ChunkItems) -> Result<(), ParseError> {
    if raw.len() > CHUNK_BYTES {
        return Err(ParseError::LineTooLong {
            line: line_no,
            limit: CHUNK_BYTES,
        });
    }
    let line = raw.trim();
    if line.is_empty() {
        return Ok(());
    }
    if line.starts_with('#') || line.starts_with('%') {
        if let Some(n) = nodes_directive(line) {
            out.declared = Some(out.declared.map_or(n, |d: u64| d.max(n)));
        }
        return Ok(());
    }
    out.edges.push(parse_edge_tokens(line, line_no)?);
    Ok(())
}

/// Block size of the edge-list reader, and the longest line the edge-list
/// and METIS readers read: a line of more bytes before its newline is
/// [`ParseError::LineTooLong`]. Blocks are cut at their last newline, so a
/// block holds at most one line's start from the block before, and peak
/// memory is `O(threads · CHUNK_BYTES + edges)` regardless of file size.
pub const CHUNK_BYTES: usize = 1 << 20;

/// Parse buffers of the pipelined edge-list reader: the reader thread fills
/// one while the calling thread interns the edges of another, and the third
/// lets the faster stage run a block ahead.
const PARSE_BUFFERS: usize = 3;

/// Parses one block of edge-list bytes, whole lines whose first is line
/// `start_line`, into `out`, checking its UTF-8 as part of the parse. A
/// block that is not UTF-8 reports its earliest bad line: a malformed line
/// before the invalid byte, or else the invalid UTF-8 on the byte's line.
fn parse_edge_list_block(
    start_line: usize,
    block: &[u8],
    out: &mut ChunkItems,
) -> Result<(), ParseError> {
    let e = match std::str::from_utf8(block) {
        Ok(text) => return parse_edge_list_chunk(start_line, text, out),
        Err(e) => e,
    };
    let valid = &block[..e.valid_up_to()];
    let whole_lines = valid.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    if let Ok(text) = std::str::from_utf8(&valid[..whole_lines]) {
        parse_edge_list_chunk(start_line, text, out)?;
    }
    Err(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!(
            "invalid UTF-8 on line {}",
            start_line + count_newlines(valid)
        ),
    )
    .into())
}

/// The first stage of the edge-list reader: reads the file in
/// `CHUNK_BYTES` blocks, cuts each at its last newline, and parses the
/// whole lines before the cut. The bytes after it, a partial line and never
/// a newline, open the next block. A block is therefore whole lines, so its
/// UTF-8 is checked once, by its parse, and the next block's first line
/// number is this block's plus the newlines in it.
struct BlockReader {
    file: File,
    /// The partial line carried over, then the block's fresh bytes.
    text: Vec<u8>,
    /// The 1-based line number of the next block's first line.
    next_line: usize,
    eof: bool,
}

impl BlockReader {
    fn open(path: &Path) -> Result<Self, ParseError> {
        Ok(BlockReader {
            file: File::open(path)?,
            text: Vec::new(),
            next_line: 1,
            eof: false,
        })
    }

    /// Parses the next block into `out`, or returns `false` at the end of
    /// the file. A line still unended past `CHUNK_BYTES` is
    /// [`ParseError::LineTooLong`] once every block before it is parsed, so
    /// a file without newlines is not read whole.
    fn next_block(&mut self, out: &mut ChunkItems) -> Result<bool, ParseError> {
        while !self.eof {
            let fresh = self.text.len();
            self.text.reserve(CHUNK_BYTES);
            self.eof = (&mut self.file)
                .take(CHUNK_BYTES as u64)
                .read_to_end(&mut self.text)?
                < CHUNK_BYTES;
            let cut = if self.eof {
                self.text.len()
            } else {
                match self.text[fresh..].iter().rposition(|&b| b == b'\n') {
                    Some(i) => fresh + i + 1,
                    // No line ends in this block: keep reading the line.
                    None if self.text.len() <= CHUNK_BYTES => continue,
                    None => {
                        return Err(ParseError::LineTooLong {
                            line: self.next_line,
                            limit: CHUNK_BYTES,
                        })
                    }
                }
            };
            if cut > 0 {
                let block = &self.text[..cut];
                parse_edge_list_block(self.next_line, block, out)?;
                self.next_line += count_newlines(block);
                self.text.drain(..cut);
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// The reader thread of [`stream_edge_list_items`]: parses each block
    /// into one of [`PARSE_BUFFERS`] buffers, a new one while fewer exist,
    /// else the next one the interner hands back, and sends it on. It stops
    /// after the end of the file or the first error, which it sends, or
    /// once the interner has stopped: then a send or a wait for a buffer
    /// fails at once.
    fn feed(
        mut self,
        parsed: SyncSender<Result<ChunkItems, ParseError>>,
        spent: Receiver<ChunkItems>,
    ) {
        let mut buffers = 0;
        loop {
            let mut items = if buffers < PARSE_BUFFERS {
                buffers += 1;
                ChunkItems::default()
            } else {
                match spent.recv() {
                    Ok(items) => items,
                    Err(_) => return,
                }
            };
            let block = match self.next_block(&mut items) {
                Ok(false) => return,
                Ok(true) => Ok(items),
                Err(e) => Err(e),
            };
            let last = block.is_err();
            if parsed.send(block).is_err() || last {
                return;
            }
        }
    }
}

/// Hands one parsed block's items to `sink` in file order.
fn deliver(
    items: &ChunkItems,
    sink: &mut dyn FnMut(StreamItem) -> Result<(), ParseError>,
) -> Result<(), ParseError> {
    if let Some(n) = items.declared {
        sink(StreamItem::DeclaredNodes(n))?;
    }
    for &(u, v, w) in &items.edges {
        sink(StreamItem::Edge(u, v, w))?;
    }
    Ok(())
}

/// Streams an edge list through `sink`, in file order, as a two-stage
/// pipeline: a reader thread reads and parses each block ([`BlockReader`])
/// while the calling thread hands the earlier blocks' items to `sink`,
/// which interns them. The blocks' parse buffers are allocated once and
/// recycled between the stages. With a one-thread rayon pool nothing is
/// spawned, and the caller alternates the two stages.
///
/// Either stage stops at its first error. The reader parses the blocks in
/// order and the caller takes them in order, so the error reported is that
/// of the earliest bad line, whatever the number of threads. When either
/// stops, the other's next send or wait fails, so no thread is left
/// blocked.
fn stream_edge_list_items(
    path: &Path,
    sink: &mut dyn FnMut(StreamItem) -> Result<(), ParseError>,
) -> Result<(), ParseError> {
    let mut reader = BlockReader::open(path)?;
    // Read on this thread: `install` sets the pool size for its own thread
    // only, so a spawned thread would see the global pool's.
    if rayon::current_num_threads() <= 1 {
        let mut items = ChunkItems::default();
        while reader.next_block(&mut items)? {
            deliver(&items, sink)?;
        }
        return Ok(());
    }
    thread::scope(|scope| {
        let (parsed_tx, parsed) = mpsc::sync_channel(PARSE_BUFFERS);
        let (spent, spent_rx) = mpsc::channel();
        thread::Builder::new()
            .name("dkc-edge-list-reader".to_string())
            .spawn_scoped(scope, move || reader.feed(parsed_tx, spent_rx))?;
        // `parsed` and `spent` drop when this returns, on success, error or
        // panic alike, which ends the reader's loop before the scope joins it.
        for block in parsed {
            let items = block?;
            deliver(&items, sink)?;
            // Nothing waits for the buffer once the reader has stopped.
            let _ = spent.send(items);
        }
        Ok(())
    })
}

fn count_newlines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// Reads the next line of a METIS file into `buf`, under the edge-list
/// reader's limit: a line of more than `CHUNK_BYTES` bytes before its
/// newline is [`ParseError::LineTooLong`] as line `lineno`, found one byte
/// past the limit, so a line that never ends is not read whole. Returns the
/// line, newline included, or `None` at the end of the file.
fn read_metis_line<'b>(
    reader: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
    lineno: usize,
) -> Result<Option<&'b str>, ParseError> {
    buf.clear();
    if reader.take(CHUNK_BYTES as u64 + 1).read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    if buf.len() > CHUNK_BYTES && buf.last() != Some(&b'\n') {
        return Err(ParseError::LineTooLong {
            line: lineno,
            limit: CHUNK_BYTES,
        });
    }
    match std::str::from_utf8(buf) {
        Ok(line) => Ok(Some(line)),
        Err(_) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )
        .into()),
    }
}

/// Streams a METIS adjacency file through `sink` (ids are emitted 0-based;
/// `DeclaredNodes` comes first). Each non-loop edge is emitted once, from
/// its smaller endpoint's line; the file's symmetry and the header's edge
/// count are validated. Lines are read under the edge list's `CHUNK_BYTES`
/// limit and their tokens are scanned in place.
fn stream_metis_items(
    path: &Path,
    sink: &mut dyn FnMut(StreamItem) -> Result<(), ParseError>,
) -> Result<(), ParseError> {
    let mut reader = BufReader::new(File::open(path)?);
    let mut buf = Vec::new();
    let mut lineno = 0usize;
    // Header: first non-comment line is `n m [fmt]`.
    let (n, m, weighted) = loop {
        let Some(line) = read_metis_line(&mut reader, &mut buf, lineno + 1)? else {
            return Err(invalid("metis: missing header line"));
        };
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let tokens: Vec<&str> = trimmed.split_whitespace().collect();
        if tokens.len() < 2 || tokens.len() > 3 {
            return Err(malformed(lineno, trimmed));
        }
        let n: u64 = tokens[0].parse().map_err(|_| malformed(lineno, trimmed))?;
        let m: u64 = tokens[1].parse().map_err(|_| malformed(lineno, trimmed))?;
        let weighted = match tokens.get(2).copied() {
            None | Some("0") | Some("00") | Some("000") => false,
            Some("1") | Some("001") => true,
            Some(other) => {
                return Err(invalid(format!(
                    "metis: unsupported fmt field {other:?} (only edge weights / 001 supported)"
                )))
            }
        };
        break (n, m, weighted);
    };
    sink(StreamItem::DeclaredNodes(n))?;
    let mut node = 0u64;
    let mut forward = 0u64; // adjacency entries pointing to a larger node
    let mut backward = 0u64; // adjacency entries pointing to a smaller node
    let mut forward_weight = 0.0f64;
    let mut backward_weight = 0.0f64;
    let mut loops = 0u64;
    // One line's `(neighbour, weight)` entries: every token parses before
    // any edge is emitted.
    let mut entries: Vec<(u64, f64)> = Vec::new();
    while node < n {
        let Some(line) = read_metis_line(&mut reader, &mut buf, lineno + 1)? else {
            return Err(invalid(format!(
                "metis: expected {n} adjacency lines, found {node}"
            )));
        };
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.starts_with('%') {
            continue;
        }
        let bad = || malformed(lineno, trimmed);
        entries.clear();
        let mut tokens = trimmed.split_whitespace();
        while let Some(tok) = tokens.next() {
            let nbr: u64 = tok.parse().map_err(|_| bad())?;
            let w: f64 = if weighted {
                let tok = tokens.next().ok_or_else(bad)?;
                tok.parse().map_err(|_| bad())?
            } else {
                1.0
            };
            entries.push((nbr, w));
        }
        for &(nbr, w) in &entries {
            if nbr == 0 || nbr > n {
                return Err(malformed(lineno, trimmed));
            }
            if !w.is_finite() || w < 0.0 {
                return Err(malformed(lineno, trimmed));
            }
            let nbr = nbr - 1;
            match nbr.cmp(&node) {
                std::cmp::Ordering::Greater => {
                    forward += 1;
                    forward_weight += w;
                    sink(StreamItem::Edge(node, nbr, w))?;
                }
                std::cmp::Ordering::Equal => {
                    loops += 1;
                    sink(StreamItem::Edge(node, node, w))?;
                }
                std::cmp::Ordering::Less => {
                    backward += 1;
                    backward_weight += w;
                }
            }
        }
        node += 1;
    }
    if forward != backward {
        return Err(invalid(format!(
            "metis: asymmetric adjacency ({forward} forward vs {backward} backward entries)"
        )));
    }
    ParseError::check_weight_total(forward_weight)?;
    // Each edge is listed from both endpoints with the same weight, so the
    // two directed weight sums must agree (catches files whose mirrored
    // entries disagree — the smaller endpoint's weight would silently win).
    if !crate::weights_close(forward_weight, backward_weight) {
        return Err(invalid(format!(
            "metis: asymmetric edge weights (forward sum {forward_weight} vs backward sum {backward_weight})"
        )));
    }
    if forward + loops != m {
        return Err(invalid(format!(
            "metis: header declares {m} edges but the adjacency lists contain {}",
            forward + loops
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Binary format (.dkcb)
// ---------------------------------------------------------------------------

const BINARY_MAGIC: &[u8; 4] = b"DKCB";
const BINARY_VERSION: u16 = 1;
/// Header flag: an explicit external-id table follows the header.
const FLAG_ID_TABLE: u16 = 1;

fn read_exact_buf(r: &mut impl Read, buf: &mut [u8]) -> Result<(), ParseError> {
    r.read_exact(buf)
        .map_err(|e| invalid(format!("binary: truncated file: {e}")))
}

fn read_u16(r: &mut impl Read) -> Result<u16, ParseError> {
    let mut b = [0u8; 2];
    read_exact_buf(r, &mut b)?;
    Ok(u16::from_le_bytes(b))
}

fn read_u32(r: &mut impl Read) -> Result<u32, ParseError> {
    let mut b = [0u8; 4];
    read_exact_buf(r, &mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> Result<u64, ParseError> {
    let mut b = [0u8; 8];
    read_exact_buf(r, &mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_f64(r: &mut impl Read) -> Result<f64, ParseError> {
    let mut b = [0u8; 8];
    read_exact_buf(r, &mut b)?;
    Ok(f64::from_le_bytes(b))
}

struct BinaryHeader {
    n: u64,
    plain_edges: u64,
    self_loops: u64,
    has_id_table: bool,
}

fn read_binary_header(r: &mut impl Read) -> Result<BinaryHeader, ParseError> {
    let mut magic = [0u8; 4];
    read_exact_buf(r, &mut magic)?;
    if &magic != BINARY_MAGIC {
        return Err(invalid("binary: bad magic (not a .dkcb file)"));
    }
    let version = read_u16(r)?;
    if version != BINARY_VERSION {
        return Err(invalid(format!(
            "binary: unsupported version {version} (expected {BINARY_VERSION})"
        )));
    }
    let flags = read_u16(r)?;
    if flags & !FLAG_ID_TABLE != 0 {
        return Err(invalid(format!("binary: unknown flags {flags:#06x}")));
    }
    Ok(BinaryHeader {
        n: read_u64(r)?,
        plain_edges: read_u64(r)?,
        self_loops: read_u64(r)?,
        has_id_table: flags & FLAG_ID_TABLE != 0,
    })
}

fn check_binary_weight(w: f64) -> Result<f64, ParseError> {
    if !w.is_finite() || w < 0.0 {
        return Err(invalid(format!("binary: bad edge weight {w}")));
    }
    Ok(w)
}

fn expect_eof(r: &mut impl Read) -> Result<(), ParseError> {
    let mut probe = [0u8; 1];
    match r.read(&mut probe) {
        Ok(0) => Ok(()),
        Ok(_) => Err(invalid("binary: trailing bytes after the edge section")),
        Err(e) => Err(ParseError::Io(e)),
    }
}

/// Reads a `.dkcb` file's edges, reconstructing the id map exactly. Records
/// are not merged: parallel edge records stay parallel, in file order.
fn read_binary_edges(path: &Path) -> Result<DatasetEdges, ParseError> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut r = BufReader::new(file);
    let header = read_binary_header(&mut r)?;
    let n = usize::try_from(header.n)
        .ok()
        .filter(|&n| n <= u32::MAX as usize)
        .ok_or_else(|| invalid(format!("binary: node count {} out of range", header.n)))?;
    if !header.has_id_table {
        // No byte describes an identity-mapped node until an edge names it.
        checked_declared_nodes(header.n, 0, file_len)?;
    }
    let mut ids = NodeIdMap::new();
    if header.has_id_table {
        for i in 0..n {
            let ext = read_u64(&mut r)?;
            if ids.get(ext).is_some() {
                return Err(invalid(format!("binary: duplicate external id {ext}")));
            }
            debug_assert_eq!(ids.len(), i);
            ids.intern(ext);
        }
    } else {
        ids = NodeIdMap::identity(n);
    }
    // Pre-size only when the header's record counts fit in the bytes left
    // (16 per edge record, 12 per self-loop record): a header that claims
    // more fails at end of file, without allocating for its claim.
    let left = r
        .stream_position()
        .map_or(0, |pos| file_len.saturating_sub(pos));
    let claimed = header
        .plain_edges
        .checked_mul(16)
        .zip(header.self_loops.checked_mul(12))
        .and_then(|(e, l)| e.checked_add(l));
    let (edge_cap, loop_cap) = match claimed {
        Some(bytes) if bytes <= left => (header.plain_edges, header.self_loops),
        _ => (0, 0),
    };
    let mut edges = Vec::with_capacity(usize::try_from(edge_cap).unwrap_or(0));
    for _ in 0..header.plain_edges {
        let u = read_u32(&mut r)? as usize;
        let v = read_u32(&mut r)? as usize;
        let w = check_binary_weight(read_f64(&mut r)?)?;
        if u >= v || v >= n {
            return Err(invalid(format!(
                "binary: bad edge ({u}, {v}) in a {n}-node graph"
            )));
        }
        edges.push((NodeId::new(u), NodeId::new(v), w));
    }
    let mut loops = Vec::with_capacity(usize::try_from(loop_cap).unwrap_or(0));
    for _ in 0..header.self_loops {
        let v = read_u32(&mut r)? as usize;
        let w = check_binary_weight(read_f64(&mut r)?)?;
        if v >= n {
            return Err(invalid(format!(
                "binary: bad self-loop node {v} in a {n}-node graph"
            )));
        }
        loops.push((NodeId::new(v), w));
    }
    expect_eof(&mut r)?;
    // The graph's total weight, summed in the order both builds sum it.
    let total = edges
        .iter()
        .map(|&(_, _, w)| w)
        .chain(loops.iter().map(|&(_, w)| w))
        .fold(0.0, |sum, w| sum + w);
    ParseError::check_weight_total(total)?;
    Ok(DatasetEdges {
        nodes: n,
        plain: edges,
        loops,
        ids,
    })
}

fn stream_items(
    path: &Path,
    format: DatasetFormat,
    sink: &mut dyn FnMut(StreamItem) -> Result<(), ParseError>,
) -> Result<(), ParseError> {
    match format {
        DatasetFormat::EdgeList => stream_edge_list_items(path, sink),
        DatasetFormat::Metis => stream_metis_items(path, sink),
        DatasetFormat::Binary => {
            // Every check of `read_dataset`, then the records in file
            // order (internal ids as `u64`).
            let e = read_binary_edges(path)?;
            sink(StreamItem::DeclaredNodes(e.nodes as u64))?;
            for (u, v, w) in e.plain {
                sink(StreamItem::Edge(u64::from(u.0), u64::from(v.0), w))?;
            }
            for (v, w) in e.loops {
                sink(StreamItem::Edge(u64::from(v.0), u64::from(v.0), w))?;
            }
            Ok(())
        }
    }
}

/// A dataset file's edges as both graph builds take them: the node count,
/// the plain edges and the self-loops (merged by [`GraphBuilder`] for the
/// text formats, as recorded for `.dkcb`), and the id map.
struct DatasetEdges {
    nodes: usize,
    plain: Vec<(NodeId, NodeId, f64)>,
    loops: Vec<(NodeId, f64)>,
    ids: NodeIdMap,
}

/// Reads a dataset file's edges in any format, with every check of
/// [`read_dataset`].
fn read_edges(path: &Path, format: DatasetFormat) -> Result<DatasetEdges, ParseError> {
    match format {
        DatasetFormat::Binary => read_binary_edges(path),
        DatasetFormat::Metis => read_metis_edges(path),
        DatasetFormat::EdgeList => read_edge_list_edges(path),
    }
}

/// Reads a dataset file into a graph plus its id map.
///
/// Peak memory is `O(edges + distinct nodes)` regardless of the id space:
/// external ids are remapped to dense indices as they stream past.
pub fn read_dataset(path: impl AsRef<Path>, format: DatasetFormat) -> Result<Dataset, ParseError> {
    let e = read_edges(path.as_ref(), format)?;
    Ok(Dataset {
        graph: WeightedGraph::from_edges(e.nodes, &e.plain, &e.loops),
        ids: e.ids,
    })
}

/// [`read_dataset`] straight into a [`CsrGraph`]: the CSR that
/// [`CsrGraph::from_graph`] makes of `read_dataset`'s graph, arc for arc,
/// and the external id of every node ([`NodeIdMap::externals`] of the same
/// id map), with the same errors, but without ever building the adjacency
/// lists. The id map's lookup hash is dropped before the CSR is built. A
/// graph with more than `u32::MAX` arcs is [`ParseError::Idx`].
pub fn read_csr(
    path: impl AsRef<Path>,
    format: DatasetFormat,
) -> Result<(CsrGraph, Vec<u64>), ParseError> {
    let DatasetEdges {
        nodes,
        plain,
        loops,
        ids,
    } = read_edges(path.as_ref(), format)?;
    let externals = ids.into_externals();
    let csr = CsrGraph::try_from_edges(nodes, &plain, &loops)?;
    Ok((csr, externals))
}

/// Interns the endpoints of edges in first-seen order, `u` before `v`. A
/// first id equal to the previous edge's takes that edge's internal id
/// without a hash lookup: in a file grouped by source, as SNAP files sorted
/// by source and every edge list `dkc generate` writes are, that is most
/// lines.
#[derive(Default)]
struct EdgeInterner {
    ids: NodeIdMap,
    /// The previous edge's first id, external and internal.
    first: Option<(u64, NodeId)>,
}

impl EdgeInterner {
    fn intern(&mut self, u: u64, v: u64) -> Result<(NodeId, NodeId), IdxOverflow> {
        let iu = match self.first {
            Some((prev, iu)) if prev == u => iu,
            _ => self.ids.try_intern(u)?,
        };
        self.first = Some((u, iu));
        Ok((iu, self.ids.try_intern(v)?))
    }
}

/// Interns an edge list's ids in first-seen order and merges its edges.
fn read_edge_list_edges(path: &Path) -> Result<DatasetEdges, ParseError> {
    let mut interner = EdgeInterner::default();
    let mut builder = GraphBuilder::new(0);
    let mut declared: u64 = 0;
    stream_edge_list_items(path, &mut |item| {
        match item {
            StreamItem::Edge(u, v, w) => {
                let (iu, iv) = interner.intern(u, v)?;
                builder.add_edge(iu, iv, w);
            }
            StreamItem::DeclaredNodes(n) => declared = declared.max(n),
        }
        Ok(())
    })?;
    let mut ids = interner.ids;
    let file_len = std::fs::metadata(path)?.len();
    let declared = checked_declared_nodes(declared, ids.len(), file_len)?;
    let (plain, loops) = builder.try_merge()?;
    // Header-declared isolated nodes get fresh ids past the mapped ones.
    ids.pad_to(declared);
    Ok(DatasetEdges {
        nodes: ids.len(),
        plain,
        loops,
        ids,
    })
}

fn checked_node_count(n: u64) -> Result<usize, ParseError> {
    usize::try_from(n)
        .ok()
        .filter(|&n| n <= u32::MAX as usize)
        .ok_or_else(|| invalid(format!("declared node count {n} out of range")))
}

/// How many isolated nodes a declared node count may add beyond one per
/// byte of the file. A node in an edge, or in a `.dkcb` id table, takes
/// bytes of its own; a node only a `# nodes: N` directive (or a `.dkcb`
/// header without an id table) declares takes none, so without a bound a
/// 22-byte file could claim billions of them. 2^20 keeps any graph with up
/// to a million isolated nodes readable.
pub const UNDESCRIBED_NODE_ALLOWANCE: u64 = 1 << 20;

/// `declared` as a node count, if it adds at most `file_len` +
/// [`UNDESCRIBED_NODE_ALLOWANCE`] nodes to the `seen` ones the file
/// describes.
fn checked_declared_nodes(declared: u64, seen: usize, file_len: u64) -> Result<usize, ParseError> {
    let limit = (seen as u64)
        .saturating_add(file_len)
        .saturating_add(UNDESCRIBED_NODE_ALLOWANCE);
    if declared > limit {
        return Err(ParseError::DeclaredNodes { declared, limit });
    }
    checked_node_count(declared)
}

/// METIS is positional: node ids in the file are already dense `1..=n`, so
/// the dataset carries the identity map (no interning pass).
fn read_metis_edges(path: &Path) -> Result<DatasetEdges, ParseError> {
    let mut builder = GraphBuilder::new(0);
    let mut declared: u64 = 0;
    stream_metis_items(path, &mut |item| {
        match item {
            StreamItem::Edge(u, v, w) => {
                builder.add_edge(NodeId::new(u as usize), NodeId::new(v as usize), w);
            }
            StreamItem::DeclaredNodes(n) => {
                declared = n;
                checked_node_count(n)?;
            }
        }
        Ok(())
    })?;
    let declared = checked_node_count(declared)?;
    let (plain, loops) = builder.try_merge()?;
    Ok(DatasetEdges {
        nodes: declared,
        plain,
        loops,
        ids: NodeIdMap::identity(declared),
    })
}

/// Writes a dataset to `path` in the given format (streaming, buffered).
pub fn write_dataset(
    ds: &Dataset,
    path: impl AsRef<Path>,
    format: DatasetFormat,
) -> std::io::Result<()> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    match format {
        DatasetFormat::EdgeList => write_edge_list_ext(ds, &mut w),
        DatasetFormat::Metis => write_metis(&ds.graph, &mut w),
        DatasetFormat::Binary => write_binary(ds, &mut w),
    }?;
    w.flush()
}

fn write_edge_list_ext(ds: &Dataset, w: &mut impl Write) -> std::io::Result<()> {
    let g = &ds.graph;
    writeln!(w, "# nodes: {}  edges: {}", g.num_nodes(), g.num_edges())?;
    for (u, v, weight) in g.edges() {
        writeln!(w, "{} {} {}", ds.external(u), ds.external(v), weight)?;
    }
    Ok(())
}

fn write_metis(g: &WeightedGraph, w: &mut impl Write) -> std::io::Result<()> {
    let weighted = !g.is_unit_weighted();
    writeln!(w, "% dkc metis export")?;
    if weighted {
        writeln!(w, "{} {} 001", g.num_nodes(), g.num_edges())?;
    } else {
        writeln!(w, "{} {}", g.num_nodes(), g.num_edges())?;
    }
    let mut line = String::new();
    for v in g.nodes() {
        line.clear();
        for &(u, weight) in g.neighbors(v) {
            push_metis_entry(&mut line, u.index() + 1, weight, weighted);
        }
        let loop_w = g.self_loop(v);
        if loop_w > 0.0 {
            push_metis_entry(&mut line, v.index() + 1, loop_w, weighted);
        }
        writeln!(w, "{line}")?;
    }
    Ok(())
}

fn push_metis_entry(line: &mut String, nbr: usize, weight: f64, weighted: bool) {
    use std::fmt::Write as _;
    if !line.is_empty() {
        line.push(' ');
    }
    if weighted {
        let _ = write!(line, "{nbr} {weight}");
    } else {
        let _ = write!(line, "{nbr}");
    }
}

fn write_binary(ds: &Dataset, w: &mut impl Write) -> std::io::Result<()> {
    let g = &ds.graph;
    let with_table = !ds.ids.is_identity();
    let flags = if with_table { FLAG_ID_TABLE } else { 0 };
    let plain = g.num_plain_edges() as u64;
    let loops = g.num_edges() as u64 - plain;
    w.write_all(BINARY_MAGIC)?;
    w.write_all(&BINARY_VERSION.to_le_bytes())?;
    w.write_all(&flags.to_le_bytes())?;
    w.write_all(&(g.num_nodes() as u64).to_le_bytes())?;
    w.write_all(&plain.to_le_bytes())?;
    w.write_all(&loops.to_le_bytes())?;
    if with_table {
        for &ext in ds.ids.externals() {
            w.write_all(&ext.to_le_bytes())?;
        }
    }
    for (u, v, weight) in g.edges() {
        if u == v {
            continue;
        }
        w.write_all(&(u.0).to_le_bytes())?;
        w.write_all(&(v.0).to_le_bytes())?;
        w.write_all(&weight.to_le_bytes())?;
    }
    for v in g.nodes() {
        let loop_w = g.self_loop(v);
        if loop_w > 0.0 {
            w.write_all(&(v.0).to_le_bytes())?;
            w.write_all(&loop_w.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Summary statistics of a dataset file, computed in one streaming pass.
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetStats {
    /// Distinct nodes (including header-declared isolated nodes).
    pub nodes: usize,
    /// Distinct edges after parallel-edge merging (self-loops with positive
    /// total weight included, matching [`WeightedGraph::num_edges`]).
    pub edges: usize,
    /// Sum of all edge weights (each input edge counted once).
    pub total_weight: f64,
    /// Minimum weighted degree.
    pub min_degree: f64,
    /// Mean weighted degree.
    pub mean_degree: f64,
    /// Maximum weighted degree.
    pub max_degree: f64,
}

/// Hashes a `u64` key through the splitmix64 finalizer, so every bit of the
/// key reaches the bits a hash table indexes by.
#[derive(Default)]
struct Mix64(u64);

impl Hasher for Mix64 {
    fn finish(&self) -> u64 {
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// Computes [`DatasetStats`] without materializing adjacency lists: memory
/// is `O(distinct nodes + distinct edges)` (id map, degrees and edge-dedup
/// set), and a text file streams through a bounded buffer. A `.dkcb` file is
/// read whole by the reader of [`read_dataset`], with all of its checks, so
/// both accept and reject the same files. Degrees are kept in first-seen
/// order and summed in that order, so every call on the same file returns
/// the same bits.
///
/// An edge is one `u64` in the dedup set: its two internal ids, smaller
/// first. A self-loop enters the set once a copy of it weighs more than 0:
/// weights are finite and non-negative, so that is when its merged weight
/// is positive and `WeightedGraph::num_edges` counts it.
pub fn stream_stats(
    path: impl AsRef<Path>,
    format: DatasetFormat,
) -> Result<DatasetStats, ParseError> {
    let mut interner = EdgeInterner::default();
    let mut degrees: Vec<f64> = Vec::new();
    let mut edges: HashSet<u64, BuildHasherDefault<Mix64>> = HashSet::default();
    let mut total_weight = 0.0;
    let mut declared: u64 = 0;
    let path = path.as_ref();
    let file_len = std::fs::metadata(path)?.len();
    stream_items(path, format, &mut |item| {
        match item {
            StreamItem::Edge(u, v, w) => {
                total_weight += w;
                let (u, v) = interner.intern(u, v)?;
                degrees.resize(interner.ids.len(), 0.0);
                degrees[u.index()] += w;
                if u != v {
                    degrees[v.index()] += w;
                }
                if u != v || w > 0.0 {
                    edges.insert(u64::from(u.0.min(v.0)) << 32 | u64::from(u.0.max(v.0)));
                }
            }
            StreamItem::DeclaredNodes(n) => declared = declared.max(n),
        }
        Ok(())
    })?;
    // Same range and weight discipline as `read_dataset`: a bogus declared
    // count or an overflowing weight sum must fail identically in both paths.
    let declared = checked_declared_nodes(declared, degrees.len(), file_len)?;
    ParseError::check_weight_total(total_weight)?;
    let nodes = degrees.len().max(declared);
    let edges = edges.len();
    let isolated = nodes - degrees.len();
    let mut min_degree = if isolated > 0 { 0.0 } else { f64::INFINITY };
    let mut max_degree: f64 = 0.0;
    let mut degree_sum = 0.0;
    for &d in &degrees {
        min_degree = min_degree.min(d);
        max_degree = max_degree.max(d);
        degree_sum += d;
    }
    if nodes == 0 {
        min_degree = 0.0;
    }
    Ok(DatasetStats {
        nodes,
        edges,
        total_weight,
        min_degree,
        mean_degree: if nodes == 0 {
            0.0
        } else {
            degree_sum / nodes as f64
        },
        max_degree,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A test's own directory under the temp directory, removed with its
    /// files when the test ends.
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
            std::env::temp_dir().join(format!("dkc_ingest_tests-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TestDir(dir)
    }

    fn write_text(dir: &Path, name: &str, text: &str) -> PathBuf {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn id_map_interns_in_first_seen_order() {
        let mut map = NodeIdMap::new();
        assert_eq!(map.intern(1_000_000_000), NodeId(0));
        assert_eq!(map.intern(7), NodeId(1));
        assert_eq!(map.intern(1_000_000_000), NodeId(0));
        assert_eq!(map.external(NodeId(1)), 7);
        assert_eq!(map.get(7), Some(NodeId(1)));
        assert_eq!(map.get(8), None);
        assert!(!map.is_identity());
        assert!(NodeIdMap::identity(5).is_identity());
    }

    #[test]
    fn id_map_pads_with_fresh_sequential_ids() {
        let mut map = NodeIdMap::identity(3);
        map.pad_to(5);
        assert_eq!(map.externals(), &[0, 1, 2, 3, 4]);
        assert!(map.is_identity());
        let mut sparse = NodeIdMap::new();
        sparse.intern(10);
        sparse.intern(12);
        sparse.pad_to(4);
        assert_eq!(sparse.externals(), &[10, 12, 13, 14]);
    }

    #[test]
    fn identity_maps_carry_no_hash_entries() {
        // Dense reads (METIS, table-less binary) must not pay one hash entry
        // per node for a mapping that carries no information.
        let mut map = NodeIdMap::identity(1000);
        map.pad_to(1500);
        assert!(map.to_internal.is_empty());
        assert!(map.is_identity());
        assert_eq!(map.get(1499), Some(NodeId(1499)));
        assert_eq!(map.get(1500), None);
        // Sequential interning from empty stays hash-free too...
        let mut seq = NodeIdMap::new();
        for i in 0..10 {
            assert_eq!(seq.intern(i), NodeId(i as u32));
        }
        assert!(seq.to_internal.is_empty());
        // ...until the first out-of-order id breaks the prefix.
        seq.intern(100);
        assert_eq!(seq.to_internal.len(), 1);
        assert_eq!(seq.intern(5), NodeId(5));
        assert_eq!(seq.intern(100), NodeId(10));
        assert_eq!(seq.intern(11), NodeId(11));
        assert!(!seq.is_identity());
    }

    #[test]
    fn sparse_ids_load_in_o_edges_memory() {
        // Acceptance pin: a max node id of 10^9 with few edges must produce a
        // graph sized by the number of *distinct ids*, not by the id space.
        let dir = test_dir("sparse");
        let mut text = String::new();
        for i in 0..1_000u64 {
            use std::fmt::Write as _;
            let _ = writeln!(text, "{} {}", i * 999_983, 1_000_000_000 - i);
        }
        let path = write_text(&dir, "sparse.edges", &text);
        let ds = read_dataset(&path, DatasetFormat::EdgeList).unwrap();
        assert!(ds.graph.num_nodes() <= 2_000);
        assert_eq!(ds.graph.num_edges(), 1_000);
        assert_eq!(
            ds.external(ds.ids.get(1_000_000_000).unwrap()),
            1_000_000_000
        );
        ds.graph.check_consistency();
    }

    #[test]
    fn edge_list_dataset_round_trips_with_isolated_nodes() {
        let ds =
            Dataset::from_external_edges(6, [(100, 200, 1.5), (200, 300, 2.0), (100, 100, 0.5)]);
        assert_eq!(ds.graph.num_nodes(), 6);
        let dir = test_dir("el-roundtrip");
        let path = dir.join("g.edges");
        write_dataset(&ds, &path, DatasetFormat::EdgeList).unwrap();
        let back = read_dataset(&path, DatasetFormat::EdgeList).unwrap();
        assert_eq!(back.graph.num_nodes(), 6);
        assert_eq!(back.graph.num_edges(), ds.graph.num_edges());
        for &ext in &[100u64, 200, 300] {
            let a = ds.ids.get(ext).unwrap();
            let b = back.ids.get(ext).unwrap();
            assert!(crate::weights_close(
                ds.graph.degree(a),
                back.graph.degree(b)
            ));
        }
    }

    #[test]
    fn metis_round_trip_preserves_structure() {
        let ds =
            Dataset::from_external_edges(5, [(9, 5, 2.0), (5, 7, 1.0), (7, 9, 0.5), (9, 9, 3.0)]);
        let dir = test_dir("metis");
        let path = dir.join("g.metis");
        write_dataset(&ds, &path, DatasetFormat::Metis).unwrap();
        let back = read_dataset(&path, DatasetFormat::Metis).unwrap();
        assert_eq!(back.graph.num_nodes(), ds.graph.num_nodes());
        assert_eq!(back.graph.num_edges(), ds.graph.num_edges());
        assert!(back.ids.is_identity());
        // METIS is positional: internal order is preserved exactly.
        for v in ds.graph.nodes() {
            assert!(crate::weights_close(
                ds.graph.degree(v),
                back.graph.degree(v)
            ));
        }
        back.graph.check_consistency();
    }

    #[test]
    fn metis_unweighted_files_parse() {
        let dir = test_dir("metis-unweighted");
        let path = write_text(&dir, "g.metis", "% comment\n4 3\n2 3\n1\n1 4\n3\n");
        let ds = read_dataset(&path, DatasetFormat::Metis).unwrap();
        assert_eq!(ds.graph.num_nodes(), 4);
        assert_eq!(ds.graph.num_edges(), 3);
        assert_eq!(ds.graph.degree(NodeId(0)), 2.0);
    }

    #[test]
    fn metis_rejects_broken_files() {
        let dir = test_dir("metis-bad");
        // Asymmetric adjacency: edge 1-2 only in node 1's line.
        let p = write_text(&dir, "asym.metis", "3 1\n2\n\n\n");
        assert!(read_dataset(&p, DatasetFormat::Metis).is_err());
        // Edge count mismatch.
        let p = write_text(&dir, "count.metis", "3 5\n2\n1 3\n2\n");
        assert!(read_dataset(&p, DatasetFormat::Metis).is_err());
        // Neighbor out of range.
        let p = write_text(&dir, "range.metis", "2 1\n3\n3\n");
        assert!(read_dataset(&p, DatasetFormat::Metis).is_err());
        // Missing adjacency lines.
        let p = write_text(&dir, "short.metis", "3 1\n2\n1\n");
        assert!(read_dataset(&p, DatasetFormat::Metis).is_err());
        // Mirrored entries disagreeing on the weight.
        let p = write_text(&dir, "weight.metis", "2 1 001\n2 5\n1 7\n");
        let err = read_dataset(&p, DatasetFormat::Metis).unwrap_err();
        assert!(err.to_string().contains("asymmetric edge weights"), "{err}");
    }

    #[test]
    fn metis_malformed_quotes_are_bounded() {
        // An adjacency line as long as a line may be, whose last token is
        // not a number.
        let dir = test_dir("metis-long-line");
        let mut line = "2 ".repeat((1 << 19) - 1);
        line.push_str("xx");
        assert_eq!(line.len(), CHUNK_BYTES);
        let p = write_text(&dir, "long.metis", &format!("2 1\n{line}\n1\n"));
        let err = read_dataset(&p, DatasetFormat::Metis).unwrap_err();
        let ParseError::Malformed { line, content } = &err else {
            panic!("expected Malformed, got {err:?}");
        };
        assert_eq!(*line, 2);
        assert!(content.ends_with('…'), "{content}");
        assert!(
            err.to_string().len() < 200,
            "{} bytes",
            err.to_string().len()
        );
    }

    /// A METIS line is bounded like an edge-list line: one of exactly
    /// `CHUNK_BYTES` bytes before its newline reads, one byte more is
    /// `LineTooLong` with its line number, in the header, in an adjacency
    /// list, in a comment, on the last line and on a line that never ends.
    #[test]
    fn metis_lines_are_bounded_like_edge_list_lines() {
        let dir = test_dir("metis-bounded");
        let padded = |len: usize| format!("2{}", " ".repeat(len - 1));
        let fits = write_text(
            &dir,
            "fits.metis",
            &format!("2 1\n{}\n1\n", padded(CHUNK_BYTES)),
        );
        let ds = read_dataset(&fits, DatasetFormat::Metis).unwrap();
        assert_eq!((ds.graph.num_nodes(), ds.graph.num_edges()), (2, 1));
        let (csr, _) = read_csr(&fits, DatasetFormat::Metis).unwrap();
        assert_eq!(csr.num_arcs(), 2);
        let stats = stream_stats(&fits, DatasetFormat::Metis).unwrap();
        assert_eq!((stats.nodes, stats.edges), (2, 1));
        let long = padded(CHUNK_BYTES + 1);
        let cases = [
            (format!("% c\n{long}\n2 1\n2\n1\n"), 2),
            (format!("2 1\n{long}\n1\n"), 2),
            (format!("2 1\n2\n%{long}\n1\n"), 3),
            (format!("2 1\n2\n{long}"), 3),
            (format!("% c\n2 1\n{}", "2 ".repeat(2 * CHUNK_BYTES)), 3),
        ];
        for (i, (text, line)) in cases.into_iter().enumerate() {
            let path = write_text(&dir, &format!("case{i}.metis"), &text);
            for e in [
                read_dataset(&path, DatasetFormat::Metis).err(),
                read_csr(&path, DatasetFormat::Metis).err(),
                stream_stats(&path, DatasetFormat::Metis).err(),
            ] {
                let e = e.expect("the file has an overlong line");
                assert!(
                    matches!(e, ParseError::LineTooLong { line: l, limit: CHUNK_BYTES } if l == line),
                    "case {i}: {e}"
                );
            }
        }
    }

    /// Padding past an id map whose largest id is `u64::MAX` wraps the
    /// search to 0 instead of panicking, in every reader that pads and in
    /// `Dataset::from_external_edges`; `stream_stats`, which never pads,
    /// counts the same nodes.
    #[test]
    fn padding_wraps_past_the_largest_external_id() {
        let mut map = NodeIdMap::new();
        map.intern(u64::MAX - 1);
        map.intern(1);
        map.pad_to(5);
        assert_eq!(map.externals(), &[u64::MAX - 1, 1, u64::MAX, 0, 2]);

        let expected = [u64::MAX, 0, 1];
        let ds = Dataset::from_external_edges(3, [(u64::MAX, 0, 1.0)]);
        assert_eq!(ds.ids.externals(), &expected);
        assert_eq!(ds.graph.num_nodes(), 3);
        let dir = test_dir("pad-wrap");
        let path = write_text(&dir, "p.edges", "# nodes: 3\n18446744073709551615 0\n");
        let ds = read_dataset(&path, DatasetFormat::EdgeList).unwrap();
        assert_eq!(ds.ids.externals(), &expected);
        assert_eq!((ds.graph.num_nodes(), ds.graph.num_edges()), (3, 1));
        let (csr, externals) = read_csr(&path, DatasetFormat::EdgeList).unwrap();
        assert_eq!(externals, expected);
        assert_eq!(csr.num_nodes(), 3);
        let stats = stream_stats(&path, DatasetFormat::EdgeList).unwrap();
        assert_eq!((stats.nodes, stats.edges), (3, 1));
    }

    /// A text of random `pieces`: digit runs, among them ids of 18 to 21
    /// digits and weights of 14 to 17, the signs, dots, exponents and `x`
    /// of malformed and non-integer numbers, comment marks, the five ASCII
    /// bytes `char::is_whitespace` accepts, `\x1c` (which it does not), and
    /// two non-ASCII spaces.
    fn random_line(pieces: &[(usize, usize, u64)]) -> String {
        const SPACES: [char; 5] = ['\t', '\x0b', '\x0c', '\r', ' '];
        let mut line = String::new();
        for &(kind, n, seed) in pieces {
            match kind {
                0 => line.push_str(&digits(1 + n % 3, seed)),
                1 => line.push_str(&digits(18 + n % 4, seed)),
                2 => line.push_str(&digits(14 + n % 4, seed)),
                3 => line.push_str(&digits(1 + n % 21, seed)),
                4 | 5 => line.push(SPACES[n % 5]),
                6 => line.push(['+', '-', '.', 'e', 'x', '#'][n % 6]),
                7 => line.push('\x1c'),
                _ => line.push(['\u{a0}', '\u{3000}'][n % 2]),
            }
        }
        line
    }

    /// `len` pseudo-random decimal digits drawn from `seed`.
    fn digits(len: usize, seed: u64) -> String {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                char::from(b'0' + ((x >> 33) % 10) as u8)
            })
            .collect()
    }

    /// `fast_edge` agrees with `parse_edge_tokens` on `line`: it declines
    /// the line, or returns bit for bit what the tokenizer reads from the
    /// trimmed line, and the line's length. It does so whether the line
    /// ends the text or a newline and another line follow. Returns whether
    /// it accepted.
    fn assert_fast_path_agrees(line: &str) -> bool {
        let fast = fast_edge(line.as_bytes());
        let followed = format!("{line}\n1 2 3\n");
        assert_eq!(fast_edge(followed.as_bytes()), fast, "{line:?}");
        let Some(((u, v, w), len)) = fast else {
            return false;
        };
        assert_eq!(len, line.len(), "{line:?}");
        let exact = parse_edge_tokens(line.trim(), 1)
            .unwrap_or_else(|e| panic!("the fast path read {line:?}, the tokenizer did not: {e}"));
        assert_eq!(
            (u, v, w.to_bits()),
            (exact.0, exact.1, exact.2.to_bits()),
            "{line:?}"
        );
        true
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4000))]

        #[test]
        fn fast_path_agrees_with_the_tokenizer(
            pieces in proptest::collection::vec((0usize..9, 0usize..84, 0u64..u64::MAX), 1..10)
        ) {
            assert_fast_path_agrees(&random_line(&pieces));
        }

        /// Lines of the accepted shape, `u v [w]` apart by any of the five
        /// spaces, are read exactly when the ids have at most 19 digits and
        /// the weight at most 15.
        #[test]
        fn fast_path_reads_exactly_the_short_integer_lines(
            lens in (1usize..22, 1usize..22, 0usize..18),
            spaces in proptest::collection::vec(0usize..5, 4..5),
            runs in (0usize..3, 1usize..4, 1usize..4, 0usize..3),
            seed in 0u64..u64::MAX
        ) {
            const SPACES: [&str; 5] = ["\t", "\x0b", "\x0c", "\r", " "];
            let run = |i: usize, n: usize| SPACES[spaces[i]].repeat(n);
            let (u_len, v_len, w_len) = lens;
            let mut line = run(0, runs.0) + &digits(u_len, seed) + &run(1, runs.1);
            line += &digits(v_len, seed ^ 1);
            if w_len > 0 {
                line += &(run(2, runs.2) + &digits(w_len, seed ^ 2));
            }
            line += &run(3, runs.3);
            let short = u_len <= FAST_ID_DIGITS && v_len <= FAST_ID_DIGITS && w_len <= FAST_WEIGHT_DIGITS;
            proptest::prop_assert_eq!(assert_fast_path_agrees(&line), short, "{:?}", line);
        }
    }

    /// Every data line of edge lists shaped like the benchmark's two text
    /// inputs takes the fast path: BA graphs with sparse 30-bit ids, one
    /// with unit weights and one with integer weights up to 10, as
    /// `write_dataset` writes them.
    #[test]
    fn fast_path_reads_every_data_line_of_generated_edge_lists() {
        use crate::generators::{barabasi_albert, with_random_integer_weights};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let ba = barabasi_albert(2_500, 4, &mut rng);
        let weighted = with_random_integer_weights(&ba, 10, &mut rng);
        let dir = test_dir("fast-path-inputs");
        for (name, graph) in [("ba", ba), ("wba", weighted)] {
            let mut ids = NodeIdMap::new();
            for v in 0..graph.num_nodes() as u64 {
                ids.intern((v.wrapping_mul(0x9E37_79B1) & ((1 << 30) - 1)) ^ 0x2A5);
            }
            let path = dir.join(format!("{name}.edges"));
            write_dataset(&Dataset { graph, ids }, &path, DatasetFormat::EdgeList).unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            let data = text.lines().filter(|l| !l.starts_with('#'));
            assert!(data.clone().count() >= 9_000, "{name}");
            for line in data {
                assert!(assert_fast_path_agrees(line), "{name}: {line:?}");
            }
        }
    }

    #[test]
    fn binary_round_trip_preserves_ids_exactly() {
        let ds = Dataset::from_external_edges(
            5,
            [(1_000_000_000, 5, 2.5), (5, 42, 1.0), (42, 42, 0.75)],
        );
        let dir = test_dir("binary");
        let path = dir.join("g.dkcb");
        write_dataset(&ds, &path, DatasetFormat::Binary).unwrap();
        let back = read_dataset(&path, DatasetFormat::Binary).unwrap();
        assert_eq!(back.ids.externals(), ds.ids.externals());
        assert_eq!(back.graph.num_nodes(), ds.graph.num_nodes());
        assert_eq!(back.graph.num_edges(), ds.graph.num_edges());
        for v in ds.graph.nodes() {
            assert_eq!(ds.graph.degree(v), back.graph.degree(v));
            assert_eq!(ds.graph.self_loop(v), back.graph.self_loop(v));
        }
    }

    #[test]
    fn binary_identity_maps_skip_the_table() {
        let mut g = WeightedGraph::new(3);
        g.add_edge(NodeId(0), NodeId(2), 1.0);
        let ds = Dataset::from_graph(g);
        let dir = test_dir("binary-id");
        let path = dir.join("g.dkcb");
        write_dataset(&ds, &path, DatasetFormat::Binary).unwrap();
        // header (32 bytes) + one edge record (16 bytes), no id table
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 32 + 16);
        let back = read_dataset(&path, DatasetFormat::Binary).unwrap();
        assert!(back.ids.is_identity());
        assert_eq!(back.graph.num_nodes(), 3);
    }

    /// `read_dataset` and `stream_stats` both reject each corruption.
    #[test]
    fn binary_rejects_corruption() {
        let ds = Dataset::from_external_edges(2, [(7, 9, 1.0)]);
        let dir = test_dir("binary-bad");
        let path = dir.join("g.dkcb");
        write_dataset(&ds, &path, DatasetFormat::Binary).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let truncated = bytes[..bytes.len() - 4].to_vec();
        let mut trailing = bytes.clone();
        trailing.push(0);
        let mut magic = bytes.clone();
        magic[0] = b'X';
        // The id table follows the 32-byte header: 7 then 9, made 7 twice.
        let mut duplicate = bytes.clone();
        assert_eq!(duplicate[40..48], 9u64.to_le_bytes());
        duplicate[40..48].copy_from_slice(&7u64.to_le_bytes());
        for (name, variant) in [
            ("trunc", truncated),
            ("trail", trailing),
            ("magic", magic),
            ("duplicate", duplicate),
        ] {
            let p = dir.join(format!("{name}.dkcb"));
            std::fs::write(&p, &variant).unwrap();
            assert!(read_dataset(&p, DatasetFormat::Binary).is_err(), "{name}");
            assert!(stream_stats(&p, DatasetFormat::Binary).is_err(), "{name}");
        }
        let p = dir.join("duplicate.dkcb");
        let err = stream_stats(&p, DatasetFormat::Binary).unwrap_err();
        assert!(err.to_string().contains("duplicate external id 7"), "{err}");
    }

    #[test]
    fn chunked_parse_matches_single_chunk_parse() {
        // A file larger than one chunk exercises the batching path; the
        // result must be identical to a small-file parse of the same data.
        let dir = test_dir("chunked");
        let mut text = String::from("# nodes: 600\n");
        for i in 0..120_000u64 {
            use std::fmt::Write as _;
            let _ = writeln!(text, "{} {} {}", i % 500, (i * 7) % 500, 1 + (i % 3));
        }
        assert!(text.len() > CHUNK_BYTES);
        let path = write_text(&dir, "big.edges", &text);
        let ds = read_dataset(&path, DatasetFormat::EdgeList).unwrap();
        assert_eq!(ds.graph.num_nodes(), 600);
        let small = Dataset::from_external_edges(
            600,
            (0..120_000u64).map(|i| (i % 500, (i * 7) % 500, (1 + (i % 3)) as f64)),
        );
        assert_eq!(ds.graph.num_edges(), small.graph.num_edges());
        for v in small.graph.nodes() {
            assert!(crate::weights_close(
                ds.graph.degree(v),
                small.graph.degree(v)
            ));
        }
    }

    /// Weights that are each finite but overflow when summed are one typed
    /// error in every reader and in `stream_stats`: a merged parallel edge
    /// (the 20-byte edge list used to panic in `GraphBuilder`), a total
    /// weighted degree 2·w(E) past the `f64` range (the triangle used to
    /// read, with `inf` degrees), and a METIS line listing its neighbour
    /// twice (used to fail as "asymmetric edge weights").
    #[test]
    fn overflowing_weight_sums_are_a_typed_error() {
        let dir = test_dir("weight-overflow");
        let parallel = write_text(&dir, "parallel.edges", "1 2 1e308\n1 2 1e308\n");
        assert_eq!(std::fs::metadata(&parallel).unwrap().len(), 20);
        let triangle = write_text(&dir, "triangle.edges", "1 2 1e308\n2 3 1e308\n3 1 1e308\n");
        let triangle_metis = write_text(
            &dir,
            "triangle.metis",
            "3 3 001\n2 1e308 3 1e308\n1 1e308 3 1e308\n1 1e308 2 1e308\n",
        );
        let mut g = WeightedGraph::new(3);
        for (u, v) in [(0, 1), (1, 2), (2, 0)] {
            g.add_edge(NodeId(u), NodeId(v), 1e308);
        }
        let triangle_dkcb = dir.join("triangle.dkcb");
        write_dataset(
            &Dataset::from_graph(g),
            &triangle_dkcb,
            DatasetFormat::Binary,
        )
        .unwrap();
        let twice = write_text(
            &dir,
            "twice.metis",
            "2 2 001\n2 1e308 2 1e308\n1 1e308 1 1e308\n",
        );
        for (path, format) in [
            (&parallel, DatasetFormat::EdgeList),
            (&triangle, DatasetFormat::EdgeList),
            (&triangle_metis, DatasetFormat::Metis),
            (&triangle_dkcb, DatasetFormat::Binary),
            (&twice, DatasetFormat::Metis),
        ] {
            for err in [
                read_dataset(path, format).unwrap_err(),
                stream_stats(path, format).unwrap_err(),
            ] {
                assert!(
                    matches!(err, ParseError::WeightOverflow),
                    "{}: {err}",
                    path.display()
                );
            }
        }
        // The largest weights that still sum into range read as before.
        let edge = write_text(&dir, "edge.edges", "1 2 4e307\n1 2 4e307\n");
        let ds = read_dataset(&edge, DatasetFormat::EdgeList).unwrap();
        assert_eq!(ds.graph.total_edge_weight(), 8e307);
        assert_eq!(
            stream_stats(&edge, DatasetFormat::EdgeList)
                .unwrap()
                .total_weight,
            8e307
        );
    }

    /// A declared node count no byte of the file describes is bounded by
    /// the file's length plus `UNDESCRIBED_NODE_ALLOWANCE`: a 22-byte edge
    /// list (or a 32-byte `.dkcb` header) claiming 50M nodes is a typed
    /// error in both readers instead of a 50M-node graph, while a graph
    /// with a thousand isolated nodes and no edges still reads.
    #[test]
    fn declared_nodes_are_bounded_by_the_file() {
        let dir = test_dir("declared");
        let edges = write_text(&dir, "huge.edges", "# nodes: 50000000\n1 2\n");
        let mut dkcb = BINARY_MAGIC.to_vec();
        dkcb.extend_from_slice(&BINARY_VERSION.to_le_bytes());
        dkcb.extend_from_slice(&0u16.to_le_bytes());
        for field in [50_000_000u64, 0, 0] {
            dkcb.extend_from_slice(&field.to_le_bytes());
        }
        let binary = dir.join("huge.dkcb");
        std::fs::write(&binary, &dkcb).unwrap();
        for (path, format, file_len) in [
            (&edges, DatasetFormat::EdgeList, 22),
            (&binary, DatasetFormat::Binary, 32),
        ] {
            let seen = if format == DatasetFormat::EdgeList {
                2
            } else {
                0
            };
            let limit = seen + file_len + UNDESCRIBED_NODE_ALLOWANCE;
            for err in [
                read_dataset(path, format).unwrap_err(),
                stream_stats(path, format).unwrap_err(),
            ] {
                assert!(
                    matches!(err, ParseError::DeclaredNodes { declared: 50_000_000, limit: l } if l == limit),
                    "{format:?}: {err}"
                );
            }
        }
        // What `dkc generate er --nodes 1000 --prob 1e-7` writes.
        let sparse = write_text(&dir, "isolated.edges", "# nodes: 1000  edges: 0\n");
        assert_eq!(
            read_dataset(&sparse, DatasetFormat::EdgeList)
                .unwrap()
                .graph
                .num_nodes(),
            1000
        );
        assert_eq!(
            stream_stats(&sparse, DatasetFormat::EdgeList)
                .unwrap()
                .nodes,
            1000
        );
    }

    #[test]
    fn edge_list_parse_errors_carry_line_numbers() {
        let dir = test_dir("lineno");
        let long = format!("{}€ {}", "7".repeat(79), "x".repeat(1000));
        let rows = [
            ("1 2\n# ok\n3 4 junk x\n".to_string(), 3),
            ("0\n".to_string(), 1),
            ("a b\n".to_string(), 1),
            ("0 1 -2\n".to_string(), 1),
            ("0 1 nan\n".to_string(), 1),
            ("0 1 2.5 junk\n".to_string(), 1),
            ("0 1 2 3\n".to_string(), 1),
            ("0 1\n2 3 1.0 x\n".to_string(), 2),
            (format!("0 1\n{long}\n"), 2),
        ];
        for (text, expected) in rows {
            let path = write_text(&dir, "bad.edges", &text);
            let err = read_dataset(&path, DatasetFormat::EdgeList).unwrap_err();
            match &err {
                ParseError::Malformed { line, .. } => assert_eq!(*line, expected, "{text:?}"),
                other => panic!("expected Malformed for {text:?}, got {other:?}"),
            }
            assert!(err.to_string().len() < 200, "{err}");
        }
    }

    #[test]
    fn edge_list_lines_merge_and_pad_through_the_id_map() {
        let dir = test_dir("el-lines");
        let read = |text: &str| {
            let path = write_text(&dir, "g.edges", text);
            read_dataset(&path, DatasetFormat::EdgeList).unwrap()
        };
        let degree = |ds: &Dataset, ext: u64| ds.graph.degree(ds.ids.get(ext).unwrap());
        // Comments, blank lines, and a missing weight read as 1.0.
        let ds = read("# a comment\n0 1 2.5\n1 2\n% another comment\n\n2 0 1.5\n");
        ds.graph.check_consistency();
        assert_eq!((ds.graph.num_nodes(), ds.graph.num_edges()), (3, 3));
        assert_eq!(degree(&ds, 0), 4.0);
        assert_eq!(degree(&ds, 1), 3.5);
        // Both directions of a pair merge into one edge.
        let ds = read("0 1 1\n1 0 2\n");
        assert_eq!(ds.graph.num_edges(), 1);
        assert_eq!(degree(&ds, 0), 3.0);
        // A self-loop is an edge of its own, counted once in the degree.
        let ds = read("3 3 2.0\n0 3 1.0\n");
        assert_eq!(ds.graph.num_nodes(), 2);
        assert_eq!(ds.graph.self_loop(ds.ids.get(3).unwrap()), 2.0);
        assert_eq!(degree(&ds, 3), 3.0);
        // `# nodes:` pads with isolated nodes and never drops a mentioned one.
        let ds = read("# nodes: 4  edges: 1\n0 2 1\n");
        assert_eq!((ds.graph.num_nodes(), ds.graph.num_edges()), (4, 1));
        assert_eq!(read("# nodes: 1\n0 5 1\n").graph.num_nodes(), 2);
    }

    /// Asserts two datasets are equal bit for bit: adjacency order and
    /// weights, self-loops, totals and the id map.
    fn assert_same_dataset(a: &Dataset, b: &Dataset) {
        assert_eq!(a.ids.externals(), b.ids.externals());
        assert_eq!(a.graph.num_nodes(), b.graph.num_nodes());
        assert_eq!(a.graph.num_plain_edges(), b.graph.num_plain_edges());
        let bits = |g: &WeightedGraph, v| -> Vec<(NodeId, u64)> {
            g.neighbors(v)
                .iter()
                .map(|&(u, w)| (u, w.to_bits()))
                .collect()
        };
        for v in a.graph.nodes() {
            assert_eq!(bits(&a.graph, v), bits(&b.graph, v), "node {v}");
            assert_eq!(
                a.graph.self_loop(v).to_bits(),
                b.graph.self_loop(v).to_bits()
            );
        }
        assert_eq!(
            a.graph.total_edge_weight().to_bits(),
            b.graph.total_edge_weight().to_bits()
        );
    }

    /// Appends comment lines until `text` is exactly `len` bytes long.
    fn pad_to(text: &mut String, len: usize) {
        while text.len() < len {
            let left = len - text.len();
            let line = if left <= 100 {
                left
            } else {
                left.min(100).min(left - 2)
            };
            assert!(line >= 2, "cannot pad by a single byte");
            text.push('#');
            text.push_str(&"x".repeat(line - 2));
            text.push('\n');
        }
        assert_eq!(text.len(), len);
    }

    #[test]
    fn block_reader_cuts_blocks_at_line_ends() {
        let dir = test_dir("blocks");
        let mut edges: Vec<(u64, u64, f64)> = Vec::new();
        let mut text = String::from("# nodes: 5000\r\n");
        let mut push = |text: &mut String, u: u64, v: u64, w: f64, end: &str| {
            use std::fmt::Write as _;
            let _ = write!(text, "{u} {v} {w}{end}");
            edges.push((u, v, w));
        };
        // CRLF line ends up to just before the first block boundary.
        let mut i = 0u64;
        while text.len() < CHUNK_BYTES - 200 {
            push(
                &mut text,
                i % 997,
                (i * 31) % 1999,
                0.1 * (i % 7) as f64,
                "\r\n",
            );
            i += 1;
        }
        // A data line straddling the first boundary.
        pad_to(&mut text, CHUNK_BYTES - 5);
        push(&mut text, 777_777, 888_888, 0.25, "\r\n");
        // LF line ends, then a multi-byte UTF-8 character straddling the
        // second boundary ("# " ends one byte before it, "é" is 2 bytes).
        while text.len() < 2 * CHUNK_BYTES - 200 {
            push(&mut text, (i * 7) % 1999, i % 997, 0.3, "\n");
            i += 1;
        }
        pad_to(&mut text, 2 * CHUNK_BYTES - 3);
        text.push_str("# ééé größe\n");
        // A comment and a data line each as long as a line may be, so
        // each straddles a block boundary.
        text.push_str(&format!("#{}\n", "y".repeat(CHUNK_BYTES - 1)));
        text.push_str(&" ".repeat(CHUNK_BYTES - "4 4000000000 2".len()));
        push(&mut text, 4, 4_000_000_000, 2.0, "\n");
        // The last line has no newline.
        push(&mut text, 5, 6, 1.5, "");
        let path = write_text(&dir, "blocks.edges", &text);
        let ds = read_dataset(&path, DatasetFormat::EdgeList).unwrap();
        let expected = Dataset::from_external_edges(5000, edges.iter().copied());
        assert_same_dataset(&ds, &expected);
        assert!(ds.ids.get(888_888).is_some() && ds.ids.get(6).is_some());
    }

    #[test]
    fn block_reader_reports_exact_line_numbers_past_the_first_block() {
        let dir = test_dir("lineno-far");
        let mut text = String::new();
        let mut lines = 0usize;
        while text.len() < 3 * CHUNK_BYTES {
            text.push_str(if lines.is_multiple_of(3) {
                "# comment\n"
            } else {
                "12 34 0.5\n"
            });
            lines += 1;
        }
        let bad_line = lines + 1;
        let mut bad = text.clone();
        bad.push_str("56 x\n7 8\n");
        let path = write_text(&dir, "bad.edges", &bad);
        match read_dataset(&path, DatasetFormat::EdgeList).unwrap_err() {
            ParseError::Malformed { line, content } => {
                assert_eq!(line, bad_line);
                assert_eq!(content, "56 x");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
        // Invalid UTF-8 is an I/O error of kind `InvalidData` naming its line.
        let mut bytes = text.into_bytes();
        bytes.extend_from_slice(b"9 10\n# \xff\xfe\n");
        let path = dir.join("utf8.edges");
        std::fs::write(&path, &bytes).unwrap();
        match read_dataset(&path, DatasetFormat::EdgeList).unwrap_err() {
            ParseError::Io(e) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                assert!(
                    e.to_string().contains(&format!("line {}", bad_line + 1)),
                    "{e}"
                );
            }
            other => panic!("expected Io, got {other:?}"),
        }
    }

    /// Runs `f` on a thread of its own and returns its result, failing if
    /// it has not returned within a minute: a pipeline thread left blocked
    /// would hold the read forever.
    fn returns_in_time<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
        use std::sync::mpsc::RecvTimeoutError;
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(value) => value,
            Err(RecvTimeoutError::Timeout) => panic!("{what} still runs after a minute"),
            Err(RecvTimeoutError::Disconnected) => panic!("{what} panicked"),
        }
    }

    /// `lines` copies of one data line: few lines to a block, so a file of
    /// several blocks parses quickly in a debug build.
    fn long_lines(lines: usize) -> Vec<u8> {
        b"1234567890123456789 987654321098765432 7\n".repeat(lines)
    }

    /// A malformed line before an invalid byte is the error, whatever the
    /// pool size: with the byte in a later block, which the reader thread
    /// may parse before the caller interns the first, and in the same
    /// block. So is a malformed line after more blocks than the pipeline
    /// has parse buffers, and every read returns.
    #[test]
    fn edge_list_errors_do_not_depend_on_the_thread_count() {
        let dir = test_dir("utf8-threads");
        let mut later_block = b"1 x\n".to_vec();
        while later_block.len() < CHUNK_BYTES + CHUNK_BYTES / 2 {
            later_block.extend_from_slice(b"1 2\n");
        }
        later_block.extend_from_slice(b"3 \xff\n4 5\n");
        let same_block = b"1 2\n1 x\n3 \xff\n4 5\n".to_vec();
        // A line that never ends is found while the lines before it still
        // wait to be interned.
        let mut unended = b"1 x\n".to_vec();
        while unended.len() < CHUNK_BYTES / 2 {
            unended.extend_from_slice(b"1 2\n");
        }
        unended.resize(4 * CHUNK_BYTES, b'7');
        // Every parse buffer has gone round more than once before the bad
        // line, and good blocks follow it.
        let before = (PARSE_BUFFERS + 2) * CHUNK_BYTES / long_lines(1).len();
        let mut late = long_lines(before);
        late.extend_from_slice(b"1 x\n");
        late.extend_from_slice(&long_lines(before));
        for (name, bytes, line) in [
            ("later", later_block, 1),
            ("same", same_block, 2),
            ("unended", unended, 1),
            ("late", late, before + 1),
        ] {
            let path = dir.join(format!("{name}.edges"));
            std::fs::write(&path, &bytes).unwrap();
            for threads in [1, 2, 4] {
                let path = path.clone();
                let errors = returns_in_time(&format!("{name}, {threads} threads"), move || {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap();
                    pool.install(|| {
                        [
                            read_dataset(&path, DatasetFormat::EdgeList).err(),
                            read_csr(&path, DatasetFormat::EdgeList).err(),
                            stream_stats(&path, DatasetFormat::EdgeList).err(),
                        ]
                    })
                });
                for e in errors {
                    let e = e.expect("the file is malformed");
                    assert!(
                        matches!(&e, ParseError::Malformed { line: l, content } if *l == line && content == "1 x"),
                        "{name}, {threads} threads: {e}"
                    );
                }
            }
        }
    }

    /// Either pipeline stage stopping early ends the read with its error
    /// and leaves no thread behind: the sink's error (which is how the
    /// interner's `IdxOverflow` stops it) on the first edge, and on an edge
    /// after more blocks than there are parse buffers, and an I/O error in
    /// the reader thread.
    #[test]
    fn either_stage_stopping_early_leaves_no_thread_behind() {
        let dir = test_dir("early-exit");
        let per_block = CHUNK_BYTES / long_lines(1).len();
        let path = dir.join("g.edges");
        std::fs::write(&path, long_lines((PARSE_BUFFERS + 3) * per_block)).unwrap();
        for threads in [1, 2, 4] {
            for stop_at in [1, (PARSE_BUFFERS + 1) * per_block] {
                let path = path.clone();
                let (result, seen) = returns_in_time(
                    &format!("{threads} threads, stop at {stop_at}"),
                    move || {
                        let pool = rayon::ThreadPoolBuilder::new()
                            .num_threads(threads)
                            .build()
                            .unwrap();
                        let mut seen = 0;
                        let result = pool.install(|| {
                            stream_edge_list_items(&path, &mut |_| {
                                seen += 1;
                                if seen == stop_at {
                                    return Err(invalid("the sink stops"));
                                }
                                Ok(())
                            })
                        });
                        (result, seen)
                    },
                );
                assert!(
                    matches!(&result, Err(ParseError::Invalid(m)) if m == "the sink stops"),
                    "{threads} threads: {result:?}"
                );
                assert_eq!(seen, stop_at, "{threads} threads");
            }
            // A directory opens, but its first read fails.
            let dir_path = dir.to_path_buf();
            let result = returns_in_time(&format!("{threads} threads, a directory"), move || {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                pool.install(|| read_dataset(&dir_path, DatasetFormat::EdgeList).err())
            });
            assert!(
                matches!(result, Some(ParseError::Io(_))),
                "{threads} threads: {result:?}"
            );
        }
    }

    /// A line of more than `CHUNK_BYTES` bytes before its newline is
    /// rejected with its line number by every reader: one that ends in the
    /// next block, a data line padded to that length, the last line of the
    /// file, and a line that never ends. A line of exactly `CHUNK_BYTES`
    /// still reads (`block_reader_cuts_blocks_at_line_ends`).
    #[test]
    fn overlong_lines_are_rejected_with_their_line_number() {
        let dir = test_dir("overlong");
        let head = "# nodes: 4\n1 2\n";
        let long = "y".repeat(CHUNK_BYTES);
        let cases = [
            (format!("{head}#{long}\n3 4\n"), 3),
            (format!("{head}3 4\n {}4 1\n", " ".repeat(CHUNK_BYTES)), 4),
            (format!("{head}#{long}"), 3),
            (format!("{head}{long}{long}{long}"), 3),
        ];
        for (i, (text, line)) in cases.into_iter().enumerate() {
            let path = write_text(&dir, &format!("case{i}.edges"), &text);
            let errors = [
                read_dataset(&path, DatasetFormat::EdgeList).err(),
                read_csr(&path, DatasetFormat::EdgeList).err(),
                stream_stats(&path, DatasetFormat::EdgeList).err(),
            ];
            for e in errors {
                let e = e.expect("the file has an overlong line");
                assert!(
                    matches!(e, ParseError::LineTooLong { line: l, limit: CHUNK_BYTES } if l == line),
                    "case {i}: {e}"
                );
            }
        }
    }

    #[test]
    fn binary_header_claims_are_checked_before_allocating() {
        // A 100-byte file whose header claims far more records than follow.
        // Pre-sizing for 2⁵⁹ edge records would overflow `Vec` capacity and
        // panic; for 2³² it would ask for 64 GiB and abort.
        let dir = test_dir("binary-hostile");
        for (edges, loops) in [(1u64 << 59, 0u64), (1 << 32, 0), (0, 1 << 32), (3, 1 << 40)] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(BINARY_MAGIC);
            bytes.extend_from_slice(&BINARY_VERSION.to_le_bytes());
            bytes.extend_from_slice(&0u16.to_le_bytes());
            bytes.extend_from_slice(&4u64.to_le_bytes());
            bytes.extend_from_slice(&edges.to_le_bytes());
            bytes.extend_from_slice(&loops.to_le_bytes());
            // Valid records, cut short: edges (0, 1), then loops at 0.
            for _ in 0..edges.min(8) {
                bytes.extend_from_slice(&0u32.to_le_bytes());
                bytes.extend_from_slice(&1u32.to_le_bytes());
                bytes.extend_from_slice(&1.0f64.to_le_bytes());
            }
            for _ in 0..8 {
                bytes.extend_from_slice(&0u32.to_le_bytes());
                bytes.extend_from_slice(&1.0f64.to_le_bytes());
            }
            bytes.truncate(100);
            let path = dir.join("hostile.dkcb");
            std::fs::write(&path, &bytes).unwrap();
            match read_dataset(&path, DatasetFormat::Binary) {
                Err(ParseError::Invalid(msg)) => assert!(msg.contains("truncated"), "{msg}"),
                other => panic!("expected a truncation error, got {other:?}"),
            }
        }
    }

    #[test]
    fn stream_stats_is_reproducible_bit_for_bit() {
        // Sums of these weights depend on their order, so `mean_degree`
        // repeats only if the degrees are summed in a fixed order.
        let dir = test_dir("stats-repro");
        let weights = [0.1, 0.2, 0.3, 0.7, 0.001];
        let mut text = String::new();
        let mut order: Vec<u64> = Vec::new();
        let mut degree: HashMap<u64, f64> = HashMap::new();
        for i in 0..2000u64 {
            use std::fmt::Write as _;
            let (u, v, w) = (
                (i * 7919) % 1013 + 5_000_000,
                (i * 104_729) % 811,
                weights[i as usize % 5],
            );
            let _ = writeln!(text, "{u} {v} {w}");
            for x in [u, v] {
                if !degree.contains_key(&x) {
                    order.push(x);
                }
                *degree.entry(x).or_insert(0.0) += w;
            }
        }
        // The fixed order: first-seen external ids.
        let sum = order.iter().fold(0.0, |s, x| s + degree[x]);
        let expected = sum / order.len() as f64;
        let path = write_text(&dir, "g.edges", &text);
        for _ in 0..20 {
            let stats = stream_stats(&path, DatasetFormat::EdgeList).unwrap();
            assert_eq!(stats.nodes, order.len());
            assert_eq!(stats.mean_degree.to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn stream_stats_agrees_with_materialized_load() {
        let dir = test_dir("stats");
        let text = "# nodes: 7\n10 20 2\n20 30\n10 20 1\n30 30 1.5\n";
        let path = write_text(&dir, "g.edges", text);
        let stats = stream_stats(&path, DatasetFormat::EdgeList).unwrap();
        let ds = read_dataset(&path, DatasetFormat::EdgeList).unwrap();
        assert_eq!(stats.nodes, ds.graph.num_nodes());
        assert_eq!(stats.edges, ds.graph.num_edges());
        assert!(crate::weights_close(
            stats.total_weight,
            ds.graph.total_edge_weight()
        ));
        assert_eq!(stats.min_degree, 0.0); // declared isolated nodes
        assert!(crate::weights_close(stats.max_degree, 4.0)); // node 20: 2+1+1
    }

    #[test]
    fn stream_stats_rejects_bogus_declared_counts_like_read_dataset() {
        let dir = test_dir("stats-declared");
        let path = write_text(&dir, "g.edges", "# nodes: 18446744073709551615\n0 1\n");
        assert!(read_dataset(&path, DatasetFormat::EdgeList).is_err());
        assert!(stream_stats(&path, DatasetFormat::EdgeList).is_err());
    }

    #[test]
    fn stream_stats_works_for_all_formats() {
        let ds = Dataset::from_external_edges(4, [(5, 9, 2.0), (9, 11, 1.0), (5, 5, 0.5)]);
        let dir = test_dir("stats-fmt");
        for fmt in [
            DatasetFormat::EdgeList,
            DatasetFormat::Metis,
            DatasetFormat::Binary,
        ] {
            let path = dir.join(format!("g.{}", fmt.name()));
            write_dataset(&ds, &path, fmt).unwrap();
            let stats = stream_stats(&path, fmt).unwrap();
            assert_eq!(stats.nodes, 4, "{}", fmt.name());
            assert_eq!(stats.edges, 3, "{}", fmt.name());
            assert!(
                crate::weights_close(stats.total_weight, 3.5),
                "{}",
                fmt.name()
            );
        }
    }

    #[test]
    fn format_inference() {
        assert_eq!(
            DatasetFormat::from_path("a/b.edges"),
            Some(DatasetFormat::EdgeList)
        );
        assert_eq!(
            DatasetFormat::from_path("x.metis"),
            Some(DatasetFormat::Metis)
        );
        assert_eq!(
            DatasetFormat::from_path("x.graph"),
            Some(DatasetFormat::Metis)
        );
        assert_eq!(
            DatasetFormat::from_path("x.dkcb"),
            Some(DatasetFormat::Binary)
        );
        assert_eq!(DatasetFormat::from_path("x.unknown"), None);
        assert_eq!(
            DatasetFormat::from_path_or_default("x.unknown"),
            DatasetFormat::EdgeList
        );
        for fmt in [
            DatasetFormat::EdgeList,
            DatasetFormat::Metis,
            DatasetFormat::Binary,
        ] {
            assert_eq!(DatasetFormat::from_flag(fmt.name()), Some(fmt));
        }
        assert_eq!(DatasetFormat::from_flag("bin"), Some(DatasetFormat::Binary));
        assert_eq!(DatasetFormat::from_flag("parquet"), None);
    }

    #[test]
    fn nodes_directive_variants() {
        assert_eq!(nodes_directive("# nodes: 42  edges: 7"), Some(42));
        assert_eq!(nodes_directive("% nodes: 8"), Some(8));
        assert_eq!(nodes_directive("# Nodes 42"), None);
        assert_eq!(nodes_directive("# nodes:42"), Some(42));
        assert_eq!(nodes_directive("1 2"), None);
        // Real SNAP headers capitalize the directive.
        assert_eq!(
            nodes_directive("# Nodes: 281903 Edges: 2312497"),
            Some(281903)
        );
        assert_eq!(nodes_directive("# NODES:42"), Some(42));
        assert_eq!(nodes_directive("# größe: 7"), None);
    }
}
