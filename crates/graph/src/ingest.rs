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
//!   (chunk-at-a-time, no whole-file `String`); edge-list blocks are cut at
//!   line ends and parsed in parallel via `rayon` before the sequential
//!   id-interning pass, and every reader ends in one exact-size graph build
//!   (text formats merge parallel edges through [`GraphBuilder`]).
//! * Three on-disk formats ([`DatasetFormat`]): SNAP-style edge lists, METIS
//!   adjacency files, and a compact little-endian binary format (`.dkcb`)
//!   that additionally preserves the id map exactly.
//! * [`stream_stats`] computes summary statistics in one pass without
//!   materializing adjacency lists.
//!
//! Id-remapping contract: internal ids are assigned in first-seen order of
//! the input. The edge-list and binary formats preserve external ids;
//! METIS is positional (nodes are `1..=n`), so reading it yields the
//! identity map. Isolated nodes declared by a `# nodes:` header (edge list)
//! or the METIS/binary headers survive a round-trip, but the *external* ids
//! of isolated nodes are only preserved by the binary format (text formats
//! assign them fresh ids past the largest mapped id).

use crate::builder::GraphBuilder;
use crate::idx::IdxOverflow;
use crate::io::ParseError;
use crate::node::NodeId;
use crate::weighted::WeightedGraph;
use rayon::prelude::*;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, Write};
use std::path::Path;

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

    /// Grows the map to `n` nodes by assigning fresh external ids (sequential
    /// past the current maximum, skipping collisions) to the padded nodes.
    /// Used for isolated nodes declared by a header but absent from the edges.
    pub fn pad_to(&mut self, n: usize) {
        let mut candidate = self.max_external.map_or(0, |m| m.saturating_add(1));
        while self.len() < n {
            while self.get(candidate).is_some() {
                candidate = candidate
                    .checked_add(1)
                    // lint: allow(D04) — u64 id space outlives the u32 node-count guard in intern(); unreachable before it
                    .expect("external id space exhausted");
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
        finish_dataset(builder.build(), ids, declared_nodes)
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
    ParseError::Malformed {
        line,
        content: content.to_string(),
    }
}

/// Recognizes a `# nodes: N` (or `% nodes: N`) comment directive. Matching
/// is case-insensitive so real SNAP headers (`# Nodes: 281903 Edges: ...`)
/// are honored too.
pub(crate) fn nodes_directive(line: &str) -> Option<u64> {
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
pub(crate) fn parse_edge_tokens(line: &str, lineno: usize) -> Result<(u64, u64, f64), ParseError> {
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

/// Output of parsing one chunk of edge-list text.
struct ChunkItems {
    edges: Vec<(u64, u64, f64)>,
    declared: Option<u64>,
}

fn parse_edge_list_chunk(start_line: usize, text: &str) -> Result<ChunkItems, ParseError> {
    let mut out = ChunkItems {
        edges: Vec::new(),
        declared: None,
    };
    for (offset, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('#') || line.starts_with('%') {
            if let Some(n) = nodes_directive(line) {
                out.declared = Some(out.declared.map_or(n, |d: u64| d.max(n)));
            }
            continue;
        }
        out.edges
            .push(parse_edge_tokens(line, start_line + offset)?);
    }
    Ok(out)
}

/// Block size of the edge-list reader. Blocks are cut at their last newline
/// (a longer line grows its block to the line's end), so peak memory is
/// `O(threads · CHUNK_BYTES + edges)` regardless of file size.
const CHUNK_BYTES: usize = 1 << 20;

/// Streams an edge list through `sink`, parsing batches of chunks in
/// parallel while delivering items in file order.
///
/// The file is read in `CHUNK_BYTES` blocks, each cut at its last newline;
/// the bytes after it open the next block. A chunk is therefore whole lines,
/// so its UTF-8 is validated once and the next chunk's first line number is
/// this chunk's plus the newlines in it.
fn stream_edge_list_items(
    path: &Path,
    sink: &mut dyn FnMut(StreamItem) -> Result<(), ParseError>,
) -> Result<(), ParseError> {
    let mut file = File::open(path)?;
    let batch_width = rayon::current_num_threads().max(1);
    let mut batch: Vec<(usize, String)> = Vec::with_capacity(batch_width);
    let mut next_line = 1usize; // 1-based line number of the next chunk's first line
    let mut carry: Vec<u8> = Vec::new(); // a partial line, never a newline
    let mut eof = false;
    while !eof {
        let mut block = std::mem::take(&mut carry);
        let fresh = block.len();
        block.reserve(CHUNK_BYTES);
        eof = (&mut file)
            .take(CHUNK_BYTES as u64)
            .read_to_end(&mut block)?
            < CHUNK_BYTES;
        let cut = if eof {
            block.len()
        } else {
            match block[fresh..].iter().rposition(|&b| b == b'\n') {
                Some(i) => fresh + i + 1,
                None => {
                    // No line ends in this block: keep reading the line.
                    carry = block;
                    continue;
                }
            }
        };
        carry = block.split_off(cut);
        if !block.is_empty() {
            let text = String::from_utf8(block).map_err(|e| {
                let valid = &e.as_bytes()[..e.utf8_error().valid_up_to()];
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "invalid UTF-8 on line {}",
                        next_line + count_newlines(valid)
                    ),
                )
            })?;
            let lines = count_newlines(text.as_bytes());
            batch.push((next_line, text));
            next_line += lines;
        }
        if batch.len() == batch_width || (eof && !batch.is_empty()) {
            let parsed: Vec<Result<ChunkItems, ParseError>> = batch
                .par_iter_mut()
                .map(|(start, text)| parse_edge_list_chunk(*start, text))
                .collect();
            batch.clear();
            for result in parsed {
                let items = result?;
                if let Some(n) = items.declared {
                    sink(StreamItem::DeclaredNodes(n))?;
                }
                for (u, v, w) in items.edges {
                    sink(StreamItem::Edge(u, v, w))?;
                }
            }
        }
    }
    Ok(())
}

fn count_newlines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// Streams a METIS adjacency file through `sink` (ids are emitted 0-based;
/// `DeclaredNodes` comes first). Each non-loop edge is emitted once, from
/// its smaller endpoint's line; the file's symmetry and the header's edge
/// count are validated.
fn stream_metis_items(
    path: &Path,
    sink: &mut dyn FnMut(StreamItem) -> Result<(), ParseError>,
) -> Result<(), ParseError> {
    let mut reader = BufReader::new(File::open(path)?);
    let mut line = String::new();
    let mut lineno = 0usize;
    // Header: first non-comment line is `n m [fmt]`.
    let (n, m, weighted) = loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(invalid("metis: missing header line"));
        }
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
    while node < n {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(invalid(format!(
                "metis: expected {n} adjacency lines, found {node}"
            )));
        }
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.starts_with('%') {
            continue;
        }
        let tokens: Vec<&str> = trimmed.split_whitespace().collect();
        let entries: Vec<(u64, f64)> = if weighted {
            if !tokens.len().is_multiple_of(2) {
                return Err(malformed(lineno, trimmed));
            }
            tokens
                .chunks(2)
                .map(|pair| {
                    let nbr: u64 = pair[0].parse().map_err(|_| malformed(lineno, trimmed))?;
                    let w: f64 = pair[1].parse().map_err(|_| malformed(lineno, trimmed))?;
                    Ok((nbr, w))
                })
                .collect::<Result<_, ParseError>>()?
        } else {
            tokens
                .iter()
                .map(|tok| {
                    let nbr: u64 = tok.parse().map_err(|_| malformed(lineno, trimmed))?;
                    Ok((nbr, 1.0))
                })
                .collect::<Result<_, ParseError>>()?
        };
        for (nbr, w) in entries {
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

/// Reads a `.dkcb` file, reconstructing the id map exactly. Records are not
/// merged: parallel edge records stay parallel, in file order.
fn read_binary_dataset(path: &Path) -> Result<Dataset, ParseError> {
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
    let graph = WeightedGraph::from_edges(n, &edges, &loops);
    ParseError::check_weight_total(graph.total_edge_weight())?;
    Ok(Dataset { graph, ids })
}

/// Streams a `.dkcb` file's items (internal ids as `u64`), skipping the id
/// table; used by [`stream_stats`].
fn stream_binary_items(
    path: &Path,
    sink: &mut dyn FnMut(StreamItem) -> Result<(), ParseError>,
) -> Result<(), ParseError> {
    let mut r = BufReader::new(File::open(path)?);
    let header = read_binary_header(&mut r)?;
    if header.has_id_table {
        for _ in 0..header.n {
            read_u64(&mut r)?;
        }
    }
    sink(StreamItem::DeclaredNodes(header.n))?;
    for _ in 0..header.plain_edges {
        let u = read_u32(&mut r)? as u64;
        let v = read_u32(&mut r)? as u64;
        let w = check_binary_weight(read_f64(&mut r)?)?;
        if u >= v || v >= header.n {
            return Err(invalid(format!(
                "binary: bad edge ({u}, {v}) in a {}-node graph",
                header.n
            )));
        }
        sink(StreamItem::Edge(u, v, w))?;
    }
    for _ in 0..header.self_loops {
        let v = read_u32(&mut r)? as u64;
        let w = check_binary_weight(read_f64(&mut r)?)?;
        if v >= header.n {
            return Err(invalid(format!(
                "binary: bad self-loop node {v} in a {}-node graph",
                header.n
            )));
        }
        sink(StreamItem::Edge(v, v, w))?;
    }
    expect_eof(&mut r)?;
    Ok(())
}

fn stream_items(
    path: &Path,
    format: DatasetFormat,
    sink: &mut dyn FnMut(StreamItem) -> Result<(), ParseError>,
) -> Result<(), ParseError> {
    match format {
        DatasetFormat::EdgeList => stream_edge_list_items(path, sink),
        DatasetFormat::Metis => stream_metis_items(path, sink),
        DatasetFormat::Binary => stream_binary_items(path, sink),
    }
}

/// Reads a dataset file into a graph plus its id map.
///
/// Peak memory is `O(edges + distinct nodes)` regardless of the id space:
/// external ids are remapped to dense indices as they stream past.
pub fn read_dataset(path: impl AsRef<Path>, format: DatasetFormat) -> Result<Dataset, ParseError> {
    let path = path.as_ref();
    match format {
        DatasetFormat::Binary => read_binary_dataset(path),
        DatasetFormat::Metis => read_metis_dataset(path),
        DatasetFormat::EdgeList => {
            let mut ids = NodeIdMap::new();
            let mut builder = GraphBuilder::new(0);
            let mut declared: u64 = 0;
            stream_edge_list_items(path, &mut |item| {
                match item {
                    StreamItem::Edge(u, v, w) => {
                        let iu = ids.intern(u);
                        let iv = ids.intern(v);
                        builder.add_edge(iu, iv, w);
                    }
                    StreamItem::DeclaredNodes(n) => declared = declared.max(n),
                }
                Ok(())
            })?;
            let file_len = std::fs::metadata(path)?.len();
            let declared = checked_declared_nodes(declared, ids.len(), file_len)?;
            Ok(finish_dataset(builder.try_build()?, ids, declared))
        }
    }
}

/// Shared epilogue of the builder-based readers: pad the id map to the
/// declared node count, and grow the built graph to cover header-declared
/// isolated nodes.
fn finish_dataset(mut graph: WeightedGraph, mut ids: NodeIdMap, declared: usize) -> Dataset {
    ids.pad_to(declared);
    while graph.num_nodes() < ids.len() {
        graph.add_node();
    }
    Dataset { graph, ids }
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
fn read_metis_dataset(path: &Path) -> Result<Dataset, ParseError> {
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
    let graph = builder.try_build()?;
    Ok(finish_dataset(
        graph,
        NodeIdMap::identity(declared),
        declared,
    ))
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

/// Computes [`DatasetStats`] without materializing adjacency lists: memory
/// is `O(distinct nodes + distinct edges)` (id map, degrees and edge-dedup
/// set), and the file streams through a bounded buffer. Degrees are kept in
/// first-seen order and summed in that order, so every call on the same file
/// returns the same bits.
pub fn stream_stats(
    path: impl AsRef<Path>,
    format: DatasetFormat,
) -> Result<DatasetStats, ParseError> {
    use std::collections::HashSet;
    let mut ids = NodeIdMap::new();
    let mut degrees: Vec<f64> = Vec::new();
    let mut plain_edges: HashSet<(usize, usize)> = HashSet::new();
    let mut loop_weights: HashMap<usize, f64> = HashMap::new();
    let mut total_weight = 0.0;
    let mut declared: u64 = 0;
    let mut node = |ext: u64, degrees: &mut Vec<f64>| -> Result<usize, ParseError> {
        let v = ids
            .try_intern(ext)
            .map_err(|e| invalid(e.to_string()))?
            .index();
        if v == degrees.len() {
            degrees.push(0.0);
        }
        Ok(v)
    };
    let path = path.as_ref();
    let file_len = std::fs::metadata(path)?.len();
    stream_items(path, format, &mut |item| {
        match item {
            StreamItem::Edge(u, v, w) => {
                total_weight += w;
                let (u, v) = (node(u, &mut degrees)?, node(v, &mut degrees)?);
                degrees[u] += w;
                if u == v {
                    *loop_weights.entry(u).or_insert(0.0) += w;
                } else {
                    degrees[v] += w;
                    plain_edges.insert((u.min(v), u.max(v)));
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
    let edges = plain_edges.len() + loop_weights.values().filter(|&&w| w > 0.0).count();
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

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("dkc_ingest_tests")
            .join(format!("{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
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

    #[test]
    fn binary_rejects_corruption() {
        let ds = Dataset::from_external_edges(2, [(7, 9, 1.0)]);
        let dir = test_dir("binary-bad");
        let path = dir.join("g.dkcb");
        write_dataset(&ds, &path, DatasetFormat::Binary).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Truncation.
        let p = dir.join("trunc.dkcb");
        std::fs::write(&p, &bytes[..bytes.len() - 4]).unwrap();
        assert!(read_dataset(&p, DatasetFormat::Binary).is_err());
        // Trailing garbage.
        let mut extended = bytes.clone();
        extended.push(0);
        let p = dir.join("trail.dkcb");
        std::fs::write(&p, &extended).unwrap();
        assert!(read_dataset(&p, DatasetFormat::Binary).is_err());
        // Bad magic.
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        let p = dir.join("magic.dkcb");
        std::fs::write(&p, &wrong).unwrap();
        assert!(read_dataset(&p, DatasetFormat::Binary).is_err());
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
        let path = write_text(&dir, "bad.edges", "1 2\n# ok\n3 4 junk x\n");
        let err = read_dataset(&path, DatasetFormat::EdgeList).unwrap_err();
        match err {
            ParseError::Malformed { line, .. } => assert_eq!(line, 3),
            other => panic!("expected Malformed, got {other:?}"),
        }
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
        // A comment and a data line each longer than a block.
        text.push_str(&format!("#{}\n", "y".repeat(CHUNK_BYTES + 10)));
        text.push_str(&" ".repeat(CHUNK_BYTES + 10));
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
