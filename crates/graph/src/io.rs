//! Plain-text edge-list I/O.
//!
//! Format: one edge per line, `u v [w]`, whitespace separated. Lines starting
//! with `#` or `%` are comments. Missing weights default to `1.0`. Node ids are
//! arbitrary non-negative integers; they are used directly as indices, so the
//! resulting graph has `max_id + 1` nodes.

use crate::builder::GraphBuilder;
use crate::node::NodeId;
use crate::weighted::WeightedGraph;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Error raised while parsing a dataset file.
#[derive(Debug)]
pub enum ParseError {
    /// An I/O error while reading the file.
    Io(io::Error),
    /// A malformed line, reported with its (1-based) line number.
    Malformed { line: usize, content: String },
    /// A structural problem not tied to a single line (bad header, truncated
    /// binary section, asymmetric METIS adjacency, …).
    Invalid(String),
    /// A declared node count (an edge list's `# nodes:` directive, or a
    /// `.dkcb` header without an id table) adds more isolated nodes than the
    /// file has bytes, plus [`crate::ingest::UNDESCRIBED_NODE_ALLOWANCE`]:
    /// no byte of the file describes them, so the count is not believed.
    DeclaredNodes {
        /// The declared node count.
        declared: u64,
        /// The most nodes this file may declare.
        limit: u64,
    },
    /// The edge weights overflow when summed: a merged parallel edge's
    /// weight, or the graph's total weighted degree 2·w(E), is not a finite
    /// `f64`, although every weight in the file is.
    WeightOverflow,
}

impl ParseError {
    /// [`ParseError::WeightOverflow`] unless `2 · total` is finite, for the
    /// sum `total` of a graph's edge weights. Weights are non-negative, so
    /// this also rules out any merged weight or weighted degree overflowing.
    pub(crate) fn check_weight_total(total: f64) -> Result<(), ParseError> {
        if (2.0 * total).is_finite() {
            Ok(())
        } else {
            Err(ParseError::WeightOverflow)
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "I/O error: {e}"),
            ParseError::Malformed { line, content } => {
                write!(f, "malformed line {line}: {content:?}")
            }
            ParseError::Invalid(msg) => write!(f, "invalid dataset: {msg}"),
            ParseError::DeclaredNodes { declared, limit } => write!(
                f,
                "invalid dataset: declares {declared} nodes, more than the {limit} it may hold"
            ),
            ParseError::WeightOverflow => write!(
                f,
                "invalid dataset: edge weights sum past the f64 range (total weighted degree is not finite)"
            ),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Converts an external id to a dense node index, rejecting ids beyond the
/// `u32` internal width (this legacy parser uses ids directly as indices —
/// use [`crate::ingest`] for sparse-id datasets).
fn direct_node_id(ext: u64, line: usize, content: &str) -> Result<NodeId, ParseError> {
    if ext > u32::MAX as u64 {
        return Err(ParseError::Malformed {
            line,
            content: content.to_string(),
        });
    }
    Ok(NodeId(ext as u32))
}

/// Parses an edge list from a string. A `# nodes: N` comment directive (as
/// written by [`to_edge_list`]) is authoritative for the node count, so
/// trailing isolated nodes survive a round-trip. Lines with trailing tokens
/// after `u v [w]` are rejected. Line tokenization is shared with the
/// streaming reader ([`crate::ingest`]); node ids here are used directly as
/// indices and must fit the `u32` internal width.
pub fn parse_edge_list(text: &str) -> Result<WeightedGraph, ParseError> {
    let mut builder = GraphBuilder::new(0);
    let mut declared: Option<u64> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('#') || line.starts_with('%') {
            if let Some(n) = crate::ingest::nodes_directive(line) {
                declared = Some(declared.map_or(n, |d| d.max(n)));
            }
            continue;
        }
        let (u, v, w) = crate::ingest::parse_edge_tokens(line, idx + 1)?;
        let u = direct_node_id(u, idx + 1, raw)?;
        let v = direct_node_id(v, idx + 1, raw)?;
        builder.add_edge(u, v, w);
    }
    if let Some(n) = declared {
        if n > u32::MAX as u64 + 1 {
            return Err(ParseError::Invalid(format!(
                "declared node count {n} exceeds the u32 id width"
            )));
        }
        if n > 0 {
            builder.ensure_node(NodeId::new(n as usize - 1));
        }
    }
    Ok(builder.build())
}

/// Reads an edge list from a file.
pub fn read_edge_list<P: AsRef<Path>>(path: P) -> Result<WeightedGraph, ParseError> {
    let text = fs::read_to_string(path)?;
    parse_edge_list(&text)
}

/// Serializes a graph to edge-list text (`u v w` per line, self-loops included
/// as `v v w`).
pub fn to_edge_list(g: &WeightedGraph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# nodes: {}  edges: {}", g.num_nodes(), g.num_edges());
    for (u, v, w) in g.edges() {
        let _ = writeln!(out, "{} {} {}", u.index(), v.index(), w);
    }
    out
}

/// Writes a graph to a file in edge-list format.
pub fn write_edge_list<P: AsRef<Path>>(g: &WeightedGraph, path: P) -> io::Result<()> {
    fs::write(path, to_edge_list(g))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic() {
        let text = "# a comment\n0 1 2.5\n1 2\n% another comment\n\n2 0 1.5\n";
        let g = parse_edge_list(text).unwrap();
        g.check_consistency();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(NodeId(0)), 4.0);
        assert_eq!(g.degree(NodeId(1)), 3.5);
    }

    #[test]
    fn parse_merges_duplicates() {
        let g = parse_edge_list("0 1 1\n1 0 2\n").unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(NodeId(0)), 3.0);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse_edge_list("0\n").is_err());
        assert!(parse_edge_list("a b\n").is_err());
        assert!(parse_edge_list("0 1 -2\n").is_err());
        assert!(parse_edge_list("0 1 nan\n").is_err());
    }

    #[test]
    fn parse_rejects_trailing_tokens() {
        // `0 1 2.5 junk` must not silently parse as a clean edge.
        let err = parse_edge_list("0 1 2.5 junk\n").unwrap_err();
        match err {
            ParseError::Malformed { line, .. } => assert_eq!(line, 1),
            other => panic!("expected Malformed, got {other:?}"),
        }
        assert!(parse_edge_list("0 1 2 3\n").is_err());
        assert!(parse_edge_list("0 1\n2 3 1.0 x\n").is_err());
    }

    #[test]
    fn nodes_header_is_authoritative() {
        // A trailing isolated node only exists via the header directive.
        let g = parse_edge_list("# nodes: 4  edges: 1\n0 2 1\n").unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(NodeId(3)), 0.0);
        // The structure still wins when it mentions more nodes than declared.
        let g = parse_edge_list("# nodes: 2\n0 5 1\n").unwrap();
        assert_eq!(g.num_nodes(), 6);
    }

    #[test]
    fn oversized_ids_and_declarations_error_instead_of_truncating() {
        // Ids are used directly as u32 indices here; beyond-u32 values must
        // be a parse error, not a silent release-mode truncation.
        assert!(parse_edge_list("0 4294967296\n").is_err());
        assert!(parse_edge_list("# nodes: 4294967297\n0 1\n").is_err());
    }

    #[test]
    fn roundtrip_preserves_trailing_isolated_nodes() {
        let mut g = WeightedGraph::new(4);
        g.add_edge(NodeId(0), NodeId(2), 1.0);
        let g2 = parse_edge_list(&to_edge_list(&g)).unwrap();
        assert_eq!(g2.num_nodes(), 4);
        assert_eq!(g2.num_edges(), 1);
    }

    #[test]
    fn parse_self_loop() {
        let g = parse_edge_list("3 3 2.0\n0 3 1.0\n").unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.self_loop(NodeId(3)), 2.0);
    }

    #[test]
    fn roundtrip() {
        let mut g = WeightedGraph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1.5);
        g.add_edge(NodeId(2), NodeId(3), 2.0);
        g.add_self_loop(NodeId(1), 0.5);
        let text = to_edge_list(&g);
        let g2 = parse_edge_list(&text).unwrap();
        assert_eq!(g2.num_nodes(), g.num_nodes());
        assert_eq!(g2.num_edges(), g.num_edges());
        for v in g.nodes() {
            assert!(crate::weights_close(g.degree(v), g2.degree(v)));
        }
    }

    #[test]
    fn file_roundtrip() {
        let mut g = WeightedGraph::new(3);
        g.add_edge(NodeId(0), NodeId(2), 4.0);
        let dir = std::env::temp_dir().join("dkc_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.edges");
        write_edge_list(&g, &path).unwrap();
        let g2 = read_edge_list(&path).unwrap();
        assert_eq!(g2.num_edges(), 1);
        assert_eq!(g2.degree(NodeId(2)), 4.0);
    }
}
