//! Edge-list writing, and [`ParseError`], the typed error of every dataset
//! reader.
//!
//! [`to_edge_list`] writes one edge per line, `u v w`, after a `# nodes: N`
//! directive that keeps trailing isolated nodes. Every reader lives in
//! [`crate::ingest`], which reads this format back through its id map.

use crate::idx::IdxOverflow;
use crate::weighted::WeightedGraph;
use std::fmt::Write as _;
use std::io;

/// Error raised while parsing a dataset file.
#[derive(Debug)]
pub enum ParseError {
    /// An I/O error while reading the file.
    Io(io::Error),
    /// A malformed line, reported with its (1-based) line number and at
    /// most the first [`MALFORMED_QUOTE_BYTES`] of its text (a longer line
    /// is cut at a char boundary and its quote ends in `…`).
    Malformed { line: usize, content: String },
    /// An edge-list or METIS line longer than `limit` bytes before its
    /// newline ([`crate::ingest::CHUNK_BYTES`]), reported with its (1-based)
    /// line number once the lines before it have parsed. An edge-list line
    /// holds at most three numbers, so such a line is not data; a METIS line
    /// that long lists a node of about 10⁵ neighbours or more. Either way
    /// the reader stops rather than read on to its end.
    LineTooLong { line: usize, limit: usize },
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
    /// The graph outgrows the `u32` index width: more distinct node ids, or
    /// more directed arcs, than [`IdxOverflow`] allows.
    Idx(IdxOverflow),
}

/// The most bytes of a malformed line that [`ParseError::Malformed`]
/// quotes, so a line without an end cannot make a message without one.
pub const MALFORMED_QUOTE_BYTES: usize = 80;

impl ParseError {
    /// [`ParseError::Malformed`] for line `line`, quoting at most the first
    /// [`MALFORMED_QUOTE_BYTES`] of `content`.
    pub(crate) fn malformed(line: usize, content: &str) -> Self {
        let content = if content.len() <= MALFORMED_QUOTE_BYTES {
            content.to_string()
        } else {
            format!(
                "{}…",
                &content[..content.floor_char_boundary(MALFORMED_QUOTE_BYTES)]
            )
        };
        ParseError::Malformed { line, content }
    }

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
            ParseError::LineTooLong { line, limit } => {
                write!(f, "line {line} is longer than {limit} bytes")
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
            ParseError::Idx(e) => write!(f, "invalid dataset: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

impl From<IdxOverflow> for ParseError {
    fn from(e: IdxOverflow) -> Self {
        ParseError::Idx(e)
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{read_dataset, write_dataset, Dataset, DatasetFormat};
    use crate::node::NodeId;

    #[test]
    fn malformed_quotes_are_bounded_at_a_char_boundary() {
        // 79 ASCII bytes, then a 3-byte char straddling the 80-byte cut.
        let line = format!("{}€ {}", "7".repeat(79), "x".repeat(1000));
        let ParseError::Malformed { content, .. } = ParseError::malformed(3, &line) else {
            unreachable!()
        };
        assert_eq!(content, format!("{}…", "7".repeat(79)));
    }

    /// What `dkc generate` writes, `dkc coreness` reads: an edge list
    /// written through the identity id map is [`to_edge_list`]'s text, and
    /// every node keeps its degree and self-loop through the id map read
    /// back, while the `# nodes:` directive keeps the isolated ones.
    #[test]
    fn written_edge_lists_read_back_through_the_id_map() {
        let mut g = WeightedGraph::new(6);
        g.add_edge(NodeId(0), NodeId(1), 1.5);
        g.add_edge(NodeId(2), NodeId(3), 2.0);
        g.add_edge(NodeId(0), NodeId(2), 4.0);
        g.add_self_loop(NodeId(1), 0.5);
        let dir = std::env::temp_dir().join(format!("dkc_graph_io_test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.edges");
        write_dataset(
            &Dataset::from_graph(g.clone()),
            &path,
            DatasetFormat::EdgeList,
        )
        .unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), to_edge_list(&g));
        let back = read_dataset(&path, DatasetFormat::EdgeList).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(back.graph.num_nodes(), g.num_nodes());
        assert_eq!(back.graph.num_edges(), g.num_edges());
        // Nodes 4 and 5 only exist through the directive, which pads with
        // the ids after the largest one the edges mention.
        for v in g.nodes() {
            let b = back.ids.get(v.index() as u64).unwrap();
            assert!(crate::weights_close(g.degree(v), back.graph.degree(b)));
            assert_eq!(g.self_loop(v), back.graph.self_loop(b));
        }
    }
}
