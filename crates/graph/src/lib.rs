//! # dkc-graph
//!
//! Graph substrate for the distributed approximate k-core / min-max edge
//! orientation / densest subset library.
//!
//! This crate provides:
//!
//! * [`WeightedGraph`] — a mutable, adjacency-list based, undirected,
//!   edge-weighted graph with explicit self-loop support (self-loops arise
//!   naturally from *quotient graphs*, Definition II.2 of the paper).
//! * [`CsrGraph`] — an immutable compressed sparse-row snapshot used by the
//!   simulator and the hot analysis loops.
//! * [`builder::GraphBuilder`] — incremental construction with parallel-edge
//!   merging.
//! * [`generators`] — synthetic workloads (Erdős–Rényi, Barabási–Albert,
//!   Chung-Lu, Watts–Strogatz, random-regular, planted dense communities) and the
//!   paper's adversarial constructions (γ-ary trees, trees with leaf cliques,
//!   Figure I.1 gadgets).
//! * [`quotient`] — quotient graph `G \ B` (edges leaving `B` become self-loops).
//! * [`io`] — edge-list writing, and [`io::ParseError`], every reader's typed error.
//! * [`ingest`] — streaming dataset ingestion: sparse→dense id remapping
//!   ([`ingest::NodeIdMap`]), chunk-parallel edge-list parsing, METIS and
//!   compact binary formats, and one-pass statistics — all in O(edges) memory.
//! * [`properties`] — BFS, hop diameter, degree statistics.
//! * [`idx`] — [`IdxOverflow`], the typed error for a graph past the `u32`
//!   arc or node-id range of [`CsrGraph`] and [`ingest::NodeIdMap`].
//! * [`partition`] — the deterministic hash-based node → shard
//!   [`partition::Partitioner`] behind sharded execution
//!   (`dkc_distsim::NetworkBuilder::shards`).
//!
//! All weights are non-negative `f64`. The *weighted degree* of a node is the sum
//! of the weights of all edges containing it, where a self-loop counts **once**
//! (this is the convention required by Lemma III.3 of the paper). The *density*
//! of a node set `S` is `w(E(S)) / |S|` where `E(S)` is the set of edges fully
//! contained in `S` (self-loops at nodes of `S` included).

#![deny(deprecated)]

pub mod builder;
pub mod csr;
pub mod generators;
pub mod idx;
pub mod ingest;
pub mod io;
pub mod node;
pub mod partition;
pub mod properties;
pub mod quotient;
pub mod weighted;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use idx::IdxOverflow;
pub use ingest::{Dataset, DatasetFormat, NodeIdMap};
pub use node::NodeId;
pub use partition::Partitioner;
pub use weighted::WeightedGraph;

/// Absolute/relative tolerance suitable for graph-weight arithmetic
/// (sums of `f64` weights).
pub const WEIGHT_EPS: f64 = 1e-9;

/// Returns `true` if `a` and `b` are equal up to [`WEIGHT_EPS`] absolute or
/// relative tolerance.
pub fn weights_close(a: f64, b: f64) -> bool {
    let diff = (a - b).abs();
    diff <= WEIGHT_EPS || diff <= WEIGHT_EPS * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_close_basic() {
        assert!(weights_close(1.0, 1.0));
        assert!(weights_close(0.0, 0.0));
        assert!(weights_close(1.0, 1.0 + 1e-12));
        assert!(!weights_close(1.0, 1.1));
        assert!(weights_close(1e12, 1e12 * (1.0 + 1e-12)));
    }
}
