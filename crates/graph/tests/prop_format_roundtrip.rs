//! Property test: random graphs with sparse external ids, isolated nodes,
//! duplicate edges, and self-loops survive a write→read round-trip in all
//! three dataset formats.
//!
//! Invariants pinned per format:
//! * node / edge counts and total weight are always preserved;
//! * the edge-list and binary formats preserve the weighted degree of every
//!   *external* id (binary additionally preserves the id table exactly);
//! * METIS is positional, so degrees are preserved per internal index;
//! * `read_csr` gives, in every format, the CSR that `CsrGraph::from_graph`
//!   makes of `read_dataset`'s graph (every arc, weight bit and reverse-arc
//!   pairing) and the same external-id table.

use dkc_graph::ingest::{read_csr, read_dataset, write_dataset, Dataset, DatasetFormat};
use dkc_graph::{weights_close, CsrGraph};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

/// A case's own directory, directly under the temp directory; the case
/// removes it when it ends.
fn case_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dkc_prop_format_roundtrip-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Scatters a small dense index into a sparse id space (injective: distinct
/// inputs give distinct ids up to the prime modulus).
fn sparse_id(i: u64) -> u64 {
    const M: u64 = 1_000_000_007;
    const A: u64 = 736_481_777;
    (i % M) * A % M
}

/// Asserts that two CSRs agree on everything their accessors show, weights
/// compared by bits.
fn assert_same_csr(a: &CsrGraph, b: &CsrGraph) {
    assert_eq!(a.num_nodes(), b.num_nodes());
    assert_eq!(a.num_arcs(), b.num_arcs());
    assert_eq!(a.num_plain_edges(), b.num_plain_edges());
    assert_eq!(
        a.total_edge_weight().to_bits(),
        b.total_edge_weight().to_bits()
    );
    let bits = |w: &[f64]| w.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
    for v in a.nodes() {
        assert_eq!(a.arc_offset(v), b.arc_offset(v), "node {v}");
        assert_eq!(a.neighbors(v), b.neighbors(v), "node {v}");
        assert_eq!(bits(a.neighbor_weights(v)), bits(b.neighbor_weights(v)));
        assert_eq!(a.self_loop(v).to_bits(), b.self_loop(v).to_bits());
        for &u in a.neighbors(v) {
            assert!(a.neighbor_positions(v, u).eq(b.neighbor_positions(v, u)));
        }
    }
    for p in 0..a.num_arcs() {
        assert_eq!(a.reverse_arc(p), b.reverse_arc(p), "arc {p}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn formats_round_trip(
        raw_edges in collection::vec((0u64..40, 0u64..40, 0u32..8), 0..120),
        extra_nodes in 0usize..5,
    ) {
        // Quarter-integer weights (exact in f64); id 0..40 scattered into a
        // ~1e9 space; u == v yields self-loops; duplicates merge by summing.
        let edges: Vec<(u64, u64, f64)> = raw_edges
            .iter()
            .map(|&(u, v, w)| (sparse_id(u), sparse_id(v), w as f64 * 0.25))
            .collect();
        let mentioned: std::collections::HashSet<u64> =
            edges.iter().flat_map(|&(u, v, _)| [u, v]).collect();
        let declared = mentioned.len() + extra_nodes;
        let original = Dataset::from_external_edges(declared, edges.iter().copied());
        prop_assert_eq!(original.graph.num_nodes(), declared);

        let dir = case_dir();
        for fmt in [DatasetFormat::EdgeList, DatasetFormat::Metis, DatasetFormat::Binary] {
            let path = dir.join(format!("g.{}", fmt.name()));
            write_dataset(&original, &path, fmt).unwrap();
            let back = read_dataset(&path, fmt).unwrap();
            back.graph.check_consistency();
            let (csr, externals) = read_csr(&path, fmt).unwrap();
            assert_same_csr(&csr, &CsrGraph::from_graph(&back.graph));
            prop_assert_eq!(&externals[..], back.ids.externals());
            prop_assert_eq!(back.graph.num_nodes(), original.graph.num_nodes());
            prop_assert_eq!(back.graph.num_edges(), original.graph.num_edges());
            prop_assert_eq!(back.graph.num_plain_edges(), original.graph.num_plain_edges());
            prop_assert!(weights_close(
                back.graph.total_edge_weight(),
                original.graph.total_edge_weight()
            ));
            match fmt {
                DatasetFormat::Metis => {
                    // Positional: internal order preserved.
                    for v in original.graph.nodes() {
                        prop_assert!(weights_close(
                            back.graph.degree(v),
                            original.graph.degree(v)
                        ));
                    }
                }
                DatasetFormat::EdgeList | DatasetFormat::Binary => {
                    // External ids of non-isolated nodes preserved.
                    for &ext in &mentioned {
                        let a = original.ids.get(ext).unwrap();
                        let b = back.ids.get(ext).unwrap();
                        prop_assert!(weights_close(
                            back.graph.degree(b),
                            original.graph.degree(a)
                        ));
                        prop_assert!(weights_close(
                            back.graph.self_loop(b),
                            original.graph.self_loop(a)
                        ));
                    }
                }
            }
            if fmt == DatasetFormat::Binary {
                // Binary preserves the id map exactly, isolated nodes included.
                prop_assert_eq!(back.ids.externals(), original.ids.externals());
            }
        }
        // The raw edges, parallel copies and self-loops unmerged, as an edge
        // list: `read_csr` merges them as `read_dataset` does.
        let raw = dir.join("raw.edges");
        let text: String = edges.iter().map(|(u, v, w)| format!("{u} {v} {w}\n")).collect();
        std::fs::write(&raw, text).unwrap();
        let back = read_dataset(&raw, DatasetFormat::EdgeList).unwrap();
        let (csr, externals) = read_csr(&raw, DatasetFormat::EdgeList).unwrap();
        assert_same_csr(&csr, &CsrGraph::from_graph(&back.graph));
        prop_assert_eq!(&externals[..], back.ids.externals());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
