//! Every byte of a real dataset image — `bench/fixtures/web-tiny.edges` as
//! the edge list it is, as METIS, and as `.dkcb` (id table included) —
//! flipped three ways (xor 0xFF, 0x01, 0x80) and stamped with `u32::MAX`,
//! and every truncation of it: each variant reads back, through
//! `read_dataset`, `read_csr` and `stream_stats` alike, as a typed
//! `ParseError` or as a consistent dataset, never a panic, and the three
//! read it or reject it together. An accepted variant's CSR is, arc for
//! arc, `CsrGraph::from_graph` of `read_dataset`'s graph, with the same
//! external ids.

use dkc_graph::ingest::{read_csr, read_dataset, stream_stats, write_dataset, DatasetFormat};
use dkc_graph::CsrGraph;
use std::panic::catch_unwind;
use std::path::Path;

/// The first thing two CSRs' accessors disagree on, weights compared by
/// bits, or `None` if they agree on all of it.
fn csr_difference(a: &CsrGraph, b: &CsrGraph) -> Option<String> {
    let bits = |w: &[f64]| w.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
    if (a.num_nodes(), a.num_arcs(), a.num_plain_edges())
        != (b.num_nodes(), b.num_arcs(), b.num_plain_edges())
        || a.total_edge_weight().to_bits() != b.total_edge_weight().to_bits()
    {
        return Some("sizes or total weight".to_string());
    }
    if let Some(v) = a.nodes().find(|&v| {
        a.arc_offset(v) != b.arc_offset(v)
            || a.neighbors(v) != b.neighbors(v)
            || bits(a.neighbor_weights(v)) != bits(b.neighbor_weights(v))
            || a.self_loop(v).to_bits() != b.self_loop(v).to_bits()
    }) {
        return Some(format!("the arcs of node {v}"));
    }
    (0..a.num_arcs())
        .find(|&p| a.reverse_arc(p) != b.reverse_arc(p))
        .map(|p| format!("the reverse of arc {p}"))
}

/// Writes every variant of `image` to `path` and reads it as `format`;
/// returns what failed.
fn sweep(image: &[u8], path: &Path, format: DatasetFormat) -> Vec<String> {
    let mut failures = Vec::new();
    let mut try_variant = |what: String, img: &[u8]| {
        std::fs::write(path, img).unwrap();
        let reads = catch_unwind(|| {
            (
                read_dataset(path, format),
                read_csr(path, format),
                stream_stats(path, format),
            )
        });
        match reads {
            Err(_) => failures.push(format!("{format:?} {what}: panicked")),
            Ok((read, csr, stats))
                if read.is_ok() != stats.is_ok() || read.is_ok() != csr.is_ok() =>
            {
                failures.push(format!(
                    "{format:?} {what}: read_dataset {:?}, read_csr {:?}, stream_stats {:?}",
                    read.err(),
                    csr.err(),
                    stats.err()
                ))
            }
            Ok((Ok(read), Ok((csr, externals)), _)) => {
                if read.ids.len() != read.graph.num_nodes() {
                    failures.push(format!(
                        "{format:?} {what}: {} ids for {} nodes",
                        read.ids.len(),
                        read.graph.num_nodes()
                    ));
                }
                if externals != read.ids.externals() {
                    failures.push(format!("{format:?} {what}: read_csr's ids differ"));
                }
                if let Some(diff) = csr_difference(&csr, &CsrGraph::from_graph(&read.graph)) {
                    failures.push(format!("{format:?} {what}: read_csr differs in {diff}"));
                }
            }
            Ok(_) => {}
        }
    };
    for at in 0..image.len() {
        for mask in [0xFF, 0x01, 0x80] {
            let mut img = image.to_vec();
            img[at] ^= mask;
            try_variant(format!("byte {at} ^ {mask:#04x}"), &img);
        }
        let mut img = image.to_vec();
        let end = (at + 4).min(img.len());
        img[at..end].copy_from_slice(&u32::MAX.to_le_bytes()[..end - at]);
        try_variant(format!("u32::MAX at {at}"), &img);
    }
    for len in 0..image.len() {
        try_variant(format!("truncated to {len}"), &image[..len]);
    }
    failures
}

#[test]
fn every_byte_of_a_dkcb_image_reads_or_is_rejected() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench/fixtures/web-tiny.edges");
    let ds = read_dataset(&fixture, DatasetFormat::EdgeList).unwrap();
    let dir = std::env::temp_dir().join(format!("dkc-dkcb-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let mut failures = Vec::new();
    for (name, format) in [
        ("web-tiny.edges", DatasetFormat::EdgeList),
        ("web-tiny.metis", DatasetFormat::Metis),
        ("web-tiny.dkcb", DatasetFormat::Binary),
    ] {
        let path = dir.join(name);
        let image = if format == DatasetFormat::EdgeList {
            std::fs::read(&fixture).unwrap()
        } else {
            write_dataset(&ds, &path, format).unwrap();
            std::fs::read(&path).unwrap()
        };
        failures.extend(sweep(&image, &path, format));

        // The unmodified image reads back as the fixture.
        std::fs::write(&path, &image).unwrap();
        let read = read_dataset(&path, format).unwrap();
        if format != DatasetFormat::Metis {
            assert_eq!(read.ids.externals(), ds.ids.externals(), "{format:?}");
        }
        assert_eq!(read.graph.num_nodes(), ds.graph.num_nodes(), "{format:?}");
        assert_eq!(read.graph.num_edges(), ds.graph.num_edges(), "{format:?}");
    }
    assert!(
        failures.is_empty(),
        "{} variants failed: {failures:#?}",
        failures.len()
    );
    std::fs::remove_dir_all(&dir).ok();
}
