//! Every byte of a real `.dkcb` image — the binary form of
//! `bench/fixtures/web-tiny.edges`, id table included — flipped three ways
//! (xor 0xFF, 0x01, 0x80) and stamped with `u32::MAX`, and every truncation
//! of it: each variant reads back as a typed `ParseError` or as a
//! consistent dataset, never a panic.

use dkc_graph::ingest::{read_dataset, write_dataset, DatasetFormat};
use std::panic::catch_unwind;
use std::path::Path;

#[test]
fn every_byte_of_a_dkcb_image_reads_or_is_rejected() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench/fixtures/web-tiny.edges");
    let ds = read_dataset(&fixture, DatasetFormat::EdgeList).unwrap();
    let dir = std::env::temp_dir().join(format!("dkc-dkcb-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("web-tiny.dkcb");
    write_dataset(&ds, &path, DatasetFormat::Binary).unwrap();
    let image = std::fs::read(&path).unwrap();

    let mut failures = Vec::new();
    let mut try_variant = |what: String, img: &[u8]| {
        std::fs::write(&path, img).unwrap();
        match catch_unwind(|| read_dataset(&path, DatasetFormat::Binary)) {
            Err(_) => failures.push(format!("{what}: panicked")),
            Ok(Ok(read)) if read.ids.len() != read.graph.num_nodes() => failures.push(format!(
                "{what}: {} ids for {} nodes",
                read.ids.len(),
                read.graph.num_nodes()
            )),
            Ok(_) => {}
        }
    };
    for at in 0..image.len() {
        for mask in [0xFF, 0x01, 0x80] {
            let mut img = image.clone();
            img[at] ^= mask;
            try_variant(format!("byte {at} ^ {mask:#04x}"), &img);
        }
        let mut img = image.clone();
        let end = (at + 4).min(img.len());
        img[at..end].copy_from_slice(&u32::MAX.to_le_bytes()[..end - at]);
        try_variant(format!("u32::MAX at {at}"), &img);
    }
    for len in 0..image.len() {
        try_variant(format!("truncated to {len}"), &image[..len]);
    }
    assert!(
        failures.is_empty(),
        "{} variants failed: {failures:#?}",
        failures.len()
    );

    // The unmodified image reads back as the fixture.
    std::fs::write(&path, &image).unwrap();
    let read = read_dataset(&path, DatasetFormat::Binary).unwrap();
    assert_eq!(read.ids.externals(), ds.ids.externals());
    assert_eq!(read.graph.num_edges(), ds.graph.num_edges());
    std::fs::remove_dir_all(&dir).ok();
}
