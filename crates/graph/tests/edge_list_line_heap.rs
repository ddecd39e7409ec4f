//! The peak live heap of reading an edge list whose one line never ends.
//!
//! A counting global allocator tracks the bytes live on the heap and their
//! peak. The file is eight `CHUNK_BYTES` long with no newline: each reader
//! rejects it as `LineTooLong` on line 1 while holding about two blocks,
//! where a reader that grows the line until it ends holds the whole file.
//! The test runs in a one-thread rayon pool, as the readers' batch width
//! follows the pool size.

use dkc_graph::ingest::{read_csr, read_dataset, stream_stats, DatasetFormat, CHUNK_BYTES};
use dkc_graph::io::ParseError;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The most heap a reader may hold at once, in `CHUNK_BYTES`.
const MAX_PEAK_CHUNKS: usize = 3;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes and their peak.
struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_line_without_an_end_is_rejected_within_a_few_blocks() {
    let dir = std::env::temp_dir().join(format!("dkc_edge_list_line_heap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("unended.edges");
    std::fs::write(&path, vec![b'7'; 8 * CHUNK_BYTES]).unwrap();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();

    let mut peaks = Vec::new();
    for reader in ["read_dataset", "read_csr", "stream_stats"] {
        let base = LIVE.load(Relaxed);
        PEAK.store(base, Relaxed);
        let err = pool.install(|| match reader {
            "read_dataset" => read_dataset(&path, DatasetFormat::EdgeList).err(),
            "read_csr" => read_csr(&path, DatasetFormat::EdgeList).err(),
            _ => stream_stats(&path, DatasetFormat::EdgeList).err(),
        });
        peaks.push((reader, PEAK.load(Relaxed) - base, err));
    }
    let _ = std::fs::remove_dir_all(&dir);

    for (reader, peak, err) in peaks {
        assert!(
            matches!(
                err,
                Some(ParseError::LineTooLong {
                    line: 1,
                    limit: CHUNK_BYTES
                })
            ),
            "{reader}: {err:?}"
        );
        assert!(
            peak <= MAX_PEAK_CHUNKS * CHUNK_BYTES,
            "{reader} peaked at {peak} B, more than {MAX_PEAK_CHUNKS} blocks of {CHUNK_BYTES} B"
        );
    }
}
