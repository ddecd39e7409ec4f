//! The peak live heap of reading a dataset whose one line never ends.
//!
//! A counting global allocator tracks the bytes live on the heap and their
//! peak, on every thread. Each file is eight `CHUNK_BYTES` long and its
//! last line has no newline: each reader rejects it as `LineTooLong` while
//! holding about two blocks, where a reader that grows the line until it
//! ends holds the whole file. The edge-list readers run on a one-thread
//! rayon pool, which reads on the caller, and on a two-thread pool, which
//! reads on a thread of its own; METIS reads on the caller.
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
    let digits = vec![b'7'; 8 * CHUNK_BYTES];
    let mut adjacency = b"% a comment\n2 1\n".to_vec();
    adjacency.extend(b"2 ".repeat(4 * CHUNK_BYTES));
    // (file, format, the unended line)
    let files = [
        ("unended.edges", &digits, DatasetFormat::EdgeList, 1),
        ("unended.metis", &digits, DatasetFormat::Metis, 1),
        ("adjacency.metis", &adjacency, DatasetFormat::Metis, 3),
    ];

    let mut peaks = Vec::new();
    for (name, bytes, format, line) in files {
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        for threads in [1, 2] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            for reader in ["read_dataset", "read_csr", "stream_stats"] {
                let base = LIVE.load(Relaxed);
                PEAK.store(base, Relaxed);
                let err = pool.install(|| match reader {
                    "read_dataset" => read_dataset(&path, format).err(),
                    "read_csr" => read_csr(&path, format).err(),
                    _ => stream_stats(&path, format).err(),
                });
                let what = format!("{reader} of {name} on {threads} threads");
                peaks.push((what, PEAK.load(Relaxed) - base, err, line));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    for (what, peak, err, line) in peaks {
        assert!(
            matches!(
                err,
                Some(ParseError::LineTooLong { line: l, limit: CHUNK_BYTES }) if l == line
            ),
            "{what}: {err:?}"
        );
        assert!(
            peak <= MAX_PEAK_CHUNKS * CHUNK_BYTES,
            "{what} peaked at {peak} B, more than {MAX_PEAK_CHUNKS} blocks of {CHUNK_BYTES} B"
        );
    }
}
