//! The peak live heap of one `dkc coreness`, `stats`, `orientation` and
//! `densest` call, per arc of its input.
//!
//! A counting global allocator tracks the bytes live on the heap and their
//! peak. The test writes Barabási–Albert edge lists (attach 4, ids scattered
//! over 30 bits as in SNAP files) and runs each command on one in a
//! one-thread rayon pool, so the figures do not depend on the machine's core
//! count. The counters are process-wide, so the calls run one after another
//! in one test.
//!
//! `dkc coreness` on 20,000 nodes peaks at about 47 B per arc. Its bound
//! holds only while the call keeps one graph, its CSR, at 8 B per arc on
//! this unit-weight input, and the compact arena stays at 16 B per arc plus
//! a 24 B record and a 48 B program per node: a CSR that also keeps per-arc
//! weights and the neighbour-rank map measured 60.2 B per arc, the
//! adjacency lists of a `WeightedGraph` beside the CSR cost about 20 B per
//! arc more, and an arena with per-arc `N_v` stamps, per-arc scratch and
//! 120 B programs measured 80.7 B per arc.
//!
//! The other three hold the one CSR `read_csr` builds, as `coreness` does:
//!
//! * `dkc stats` on 100,000 nodes peaks at 23.6 B per arc, against 35.3
//!   with the adjacency lists and a CSR built from them. (On 20,000 nodes
//!   both peak inside the reader, whose three 1 MiB parse buffers weigh
//!   about 20 B per arc there.)
//! * `dkc orientation` on 20,000 nodes peaks at 45.1 B per arc, against
//!   70.2 with the adjacency lists beside the run's CSR.
//! * `dkc densest` on 4,000 nodes (T = 38) peaks at 126.4 B per arc,
//!   against 244.5 with the adjacency lists, a CSR built per phase, and
//!   Phase 3's histories copied into its outcome and again into Phase 4's
//!   programs.

use dkc_graph::generators::barabasi_albert;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The most heap `dkc coreness` may hold at once, per directed arc.
const MAX_BYTES_PER_ARC: f64 = 55.0;
/// The same for `dkc stats`, on the 100,000-node input.
const MAX_STATS_BYTES_PER_ARC: f64 = 28.0;
/// The same for `dkc orientation`.
const MAX_ORIENTATION_BYTES_PER_ARC: f64 = 55.0;
/// The same for `dkc densest`, on the 4,000-node input.
const MAX_DENSEST_BYTES_PER_ARC: f64 = 150.0;

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

/// Writes an `n`-node Barabási–Albert edge list (attach 4, seed 1, ids
/// scattered over 30 bits) under `dir`; returns its path and arc count.
fn ba_edge_list(dir: &std::path::Path, n: usize) -> (String, usize) {
    let mut rng = StdRng::seed_from_u64(1);
    let g = barabasi_albert(n, 4, &mut rng);
    // An odd multiplier permutes the 30-bit id space.
    let id = |v: dkc_graph::NodeId| (v.index() as u64).wrapping_mul(0x9E37_79B1) & ((1 << 30) - 1);
    let mut text = String::new();
    for (u, v, _) in g.edges() {
        let _ = writeln!(text, "{} {}", id(u), id(v));
    }
    let path = dir.join(format!("ba-{n}.edges"));
    std::fs::write(&path, text).unwrap();
    (path.to_string_lossy().into_owned(), 2 * g.num_plain_edges())
}

/// The peak live heap of `dkc <command> <path>` in a one-thread pool, in
/// bytes per arc, and what the call printed.
fn peak_per_arc(command: &str, path: &str, arcs: usize) -> (f64, String) {
    let args = vec![command.to_string(), path.to_string()];
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = pool.install(|| dkc_cli::run(&args)).unwrap();
    let peak = PEAK.load(Relaxed) - base;
    (peak as f64 / arcs as f64, out)
}

#[test]
fn coreness_peak_heap_per_arc_is_bounded() {
    let dir = std::env::temp_dir().join(format!("dkc_cli_coreness_heap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (large, large_arcs) = ba_edge_list(&dir, 20_000);
    let (huge, huge_arcs) = ba_edge_list(&dir, 100_000);
    let (small, small_arcs) = ba_edge_list(&dir, 4_000);
    // The counters are process-wide, so the calls run one after another.
    let calls = [
        (
            "coreness",
            &large,
            large_arcs,
            MAX_BYTES_PER_ARC,
            "top 5 nodes",
        ),
        (
            "stats",
            &huge,
            huge_arcs,
            MAX_STATS_BYTES_PER_ARC,
            "hop diameter",
        ),
        (
            "orientation",
            &large,
            large_arcs,
            MAX_ORIENTATION_BYTES_PER_ARC,
            "max in-degree",
        ),
        (
            "densest",
            &small,
            small_arcs,
            MAX_DENSEST_BYTES_PER_ARC,
            "best cluster",
        ),
    ];
    let mut failures = Vec::new();
    for (command, path, arcs, bound, expected) in calls {
        let (per_arc, out) = peak_per_arc(command, path, arcs);
        assert!(out.contains(expected), "{command}: {out}");
        eprintln!("dkc {command}: {per_arc:.1} B per arc");
        if per_arc > bound {
            failures.push(format!(
                "dkc {command}: peak live heap {per_arc:.1} B per arc, more than {bound}"
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(failures.is_empty(), "{failures:#?}");
}
