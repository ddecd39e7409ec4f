//! The peak live heap of one `dkc coreness` call, per arc of its input.
//!
//! A counting global allocator tracks the bytes live on the heap and their
//! peak. The test writes a 20,000-node Barabási–Albert edge list (attach 4,
//! ids scattered over 30 bits as in SNAP files) and runs `dkc coreness` on
//! it in a one-thread rayon pool, so the figure does not depend on the
//! machine's core count. The call peaks at about 47 B per arc. The bound
//! holds only while the call keeps one graph, its CSR, at 8 B per arc on
//! this unit-weight input, and the compact arena stays at 16 B per arc plus
//! a 24 B record and a 48 B program per node: a CSR that also keeps per-arc
//! weights and the neighbour-rank map measured 60.2 B per arc, the
//! adjacency lists of a `WeightedGraph` beside the CSR cost about 20 B per
//! arc more, and an arena with per-arc `N_v` stamps, per-arc scratch and
//! 120 B programs measured 80.7 B per arc.

use dkc_graph::generators::barabasi_albert;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The most heap the call may hold at once, per directed arc.
const MAX_BYTES_PER_ARC: f64 = 55.0;

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
fn coreness_peak_heap_per_arc_is_bounded() {
    let mut rng = StdRng::seed_from_u64(1);
    let g = barabasi_albert(20_000, 4, &mut rng);
    let arcs = 2 * g.num_plain_edges();
    // An odd multiplier permutes the 30-bit id space.
    let id = |v: dkc_graph::NodeId| (v.index() as u64).wrapping_mul(0x9E37_79B1) & ((1 << 30) - 1);
    let mut text = String::new();
    for (u, v, _) in g.edges() {
        let _ = writeln!(text, "{} {}", id(u), id(v));
    }
    drop(g);
    let dir = std::env::temp_dir().join(format!("dkc_cli_coreness_heap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ba-20k.edges");
    std::fs::write(&path, text).unwrap();
    let args = vec!["coreness".to_string(), path.to_string_lossy().into_owned()];
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();

    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = pool.install(|| dkc_cli::run(&args)).unwrap();
    let peak = PEAK.load(Relaxed) - base;
    let _ = std::fs::remove_dir_all(&dir);

    assert!(out.contains("top 5 nodes by approximate coreness"), "{out}");
    let per_arc = peak as f64 / arcs as f64;
    assert!(
        per_arc <= MAX_BYTES_PER_ARC,
        "peak live heap {peak} B for {arcs} arcs: {per_arc:.1} B per arc, more than {MAX_BYTES_PER_ARC}"
    );
}
