//! A hostile sequence length never makes a decoder reserve more memory than
//! its input holds. A counting global allocator records the largest single
//! allocation while a `Vec<RoundStats>` (136 B per element in memory) that
//! declares `u32::MAX` elements is decoded from 64 KiB of input — the shape
//! of a checkpoint whose round-history length was overwritten. The
//! reservation may not exceed the input: bounding the element count by the
//! input's byte count instead would reserve 136 times as much.
//!
//! This file holds a single test, so no other test allocates while it
//! measures.

use dkc_distsim::wire::{WireCodec, WireError, WireReader};
use dkc_distsim::RoundStats;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, recording the largest allocation it hands out.
struct PeakAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call goes to the system allocator unchanged; the wrapper
// only records sizes.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract, which is passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

#[test]
fn hostile_vec_length_reserves_no_more_than_the_input() {
    let mut input = u32::MAX.to_le_bytes().to_vec();
    input.resize(64 << 10, 0);
    LARGEST.store(0, Ordering::Relaxed);
    let decoded = Vec::<RoundStats>::decode(&mut WireReader::new(&input));
    let largest = LARGEST.load(Ordering::Relaxed);
    assert_eq!(decoded.unwrap_err(), WireError::Truncated);
    assert!(
        largest <= input.len(),
        "decoding {} input bytes reserved {largest} bytes at once",
        input.len()
    );
}
