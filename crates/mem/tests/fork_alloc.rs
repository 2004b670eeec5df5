//! Deterministic footprint of a copy-on-write fork, measured by a
//! counting global allocator rather than by timing: a fork allocates a
//! sliver of the memory's size whatever that size is, a child that
//! writes *k* pages holds O(*k*) page bytes, and a reaped child gives
//! back everything it held, its reference on the shared base included.
//!
//! Counts are per thread, so tests running in parallel do not see each
//! other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vax_mem::PhysMemory;

struct Counting;

thread_local! {
    /// Bytes ever allocated on this thread (reallocation counts the new size).
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    /// Bytes currently held by allocations made on this thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn note(grow: usize, shrink: usize) {
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + grow));
    let _ = LIVE.try_with(|l| l.set(l.get() + grow as isize - shrink as isize));
}

// SAFETY: every call forwards to `System` with the caller's layout
// unchanged; the counters are plain thread-local cells.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocated() -> usize {
    ALLOCATED.with(Cell::get)
}

fn live() -> isize {
    LIVE.with(Cell::get)
}

const MIB: u32 = 1 << 20;
const PAGE: usize = 512;

/// A memory of `size` bytes with a recognizable word every 512 KiB.
/// Zeroed pages are never touched, so the host commits almost none of it.
fn marked(size: u32) -> PhysMemory {
    let mut m = PhysMemory::new(size);
    for p in (0..m.pages()).step_by(1024) {
        m.write_u32(p * 512, p).expect("in range");
    }
    m
}

#[test]
fn fork_allocates_under_a_64th_of_memory_at_any_size() {
    for size in [64 * MIB, 256 * MIB] {
        let mut parent = marked(size);
        let before = allocated();
        let first = parent.fork();
        let first_cost = allocated() - before;
        let before = allocated();
        let again = parent.fork_frozen().expect("frozen by the first fork");
        let again_cost = allocated() - before;
        for cost in [first_cost, again_cost] {
            assert!(
                cost < size as usize / 64,
                "{} MiB fork allocated {cost} bytes",
                size / MIB
            );
        }
        assert_eq!(first.read_u32(1024 * 512).expect("in range"), 1024);
        assert_eq!(again.read_u32(2048 * 512).expect("in range"), 2048);
    }
}

#[test]
fn child_holds_page_bytes_in_proportion_to_pages_written() {
    let mut parent = marked(64 * MIB);
    let table = parent.pages() as isize * 4;
    drop(parent.fork());
    for k in [1usize, 8, 64, 512] {
        let before = live();
        let mut child = parent.fork_frozen().expect("frozen");
        let forked = live() - before;
        for i in 0..k {
            // Spread the writes so no two share a page.
            child
                .write_u8((i * 97 * PAGE) as u32 + 5, 1)
                .expect("in range");
        }
        assert_eq!(child.resident_pages(), k as u32);
        let pages_bytes = live() - before - forked - table;
        assert!(
            pages_bytes >= (k * PAGE) as isize && pages_bytes <= (2 * k * PAGE) as isize,
            "{k} written pages hold {pages_bytes} bytes beyond the slot table"
        );
    }
}

#[test]
fn reaping_a_child_restores_the_baseline() {
    let mut parent = marked(64 * MIB);
    drop(parent.fork());
    let baseline = parent.base_ref_count();
    assert_eq!(baseline, Some(1));
    let held = live();
    let mut children: Vec<_> = (0..4)
        .map(|_| parent.fork_frozen().expect("frozen"))
        .collect();
    for (i, child) in children.iter_mut().enumerate() {
        child.write_u32((i * 4096) as u32, 7).expect("in range");
    }
    assert_eq!(parent.base_ref_count(), Some(5));
    drop(children);
    assert_eq!(parent.base_ref_count(), baseline);
    assert_eq!(live(), held, "every byte a child held is freed");
}
