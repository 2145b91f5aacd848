//! Process-wide allocation accounting for the E18 memory-discipline
//! experiment and the zero-allocation integration tests.
//!
//! [`CountingAlloc`] wraps the system allocator and counts every
//! allocation (and requested byte) twice: process-wide with relaxed
//! atomics, and per thread in a const-initialised thread-local. It is installed
//! as the `#[global_allocator]` **only** in the targets that measure
//! allocation behaviour — the `exp18_alloc_audit` binary and the
//! `alloc_discipline` integration test — so ordinary builds and every
//! other experiment run on the plain system allocator.
//!
//! The counters are monotone totals since process (or thread) start;
//! callers diff [`snapshot`]s or [`thread_snapshot`]s around the region
//! of interest. A test harness runs other threads concurrently, so
//! tests measure with [`thread_snapshot`], which those threads cannot
//! disturb. [`counters`] has the
//! exact shape `enw_trace::install_alloc_source` expects, which is how
//! `ENW_TRACE=summary` output gains its allocator line in E18.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it inside
    // the allocator never allocates or registers thread-exit work.
    static THREAD: Cell<Snapshot> = const { Cell::new(Snapshot { allocs: 0, bytes: 0 }) };
}

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    // A thread past its thread-local teardown keeps only the totals.
    let _ = THREAD.try_with(|t| {
        let s = t.get();
        t.set(Snapshot { allocs: s.allocs + 1, bytes: s.bytes + bytes as u64 });
    });
}

/// A `#[global_allocator]` shim over [`System`] that counts allocations.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow on the hot path costs what a fresh allocation costs, so
        // it counts as one.
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Counter values at one instant (monotone since process start).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Heap allocations (including zeroed allocations and reallocations).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

impl Snapshot {
    /// Counters accumulated between `earlier` and `self`.
    pub fn since(self, earlier: Snapshot) -> Snapshot {
        Snapshot {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

/// Current counter values. Both stay zero unless [`CountingAlloc`] is
/// installed as the global allocator.
pub fn snapshot() -> Snapshot {
    Snapshot { allocs: ALLOCS.load(Ordering::Relaxed), bytes: BYTES.load(Ordering::Relaxed) }
}

/// The calling thread's counter values (monotone since the thread
/// started). Zero unless [`CountingAlloc`] is installed.
pub fn thread_snapshot() -> Snapshot {
    THREAD.try_with(Cell::get).unwrap_or_default()
}

/// Raw `(allocs, bytes)` totals — the signature
/// `enw_trace::install_alloc_source` takes.
pub fn counters() -> (u64, u64) {
    (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}
