//! A counting global allocator for allocation-freedom smoke tests.
//!
//! The arena-backed relation engine's contract is *zero heap allocations
//! per candidate in the steady state*; benchmarks can only show the
//! symptom (throughput), so `tests/alloc_smoke.rs` pins the cause by
//! installing [`CountingAllocator`] as the global allocator and reading
//! [`allocation_count`] around the hot loop. Behind the `alloc-count`
//! feature because a counting allocator taxes every build that links it.
//!
//! The count is per thread: a test reads only the allocations its own
//! thread made, so the harness's other threads (parallel tests, libtest's
//! own bookkeeping) cannot land inside its measuring window.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation events of this thread. `const`-initialised and without
    /// a destructor, so touching it never allocates (which would recurse
    /// into the allocator).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation event on the calling thread. A thread whose
/// locals are already torn down is not counted.
fn count() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// The system allocator with an allocation-event counter in front.
///
/// Counts `alloc`, `alloc_zeroed` and `realloc` calls (frees are not
/// counted: the contract under test is "no new memory per candidate").
/// Install in a test binary with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: herd_bench::alloc_count::CountingAllocator =
///     herd_bench::alloc_count::CountingAllocator;
/// ```
pub struct CountingAllocator;

// SAFETY: delegates verbatim to `System`, which upholds the GlobalAlloc
// contract; the counter is a side effect with no aliasing implications.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation events of the calling thread since it started (monotone).
pub fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}
