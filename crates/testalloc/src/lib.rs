//! The one counting allocator the workspace's tests share — a
//! dev-dependency, never shipped API. A test binary installs it with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: stabilizer_testalloc::Counting = stabilizer_testalloc::Counting;
//! ```
//!
//! and reads two per-thread counters around the code under test:
//! [`requested`] (bytes asked of the allocator, never decreasing — "what
//! does this call allocate?") and [`live`] (bytes allocated minus bytes
//! freed — "what does this state still hold?"). Per thread, so tests of
//! one binary running in parallel do not see each other; a test whose
//! code frees on another thread than it allocated on must not use
//! [`live`].

#![deny(clippy::undocumented_unsafe_blocks)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has requested from the allocator.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not yet freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// Forwards to [`System`], counting per thread.
pub struct Counting;

fn note(requested: usize, freed: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = REQUESTED.try_with(|bytes| bytes.set(bytes.get() + requested));
    let _ = LIVE.try_with(|bytes| bytes.set(bytes.get() + requested as isize - freed as isize));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are
// const-initialized thread-local `Cell`s that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, layout.size());
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, layout.size());
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Bytes this thread has requested so far (allocations plus the new size
/// of every reallocation).
pub fn requested() -> usize {
    REQUESTED.with(Cell::get)
}

/// Bytes this thread currently holds: allocated here and not yet freed
/// here.
pub fn live() -> isize {
    LIVE.with(Cell::get)
}

/// Bytes requested while running `f`, and what it returned.
pub fn cost<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = requested();
    let r = f();
    (requested() - before, r)
}
