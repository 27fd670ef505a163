//! A counting global allocator for the input-boundary tests: it forwards
//! every call to the system allocator and, on a thread inside
//! [`largest_allocation`], keeps the size of the largest single request.
//!
//! A test binary that declares `mod largest_alloc;` installs it as its
//! global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct LargestAllocation;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// only reads and writes const-initialized thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

/// Runs `f` and returns its result with the largest single allocation it
/// made on this thread.
pub fn largest_allocation<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|largest| largest.set(0));
    ARMED.with(|armed| armed.set(true));
    let result = f();
    ARMED.with(|armed| armed.set(false));
    (result, LARGEST.with(Cell::get))
}
