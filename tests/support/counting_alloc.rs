//! A counting global allocator for the allocation-budget tests
//! (`crates/*/tests/alloc_budget.rs` include this file by path; it is
//! not a test target of its own). Counts are per thread, so the budgets
//! hold whatever else the test binary runs in parallel, and a budget
//! can be asserted on each of several worker threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap blocks this thread has asked for (`alloc` and `realloc`).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every operation is `System`'s, called with the arguments this
// allocator was given; the only addition is a thread-local counter that
// itself never allocates (const-initialized `Cell`, no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and return how many heap blocks the calling thread asked for
/// meanwhile, with `f`'s result (returned, not dropped inside, so that
/// building it is counted and freeing it is nobody's business).
pub fn allocs_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Thread counts to hold a budget on: 1, 2 and 4, plus any counts named
/// in `RESOLVER_TEST_THREADS` (the CI determinism matrix's hook).
pub fn thread_axis() -> Vec<usize> {
    let mut axis = vec![1, 2, 4];
    if let Ok(extra) = std::env::var("RESOLVER_TEST_THREADS") {
        for n in extra.split(',').filter_map(|tok| tok.trim().parse::<usize>().ok()) {
            if n > 0 && !axis.contains(&n) {
                axis.push(n);
            }
        }
    }
    axis
}

/// Run `work` on `threads` threads at once, all released together, and
/// return each thread's own allocation count.
pub fn allocs_per_thread(threads: usize, work: impl Fn() + Sync) -> Vec<u64> {
    let start = std::sync::Barrier::new(threads);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    allocs_in(&work).0
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("budget worker panicked")).collect()
    })
}
