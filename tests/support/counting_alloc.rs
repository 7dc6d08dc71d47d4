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
    /// Blocks and bytes this thread has allocated minus those it has
    /// freed (a `realloc` moves only the bytes). A block freed on
    /// another thread than the one that made it moves both threads'
    /// counts, so a census holds on work that stays on one thread.
    static LIVE: Cell<(i64, i64)> = const { Cell::new((0, 0)) };
    /// The most bytes `LIVE` has counted since [`peak_live_in`] last
    /// reset it.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

/// Count one call: `blocks` is 1 for a new block, 0 for a `realloc` and
/// −1 for a free; every call but a free asks for a heap block. Uses
/// `try_with`: the allocator also runs while a thread is torn down.
fn count(blocks: i64, bytes: i64) {
    if blocks >= 0 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
    let _ = LIVE.try_with(|live| {
        let (b, n) = live.get();
        live.set((b + blocks, n + bytes));
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(n + bytes)));
    });
}

// SAFETY: every operation is `System`'s, called with the arguments this
// allocator was given; the only addition is thread-local counters that
// themselves never allocate (const-initialized `Cell`s, no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(0, new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-1, -(layout.size() as i64));
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

/// Run `f` and return the heap blocks and bytes the calling thread
/// made meanwhile that are still live when `f` returns (`f`'s result
/// included, since it is returned, not dropped inside).
#[allow(dead_code)]
pub fn live_in<R>(f: impl FnOnce() -> R) -> ((i64, i64), R) {
    let before = LIVE.with(Cell::get);
    let out = f();
    let after = LIVE.with(Cell::get);
    ((after.0 - before.0, after.1 - before.1), out)
}

/// Run `f` and return the most bytes the calling thread held live at
/// any point meanwhile, above what it held when `f` began: the
/// high-water mark of `f`'s own heap, result included.
#[allow(dead_code)]
pub fn peak_live_in<R>(f: impl FnOnce() -> R) -> (i64, R) {
    let start = LIVE.with(Cell::get).1;
    let outer = PEAK.with(|peak| peak.replace(start));
    let out = f();
    let peak = PEAK.with(|peak| peak.replace(outer.max(peak.get())));
    (peak - start, out)
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
