//! Footprint guard for the search index: the number of live heap
//! allocations a built [`SearchEngine`] holds must not grow with the
//! corpus. The engine stays resident for the whole process, and an
//! index with one allocation per term or per (term, document) posting
//! costs tens of thousands of allocations on a 1,500-doc web.
//!
//! A counting `#[global_allocator]` (a thin wrapper over [`System`],
//! counted per thread) tracks live allocations: allocations minus
//! deallocations on the calling thread. It lives in its own test binary
//! so the wrapper never touches production builds or other tests.

use etap_corpus::{SearchEngine, SyntheticWeb, WebConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the calling thread's live allocations.
struct CountingAlloc;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn add(delta: i64) {
    // `try_with`: allocations during thread teardown go uncounted
    // instead of panicking inside the allocator.
    let _ = LIVE.try_with(|n| n.set(n.get() + delta));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(1);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-1);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// Live allocations held by an index built over a `docs`-document web.
fn held_by_index(docs: usize) -> i64 {
    let web = SyntheticWeb::generate(WebConfig::with_docs(docs));
    let before = live();
    let engine = SearchEngine::build(web.docs());
    let held = live() - before;
    assert!(!engine.search("\"new ceo\"", 10).is_empty());
    held
}

#[test]
fn index_allocations_do_not_grow_with_the_corpus() {
    let small = held_by_index(500);
    let large = held_by_index(1_500);
    assert_eq!(
        small, large,
        "index holds {small} allocations at 500 docs, {large} at 1,500"
    );
}
