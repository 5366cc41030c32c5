//! Steady-state allocation audit for the annotate hot path.
//!
//! This test binary installs a counting `#[global_allocator]` — a thin
//! wrapper over [`System`] that increments an atomic on every `alloc` /
//! `realloc` — and asserts the zero-allocation contract of
//! [`Annotator::annotate_with`]: once an [`AnnotateScratch`] is warm and
//! the previous snippet's output has been dropped, annotating a snippet
//! performs **zero** heap allocations (tokenizer spans, NER entity spans,
//! POS tags and the output buffer are all recycled through the scratch,
//! and the gazetteer automaton walk builds no key strings).
//!
//! The counter lives in its own integration-test binary so the wrapper
//! never touches production builds or the other test binaries. It is
//! per-thread: the harness runs this binary's tests concurrently, and
//! only the measuring thread's allocations belong to the count.
//! (`etap-annotate` itself stays `#![forbid(unsafe_code)]` — the
//! `unsafe impl GlobalAlloc` below is local to this test crate.)

use etap_annotate::{AnnotateScratch, Annotator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation and reallocation the calling thread makes.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown go uncounted
    // instead of panicking inside the allocator.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// A varied workload: entities of most categories, multi-word gazetteer
/// matches, numbers/ordinals, non-ASCII text and plain prose, so the
/// steady-state claim covers every annotator sub-path, not just one
/// lucky snippet shape.
const TEXTS: &[&str] = &[
    "IBM acquired Daksh for $160 million in April 2004.",
    "Oracle gained 5.3 percent on Monday, said Mr. James Wilson.",
    "Société Générale opened offices in New York City last year.",
    "The company hired 1,200 employees in the fourth quarter of 2005.",
    "Prices rose 3 % at 10:30 on the 21st; the CEO announced a merger.",
    "Heavy rain is expected across the region this weekend.",
];

#[test]
fn annotate_with_is_allocation_free_after_warmup() {
    let annotator = Annotator::new();
    let mut scratch = AnnotateScratch::new();

    // Warm-up: grow every scratch buffer (and the arena's snippet
    // buffer) to the workload's high-water mark.
    for _ in 0..3 {
        for text in TEXTS {
            let snip = annotator.annotate_with(text, &mut scratch);
            assert!(!snip.is_empty());
            // `snip` drops here, so the arena recycles its buffer
            // in place on the next call.
        }
    }

    let before = allocations();
    for _ in 0..10 {
        for text in TEXTS {
            let snip = annotator.annotate_with(text, &mut scratch);
            std::hint::black_box(&snip);
        }
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "annotate_with allocated {} times over {} warm snippets",
        after - before,
        10 * TEXTS.len()
    );
}

#[test]
fn retained_snippets_spill_instead_of_corrupting() {
    // The inverse contract: when outputs are *kept*, the arena must
    // spill to fresh buffers (allocating is expected and correct) and
    // every retained snippet must stay intact.
    let annotator = Annotator::new();
    let mut scratch = AnnotateScratch::new();
    let kept: Vec<_> = TEXTS
        .iter()
        .map(|t| annotator.annotate_with(t, &mut scratch))
        .collect();
    for (snip, text) in kept.iter().zip(TEXTS) {
        assert_eq!(snip, &annotator.annotate(text), "retained snippet mutated");
    }
}
