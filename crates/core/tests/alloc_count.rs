//! Steady-state allocation audit for the scoring hot path.
//!
//! A counting `#[global_allocator]` (a thin wrapper over [`System`],
//! counted per thread) checks the scan's zero-allocation contract for
//! the common case: once the scratches are warm, annotating a snippet
//! and scoring it against all five shipped drivers — three builtin plus
//! `drivers/extra.drivers` — allocates **nothing** when no driver flags
//! it. The feature walk is recorded into reused buffers once, each
//! driver's lookup and canonicalization reuses the scorer's vector
//! scratch, and the score row is a reused slice.
//!
//! The counter lives in its own integration-test binary so the wrapper
//! never touches production builds or the other test binaries.

use etap::training::{train_drivers, DriverScorer, ScoreScratch, TrainedDriver, TrainingConfig};
use etap::{driverfile, DriverSet, DriverSpec};
use etap_annotate::{AnnotateScratch, Annotator};
use etap_corpus::{SearchEngine, SyntheticWeb, WebConfig};
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

/// Background prose of varied shape (entities, numbers, non-ASCII,
/// long and short) that none of the drivers should flag.
const TEXTS: &[&str] = &[
    "Simmer the sauce for twenty minutes, stirring occasionally.",
    "The museum in New York City reopened its east wing on Monday.",
    "Café owners in Zürich said the festival drew 12,000 visitors.",
    "The recipe needs 3 cups of flour, 2 eggs and 1.5 teaspoons of salt.",
    "Gardeners plant tulip bulbs in autumn; by April 2005 the beds bloom.",
    "",
];

/// The five shipped drivers, trained on a small web.
fn five_drivers(annotator: &Annotator) -> Vec<TrainedDriver> {
    let mut specs = DriverSpec::all_builtin();
    specs.extend(
        driverfile::load_str(include_str!("../../../drivers/extra.drivers"))
            .expect("parse drivers/extra.drivers"),
    );
    let web = SyntheticWeb::generate(WebConfig {
        total_docs: 500,
        drivers: DriverSet::all_registered(),
        ..WebConfig::default()
    });
    let engine = SearchEngine::build(web.docs());
    let config = TrainingConfig {
        top_docs_per_query: 40,
        negative_snippets: 500,
        pure_positives: 10,
        ..TrainingConfig::default()
    };
    let drivers = train_drivers(&specs, &engine, &web, annotator, &config, |_| false);
    assert_eq!(drivers.len(), 5);
    drivers
}

#[test]
fn scoring_an_unflagged_snippet_against_five_drivers_allocates_nothing() {
    let annotator = Annotator::new();
    let drivers = five_drivers(&annotator);
    let scorer = DriverScorer::new(&drivers);

    let mut ann_scratch = AnnotateScratch::new();
    let mut scores = ScoreScratch::new();
    // Warm-up: grow every buffer to the workload's high-water mark, and
    // check the premise — no driver flags any of these snippets.
    for _ in 0..3 {
        for text in TEXTS {
            let snip = annotator.annotate_with(text, &mut ann_scratch);
            for (d, &s) in drivers.iter().zip(scorer.score(&snip, &mut scores)) {
                assert!(s < 0.5, "{} flags {text:?} ({s})", d.spec.driver);
            }
        }
    }

    let before = allocations();
    let mut checksum = 0.0f64;
    for _ in 0..10 {
        for text in TEXTS {
            let snip = annotator.annotate_with(text, &mut ann_scratch);
            checksum += scorer.score(&snip, &mut scores).iter().sum::<f64>();
        }
    }
    let after = allocations();
    std::hint::black_box(checksum);

    assert_eq!(
        after - before,
        0,
        "annotate + 5-driver scoring allocated {} times over {} warm snippets",
        after - before,
        10 * TEXTS.len()
    );
}

/// Allocations of the one-shot path (`Annotator::annotate`, then
/// `TrainedDriver::score` against each driver) over `TEXTS`, measured
/// before the scratch memos existed. A one-shot call uses a fresh
/// scratch once, so it must not pay for a memo it never reads again.
const ONE_SHOT_ALLOCS: u64 = 346;

#[test]
fn one_shot_annotate_and_score_allocate_no_more_than_without_memos() {
    let annotator = Annotator::new();
    let drivers = five_drivers(&annotator);
    let before = allocations();
    let mut checksum = 0.0f64;
    for text in TEXTS {
        let snip = annotator.annotate(text);
        for d in &drivers {
            checksum += d.score(&snip);
        }
    }
    let after = allocations();
    std::hint::black_box(checksum);
    assert!(
        after - before <= ONE_SHOT_ALLOCS,
        "one-shot annotate + score allocated {} times (pinned: {ONE_SHOT_ALLOCS})",
        after - before
    );
}
