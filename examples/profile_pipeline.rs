//! Profile the ETAP pipeline end to end with the built-in stage timers.
//!
//! The runtime's `perf` module instruments every pipeline stage
//! (harvest, negative sampling, vectorization, de-noising, snippet
//! scan, annotation, scoring). The timers are compiled in but dormant —
//! a single relaxed atomic load per stage — until switched on, either
//! programmatically (as here) or from the environment:
//!
//! ```sh
//! ETAP_PERF=1 cargo run --release --example profile_pipeline
//! ```
//!
//! Either way this prints a per-stage table: calls, total ms, mean µs,
//! and each stage's share of instrumented time. These are the same
//! timers behind the `stages` object of `bench_throughput`'s JSON
//! record and the traced `e2ebench` per-layer metrics (`scan.annotate_ms`,
//! `watch.extend_ms`, …).

use etap_repro::runtime::perf;
use etap_repro::{Etap, EtapConfig, SyntheticWeb, WebConfig};

fn main() {
    // Honor ETAP_PERF=1 if the user set it; otherwise switch the
    // timers on for the whole run.
    if !perf::enabled() {
        perf::set_enabled(true);
    }
    perf::reset();

    println!("Generating synthetic web…");
    let web = SyntheticWeb::generate(WebConfig::with_docs(1_500));

    println!("Training (instrumented)…");
    let system = Etap::new(EtapConfig::paper());
    let trained = system.train(&web);

    println!("\n=== training profile ===\n{}", perf::report());

    // Profile the scan path separately so the two phases don't blur:
    // training also scores snippets (the de-noising loop), and a mixed
    // report would hide which phase the scoring time belongs to.
    perf::reset();

    println!("Scanning fresh documents (instrumented)…");
    let fresh = SyntheticWeb::generate(WebConfig {
        seed: 2_026,
        ..WebConfig::with_docs(400)
    });
    let events = trained.identify_events_parallel(fresh.docs(), 0);
    println!("  {} trigger events flagged", events.len());

    let scan = perf::report();
    println!("\n=== scan profile ===\n{scan}");

    // The report is also queryable — e.g. how much of the scan was
    // NER/POS annotation vs classifier scoring:
    if let (Some(ann), Some(vec)) = (scan.stage("scan.annotate"), scan.stage("score.vectorize")) {
        println!(
            "annotation {:.0} ms vs feature extraction {:.0} ms",
            ann.total_ms(),
            vec.total_ms()
        );
    }
    println!("\nmachine-readable: {}", scan.to_json_ms());
}
