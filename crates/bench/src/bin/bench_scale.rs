//! **Scale** — the million-document path: streamed corpus → sharded
//! `LEADS v2` generations → zero-copy mmap warm start.
//!
//! This benchmarks the *scale subsystem*, not the classifier: events
//! are harvested from the stream's ground-truth trigger sentences with
//! deterministic pseudo-scores, so the measured costs are ingest,
//! encode, publish, load, and serve — with no training time in the way
//! and no `Vec<SyntheticDoc>` ever materialized.
//!
//! Measured:
//!
//! * **stream** — docs/s through [`etap_corpus::DocStream`] with the
//!   event harvest running inline (the collection is never held);
//! * **publish** — a full `LEADS v1` text generation vs a full sharded
//!   `LEADS v2` binary generation, then an incremental v2 publish of a
//!   small extension (clean shards hard-linked, not rewritten);
//! * **warm start** — `load_latest` of the v1 generation (checksum +
//!   parse + rebuild) vs the v2 generation (mmap + checksum pass, no
//!   parse), median of `ETAP_SCALE_ROUNDS`;
//! * **serving** — req/s against `/leads?top=10` served straight from
//!   the mapping, measured over `ETAP_SCALE_REQS` keep-alive requests;
//! * **memory** — peak RSS (`VmHWM`) after ingest.
//!
//! Writes `BENCH_scale.json` into the current directory. verify.sh
//! stage 7 gates on `warm_speedup` (≥ 10×) and on the incremental
//! publish writing strictly fewer bytes than the full one.
//!
//! ```sh
//! cargo run --release -p etap-bench --bin bench_scale
//! ```
//!
//! Knobs: `ETAP_SCALE_DOCS` (default 1_000_000), `ETAP_SCALE_SHARDS`
//! (default 64), `ETAP_SCALE_ROUNDS` (default 3), `ETAP_SCALE_REQS`
//! (default 2_000), `ETAP_SCALE_DELTA` (extension docs, default
//! `docs/2000`, min 50).

use etap::{LeadBook, TriggerEvent};
use etap_bench::env_usize;
use etap_corpus::{DocStream, SyntheticDoc, WebConfig};
use etap_runtime::splitmix64;
use etap_serve::{GenerationStore, LeadSnapshot, LeadsFormat, ServeConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

/// Harvest this document's ground-truth trigger events with a
/// deterministic pseudo-score (the classifier is not what this bench
/// measures).
fn harvest(doc: &SyntheticDoc, out: &mut Vec<TriggerEvent>) {
    let Some(driver) = doc.trigger_driver() else {
        return;
    };
    for (i, sentence) in doc.trigger_sentences.iter().enumerate() {
        let mut s = (doc.id as u64) ^ ((i as u64) << 40) ^ 0xE7A9;
        let r = splitmix64(&mut s);
        // Score in [0.5, 1.0): everything harvested is a "trigger".
        let score = 0.5 + (r as f64 / u64::MAX as f64) * 0.5;
        out.push(TriggerEvent {
            driver,
            doc_id: doc.id,
            url: doc.url.clone(),
            snippet: sentence.clone(),
            score,
            companies: doc.companies.iter().take(2).cloned().collect(),
            doc_date: doc.date,
        });
    }
}

fn time_ms(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1_000.0
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Peak RSS in MiB from /proc/self/status (0.0 where unavailable).
fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

fn snapshot_of(events: Vec<TriggerEvent>, generation: u64) -> LeadSnapshot {
    LeadSnapshot {
        generation,
        book: LeadBook::build(events).into(),
        trained: Arc::new(etap::TrainedEtap::from_drivers(Vec::new(), 3)),
    }
}

fn main() {
    let docs = env_usize("ETAP_SCALE_DOCS", 1_000_000);
    let shards = env_usize("ETAP_SCALE_SHARDS", 64).max(1) as u32;
    let rounds = env_usize("ETAP_SCALE_ROUNDS", 3).max(1);
    let reqs = env_usize("ETAP_SCALE_REQS", 2_000).max(1);
    let delta_docs = env_usize("ETAP_SCALE_DELTA", (docs / 2_000).max(50));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // ── ingest: stream the corpus, harvest events, hold only events ──
    eprintln!("streaming {docs} documents (shards={shards})…");
    let mut events: Vec<TriggerEvent> = Vec::new();
    let t0 = Instant::now();
    for doc in DocStream::new(WebConfig::with_docs(docs)) {
        harvest(&doc, &mut events);
    }
    let stream_s = t0.elapsed().as_secs_f64();
    let docs_per_sec = docs as f64 / stream_s.max(1e-9);
    eprintln!(
        "streamed {docs} docs in {stream_s:.2}s ({docs_per_sec:.0} docs/s), {} events harvested",
        events.len()
    );

    // The extension: a separate small stream, as a daily delta would be.
    let mut delta_events = Vec::new();
    for doc in DocStream::new(WebConfig {
        seed: 0xD317A,
        ..WebConfig::with_docs(delta_docs)
    }) {
        harvest(&doc, &mut delta_events);
    }
    eprintln!("delta: {delta_docs} docs, {} events", delta_events.len());

    let n_events = events.len();
    let build_ms = {
        let t = Instant::now();
        let snapshot = snapshot_of(events.clone(), 1);
        let ms = t.elapsed().as_secs_f64() * 1_000.0;
        drop(snapshot);
        ms
    };

    // ── publish: v1 text vs v2 binary, then incremental v2 ──
    let root_v1 = std::env::temp_dir().join(format!("etap_scale_v1_{}", std::process::id()));
    let root_v2 = std::env::temp_dir().join(format!("etap_scale_v2_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root_v1);
    let _ = std::fs::remove_dir_all(&root_v2);
    let store_v1 = GenerationStore::open(&root_v1).expect("open v1 store");
    let store_v2 = GenerationStore::open(&root_v2)
        .expect("open v2 store")
        .with_leads_format(LeadsFormat::Binary { shards });

    let base = snapshot_of(events, 1);
    let mut extended_events = base.book.events_owned();
    extended_events.extend(delta_events.iter().cloned());
    let extended = snapshot_of(extended_events, 2);

    let t = Instant::now();
    let v1_outcome = store_v1.publish(&base).expect("v1 publish");
    let v1_publish_ms = t.elapsed().as_secs_f64() * 1_000.0;
    let t = Instant::now();
    let v2_outcome = store_v2.publish(&base).expect("v2 publish");
    let v2_publish_ms = t.elapsed().as_secs_f64() * 1_000.0;
    let t = Instant::now();
    let extend_outcome = store_v2.publish(&extended).expect("v2 extend publish");
    let extend_publish_ms = t.elapsed().as_secs_f64() * 1_000.0;
    eprintln!(
        "publish: v1 {v1_publish_ms:.1} ms ({} B), v2 {v2_publish_ms:.1} ms ({} B), \
         v2 extend {extend_publish_ms:.1} ms ({} B written, {} shard(s) dirty, {} linked)",
        v1_outcome.bytes_written,
        v2_outcome.bytes_written,
        extend_outcome.bytes_written,
        extend_outcome.shards_written,
        extend_outcome.files_linked,
    );

    // ── warm start: parsed v1 vs mmap'd v2, median of rounds ──
    let mut v1_rounds = Vec::with_capacity(rounds);
    let mut v2_rounds = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        v1_rounds.push(time_ms(|| {
            let (s, _) = store_v1.load_latest().expect("scan").expect("v1 gen");
            assert_eq!(s.book.len(), n_events);
        }));
        v2_rounds.push(time_ms(|| {
            let (s, _) = store_v2.load_latest().expect("scan").expect("v2 gen");
            assert!(s.book.is_mapped());
        }));
    }
    let v1_warm_ms = median(v1_rounds);
    let v2_warm_ms = median(v2_rounds);
    let warm_speedup = v1_warm_ms / v2_warm_ms.max(1e-9);
    eprintln!(
        "warm start (median of {rounds}): v1 parse {v1_warm_ms:.2} ms, \
         v2 mmap {v2_warm_ms:.2} ms ({warm_speedup:.1}×)"
    );

    // Content parity: the mapped book must materialize to exactly the
    // parsed book (the byte-level HTTP parity gate lives in verify.sh).
    let (v1_loaded, _) = store_v1.load_latest().expect("scan").expect("v1 gen");
    let (v2_loaded, _) = store_v2.load(1).map(|s| (s, ())).expect("v2 gen 1");
    assert_eq!(
        v1_loaded.book.events_owned(),
        v2_loaded.book.events_owned(),
        "v1 and v2 generations must hold identical events"
    );

    // ── serving: req/s straight off the mapping ──
    let mut cfg = ServeConfig::from_env();
    cfg.addr = "127.0.0.1:0".to_string();
    cfg.keepalive_requests = reqs + 8;
    let (mapped, _) = store_v2.load_latest().expect("scan").expect("v2 gen");
    assert!(mapped.book.is_mapped());
    let server = etap_serve::start(&cfg, Arc::new(mapped)).expect("start server");
    let req = b"GET /leads?top=10 HTTP/1.1\r\nHost: b\r\nConnection: keep-alive\r\n\r\n";
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut buf = vec![0u8; 64 * 1024];
    let t = Instant::now();
    for _ in 0..reqs {
        stream.write_all(req).expect("write request");
        // Read one full response: headers, then content-length body.
        let mut held = Vec::new();
        let body_at = loop {
            let n = stream.read(&mut buf).expect("read response");
            assert!(n > 0, "server closed mid-benchmark");
            held.extend_from_slice(&buf[..n]);
            if let Some(at) = held.windows(4).position(|w| w == b"\r\n\r\n") {
                break at + 4;
            }
        };
        let headers = String::from_utf8_lossy(&held[..body_at]).to_ascii_lowercase();
        let clen: usize = headers
            .lines()
            .find_map(|l| l.strip_prefix("content-length:"))
            .map(|v| v.trim().parse().expect("content-length"))
            .expect("content-length header");
        let mut have = held.len() - body_at;
        while have < clen {
            let n = stream.read(&mut buf).expect("read body");
            assert!(n > 0);
            have += n;
        }
    }
    let serve_s = t.elapsed().as_secs_f64();
    let req_per_sec = reqs as f64 / serve_s.max(1e-9);
    server.shutdown();
    eprintln!("served {reqs} /leads requests in {serve_s:.2}s ({req_per_sec:.0} req/s)");

    let rss_mib = peak_rss_mib();
    println!("scale ({docs} docs, {n_events} events, {cores} core(s)):");
    println!("  stream        : {docs_per_sec:>10.0} docs/s ({stream_s:.2} s total)");
    println!("  book build    : {build_ms:>10.1} ms");
    println!(
        "  publish       : v1 {v1_publish_ms:.1} ms / v2 {v2_publish_ms:.1} ms / extend {extend_publish_ms:.1} ms"
    );
    println!(
        "  extend bytes  : {} of {} (full), {} shard(s) dirty, {} linked",
        extend_outcome.bytes_written,
        v2_outcome.bytes_written,
        extend_outcome.shards_written,
        extend_outcome.files_linked
    );
    println!(
        "  warm start    : v1 {v1_warm_ms:.2} ms → v2 {v2_warm_ms:.2} ms ({warm_speedup:.1}×)"
    );
    println!("  serving       : {req_per_sec:>10.0} req/s over {reqs} requests");
    println!("  peak RSS      : {rss_mib:>10.1} MiB");

    let json = format!(
        "{{\"docs\": {docs}, \"events\": {n_events}, \"cores\": {cores}, \
         \"shards\": {shards}, \"stream_s\": {stream_s:.3}, \
         \"docs_per_sec\": {docs_per_sec:.0}, \"build_ms\": {build_ms:.1}, \
         \"v1_publish_ms\": {v1_publish_ms:.1}, \"v1_bytes\": {}, \
         \"v2_publish_ms\": {v2_publish_ms:.1}, \"v2_bytes\": {}, \
         \"extend_publish_ms\": {extend_publish_ms:.1}, \"extend_bytes\": {}, \
         \"extend_dirty_shards\": {}, \"extend_linked_files\": {}, \
         \"v1_warm_ms\": {v1_warm_ms:.2}, \"v2_warm_ms\": {v2_warm_ms:.2}, \
         \"warm_speedup\": {warm_speedup:.1}, \"req_per_sec\": {req_per_sec:.0}, \
         \"peak_rss_mib\": {rss_mib:.1}}}\n",
        v1_outcome.bytes_written,
        v2_outcome.bytes_written,
        extend_outcome.bytes_written,
        extend_outcome.shards_written,
        extend_outcome.files_linked,
    );
    std::fs::write("BENCH_scale.json", &json).expect("write BENCH_scale.json");
    println!("\nwrote BENCH_scale.json: {json}");

    let _ = std::fs::remove_dir_all(&root_v1);
    let _ = std::fs::remove_dir_all(&root_v2);
}
