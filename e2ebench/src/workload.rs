//! The three workloads. Each drives the same chain of public calls —
//! train → scan → book → publish → load → serve → watch cycle — with its
//! own sizes, so that a different layer dominates each one:
//!
//! * `crawl`: cold batch lead generation; training, annotation and
//!   5-driver scoring do nearly all the work.
//! * `serve`: a large mapped `LEADS v2` generation under cold restarts
//!   and a closed request loop on two keep-alive connections.
//! * `watch`: a `LEADS v1` store configured like `etap-cli watch`;
//!   back-to-back watch cycles with one keep-alive reader beside them.
//!
//! Set-up builds the inputs and a sealed base generation. The timed
//! part is a number of rounds, each a cold ingest into a fresh store,
//! then cold restarts, a slice of the request loop and watch cycles on a
//! fresh copy of the base store; rounds differ only in the batches their
//! watch cycles poll. Every timing is a median (or a rate) over all
//! rounds, so each one samples the whole run rather than one stretch of
//! it.

use crate::client::{self, Client, Failure, Request};
use crate::report::Metrics;
use crate::{host, mix, stats, trace};
use etap::training::{train_driver, TrainedDriver};
use etap::{DriverSpec, LeadBook, TrainedEtap, TrainingConfig};
use etap_annotate::Annotator;
use etap_corpus::{DriverSet, SearchEngine, SyntheticDoc, SyntheticWeb, WebConfig};
use etap_runtime::perf;
use etap_serve::{watch, GenerationStore, LeadSnapshot, LeadsFormat, ServeConfig, WatchConfig};
use etap_text::SnippetGenerator;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::SocketAddr;
use std::os::unix::fs::MetadataExt as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The `/leads` request whose bytes every check and digest compares.
const FIRST_LEADS: &str = "/leads?top=100";

/// Generations a store keeps, as `etap-cli watch` keeps by default.
const KEEP: usize = 4;

const MIB: f64 = 1024.0 * 1024.0;

/// The watch reader's pause between requests: a dashboard polling the
/// book, not a load generator competing with the watch cycle for CPU.
const READER_PAUSE: Duration = Duration::from_millis(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Crawl,
    Serve,
    Watch,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "crawl" => Some(Self::Crawl),
            "serve" => Some(Self::Serve),
            "watch" => Some(Self::Watch),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Crawl => "crawl",
            Self::Serve => "serve",
            Self::Watch => "watch",
        }
    }

    pub fn params(self) -> Params {
        match self {
            Self::Crawl => Params {
                train_docs: 2_500,
                base_docs: 2_000,
                ingest_docs: 6_000,
                format: LeadsFormat::Binary { shards: 16 },
                rounds_per_10s: 4,
                restarts: 6,
                loop_ms: 500,
                cycles: 2,
                poll_docs: 200,
            },
            Self::Serve => Params {
                train_docs: 1_500,
                base_docs: 12_000,
                ingest_docs: 3_000,
                format: LeadsFormat::Binary { shards: 16 },
                rounds_per_10s: 4,
                restarts: 6,
                loop_ms: 1_000,
                cycles: 2,
                poll_docs: 200,
            },
            Self::Watch => Params {
                train_docs: 1_500,
                base_docs: 3_000,
                ingest_docs: 3_000,
                format: LeadsFormat::Text,
                rounds_per_10s: 5,
                restarts: 2,
                loop_ms: 400,
                cycles: 4,
                poll_docs: 80,
            },
        }
    }
}

/// Sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Documents in the training web.
    pub train_docs: usize,
    /// Documents scanned into the base generation at set-up.
    pub base_docs: usize,
    /// Documents each round's cold ingest scans.
    pub ingest_docs: usize,
    /// On-disk book format of every store.
    pub format: LeadsFormat,
    /// Rounds per 10 s of `--seconds` (at least 2 run).
    pub rounds_per_10s: usize,
    /// Cold restarts per round.
    pub restarts: usize,
    /// Closed-loop milliseconds per round.
    pub loop_ms: u64,
    /// Watch cycles per round.
    pub cycles: u64,
    /// Documents each watch cycle polls.
    pub poll_docs: usize,
}

impl Params {
    fn rounds(&self, seconds: f64) -> usize {
        ((self.rounds_per_10s as f64 * seconds / 10.0).round() as usize).max(2)
    }
}

/// Derive an independent seed for one input stream.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut s = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    etap_runtime::splitmix64(&mut s)
}

/// What set-up produces: the corpora, the search index, the held-out
/// snippets and a sealed base generation in `<dir>/base`.
pub struct Inputs {
    web: SyntheticWeb,
    engine: SearchEngine,
    ingest: SyntheticWeb,
    annotator: Annotator,
    snippets: Vec<String>,
    base: Arc<LeadSnapshot>,
}

fn generate(docs: usize, seed: u64) -> SyntheticWeb {
    let _s = trace::span("corpus.generate");
    SyntheticWeb::generate(WebConfig {
        total_docs: docs,
        seed,
        drivers: DriverSet::all_registered(),
        ..WebConfig::default()
    })
}

fn open_store(dir: &Path, format: LeadsFormat) -> GenerationStore {
    GenerationStore::open(dir)
        .expect("open a generation store")
        .with_retention(KEEP)
        .with_leads_format(format)
}

/// Generate the inputs of one run from `seed` and seal the base
/// generation into a fresh store under `dir`.
pub fn setup(params: &Params, specs: &[DriverSpec], seed: u64, dir: &Path) -> Inputs {
    let web = generate(params.train_docs, sub_seed(seed, 1));
    let engine = {
        let _s = trace::span("corpus.search_build");
        SearchEngine::build(web.docs())
    };
    let base_docs = generate(params.base_docs, sub_seed(seed, 2));
    let ingest = generate(params.ingest_docs, sub_seed(seed, 3));
    let held_out = generate(400, sub_seed(seed, 4));
    let snippets: Vec<String> = {
        let _s = trace::span("corpus.snippets");
        let generator = SnippetGenerator::new(3);
        held_out
            .docs()
            .iter()
            .filter_map(|doc| {
                let snippets = generator.snippets(&doc.text());
                snippets
                    .get(doc.id % snippets.len().max(1))
                    .map(|s| s.text.clone())
            })
            .filter(|t| !t.trim().is_empty())
            .take(64)
            .collect()
    };
    let annotator = {
        let _s = trace::span("annotate.new");
        Annotator::new()
    };
    let trained = Arc::new(train(&engine, &web, &annotator, specs, params.train_docs));
    let base = Arc::new(build(trained, base_docs.docs(), 1));
    let _ = std::fs::remove_dir_all(dir.join("base"));
    {
        let _s = trace::span("store.publish");
        open_store(&dir.join("base"), params.format)
            .publish(&base)
            .expect("seal the base generation");
    }
    Inputs {
        web,
        engine,
        ingest,
        annotator,
        snippets,
        base,
    }
}

fn training_config(train_docs: usize) -> TrainingConfig {
    TrainingConfig {
        negative_snippets: train_docs * 3 / 2,
        threads: 1,
        ..TrainingConfig::default()
    }
}

/// Train every driver, as `Etap::train` does, one `train_driver` call each.
fn train(
    engine: &SearchEngine,
    web: &SyntheticWeb,
    annotator: &Annotator,
    specs: &[DriverSpec],
    train_docs: usize,
) -> TrainedEtap {
    let config = training_config(train_docs);
    let drivers: Vec<TrainedDriver> = specs
        .iter()
        .map(|spec| {
            let _s = trace::span("training.train_driver");
            train_driver(spec, engine, web, annotator, &config, |_| false)
        })
        .collect();
    TrainedEtap::from_drivers(drivers, config.snippet_window)
}

/// Scan `docs` single-threaded and freeze the book as `generation`.
fn build(trained: Arc<TrainedEtap>, docs: &[SyntheticDoc], generation: u64) -> LeadSnapshot {
    let events = {
        let _s = trace::span("scan.identify_events");
        trained.identify_events_parallel(docs, 1)
    };
    let book = {
        let _s = trace::span("leads.build");
        LeadBook::build(events)
    };
    LeadSnapshot {
        generation,
        book: book.into(),
        trained,
    }
}

/// Attempts, failures and what failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// Add another pass's counts and problems.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.problems.truncate(20);
    }

    fn absorb(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        if failed > 0 {
            self.failed += failed;
            if self.problems.len() < 20 {
                self.problems.push(format!("{failed} failed {what}"));
            }
        }
    }
}

/// Everything one pass measured.
pub struct Pass {
    pub wall_s: f64,
    pub e2e: Metrics,
    pub layer: Metrics,
    pub tally: Tally,
    pub digest: u64,
    /// Facts for the run record (JSON values).
    pub notes: Vec<(&'static str, String)>,
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        store: None,
        ..ServeConfig::default()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Digest of a book's events in rank order and of its `/leads` bytes.
fn digest(book: &etap::BookHandle, leads: &[u8]) -> u64 {
    let mut bytes = Vec::new();
    // 0xff never occurs in UTF-8, so it separates fields unambiguously.
    let mut field = |b: &[u8]| {
        bytes.extend_from_slice(b);
        bytes.push(0xff);
    };
    for e in book.top(book.len()) {
        field(e.driver().id().as_bytes());
        field(&(e.doc_id() as u64).to_le_bytes());
        field(&e.score().to_bits().to_le_bytes());
        field(e.snippet().as_bytes());
        field(e.url().as_bytes());
        for c in e.companies_vec() {
            field(c.as_bytes());
        }
    }
    field(leads);
    etap_persist::fnv1a64(&bytes)
}

/// One GET on a fresh connection, as a traced `http` call. A hung
/// server panics (the run fails); other failures return `None`.
fn get(addr: SocketAddr, target: &str) -> Option<(u16, Vec<u8>)> {
    let _s = trace::span_req("http.get", trace::next_request_id());
    match client::fetch(addr, &Request::get(target)) {
        Ok(r) => Some(r),
        Err(Failure::TimedOut) => panic!("server hung on GET {target}"),
        Err(Failure::Broken(_)) => None,
    }
}

fn start(snapshot: Arc<LeadSnapshot>) -> etap_serve::ServerHandle {
    let _s = trace::span("server.start");
    etap_serve::start(&serve_config(), snapshot).expect("start a server on 127.0.0.1:0")
}

fn shutdown(server: etap_serve::ServerHandle) {
    let _s = trace::span("server.shutdown");
    server.shutdown();
}

fn load_latest(store: &GenerationStore) -> LeadSnapshot {
    let _s = trace::span("store.load_latest");
    let (snapshot, skipped) = store
        .load_latest()
        .expect("read the store root")
        .expect("a sealed generation in the store");
    assert!(
        skipped.is_empty(),
        "the store skipped generations: {skipped:?}"
    );
    snapshot
}

/// Add the perf stage totals since the last call to `into`, and reset.
fn take_perf(into: &mut BTreeMap<&'static str, f64>) {
    for stage in perf::report().stages() {
        *into.entry(stage.name).or_default() += stage.total_ms();
    }
    perf::reset();
}

/// Every regular file under `root` (recursively), with its metadata.
fn files_under(root: &Path) -> Vec<(std::fs::DirEntry, std::fs::Metadata)> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let Ok(meta) = entry.metadata() else { continue };
            if meta.is_dir() {
                stack.push(entry.path());
            } else {
                files.push((entry, meta));
            }
        }
    }
    files
}

/// Bytes on disk under `root`, each inode counted once.
fn disk_bytes(root: &Path) -> u64 {
    let mut seen = HashSet::new();
    files_under(root)
        .iter()
        .filter(|(_, meta)| seen.insert((meta.dev(), meta.ino())))
        .map(|(_, meta)| meta.len())
        .sum()
}

/// `(payload files, files hard-linked from another generation)` in one
/// generation directory.
fn generation_files(dir: &Path) -> (u64, u64) {
    let payload: Vec<_> = files_under(dir)
        .into_iter()
        .filter(|(entry, _)| entry.file_name() != "MANIFEST")
        .collect();
    let linked = payload.iter().filter(|(_, meta)| meta.nlink() > 1).count();
    (payload.len() as u64, linked as u64)
}

/// Copy a store directory tree (regular files only).
fn copy_dir(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), to)?;
        }
    }
    Ok(())
}

/// Parse the `/metrics` exposition into `name → value`.
fn scrape(addr: SocketAddr, tally: &mut Tally) -> HashMap<String, f64> {
    let response = get(addr, "/metrics");
    tally.check(matches!(response, Some((200, _))), || {
        "GET /metrics failed".to_string()
    });
    let body = response.map(|(_, b)| b).unwrap_or_default();
    String::from_utf8_lossy(&body)
        .lines()
        .filter_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// What one closed-loop client saw.
#[derive(Default)]
struct ClientRun {
    /// `(group, latency ms)` per completed request.
    samples: Vec<(usize, f64)>,
    attempted: u64,
    failed: u64,
    connects: u64,
    wire_bytes: u64,
    first_error: Option<String>,
}

fn loop_client(
    addr: SocketAddr,
    mix: &mix::Mix,
    refs: &[Vec<u8>],
    offset: usize,
    deadline: Instant,
    parent: u64,
) -> ClientRun {
    trace::adopt(parent);
    let mut run = ClientRun {
        samples: Vec::with_capacity(1 << 16),
        ..ClientRun::default()
    };
    let mut client = Client::new(addr);
    let mut i = offset;
    while Instant::now() < deadline {
        let (group, r) = mix.sequence[i % mix.sequence.len()];
        i += 1;
        let _s = trace::span_req(mix::SPANS[group], trace::next_request_id());
        let t0 = Instant::now();
        let outcome = client.send(&mix.requests[r]);
        let elapsed = ms(t0.elapsed());
        run.attempted += 1;
        match outcome {
            Ok(resp) => {
                run.wire_bytes += resp.wire_bytes as u64;
                if resp.status != 200 || client.body(&resp) != refs[r].as_slice() {
                    run.failed += 1;
                }
                run.samples.push((group, elapsed));
            }
            Err(Failure::TimedOut) => panic!("server hung in the request loop"),
            Err(e) => {
                run.failed += 1;
                run.first_error.get_or_insert_with(|| e.to_string());
            }
        }
    }
    run.connects = client.connects;
    trace::flush();
    run
}

/// What the watch-phase reader saw.
#[derive(Default)]
struct ReaderRun {
    latencies: Vec<f64>,
    /// `(when, generation)` each time a newer generation was served.
    seen: Vec<(Instant, u64)>,
    attempted: u64,
    failed: u64,
}

fn reader(addr: SocketAddr, stop: &AtomicBool, latest: &AtomicU64, parent: u64) -> ReaderRun {
    trace::adopt(parent);
    let requests = [
        Request::get("/leads?top=10"),
        Request::get("/companies?top=10"),
    ];
    let mut run = ReaderRun {
        latencies: Vec::with_capacity(1 << 16),
        ..ReaderRun::default()
    };
    let mut client = Client::new(addr);
    let mut last = 0;
    let mut i = 0;
    while !stop.load(Ordering::Relaxed) {
        let _s = trace::span_req("http.reader", trace::next_request_id());
        let t0 = Instant::now();
        let outcome = client.send(&requests[i % 2]);
        i += 1;
        let done = Instant::now();
        run.attempted += 1;
        match outcome {
            Ok(resp) => {
                run.latencies.push(ms(done - t0));
                let generation = resp.generation.unwrap_or(0);
                if resp.status != 200 || generation < last {
                    run.failed += 1;
                } else if generation > last {
                    run.seen.push((done, generation));
                    latest.store(generation, Ordering::Relaxed);
                    last = generation;
                }
            }
            Err(Failure::TimedOut) => panic!("server hung under the watch reader"),
            Err(Failure::Broken(_)) => run.failed += 1,
        }
        std::thread::sleep(READER_PAUSE);
    }
    trace::flush();
    run
}

/// Samples gathered over the rounds of one pass.
#[derive(Default)]
struct Acc {
    crawl_to_served_s: Vec<f64>,
    train_s: Vec<f64>,
    scan_docs_per_s: Vec<f64>,
    book_ms: Vec<f64>,
    publish_ms: Vec<f64>,
    publish_wchar: u64,
    publish_bytes: u64,
    publish_files: u64,
    /// Bytes on disk of the cold ingest's own store.
    ingest_store_bytes: u64,
    scan_allocs: u64,
    scan_alloc_bytes: u64,
    scan_docs: u64,
    scan_events: usize,
    book_events: usize,
    book_companies: usize,
    restart_ms: Vec<f64>,
    load_ms: Vec<f64>,
    loop_samples: Vec<(usize, f64)>,
    loop_s: f64,
    loop_connects: u64,
    loop_wire_bytes: u64,
    loop_allocs: u64,
    counters: HashMap<&'static str, f64>,
    reader_latencies: Vec<f64>,
    freshness_ms: Vec<f64>,
    cycles: u64,
    cycle_wchar: u64,
    cycle_syscw: u64,
    files_published: u64,
    files_linked: u64,
    retries: u64,
    cycles_failed: u64,
    ingest_perf: BTreeMap<&'static str, f64>,
    restart_perf: BTreeMap<&'static str, f64>,
    watch_perf: BTreeMap<&'static str, f64>,
}

/// `/metrics` counters summed over the request loops.
const COUNTERS: [&str; 3] = [
    "etap_requests_total",
    "etap_keepalive_reuses_total",
    "etap_shed_total",
];

/// `/metrics` counters that must not rise during a request loop.
const FAILURE_COUNTERS: [&str; 4] = [
    "etap_shed_total",
    "etap_worker_panics_total",
    "etap_store_failures_total",
    "etap_deadline_exceeded_total",
];

/// A cold ingest into a fresh store: train → scan → book → publish →
/// load → start → first `/leads`. Returns the digest of what it built
/// and served.
fn ingest(
    params: &Params,
    inputs: &Inputs,
    specs: &[DriverSpec],
    dir: &Path,
    acc: &mut Acc,
    tally: &mut Tally,
) -> u64 {
    let _ = std::fs::remove_dir_all(dir);
    let store = open_store(dir, params.format);
    perf::reset();
    let t0 = Instant::now();
    let trained = Arc::new(train(
        &inputs.engine,
        &inputs.web,
        &inputs.annotator,
        specs,
        params.train_docs,
    ));
    let train_s = t0.elapsed().as_secs_f64();

    let docs = inputs.ingest.docs();
    let allocs_before = crate::alloc::counts();
    let t_scan = Instant::now();
    let events = {
        let _s = trace::span("scan.identify_events");
        trained.identify_events_parallel(docs, 1)
    };
    let scan_s = t_scan.elapsed().as_secs_f64();
    let allocs_after = crate::alloc::counts();
    acc.scan_events = events.len();

    let t_book = Instant::now();
    let book = {
        let _s = trace::span("leads.build");
        LeadBook::build(events)
    };
    acc.book_ms.push(ms(t_book.elapsed()));
    let built = Arc::new(LeadSnapshot {
        generation: 1,
        book: book.into(),
        trained,
    });

    let io_before = host::write_counters();
    let t_publish = Instant::now();
    let outcome = {
        let _s = trace::span("store.publish");
        store.publish(&built).expect("publish a cold generation")
    };
    acc.publish_ms.push(ms(t_publish.elapsed()));
    acc.publish_wchar += host::write_counters().0 - io_before.0;
    acc.publish_bytes += outcome.bytes_written;
    acc.publish_files += outcome.files_written;

    let server = start(Arc::new(load_latest(&store)));
    let first = get(server.addr(), FIRST_LEADS);
    acc.crawl_to_served_s.push(t0.elapsed().as_secs_f64());
    shutdown(server);
    take_perf(&mut acc.ingest_perf);

    acc.train_s.push(train_s);
    acc.scan_docs_per_s.push(docs.len() as f64 / scan_s);
    acc.scan_allocs += allocs_after.0 - allocs_before.0;
    acc.scan_alloc_bytes += allocs_after.1 - allocs_before.1;
    acc.scan_docs += docs.len() as u64;
    acc.book_events = built.book.len();
    acc.book_companies = built.book.companies_len();

    // The stored generation must serve the in-memory book's bytes.
    let in_memory = start(Arc::clone(&built));
    let reference = get(in_memory.addr(), FIRST_LEADS);
    shutdown(in_memory);
    let cold = match first {
        Some((200, body)) => body,
        other => {
            tally.fail(format!(
                "first {FIRST_LEADS} answered {:?}",
                other.map(|r| r.0)
            ));
            Vec::new()
        }
    };
    tally.check(
        matches!(&reference, Some((200, body)) if *body == cold),
        || format!("{FIRST_LEADS} off the stored generation differs from the in-memory book"),
    );
    drop(store);
    acc.ingest_store_bytes = disk_bytes(dir);
    let _ = std::fs::remove_dir_all(dir);

    digest(&built.book, &cold)
}

/// Cold restarts off `store`; returns the `/leads` bytes they all served.
fn restarts(params: &Params, store: &GenerationStore, acc: &mut Acc, tally: &mut Tally) -> Vec<u8> {
    let mut bodies: Vec<Vec<u8>> = Vec::with_capacity(params.restarts);
    perf::reset();
    for _ in 0..params.restarts {
        let t0 = Instant::now();
        let snapshot = load_latest(store);
        acc.load_ms.push(ms(t0.elapsed()));
        let server = start(Arc::new(snapshot));
        let response = get(server.addr(), FIRST_LEADS);
        acc.restart_ms.push(ms(t0.elapsed()));
        shutdown(server);
        match response {
            Some((200, body)) => bodies.push(body),
            other => tally.fail(format!("a restart answered {:?}", other.map(|r| r.0))),
        }
    }
    take_perf(&mut acc.restart_perf);
    tally.attempted += params.restarts as u64;
    let first = bodies.first().cloned().unwrap_or_default();
    tally.check(bodies.iter().all(|b| *b == first), || {
        "restarts served different /leads bytes".to_string()
    });
    first
}

/// One slice of the closed loop: two keep-alive clients over the mix,
/// every response checked against the reference taken before it.
fn request_loop(
    params: &Params,
    addr: SocketAddr,
    request_mix: &mix::Mix,
    acc: &mut Acc,
    tally: &mut Tally,
) {
    let refs: Vec<Vec<u8>> = request_mix
        .requests
        .iter()
        .map(|req| {
            let _s = trace::span_req("http.reference", trace::next_request_id());
            match client::fetch(addr, req) {
                Ok((200, body)) => body,
                Ok((status, body)) => panic!(
                    "reference request {:?} answered {status}: {}",
                    String::from_utf8_lossy(&req.bytes),
                    String::from_utf8_lossy(&body)
                ),
                Err(e) => panic!("a reference request failed: {e}"),
            }
        })
        .collect();
    let before = scrape(addr, tally);
    let allocs_before = crate::alloc::counts();
    let t0 = Instant::now();
    let clients: Vec<ClientRun> = {
        let span = trace::span("bench.loop");
        let parent = span.id();
        let deadline = t0 + Duration::from_millis(params.loop_ms);
        let refs = &refs;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|c| {
                    let offset = c * request_mix.sequence.len() / 2;
                    scope.spawn(move || {
                        loop_client(addr, request_mix, refs, offset, deadline, parent)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a loop client panicked"))
                .collect()
        })
    };
    acc.loop_s += t0.elapsed().as_secs_f64();
    acc.loop_allocs += crate::alloc::counts().0 - allocs_before.0;
    let after = scrape(addr, tally);
    for counter in COUNTERS {
        let delta = after.get(counter).copied().unwrap_or(0.0)
            - before.get(counter).copied().unwrap_or(0.0);
        *acc.counters.entry(counter).or_default() += delta;
    }
    for counter in FAILURE_COUNTERS {
        let rose = after.get(counter) != before.get(counter);
        tally.check(!rose, || format!("{counter} rose during the loop"));
    }
    for c in clients {
        tally.absorb(c.attempted, c.failed, "loop requests");
        if let Some(e) = c.first_error {
            tally.problems.push(format!("loop request: {e}"));
        }
        acc.loop_connects += c.connects;
        acc.loop_wire_bytes += c.wire_bytes;
        acc.loop_samples.extend(c.samples);
    }
}

/// Back-to-back single-cycle `watch::run` calls on `server` and `store`,
/// with one keep-alive reader issuing `/leads` and `/companies`.
fn watch_cycles(
    params: &Params,
    poll_seed: u64,
    server: &etap_serve::ServerHandle,
    store: &GenerationStore,
    acc: &mut Acc,
    tally: &mut Tally,
) {
    let config = WatchConfig {
        interval: Duration::ZERO,
        cycles: Some(1),
        poll_docs: params.poll_docs,
        poll_seed,
        threads: 1,
        drivers: DriverSet::all_registered(),
        ..WatchConfig::default()
    };
    let addr = server.addr();
    let start_generation = server.snapshot().generation;
    let stop = AtomicBool::new(false);
    let latest = AtomicU64::new(0);
    let mut starts = Vec::with_capacity(params.cycles as usize);
    perf::reset();
    let run = {
        let span = trace::span("bench.watch");
        let parent = span.id();
        std::thread::scope(|scope| {
            let (stop, latest) = (&stop, &latest);
            let handle = scope.spawn(move || reader(addr, stop, latest, parent));
            for i in 0..params.cycles {
                let expected = start_generation + i + 1;
                let io0 = host::write_counters();
                starts.push(Instant::now());
                let report = {
                    let _s = trace::span("watch.run");
                    watch::run(server, store, &config)
                };
                let io1 = host::write_counters();
                acc.cycle_wchar += io1.0 - io0.0;
                acc.cycle_syscw += io1.1 - io0.1;
                acc.retries += report.retries;
                acc.cycles_failed += report.cycles_failed;
                tally.check(
                    report.cycles_failed == 0 && report.final_generation == expected,
                    || {
                        format!(
                            "watch cycle to generation {expected}: final {} ({:?})",
                            report.final_generation, report.last_error
                        )
                    },
                );
                let (files, linked) =
                    generation_files(&store.root().join(format!("gen-{expected}")));
                acc.files_published += files;
                acc.files_linked += linked;
            }
            // Let the reader see the last generation before it stops.
            let last = start_generation + params.cycles;
            let give_up = Instant::now() + Duration::from_secs(5);
            while latest.load(Ordering::Relaxed) < last
                && Instant::now() < give_up
                && !handle.is_finished()
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            stop.store(true, Ordering::Relaxed);
            handle.join().expect("the watch reader panicked")
        })
    };
    take_perf(&mut acc.watch_perf);
    acc.cycles += params.cycles;
    tally.absorb(run.attempted, run.failed, "reader requests");
    let generation = server.snapshot().generation;
    tally.check(generation == start_generation + params.cycles, || {
        format!(
            "served generation {generation}, expected {}",
            start_generation + params.cycles
        )
    });
    for (i, t_start) in starts.iter().enumerate() {
        let generation = start_generation + i as u64 + 1;
        match run.seen.iter().find(|(_, g)| *g >= generation) {
            Some((t_seen, _)) => acc
                .freshness_ms
                .push(ms(t_seen.saturating_duration_since(*t_start))),
            None => tally.fail(format!("the reader never saw generation {generation}")),
        }
    }
    acc.reader_latencies.extend(run.latencies);
}

/// Run the timed part of one workload: `rounds` identical rounds.
pub fn run_pass(
    workload: Workload,
    inputs: &Inputs,
    specs: &[DriverSpec],
    seed: u64,
    seconds: f64,
    dir: &Path,
) -> Pass {
    let params = workload.params();
    let rounds = params.rounds(seconds);
    let t_pass = Instant::now();
    let mut tally = Tally::default();
    let mut acc = Acc::default();
    let request_mix = mix::build(sub_seed(seed, 6), &inputs.base.book, &inputs.snippets);
    let mut ingest_digest = None;
    let mut round_digests = Vec::with_capacity(rounds);
    let (mut store_bytes, mut served_events) = (0, 0);
    let mut round_peaks = Vec::with_capacity(rounds);

    for round in 0..rounds {
        // Each round's peak resident set is read on its own, from live
        // data rather than what earlier rounds freed: set-up and the
        // calibration kernel cannot set it, and the median over rounds
        // does not rest on one allocation spike.
        host::release_free_memory();
        tally.check(host::reset_peak_rss(), || {
            "could not reset VmHWM through /proc/self/clear_refs".to_string()
        });
        let ingested = ingest(
            &params,
            inputs,
            specs,
            &dir.join("ingest"),
            &mut acc,
            &mut tally,
        );
        tally.check(*ingest_digest.get_or_insert(ingested) == ingested, || {
            format!("round {round} ingested different output")
        });

        // Every round serves and watches a fresh copy of the base store.
        let round_dir = dir.join("round");
        {
            let _s = trace::span("bench.copy_store");
            let _ = std::fs::remove_dir_all(&round_dir);
            copy_dir(&dir.join("base"), &round_dir).expect("copy the base store");
        }
        let store = open_store(&round_dir, params.format);
        let restart_body = restarts(&params, &store, &mut acc, &mut tally);
        let server = start(Arc::new(load_latest(&store)));
        let served = get(server.addr(), FIRST_LEADS);
        tally.check(
            matches!(&served, Some((200, body)) if *body == restart_body),
            || "restarts and the warm server disagree on /leads".to_string(),
        );
        request_loop(&params, server.addr(), &request_mix, &mut acc, &mut tally);
        // Each round polls its own batches, so the watch figures average
        // over many distinct batches rather than repeat one.
        let poll_seed = sub_seed(seed, 100 + round as u64);
        watch_cycles(&params, poll_seed, &server, &store, &mut acc, &mut tally);

        let snapshot = server.snapshot();
        let final_leads = get(server.addr(), FIRST_LEADS);
        shutdown(server);
        let body = match final_leads {
            Some((200, body)) => body,
            other => {
                tally.fail(format!(
                    "the final /leads answered {:?}",
                    other.map(|r| r.0)
                ));
                Vec::new()
            }
        };
        let ended = digest(&snapshot.book, &body);
        round_digests.push(ended);
        served_events = snapshot.book.len();
        store_bytes = disk_bytes(store.root());
        drop(store);
        let _ = std::fs::remove_dir_all(&round_dir);
        round_peaks.push(host::peak_rss_mib());
    }
    let wall_s = t_pass.elapsed().as_secs_f64();
    // Output digest: the ingested book and its /leads bytes, then each
    // round's final book and /leads bytes.
    let digests: Vec<u8> = std::iter::once(ingest_digest.unwrap_or(0))
        .chain(round_digests)
        .flat_map(u64::to_le_bytes)
        .collect();
    let run_digest = etap_persist::fnv1a64(&digests);

    let mut req: Vec<f64> = acc.loop_samples.iter().map(|s| s.1).collect();
    req.sort_by(f64::total_cmp);
    let (p99, beyond) = stats::tail(&req);
    let mut e2e = Metrics::default();
    e2e.put(
        "write_mib_per_cycle",
        acc.cycle_wchar as f64 / acc.cycles as f64 / MIB,
        "MiB",
    );
    // Crawl's served book is its cold ingest; the others serve the
    // round store their watch cycles grew.
    let (store_bytes, store_events) = match workload {
        Workload::Crawl => (acc.ingest_store_bytes, acc.book_events),
        Workload::Serve | Workload::Watch => (store_bytes, served_events),
    };
    e2e.put(
        "disk_bytes_per_event",
        store_bytes as f64 / store_events.max(1) as f64,
        "B/event",
    );
    e2e.put("peak_rss_mib", stats::median(&mut round_peaks), "MiB");

    // End-to-end timings whose run-to-run spread on a 2-vCPU host with
    // ~10-25% drift exceeded a tenth: reported from the traced run only.
    let mut layer = Metrics::default();
    layer.put(
        "crawl_to_served_s",
        stats::median(&mut acc.crawl_to_served_s),
        "s",
    );
    layer.put("train_s", stats::median(&mut acc.train_s), "s");
    layer.put(
        "scan_docs_per_s",
        stats::median(&mut acc.scan_docs_per_s),
        "docs/s",
    );
    layer.put("restart_ms", stats::median(&mut acc.restart_ms), "ms");
    layer.put(
        "req_per_s",
        req.len() as f64 / acc.loop_s.max(1e-9),
        "req/s",
    );
    layer.put("req_p50_ms", stats::quantile(&req, 0.5), "ms");
    layer.put("req_p99_ms", p99, "ms");
    layer.put("freshness_ms", stats::median(&mut acc.freshness_ms), "ms");
    layer_metrics(&mut acc, rounds, &mut layer);
    let notes = vec![
        ("rounds", rounds.to_string()),
        ("req_samples", req.len().to_string()),
        ("req_p99_samples_beyond", beyond.to_string()),
        ("loop_requests", acc.loop_samples.len().to_string()),
        ("cycles", acc.cycles.to_string()),
        ("base_events", inputs.base.book.len().to_string()),
        ("served_events", served_events.to_string()),
        ("ingest_events", acc.book_events.to_string()),
    ];
    Pass {
        wall_s,
        e2e,
        layer,
        tally,
        digest: run_digest,
        notes,
    }
}

/// The per-layer metrics of a pass (meaningful in the traced pass).
fn layer_metrics(acc: &mut Acc, rounds: usize, m: &mut Metrics) {
    let per_round = |v: f64| v / rounds as f64;
    let stage =
        |map: &BTreeMap<&'static str, f64>, name: &str| map.get(name).copied().unwrap_or(0.0);
    for name in [
        "train.harvest",
        "train.negatives",
        "train.vectorize",
        "train.denoise",
    ] {
        m.put(
            format!("{name}_ms"),
            per_round(stage(&acc.ingest_perf, name)),
            "ms",
        );
    }
    for name in [
        "scan.snippets",
        "scan.annotate",
        "score.vectorize",
        "score.posterior",
    ] {
        m.put(
            format!("{name}_ms"),
            per_round(stage(&acc.ingest_perf, name)),
            "ms",
        );
    }
    let docs = acc.scan_docs.max(1) as f64;
    m.put("scan.events", acc.scan_events as f64, "count");
    m.put(
        "scan.allocs_per_doc",
        acc.scan_allocs as f64 / docs,
        "allocs/doc",
    );
    m.put(
        "scan.alloc_bytes_per_doc",
        acc.scan_alloc_bytes as f64 / docs,
        "B/doc",
    );
    m.put("book.build_ms", stats::median(&mut acc.book_ms), "ms");
    m.put("book.events", acc.book_events as f64, "count");
    m.put("book.companies", acc.book_companies as f64, "count");
    m.put("store.publish_ms", stats::median(&mut acc.publish_ms), "ms");
    m.put(
        "store.publish_wchar_bytes",
        per_round(acc.publish_wchar as f64),
        "B",
    );
    m.put(
        "store.publish_bytes_written",
        per_round(acc.publish_bytes as f64),
        "B",
    );
    m.put(
        "store.publish_files_written",
        per_round(acc.publish_files as f64),
        "count",
    );
    m.put("store.load_ms", stats::median(&mut acc.load_ms), "ms");
    let restarts = acc.restart_ms.len().max(1) as f64;
    m.put(
        "persist.mmap_ms",
        stage(&acc.restart_perf, "persist.mmap") / restarts,
        "ms",
    );
    let cycles = acc.cycles.max(1) as f64;
    m.put("store.bytes_written", acc.cycle_wchar as f64 / cycles, "B");
    m.put(
        "store.write_calls",
        acc.cycle_syscw as f64 / cycles,
        "count",
    );
    m.put(
        "store.files_written",
        (acc.files_published - acc.files_linked) as f64 / cycles,
        "count",
    );
    m.put(
        "store.link_ratio",
        acc.files_linked as f64 / acc.files_published.max(1) as f64,
        "ratio",
    );
    for (g, group) in mix::GROUPS.iter().enumerate() {
        let mut lat: Vec<f64> = acc
            .loop_samples
            .iter()
            .filter(|s| s.0 == g)
            .map(|s| s.1)
            .collect();
        lat.sort_by(f64::total_cmp);
        m.put(
            format!("serve.{group}.p50_ms"),
            stats::quantile(&lat, 0.5),
            "ms",
        );
        m.put(
            format!("serve.{group}.p99_ms"),
            stats::quantile(&lat, 0.99),
            "ms",
        );
        m.put(format!("serve.{group}.count"), lat.len() as f64, "count");
    }
    let requests = acc.loop_samples.len().max(1) as f64;
    let counter = |name: &str| acc.counters.get(name).copied().unwrap_or(0.0);
    m.put(
        "serve.connects_per_1k_req",
        acc.loop_connects as f64 / requests * 1e3,
        "count",
    );
    m.put(
        "serve.keepalive_reuse_ratio",
        counter("etap_keepalive_reuses_total") / counter("etap_requests_total").max(1.0),
        "ratio",
    );
    m.put("serve.shed", counter("etap_shed_total"), "count");
    m.put(
        "serve.resp_bytes_per_req",
        acc.loop_wire_bytes as f64 / requests,
        "B",
    );
    m.put(
        "serve.allocs_per_req",
        acc.loop_allocs as f64 / requests,
        "allocs/req",
    );
    let mut reader = acc.reader_latencies.clone();
    reader.sort_by(f64::total_cmp);
    m.put("watch.read_p50_ms", stats::quantile(&reader, 0.5), "ms");
    m.put("watch.read_p99_ms", stats::tail(&reader).0, "ms");
    for name in [
        "watch.poll",
        "watch.extend",
        "watch.retrain",
        "watch.publish",
    ] {
        m.put(
            format!("{name}_ms"),
            stage(&acc.watch_perf, name) / cycles,
            "ms",
        );
    }
    m.put("watch.retries", acc.retries as f64, "count");
    m.put("watch.cycles_failed", acc.cycles_failed as f64, "count");
}
