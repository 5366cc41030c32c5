//! The served lead book against its oracle.
//!
//! Every snapshot is served through one `MappedBook`, whether it was
//! sealed from a freshly built `LeadBook` or loaded from a text or
//! `LEADS v2` generation. These tests hold each of those books to the
//! `LeadBook` it came from, query by query, on seeded books over the
//! builtin and `drivers/extra.drivers` specs. Long chains of in-memory
//! extends are held to the `LeadBook` built over the union, from each
//! kind of starting book. A seeded decoder fuzz then checks that
//! `MappedBook::open` is total on corrupt layouts.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use etap_repro::persist::binfmt::HEADER_LEN;
use etap_repro::persist::{bin_open, fnv1a64, Arena};
use etap_repro::runtime::Rng;
use etap_repro::serve::{GenerationStore, LeadSnapshot, LeadsFormat};
use etap_repro::system::leads2::{
    encode_append, encode_book, EncodedBook, SealedSegment, Segment, INDEX_KIND, INDEX_VERSION,
    LEADS2_VERSION, SHARD_KIND,
};
use etap_repro::system::{driverfile, BookHandle, EventView, LeadBook, MappedBook};
use etap_repro::{
    DriverSpec, Etap, EtapConfig, SalesDriver, SyntheticWeb, TrainedEtap, TriggerEvent, WebConfig,
};

/// Company names as a crawl spells them: each group is one company
/// under its alias variants.
const COMPANIES: &[&[&str]] = &[
    &["Acme", "Acme Corp.", "ACME Inc", "acme"],
    &["Zed Ltd", "Zed", "Zed Limited"],
    &["Nadir Systems", "Nadir Systems Inc."],
    &["Orbital Labs"],
    &["Quill & Co"],
    &["Brightwater Holdings", "Brightwater"],
];

/// The builtin drivers plus the two registered from
/// `drivers/extra.drivers`, so books carry the driver-code table.
fn drivers() -> Vec<SalesDriver> {
    let extra = driverfile::load_str(include_str!("../drivers/extra.drivers"))
        .expect("parse drivers/extra.drivers");
    let mut specs = DriverSpec::all_builtin();
    specs.extend(extra);
    specs.iter().map(|s| s.driver).collect()
}

/// `n` seeded events from `first_doc` on: scores on a coarse grid so
/// ties occur, a third of events with no company, alias variants
/// everywhere.
fn events(rng: &mut Rng, drivers: &[SalesDriver], first_doc: usize, n: usize) -> Vec<TriggerEvent> {
    (first_doc..first_doc + n)
        .map(|doc_id| {
            let companies = (0..rng.gen_range(0..3usize))
                .map(|_| {
                    let group = COMPANIES[rng.gen_range(0..COMPANIES.len())];
                    group[rng.gen_range(0..group.len())].to_string()
                })
                .collect();
            TriggerEvent {
                driver: drivers[rng.gen_range(0..drivers.len())],
                doc_id,
                url: format!("http://news.example/{doc_id}"),
                snippet: format!("snippet {doc_id}: {}", rng.next_u64()),
                score: f64::from(rng.gen_range(0..40u32)) / 40.0,
                companies,
                doc_date: (
                    rng.gen_range(2004..2007u16),
                    rng.gen_range(1..13u32) as u8,
                    rng.gen_range(1..29u32) as u8,
                ),
            }
        })
        .collect()
}

/// An event as comparable fields, its score by bit pattern.
type Key = (
    SalesDriver,
    usize,
    u64,
    (u16, u8, u8),
    String,
    String,
    Vec<String>,
);

fn key(e: &TriggerEvent) -> Key {
    (
        e.driver,
        e.doc_id,
        e.score.to_bits(),
        e.doc_date,
        e.url.clone(),
        e.snippet.clone(),
        e.companies.clone(),
    )
}

fn view_keys(views: &[EventView<'_>]) -> Vec<Key> {
    views.iter().map(|v| key(&v.to_owned_event())).collect()
}

fn oracle_keys<'a>(events: impl IntoIterator<Item = &'a TriggerEvent>) -> Vec<Key> {
    events.into_iter().map(key).collect()
}

/// Every query the server answers, on `book` against `oracle`.
fn assert_matches_oracle(
    book: &BookHandle,
    oracle: &LeadBook,
    drivers: &[SalesDriver],
    what: &str,
) {
    assert_eq!(book.len(), oracle.len(), "{what}: len");
    for top in [0, 1, oracle.len() / 2, oracle.len(), usize::MAX] {
        assert_eq!(
            view_keys(&book.top(top)),
            oracle_keys(oracle.top(top)),
            "{what}: top {top}"
        );
    }
    assert_eq!(book.drivers(), oracle.drivers(), "{what}: drivers");
    for &d in drivers {
        let all = oracle.top_for(d, usize::MAX);
        assert_eq!(
            book.driver_total(d),
            all.len(),
            "{what}: driver_total {d:?}"
        );
        for top in [3, usize::MAX] {
            assert_eq!(
                view_keys(&book.top_for(d, top)),
                oracle_keys(oracle.top_for(d, top)),
                "{what}: top_for {d:?} {top}"
            );
        }
    }

    let companies: Vec<(String, u64, usize)> = book
        .companies_top(usize::MAX)
        .iter()
        .map(|c| (c.company.to_string(), c.mrr.to_bits(), c.events))
        .collect();
    let expected: Vec<(String, u64, usize)> = oracle
        .companies()
        .iter()
        .map(|c| (c.company.clone(), c.mrr.to_bits(), c.events))
        .collect();
    assert_eq!(companies, expected, "{what}: companies_top");
    assert_eq!(
        book.companies_len(),
        expected.len(),
        "{what}: companies_len"
    );

    // Every name key (each surface form the book saw normalizes to
    // one), every listed company, and names the book never saw.
    let names = oracle
        .events()
        .iter()
        .flat_map(|e| e.companies.iter().cloned())
        .chain(expected.iter().map(|c| c.0.clone()))
        .chain(
            COMPANIES
                .iter()
                .flat_map(|g| g.iter().map(ToString::to_string)),
        )
        .chain(["Nonexistent Industries".to_string(), String::new()]);
    for name in names {
        let served = book.company_events(&name).map(|(c, evs)| {
            (
                (c.company.to_string(), c.mrr.to_bits(), c.events),
                view_keys(&evs),
            )
        });
        let wanted = oracle.company_events(&name).map(|(c, evs)| {
            (
                (c.company.clone(), c.mrr.to_bits(), c.events),
                oracle_keys(evs),
            )
        });
        assert_eq!(served, wanted, "{what}: company_events {name:?}");
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("etap_book_oracle_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn snapshot(generation: u64, book: BookHandle) -> LeadSnapshot {
    LeadSnapshot {
        generation,
        book,
        trained: Arc::new(TrainedEtap::from_drivers(Vec::new(), 3)),
    }
}

#[test]
fn sealed_books_answer_like_their_oracle() {
    let drivers = drivers();
    for seed in 0..24u64 {
        let mut rng = Rng::seed_from_u64(seed);
        // Seed 0 is the empty book; sizes then grow past one page of
        // results for every driver.
        let n = (seed as usize * 17) % 240;
        let oracle = LeadBook::build(events(&mut rng, &drivers, 0, n));
        let book = BookHandle::from(oracle.clone());
        assert!(!book.is_mapped());
        assert_matches_oracle(&book, &oracle, &drivers, &format!("seed {seed} sealed"));
        let enc = encode_book(&book, 5);
        let sharded = MappedBook::open(Arc::new(Arena::Heap(enc.index.clone())), written(&enc))
            .expect("open a cold encode")
            .into();
        assert_matches_oracle(&sharded, &oracle, &drivers, &format!("seed {seed} sharded"));
    }
}

fn written(enc: &EncodedBook) -> Vec<Arc<Arena>> {
    enc.segments
        .iter()
        .map(|s| match s {
            Segment::Written(bytes) => Arc::new(Arena::Heap(bytes.clone())),
            Segment::Linked => unreachable!("a cold encode writes every segment"),
        })
        .collect()
}

#[test]
fn published_books_reload_like_their_oracle() {
    let drivers = drivers();
    for (tag, format) in [
        ("text", LeadsFormat::Text),
        ("v2", LeadsFormat::Binary { shards: 4 }),
    ] {
        for seed in [0u64, 1, 2, 3] {
            let mut rng = Rng::seed_from_u64(0x0AC1E + seed);
            let store = GenerationStore::open(temp_dir(&format!("{tag}_{seed}")))
                .expect("open store")
                .with_leads_format(format);
            let mut all = events(&mut rng, &drivers, 0, seed as usize * 60);
            for generation in 1..=3u64 {
                // Generation 1 publishes cold; the polls after it
                // append to the previous generation's segments.
                if generation > 1 {
                    all.extend(events(&mut rng, &drivers, all.len(), 12));
                }
                let oracle = LeadBook::build(all.clone());
                let what = format!("{tag} seed {seed} gen {generation}");
                store
                    .publish(&snapshot(generation, oracle.clone().into()))
                    .expect("publish");
                let loaded = store.load(generation).expect("load");
                if tag == "text" {
                    assert!(
                        !loaded.book.is_mapped(),
                        "{what}: text loads seal heap arenas"
                    );
                }
                assert_matches_oracle(&loaded.book, &oracle, &drivers, &what);

                // Republishing the loaded book itself round-trips too.
                store
                    .publish(&snapshot(generation + 100, loaded.book.clone()))
                    .expect("republish");
                let again = store.load(generation + 100).expect("reload");
                assert_matches_oracle(&again.book, &oracle, &drivers, &format!("{what} again"));
                std::fs::remove_dir_all(store.root().join(format!("gen-{}", generation + 100)))
                    .expect("drop the republished generation");
            }
            let _ = std::fs::remove_dir_all(store.root());
        }
    }
}

/// Publishes merged into each delta segment of `book` (segment meta word
/// 3; base shards carry none).
fn delta_spans(book: &MappedBook, base: usize) -> Vec<u64> {
    book.segments()
        .skip(base)
        .map(|arena| {
            let view = bin_open(arena.bytes(), SHARD_KIND, LEADS2_VERSION, false)
                .expect("delta container");
            let meta = view.section(0).expect("meta");
            u64::from_le_bytes(meta[16..24].try_into().expect("span"))
        })
        .collect()
}

/// How one extend laid out its segments relative to the book it
/// extended.
#[derive(Debug, Default)]
struct Relayouts {
    appends: u64,
    merges: u64,
    colds: u64,
}

/// Check the layout of `next`, extended from `prev` (`base` base
/// shards): it is bounded like a publish, and every segment it kept is
/// the previous book's very arena.
fn check_relayout(
    prev: &MappedBook,
    next: &MappedBook,
    base: usize,
    seen: &mut Relayouts,
    what: &str,
) {
    let spans = delta_spans(next, base);
    let appends: u64 = spans.iter().sum();
    let log2 = 63 - u64::leading_zeros(appends.max(1)) as usize;
    assert!(
        next.shard_count() <= base + log2 + 1,
        "{what}: {} segments after {appends} appends",
        next.shard_count()
    );
    let kept = prev
        .segments()
        .zip(next.segments())
        .take_while(|(a, b)| Arc::ptr_eq(a, b))
        .count();
    if spans.is_empty() {
        // A cold re-encode seals every base shard afresh, as on disk.
        seen.colds += 1;
        return;
    }
    assert!(
        kept >= base,
        "{what}: a base shard was not shared ({kept} kept)"
    );
    for (sid, (a, b)) in prev.segments().zip(next.segments()).enumerate().skip(kept) {
        assert!(
            a.bytes() != b.bytes(),
            "{what}: segment {sid} re-sealed unchanged instead of shared"
        );
    }
    if kept < prev.shard_count() {
        seen.merges += 1;
    } else {
        seen.appends += 1;
    }
}

/// A starting book for an extend chain, with its base shard count.
fn chain_start(
    tag: &str,
    seed: u64,
    all: &[TriggerEvent],
    rng: &mut Rng,
    drivers: &[SalesDriver],
) -> (BookHandle, usize, Vec<TriggerEvent>) {
    let mut all = all.to_vec();
    match tag {
        "sealed" => (LeadBook::build(all.clone()).into(), 1, all),
        "text" => {
            let store =
                GenerationStore::open(temp_dir(&format!("chain_text_{seed}"))).expect("open");
            store
                .publish(&snapshot(1, LeadBook::build(all.clone()).into()))
                .expect("publish");
            let book = store.load(1).expect("load").book;
            let _ = std::fs::remove_dir_all(store.root());
            (book, 1, all)
        }
        _ => {
            // A mapped 16-shard generation that already holds deltas:
            // two polls published after the cold one.
            let store = GenerationStore::open(temp_dir(&format!("chain_v2_{seed}")))
                .expect("open")
                .with_leads_format(LeadsFormat::Binary { shards: 16 });
            for generation in 1..=3u64 {
                if generation > 1 {
                    all.extend(events(rng, drivers, all.len(), 9));
                }
                store
                    .publish(&snapshot(generation, LeadBook::build(all.clone()).into()))
                    .expect("publish");
            }
            let book = store.load(3).expect("load").book;
            assert!(
                book.is_mapped() && book.shard_count() > 16,
                "{:?}",
                book.shard_count()
            );
            // The mappings outlive the directory.
            let _ = std::fs::remove_dir_all(store.root());
            (book, 16, all)
        }
    }
}

#[test]
fn extend_chains_match_the_oracle_across_layouts() {
    let drivers = drivers();
    for tag in ["sealed", "text", "v2"] {
        for seed in [7u64, 8] {
            let mut rng = Rng::seed_from_u64(0xE7_7E4D + seed);
            let first = events(&mut rng, &drivers, 0, 160);
            let (mut book, base, mut all) = chain_start(tag, seed, &first, &mut rng, &drivers);
            let mut seen = Relayouts::default();
            for step in 0..44 {
                let what = format!("{tag} seed {seed} step {step}");
                let n = rng.gen_range(1..14usize);
                let poll = events(&mut rng, &drivers, all.len(), n);
                all.extend(poll.iter().cloned());
                let next: BookHandle = book.extend(poll.clone()).into();
                let oracle = LeadBook::build(all.clone());
                assert_matches_oracle(&next, &oracle, &drivers, &what);
                assert!(
                    next == BookHandle::from(oracle),
                    "{what}: cold encode differs"
                );
                // The order the poll arrives in cannot matter, so neither
                // can the scan's thread count.
                let mut shuffled = poll;
                rng.shuffle(&mut shuffled);
                assert!(
                    BookHandle::from(book.extend(shuffled)) == next,
                    "{what}: poll order changed the book"
                );
                check_relayout(&book, &next, base, &mut seen, &what);
                if tag == "v2" {
                    assert!(
                        !next.is_mapped(),
                        "{what}: heap deltas are not a full mapping"
                    );
                    // The mapped base serves until the first cold
                    // re-encode seals the book into the heap.
                    if seen.colds == 0 {
                        assert!(next.heap_bytes() < next.arena_bytes(), "{what}");
                    }
                }
                book = next;
            }
            assert!(
                seen.merges > 0 && seen.colds > 0 && seen.appends > 0,
                "{tag} seed {seed}: the chain must append, merge deltas and re-encode cold: {seen:?}"
            );
        }
    }
}

/// A small trained system: two builtin drivers on a 500-document web.
fn trained() -> Arc<TrainedEtap> {
    static TRAINED: OnceLock<Arc<TrainedEtap>> = OnceLock::new();
    Arc::clone(TRAINED.get_or_init(|| {
        let web = SyntheticWeb::generate(WebConfig {
            total_docs: 500,
            ..WebConfig::default()
        });
        let mut config = EtapConfig::paper();
        config.training.top_docs_per_query = 50;
        config.training.negative_snippets = 750;
        config.training.pure_positives = 10;
        config.drivers = vec![
            DriverSpec::builtin(SalesDriver::MergersAcquisitions),
            DriverSpec::builtin(SalesDriver::RevenueGrowth),
        ];
        Arc::new(Etap::new(config).train(&web))
    }))
}

#[test]
fn snapshot_extend_chains_agree_across_scan_threads() {
    let system = trained();
    let web = |seed: u64, docs: usize| {
        SyntheticWeb::generate(WebConfig {
            total_docs: docs,
            seed,
            ..WebConfig::default()
        })
        .docs()
        .to_vec()
    };
    let store = GenerationStore::open(temp_dir("thread_chain"))
        .expect("open")
        .with_leads_format(LeadsFormat::Binary { shards: 16 });
    let mut union = web(90, 80);
    store
        .publish(&LeadSnapshot::build(Arc::clone(&system), &union, 1, 0))
        .expect("publish");
    let start = Arc::new(store.load(1).expect("load"));
    let _ = std::fs::remove_dir_all(store.root());
    let (mut one, mut four) = (Arc::clone(&start), start);
    for generation in 2..=41u64 {
        let docs = web(1_000 + generation, 3);
        union.extend(docs.iter().cloned());
        let next_one = LeadSnapshot::extend(&one, &docs, generation, 1);
        let next_four = LeadSnapshot::extend(&four, &docs, generation, 4);
        assert!(
            next_one.book == next_four.book,
            "generation {generation}: 1 vs 4 threads"
        );
        if generation % 8 == 0 {
            let full = LeadBook::build(system.identify_events_parallel(&union, 0));
            assert!(
                next_one.book == BookHandle::from(full),
                "generation {generation}: rebuild"
            );
        }
        // Unless the extend re-encoded cold, every base shard is the
        // previous book's own arena.
        let shared = one
            .book
            .segments()
            .zip(next_one.book.segments())
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        assert!(
            shared >= 16 || next_one.book.shard_count() == 16,
            "generation {generation}: {shared} segments shared"
        );
        one = Arc::new(next_one);
        four = Arc::new(next_four);
    }
}

/// Corrupt one file of a layout: a truncation, a few bit flips, or a
/// splice of bytes from another file of the same layout.
fn mutate(files: &mut [Vec<u8>], rng: &mut Rng) {
    let target = rng.gen_range(0..files.len());
    let donor = files[rng.gen_range(0..files.len())].clone();
    let bytes = &mut files[target];
    if bytes.is_empty() {
        return;
    }
    match rng.gen_range(0..3u32) {
        0 => bytes.truncate(rng.gen_range(0..bytes.len())),
        1 => {
            for _ in 0..rng.gen_range(1..4u32) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= 1 << rng.gen_range(0..8u32);
            }
        }
        _ => {
            let from = rng.gen_range(0..donor.len());
            let piece = &donor[from..rng.gen_range(from..=donor.len().min(from + 64))];
            let at = rng.gen_range(0..bytes.len());
            let end = rng.gen_range(at..=bytes.len().min(at + 64));
            bytes.splice(at..end, piece.iter().copied());
        }
    }
}

/// Re-seal the container checksum of `file` after an edit.
fn reseal(file: &mut [u8]) {
    let sum = fnv1a64(&file[HEADER_LEN..]);
    file[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
}

/// Overwrite one entry of an index's global ranking or of a rank-position
/// list (sections 1, 4 and 6) with a number in range, the total or
/// `u32::MAX`, and re-seal the container checksum, so only the ref checks
/// of `MappedBook::open` stand between the entry and the accessors.
fn mutate_refs(index: &mut [u8], rng: &mut Rng) {
    let view = bin_open(index, INDEX_KIND, INDEX_VERSION, true).expect("a sealed index");
    let total = view.section_range(1).expect("rank table").1 / 4;
    let (start, len) = view
        .section_range([1, 4, 6][rng.gen_range(0..3usize)])
        .expect("ref section");
    if len == 0 {
        return;
    }
    let at = start + 4 * rng.gen_range(0..len / 4);
    let value = match rng.gen_range(0..3u32) {
        0 => total as u32,
        1 => u32::MAX,
        _ => rng.gen_range(0..total) as u32,
    };
    index[at..at + 4].copy_from_slice(&value.to_le_bytes());
    reseal(index);
}

/// Change one byte of a segment's string section, or one string place of
/// the index (section 2), and re-seal the container checksum, so only the
/// string checks of `MappedBook::open` stand between the change and the
/// accessors. A string byte is flipped, made a bare continuation byte (a
/// length prefix then runs truncated or overlong) or zeroed; a place is
/// moved by a few bytes, set past the string sections or to `u32::MAX`.
fn mutate_strings(files: &mut [Vec<u8>], rng: &mut Rng) {
    let target = rng.gen_range(0..files.len());
    let file = &mut files[target];
    if target == 0 {
        let view = bin_open(file, INDEX_KIND, INDEX_VERSION, true).expect("a sealed index");
        let (start, len) = view.section_range(2).expect("place table");
        if len == 0 {
            return;
        }
        let at = start + 4 * rng.gen_range(0..len / 4);
        let place = u32::from_le_bytes(file[at..at + 4].try_into().expect("4 bytes"));
        let value = match rng.gen_range(0..3u32) {
            0 => place.wrapping_add(rng.gen_range(1..4u32)),
            1 => place.wrapping_sub(1),
            _ => [u32::MAX, 1 << 20][rng.gen_range(0..2usize)],
        };
        file[at..at + 4].copy_from_slice(&value.to_le_bytes());
    } else {
        let view = bin_open(file, SHARD_KIND, LEADS2_VERSION, true).expect("a sealed segment");
        let (start, len) = view.section_range(2).expect("string section");
        if len == 0 {
            return;
        }
        let at = start + rng.gen_range(0..len);
        file[at] = match rng.gen_range(0..3u32) {
            0 => file[at] ^ 1 << rng.gen_range(0..8u32),
            1 => 0x80 | file[at],
            _ => 0,
        };
    }
    reseal(file);
}

/// Ask `book` everything the server and the store ever ask it.
fn exercise(book: &MappedBook, drivers: &[SalesDriver], prev: &[Vec<u8>]) {
    let _ = (
        book.len(),
        book.is_empty(),
        book.shard_count(),
        book.arena_bytes(),
    );
    let _ = book.events_owned();
    for d in book.drivers().into_iter().chain(drivers.iter().copied()) {
        let _ = (book.driver_total(d), book.top_for(d, usize::MAX));
    }
    // Every company, every name key, and names the book never saw.
    let names: Vec<String> = book
        .companies_top(usize::MAX)
        .iter()
        .map(|c| c.company.to_string())
        .chain(book.strings().map(String::from))
        .collect();
    for name in names.iter().map(String::as_str).chain(["Acme", "zed", ""]) {
        if let Some((_, events)) = book.company_events(name) {
            for e in events {
                let _ = (e.companies_vec(), e.date(), e.url(), e.snippet());
            }
        }
    }
    let _ = encode_book(book, 3);
    let prev: Vec<Option<SealedSegment>> = prev
        .iter()
        .enumerate()
        .map(|(sid, b)| SealedSegment::open(Arc::new(Arena::Heap(b.clone())), sid, 4).ok())
        .collect();
    let _ = encode_append(book, 4, &prev);
    let mut rng = Rng::seed_from_u64(book.len() as u64);
    let extended = book.extend(events(&mut rng, drivers, 10_000, 5));
    let _ = (extended.companies_top(usize::MAX), extended.top(5));
}

#[test]
fn mapped_book_open_is_total_on_corrupt_layouts() {
    let drivers = drivers();
    let mut rng = Rng::seed_from_u64(0xF0_22);
    let mut all = events(&mut rng, &drivers, 0, 60);
    let cold = encode_book(&BookHandle::from(LeadBook::build(all.clone())), 4);
    let cold_files: Vec<Vec<u8>> = std::iter::once(cold.index.clone())
        .chain(written(&cold).iter().map(|a| a.bytes().to_vec()))
        .collect();
    let sealed = cold_files[1..].to_vec();
    all.extend(events(&mut rng, &drivers, 60, 8));
    let prev: Vec<Option<SealedSegment>> = sealed
        .iter()
        .enumerate()
        .map(|(sid, b)| SealedSegment::open(Arc::new(Arena::Heap(b.clone())), sid, 4).ok())
        .collect();
    let delta =
        encode_append(&BookHandle::from(LeadBook::build(all)), 4, &prev).expect("append layout");
    let append_files: Vec<Vec<u8>> = std::iter::once(delta.index.clone())
        .chain(delta.segments.iter().enumerate().map(|(sid, s)| match s {
            Segment::Written(bytes) => bytes.clone(),
            Segment::Linked => sealed[sid].clone(),
        }))
        .collect();
    assert_eq!(append_files.len(), 6, "index, four base shards, one delta");

    let (mut opened, mut refused) = (0, 0);
    for round in 0..1_500 {
        let mut files = if round % 2 == 0 {
            cold_files.clone()
        } else {
            append_files.clone()
        };
        for _ in 0..rng.gen_range(1..3u32) {
            mutate(&mut files, &mut rng);
        }
        let heap = |b: &Vec<u8>| Arc::new(Arena::Heap(b.clone()));
        let segments = files[1..].iter().map(heap).collect();
        match MappedBook::open(heap(&files[0]), segments) {
            Ok(book) => {
                opened += 1;
                exercise(&book, &drivers, &sealed);
            }
            Err(_) => refused += 1,
        }
    }
    // Both outcomes occur: the fuzz reaches the accessors, not only
    // the header checks.
    assert!(
        opened > 100 && refused > 100,
        "opened {opened}, refused {refused}"
    );

    // Checksummed indexes with one ref out of range or redirected: the
    // ref checks refuse the first kind, and the accessors serve the
    // second.
    let (mut opened, mut refused) = (0, 0);
    for round in 0..400 {
        let mut files = if round % 2 == 0 {
            cold_files.clone()
        } else {
            append_files.clone()
        };
        mutate_refs(&mut files[0], &mut rng);
        let heap = |b: &Vec<u8>| Arc::new(Arena::Heap(b.clone()));
        let segments = files[1..].iter().map(heap).collect();
        match MappedBook::open(heap(&files[0]), segments) {
            Ok(book) => {
                opened += 1;
                exercise(&book, &drivers, &sealed);
            }
            Err(e) => {
                let msg = e.to_string();
                assert!(msg.contains(" entry "), "refused by another check: {msg}");
                refused += 1;
            }
        }
    }
    assert!(
        opened > 50 && refused > 50,
        "ref mutations: opened {opened}, refused {refused}"
    );

    // Checksummed layouts with a string byte or a string place changed:
    // the string checks refuse some, and the accessors serve the rest.
    let (mut opened, mut refused) = (0, 0);
    for round in 0..600 {
        let mut files = if round % 2 == 0 {
            cold_files.clone()
        } else {
            append_files.clone()
        };
        for _ in 0..rng.gen_range(1..3u32) {
            mutate_strings(&mut files, &mut rng);
        }
        let heap = |b: &Vec<u8>| Arc::new(Arena::Heap(b.clone()));
        let segments = files[1..].iter().map(heap).collect();
        match MappedBook::open(heap(&files[0]), segments) {
            Ok(book) => {
                opened += 1;
                exercise(&book, &drivers, &sealed);
            }
            Err(_) => refused += 1,
        }
    }
    assert!(
        opened > 50 && refused > 50,
        "string mutations: opened {opened}, refused {refused}"
    );
}
