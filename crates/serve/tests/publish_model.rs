//! Model-based tests of append-only `LEADS v2` publishes.
//!
//! Seeded random histories run extend → publish, with occasional
//! prunes, store re-opens (continuing from the reloaded generation, as
//! a restarted daemon does) and `persist.write` crashes mid-publish.
//! After every step the layout the store sealed, read back from each
//! segment's meta, is checked against the layout rules stated as
//! invariants (each delta holds at least twice the records and publishes
//! of the next; a publish keeps the longest prefix of deltas that still
//! dominates the new one; a cold re-encode once the deltas would reach
//! the base), not by re-running the encoder:
//!
//! * the loaded mapped book equals the in-memory book;
//! * exactly the segments the rules reuse are hard-linked, each keeping
//!   its inode until a merge or cold re-encode rewrites it;
//! * the book's canonical strings (company names, name keys) lie where
//!   the string rule puts them, read back from each segment's string
//!   section: a cold encode hashes each into a base shard; an append
//!   leaves each one a linked segment holds and writes the rest, once
//!   each, into its new delta, which it writes even with no new record
//!   when a string has no home; no string lies in two segments;
//! * the segment count stays within `shards + ⌈log2 appends⌉ + 1`;
//! * a twin history scanned with 4 threads seals byte-identical files;
//! * a crashed publish leaves the previous generation loadable, and so
//!   does a failed directory fsync;
//! * once the served book came from the store (a restart), the extends
//!   in memory lay it out exactly as the publishes lay it out on disk:
//!   every segment a publish linked or wrote is byte-identical to the
//!   served book's segment with the same id;
//! * a pinned generation survives every prune, through the delta merges
//!   and cold re-encodes published after it, and still loads as the
//!   book it sealed;
//! * a byte flipped in place in a sealed segment invalidates every
//!   generation that links the file, and only those: the next publish
//!   links no corrupt file (its records are re-sealed), the generation
//!   it seals loads as the in-memory book, and a crashed publish falls
//!   back past the corrupt generations;
//! * every model file byte-identical to the previous generation's is
//!   hard-linked, and no corrupt one is: a bit flipped in a linked model
//!   invalidates exactly the generations that link it, and the next
//!   publish writes a fresh copy.
//!
//! The fault registry is process-global, so every test here runs under
//! [`lock`].

use etap::leads2::{LEADS2_VERSION, SHARD_KIND};
use etap::{DriverSpec, Etap, EtapConfig, SalesDriver, TrainedEtap};
use etap_corpus::{SyntheticDoc, SyntheticWeb, WebConfig};
use etap_persist::{bin_open, fnv1a64};
use etap_runtime::fault::{self, FaultPlan};
use etap_runtime::Rng;
use etap_serve::{GenerationStore, LeadSnapshot, LeadsFormat, PublishOutcome, StoreError};
use std::collections::HashSet;
use std::os::unix::fs::{FileExt, MetadataExt};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

const SHARDS: u32 = 4;

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

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

fn poll(seed: u64, docs: usize) -> Vec<SyntheticDoc> {
    SyntheticWeb::generate(WebConfig {
        total_docs: docs,
        seed,
        ..WebConfig::default()
    })
    .docs()
    .to_vec()
}

fn open_store(root: &Path) -> GenerationStore {
    GenerationStore::open(root)
        .expect("open store")
        .with_leads_format(LeadsFormat::Binary { shards: SHARDS })
}

fn temp_root(tag: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("etap_publish_model_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn segment_path(root: &Path, generation: u64, sid: usize) -> PathBuf {
    root.join(format!("gen-{generation}/shards/shard-{sid:05}.leads2"))
}

fn segment_count(root: &Path, generation: u64) -> usize {
    (0..)
        .take_while(|&sid| segment_path(root, generation, sid).exists())
        .count()
}

/// Each segment's inode, in id order.
fn segment_inodes(root: &Path, generation: u64) -> Vec<u64> {
    (0..segment_count(root, generation))
        .map(|sid| {
            let path = segment_path(root, generation, sid);
            std::fs::metadata(path).expect("segment").ino()
        })
        .collect()
}

/// Each model file of a generation, in driver order.
fn model_paths(root: &Path, generation: u64) -> Vec<PathBuf> {
    let dir = root.join(format!("gen-{generation}"));
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("generation")
        .map(|entry| entry.expect("entry").path())
        .filter(|path| path.extension().is_some_and(|x| x == "model"))
        .collect();
    paths.sort();
    paths
}

/// Each model file's inode, in driver order.
fn model_inodes(root: &Path, generation: u64) -> Vec<u64> {
    model_paths(root, generation)
        .iter()
        .map(|path| std::fs::metadata(path).expect("model").ino())
        .collect()
}

/// Whether a generation links none of the `corrupt` inodes (only
/// segments and models are ever flipped, so this is whether it loads).
fn intact(root: &Path, generation: u64, corrupt: &HashSet<u64>) -> bool {
    segment_inodes(root, generation)
        .iter()
        .chain(&model_inodes(root, generation))
        .all(|ino| !corrupt.contains(ino))
}

/// Every retained generation loads exactly when it links no corrupt
/// file; the others fail their checksum.
fn assert_only_intact_generations_load(store: &GenerationStore, corrupt: &HashSet<u64>) {
    for generation in store.generations().expect("list") {
        let intact = intact(store.root(), generation, corrupt);
        match store.load(generation) {
            Ok(_) => assert!(intact, "generation {generation} loads a corrupt file"),
            Err(StoreError::Invalid(msg)) if !intact => assert!(msg.contains("checksum"), "{msg}"),
            Err(e) => panic!("intact generation {generation}: {e}"),
        }
    }
}

/// Flip one bit of the file at `path` in place, as a failing disk does:
/// every link to the inode sees it. Returns the open file.
fn flip_bit(path: &Path, rng: &mut Rng) -> std::fs::File {
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .expect("open segment");
    let len = file.metadata().expect("segment").len();
    let at = rng.gen_range(0..len);
    let mut byte = [0];
    file.read_exact_at(&mut byte, at).expect("read");
    byte[0] ^= 1 << rng.gen_range(0..8u32);
    file.write_all_at(&byte, at).expect("write");
    file
}

/// Every file of a generation as `(relative path, bytes)`, sorted.
fn sealed_files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(at) = pending.pop() {
        for entry in std::fs::read_dir(&at).expect("read dir") {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let rel = path.strip_prefix(dir).expect("inside").to_path_buf();
                out.push((rel, std::fs::read(&path).expect("read")));
            }
        }
    }
    out.sort();
    out
}

/// The loaded (mapped) book must answer every query like the in-memory
/// one.
fn assert_same_book(loaded: &LeadSnapshot, expected: &LeadSnapshot) {
    let (a, b) = (&loaded.book, &expected.book);
    assert!(a.is_mapped());
    assert_eq!(a.events_owned(), b.events_owned());
    for d in [SalesDriver::MergersAcquisitions, SalesDriver::RevenueGrowth] {
        let a_top: Vec<_> = a
            .top_for(d, usize::MAX)
            .iter()
            .map(|e| e.to_owned_event())
            .collect();
        let b_top: Vec<_> = b
            .top_for(d, usize::MAX)
            .iter()
            .map(|e| e.to_owned_event())
            .collect();
        assert_eq!(a_top, b_top, "top_for {d:?}");
    }
    assert_eq!(a.companies_top(usize::MAX), b.companies_top(usize::MAX));
    for c in b.companies_top(usize::MAX) {
        let (ac, ae) = a.company_events(c.company).expect("loaded company");
        let (bc, be) = b.company_events(c.company).expect("in-memory company");
        assert_eq!(ac, bc);
        let ae: Vec<_> = ae.iter().map(|e| e.to_owned_event()).collect();
        let be: Vec<_> = be.iter().map(|e| e.to_owned_event()).collect();
        assert_eq!(ae, be, "company_events {:?}", c.company);
    }
}

/// One delta segment as its meta records it: `(records, publishes)`.
type Delta = (u64, u64);

fn add(a: Delta, b: Delta) -> Delta {
    (a.0 + b.0, a.1 + b.1)
}

fn total(deltas: &[Delta]) -> Delta {
    deltas.iter().copied().fold((0, 0), add)
}

/// The merge rule's invariant between two neighbouring deltas: the
/// older holds at least twice the records and twice the publishes.
fn dominates(older: Delta, newer: Delta) -> bool {
    older.0 >= 2 * newer.0 && older.1 >= 2 * newer.1
}

/// The segment layout a generation sealed, read back from disk.
#[derive(Debug)]
struct Sealed {
    /// Records in each base shard.
    base: Vec<u64>,
    /// The delta stack, oldest first.
    deltas: Vec<Delta>,
    /// Every segment's inode, base shards first.
    inodes: Vec<u64>,
    /// Every segment's string section, entry by entry.
    strings: Vec<Vec<String>>,
}

/// The entries of a string section: each a LEB128 length and its bytes.
fn section_strings(mut section: &[u8]) -> Vec<String> {
    let mut out = Vec::new();
    while !section.is_empty() {
        let (mut len, mut shift) = (0usize, 0);
        loop {
            let byte = section[0];
            section = &section[1..];
            len |= usize::from(byte & 0x7f) << shift;
            shift += 7;
            if byte & 0x80 == 0 {
                break;
            }
        }
        let (string, rest) = section.split_at(len);
        out.push(String::from_utf8(string.to_vec()).expect("UTF-8"));
        section = rest;
    }
    out
}

fn read_sealed(root: &Path, generation: u64) -> Sealed {
    let mut sealed = Sealed {
        base: Vec::new(),
        deltas: Vec::new(),
        inodes: Vec::new(),
        strings: Vec::new(),
    };
    for sid in 0..segment_count(root, generation) {
        let path = segment_path(root, generation, sid);
        let bytes = std::fs::read(&path).expect("segment");
        let view = bin_open(&bytes, SHARD_KIND, LEADS2_VERSION, true).expect("container");
        let meta = view.section(0).expect("meta");
        let word = |at: usize| u64::from_le_bytes(meta[at..at + 8].try_into().expect("u64"));
        if sid < SHARDS as usize {
            sealed.base.push(word(8));
        } else {
            sealed.deltas.push((word(8), word(16)));
        }
        sealed
            .inodes
            .push(std::fs::metadata(&path).expect("segment").ino());
        let strings = view.section(2).expect("string section");
        sealed.strings.push(section_strings(strings));
    }
    sealed
}

/// Whether the canonical strings `canonical` all lie in the string
/// sections of `prev`'s segments a publish with no new delta would reuse:
/// every segment but the one that failed its checksum and, when that is
/// a delta, the deltas after it.
fn held_without_a_delta(prev: Option<&Sealed>, bad: Option<usize>, canonical: &[String]) -> bool {
    let Some(prev) = prev else { return false };
    let reused = |sid: usize| match bad {
        Some(b) if b < SHARDS as usize => sid != b,
        Some(b) => sid < b,
        None => true,
    };
    let held: HashSet<&String> = prev
        .strings
        .iter()
        .enumerate()
        .filter(|&(sid, _)| reused(sid))
        .flat_map(|(_, strings)| strings)
        .collect();
    canonical.iter().all(|s| held.contains(s))
}

/// Check where a publish sealed the book's canonical strings, given the
/// segments it `linked`: a cold encode puts each distinct string into
/// the base shard of its hash; an append leaves each one a linked
/// segment holds where it is and writes the others into its new delta,
/// once each. Every section is in byte order, and no string lies in two
/// segments of a generation.
fn check_strings(now: &Sealed, linked: &[usize], canonical: &[String]) {
    let mut distinct: Vec<&String> = canonical.iter().collect();
    distinct.sort_unstable();
    distinct.dedup();
    let sorted = |strings: Vec<&String>| -> Vec<String> {
        let mut strings: Vec<String> = strings.into_iter().cloned().collect();
        strings.sort_unstable();
        strings.dedup();
        strings
    };
    let mut all: Vec<&String> = now.strings.iter().flatten().collect();
    let sealed = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(
        all.len(),
        sealed,
        "a string sealed twice: {:?}",
        now.strings
    );
    assert!(distinct.iter().all(|s| all.binary_search(s).is_ok()));
    if linked.is_empty() {
        for (sid, strings) in now.strings.iter().enumerate() {
            let hashed = distinct
                .iter()
                .copied()
                .filter(|s| fnv1a64(s.as_bytes()) % u64::from(SHARDS) == sid as u64);
            assert_eq!(strings, &sorted(hashed.collect()), "cold shard {sid}");
        }
        return;
    }
    let held: HashSet<&String> = linked.iter().flat_map(|&sid| &now.strings[sid]).collect();
    for (sid, strings) in now.strings.iter().enumerate() {
        if linked.contains(&sid) {
            continue;
        }
        let expected = match sid + 1 == now.strings.len() && sid >= SHARDS as usize {
            // The new delta: every string no linked segment holds.
            true => sorted(
                distinct
                    .iter()
                    .copied()
                    .filter(|s| !held.contains(s))
                    .collect(),
            ),
            // An emptied base shard.
            false => Vec::new(),
        };
        assert_eq!(strings, &expected, "segment {sid}");
    }
}

/// Check one publish against the layout rules, stated on their own
/// rather than by re-running the encoder: `prev` is the previous
/// generation's layout (`None` before the first seal), `bad` the id of
/// its segment that fails its checksum, if any, `fresh` the records the
/// book gained and `held` whether the segments a publish without a new
/// delta would reuse hold every canonical string. Returns the ids of the
/// segments the publish must link and the count it must write.
fn check_layout(
    prev: Option<&Sealed>,
    bad: Option<usize>,
    now: &Sealed,
    records: u64,
    fresh: u64,
    held: bool,
) -> (Vec<usize>, u64) {
    let shards = SHARDS as usize;
    let now_base: u64 = now.base.iter().sum();
    let (delta_records, appends) = total(&now.deltas);
    assert_eq!(
        now_base + delta_records,
        records,
        "every record sealed once"
    );
    assert!(delta_records < now_base || now.deltas.is_empty(), "{now:?}");
    assert!(
        now.deltas.windows(2).all(|w| dominates(w[0], w[1])),
        "each delta dominates the next: {now:?}"
    );
    // Publishes at least halve from delta to delta.
    let log2 = 63 - u64::leading_zeros(appends.max(1)) as usize;
    assert!(now.deltas.len() <= log2 + 1, "{now:?}");

    let cold = || {
        assert!(now.deltas.is_empty(), "{now:?}");
        (Vec::new(), u64::from(SHARDS))
    };
    let Some(prev) = prev else { return cold() };
    // A segment that fails its checksum is never reused: its records are
    // sealed again with the fresh ones. A bad base shard's slot is
    // written empty; a bad delta ends the deltas that can be kept.
    let mut base: u64 = prev.base.iter().sum();
    let mut deltas = &prev.deltas[..];
    let mut fresh = fresh;
    match bad {
        Some(sid) if sid < shards => {
            base -= prev.base[sid];
            fresh += prev.base[sid];
        }
        Some(sid) => {
            fresh += total(&deltas[sid - shards..]).0;
            deltas = &deltas[..sid - shards];
        }
        None => {}
    }
    if total(deltas).0 + fresh >= base {
        // Cold: the deltas would have reached the base's record count.
        return cold();
    }
    assert_eq!(now_base, base, "base shards are reused");
    // A publish writes a new delta when it has records to write, or a
    // canonical string no reused segment holds. The new delta absorbs
    // the fewest newest deltas that leaves the delta below it dominating
    // it.
    let new = (fresh, 1);
    let written = fresh > 0 || !held;
    let kept = match written {
        false => deltas.len(),
        true => (1..=deltas.len())
            .rev()
            .find(|&k| dominates(deltas[k - 1], add(total(&deltas[k..]), new)))
            .unwrap_or(0),
    };
    let mut expected = deltas[..kept].to_vec();
    if written {
        expected.push(add(total(&deltas[kept..]), new));
    }
    assert_eq!(now.deltas, expected, "from {prev:?}, bad segment {bad:?}");
    let linked = (0..shards + kept).filter(|&sid| Some(sid) != bad).collect();
    let emptied = bad.is_some_and(|sid| sid < shards);
    (linked, u64::from(emptied) + u64::from(written))
}

/// Check one publish's counts against the segments the layout rules
/// link and write, and the `models` model files it must link: every
/// other file is written, the index and the rest of the models alike.
fn check_outcome(outcome: &PublishOutcome, (linked, written): &(Vec<usize>, u64), models: u64) {
    assert_eq!(
        (outcome.shards_linked, outcome.shards_written),
        (linked.len() as u64, *written),
        "{outcome:?}"
    );
    let all_models = trained().drivers().len() as u64;
    assert_eq!(
        (outcome.files_linked, outcome.files_written),
        (
            linked.len() as u64 + models,
            1 + written + all_models - models
        ),
        "{outcome:?}"
    );
}

/// What one history exercised.
#[derive(Debug, Default)]
struct Exercised {
    /// Publishes checked against the served book's own layout.
    layouts_checked: usize,
    /// Publishes that merged deltas while an older generation was pinned.
    merges_pinned: usize,
    /// Cold re-encodes published while an older generation was pinned.
    colds_pinned: usize,
    /// Prunes that had to step around the pinned generation.
    pins_kept: usize,
    /// Bits flipped in base shards, and in deltas.
    flips_base: usize,
    flips_delta: usize,
    /// Flips that also invalidated an older retained generation.
    flips_shared: usize,
    /// Bits flipped in model files, and those whose file more than one
    /// retained generation linked.
    flips_model: usize,
    flips_model_shared: usize,
    /// Crashed publishes that fell back past a corrupt generation.
    crashes_past_corrupt: usize,
}

/// The pinned generation must still be there, and load as it sealed
/// unless it links a corrupt file.
fn assert_pinned_loads(
    store: &GenerationStore,
    pinned: &Option<Arc<LeadSnapshot>>,
    corrupt: &HashSet<u64>,
) {
    let Some(snap) = pinned else { return };
    let generation = snap.generation;
    assert_eq!(store.pinned(), Some(generation));
    match store.load(generation) {
        Ok(loaded) if intact(store.root(), generation, corrupt) => {
            assert_same_book(&loaded, snap);
        }
        Err(StoreError::Invalid(msg)) if !intact(store.root(), generation, corrupt) => {
            assert!(msg.contains("checksum"), "{msg}");
        }
        other => panic!("pinned generation {generation}: {:?}", other.err()),
    }
}

/// Run one seeded history.
fn run_history(seed: u64, steps: u64) -> Exercised {
    let mut rng = Rng::seed_from_u64(seed);
    let root = temp_root(&format!("t1_{seed}"));
    let twin_root = temp_root(&format!("t4_{seed}"));
    let mut store = open_store(&root);
    let twin = open_store(&twin_root);

    let first = poll(seed, 60);
    let mut snap = Arc::new(LeadSnapshot::build(trained(), &first, 1, 1));
    let mut twin_snap = Arc::new(LeadSnapshot::build(trained(), &first, 1, 4));
    let mut prev: Option<Sealed> = None;
    let mut served_from_store = false;
    let mut exercised = Exercised::default();
    // Pins draw from their own stream, so the history's publishes,
    // crashes, prunes and restarts are the ones it has without pins.
    let mut pin_rng = Rng::seed_from_u64(!seed);
    let mut pinned: Option<Arc<LeadSnapshot>> = None;
    // So do bit flips. A flip never touches a file a served book maps,
    // which would see it in its pages.
    let mut flip_rng = Rng::seed_from_u64(seed.rotate_left(32));
    let mut model_flip_rng = Rng::seed_from_u64(seed ^ 0x6d6f_64656c);
    let mut mapped: HashSet<u64> = HashSet::new();
    let mut corrupt: HashSet<u64> = HashSet::new();
    // Open handles keep every inode in those sets alive, so no new file
    // is handed its number.
    let mut held: Vec<std::fs::File> = Vec::new();
    // The previous generation's flipped segment, if any.
    let mut bad: Option<usize> = None;
    // Each generation's record count, by generation number.
    let mut lens = vec![0];

    for generation in 1..=steps {
        if generation > 1 {
            let docs = poll(
                seed.wrapping_mul(1_000) + generation,
                rng.gen_range(4..40usize),
            );
            snap = Arc::new(LeadSnapshot::extend(&snap, &docs, generation, 1));
            twin_snap = Arc::new(LeadSnapshot::extend(&twin_snap, &docs, generation, 4));
        }

        // Sometimes a crash mid-publish: the previous generation must
        // stay the newest loadable one, and the retry then succeeds.
        if generation > 1 && rng.gen_bool(0.2) {
            fault::install(
                &FaultPlan::parse("persist.write=io@0.4", rng.next_u64()).expect("plan"),
            );
            let attempt = store.publish(&snap);
            fault::reset();
            // (When no write failed, the publish below replaces it.)
            if attempt.is_err() {
                let fallback = store
                    .generations()
                    .expect("list")
                    .into_iter()
                    .rfind(|&g| intact(&root, g, &corrupt));
                let served = store.load_latest().expect("scan");
                assert_eq!(
                    served.as_ref().map(|(s, _)| (s.generation, s.book.len())),
                    fallback.map(|g| (g, lens[g as usize])),
                    "{:?}",
                    served.map(|(_, skipped)| skipped)
                );
                assert!(!root.join(format!("gen-{generation}")).exists());
                exercised.crashes_past_corrupt += usize::from(fallback != Some(generation - 1));
            }
        }

        // The models never change here, so each is linked from the
        // newest other generation unless its file there is corrupt.
        let models = store
            .generations()
            .expect("list")
            .into_iter()
            .rfind(|&g| g != generation)
            .map_or(0, |g| {
                let inodes = model_inodes(&root, g);
                inodes.iter().filter(|ino| !corrupt.contains(ino)).count() as u64
            });
        let outcome = store.publish(&snap).expect("publish");
        let twin_outcome = twin.publish(&twin_snap).expect("twin publish");
        assert!(
            segment_inodes(&root, generation)
                .iter()
                .all(|ino| !corrupt.contains(ino)),
            "generation {generation} links a corrupt segment"
        );
        assert!(
            model_inodes(&root, generation)
                .iter()
                .all(|ino| !corrupt.contains(ino)),
            "generation {generation} links a corrupt model"
        );
        let now = read_sealed(&root, generation);
        let len = snap.book.len();
        let canonical: Vec<String> = snap.book.strings().map(String::from).collect();
        let strings_held = held_without_a_delta(prev.as_ref(), bad, &canonical);
        let expect = check_layout(
            prev.as_ref(),
            bad.take(),
            &now,
            len as u64,
            (len - lens[lens.len() - 1]) as u64,
            strings_held,
        );
        check_strings(&now, &expect.0, &canonical);
        check_outcome(&outcome, &expect, models);
        check_outcome(&twin_outcome, &expect, models);
        lens.push(len);
        if let (Some(p), Some(_)) = (&prev, &pinned) {
            let kept = expect.0.iter().filter(|&&sid| sid >= SHARDS as usize);
            if expect.0.is_empty() {
                exercised.colds_pinned += 1;
            } else if kept.count() < p.deltas.len() {
                exercised.merges_pinned += 1;
            }
        }

        let segments = now.inodes.len();
        let appends = total(&now.deltas).1 as u32;
        let log2 = (32 - appends.max(1).saturating_sub(1).leading_zeros()) as usize;
        assert!(
            segments <= SHARDS as usize + log2 + 1,
            "{segments} segments after {appends} appends"
        );

        // A linked segment keeps its inode; a written one gets a new one.
        let old = prev.as_ref().map_or(&[][..], |p| &p.inodes[..]);
        for (sid, ino) in now.inodes.iter().enumerate() {
            if expect.0.contains(&sid) {
                assert_eq!(*ino, old[sid], "reused segment {sid} changed inode");
            } else {
                assert!(
                    !old.contains(ino),
                    "rewritten segment {sid} kept an old inode"
                );
            }
        }
        prev = Some(now);

        let dir = |r: &Path| r.join(format!("gen-{generation}"));
        assert!(
            sealed_files(&dir(&root)) == sealed_files(&dir(&twin_root)),
            "generation {generation} differs between 1 and 4 scan threads"
        );

        let (loaded, skipped) = store.load_latest().expect("scan").expect("a generation");
        assert!(skipped.is_empty(), "{skipped:?}");
        assert_eq!(loaded.generation, generation);
        assert_same_book(&loaded, &snap);
        if served_from_store {
            let in_memory: Vec<&[u8]> = snap.book.segments().map(|a| a.bytes()).collect();
            assert_eq!(
                in_memory.len(),
                segment_count(&root, generation),
                "generation {generation}"
            );
            for (sid, bytes) in in_memory.iter().enumerate() {
                let on_disk = std::fs::read(segment_path(&root, generation, sid)).expect("segment");
                assert!(
                    on_disk == *bytes,
                    "generation {generation}: segment {sid} on disk differs from the served book's"
                );
            }
            exercised.layouts_checked += 1;
        }

        // Pin the generation just sealed, as a server that loads it
        // does, or drop the pin; then sometimes prune.
        match pin_rng.gen_range(0..10u32) {
            0..=2 => {
                store.pin(generation);
                pinned = Some(Arc::clone(&snap));
            }
            3 => {
                store.unpin();
                pinned = None;
            }
            _ => {}
        }
        if rng.gen_bool(0.3) {
            let keep = rng.gen_range(1..3usize);
            let before = store.generations().expect("list");
            let removed = store.prune(keep).expect("prune");
            if let Some(snap) = &pinned {
                assert!(!removed.contains(&snap.generation), "{removed:?}");
                let old = &before[..before.len().saturating_sub(keep)];
                exercised.pins_kept += usize::from(old.contains(&snap.generation));
            }
            assert_pinned_loads(&store, &pinned, &corrupt);
        }
        let sealed = prev.as_ref().expect("sealed");
        if rng.gen_bool(0.25) {
            // A restart: re-open the store and continue from what it
            // serves.
            store = open_store(&root);
            snap = Arc::new(loaded);
            for sid in 0..sealed.inodes.len() {
                let path = segment_path(&root, generation, sid);
                held.push(std::fs::File::open(path).expect("segment"));
            }
            mapped.extend(&sealed.inodes);
            served_from_store = true;
        }

        // Sometimes a bit flips in a segment of this generation, in
        // both stores alike.
        let targets: Vec<usize> = (0..sealed.inodes.len())
            .filter(|&sid| !mapped.contains(&sealed.inodes[sid]))
            .collect();
        if !targets.is_empty() && flip_rng.gen_bool(0.2) {
            let sid = targets[flip_rng.gen_range(0..targets.len())];
            flip_bit(
                &segment_path(&twin_root, generation, sid),
                &mut flip_rng.clone(),
            );
            held.push(flip_bit(
                &segment_path(&root, generation, sid),
                &mut flip_rng,
            ));
            let ino = sealed.inodes[sid];
            let shared = store
                .generations()
                .expect("list")
                .into_iter()
                .any(|g| g != generation && segment_inodes(&root, g).contains(&ino));
            corrupt.insert(ino);
            bad = Some(sid);
            // The served book's layout no longer mirrors the store's.
            served_from_store = false;
            match sid < SHARDS as usize {
                true => exercised.flips_base += 1,
                false => exercised.flips_delta += 1,
            }
            exercised.flips_shared += usize::from(shared);
            assert_pinned_loads(&store, &pinned, &corrupt);
        }

        // Sometimes a bit flips in one of this generation's model files,
        // an inode every generation since the model was last written
        // links; in both stores alike.
        if model_flip_rng.gen_bool(0.2) {
            let paths = model_paths(&root, generation);
            let m = model_flip_rng.gen_range(0..paths.len());
            flip_bit(
                &model_paths(&twin_root, generation)[m],
                &mut model_flip_rng.clone(),
            );
            held.push(flip_bit(&paths[m], &mut model_flip_rng));
            let ino = model_inodes(&root, generation)[m];
            let linking = store
                .generations()
                .expect("list")
                .into_iter()
                .filter(|&g| model_inodes(&root, g).contains(&ino))
                .count();
            corrupt.insert(ino);
            exercised.flips_model += 1;
            exercised.flips_model_shared += usize::from(linking > 1);
            assert_only_intact_generations_load(&store, &corrupt);
            assert_pinned_loads(&store, &pinned, &corrupt);
        }
    }
    assert_pinned_loads(&store, &pinned, &corrupt);
    store.unpin();
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&twin_root);
    exercised
}

#[test]
fn random_histories_match_the_reference_layout() {
    let _guard = lock();
    let runs: Vec<Exercised> = [11, 23, 47]
        .into_iter()
        .map(|seed| run_history(seed, 14))
        .collect();
    let sum = |f: fn(&Exercised) -> usize| runs.iter().map(f).sum::<usize>();
    let checked = sum(|r| r.layouts_checked);
    assert!(checked >= 5, "only {checked} publishes followed a restart");
    assert!(
        sum(|r| r.merges_pinned) > 0 && sum(|r| r.colds_pinned) > 0 && sum(|r| r.pins_kept) > 0,
        "{runs:?}"
    );
    assert!(
        sum(|r| r.flips_base) > 0
            && sum(|r| r.flips_delta) > 0
            && sum(|r| r.flips_shared) > 0
            && sum(|r| r.crashes_past_corrupt) > 0
            && sum(|r| r.flips_model_shared) > 0,
        "{runs:?}"
    );
}

/// The numbers-only width of the index of `book` over `segments`
/// segments, at most: 4 bytes per count, global number, rank position
/// and string place, and no string byte (`leads2`'s index formula, with
/// a company's list bounded by its mention count).
fn numbers_only_index_width(book: &etap::BookHandle, segments: usize) -> usize {
    let (events, drivers) = (book.len(), book.drivers().len());
    let companies = book.companies_len();
    let strings = book.strings().count();
    let keys = strings - companies;
    let mentions: usize = book
        .companies_top(usize::MAX)
        .iter()
        .map(|c| c.events)
        .sum();
    44 + 16 * 8
        + 12
        + 4 * segments
        + 4 * events
        + 4 * strings
        + 4
        + 9 * drivers
        + 4 * events
        + 4
        + 16 * companies
        + 4 * mentions
        + 4
        + 4 * keys
}

#[test]
fn amortized_bytes_per_cycle_stay_below_a_cold_publish() {
    let _guard = lock();
    let root = temp_root("amortized");
    let store = open_store(&root);
    let mut snap = Arc::new(LeadSnapshot::build(trained(), &poll(5, 40), 1, 1));
    store.publish(&snap).expect("publish 1");
    let mut written = 0;
    for generation in 2..=65 {
        let docs = poll(500 + generation, 10);
        snap = Arc::new(LeadSnapshot::extend(&snap, &docs, generation, 1));
        written += store.publish(&snap).expect("publish").bytes_written;
        // Each cycle rewrites the index, which holds numbers only.
        let index = root.join(format!("gen-{generation}/book.index"));
        let index = std::fs::metadata(index).expect("index").len() as usize;
        let width = numbers_only_index_width(&snap.book, segment_count(&root, generation));
        assert!(
            index <= width,
            "generation {generation}: {index} B index, {width} B of numbers"
        );
    }
    let cold_root = temp_root("amortized_cold");
    let cold = open_store(&cold_root)
        .publish(&snap)
        .expect("cold")
        .bytes_written;
    let per_cycle = written / 64;
    assert!(per_cycle < cold, "{per_cycle} B per cycle vs {cold} B cold");
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&cold_root);
}

#[test]
fn a_failed_directory_sync_fails_the_publish() {
    let _guard = lock();
    for (tag, format) in [
        ("sync_text", LeadsFormat::Text),
        ("sync_binary", LeadsFormat::Binary { shards: SHARDS }),
    ] {
        let root = temp_root(tag);
        let store = GenerationStore::open(&root)
            .expect("open store")
            .with_leads_format(format);
        let first = Arc::new(LeadSnapshot::build(trained(), &poll(3, 30), 1, 1));
        store.publish(&first).expect("publish 1");
        let next = LeadSnapshot::extend(&first, &poll(4, 20), 2, 1);

        // Every directory fsync of the publish fails: the first, of the
        // text generation's directory or the binary one's `shards/`,
        // fails the publish before the rename.
        fault::install(&FaultPlan::parse("persist.sync_dir=io", 1).expect("plan"));
        let attempt = store.publish(&next);
        fault::reset();
        assert!(attempt.is_err(), "{tag}: {attempt:?}");
        assert_eq!(store.generations().expect("list"), vec![1], "{tag}");
        assert!(!root.join("gen-2").exists(), "{tag}");
        let (served, skipped) = store.load_latest().expect("scan").expect("generation 1");
        assert_eq!((served.generation, skipped.len()), (1, 0), "{tag}");
        assert_eq!(served.book.events_owned(), first.book.events_owned());

        // The retry seals it.
        store.publish(&next).expect("publish 2");
        let (served, _) = store.load_latest().expect("scan").expect("generation 2");
        assert_eq!(served.generation, 2);
        assert_eq!(served.book.events_owned(), next.book.events_owned());
        let _ = std::fs::remove_dir_all(&root);
    }
}
