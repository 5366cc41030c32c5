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
//! * the segment count stays within `shards + ⌈log2 appends⌉ + 1`;
//! * a twin history scanned with 4 threads seals byte-identical files;
//! * a crashed publish leaves the previous generation loadable;
//! * once the served book came from the store (a restart), the extends
//!   in memory lay it out exactly as the publishes lay it out on disk:
//!   every segment a publish linked or wrote is byte-identical to the
//!   served book's segment with the same id.
//!
//! The fault registry is process-global, so every test here runs under
//! [`lock`].

use etap::leads2::{LEADS2_APPEND_VERSION, SHARD_KIND};
use etap::{DriverSpec, Etap, EtapConfig, SalesDriver, TrainedEtap};
use etap_corpus::{SyntheticDoc, SyntheticWeb, WebConfig};
use etap_persist::bin_open;
use etap_runtime::fault::{self, FaultPlan};
use etap_runtime::Rng;
use etap_serve::{GenerationStore, LeadSnapshot, LeadsFormat, PublishOutcome};
use std::os::unix::fs::MetadataExt;
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
    /// Records in the base shards.
    base: u64,
    /// The delta stack, oldest first.
    deltas: Vec<Delta>,
    /// Every segment's inode, base shards first.
    inodes: Vec<u64>,
}

fn read_sealed(root: &Path, generation: u64) -> Sealed {
    let mut sealed = Sealed {
        base: 0,
        deltas: Vec::new(),
        inodes: Vec::new(),
    };
    for sid in 0..segment_count(root, generation) {
        let path = segment_path(root, generation, sid);
        let bytes = std::fs::read(&path).expect("segment");
        let view = bin_open(&bytes, SHARD_KIND, LEADS2_APPEND_VERSION, true).expect("container");
        let meta = view.section(0).expect("meta");
        let word = |at: usize| u64::from_le_bytes(meta[at..at + 8].try_into().expect("u64"));
        if sid < SHARDS as usize {
            sealed.base += word(8);
        } else {
            sealed.deltas.push((word(8), word(16)));
        }
        sealed
            .inodes
            .push(std::fs::metadata(&path).expect("segment").ino());
    }
    sealed
}

/// Check one publish against the layout rules, stated on their own
/// rather than by re-running the encoder: `prev` is the previous
/// generation's layout (`None` before the first seal), `fresh` the
/// records the book gained. Returns the expected `(linked, written)`
/// segment counts.
fn check_layout(prev: Option<&Sealed>, now: &Sealed, records: u64, fresh: u64) -> (u64, u64) {
    let shards = u64::from(SHARDS);
    let (delta_records, appends) = total(&now.deltas);
    assert_eq!(
        now.base + delta_records,
        records,
        "every record sealed once"
    );
    assert!(delta_records < now.base || now.deltas.is_empty(), "{now:?}");
    assert!(
        now.deltas.windows(2).all(|w| dominates(w[0], w[1])),
        "each delta dominates the next: {now:?}"
    );
    // Publishes at least halve from delta to delta.
    let log2 = 63 - u64::leading_zeros(appends.max(1)) as usize;
    assert!(now.deltas.len() <= log2 + 1, "{now:?}");

    let Some(prev) = prev.filter(|p| total(&p.deltas).0 + fresh < p.base) else {
        // Cold: the deltas would have reached the base's record count.
        assert!(now.deltas.is_empty(), "{now:?}");
        return (0, shards);
    };
    assert_eq!(now.base, prev.base, "base shards are reused");
    // The new delta absorbs the fewest newest deltas that leaves the
    // delta below it dominating it.
    let new = (fresh, 1);
    let kept = match fresh {
        0 => prev.deltas.len(),
        _ => (1..=prev.deltas.len())
            .rev()
            .find(|&k| dominates(prev.deltas[k - 1], add(total(&prev.deltas[k..]), new)))
            .unwrap_or(0),
    };
    let mut expected = prev.deltas[..kept].to_vec();
    if fresh > 0 {
        expected.push(add(total(&prev.deltas[kept..]), new));
    }
    assert_eq!(now.deltas, expected, "from {prev:?}");
    (shards + kept as u64, u64::from(fresh > 0))
}

fn check_outcome(outcome: &PublishOutcome, expect: (u64, u64)) {
    assert_eq!(
        (outcome.files_linked, outcome.shards_written),
        expect,
        "{outcome:?}"
    );
}

/// Run one seeded history; returns the publishes checked against the
/// served book's own layout.
fn run_history(seed: u64, steps: u64) -> usize {
    let mut rng = Rng::seed_from_u64(seed);
    let root = temp_root(&format!("t1_{seed}"));
    let twin_root = temp_root(&format!("t4_{seed}"));
    let mut store = open_store(&root);
    let twin = open_store(&twin_root);

    let first = poll(seed, 60);
    let mut snap = Arc::new(LeadSnapshot::build_parallel(trained(), &first, 1, 1));
    let mut twin_snap = Arc::new(LeadSnapshot::build_parallel(trained(), &first, 1, 4));
    let mut prev: Option<Sealed> = None;
    let mut prev_len = 0;
    let mut served_from_store = false;
    let mut layouts_checked = 0;

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
                let (served, skipped) = store.load_latest().expect("scan").expect("a generation");
                assert_eq!(served.generation, generation - 1, "{skipped:?}");
                assert_eq!(served.book.len(), prev_len);
                assert!(!root.join(format!("gen-{generation}")).exists());
            }
        }

        let outcome = store.publish(&snap).expect("publish");
        let twin_outcome = twin.publish(&twin_snap).expect("twin publish");
        let now = read_sealed(&root, generation);
        let len = snap.book.len();
        let expect = check_layout(prev.as_ref(), &now, len as u64, (len - prev_len) as u64);
        check_outcome(&outcome, expect);
        check_outcome(&twin_outcome, expect);
        prev_len = len;

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
            if (sid as u64) < expect.0 {
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
            layouts_checked += 1;
        }

        if rng.gen_bool(0.3) {
            store.prune(rng.gen_range(1..3usize)).expect("prune");
        }
        if rng.gen_bool(0.25) {
            // A restart: re-open the store and continue from what it
            // serves.
            store = open_store(&root);
            snap = Arc::new(loaded);
            served_from_store = true;
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&twin_root);
    layouts_checked
}

#[test]
fn random_histories_match_the_reference_layout() {
    let _guard = lock();
    let checked: usize = [11, 23, 47]
        .into_iter()
        .map(|seed| run_history(seed, 14))
        .sum();
    assert!(checked >= 5, "only {checked} publishes followed a restart");
}

#[test]
fn amortized_bytes_per_cycle_stay_below_a_cold_publish() {
    let _guard = lock();
    let root = temp_root("amortized");
    let store = open_store(&root);
    let mut snap = Arc::new(LeadSnapshot::build_parallel(trained(), &poll(5, 40), 1, 1));
    store.publish(&snap).expect("publish 1");
    let mut written = 0;
    for generation in 2..=65 {
        let docs = poll(500 + generation, 10);
        snap = Arc::new(LeadSnapshot::extend(&snap, &docs, generation, 1));
        written += store.publish(&snap).expect("publish").bytes_written;
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
