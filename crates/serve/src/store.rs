//! The durable generation store: every published [`LeadSnapshot`]
//! persisted as an on-disk *generation*, so a restarted server
//! warm-starts from the newest valid one instead of re-crawling.
//!
//! ## Layout
//!
//! ```text
//! <root>/
//!   gen-3/                    text format (LEADS v1)
//!     MANIFEST                ETAP GEN-MANIFEST (written last)
//!     events.leads            ETAP LEADS v1 — the ranked event book
//!     model-000-<id>.model    ETAP MODEL v2 — one per trained driver,
//!     model-001-<id>.model    numbered to preserve driver order
//!   gen-4/                    binary format (LEADS v2)
//!     MANIFEST
//!     book.index              ETAPBIN LEADS-IDX — rankings as
//!                             (segment, idx) refs
//!     shards/
//!       shard-00000.leads2    ETAPBIN LEADS — event records: the
//!       …                     base shards of the last cold encode,
//!       shard-00015.leads2    one per company-hash bucket,
//!       shard-00016.leads2    then deltas, oldest first
//!     model-000-<id>.model
//!   gen-5/
//!     …
//! ```
//!
//! Binary publishes are **append-only** (see `etap::leads2`). Each
//! event's record is matched by content against the previous
//! generation's segment files. A segment whose records are all still in
//! the book is `hard_link`ed under the same name, and the unmatched
//! records go into one new delta segment; the index is rewritten. Links
//! survive pruning of the source directory: the inode lives until its
//! last link drops. A previous segment is reused only after its bytes
//! pass the size and FNV checksum its manifest recorded, so corruption
//! on disk never propagates into a new generation. A previous segment
//! the published book already holds (a book extended in memory shares
//! the segments of the generation it extends) is compared with its file
//! through a small buffer and then read through the book's arena, rather
//! than mapped a second time. With no previous binary generation of the
//! same shard count, the publish encodes cold.
//!
//! Linking has a cost: until the next cold re-encode, every retained
//! binary generation shares each base shard's inode. One corrupt base
//! shard therefore fails the checksum of every generation that links
//! it, and [`GenerationStore::load_latest`] has no older binary
//! generation to fall back to. The next publish seals a valid one,
//! since it never links the corrupt shard.
//!
//! At load, binary payloads are opened as [`Arena`]s — mmap-backed on
//! Linux — and served zero-copy through a `MappedBook`: warm start is
//! O(mmap) + one checksum pass, never O(parse).
//!
//! ## Crash safety
//!
//! A generation is *visible* exactly when its directory name has no
//! `.tmp` suffix, and *valid* exactly when its `MANIFEST` checks out.
//! The publish protocol makes both transitions atomic:
//!
//! 1. write every payload file into `gen-<n>.tmp/`, fsync each;
//! 2. write `MANIFEST` (listing every file with size + FNV-1a 64
//!    checksum) last, fsync it;
//! 3. `rename` the directory to `gen-<n>`; fsync the store root.
//!
//! A crash before (3) leaves a `.tmp` directory that readers ignore
//! (and the next publish sweeps); a torn file inside a visible
//! generation fails its manifest or codec checksum and the loader
//! [falls back](GenerationStore::load_latest) to the newest generation
//! that *does* validate. No partial state is ever served.
//!
//! ## Retention vs. live readers
//!
//! A server that mmaps a generation keeps serving it while `prune`
//! might want to delete the directory. [`GenerationStore::pin`] marks
//! the generation a live server in this process currently serves;
//! `prune` deletes around it. (On Linux an unlinked mapping would stay
//! readable anyway, but pinning also keeps the *directory* loadable so
//! a concurrent warm start can't race into `ENOENT`.)

use crate::snapshot::LeadSnapshot;
use etap::leads2::{self, MappedBook, PrevSegment, Segment};
use etap::{BookHandle, LeadBook, TrainedEtap};
use etap_persist::{open_arena, Arena, CodecError, Writer};
use etap_runtime::perf::Stage;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Codec kind of generation manifests.
pub const MANIFEST_KIND: &str = "GEN-MANIFEST";
/// Highest `GEN-MANIFEST` version this build reads/writes (v2 adds the
/// `format`/`shards` records for binary generations, `shards` counting
/// every segment file; v1 manifests still load).
pub const MANIFEST_VERSION: u32 = 2;
/// The ranked-event file inside each text-format generation.
pub const EVENTS_FILE: &str = "events.leads";
/// The ranking-index file inside each binary-format generation.
pub const INDEX_FILE: &str = "book.index";
/// Subdirectory holding binary shard files.
pub const SHARD_DIR: &str = "shards";

/// Perf stages for the persistence paths (no-ops unless `ETAP_PERF=1`);
/// `persist.mmap` lives in `etap_persist::arena`.
static STAGE_PUBLISH: Stage = Stage::new("persist.publish");
static STAGE_LOAD: Stage = Stage::new("persist.load");

/// On-disk representation of the lead book inside a generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeadsFormat {
    /// `LEADS v1` text codec: greppable, parsed at load.
    Text,
    /// Segmented `LEADS v2` binary: mmap'd at load, served zero-copy.
    Binary {
        /// Number of company-hash base shards a cold encode writes
        /// (clamped to ≥ 1).
        shards: u32,
    },
}

/// What one publish actually touched — the observability payload behind
/// the append-publish guarantee ("sealed records are linked, not
/// rewritten").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishOutcome {
    /// The sealed generation directory.
    pub dir: PathBuf,
    /// Payload files newly written (segments, index, models).
    pub files_written: u64,
    /// Segment files among [`files_written`](Self::files_written): the
    /// new delta, or every base shard of a cold encode (always 0 for
    /// text-format publishes).
    pub shards_written: u64,
    /// Segment files hard-linked unchanged from the previous generation.
    pub files_linked: u64,
    /// Bytes of payload newly written (excludes linked files and the
    /// manifest).
    pub bytes_written: u64,
}

/// Why a stored generation could not be loaded.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(io::Error),
    /// A file failed codec validation (checksum, version, grammar).
    Codec(CodecError),
    /// The manifest's own invariants failed (missing/duplicated file
    /// entry, size or checksum mismatch, generation number mismatch).
    Invalid(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o: {e}"),
            Self::Codec(e) => write!(f, "codec: {e}"),
            Self::Invalid(msg) => write!(f, "invalid generation: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        Self::Codec(e)
    }
}

/// Pinned generations, keyed by canonicalized store root. Process-global
/// rather than per-instance because the watch loop re-opens the store
/// on every publish attempt — a pin taken by the serving path must
/// survive those re-opens. One pin slot per root: pinning replaces.
static PINNED: OnceLock<Mutex<HashMap<PathBuf, u64>>> = OnceLock::new();

fn pinned_map() -> &'static Mutex<HashMap<PathBuf, u64>> {
    PINNED.get_or_init(|| Mutex::new(HashMap::new()))
}

fn shard_file(sid: usize) -> String {
    format!("{SHARD_DIR}/shard-{sid:05}.leads2")
}

fn shard_id(name: &str) -> Option<u32> {
    name.strip_prefix(SHARD_DIR)?
        .strip_prefix('/')?
        .strip_prefix("shard-")?
        .strip_suffix(".leads2")?
        .parse()
        .ok()
}

/// A directory of persisted snapshot generations.
#[derive(Debug)]
pub struct GenerationStore {
    root: PathBuf,
    /// When set, [`publish`](Self::publish) auto-prunes to this many
    /// newest generations so a long-running watch loop cannot fill the
    /// disk.
    retention: Option<usize>,
    /// On-disk book format for generations this store *writes*; reads
    /// auto-detect from each generation's manifest.
    leads_format: LeadsFormat,
}

impl GenerationStore {
    /// Open (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    /// Propagates directory-creation failures.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Self {
            root,
            retention: None,
            leads_format: LeadsFormat::Text,
        })
    }

    /// Auto-prune to the `keep` newest generations after every
    /// successful publish (`keep == 0` is treated as 1, matching
    /// [`prune`](Self::prune)).
    #[must_use]
    pub fn with_retention(mut self, keep: usize) -> Self {
        self.retention = Some(keep.max(1));
        self
    }

    /// Choose the on-disk book format for future publishes.
    #[must_use]
    pub fn with_leads_format(mut self, format: LeadsFormat) -> Self {
        self.leads_format = format;
        self
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The configured auto-prune retention, if any.
    #[must_use]
    pub fn retention(&self) -> Option<usize> {
        self.retention
    }

    /// The format future publishes will use.
    #[must_use]
    pub fn leads_format(&self) -> LeadsFormat {
        self.leads_format
    }

    fn gen_dir(&self, generation: u64) -> PathBuf {
        self.root.join(format!("gen-{generation}"))
    }

    /// The identity of this store for the process-global pin table:
    /// canonicalized so every re-open of the same directory shares the
    /// pin slot.
    fn pin_key(&self) -> PathBuf {
        self.root.canonicalize().unwrap_or_else(|_| self.root.clone())
    }

    /// Mark `generation` as actively served: [`prune`](Self::prune) and
    /// retention will delete around it until [`unpin`](Self::unpin) or
    /// a newer pin replaces it. One pinned generation per store root,
    /// process-wide.
    pub fn pin(&self, generation: u64) {
        pinned_map()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(self.pin_key(), generation);
    }

    /// Clear this store's pinned generation, if any.
    pub fn unpin(&self) {
        pinned_map()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.pin_key());
    }

    /// The currently pinned generation, if any.
    #[must_use]
    pub fn pinned(&self) -> Option<u64> {
        pinned_map()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&self.pin_key())
            .copied()
    }

    /// The newest visible generation other than `exclude`, with its
    /// manifest's `name → (fnv, size)` map — what an append publish
    /// reuses segments from. Any failure (no previous generation,
    /// unreadable manifest) degrades to a cold publish.
    fn link_base(&self, exclude: u64) -> Option<(PathBuf, HashMap<String, (u64, usize)>)> {
        let newest = self
            .generations()
            .ok()?
            .into_iter()
            .filter(|&g| g != exclude)
            .next_back()?;
        let dir = self.gen_dir(newest);
        let (_, records) =
            etap_persist::read_file(&dir.join("MANIFEST"), MANIFEST_KIND, MANIFEST_VERSION).ok()?;
        let mut map = HashMap::new();
        for rec in &records {
            if rec.tag() == "file" {
                let name = rec.str(1).ok()?.to_string();
                let fnv = u64::from_str_radix(rec.str(2).ok()?, 16).ok()?;
                let size: usize = rec.parse(3).ok()?;
                map.insert(name, (fnv, size));
            }
        }
        Some((dir, map))
    }

    /// Persist one snapshot as generation `snapshot.generation`,
    /// following the crash-safety protocol (tmp dir → fsync'd files →
    /// manifest last → rename → root fsync). Republishing an existing
    /// generation number replaces it atomically. Binary-format
    /// publishes append to the previous generation: segments whose
    /// records are all still in the book are hard-linked, and only the
    /// new records are written (see `etap::leads2`).
    ///
    /// # Errors
    /// Propagates filesystem errors; the store is left without a
    /// partially visible generation in every failure case.
    pub fn publish(&self, snapshot: &LeadSnapshot) -> io::Result<PublishOutcome> {
        let _t = STAGE_PUBLISH.scope();
        // Fault seam: lets chaos runs fail whole publishes before any
        // tmp directory exists (distinct from `persist.write`, which
        // fails individual file writes mid-publish).
        etap_runtime::fault::check_io("store.publish")?;
        let generation = snapshot.generation;
        let final_dir = self.gen_dir(generation);
        let tmp_dir = self.root.join(format!("gen-{generation}.tmp"));
        if tmp_dir.exists() {
            std::fs::remove_dir_all(&tmp_dir)?;
        }
        std::fs::create_dir_all(&tmp_dir)?;

        let mut manifest = Writer::new(MANIFEST_KIND, MANIFEST_VERSION);
        manifest.record(["generation", &generation.to_string()]);
        manifest.record(["window", &snapshot.trained.snippet_window().to_string()]);
        manifest.record(["events", &snapshot.book.len().to_string()]);
        let mut payloads = Payloads {
            dir: tmp_dir.clone(),
            files: Vec::new(),
            outcome: PublishOutcome {
                dir: final_dir.clone(),
                files_written: 0,
                shards_written: 0,
                files_linked: 0,
                bytes_written: 0,
            },
        };
        match self.leads_format {
            LeadsFormat::Text => {
                let events = snapshot.book.events_owned();
                let text = etap::persist::events_to_string(&events);
                payloads.write(EVENTS_FILE, text.as_bytes())?;
            }
            LeadsFormat::Binary { shards } => {
                let segments = self.publish_segments(snapshot, shards.max(1), &mut payloads)?;
                manifest.record(["format", "binary"]);
                manifest.record(["shards", &segments.to_string()]);
            }
        }
        for (i, driver) in snapshot.trained.drivers.iter().enumerate() {
            let name = format!("model-{i:03}-{}.model", driver.spec.driver.id());
            payloads.write(&name, etap::persist::to_string(driver).as_bytes())?;
        }
        for (name, fnv, size) in &payloads.files {
            manifest.record(["file", name, &format!("{fnv:016x}"), &size.to_string()]);
        }

        write_synced(&tmp_dir.join("MANIFEST"), manifest.finish().as_bytes())?;
        if final_dir.exists() {
            std::fs::remove_dir_all(&final_dir)?;
        }
        std::fs::rename(&tmp_dir, &final_dir)?;
        etap_persist::sync_dir(&self.root);
        // Retention runs after the rename: the new generation is
        // already sealed, so a prune failure must not fail the publish.
        if let Some(keep) = self.retention {
            let _ = self.prune(keep);
        }
        Ok(payloads.outcome)
    }

    /// Write the `LEADS v2` index and segments of `snapshot`, appending
    /// to the newest other generation when its layout allows, else
    /// encoding cold. Returns the segment count.
    fn publish_segments(
        &self,
        snapshot: &LeadSnapshot,
        n_base: u32,
        payloads: &mut Payloads,
    ) -> io::Result<usize> {
        let book = &snapshot.book;
        let base = self.link_base(snapshot.generation);
        let prev = base
            .as_ref()
            .map(|(dir, files)| verified_segments(dir, files, book))
            .unwrap_or_default();
        let parsed: Vec<Option<PrevSegment>> = prev
            .iter()
            .enumerate()
            .map(|(sid, arena)| {
                let arena = arena.as_ref()?;
                PrevSegment::parse(arena.bytes(), sid as u32, n_base).ok()
            })
            .collect();
        let encoded = leads2::encode_append(book, n_base, &parsed)
            .unwrap_or_else(|| leads2::encode_book(book, n_base));

        std::fs::create_dir_all(payloads.dir.join(SHARD_DIR))?;
        payloads.write(INDEX_FILE, &encoded.index)?;
        // Only segments are ever linked: sharing an inode couples two
        // generations' fates under in-place corruption — acceptable for
        // checksummed bulk segments, not for the small files (index,
        // models, manifest) whose independence the fallback leans on.
        for (sid, segment) in encoded.segments.iter().enumerate() {
            let name = shard_file(sid);
            let before = payloads.outcome.files_written;
            match (segment, &base, prev.get(sid)) {
                (Segment::Written(bytes), _, _) => payloads.write(&name, bytes)?,
                (Segment::Linked, Some((dir, files)), Some(Some(arena))) => {
                    payloads.link(&dir.join(&name), &name, arena.bytes(), files[&name].0)?;
                }
                (Segment::Linked, _, _) => unreachable!("only verified segments are reused"),
            }
            payloads.outcome.shards_written += payloads.outcome.files_written - before;
        }
        Ok(encoded.segments.len())
    }

    /// Generation numbers currently visible (sorted ascending).
    /// In-flight `.tmp` directories are excluded by construction.
    ///
    /// # Errors
    /// Propagates directory-read failures.
    pub fn generations(&self) -> io::Result<Vec<u64>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let name = entry.file_name();
            let Some(n) = name.to_str().and_then(|s| s.strip_prefix("gen-")) else {
                continue;
            };
            if let Ok(g) = n.parse::<u64>() {
                out.push(g);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Load and fully validate one generation: the manifest must parse,
    /// list each file exactly once with matching size and checksum, and
    /// every payload file must itself decode. Both formats serve through
    /// one `MappedBook`: a text generation parses and is sealed into
    /// heap arenas, a binary one mmaps zero-copy (the manifest FNV pass
    /// over the arenas is the integrity check — no parse happens).
    ///
    /// # Errors
    /// See [`StoreError`]; any failure means this generation is not
    /// servable (callers typically fall back to an older one).
    pub fn load(&self, generation: u64) -> Result<LeadSnapshot, StoreError> {
        let _t = STAGE_LOAD.scope();
        // Fault seam: chaos runs inject read failures here, exercising
        // the load_latest fall-back-to-older-generation path.
        etap_runtime::fault::check_io("store.load")?;
        let dir = self.gen_dir(generation);
        let (_, records) = etap_persist::read_file(
            &dir.join("MANIFEST"),
            MANIFEST_KIND,
            MANIFEST_VERSION,
        )?;

        let mut stated_generation: Option<u64> = None;
        let mut window: Option<usize> = None;
        let mut event_count: Option<usize> = None;
        let mut format: Option<String> = None;
        let mut shard_count: Option<u32> = None;
        let mut files: Vec<(String, u64, usize)> = Vec::new();
        for rec in &records {
            match rec.tag() {
                "generation" => stated_generation = Some(rec.parse(1)?),
                "window" => window = Some(rec.parse(1)?),
                "events" => event_count = Some(rec.parse(1)?),
                "format" => format = Some(rec.str(1)?.to_string()),
                "shards" => shard_count = Some(rec.parse(1)?),
                "file" => {
                    let name = rec.str(1)?.to_string();
                    if files.iter().any(|(n, _, _)| *n == name) {
                        return Err(StoreError::Invalid(format!(
                            "manifest lists {name:?} twice"
                        )));
                    }
                    let checksum = u64::from_str_radix(rec.str(2)?, 16)
                        .map_err(|_| rec.malformed("bad checksum field"))?;
                    let size: usize = rec.parse(3)?;
                    files.push((name, checksum, size));
                }
                other => {
                    return Err(StoreError::Invalid(format!(
                        "unknown manifest record `{other}`"
                    )))
                }
            }
        }
        let missing = |what: &str| StoreError::Invalid(format!("manifest missing {what} record"));
        let stated_generation = stated_generation.ok_or_else(|| missing("generation"))?;
        if stated_generation != generation {
            return Err(StoreError::Invalid(format!(
                "directory gen-{generation} holds manifest for generation {stated_generation}"
            )));
        }
        let window = window.ok_or_else(|| missing("window"))?;
        let event_count = event_count.ok_or_else(|| missing("events"))?;
        let binary = match format.as_deref() {
            None | Some("text") => false,
            Some("binary") => true,
            Some(other) => {
                return Err(StoreError::Invalid(format!(
                    "unknown leads format {other:?}"
                )))
            }
        };

        // Verify + decode each payload in manifest order (which
        // preserves the driver order the snapshot was published with).
        let verify = |name: &str, bytes: &[u8], checksum: u64, size: usize| {
            if bytes.len() != size {
                return Err(StoreError::Invalid(format!(
                    "{name}: manifest says {size} bytes, file has {}",
                    bytes.len()
                )));
            }
            let computed = etap_persist::fnv1a64(bytes);
            if computed != checksum {
                return Err(StoreError::Invalid(format!(
                    "{name}: checksum mismatch ({checksum:016x} vs {computed:016x})"
                )));
            }
            Ok(())
        };
        let mut drivers = Vec::new();
        let mut text_book: Option<LeadBook> = None;
        let mut index_arena: Option<Arc<Arena>> = None;
        let mut shard_arenas: Vec<(u32, Arc<Arena>)> = Vec::new();
        for (name, checksum, size) in &files {
            let path = dir.join(name);
            if binary && (name == INDEX_FILE || shard_id(name).is_some()) {
                let arena = Arc::new(open_arena(&path)?);
                verify(name, arena.bytes(), *checksum, *size)?;
                if name == INDEX_FILE {
                    index_arena = Some(arena);
                } else if let Some(sid) = shard_id(name) {
                    shard_arenas.push((sid, arena));
                }
            } else if !binary && name == EVENTS_FILE {
                let bytes = std::fs::read(&path)?;
                verify(name, &bytes, *checksum, *size)?;
                let text = String::from_utf8(bytes)
                    .map_err(|_| StoreError::Invalid(format!("{name}: not UTF-8")))?;
                text_book = Some(etap::persist::book_from_str(&text)?);
            } else if name.ends_with(".model") {
                let bytes = std::fs::read(&path)?;
                verify(name, &bytes, *checksum, *size)?;
                drivers.push(etap::persist::load(&path).map_err(CodecError::Io)?);
            } else {
                return Err(StoreError::Invalid(format!(
                    "manifest lists unrecognized file {name:?}"
                )));
            }
        }

        let book: BookHandle = if binary {
            let n = shard_count.ok_or_else(|| missing("shards"))?.max(1) as usize;
            let index = index_arena.ok_or_else(|| missing("book.index file"))?;
            shard_arenas.sort_by_key(|(sid, _)| *sid);
            if shard_arenas.len() != n
                || shard_arenas
                    .iter()
                    .enumerate()
                    .any(|(i, (sid, _))| *sid != i as u32)
            {
                return Err(StoreError::Invalid(format!(
                    "manifest lists {} segment files, expected segments 0..{n}",
                    shard_arenas.len()
                )));
            }
            let shards = shard_arenas.into_iter().map(|(_, a)| a).collect();
            MappedBook::open(index, shards)?.into()
        } else {
            text_book.ok_or_else(|| missing("events.leads file"))?.into()
        };
        if book.len() != event_count {
            return Err(StoreError::Invalid(format!(
                "manifest says {event_count} events, book has {}",
                book.len()
            )));
        }

        Ok(LeadSnapshot {
            generation,
            book,
            trained: Arc::new(TrainedEtap::from_drivers(drivers, window)),
        })
    }

    /// Warm-start entry point: load the newest generation that fully
    /// validates, skipping invalid ones. Returns the snapshot plus a
    /// `(generation, reason)` list of everything skipped (for logs and
    /// metrics), or `None` when no valid generation exists.
    ///
    /// # Errors
    /// Propagates only root-directory read failures; per-generation
    /// failures are *reported*, not raised.
    pub fn load_latest(
        &self,
    ) -> io::Result<Option<(LeadSnapshot, Vec<(u64, String)>)>> {
        let mut skipped = Vec::new();
        for generation in self.generations()?.into_iter().rev() {
            match self.load(generation) {
                Ok(snapshot) => return Ok(Some((snapshot, skipped))),
                Err(err) => skipped.push((generation, err.to_string())),
            }
        }
        Ok(None)
    }

    /// Retention: delete the oldest generations beyond the `keep`
    /// newest (by generation number), plus any stale `.tmp` directories
    /// from interrupted publishes. A [`pin`](Self::pin)ned generation is
    /// never deleted, whatever its age — the serving path pins what it
    /// currently has mapped. Returns the deleted generation numbers.
    /// `keep == 0` is treated as 1 — the store never deletes its only
    /// warm-start source.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn prune(&self, keep: usize) -> io::Result<Vec<u64>> {
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            let name = entry.file_name();
            if name.to_str().is_some_and(|s| s.starts_with("gen-") && s.ends_with(".tmp")) {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
        let keep = keep.max(1);
        let pinned = self.pinned();
        let generations = self.generations()?;
        let mut removed = Vec::new();
        if generations.len() > keep {
            for &generation in &generations[..generations.len() - keep] {
                if Some(generation) == pinned {
                    continue;
                }
                std::fs::remove_dir_all(self.gen_dir(generation))?;
                removed.push(generation);
            }
            if !removed.is_empty() {
                etap_persist::sync_dir(&self.root);
            }
        }
        Ok(removed)
    }
}

/// The previous generation's segment files in id order, each only when
/// its bytes match the size and checksum its manifest recorded: a
/// segment that fails them is never reused.
///
/// A book extended in memory holds the previous generation's segments
/// as its own (see `MappedBook::extend`). A file whose bytes equal the
/// book's segment with the same id is read through that arena, after
/// a buffered comparison, instead of being mapped a second time — a
/// second mapping would count every page of it twice in the resident
/// set. Any other file is mapped.
fn verified_segments(
    dir: &Path,
    files: &HashMap<String, (u64, usize)>,
    book: &MappedBook,
) -> Vec<Option<Arc<Arena>>> {
    let held: Vec<&Arc<Arena>> = book.segments().collect();
    (0..)
        .map(shard_file)
        .map_while(|name| files.get(&name).map(|&sum| (name, sum)))
        .enumerate()
        .map(|(sid, (name, (fnv, size)))| {
            let path = dir.join(name);
            let verified = |a: &Arena| a.len() == size && etap_persist::fnv1a64(a.bytes()) == fnv;
            match held.get(sid) {
                Some(arena) if verified(arena) && file_equals(&path, arena.bytes()) => {
                    Some(Arc::clone(arena))
                }
                _ => open_arena(&path).ok().filter(|a| verified(a)).map(Arc::new),
            }
        })
        .collect()
}

/// Whether the file at `path` holds exactly `bytes`, read through a
/// small buffer.
fn file_equals(path: &Path, bytes: &[u8]) -> bool {
    use std::io::Read as _;
    let Ok(mut file) = std::fs::File::open(path) else {
        return false;
    };
    let mut buf = vec![0; 1 << 16];
    let mut at = 0;
    loop {
        match file.read(&mut buf) {
            Ok(0) => return at == bytes.len(),
            Ok(n) if bytes.get(at..at + n) == Some(&buf[..n]) => at += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            _ => return false,
        }
    }
}

/// The payload files of a generation being sealed: what its manifest
/// will list, and what the publish wrote or linked.
struct Payloads {
    dir: PathBuf,
    /// `(name, fnv, size)` in publish order.
    files: Vec<(String, u64, usize)>,
    outcome: PublishOutcome,
}

impl Payloads {
    fn write(&mut self, name: &str, contents: &[u8]) -> io::Result<()> {
        write_synced(&self.dir.join(name), contents)?;
        self.outcome.files_written += 1;
        self.outcome.bytes_written += contents.len() as u64;
        let fnv = etap_persist::fnv1a64(contents);
        self.files.push((name.to_string(), fnv, contents.len()));
        Ok(())
    }

    /// Reuse `from`, a verified file of the previous generation holding
    /// `contents`: hard-link it (the inode outlives pruning of its
    /// source directory), or write a copy where links fail.
    fn link(&mut self, from: &Path, name: &str, contents: &[u8], fnv: u64) -> io::Result<()> {
        if std::fs::hard_link(from, self.dir.join(name)).is_err() {
            return self.write(name, contents);
        }
        self.outcome.files_linked += 1;
        self.files.push((name.to_string(), fnv, contents.len()));
        Ok(())
    }
}

/// Write + fsync one file (no rename dance needed: the whole directory
/// is renamed into visibility afterwards).
fn write_synced(path: &Path, contents: &[u8]) -> io::Result<()> {
    use std::io::Write as _;
    // Same seam name as etap_persist::write_atomic: `persist.write`
    // covers every durable file write in the publish path.
    etap_runtime::fault::check_io("persist.write")?;
    let mut f = std::fs::File::create(path)?;
    f.write_all(contents)?;
    f.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use etap::{LeadBook, SalesDriver, TriggerEvent};

    fn temp_store(tag: &str) -> GenerationStore {
        let root = std::env::temp_dir().join(format!(
            "etap_store_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        GenerationStore::open(root).expect("open store")
    }

    fn snapshot(generation: u64, n_events: usize) -> LeadSnapshot {
        let events: Vec<TriggerEvent> = (0..n_events)
            .map(|i| TriggerEvent {
                driver: SalesDriver::RevenueGrowth,
                doc_id: i,
                url: format!("http://example/{i}"),
                snippet: format!("snippet {i} of gen {generation}"),
                score: 0.5 + (i as f64) / (2.0 * n_events.max(1) as f64),
                companies: vec![format!("Company {i}")],
                doc_date: (2005, 3, 1),
            })
            .collect();
        LeadSnapshot {
            generation,
            book: LeadBook::build(events).into(),
            trained: Arc::new(TrainedEtap::from_drivers(Vec::new(), 3)),
        }
    }

    /// A snapshot whose extra events all hit one company (one shard),
    /// layered on top of `snapshot(1, base)`'s events — the base events
    /// are byte-identical to generation 1's, so clean shards can link.
    fn extended_snapshot(generation: u64, base: usize, extra: usize) -> LeadSnapshot {
        let mut events = snapshot(1, base).book.events_owned();
        for i in 0..extra {
            events.push(TriggerEvent {
                driver: SalesDriver::MergersAcquisitions,
                doc_id: 10_000 + i,
                url: format!("http://example/x{i}"),
                snippet: format!("extension snippet {i}"),
                score: 0.4 + (i as f64) / 100.0,
                companies: vec!["Hotspot Inc".to_string()],
                doc_date: (2005, 4, 2),
            });
        }
        LeadSnapshot {
            generation,
            book: LeadBook::build(events).into(),
            trained: Arc::new(TrainedEtap::from_drivers(Vec::new(), 3)),
        }
    }

    #[test]
    fn publish_load_roundtrip() {
        let store = temp_store("roundtrip");
        store.publish(&snapshot(1, 5)).expect("publish");
        let loaded = store.load(1).expect("load");
        assert_eq!(loaded.generation, 1);
        assert_eq!(loaded.book, snapshot(1, 5).book);
        assert_eq!(loaded.trained.snippet_window(), 3);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn binary_publish_roundtrips_and_maps() {
        let store =
            temp_store("binround").with_leads_format(LeadsFormat::Binary { shards: 4 });
        let outcome = store.publish(&snapshot(1, 12)).expect("publish");
        // Full publish, nothing to link: index + 4 shards.
        assert_eq!(outcome.files_linked, 0);
        assert_eq!(outcome.files_written, 5);
        assert!(store.root().join("gen-1").join(INDEX_FILE).exists());

        let loaded = store.load(1).expect("load");
        assert!(loaded.book.is_mapped(), "binary load must map, not parse");
        assert_eq!(loaded.book, snapshot(1, 12).book);
        assert_eq!(loaded.trained.snippet_window(), 3);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn incremental_binary_publish_links_clean_shards() {
        let store =
            temp_store("binlink").with_leads_format(LeadsFormat::Binary { shards: 8 });
        store.publish(&snapshot(1, 40)).expect("publish 1");
        let incremental = store.publish(&extended_snapshot(2, 40, 6)).expect("publish 2");
        // Every base shard is reused; the six new events are one delta.
        assert_eq!(
            (incremental.files_linked, incremental.shards_written),
            (8, 1),
            "{incremental:?}"
        );

        // The same snapshot published cold (no previous generation to
        // link against) writes every byte — the incremental publish
        // must write strictly fewer.
        let cold_store =
            temp_store("binlink_cold").with_leads_format(LeadsFormat::Binary { shards: 8 });
        let full = cold_store.publish(&extended_snapshot(2, 40, 6)).expect("cold");
        assert_eq!(full.files_linked, 0);
        assert!(
            incremental.bytes_written < full.bytes_written,
            "incremental {} vs full {}",
            incremental.bytes_written,
            full.bytes_written
        );
        assert!(incremental.files_written < full.files_written);

        // And the linked generation still loads + matches.
        let loaded = store.load(2).expect("load 2");
        assert_eq!(loaded.book, extended_snapshot(2, 40, 6).book);
        let _ = std::fs::remove_dir_all(store.root());
        let _ = std::fs::remove_dir_all(cold_store.root());
    }

    #[test]
    fn linked_files_survive_pruning_the_source_generation() {
        let store =
            temp_store("linksurvive").with_leads_format(LeadsFormat::Binary { shards: 4 });
        store.publish(&snapshot(1, 20)).expect("publish 1");
        store.publish(&extended_snapshot(2, 20, 3)).expect("publish 2");
        // Deleting gen-1 must not corrupt gen-2's hard-linked files.
        let removed = store.prune(1).expect("prune");
        assert_eq!(removed, vec![1]);
        let loaded = store.load(2).expect("load after prune");
        assert_eq!(loaded.book, extended_snapshot(2, 20, 3).book);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn held_segment_is_reused_only_while_its_file_still_matches() {
        use std::os::unix::fs::MetadataExt;
        let store = temp_store("binheld").with_leads_format(LeadsFormat::Binary { shards: 4 });
        store.publish(&snapshot(1, 40)).expect("publish 1");
        let loaded = store.load(1).expect("load");
        let extra = extended_snapshot(2, 40, 3).book.events_owned()[40..].to_vec();
        let extend = |generation| LeadSnapshot {
            generation,
            book: loaded.book.extend(extra.clone()).into(),
            trained: Arc::clone(&loaded.trained),
        };

        // The extended book shares generation 1's mapped shards; the
        // publish reads them through it and links them all.
        let outcome = store.publish(&extend(2)).expect("publish 2");
        assert_eq!(
            (outcome.files_linked, outcome.shards_written),
            (4, 1),
            "{outcome:?}"
        );

        // Replace one of generation 2's shard files (a new inode, so the
        // mapping still holds the sealed bytes) with corrupt bytes: the
        // book's intact arena must not vouch for the file.
        let victim = store.root().join("gen-2").join(shard_file(1));
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        let tmp = victim.with_extension("tmp");
        std::fs::write(&tmp, &bytes).unwrap();
        std::fs::rename(&tmp, &victim).unwrap();
        let outcome = store.publish(&extend(3)).expect("publish 3");
        let ino = |g: u64, sid: usize| {
            let path = store.root().join(format!("gen-{g}")).join(shard_file(sid));
            std::fs::metadata(path).unwrap().ino()
        };
        assert_ne!(ino(2, 1), ino(3, 1), "{outcome:?}");
        assert_eq!(ino(2, 0), ino(3, 0));
        assert_eq!(store.load(3).expect("load 3").book, extend(3).book);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn shard_failing_its_checksum_is_never_linked() {
        use std::os::unix::fs::MetadataExt;
        let store =
            temp_store("binchecksum").with_leads_format(LeadsFormat::Binary { shards: 4 });
        store.publish(&snapshot(1, 40)).expect("publish 1");
        let victim = store.root().join("gen-1").join(shard_file(2));
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        std::fs::write(&victim, &bytes).unwrap();

        let next = extended_snapshot(2, 40, 3);
        let outcome = store.publish(&next).expect("publish 2");
        // Shards 0, 1 and 3 are linked; shard 2's slot is written empty
        // and its live records join the three new events in the delta.
        assert_eq!((outcome.files_linked, outcome.shards_written), (3, 2), "{outcome:?}");
        let ino = |g: u64, sid: usize| {
            let path = store.root().join(format!("gen-{g}")).join(shard_file(sid));
            std::fs::metadata(path).unwrap().ino()
        };
        assert_ne!(ino(1, 2), ino(2, 2));
        assert_eq!(ino(1, 0), ino(2, 0));
        let loaded = store.load(2).expect("the new generation loads cleanly");
        assert_eq!(loaded.book, next.book);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupt_linked_base_shard_fails_every_generation_that_links_it() {
        use std::os::unix::fs::MetadataExt;
        let store =
            temp_store("binshared").with_leads_format(LeadsFormat::Binary { shards: 4 });
        store.publish(&snapshot(1, 40)).expect("publish 1");
        store.publish(&extended_snapshot(2, 40, 3)).expect("publish 2");
        store.publish(&extended_snapshot(3, 40, 6)).expect("publish 3");
        let victim = |g: u64| store.root().join(format!("gen-{g}")).join(shard_file(2));
        let ino = |g: u64| std::fs::metadata(victim(g)).unwrap().ino();
        assert!(ino(1) == ino(2) && ino(2) == ino(3), "one inode, three generations");

        // An in-place flip through any one link corrupts all of them.
        let mut bytes = std::fs::read(victim(3)).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(victim(3), &bytes).unwrap();
        for g in 1..=3 {
            match store.load(g) {
                Err(StoreError::Invalid(msg)) => assert!(msg.contains("checksum"), "{msg}"),
                other => panic!("gen {g}: expected Invalid(checksum), got {other:?}"),
            }
        }
        assert!(store.load_latest().expect("scan").is_none(), "no binary fallback");

        // The next publish does not link the corrupt shard, so it loads.
        let next = extended_snapshot(4, 40, 6);
        store.publish(&next).expect("publish 4");
        assert_ne!(ino(3), ino(4));
        let (loaded, skipped) = store.load_latest().expect("scan").expect("gen 4");
        assert_eq!((loaded.generation, skipped.len()), (4, 0));
        assert_eq!(loaded.book, next.book);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn text_and_binary_generations_agree() {
        let store = temp_store("parity");
        store.publish(&snapshot(1, 9)).expect("text publish");
        let binary = GenerationStore::open(store.root())
            .expect("reopen")
            .with_leads_format(LeadsFormat::Binary { shards: 4 });
        // Same book content, re-published under the binary format.
        let mut republished = snapshot(1, 9);
        republished.generation = 2;
        binary.publish(&republished).expect("binary publish");

        let v1 = store.load(1).expect("load v1");
        let v2 = store.load(2).expect("load v2");
        assert!(!v1.book.is_mapped() && v2.book.is_mapped());
        // Byte-for-byte agreement once both are materialized.
        assert_eq!(
            etap::persist::events_to_string(&v1.book.events_owned()),
            etap::persist::events_to_string(&v2.book.events_owned()),
        );
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupt_binary_arena_fails_cleanly() {
        let store =
            temp_store("bincorrupt").with_leads_format(LeadsFormat::Binary { shards: 2 });
        store.publish(&snapshot(1, 10)).expect("publish");

        // Bit-flip inside a shard: manifest checksum catches it.
        let victim = store.root().join("gen-1").join(shard_file(0));
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        std::fs::write(&victim, &bytes).unwrap();
        match store.load(1) {
            Err(StoreError::Invalid(msg)) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("expected Invalid(checksum), got {other:?}"),
        }

        // Truncated index: size mismatch, typed error, no panic.
        store.publish(&snapshot(2, 10)).expect("publish 2");
        let index = store.root().join("gen-2").join(INDEX_FILE);
        let bytes = std::fs::read(&index).unwrap();
        std::fs::write(&index, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(store.load(2), Err(StoreError::Invalid(_))));

        // load_latest falls back past both corrupt generations.
        assert!(store.load_latest().expect("scan").is_none());
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn load_latest_skips_corrupt_generations() {
        let store = temp_store("fallback");
        store.publish(&snapshot(1, 3)).expect("publish 1");
        store.publish(&snapshot(2, 4)).expect("publish 2");
        store.publish(&snapshot(3, 5)).expect("publish 3");
        // Corrupt generation 3's event file (flip a byte, keep length).
        let victim = store.root().join("gen-3").join(EVENTS_FILE);
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&victim, bytes).unwrap();

        let (loaded, skipped) = store.load_latest().expect("scan").expect("some valid");
        assert_eq!(loaded.generation, 2);
        assert_eq!(skipped.len(), 1);
        assert_eq!(skipped[0].0, 3);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn truncated_manifest_invalidates_generation() {
        let store = temp_store("truncman");
        store.publish(&snapshot(1, 3)).expect("publish");
        let manifest = store.root().join("gen-1").join("MANIFEST");
        let text = std::fs::read_to_string(&manifest).unwrap();
        std::fs::write(&manifest, &text[..text.len() / 2]).unwrap();
        assert!(store.load(1).is_err());
        assert!(store.load_latest().expect("scan").is_none());
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn duplicate_manifest_entry_invalidates_generation() {
        let store = temp_store("dupentry");
        store.publish(&snapshot(1, 2)).expect("publish");
        let dir = store.root().join("gen-1");
        let events_path = dir.join(EVENTS_FILE);
        let contents = std::fs::read_to_string(&events_path).unwrap();
        let mut manifest = Writer::new(MANIFEST_KIND, MANIFEST_VERSION);
        manifest.record(["generation", "1"]);
        manifest.record(["window", "3"]);
        manifest.record(["events", "2"]);
        let sum = format!("{:016x}", etap_persist::fnv1a64(contents.as_bytes()));
        let size = contents.len().to_string();
        manifest.record(["file", EVENTS_FILE, &sum, &size]);
        manifest.record(["file", EVENTS_FILE, &sum, &size]);
        std::fs::write(dir.join("MANIFEST"), manifest.finish()).unwrap();
        match store.load(1) {
            Err(StoreError::Invalid(msg)) => assert!(msg.contains("twice"), "{msg}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn future_manifest_version_is_skipped_not_fatal() {
        let store = temp_store("future");
        store.publish(&snapshot(1, 2)).expect("publish 1");
        store.publish(&snapshot(2, 2)).expect("publish 2");
        // Rewrite gen-2's manifest with a future version header.
        let manifest = store.root().join("gen-2").join("MANIFEST");
        let w = Writer::new(MANIFEST_KIND, MANIFEST_VERSION + 1);
        std::fs::write(&manifest, w.finish()).unwrap();
        let (loaded, skipped) = store.load_latest().expect("scan").expect("some valid");
        assert_eq!(loaded.generation, 1);
        assert!(skipped[0].1.contains("newer"), "{}", skipped[0].1);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn prune_keeps_newest_and_sweeps_tmp() {
        let store = temp_store("prune");
        for g in 1..=5 {
            store.publish(&snapshot(g, 2)).expect("publish");
        }
        std::fs::create_dir_all(store.root().join("gen-9.tmp")).unwrap();
        let removed = store.prune(2).expect("prune");
        assert_eq!(removed, vec![1, 2, 3]);
        assert_eq!(store.generations().unwrap(), vec![4, 5]);
        assert!(!store.root().join("gen-9.tmp").exists());
        // keep == 0 never deletes the last generation.
        let removed = store.prune(0).expect("prune 0");
        assert_eq!(removed, vec![4]);
        assert_eq!(store.generations().unwrap(), vec![5]);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn publish_auto_prunes_with_retention() {
        let store = temp_store("autoprune").with_retention(2);
        for g in 1..=5 {
            store.publish(&snapshot(g, 2)).expect("publish");
        }
        assert_eq!(store.generations().unwrap(), vec![4, 5]);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn pinned_generation_survives_prune_and_retention() {
        let store = temp_store("pinprune").with_retention(2);
        store.publish(&snapshot(1, 2)).expect("publish 1");
        // The serving path pins what it has mapped.
        store.pin(1);
        for g in 2..=5 {
            store.publish(&snapshot(g, 2)).expect("publish");
        }
        // Retention kept gen-1 alive through four auto-prunes.
        assert_eq!(store.generations().unwrap(), vec![1, 4, 5]);
        assert!(store.load(1).is_ok(), "pinned generation must stay loadable");

        // An explicit prune skips it too…
        let removed = store.prune(1).expect("prune");
        assert_eq!(removed, vec![4]);
        assert_eq!(store.generations().unwrap(), vec![1, 5]);

        // …until the pin moves on, after which it is reclaimed.
        store.pin(5);
        let removed = store.prune(1).expect("prune after re-pin");
        assert_eq!(removed, vec![1]);
        assert_eq!(store.generations().unwrap(), vec![5]);
        store.unpin();
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn pin_survives_store_reopen_kill_prune_read_interleaving() {
        // Regression for the retention-prune race: a "server" holds
        // generation 1 mapped while a watch loop — which re-opens the
        // store on every attempt, as after a crash/restart — publishes
        // and aggressively prunes. The mapped generation must stay
        // readable throughout.
        let store = temp_store("pinrace").with_leads_format(LeadsFormat::Binary { shards: 2 });
        store.publish(&snapshot(1, 6)).expect("publish 1");
        let served = store.load(1).expect("server load");
        store.pin(served.generation);

        for g in 2..=6 {
            // Fresh store handle per cycle (the watch loop's re-open),
            // with retention 1: without the pin, gen-1 dies on the
            // first publish.
            let watch = GenerationStore::open(store.root())
                .expect("reopen")
                .with_retention(1)
                .with_leads_format(LeadsFormat::Binary { shards: 2 });
            watch.publish(&snapshot(g, 6)).expect("watch publish");
        }
        assert!(
            store.generations().unwrap().contains(&1),
            "pinned generation deleted by concurrent prune"
        );
        // The kill-prune-read interleaving: a cold reader (new process
        // after kill -9) can still load the pinned generation.
        let reread = GenerationStore::open(store.root()).expect("cold open");
        assert!(reread.load(1).is_ok());
        // Old snapshot still serves from its mapping.
        assert_eq!(served.book.top(3).len(), 3);

        store.unpin();
        let reopened = GenerationStore::open(store.root()).expect("reopen");
        reopened.prune(1).expect("final prune");
        assert_eq!(reopened.generations().unwrap(), vec![6]);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn interrupted_publish_is_invisible() {
        let store = temp_store("interrupted");
        store.publish(&snapshot(1, 2)).expect("publish 1");
        // Simulate a crash mid-publish: a .tmp dir with payload but no
        // completed rename.
        let tmp = store.root().join("gen-2.tmp");
        std::fs::create_dir_all(&tmp).unwrap();
        std::fs::write(tmp.join(EVENTS_FILE), "partial").unwrap();
        assert_eq!(store.generations().unwrap(), vec![1]);
        let (loaded, skipped) = store.load_latest().expect("scan").expect("valid");
        assert_eq!(loaded.generation, 1);
        assert!(skipped.is_empty());
        let _ = std::fs::remove_dir_all(store.root());
    }
}
