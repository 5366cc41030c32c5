//! The durable generation store: every published [`LeadSnapshot`]
//! persisted as an on-disk *generation*, so a restarted server
//! warm-starts from the newest valid one instead of re-crawling.
//!
//! ## Layout
//!
//! ```text
//! <root>/
//!   gen-3/                    text format (LEADS v1)
//!     MANIFEST                ETAP GEN-MANIFEST v3 (written last): each
//!                             file's size and checksum, and the served
//!                             prior of every adapted driver
//!     events.leads            ETAP LEADS v1 — the ranked event book
//!     model-000-<id>.model    ETAP MODEL v2 — one per driver, as
//!     model-001-<id>.model    trained, numbered to preserve driver
//!                             order; linked while unchanged
//!   gen-4/                    binary format (LEADS v2)
//!     MANIFEST
//!     book.index              ETAPBIN LEADS-IDX v5 — numbers only:
//!                             the global ranking as u32 record
//!                             numbers, per-driver and per-company
//!                             rankings as u32 rank positions, a u32
//!                             place per company name and name key
//!     shards/
//!       shard-00000.leads2    ETAPBIN LEADS v5 — event records and
//!       …                     the names and keys no earlier segment
//!       shard-00015.leads2    holds: the base shards of the last
//!       shard-00016.leads2    cold encode, then deltas, oldest first
//!     model-000-<id>.model
//!   gen-5/
//!     …
//! ```
//!
//! Binary publishes are **append-only** (see `etap::leads2`). Each
//! event's record is matched by content against the previous
//! generation's segment files. A segment whose records are all still in
//! the book is `hard_link`ed under the same name, and the unmatched
//! records go into one new delta segment, with the company names and
//! keys no linked segment holds; the index, numbers only, is rewritten. Links
//! survive pruning of the source directory: the inode lives until its
//! last link drops. A previous segment is reused only after its bytes
//! pass the size and FNV checksum its manifest recorded, so corruption
//! on disk never propagates into a new generation. Nor does a byte
//! changed in place under a served book's mapping, which the mapping
//! shows: a publish fails with `InvalidData` rather than re-seal it
//! (`MappedBook::check_mapped`, which also catches records an in-memory
//! extend copied out of such a segment). A previous segment
//! the published book already holds (a book extended in memory shares
//! the segments of the generation it extends) is compared with its file
//! through a small buffer and then used as the book opened it, rather
//! than mapped and opened a second time. With no previous binary
//! generation of the same shard count, or one whose [`Manifest`]
//! `load` rejects, the publish encodes cold.
//!
//! Model files are linked the same way, in both formats. A `MODEL` file
//! holds its driver as trained; a watch cycle's adapted class prior is
//! served from a `prior` record of the manifest instead, which `load`
//! applies bit for bit. A prior-only cycle therefore writes no model: a
//! model file whose bytes equal the previous generation's file of the
//! same name — its manifest size and checksum, then the file itself,
//! compared through a small buffer — is hard-linked. The index, the
//! `LEADS v1` event file and the manifest are always written.
//!
//! Linking has a cost: every retained generation that links a file
//! shares its inode (a base shard until the next cold re-encode, a
//! model until its driver is retrained). One corrupt linked file
//! therefore fails the checksum of every generation that links it, and
//! [`GenerationStore::load_latest`] may have no older generation to
//! fall back to. The next publish seals a valid one, since it never
//! links a file that fails its checks: it writes a fresh copy.
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
//!    checksum) last, fsync it; fsync `shards/` and the directory
//!    itself, so every entry is durable before the directory's name is;
//! 3. `rename` the directory to `gen-<n>`; fsync the store root.
//!
//! A failed fsync fails the publish like a failed write. A crash before
//! (3) leaves a `.tmp` directory that readers ignore
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
use etap::leads2::{self, MappedBook, SealedSegment, Segment};
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
/// every segment file; v3 adds the `prior` records of adapted drivers;
/// v1 and v2 manifests still load).
pub const MANIFEST_VERSION: u32 = 3;
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
    /// Payload files newly written (segments, index or event file,
    /// models).
    pub files_written: u64,
    /// Segment files among [`files_written`](Self::files_written): the
    /// new delta, or every base shard of a cold encode (always 0 for
    /// text-format publishes).
    pub shards_written: u64,
    /// Payload files hard-linked unchanged from the previous generation:
    /// reused segments, and models whose bytes equal the previous
    /// generation's file.
    pub files_linked: u64,
    /// Segment files among [`files_linked`](Self::files_linked).
    pub shards_linked: u64,
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

/// The generations [`GenerationStore::load_latest`] passed over, newest
/// first, each with the reason it failed to load.
pub type Skipped = Vec<(u64, String)>;

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
        self.root
            .canonicalize()
            .unwrap_or_else(|_| self.root.clone())
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

    /// Persist one snapshot as generation `snapshot.generation`,
    /// following the crash-safety protocol (tmp dir → fsync'd files →
    /// manifest last → fsync'd directories → rename → root fsync).
    /// Republishing an existing generation number removes the old
    /// directory and then renames the new one into place: a crash
    /// between the two leaves that generation absent, and
    /// [`load_latest`](Self::load_latest) serves the one before it. Binary-format
    /// publishes append to the previous generation: segments whose
    /// records are all still in the book are hard-linked, and only the
    /// new records are written (see `etap::leads2`). In either format, a
    /// model file byte-identical to the previous generation's is
    /// hard-linked too, so a cycle that only adapts class priors writes
    /// no model: the served priors go into the manifest.
    ///
    /// # Errors
    /// Propagates filesystem errors, a failed directory fsync included;
    /// the store is left without a partially visible generation in every
    /// failure case. Only a failed fsync of the store root, after the
    /// rename, leaves the complete generation visible.
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
                shards_linked: 0,
                bytes_written: 0,
            },
        };
        // A previous generation whose manifest `load` rejects is no link
        // source: every file is written.
        let base = self.link_source(generation);
        match self.leads_format {
            LeadsFormat::Text => {
                let events = snapshot.book.events_owned();
                let text = etap::persist::events_to_string(&events);
                payloads.write(EVENTS_FILE, text.as_bytes())?;
            }
            LeadsFormat::Binary { shards } => {
                let segments =
                    publish_segments(snapshot, shards.max(1), base.as_ref(), &mut payloads)?;
                manifest.record(["format", "binary"]);
                manifest.record(["shards", &segments.to_string()]);
            }
        }
        // Each model file holds the driver as trained; an adapted prior
        // is served from a `prior` record, so a prior-only cycle links
        // every model file.
        for (i, driver) in snapshot.trained.drivers().iter().enumerate() {
            let name = format!("model-{i:03}-{}.model", driver.spec.driver.id());
            let text = etap::persist::to_string(driver);
            payloads.write_or_link(&name, text.as_bytes(), base.as_ref())?;
            if driver.file_prior.is_some() {
                let [pos, neg] = driver.model.parts().1;
                manifest.record(["prior", &name, &pos.to_string(), &neg.to_string()]);
            }
        }
        for FileEntry { name, fnv, size } in &payloads.files {
            manifest.record(["file", name, &format!("{fnv:016x}"), &size.to_string()]);
        }

        write_synced(&tmp_dir.join("MANIFEST"), manifest.finish().as_bytes())?;
        // Every entry of the generation is durable before its name is.
        if matches!(self.leads_format, LeadsFormat::Binary { .. }) {
            etap_persist::sync_dir(&tmp_dir.join(SHARD_DIR))?;
        }
        etap_persist::sync_dir(&tmp_dir)?;
        if final_dir.exists() {
            std::fs::remove_dir_all(&final_dir)?;
        }
        std::fs::rename(&tmp_dir, &final_dir)?;
        etap_persist::sync_dir(&self.root)?;
        // Retention runs after the rename: the new generation is
        // already sealed, so a prune failure must not fail the publish.
        if let Some(keep) = self.retention {
            let _ = self.prune(keep);
        }
        Ok(payloads.outcome)
    }

    /// The newest generation other than `generation`, with its
    /// manifest, unless `load` would reject that manifest: where a
    /// publish links unchanged files from.
    fn link_source(&self, generation: u64) -> Option<(PathBuf, Manifest)> {
        let newest = self
            .generations()
            .ok()?
            .into_iter()
            .rfind(|&g| g != generation)?;
        let dir = self.gen_dir(newest);
        let manifest = Manifest::read(&dir, newest).ok()?;
        Some((dir, manifest))
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
    /// every payload file must itself decode. A driver with a manifest
    /// `prior` record serves that prior, bit for bit, over the one its
    /// model file holds. Both formats serve through
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
        let manifest = Manifest::read(&dir, generation)?;
        let map = |file: &FileEntry| -> Result<Arc<Arena>, StoreError> {
            let arena = open_arena(&dir.join(&file.name))?;
            file.check(arena.bytes())?;
            Ok(Arc::new(arena))
        };
        let read = |file: &FileEntry| -> Result<String, StoreError> {
            let bytes = std::fs::read(dir.join(&file.name))?;
            file.check(&bytes)?;
            String::from_utf8(bytes)
                .map_err(|_| StoreError::Invalid(format!("{}: not UTF-8", file.name)))
        };

        // Decode in manifest order: the driver order the snapshot was
        // published with, and the order a fresh process registers custom
        // drivers in (before a binary book's code table interns its own).
        let mut drivers = Vec::new();
        let mut text_book: Option<LeadBook> = None;
        for file in &manifest.files {
            if file.name.ends_with(".model") {
                let driver = etap::persist::from_str(&read(file)?).map_err(CodecError::Io)?;
                drivers.push(match manifest.prior(&file.name) {
                    Some(prior) => driver.with_served_prior(prior),
                    None => driver,
                });
            } else if file.name == manifest.book.name && !manifest.binary {
                text_book = Some(etap::persist::book_from_str(&read(file)?)?);
            }
        }
        let book: BookHandle = match text_book {
            Some(book) => book.into(),
            None => {
                let shards = manifest
                    .segments
                    .iter()
                    .map(map)
                    .collect::<Result<_, _>>()?;
                MappedBook::open(map(&manifest.book)?, shards)?.into()
            }
        };
        if book.len() != manifest.events {
            return Err(StoreError::Invalid(format!(
                "manifest says {} events, book has {}",
                manifest.events,
                book.len()
            )));
        }

        Ok(LeadSnapshot {
            generation,
            book,
            trained: Arc::new(TrainedEtap::from_drivers(drivers, manifest.window)),
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
    pub fn load_latest(&self) -> io::Result<Option<(LeadSnapshot, Skipped)>> {
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
            if name
                .to_str()
                .is_some_and(|s| s.starts_with("gen-") && s.ends_with(".tmp"))
            {
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
                etap_persist::sync_dir(&self.root)?;
            }
        }
        Ok(removed)
    }
}

/// One payload file as a manifest lists it: its path in the generation
/// directory, the FNV-1a 64 of its bytes, and their count.
#[derive(Debug, Clone)]
struct FileEntry {
    name: String,
    fnv: u64,
    size: usize,
}

impl FileEntry {
    /// Whether `bytes` are this file: the size, then the checksum.
    fn check(&self, bytes: &[u8]) -> Result<(), StoreError> {
        let (name, size) = (&self.name, self.size);
        if bytes.len() != size {
            return Err(StoreError::Invalid(format!(
                "{name}: manifest says {size} bytes, file has {}",
                bytes.len()
            )));
        }
        let computed = etap_persist::fnv1a64(bytes);
        if computed != self.fnv {
            return Err(StoreError::Invalid(format!(
                "{name}: checksum mismatch ({:016x} vs {computed:016x})",
                self.fnv
            )));
        }
        Ok(())
    }
}

/// A generation's `MANIFEST`, as [`GenerationStore::load`] and a
/// publish's linking both read it: every record known, every file listed
/// once and recognized for the format, every `prior` finite and naming a
/// listed model once, the generation the directory's, and a binary
/// generation's segments exactly `0..shards`.
#[derive(Debug)]
pub struct Manifest {
    window: usize,
    events: usize,
    binary: bool,
    /// In manifest order.
    files: Vec<FileEntry>,
    /// `book.index` or `events.leads`.
    book: FileEntry,
    /// The segment files by id (binary generations).
    segments: Vec<FileEntry>,
    /// The served `[log P(positive), log P(negative)]` of each model file
    /// whose driver adapted its class prior (v3).
    priors: Vec<(String, [f64; 2])>,
}

impl Manifest {
    fn read(dir: &Path, generation: u64) -> Result<Self, StoreError> {
        let text = std::fs::read_to_string(dir.join("MANIFEST")).map_err(CodecError::Io)?;
        Self::parse(&text, generation)
    }

    /// Parse the sealed `MANIFEST` text of generation `generation`.
    ///
    /// # Errors
    /// [`StoreError::Codec`] when the text fails the codec,
    /// [`StoreError::Invalid`] when a rule above fails.
    pub fn parse(text: &str, generation: u64) -> Result<Self, StoreError> {
        let (_, records) = etap_persist::parse(text, MANIFEST_KIND, MANIFEST_VERSION)?;
        let invalid = |msg: String| Err(StoreError::Invalid(msg));
        let (mut stated_generation, mut window, mut events) = (None::<u64>, None, None);
        let (mut format, mut shards): (Option<&str>, Option<u32>) = (None, None);
        let mut files: Vec<FileEntry> = Vec::new();
        let mut priors: Vec<(String, [f64; 2])> = Vec::new();
        for rec in &records {
            match rec.tag() {
                "generation" => stated_generation = Some(rec.parse(1)?),
                "window" => window = Some(rec.parse(1)?),
                "events" => events = Some(rec.parse(1)?),
                "format" => format = Some(rec.str(1)?),
                "shards" => shards = Some(rec.parse(1)?),
                "file" => {
                    let name = rec.str(1)?;
                    if files.iter().any(|f| f.name == name) {
                        return invalid(format!("manifest lists {name:?} twice"));
                    }
                    let fnv = u64::from_str_radix(rec.str(2)?, 16)
                        .map_err(|_| rec.malformed("bad checksum field"))?;
                    let (name, size) = (name.to_string(), rec.parse(3)?);
                    files.push(FileEntry { name, fnv, size });
                }
                "prior" => {
                    let name = rec.str(1)?;
                    let prior: [f64; 2] = [rec.parse(2)?, rec.parse(3)?];
                    if priors.iter().any(|(n, _)| n == name) {
                        return invalid(format!("manifest has two priors for {name:?}"));
                    }
                    if !prior.iter().all(|p| p.is_finite()) {
                        return invalid(format!("prior of {name:?} is not finite"));
                    }
                    priors.push((name.to_string(), prior));
                }
                other => return invalid(format!("unknown manifest record `{other}`")),
            }
        }
        let missing = |what: &str| StoreError::Invalid(format!("manifest missing {what} record"));
        let stated_generation = stated_generation.ok_or_else(|| missing("generation"))?;
        if stated_generation != generation {
            return invalid(format!(
                "directory gen-{generation} holds manifest for generation {stated_generation}"
            ));
        }
        let window = window.ok_or_else(|| missing("window"))?;
        let events = events.ok_or_else(|| missing("events"))?;
        let binary = match format {
            None | Some("text") => false,
            Some("binary") => true,
            Some(other) => return invalid(format!("unknown leads format {other:?}")),
        };

        let book_file = if binary { INDEX_FILE } else { EVENTS_FILE };
        let mut book = None;
        let mut segments: Vec<(u32, usize)> = Vec::new();
        for (i, f) in files.iter().enumerate() {
            match shard_id(&f.name) {
                Some(sid) if binary => segments.push((sid, i)),
                _ if f.name == book_file => book = Some(i),
                _ if f.name.ends_with(".model") => {}
                _ => return invalid(format!("manifest lists unrecognized file {:?}", f.name)),
            }
        }
        let book = book.ok_or_else(|| missing(&format!("{book_file} file")))?;
        let listed = |name: &str| name.ends_with(".model") && files.iter().any(|f| f.name == name);
        if let Some((name, _)) = priors.iter().find(|(name, _)| !listed(name)) {
            return invalid(format!(
                "manifest has a prior for {name:?}, no listed model"
            ));
        }
        if binary {
            let n = shards.ok_or_else(|| missing("shards"))?.max(1) as usize;
            segments.sort_unstable();
            if segments.len() != n || segments.iter().zip(0..).any(|(&(sid, _), i)| sid != i) {
                return invalid(format!(
                    "manifest lists {} segment files, expected segments 0..{n}",
                    segments.len()
                ));
            }
        }
        Ok(Self {
            window,
            events,
            binary,
            book: files[book].clone(),
            segments: segments.iter().map(|&(_, i)| files[i].clone()).collect(),
            files,
            priors,
        })
    }

    /// The served prior of the model file `name`, when its driver
    /// adapted one.
    fn prior(&self, name: &str) -> Option<[f64; 2]> {
        self.priors.iter().find(|(n, _)| n == name).map(|&(_, p)| p)
    }
}

/// Write the `LEADS v2` index and segments of `snapshot`, appending to
/// the previous generation `base` when its layout allows, else encoding
/// cold. Returns the segment count.
fn publish_segments(
    snapshot: &LeadSnapshot,
    n_base: u32,
    base: Option<&(PathBuf, Manifest)>,
    payloads: &mut Payloads,
) -> io::Result<usize> {
    let book = &snapshot.book;
    let prev = base
        .map(|(dir, manifest)| verified_segments(dir, manifest, book, n_base as usize))
        .unwrap_or_default();
    // A mapping shows its file as it is now: before records are copied
    // out of a mapped segment, its bytes must still be the sealed ones.
    // A segment reused as the book's own arena has just passed its
    // manifest checksum.
    let held: Vec<&Arc<Arena>> = book.segments().collect();
    book.check_mapped(|sid| {
        prev.get(sid)
            .and_then(Option::as_ref)
            .is_some_and(|seg| std::ptr::eq(seg.bytes(), held[sid].bytes()))
    })
    .map_err(|(sid, e)| {
        let what = format!("{} mapped by the served book: {e}", shard_file(sid));
        io::Error::new(io::ErrorKind::InvalidData, what)
    })?;
    let encoded = leads2::encode_append(book, n_base, &prev)
        .unwrap_or_else(|| leads2::encode_book(book, n_base));

    std::fs::create_dir_all(payloads.dir.join(SHARD_DIR))?;
    payloads.write(INDEX_FILE, &encoded.index)?;
    let (written, linked) = (
        payloads.outcome.files_written,
        payloads.outcome.files_linked,
    );
    for (sid, segment) in encoded.segments.iter().enumerate() {
        let name = shard_file(sid);
        match (segment, base, prev.get(sid)) {
            (Segment::Written(bytes), _, _) => payloads.write(&name, bytes)?,
            (Segment::Linked, Some((dir, manifest)), Some(Some(reused))) => {
                payloads.link(dir, &manifest.segments[sid], reused.bytes())?;
            }
            (Segment::Linked, _, _) => unreachable!("only verified segments are reused"),
        }
    }
    payloads.outcome.shards_written = payloads.outcome.files_written - written;
    payloads.outcome.shards_linked = payloads.outcome.files_linked - linked;
    Ok(encoded.segments.len())
}

/// The previous generation's segments in id order, opened for an
/// `n_base`-shard layout, each only when its bytes match the size and
/// checksum its manifest recorded: a segment that fails them is never
/// reused.
///
/// A book extended in memory holds the previous generation's segments
/// as its own (see `MappedBook::extend`). A file whose bytes equal the
/// book's segment with the same id is used as the book opened it, after
/// a buffered comparison, instead of being mapped a second time — a
/// second mapping would count every page of it twice in the resident
/// set. Any other file is mapped and opened. One read buffer serves
/// every comparison of the publish.
fn verified_segments(
    dir: &Path,
    manifest: &Manifest,
    book: &MappedBook,
    n_base: usize,
) -> Vec<Option<SealedSegment>> {
    let held: Vec<&Arc<Arena>> = book.segments().collect();
    let mut buf = vec![0; 1 << 16];
    manifest
        .segments
        .iter()
        .enumerate()
        .map(|(sid, file)| {
            let path = dir.join(&file.name);
            let verified = |a: &Arena| file.check(a.bytes()).is_ok();
            match held.get(sid) {
                Some(arena) if verified(arena) && file_equals(&path, arena.bytes(), &mut buf) => {
                    book.segment(sid, n_base)
                }
                _ => {
                    let arena = open_arena(&path).ok().filter(|a| verified(a))?;
                    SealedSegment::open(Arc::new(arena), sid, n_base).ok()
                }
            }
        })
        .collect()
}

/// Whether the file at `path` holds exactly `bytes`, read through the
/// caller's buffer.
fn file_equals(path: &Path, bytes: &[u8], buf: &mut [u8]) -> bool {
    use std::io::Read as _;
    let Ok(mut file) = std::fs::File::open(path) else {
        return false;
    };
    let mut at = 0;
    loop {
        match file.read(buf) {
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
    /// In publish order.
    files: Vec<FileEntry>,
    outcome: PublishOutcome,
}

impl Payloads {
    fn write(&mut self, name: &str, contents: &[u8]) -> io::Result<()> {
        write_synced(&self.dir.join(name), contents)?;
        self.outcome.files_written += 1;
        self.outcome.bytes_written += contents.len() as u64;
        self.files.push(FileEntry {
            name: name.to_string(),
            fnv: etap_persist::fnv1a64(contents),
            size: contents.len(),
        });
        Ok(())
    }

    /// Write `contents` as `name`, or link the file of that name from the
    /// previous generation `base` when it holds exactly these bytes: its
    /// manifest entry's size and checksum, then the file itself through
    /// a small buffer, so a corrupt file is never linked.
    fn write_or_link(
        &mut self,
        name: &str,
        contents: &[u8],
        base: Option<&(PathBuf, Manifest)>,
    ) -> io::Result<()> {
        let same = base.and_then(|(dir, manifest)| {
            let file = manifest.files.iter().find(|f| f.name == name)?;
            let path = dir.join(name);
            (file.check(contents).is_ok() && file_equals(&path, contents, &mut [0; 1 << 13]))
                .then_some((dir, file))
        });
        match same {
            Some((dir, file)) => self.link(dir, file, contents),
            None => self.write(name, contents),
        }
    }

    /// Reuse `file` of the previous generation in `from`, verified to
    /// hold `contents`: hard-link it (the inode outlives pruning of its
    /// source directory), or write a copy where links fail.
    fn link(&mut self, from: &Path, file: &FileEntry, contents: &[u8]) -> io::Result<()> {
        if std::fs::hard_link(from.join(&file.name), self.dir.join(&file.name)).is_err() {
            return self.write(&file.name, contents);
        }
        self.outcome.files_linked += 1;
        self.files.push(file.clone());
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
    use etap::{LeadBook, SalesDriver, TrainedDriver, TriggerEvent};
    use std::os::unix::fs::MetadataExt;

    fn temp_store(tag: &str) -> GenerationStore {
        let root = std::env::temp_dir().join(format!("etap_store_{tag}_{}", std::process::id()));
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

    /// A built-in driver decoded from a small hand-made `MODEL` file,
    /// its likelihoods moved by `shift`.
    fn model_driver(key: &str, shift: f64) -> TrainedDriver {
        let mut w = Writer::new(etap::persist::MODEL_KIND, 2);
        w.record(["driver", key]);
        w.record(["prior", "-1.2", "-0.35"]);
        w.record(["unseen", "-9", "-8"]);
        w.record(["features", "2"]);
        w.record(["acquire", &(-1.5 + shift).to_string(), "-2.5"]);
        w.record(["merger", "-1.25", &(-3.0 - shift).to_string()]);
        etap::persist::from_str(&w.finish()).expect("model")
    }

    fn two_drivers(shift: f64) -> Arc<TrainedEtap> {
        let drivers = ["mergers_acquisitions", "revenue_growth"].map(|k| model_driver(k, shift));
        Arc::new(TrainedEtap::from_drivers(drivers.to_vec(), 3))
    }

    /// Each driver's served `log P(class)`, as bits.
    fn prior_bits(trained: &TrainedEtap) -> Vec<[u64; 2]> {
        let bits = |d: &TrainedDriver| d.model.parts().1.map(f64::to_bits);
        trained.drivers().iter().map(bits).collect()
    }

    /// The inodes of a generation's model files, in driver order.
    fn model_inodes(store: &GenerationStore, generation: u64) -> Vec<u64> {
        let dir = store.gen_dir(generation);
        let mut models: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "model"))
            .collect();
        models.sort();
        models
            .iter()
            .map(|p| std::fs::metadata(p).unwrap().ino())
            .collect()
    }

    #[test]
    fn prior_only_cycles_link_every_model_file() {
        let formats = [
            ("priortext", LeadsFormat::Text, 1),
            ("priorbin", LeadsFormat::Binary { shards: 4 }, 2),
        ];
        for (tag, format, written) in formats {
            let store = temp_store(tag).with_leads_format(format);
            let first = LeadSnapshot {
                trained: two_drivers(0.0),
                ..snapshot(1, 40)
            };
            store.publish(&first).expect("publish 1");

            // A watch cycle: fresh events, adapted class priors. Only
            // the book's files are written (text: the event file;
            // binary: the index and one delta).
            let cycle = |served: &LeadSnapshot, generation, extra, rates: &[f64]| LeadSnapshot {
                trained: Arc::new(served.trained.with_adapted_priors(rates, 0.1)),
                ..extended_snapshot(generation, 40, extra)
            };
            let second = cycle(&first, 2, 6, &[0.3, 0.05]);
            let outcome = store.publish(&second).expect("publish 2");
            let models_linked = |o: &PublishOutcome| o.files_linked - o.shards_linked;
            assert_eq!(
                (outcome.files_written, models_linked(&outcome)),
                (written, 2),
                "{tag}: {outcome:?}"
            );
            assert_eq!(model_inodes(&store, 1), model_inodes(&store, 2));
            let loaded = store.load(2).expect("load 2");
            assert_eq!(prior_bits(&loaded.trained), prior_bits(&second.trained));
            assert_ne!(prior_bits(&loaded.trained), prior_bits(&first.trained));

            // A restarted daemon continues from the generation it loads:
            // its next cycle links the same model inodes.
            let restarted = GenerationStore::open(store.root())
                .expect("reopen")
                .with_leads_format(format);
            let (served, skipped) = restarted.load_latest().expect("scan").expect("gen 2");
            assert_eq!((served.generation, skipped.len()), (2, 0));
            let third = cycle(&served, 3, 9, &[0.2, 0.1]);
            let outcome = restarted.publish(&third).expect("publish 3");
            assert_eq!(
                (outcome.files_written, models_linked(&outcome)),
                (written, 2),
                "{tag}: {outcome:?}"
            );
            assert_eq!(model_inodes(&store, 1), model_inodes(&store, 3));
            let loaded = restarted.load(3).expect("load 3");
            assert_eq!(prior_bits(&loaded.trained), prior_bits(&third.trained));

            // A retrain that moves the likelihoods writes fresh models.
            let retrained = LeadSnapshot {
                trained: two_drivers(0.25),
                ..extended_snapshot(4, 40, 9)
            };
            let outcome = restarted.publish(&retrained).expect("publish 4");
            assert_eq!(models_linked(&outcome), 0, "{tag}: {outcome:?}");
            assert_eq!(outcome.files_written - outcome.shards_written, 3);
            let (old, new) = (model_inodes(&store, 3), model_inodes(&store, 4));
            assert!(old.iter().all(|ino| !new.contains(ino)), "{tag}");
            let loaded = restarted.load(4).expect("load 4");
            assert_eq!(prior_bits(&loaded.trained), prior_bits(&retrained.trained));
            let _ = std::fs::remove_dir_all(store.root());
        }
    }

    #[test]
    fn generation_with_the_adapted_prior_in_its_model_file_still_loads() {
        // A manifest v2 store wrote the adapted prior into the MODEL file
        // and had no `prior` records.
        let store = temp_store("v2prior");
        let adapted = two_drivers(0.0).with_adapted_priors(&[0.3, 0.05], 0.1);
        let mut in_file = adapted.drivers().to_vec();
        for driver in &mut in_file {
            driver.file_prior = None;
        }
        let sealed = LeadSnapshot {
            trained: Arc::new(TrainedEtap::from_drivers(in_file, 3)),
            ..snapshot(1, 5)
        };
        store.publish(&sealed).expect("publish 1");
        let path = store.root().join("gen-1").join("MANIFEST");
        let text = std::fs::read_to_string(&path).unwrap();
        let mut v2 = Writer::new(MANIFEST_KIND, 2);
        for line in text.lines().skip(1).filter(|l| !l.starts_with("#sum")) {
            assert!(!line.starts_with("prior"), "{line}");
            v2.record(line.split('\t'));
        }
        std::fs::write(&path, v2.finish()).unwrap();

        let loaded = store.load(1).expect("a v2 generation loads");
        assert_eq!(prior_bits(&loaded.trained), prior_bits(&adapted));
        // The next cycle keeps that file as it is, and links it.
        let next = LeadSnapshot {
            trained: Arc::new(loaded.trained.with_adapted_priors(&[0.2, 0.1], 0.1)),
            ..snapshot(2, 5)
        };
        let outcome = store.publish(&next).expect("publish 2");
        assert_eq!(outcome.files_linked, 2, "{outcome:?}");
        assert_eq!(model_inodes(&store, 1), model_inodes(&store, 2));
        let loaded = store.load(2).expect("load 2");
        assert_eq!(prior_bits(&loaded.trained), prior_bits(&next.trained));
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupt_linked_model_fails_every_generation_that_links_it() {
        let store = temp_store("modelshared");
        for g in 1..=3 {
            let snap = LeadSnapshot {
                trained: two_drivers(0.0),
                ..snapshot(g, 4)
            };
            store.publish(&snap).expect("publish");
        }
        assert_eq!(model_inodes(&store, 1), model_inodes(&store, 3));
        let victim = store
            .root()
            .join("gen-2")
            .join("model-001-revenue_growth.model");
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x02;
        std::fs::write(&victim, &bytes).unwrap();
        for g in 1..=3 {
            match store.load(g) {
                Err(StoreError::Invalid(msg)) => assert!(msg.contains("checksum"), "{msg}"),
                other => panic!("gen {g}: expected Invalid(checksum), got {other:?}"),
            }
        }

        // The next publish links the intact model and writes the other.
        let next = LeadSnapshot {
            trained: two_drivers(0.0),
            ..snapshot(4, 4)
        };
        let outcome = store.publish(&next).expect("publish 4");
        assert_eq!((outcome.files_linked, outcome.files_written), (1, 2));
        let (old, new) = (model_inodes(&store, 3), model_inodes(&store, 4));
        assert_eq!((old[0] == new[0], old[1] == new[1]), (true, false));
        let (loaded, skipped) = store.load_latest().expect("scan").expect("gen 4");
        assert_eq!((loaded.generation, skipped.len()), (4, 0));
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn manifest_priors_are_finite_unique_and_name_a_listed_model() {
        let model = "model-000-revenue_growth.model";
        let manifest = |priors: &[[&str; 4]]| {
            let mut w = Writer::new(MANIFEST_KIND, MANIFEST_VERSION);
            w.record(["generation", "1"]);
            w.record(["window", "3"]);
            w.record(["events", "2"]);
            w.record(["file", EVENTS_FILE, "00000000000000aa", "10"]);
            w.record(["file", model, "00000000000000bb", "20"]);
            for prior in priors {
                w.record(*prior);
            }
            Manifest::parse(&w.finish(), 1)
        };
        let good = ["prior", model, "-1.2", "-0.35"];
        let parsed = manifest(&[good]).expect("a valid prior");
        assert_eq!(parsed.prior(model), Some([-1.2, -0.35]));
        let cases = [
            (vec![good, good], "two priors"),
            (
                vec![["prior", "model-001-x.model", "-1", "-1"]],
                "no listed model",
            ),
            (vec![["prior", EVENTS_FILE, "-1", "-1"]], "no listed model"),
            (vec![["prior", model, "NaN", "-1"]], "not finite"),
            (vec![["prior", model, "-1", "-inf"]], "not finite"),
        ];
        for (priors, why) in cases {
            match manifest(&priors) {
                Err(StoreError::Invalid(msg)) => assert!(msg.contains(why), "{msg}"),
                other => panic!("{priors:?}: expected Invalid({why}), got {other:?}"),
            }
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
    fn generation_of_an_older_layout_is_skipped_and_the_next_publish_encodes_cold() {
        let store = temp_store("oldlayout").with_leads_format(LeadsFormat::Binary { shards: 4 });
        store.publish(&snapshot(1, 40)).expect("publish 1");
        // Re-seal every container of generation 1 at version 4, the
        // layout before string sections, and restate the manifest.
        let dir = store.gen_dir(1);
        let path = dir.join("MANIFEST");
        let text = std::fs::read_to_string(&path).unwrap();
        let mut manifest = Writer::new(MANIFEST_KIND, MANIFEST_VERSION);
        for line in text.lines().skip(1).filter(|l| !l.starts_with("#sum")) {
            let fields: Vec<&str> = line.split('\t').collect();
            if fields[0] != "file" || fields[1].ends_with(".model") {
                manifest.record(fields);
                continue;
            }
            let bytes = std::fs::read(dir.join(fields[1])).unwrap();
            let kind =
                [leads2::SHARD_KIND, leads2::INDEX_KIND][usize::from(fields[1] == INDEX_FILE)];
            let view = etap_persist::bin_open(&bytes, kind, leads2::LEADS2_VERSION, true).unwrap();
            let mut w = etap_persist::BinWriter::new(kind, 4);
            for i in 0..view.section_count() {
                w.section(view.section(i).unwrap().to_vec());
            }
            let old = w.finish();
            std::fs::write(dir.join(fields[1]), &old).unwrap();
            let fnv = format!("{:016x}", etap_persist::fnv1a64(&old));
            manifest.record(["file", fields[1], &fnv, &old.len().to_string()]);
        }
        std::fs::write(&path, manifest.finish()).unwrap();

        let (latest, skipped) = (store.load_latest().expect("scan"), store.load(1));
        assert!(latest.is_none(), "no generation of this layout");
        let err = skipped
            .map(drop)
            .expect_err("generation 1 is skipped")
            .to_string();
        assert!(err.contains("container version 4"), "{err}");

        // The same book again: a reusable layout would link every
        // segment, but no old one is reused, so the publish encodes cold.
        let again = LeadSnapshot {
            generation: 2,
            ..snapshot(1, 40)
        };
        let outcome = store.publish(&again).expect("publish 2");
        assert_eq!(
            (outcome.shards_linked, outcome.shards_written),
            (0, 4),
            "{outcome:?}"
        );
        assert_eq!(store.load(2).expect("load 2").book, again.book);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn binary_publish_roundtrips_and_maps() {
        let store = temp_store("binround").with_leads_format(LeadsFormat::Binary { shards: 4 });
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
        let store = temp_store("binlink").with_leads_format(LeadsFormat::Binary { shards: 8 });
        store.publish(&snapshot(1, 40)).expect("publish 1");
        let incremental = store
            .publish(&extended_snapshot(2, 40, 6))
            .expect("publish 2");
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
        let full = cold_store
            .publish(&extended_snapshot(2, 40, 6))
            .expect("cold");
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
        let store = temp_store("linksurvive").with_leads_format(LeadsFormat::Binary { shards: 4 });
        store.publish(&snapshot(1, 20)).expect("publish 1");
        store
            .publish(&extended_snapshot(2, 20, 3))
            .expect("publish 2");
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
    fn corruption_in_a_mapped_segment_fails_the_publish() {
        use std::os::unix::fs::FileExt;
        let store = temp_store("binmapflip").with_leads_format(LeadsFormat::Binary { shards: 4 });
        store.publish(&snapshot(1, 40)).expect("publish 1");
        let (loaded, _) = store.load_latest().expect("scan").expect("generation 1");
        assert!(loaded.book.is_mapped(), "binary load must map, not parse");
        let extra = extended_snapshot(2, 40, 3).book.events_owned()[40..].to_vec();
        let extend = || LeadSnapshot {
            generation: 2,
            book: loaded.book.extend(extra.clone()).into(),
            trained: Arc::clone(&loaded.trained),
        };

        // Flip one bit of a shard file in place: the book maps it, so
        // its pages show the flip.
        let victim = store.root().join("gen-1").join(shard_file(1));
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&victim)
            .unwrap();
        let flip = |at: u64| {
            let mut byte = [0];
            file.read_exact_at(&mut byte, at).unwrap();
            file.write_all_at(&[byte[0] ^ 0x04], at).unwrap();
        };
        let bytes = std::fs::read(&victim).unwrap();
        let view = etap_persist::bin_open(&bytes, leads2::SHARD_KIND, leads2::LEADS2_VERSION, true)
            .expect("base shard");
        let records = view.section_range(3).expect("records").0;
        let (strings, len) = view.section_range(2).expect("strings");
        assert!(len > 0, "shard 1 holds strings");
        // The first record's driver code: the record no longer decodes,
        // so the extend copies the shard's other records into its delta.
        // The last byte of the last company name: the record decodes, so
        // the extend keeps the shard and the publish would copy from it.
        // The last byte of the shard's last string: the extend keeps the
        // shard and seals the string, which the book still names, anew.
        let cases = [
            (records, false),
            (bytes.len() - 1, true),
            (strings + len - 1, true),
        ];
        for (at, kept) in cases {
            flip(at as u64);
            let next = extend();
            let shard = |book: &BookHandle| Arc::clone(book.segments().nth(1).unwrap());
            assert_eq!(Arc::ptr_eq(&shard(&loaded.book), &shard(&next.book)), kept);
            let err = store.publish(&next).expect_err("a corrupt mapped segment");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(&shard_file(1)), "{err}");
            assert_eq!(store.generations().unwrap(), vec![1]);
            assert!(!store.root().join("gen-2").exists(), "no gen-2 sealed");
            flip(at as u64);
        }

        // Nothing newer shadows generation 1: with the bit restored it
        // is the newest valid generation, and the publish goes through.
        let (latest, skipped) = store.load_latest().expect("scan").expect("generation 1");
        assert_eq!((latest.generation, skipped.len()), (1, 0));
        store.publish(&extend()).expect("publish 2");
        assert_eq!(store.load(2).expect("load 2").book, extend().book);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn shard_failing_its_checksum_is_never_linked() {
        use std::os::unix::fs::MetadataExt;
        let store = temp_store("binchecksum").with_leads_format(LeadsFormat::Binary { shards: 4 });
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
        assert_eq!(
            (outcome.files_linked, outcome.shards_written),
            (3, 2),
            "{outcome:?}"
        );
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
        let store = temp_store("binshared").with_leads_format(LeadsFormat::Binary { shards: 4 });
        store.publish(&snapshot(1, 40)).expect("publish 1");
        store
            .publish(&extended_snapshot(2, 40, 3))
            .expect("publish 2");
        store
            .publish(&extended_snapshot(3, 40, 6))
            .expect("publish 3");
        let victim = |g: u64| store.root().join(format!("gen-{g}")).join(shard_file(2));
        let ino = |g: u64| std::fs::metadata(victim(g)).unwrap().ino();
        assert!(
            ino(1) == ino(2) && ino(2) == ino(3),
            "one inode, three generations"
        );

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
        assert!(
            store.load_latest().expect("scan").is_none(),
            "no binary fallback"
        );

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
        let store = temp_store("bincorrupt").with_leads_format(LeadsFormat::Binary { shards: 2 });
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
        assert!(
            store.load(1).is_ok(),
            "pinned generation must stay loadable"
        );

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
