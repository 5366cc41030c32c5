//! `LEADS v2`: the segmented, memory-mappable binary lead book.
//!
//! The text codec (`etap::persist`, `LEADS` v1) parses every event into
//! owned heap structures at load time — O(parse) warm start and a
//! private copy per replica. This module is the scale path:
//!
//! * A book is a list of **segments** — sealed `ETAPBIN` containers of
//!   length-prefixed event records plus an offset table — and one
//!   **index** holding every ranking (global, per-driver, per-company)
//!   as `(segment, idx)` references.
//! * [`encode_book`] is the **cold** encode: it splits a [`MappedBook`]
//!   into `n` **base shards** keyed by each event's primary company
//!   (driver id for company-less events).
//! * [`encode_append`] is the **append** encode: it re-encodes a book on
//!   top of the previous generation's segments ([`SealedSegment`]). Every
//!   record already sealed there keeps its place; only unmatched
//!   records are written, into one new **delta** segment.
//! * [`SealedSegment::open`] is the one parser of a segment container;
//!   a book and an append both read the segments it opened, so no
//!   segment is parsed twice.
//! * Both encoders copy each record's sealed bytes and re-emit the
//!   index with its directories (driver table, company table, name
//!   keys, driver-code table) copied verbatim; only the segment counts
//!   and the three ref blobs are rewritten. No publish re-encodes an
//!   event, and driver codes always travel with their own book's code
//!   table.
//! * [`MappedBook`] opens those containers over [`Arena`]s and serves
//!   them **zero-copy**: string fields stay offset+len views into the
//!   arena until response-write time. It reads `(segment, idx)` refs
//!   whatever the layout.
//! * [`BookHandle`] is the one served book: a shared [`MappedBook`].
//!   `From<LeadBook>` seals a freshly built book into heap arenas — one
//!   segment in rank order plus the index — so built, extended,
//!   text-loaded and mmap-loaded books all answer through the same
//!   code, with [`EventView`] the one event type.
//! * [`MappedBook::extend`] is the in-memory append: it encodes only
//!   the new events, merges them into the book's ranking in place,
//!   recomputes the directories and lays the result out by the same
//!   rules as [`encode_append`] against the book's own segments. The
//!   extended book shares every reused segment (mapped or heap) and
//!   seals only its delta, so a watch cycle costs in proportion to its
//!   poll. A mapped base with heap deltas is not
//!   [fully mapped](MappedBook::is_fully_mapped).
//!
//! ## Why append
//!
//! Company-hash sharding alone cannot make re-publishes cheap. A shard
//! re-encodes bit-identically only if none of its companies gained an
//! event, and a daily poll of a few hundred documents mentions
//! companies in every one of 16 buckets. Every shard was dirty on every
//! publish, so each watch cycle rewrote the whole book. Appending
//! decouples what is written from where new events hash: a publish
//! writes its new records, plus the occasional delta merge or cold
//! re-encode that keeps the file count bounded.
//!
//! ## Segment layout, merges and cold re-encodes
//!
//! Segments `0..n_base` are the base shards of the last cold encode;
//! segments `n_base..` are deltas, oldest first. Records are matched by
//! content, so a segment is reused only if *every* record in it is still
//! in the book (it is **fully live**):
//!
//! * a fully live base shard is reused as is; any other base shard's
//!   live records go to the new delta, and its slot holds an empty
//!   segment;
//! * the fully live prefix of the deltas is reused; the deltas after it
//!   are dropped and their live records go to the new delta;
//! * deltas merge only among themselves, like a binary counter: the new
//!   delta absorbs the newest older delta until that one holds at least
//!   twice its publishes and twice its records. Publish counts at least
//!   halve from one delta to the next, so `k` appends since the last cold
//!   encode leave at most `⌊log2 k⌋ + 1` deltas;
//! * once the deltas hold as many records as the reused base shards, the
//!   publish re-encodes cold instead, so records re-sort into fresh base
//!   shards and the layout never drifts far from a cold encode.
//!
//! A segment's meta section is `(segment id, n_base, records)` — the 16
//! bytes a cold shard has always carried — plus, on deltas only, the
//! number of publishes merged into it. Nothing in a segment depends on
//! the generation number, so the generation store can hard-link a reused
//! segment instead of rewriting it. A cold encode is byte-identical to
//! the pre-append format. Delta segments and an index that references
//! deltas are container version [`LEADS2_APPEND_VERSION`], so a build
//! that predates append publishes fails on them with a future-version
//! error, not a metadata mismatch; it cannot read a store once a delta
//! exists.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::Arc;

use etap_corpus::SalesDriver;
use etap_persist::{bin_open, fnv1a64, Arena, BinWriter, CodecError};

use crate::aliases::AliasResolver;
use crate::events::TriggerEvent;
use crate::leads::{self, LeadBook};
use crate::rank::{self, CompanyRanking, Mentions, RankKey};

/// `ETAPBIN` kind of one segment file (`shards/shard-NNNNN.leads2`).
pub const SHARD_KIND: &str = "LEADS";
/// `ETAPBIN` kind of the index file (`book.index`).
pub const INDEX_KIND: &str = "LEADS-IDX";
/// Format version of the cold containers: base shards, and an index
/// whose segments are all base shards.
pub const LEADS2_VERSION: u32 = 2;
/// Format version of the containers only an append layout has: delta
/// segments, and an index that references deltas. Builds that predate
/// append publishes reject them with a typed future-version error.
pub const LEADS2_APPEND_VERSION: u32 = 3;

/// Default shard count when the caller doesn't choose one.
pub const DEFAULT_SHARDS: u32 = 16;

/// On-disk driver code: registry index + 1 (0 is reserved). The three
/// built-ins therefore keep their historical codes 1, 2, 3; registered
/// drivers get 4+ and the index grows a trailing code→key section so a
/// fresh process (with a possibly different interning order) can map
/// codes back to [`DriverId`]s. Books holding only built-in drivers
/// emit no such section and stay byte-identical to the pre-registry
/// format.
fn driver_code(d: SalesDriver) -> u8 {
    (d.index() + 1) as u8
}

/// Builtin-only code lookup; custom codes resolve through [`CodeMap`].
fn driver_from_code(c: u8) -> Option<SalesDriver> {
    match c {
        1 => Some(SalesDriver::MergersAcquisitions),
        2 => Some(SalesDriver::ChangeInManagement),
        3 => Some(SalesDriver::RevenueGrowth),
        _ => None,
    }
}

/// Code→driver table decoded from the index's trailing section (empty
/// for builtin-only books).
#[derive(Debug, Default)]
struct CodeMap {
    custom: Vec<(u8, SalesDriver)>,
}

impl CodeMap {
    /// This process's codes for `drivers`: the table an index written
    /// for them carries.
    fn of(drivers: impl IntoIterator<Item = SalesDriver>) -> Self {
        Self {
            custom: drivers
                .into_iter()
                .filter(|d| !d.is_builtin())
                .map(|d| (driver_code(d), d))
                .collect(),
        }
    }

    fn resolve(&self, c: u8) -> Option<SalesDriver> {
        driver_from_code(c).or_else(|| {
            self.custom
                .iter()
                .find(|(code, _)| *code == c)
                .map(|(_, d)| *d)
        })
    }
}

/// The base shard an event belongs to in a cold encode: FNV of its
/// primary key (first company surface form, else the driver id) modulo
/// the shard count.
#[must_use]
pub fn shard_of(event: &EventView<'_>, n_shards: u32) -> u32 {
    let key = event
        .companies()
        .next()
        .unwrap_or_else(|| event.driver().id());
    (fnv1a64(key.as_bytes()) % u64::from(n_shards.max(1))) as u32
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_ref(out: &mut Vec<u8>, (shard, idx): (u32, u32)) {
    out.extend_from_slice(&shard.to_le_bytes());
    out.extend_from_slice(&idx.to_le_bytes());
}

/// Bytes [`encode_event`] writes for `e`.
fn event_len(e: &TriggerEvent) -> usize {
    const FIXED: usize = 1 + 8 + 8 + 4 + 4 + 4 + 2;
    FIXED + e.url.len() + e.snippet.len() + e.companies.iter().map(|c| 4 + c.len()).sum::<usize>()
}

fn encode_event(out: &mut Vec<u8>, e: &TriggerEvent) {
    out.push(driver_code(e.driver));
    out.extend_from_slice(&(e.doc_id as u64).to_le_bytes());
    out.extend_from_slice(&e.score.to_bits().to_le_bytes());
    out.extend_from_slice(&e.doc_date.0.to_le_bytes());
    out.push(e.doc_date.1);
    out.push(e.doc_date.2);
    put_str(out, &e.url);
    put_str(out, &e.snippet);
    out.extend_from_slice(&(e.companies.len() as u16).to_le_bytes());
    for c in &e.companies {
        put_str(out, c);
    }
}

/// One segment of an encoded book, as the generation store persists it.
#[derive(Debug, PartialEq, Eq)]
pub enum Segment {
    /// The previous generation's segment with the same id, reused
    /// unchanged (the store hard-links it).
    Linked,
    /// A freshly sealed segment container.
    Written(Vec<u8>),
}

/// A book serialized into `LEADS v2` containers, ready to be written or
/// linked by the generation store.
#[derive(Debug)]
pub struct EncodedBook {
    /// `segments[i]` is segment id `i`: base shards, then deltas.
    pub segments: Vec<Segment>,
    /// Sealed index container referencing the segments.
    pub index: Vec<u8>,
}

/// A segment's records laid end to end, with the offset table that
/// finds each one.
#[derive(Default)]
struct Records {
    count: usize,
    offsets: Vec<u8>,
    blob: Vec<u8>,
}

impl Records {
    fn push(&mut self, rec: &[u8]) {
        self.count += 1;
        self.offsets
            .extend_from_slice(&(self.blob.len() as u64).to_le_bytes());
        self.blob.extend_from_slice(rec);
    }

    fn push_event(&mut self, e: &TriggerEvent) {
        self.count += 1;
        self.offsets
            .extend_from_slice(&(self.blob.len() as u64).to_le_bytes());
        encode_event(&mut self.blob, e);
    }

    /// The bytes of record `i`.
    fn get(&self, i: usize) -> &[u8] {
        let start = |i: usize| {
            let at = i * 8;
            u64::from_le_bytes(self.offsets[at..at + 8].try_into().expect("8 bytes")) as usize
        };
        let end = if i + 1 < self.count {
            start(i + 1)
        } else {
            self.blob.len()
        };
        &self.blob[start(i)..end]
    }
}

/// A segment container of `count` records with its meta section
/// written; the offset table and the records follow. `span` (publishes
/// merged into the segment) is written for deltas only, so a base shard
/// keeps its original 16-byte meta.
fn segment_writer(id: u32, n_base: u32, span: Option<u64>, count: usize) -> BinWriter {
    let mut meta = Vec::with_capacity(24);
    meta.extend_from_slice(&id.to_le_bytes());
    meta.extend_from_slice(&n_base.to_le_bytes());
    meta.extend_from_slice(&(count as u64).to_le_bytes());
    if let Some(span) = span {
        meta.extend_from_slice(&span.to_le_bytes());
    }
    let version = if span.is_some() {
        LEADS2_APPEND_VERSION
    } else {
        LEADS2_VERSION
    };
    let mut w = BinWriter::new(SHARD_KIND, version);
    w.section(meta);
    w
}

/// Seal one segment holding `records` in order.
fn seal_segment(id: u32, n_base: u32, span: Option<u64>, records: Records) -> Vec<u8> {
    let mut w = segment_writer(id, n_base, span, records.count);
    w.section(records.offsets).section(records.blob);
    w.finish()
}

/// Seal an index over segments holding `counts[i]` records each:
/// section 0 (meta + counts) is written here, `sections` are 1.. in
/// order. When deltas follow the base shards the index is an append
/// container and the meta word after the segment count is `n_base`;
/// otherwise that word is 0 and the index is byte-identical to the
/// pre-append format.
fn seal_index(counts: &[usize], n_base: u32, total: usize, sections: Vec<Vec<u8>>) -> Vec<u8> {
    let n_segments = counts.len() as u32;
    let mut meta = Vec::with_capacity(16 + counts.len() * 8);
    meta.extend_from_slice(&n_segments.to_le_bytes());
    let appended = n_segments != n_base;
    meta.extend_from_slice(&(if appended { n_base } else { 0 }).to_le_bytes());
    meta.extend_from_slice(&(total as u64).to_le_bytes());
    for &c in counts {
        meta.extend_from_slice(&(c as u64).to_le_bytes());
    }
    let version = if appended {
        LEADS2_APPEND_VERSION
    } else {
        LEADS2_VERSION
    };
    let mut w = BinWriter::new(INDEX_KIND, version);
    w.section(meta);
    for s in sections {
        w.section(s);
    }
    w.finish()
}

/// Index sections 1.. of a book whose event at rank position `i` is the
/// record at `at(i)`: the global ranking, the per-driver directory and
/// refs, the company directory (MRR order) and refs, the normalized-name
/// keys and, when registered drivers are present, their code table.
/// Sealing a built book and extending a sealed one both write their
/// index through this; every later encode copies the directories.
fn index_sections(
    total: usize,
    at: impl Fn(usize) -> (u32, u32),
    by_driver: &[(SalesDriver, Vec<usize>)],
    ranking: &CompanyRanking,
) -> Vec<Vec<u8>> {
    // Section 1: the global ranking.
    let mut rank_bytes = Vec::with_capacity(total * 8);
    for i in 0..total {
        put_ref(&mut rank_bytes, at(i));
    }

    // Sections 2+3: per-driver directory + refs blob.
    let mut driver_dir = Vec::new();
    let mut driver_refs = Vec::with_capacity(total * 8);
    driver_dir.extend_from_slice(&(by_driver.len() as u32).to_le_bytes());
    for (d, idxs) in by_driver {
        let off = (driver_refs.len() / 8) as u64;
        for &i in idxs {
            put_ref(&mut driver_refs, at(i));
        }
        driver_dir.push(driver_code(*d));
        driver_dir.extend_from_slice(&[0, 0, 0]);
        driver_dir.extend_from_slice(&off.to_le_bytes());
        driver_dir.extend_from_slice(&(idxs.len() as u64).to_le_bytes());
    }

    // Sections 4+5: company directory (MRR order) + refs blob.
    let mut company_dir = Vec::new();
    let mut company_refs = Vec::new();
    company_dir.extend_from_slice(&(ranking.companies.len() as u64).to_le_bytes());
    for (i, c) in ranking.companies.iter().enumerate() {
        let idxs = ranking.events_of(i);
        let off = (company_refs.len() / 8) as u64;
        for &i in idxs {
            put_ref(&mut company_refs, at(i));
        }
        put_str(&mut company_dir, &c.company);
        company_dir.extend_from_slice(&c.mrr.to_bits().to_le_bytes());
        company_dir.extend_from_slice(&(c.events as u64).to_le_bytes());
        company_dir.extend_from_slice(&off.to_le_bytes());
        company_dir.extend_from_slice(&(idxs.len() as u64).to_le_bytes());
    }

    // Section 6: normalized-name lookup keys, sorted for determinism
    // and binary search.
    let keys = &ranking.name_keys;
    let mut name_keys = Vec::new();
    name_keys.extend_from_slice(&(keys.len() as u64).to_le_bytes());
    for (k, i) in keys {
        put_str(&mut name_keys, k);
        name_keys.extend_from_slice(&(*i as u64).to_le_bytes());
    }

    let mut sections = vec![
        rank_bytes,
        driver_dir,
        driver_refs,
        company_dir,
        company_refs,
        name_keys,
    ];

    // Optional section 7: code→key table for registered (non-builtin)
    // drivers. Omitted entirely when only built-ins are present, which
    // keeps those indexes byte-identical to the pre-registry format.
    let custom: Vec<SalesDriver> = by_driver
        .iter()
        .map(|(d, _)| *d)
        .filter(|d| !d.is_builtin())
        .collect();
    if !custom.is_empty() {
        let mut tbl = Vec::new();
        tbl.extend_from_slice(&(custom.len() as u32).to_le_bytes());
        for d in &custom {
            tbl.push(driver_code(*d));
            put_str(&mut tbl, d.id());
        }
        sections.push(tbl);
    }
    sections
}

/// Seal a freshly built book as one segment holding every event in rank
/// order, plus its index: `(index, segment)`. The only encoder that
/// reads a [`LeadBook`]; every later encode copies these bytes.
fn seal(book: &LeadBook) -> (Vec<u8>, Vec<u8>) {
    let events = book.events();
    // Records are encoded straight into the sealed container, so the
    // book's bytes are never held twice.
    let mut offsets = Vec::with_capacity(events.len() * 8);
    let mut len = 0;
    for e in events {
        offsets.extend_from_slice(&(len as u64).to_le_bytes());
        len += event_len(e);
    }
    let mut w = segment_writer(0, 1, None, events.len());
    w.section(offsets);
    let segment = w.finish_with(len, |out| events.iter().for_each(|e| encode_event(out, e)));
    let sections = index_sections(
        events.len(),
        |gi| (0, gi as u32),
        book.by_driver_raw(),
        book.ranking(),
    );
    (
        seal_index(&[events.len()], 1, events.len(), sections),
        segment,
    )
}

/// Serialize `book` cold into `n_shards` base shards plus one index.
///
/// Deterministic: the same book produces byte-identical output.
#[must_use]
pub fn encode_book(book: &MappedBook, n_shards: u32) -> EncodedBook {
    let n_shards = n_shards.max(1);
    let layout = cold_layout(book.ranked_records(), book.moves(), &book.codes, n_shards);
    book.reseal(layout, n_shards)
}

/// Where an encode puts a book's records: the segments it seals (or
/// reuses), the records each one holds, and each record's new ref.
struct Layout {
    segments: Vec<Segment>,
    counts: Vec<usize>,
    moved: Moves,
}

/// The cold layout of records given in rank order with their refs:
/// each goes to the base shard of its primary key, in rank order.
fn cold_layout<'r>(
    ranked: impl IntoIterator<Item = ((u32, u32), &'r [u8])>,
    mut moved: Moves,
    codes: &CodeMap,
    n_shards: u32,
) -> Layout {
    let mut shards: Vec<Records> = (0..n_shards).map(|_| Records::default()).collect();
    for (old, rec) in ranked {
        let Ok(e) = EventView::decode(rec, codes) else {
            continue;
        };
        let sid = shard_of(&e, n_shards);
        let shard = &mut shards[sid as usize];
        moved.set(old, (sid, shard.count as u32));
        shard.push(rec);
    }
    let counts: Vec<usize> = shards.iter().map(|s| s.count).collect();
    let segments = shards
        .into_iter()
        .enumerate()
        .map(|(sid, recs)| Segment::Written(seal_segment(sid as u32, n_shards, None, recs)))
        .collect();
    Layout {
        segments,
        counts,
        moved,
    }
}

/// A sealed segment container opened over its arena: what
/// [`encode_append`] matches a new book against, and what a
/// [`MappedBook`] reads its records from.
#[derive(Debug, Clone)]
pub struct SealedSegment {
    arena: Arc<Arena>,
    count: usize,
    /// Publishes merged into the segment (1 for base shards); `None` for
    /// a delta whose meta omits it, which serves but is never reused.
    span: Option<u64>,
    /// `(start, len)` of the offset table within the arena bytes.
    offsets: (usize, usize),
    /// `(start, len)` of the records blob within the arena bytes.
    records: (usize, usize),
}

impl SealedSegment {
    /// Open `arena` as segment `sid` of a layout with `n_base` base
    /// shards: kind, the version its place calls for, meta and offset
    /// table length. A record's offsets are checked where it is read.
    ///
    /// # Errors
    /// A typed [`CodecError`] on any structural problem. Integrity
    /// checksums are the caller's job, as for [`MappedBook::open`].
    pub fn open(arena: Arc<Arena>, sid: usize, n_base: usize) -> Result<Self, CodecError> {
        let malformed = |msg: String| CodecError::Malformed { line: 0, msg };
        let sv = bin_open(arena.bytes(), SHARD_KIND, LEADS2_APPEND_VERSION, false)?;
        let delta = sid >= n_base;
        let version = [LEADS2_VERSION, LEADS2_APPEND_VERSION][usize::from(delta)];
        if sv.version() != version {
            return Err(malformed(format!(
                "segment {sid} has container version {} in a {n_base}-shard layout",
                sv.version()
            )));
        }
        let mut meta = Cur::new(sv.section(0)?);
        let (file_sid, file_n) = (meta.u32()? as usize, meta.u32()? as usize);
        let count = meta.u64()? as usize;
        if file_sid != sid || file_n != n_base {
            return Err(malformed(format!(
                "segment {sid} metadata mismatch (claims id {file_sid}, {file_n} base shards)"
            )));
        }
        let span = if delta { meta.u64().ok() } else { Some(1) };
        let offsets = sv.section_range(1)?;
        if count.checked_mul(8) != Some(offsets.1) {
            return Err(malformed(format!("segment {sid} offset table length")));
        }
        let records = sv.section_range(2)?;
        Ok(Self {
            arena,
            count,
            span,
            offsets,
            records,
        })
    }

    /// The sealed bytes of record `i`, if structurally valid.
    fn record(&self, i: usize) -> Option<&[u8]> {
        if i >= self.count {
            return None;
        }
        let b = self.arena.bytes();
        let offset = |i: usize| -> Option<usize> {
            let at = self.offsets.0 + i * 8;
            Some(u64::from_le_bytes(b.get(at..at + 8)?.try_into().ok()?) as usize)
        };
        let (start, len) = self.records;
        let end = if i + 1 < self.count {
            offset(i + 1)?
        } else {
            len
        };
        b.get(start..start + len)?.get(offset(i)?..end)
    }

    /// Whether an append may reuse this segment, which it does whole or
    /// not at all: every record resolves, and a delta states its span.
    fn reusable(&self) -> bool {
        self.span.is_some() && (0..self.count).all(|i| self.record(i).is_some())
    }

    /// The container bytes.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        self.arena.bytes()
    }
}

/// Re-encode `book` on top of the previous generation's segments
/// (`prev[i]` is segment `i`; `None` when it is missing or failed its
/// checksum, so it cannot be reused). Records match by their sealed
/// bytes. See the module docs for the layout, merge and cold rules.
///
/// Returns `None` when the book must be encoded cold instead: the
/// previous generation has fewer than `n_base` segments, or the deltas
/// would hold as many records as the reused base shards.
#[must_use]
pub fn encode_append(
    book: &MappedBook,
    n_base: u32,
    prev: &[Option<SealedSegment>],
) -> Option<EncodedBook> {
    let ranked: Vec<((u32, u32), &[u8])> = book.ranked_records().collect();
    let layout = append_layout(&ranked, book.moves(), n_base, prev)?;
    Some(book.reseal(layout, n_base))
}

/// The append layout of records given in rank order with their refs,
/// on top of `prev` ([`encode_append`]'s rules); `None` when the book
/// must be laid out cold instead.
fn append_layout(
    ranked: &[((u32, u32), &[u8])],
    mut moved: Moves,
    n_base: u32,
    prev: &[Option<SealedSegment>],
) -> Option<Layout> {
    let base = n_base as usize;
    if base == 0 || prev.len() < base {
        return None;
    }
    let prev: Vec<Option<&SealedSegment>> = prev
        .iter()
        .map(|s| s.as_ref().filter(|s| s.reusable()))
        .collect();

    // Pair each record with a previous record of identical bytes; equal
    // records pair in segment order, so the result is deterministic.
    let sealed = prev.iter().flatten().map(|s| s.count).sum();
    let mut table: HashMap<&[u8], Vec<(u32, u32)>> = HashMap::with_capacity(sealed);
    for (sid, seg) in prev.iter().enumerate().rev() {
        let Some(seg) = seg else { continue };
        for idx in (0..seg.count).rev() {
            let rec = seg
                .record(idx)
                .expect("a reusable segment resolves every record");
            table.entry(rec).or_default().push((sid as u32, idx as u32));
        }
    }
    let mut live = vec![0usize; prev.len()];
    let matched: Vec<Option<(u32, u32)>> = ranked
        .iter()
        .map(|(_, rec)| {
            let found = table.get_mut(rec).and_then(Vec::pop);
            if let Some((sid, _)) = found {
                live[sid as usize] += 1;
            }
            found
        })
        .collect();

    let fully_live = |sid: usize| prev[sid].is_some_and(|s| s.count == live[sid]);
    let kept_deltas = (base..prev.len())
        .take_while(|&sid| fully_live(sid))
        .count();
    let reused = |sid: usize| {
        if sid < base {
            fully_live(sid)
        } else {
            sid < base + kept_deltas
        }
    };
    let fresh = matched
        .iter()
        .filter(|m| m.is_none_or(|(sid, _)| !reused(sid as usize)))
        .count();

    // The delta stack as (records, publishes); entries from `tail` on
    // are rewritten into one new segment.
    let mut stack: Vec<(usize, u64)> = (base..base + kept_deltas)
        .map(|sid| (live[sid], prev[sid].and_then(|s| s.span).unwrap_or(1)))
        .collect();
    let mut tail = stack.len();
    if fresh > 0 {
        stack.push((fresh, 1));
        while let [.., older, newer] = *stack.as_slice() {
            if older.0 >= 2 * newer.0 && older.1 >= 2 * newer.1 {
                break;
            }
            stack.pop();
            *stack.last_mut().expect("two entries") =
                (older.0 + newer.0, older.1.saturating_add(newer.1));
        }
        tail = stack.len() - 1;
    }
    let base_records: usize = (0..base)
        .filter(|&sid| fully_live(sid))
        .map(|sid| live[sid])
        .sum();
    if stack.iter().map(|d| d.0).sum::<usize>() >= base_records {
        return None;
    }

    // Segments below the tail keep their ids: reused, or emptied.
    let tail_sid = base + tail;
    let keep: Vec<bool> = (0..tail_sid).map(reused).collect();
    let mut tail_records = Records::default();
    for (&(old, rec), m) in ranked.iter().zip(&matched) {
        let at = match *m {
            Some((sid, idx)) if keep.get(sid as usize) == Some(&true) => (sid, idx),
            _ => {
                tail_records.push(rec);
                (tail_sid as u32, (tail_records.count - 1) as u32)
            }
        };
        moved.set(old, at);
    }

    let mut segments: Vec<Segment> = keep
        .iter()
        .enumerate()
        .map(|(sid, &kept)| match kept {
            true => Segment::Linked,
            false => Segment::Written(seal_segment(sid as u32, n_base, None, Records::default())),
        })
        .collect();
    let mut counts: Vec<usize> = keep
        .iter()
        .zip(&live)
        .map(|(&kept, &n)| if kept { n } else { 0 })
        .collect();
    if let Some(&(records, span)) = stack.get(tail) {
        debug_assert_eq!(records, tail_records.count);
        let delta = seal_segment(tail_sid as u32, n_base, Some(span), tail_records);
        segments.push(Segment::Written(delta));
        counts.push(records);
    }
    Some(Layout {
        segments,
        counts,
        moved,
    })
}

/// Where an encode put each record of the book it read:
/// `at[segment][idx]` is the record's new `(segment, idx)` ref.
struct Moves {
    at: Vec<Vec<(u32, u32)>>,
}

impl Moves {
    /// The ref written for a record that was not placed (only a corrupt
    /// book has one); it resolves to no event.
    const NOWHERE: (u32, u32) = (u32::MAX, u32::MAX);

    /// An empty table for segments holding `counts[i]` records each.
    fn shaped(counts: impl IntoIterator<Item = usize>) -> Self {
        Self {
            at: counts.into_iter().map(|n| vec![Self::NOWHERE; n]).collect(),
        }
    }

    fn set(&mut self, (sid, idx): (u32, u32), to: (u32, u32)) {
        if let Some(slot) = self
            .at
            .get_mut(sid as usize)
            .and_then(|s| s.get_mut(idx as usize))
        {
            *slot = to;
        }
    }

    fn get(&self, (sid, idx): (u32, u32)) -> (u32, u32) {
        self.at
            .get(sid as usize)
            .and_then(|s| s.get(idx as usize))
            .copied()
            .unwrap_or(Self::NOWHERE)
    }
}

/// A bounds-checked forward cursor over a byte slice; every read fails
/// with [`CodecError::Truncated`] instead of slicing out of bounds.
struct Cur<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Cur<'a> {
    fn new(b: &'a [u8]) -> Self {
        Self { b, at: 0 }
    }

    /// Validate a corpus-controlled entry count against the bytes left:
    /// each entry occupies at least `min_entry` bytes, so a count that
    /// cannot fit is corruption — caught *before* any `with_capacity`
    /// preallocation can abort on an absurd size.
    fn count(&mut self, n: usize, min_entry: usize) -> Result<usize, CodecError> {
        if n > (self.b.len() - self.at) / min_entry.max(1) {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.at.checked_add(n).ok_or(CodecError::Truncated)?;
        let s = self.b.get(self.at..end).ok_or(CodecError::Truncated)?;
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn str_view(&mut self) -> Result<&'a str, CodecError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.bytes(len)?).map_err(|_| CodecError::Truncated)
    }

    /// [`str_view`](Self::str_view) as its `(start, len)` within the
    /// cursor's slice.
    fn str_range(&mut self) -> Result<(usize, usize), CodecError> {
        let s = self.str_view()?;
        Ok((self.at - s.len(), s.len()))
    }
}

/// A lazily decoded event inside a sealed segment: the string fields
/// are views into the arena, copied only if the caller owns them.
#[derive(Debug, Clone, Copy)]
pub struct EventView<'a> {
    driver: SalesDriver,
    doc_id: u64,
    score: f64,
    date: (u16, u8, u8),
    url: &'a str,
    snippet: &'a str,
    /// Length-prefixed company strings, validated at decode.
    companies: &'a [u8],
    n_companies: usize,
}

impl<'a> EventView<'a> {
    fn decode(rec: &'a [u8], codes: &CodeMap) -> Result<Self, CodecError> {
        let mut c = Cur::new(rec);
        let driver = codes.resolve(c.u8()?).ok_or(CodecError::Truncated)?;
        let doc_id = c.u64()?;
        let score = f64::from_bits(c.u64()?);
        let date = (c.u16()?, c.u8()?, c.u8()?);
        let url = c.str_view()?;
        let snippet = c.str_view()?;
        let n_companies = c.u16()? as usize;
        let companies_start = c.at;
        for _ in 0..n_companies {
            c.str_view()?;
        }
        Ok(Self {
            driver,
            doc_id,
            score,
            date,
            url,
            snippet,
            companies: &rec[companies_start..c.at],
            n_companies,
        })
    }

    /// The event's sales driver.
    #[must_use]
    pub fn driver(&self) -> SalesDriver {
        self.driver
    }

    /// The fields the ranking order compares ([`rank::key_order`]).
    #[must_use]
    pub fn rank_key(&self) -> RankKey<'a> {
        (self.score, self.doc_id(), self.driver, self.snippet)
    }

    /// Source document id.
    #[must_use]
    pub fn doc_id(&self) -> usize {
        self.doc_id as usize
    }

    /// Classifier confidence.
    #[must_use]
    pub fn score(&self) -> f64 {
        self.score
    }

    /// Publication date `(year, month, day)`.
    #[must_use]
    pub fn date(&self) -> (u16, u8, u8) {
        self.date
    }

    /// Source URL, borrowed from the arena.
    #[must_use]
    pub fn url(&self) -> &'a str {
        self.url
    }

    /// Snippet text, borrowed from the arena.
    #[must_use]
    pub fn snippet(&self) -> &'a str {
        self.snippet
    }

    /// Company surface forms in extraction order, borrowed from the
    /// arena.
    pub fn companies(&self) -> impl Iterator<Item = &'a str> {
        let mut c = Cur::new(self.companies);
        (0..self.n_companies).map_while(move |_| c.str_view().ok())
    }

    /// Company surface forms, collected.
    #[must_use]
    pub fn companies_vec(&self) -> Vec<&'a str> {
        self.companies().collect()
    }

    /// Copy into an owned [`TriggerEvent`].
    #[must_use]
    pub fn to_owned_event(&self) -> TriggerEvent {
        TriggerEvent {
            driver: self.driver,
            doc_id: self.doc_id(),
            url: self.url.to_string(),
            snippet: self.snippet.to_string(),
            score: self.score,
            companies: self.companies().map(ToString::to_string).collect(),
            doc_date: self.date,
        }
    }
}

#[derive(Debug)]
struct DriverEntry {
    driver: SalesDriver,
    refs_off: usize,
    count: usize,
}

#[derive(Debug)]
struct CompanyEntry {
    /// `(start, len)` of the name within the index arena.
    name: (usize, usize),
    mrr: f64,
    events: usize,
    refs_off: usize,
    count: usize,
}

/// A lead book served directly from `LEADS v2` arenas — mmap'd files
/// for a loaded generation, heap buffers for a book sealed in this
/// process — without materializing events. The directories (driver
/// table, company table, name keys) are indexed eagerly, O(#companies),
/// into a few flat tables; company names, lookup keys, event records
/// and all ranking refs stay in the arenas.
#[derive(Debug)]
pub struct MappedBook {
    index: Arc<Arena>,
    shards: Vec<SealedSegment>,
    /// Segments `0..n_base` are base shards; the rest are deltas.
    n_base: usize,
    total: usize,
    rank_refs: (usize, usize),
    drivers: Vec<DriverEntry>,
    driver_refs: (usize, usize),
    companies: Vec<CompanyEntry>,
    company_refs: (usize, usize),
    /// The name-key section in key order: each normalized name's
    /// `(start, len)` within the index arena, and its company's index.
    name_keys: Vec<((usize, usize), usize)>,
    codes: CodeMap,
    /// Index sections an encode copies verbatim: the driver and company
    /// directories, the name keys and, when present, the code table.
    directories: Vec<(usize, usize)>,
}

impl MappedBook {
    /// Open a book over a validated index arena and its segment arenas
    /// (`shard_arenas[i]` must be segment id `i`).
    ///
    /// Structural validation happens here — each segment's id, layout
    /// and count cross-checked against the index, every directory
    /// bounds-checked — so
    /// the per-request accessors can be simple `Option` lookups that
    /// never slice out of bounds.
    ///
    /// # Errors
    /// A typed [`CodecError`] on any structural mismatch; integrity
    /// checksums are the caller's job (the generation-store manifest
    /// already hashes every file).
    pub fn open(index: Arc<Arena>, shard_arenas: Vec<Arc<Arena>>) -> Result<Self, CodecError> {
        let given = shard_arenas.len();
        let mut arenas = shard_arenas.into_iter();
        Self::assemble(index, given, |sid, n_base| {
            SealedSegment::open(arenas.next().expect("one arena per segment"), sid, n_base)
        })
    }

    /// [`open`](Self::open) with the `given` segments supplied in id
    /// order by `segment(sid, n_base)`, so an extension can pass the
    /// segments it reuses as this book opened them.
    fn assemble(
        index: Arc<Arena>,
        given: usize,
        mut segment: impl FnMut(usize, usize) -> Result<SealedSegment, CodecError>,
    ) -> Result<Self, CodecError> {
        let malformed = |msg: String| CodecError::Malformed { line: 0, msg };
        let iv = bin_open(index.bytes(), INDEX_KIND, LEADS2_APPEND_VERSION, false)?;

        let mut c = Cur::new(iv.section(0)?);
        let n_segments = c.u32()? as usize;
        // A cold index pads this word; an append index names its base,
        // which deltas follow.
        let appended = iv.version() == LEADS2_APPEND_VERSION;
        let n_base = match c.u32()? as usize {
            n if appended => n,
            _ => n_segments,
        };
        let total = c.u64()? as usize;
        let n_segments = c.count(n_segments, 8)?;
        if n_base == 0 || n_base > n_segments || (appended && n_base == n_segments) {
            return Err(malformed(format!(
                "index claims {n_base} base shards of {n_segments} segments"
            )));
        }
        let mut counts = Vec::with_capacity(n_segments);
        for _ in 0..n_segments {
            counts.push(c.u64()? as usize);
        }
        if counts.iter().try_fold(0usize, |sum, &n| sum.checked_add(n)) != Some(total) {
            return Err(malformed("segment counts do not sum to total".into()));
        }
        if given != n_segments {
            return Err(malformed(format!(
                "index expects {n_segments} segments, got {given}"
            )));
        }

        let mut shards = Vec::with_capacity(n_segments);
        for (sid, &count) in counts.iter().enumerate() {
            let shard = segment(sid, n_base)?;
            if shard.count != count {
                return Err(malformed(format!(
                    "segment {sid} holds {} events, the index says {count}",
                    shard.count
                )));
            }
            shards.push(shard);
        }

        let rank_refs = iv.section_range(1)?;
        if total.checked_mul(8) != Some(rank_refs.1) {
            return Err(malformed("rank table length".into()));
        }

        // The trailing code→key table (absent on builtin-only books)
        // decodes first: the driver directory below names its codes. The
        // keys are interned only once the whole index has validated, so
        // a rejected index registers no driver.
        let mut keys: Vec<(u8, &str)> = Vec::new();
        let mut directories = vec![
            iv.section_range(2)?,
            iv.section_range(4)?,
            iv.section_range(6)?,
        ];
        if iv.section_count() > 7 {
            directories.push(iv.section_range(7)?);
            let mut c = Cur::new(iv.section(7)?);
            let n = c.u32()? as usize;
            let n = c.count(n, 5)?;
            for _ in 0..n {
                keys.push((c.u8()?, c.str_view()?));
            }
        }

        let mut c = Cur::new(iv.section(2)?);
        let n = c.u32()? as usize;
        let n = c.count(n, 20)?;
        let driver_refs = iv.section_range(3)?;
        let mut driver_codes = Vec::with_capacity(n);
        for _ in 0..n {
            let code = c.u8()?;
            c.bytes(3)?;
            let refs_off = c.u64()? as usize;
            let count = c.u64()? as usize;
            if driver_from_code(code).is_none() && !keys.iter().any(|(c, _)| *c == code) {
                return Err(malformed(format!("unknown driver code {code}")));
            }
            if refs_off
                .checked_add(count)
                .and_then(|end| end.checked_mul(8))
                .is_none_or(|end| end > driver_refs.1)
            {
                return Err(malformed(format!("driver code {code} refs out of bounds")));
            }
            driver_codes.push((code, refs_off, count));
        }

        let mut c = Cur::new(iv.section(4)?);
        let at = iv.section_range(4)?.0;
        let n = c.u64()? as usize;
        let n = c.count(n, 36)?;
        let company_refs = iv.section_range(5)?;
        let mut companies = Vec::with_capacity(n);
        for _ in 0..n {
            let (start, len) = c.str_range()?;
            let name = (at + start, len);
            let mrr = f64::from_bits(c.u64()?);
            let events = c.u64()? as usize;
            let refs_off = c.u64()? as usize;
            let count = c.u64()? as usize;
            if refs_off
                .checked_add(count)
                .and_then(|end| end.checked_mul(8))
                .is_none_or(|end| end > company_refs.1)
            {
                return Err(malformed(format!(
                    "company at {} refs out of bounds",
                    name.0
                )));
            }
            companies.push(CompanyEntry {
                name,
                mrr,
                events,
                refs_off,
                count,
            });
        }

        // Name keys are written sorted, so lookups binary-search them in
        // place.
        let mut c = Cur::new(iv.section(6)?);
        let at = iv.section_range(6)?.0;
        let n = c.u64()? as usize;
        let n = c.count(n, 12)?;
        let mut name_keys = Vec::with_capacity(n);
        let mut last: Option<&str> = None;
        for _ in 0..n {
            let (start, len) = c.str_range()?;
            let key = &iv.section(6)?[start..start + len];
            let key = std::str::from_utf8(key).map_err(|_| CodecError::Truncated)?;
            let idx = c.u64()? as usize;
            if idx >= companies.len() {
                return Err(malformed(format!(
                    "name key {key:?} points past company table"
                )));
            }
            if last.is_some_and(|last| last >= key) {
                return Err(malformed(format!("name key {key:?} out of order")));
            }
            last = Some(key);
            name_keys.push(((at + start, len), idx));
        }

        let mut codes = CodeMap::default();
        for (code, key) in keys {
            let driver = SalesDriver::intern(key)
                .map_err(|e| malformed(format!("driver key {key:?}: {e}")))?;
            codes.custom.push((code, driver));
        }
        // Every code was checked against the table above, so none is
        // dropped here.
        let drivers = driver_codes
            .into_iter()
            .filter_map(|(code, refs_off, count)| {
                Some(DriverEntry {
                    driver: codes.resolve(code)?,
                    refs_off,
                    count,
                })
            })
            .collect();

        Ok(Self {
            index,
            shards,
            n_base,
            total,
            rank_refs,
            drivers,
            driver_refs,
            companies,
            company_refs,
            name_keys,
            codes,
            directories,
        })
    }

    /// Total ranked events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the book holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of segment files (base shards and deltas) backing this
    /// book.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The segment arenas backing this book, by segment id. An extended
    /// book holds the very arenas of the book it extended for every
    /// segment it reused.
    pub fn segments(&self) -> impl ExactSizeIterator<Item = &Arc<Arena>> {
        self.shards.iter().map(|s| &s.arena)
    }

    fn arenas(&self) -> impl Iterator<Item = &Arc<Arena>> {
        std::iter::once(&self.index).chain(self.segments())
    }

    /// Total bytes across index and shard arenas (mapped or heap).
    #[must_use]
    pub fn arena_bytes(&self) -> usize {
        self.arenas().map(|a| a.len()).sum()
    }

    /// Bytes of the arenas that live on the heap rather than in a file
    /// mapping: all of a book built or text-loaded in this process; the
    /// index and deltas of a mapped generation extended in memory.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.arenas()
            .filter(|a| !a.is_mapped())
            .map(|a| a.len())
            .sum()
    }

    /// Whether every arena is an actual file mapping. A mapped generation
    /// extended in memory is not: its base stays mapped, but its index
    /// and deltas are heap arenas.
    #[must_use]
    pub fn is_fully_mapped(&self) -> bool {
        self.arenas().all(|a| a.is_mapped())
    }

    fn ref_at(&self, (start, len): (usize, usize), i: usize) -> Option<(u32, u32)> {
        let at = start + i.checked_mul(8)?;
        if at + 8 > start + len {
            return None;
        }
        let b = self.index.bytes();
        let shard = u32::from_le_bytes(b.get(at..at + 4)?.try_into().ok()?);
        let idx = u32::from_le_bytes(b.get(at + 4..at + 8)?.try_into().ok()?);
        Some((shard, idx))
    }

    /// The sealed bytes of the record at a `(shard, idx)` reference, if
    /// structurally valid.
    fn record(&self, (shard, idx): (u32, u32)) -> Option<&[u8]> {
        self.shards.get(shard as usize)?.record(idx as usize)
    }

    /// Segment `sid` as this book opened it, for an append on `n_base`
    /// base shards: `None` if absent or of another layout.
    #[must_use]
    pub fn segment(&self, sid: usize, n_base: usize) -> Option<SealedSegment> {
        let shard = self.shards.get(sid)?;
        (self.n_base == n_base).then(|| shard.clone())
    }

    fn decode<'a>(&self, rec: &'a [u8]) -> Option<EventView<'a>> {
        EventView::decode(rec, &self.codes).ok()
    }

    /// The event at a `(shard, idx)` reference, if structurally valid.
    #[must_use]
    pub fn event_at(&self, shard: u32, idx: u32) -> Option<EventView<'_>> {
        self.decode(self.record((shard, idx))?)
    }

    /// Every resolvable record in global rank order, with its ref.
    fn ranked_records(&self) -> impl Iterator<Item = ((u32, u32), &[u8])> {
        (0..self.total)
            .filter_map(|i| self.ref_at(self.rank_refs, i))
            .filter_map(|r| Some((r, self.record(r)?)))
    }

    fn events_from(&self, refs: (usize, usize), off: usize, n: usize) -> Vec<EventView<'_>> {
        (off..off + n)
            .filter_map(|i| self.ref_at(refs, i))
            .filter_map(|(s, x)| self.event_at(s, x))
            .collect()
    }

    /// An empty [`Moves`] table shaped like this book's segments.
    fn moves(&self) -> Moves {
        Moves::shaped(self.shards.iter().map(|s| s.count))
    }

    /// This book re-encoded into `layout`.
    fn reseal(&self, layout: Layout, n_base: u32) -> EncodedBook {
        EncodedBook {
            index: self.reseal_index(&layout.moved, &layout.counts, n_base),
            segments: layout.segments,
        }
    }

    /// Re-emit this book's index for records placed by `moved` into
    /// segments holding `counts[i]` records each: the three ref blobs
    /// are rewritten through `moved`, every directory is copied.
    fn reseal_index(&self, moved: &Moves, counts: &[usize], n_base: u32) -> Vec<u8> {
        let bytes = |(start, len): (usize, usize)| &self.index.bytes()[start..start + len];
        let remap = |refs: (usize, usize)| {
            let mut out = Vec::with_capacity(refs.1);
            for r in bytes(refs).chunks_exact(8) {
                let old = (
                    u32::from_le_bytes(r[..4].try_into().expect("4 bytes")),
                    u32::from_le_bytes(r[4..].try_into().expect("4 bytes")),
                );
                put_ref(&mut out, moved.get(old));
            }
            out
        };
        let copy = |i: usize| bytes(self.directories[i]).to_vec();
        let mut sections = vec![
            remap(self.rank_refs),
            copy(0),
            remap(self.driver_refs),
            copy(1),
            remap(self.company_refs),
            copy(2),
        ];
        sections.extend((3..self.directories.len()).map(copy));
        seal_index(counts, n_base, self.total, sections)
    }

    /// The top `top` events across all drivers (best first).
    #[must_use]
    pub fn top(&self, top: usize) -> Vec<EventView<'_>> {
        self.events_from(self.rank_refs, 0, top.min(self.total))
    }

    /// The top `top` events for one driver (best first).
    #[must_use]
    pub fn top_for(&self, driver: SalesDriver, top: usize) -> Vec<EventView<'_>> {
        self.drivers
            .iter()
            .find(|d| d.driver == driver)
            .map(|d| self.events_from(self.driver_refs, d.refs_off, d.count.min(top)))
            .unwrap_or_default()
    }

    /// Total events for one driver — O(1), no materialization.
    #[must_use]
    pub fn driver_total(&self, driver: SalesDriver) -> usize {
        self.drivers
            .iter()
            .find(|d| d.driver == driver)
            .map_or(0, |d| d.count)
    }

    /// Drivers present, in canonical order.
    #[must_use]
    pub fn drivers(&self) -> Vec<SalesDriver> {
        self.drivers.iter().map(|d| d.driver).collect()
    }

    /// Number of ranked companies.
    #[must_use]
    pub fn companies_len(&self) -> usize {
        self.companies.len()
    }

    /// The index bytes at `(start, len)`, checked at open.
    fn index_bytes(&self, (start, len): (usize, usize)) -> &[u8] {
        self.index
            .bytes()
            .get(start..start + len)
            .unwrap_or_default()
    }

    fn company_ref(&self, entry: &CompanyEntry) -> CompanyRef<'_> {
        CompanyRef {
            company: std::str::from_utf8(self.index_bytes(entry.name)).unwrap_or_default(),
            mrr: entry.mrr,
            events: entry.events,
        }
    }

    /// The top `top` companies by MRR (best first).
    #[must_use]
    pub fn companies_top(&self, top: usize) -> Vec<CompanyRef<'_>> {
        self.companies
            .iter()
            .take(top)
            .map(|e| self.company_ref(e))
            .collect()
    }

    /// A company's MRR entry and its events (score order), looked up by
    /// any surface variation of its name.
    #[must_use]
    pub fn company_events(&self, name: &str) -> Option<(CompanyRef<'_>, Vec<EventView<'_>>)> {
        let key = AliasResolver::normalize(name);
        let at = self
            .name_keys
            .binary_search_by(|&(k, _)| self.index_bytes(k).cmp(key.as_bytes()))
            .ok()?;
        let entry = self.companies.get(self.name_keys[at].1)?;
        let events = self.events_from(self.company_refs, entry.refs_off, entry.count);
        Some((self.company_ref(entry), events))
    }

    /// This book with `events` added: the book [`LeadBook::build`] makes
    /// of this book's events followed by `events`, laid out as a publish
    /// would lay it out on this book's segments. No record of this book
    /// is copied or decoded into an owned event:
    ///
    /// 1. **merge** — only the new events are encoded, in rank order,
    ///    and merged into this book's ranking, each sealed record's sort
    ///    key read in place;
    /// 2. **directories** — the per-driver rankings, the Eq. 2 company
    ///    ranking and the name keys are recomputed in one pass over the
    ///    merged views, through the code `LeadBook::build` uses, and
    ///    written by the index writer sealing uses;
    /// 3. **layout** — the merged records (this book's segments plus the
    ///    new ones) are laid out by the rules of [`encode_append`] against
    ///    this book's own segments, else cold as by [`encode_book`] with
    ///    this book's base shard count: the rules a publish applies
    ///    against the previous generation on disk. A reused segment stays
    ///    the same `Arc<Arena>`, mapped or heap; deltas merge and the
    ///    book re-encodes cold as on disk, so the segment count stays
    ///    bounded however many cycles a daemon runs.
    ///
    /// Records are matched, ranked and indexed by content, so the result
    /// is byte-identical (after [`encode_book`]) to sealing the rebuilt
    /// book. A book whose records cannot be shared — sealed by a process
    /// that registered its drivers in another order, so its driver codes
    /// differ from this process's, or (corrupt) with a ranking that does
    /// not name each record once — has its events re-encoded with the
    /// new ones instead.
    #[must_use]
    pub fn extend(&self, mut events: Vec<TriggerEvent>) -> MappedBook {
        let shared = self.shares_records();
        if !shared {
            let mut all = self.events_owned();
            all.append(&mut events);
            events = all;
        }
        events.sort_by(rank::event_order);
        // The new records in rank order: one segment after this book's.
        let mut fresh = Records::default();
        for e in &events {
            fresh.push_event(e);
        }
        let (old_total, old_segments) = match shared {
            true => (self.total, self.shards.len()),
            false => (0, 0),
        };
        let fresh_id = old_segments as u32;

        // 1. Merge. Equal keys keep this book's events first, as a stable
        // sort of its events followed by the new ones would.
        let mut old = (0..old_total)
            .filter_map(|i| self.ref_at(self.rank_refs, i))
            .filter_map(|at| Some((at, self.event_at(at.0, at.1)?)))
            .peekable();
        let mut new = events.iter().zip(0u32..).peekable();
        let mut order = Vec::with_capacity(old_total + events.len());
        let mut mentions = Mentions::default();
        loop {
            let take_new = match (old.peek(), new.peek()) {
                (Some((_, view)), Some((e, _))) => {
                    rank::key_order(rank::rank_key(e), view.rank_key()).is_lt()
                }
                (None, next) => next.is_some(),
                (Some(_), None) => false,
            };
            if take_new {
                let (e, idx) = new.next().expect("peeked");
                mentions.push(e.driver, e.companies.iter().map(String::as_str));
                order.push((fresh_id, idx));
            } else if let Some((at, view)) = old.next() {
                mentions.push(view.driver(), view.companies());
                order.push(at);
            } else {
                break;
            }
        }

        // 2. Directories.
        let (by_driver, ranking) = leads::directories(&mentions);
        drop(mentions);
        drop(events);

        // 3. Layout, by the rules a publish applies on disk.
        let ranked: Vec<((u32, u32), &[u8])> = order
            .iter()
            .map(|&at| {
                let rec = match at {
                    (sid, idx) if sid == fresh_id => fresh.get(idx as usize),
                    at => self.record(at).expect("checked by shares_records"),
                };
                (at, rec)
            })
            .collect();
        let shape = || {
            let old = self.shards[..old_segments].iter().map(|s| s.count);
            Moves::shaped(old.chain([fresh.count]))
        };
        let n_base = self.n_base as u32;
        let prev: Vec<Option<SealedSegment>> = self.shards.iter().cloned().map(Some).collect();
        let layout = append_layout(&ranked, shape(), n_base, &prev).unwrap_or_else(|| {
            let codes = CodeMap::of(by_driver.iter().map(|(d, _)| *d));
            cold_layout(ranked.iter().copied(), shape(), &codes, n_base)
        });
        let sections = index_sections(
            order.len(),
            |i| layout.moved.get(order[i]),
            &by_driver,
            &ranking,
        );
        let index = seal_index(&layout.counts, n_base, order.len(), sections);
        // A reused segment keeps its id and layout: it stays as opened.
        let given = layout.segments.len();
        let mut segments = layout.segments.into_iter();
        MappedBook::assemble(Arc::new(Arena::Heap(index)), given, |sid, n_base| {
            match (
                segments.next().expect("one per segment"),
                self.shards.get(sid),
            ) {
                (Segment::Linked, Some(reused)) => Ok(reused.clone()),
                (Segment::Written(bytes), _) => {
                    SealedSegment::open(Arc::new(Arena::Heap(bytes)), sid, n_base)
                }
                (Segment::Linked, None) => unreachable!("only existing segments are reused"),
            }
        })
        .expect("an extended book opens")
    }

    /// Whether an extension can share this book's records: their driver
    /// codes are this process's, and the ranking names each record
    /// exactly once (`open` checked that the segments hold `total`
    /// records). A record that fails to decode drops out of the merge,
    /// as it drops out of [`events_owned`](Self::events_owned).
    fn shares_records(&self) -> bool {
        if self
            .codes
            .custom
            .iter()
            .any(|&(code, d)| driver_code(d) != code)
        {
            return false;
        }
        let mut seen: Vec<Vec<bool>> = self.shards.iter().map(|s| vec![false; s.count]).collect();
        (0..self.total).all(|i| {
            self.ref_at(self.rank_refs, i)
                .filter(|&at| self.record(at).is_some())
                .is_some_and(|(sid, idx)| {
                    !std::mem::replace(&mut seen[sid as usize][idx as usize], true)
                })
        })
    }

    /// Copy every event out in global rank order — the migration /
    /// parity path back to owned structures. O(parse); defeats the
    /// purpose if called per request.
    #[must_use]
    pub fn events_owned(&self) -> Vec<TriggerEvent> {
        self.top(self.total)
            .iter()
            .map(EventView::to_owned_event)
            .collect()
    }
}

/// A company ranking entry borrowed from a book's company directory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompanyRef<'a> {
    /// Canonical company name.
    pub company: &'a str,
    /// Eq. 2 MRR score.
    pub mrr: f64,
    /// Number of events mentioning the company.
    pub events: usize,
}

/// The served lead book: one shared [`MappedBook`], queried through
/// `Deref`. A loaded binary generation maps its files; a book built or
/// loaded from text is sealed into heap arenas by `From<LeadBook>`; an
/// extended book ([`MappedBook::extend`]) shares the arenas of the book
/// it extended and adds heap ones. Cloning is an `Arc` bump.
#[derive(Debug, Clone)]
pub struct BookHandle(Arc<MappedBook>);

impl From<LeadBook> for BookHandle {
    fn from(book: LeadBook) -> Self {
        let (index, segment) = seal(&book);
        let heap = |bytes| Arc::new(Arena::Heap(bytes));
        MappedBook::open(heap(index), vec![heap(segment)])
            .expect("a freshly sealed book opens")
            .into()
    }
}

impl From<MappedBook> for BookHandle {
    fn from(book: MappedBook) -> Self {
        Self(Arc::new(book))
    }
}

impl Deref for BookHandle {
    type Target = MappedBook;

    fn deref(&self) -> &MappedBook {
        &self.0
    }
}

impl PartialEq for BookHandle {
    /// Two books are equal when their single-shard cold encodes are: the
    /// same records in the same rank order, and the same directories —
    /// per-driver rankings, companies with their MRR bits, name keys and
    /// driver codes — whatever their layout (test and migration use, not
    /// a hot path).
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (encode_book(self, 1), encode_book(other, 1));
        a.index == b.index && a.segments == b.segments
    }
}

impl BookHandle {
    /// True when the book is served from file mappings only (a loaded
    /// binary generation); false when any arena is on the heap, as for
    /// a mapped generation extended in memory.
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        self.0.is_fully_mapped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::CompanyScore;

    fn event(driver: SalesDriver, doc_id: usize, score: f64, companies: &[&str]) -> TriggerEvent {
        TriggerEvent {
            driver,
            doc_id,
            url: format!("http://t/{doc_id}"),
            snippet: format!("snippet {doc_id} with details"),
            score,
            companies: companies.iter().map(ToString::to_string).collect(),
            doc_date: (2005, 6, 15),
        }
    }

    fn sample_events(n: usize) -> Vec<TriggerEvent> {
        (0..n)
            .map(|i| {
                let driver = SalesDriver::ALL[i % 3];
                let companies: Vec<String> = match i % 4 {
                    0 => vec![format!("Acme {}", i % 7)],
                    1 => vec![format!("Zed {}", i % 5), "Acme 0".to_string()],
                    2 => vec![],
                    _ => vec![format!("Nadir {}", i % 3)],
                };
                let refs: Vec<&str> = companies.iter().map(String::as_str).collect();
                event(driver, i, 0.5 + (i as f64 % 97.0) / 200.0, &refs)
            })
            .collect()
    }

    /// `events` built into a book and sealed into heap arenas.
    fn handle(events: Vec<TriggerEvent>) -> BookHandle {
        LeadBook::build(events).into()
    }

    /// The base shard of one event, read back through its sealed view.
    fn shard_of_event(e: &TriggerEvent, n_shards: u32) -> u32 {
        shard_of(&handle(vec![e.clone()]).top(1)[0], n_shards)
    }

    fn company_ref(c: &CompanyScore) -> CompanyRef<'_> {
        CompanyRef {
            company: &c.company,
            mrr: c.mrr,
            events: c.events,
        }
    }

    /// Every segment's bytes, reading reused ones from `prev`.
    fn resolve(prev: &[Vec<u8>], enc: &EncodedBook) -> Vec<Vec<u8>> {
        enc.segments
            .iter()
            .enumerate()
            .map(|(sid, seg)| match seg {
                Segment::Linked => prev[sid].clone(),
                Segment::Written(bytes) => bytes.clone(),
            })
            .collect()
    }

    fn arenas(segments: &[Vec<u8>]) -> Vec<Arc<Arena>> {
        segments
            .iter()
            .map(|s| Arc::new(Arena::Heap(s.clone())))
            .collect()
    }

    fn open_segments(index: &[u8], segments: &[Vec<u8>]) -> MappedBook {
        MappedBook::open(Arc::new(Arena::Heap(index.to_vec())), arenas(segments)).expect("open")
    }

    /// `bytes` opened as segment `sid` of an `n_base`-shard layout.
    fn segment(bytes: &[u8], sid: usize, n_base: u32) -> Result<SealedSegment, CodecError> {
        SealedSegment::open(Arc::new(Arena::Heap(bytes.to_vec())), sid, n_base as usize)
    }

    fn open_encoded(enc: &EncodedBook) -> MappedBook {
        open_segments(&enc.index, &resolve(&[], enc))
    }

    /// Append-encode `events` over previously sealed `segments`.
    fn append(segments: &[Vec<u8>], events: Vec<TriggerEvent>, n_base: u32) -> Option<EncodedBook> {
        let prev: Vec<Option<SealedSegment>> = segments
            .iter()
            .enumerate()
            .map(|(sid, b)| Some(segment(b, sid, n_base).expect("parse")))
            .collect();
        encode_append(&handle(events), n_base, &prev)
    }

    fn assert_same_book(mapped: &MappedBook, book: &LeadBook) {
        assert_eq!(mapped.events_owned(), book.events());
        for d in SalesDriver::ALL {
            let owned: Vec<TriggerEvent> =
                book.top_for(d, usize::MAX).into_iter().cloned().collect();
            let viewed: Vec<TriggerEvent> = mapped
                .top_for(d, usize::MAX)
                .iter()
                .map(EventView::to_owned_event)
                .collect();
            assert_eq!(owned, viewed, "driver {d:?}");
        }
        let companies: Vec<CompanyRef> = book.companies().iter().map(company_ref).collect();
        assert_eq!(mapped.companies_top(usize::MAX), companies);
        for c in book.companies() {
            let (oc, oe) = book.company_events(&c.company).expect("owned company");
            let (mc, me) = mapped.company_events(&c.company).expect("mapped company");
            assert_eq!(company_ref(oc), mc);
            let me: Vec<TriggerEvent> = me.iter().map(EventView::to_owned_event).collect();
            assert_eq!(oe.into_iter().cloned().collect::<Vec<_>>(), me);
        }
    }

    /// `n` new events spread over many companies, as a daily poll is.
    fn poll_events(first_doc: usize, n: usize) -> Vec<TriggerEvent> {
        (first_doc..first_doc + n)
            .map(|i| {
                let company = format!("Poll {}", i % 13);
                event(
                    SalesDriver::ALL[i % 3],
                    i,
                    0.3 + (i % 61) as f64 / 100.0,
                    &[&company],
                )
            })
            .collect()
    }

    #[test]
    fn builtin_books_have_no_code_table_and_custom_books_round_trip() {
        // Builtin-only books encode exactly the seven legacy sections —
        // the byte-layout contract that keeps them identical to
        // pre-registry LEADS v2 artifacts.
        let enc = encode_book(&handle(sample_events(40)), 4);
        let iv = bin_open(&enc.index, INDEX_KIND, LEADS2_VERSION, true).expect("open");
        assert_eq!(iv.section_count(), 7);

        // A custom driver adds the trailing code table, and the mapped
        // book resolves its events back to the registered DriverId.
        let custom =
            SalesDriver::register("test_leads2_custom", "pilot programs").expect("register");
        let mut events = sample_events(12);
        events.push(event(custom, 90, 0.91, &["Acme 0"]));
        events.push(event(custom, 91, 0.81, &[]));
        let book = LeadBook::build(events);
        let enc = encode_book(&BookHandle::from(book.clone()), 4);
        let iv = bin_open(&enc.index, INDEX_KIND, LEADS2_VERSION, true).expect("open");
        assert_eq!(
            iv.section_count(),
            8,
            "custom drivers append the code table"
        );

        let mapped = open_encoded(&enc);
        assert_eq!(mapped.events_owned(), book.events());
        assert!(mapped.drivers().contains(&custom));
        assert_eq!(mapped.driver_total(custom), 2);
        let views: Vec<f64> = mapped
            .top_for(custom, usize::MAX)
            .iter()
            .map(EventView::score)
            .collect();
        assert_eq!(views, vec![0.91, 0.81]);
    }

    #[test]
    fn mapped_book_matches_owned_book_exactly() {
        let book = LeadBook::build(sample_events(120));
        let enc = encode_book(&BookHandle::from(book.clone()), 8);
        assert_eq!(enc.segments.len(), 8);
        let mapped = open_encoded(&enc);

        assert_eq!(mapped.len(), book.len());
        assert_eq!(mapped.drivers(), book.drivers());
        for d in SalesDriver::ALL {
            assert_eq!(mapped.driver_total(d), book.top_for(d, usize::MAX).len());
        }
        assert_eq!(mapped.companies_len(), book.companies().len());
        for (c, m) in book
            .companies()
            .iter()
            .zip(mapped.companies_top(usize::MAX))
        {
            assert_eq!(c.mrr.to_bits(), m.mrr.to_bits());
        }
        assert_same_book(&mapped, &book);
    }

    #[test]
    fn company_lookup_resolves_aliases_in_mapped_book() {
        let events = vec![
            event(SalesDriver::RevenueGrowth, 0, 0.9, &["Acme"]),
            event(SalesDriver::RevenueGrowth, 1, 0.8, &["Acme Corp."]),
            event(SalesDriver::MergersAcquisitions, 2, 0.95, &["Zed Ltd"]),
        ];
        let book = LeadBook::build(events);
        let mapped = open_encoded(&encode_book(&BookHandle::from(book.clone()), 4));

        let (owned_score, owned_events) = book.company_events("Acme Corp.").expect("owned");
        let (mapped_score, mapped_events) = mapped.company_events("Acme Corp.").expect("mapped");
        assert_eq!(owned_score.company, mapped_score.company);
        assert_eq!(owned_events.len(), mapped_events.len());
        assert!(mapped.company_events("Nonexistent Industries").is_none());
    }

    #[test]
    fn cold_encode_is_byte_identical_to_the_pre_append_format() {
        // Digest of the same book sealed by the encoder before append
        // publishes existed: the cold path must never drift from it.
        let enc = encode_book(&handle(sample_events(120)), 8);
        let mut all = enc.index.clone();
        for seg in resolve(&[], &enc) {
            all.extend_from_slice(&seg);
        }
        assert_eq!((fnv1a64(&all), all.len()), (0x78f3_6aba_beb0_21c1, 14_936));
    }

    #[test]
    fn clean_shards_are_byte_identical_under_extend() {
        let n_shards = 8;
        let base_events = sample_events(60);
        let base = resolve(&[], &encode_book(&handle(base_events.clone()), n_shards));

        // Extend with events that all target one company, i.e. one shard.
        let mut extended_events = base_events;
        for i in 0..10 {
            extended_events.push(event(
                SalesDriver::RevenueGrowth,
                1000 + i,
                0.6 + i as f64 / 100.0,
                &["Hotspot Inc"],
            ));
        }
        let hot = shard_of_event(&extended_events[60], n_shards) as usize;
        let ext = resolve(&[], &encode_book(&handle(extended_events), n_shards));

        assert_eq!(base.len(), ext.len());
        assert_ne!(base[hot], ext[hot], "hot shard must change");
        // Every shard that received no new events must be bit-identical.
        let identical = (0..base.len()).filter(|&sid| base[sid] == ext[sid]).count();
        assert_eq!(identical, n_shards as usize - 1);
    }

    #[test]
    fn append_reuses_every_sealed_record_and_writes_only_the_delta() {
        let mut events = sample_events(120);
        let cold = encode_book(&handle(events.clone()), 8);
        let sealed = resolve(&[], &cold);

        // The poll dirties nearly every company bucket: a cold encode
        // would rewrite all shards, the append writes one delta.
        events.extend(poll_events(1_000, 12));
        let book = LeadBook::build(events.clone());
        let dirty = encode_book(&BookHandle::from(book.clone()), 8);
        assert!(
            resolve(&[], &dirty)
                .iter()
                .zip(&sealed)
                .filter(|(a, b)| a != b)
                .count()
                > 4
        );

        let enc = append(&sealed, events, 8).expect("append");
        assert_eq!(enc.segments.len(), 9);
        assert!(enc.segments[..8].iter().all(|s| *s == Segment::Linked));
        let segments = resolve(&sealed, &enc);
        let delta = segment(&segments[8], 8, 8).expect("delta");
        assert_eq!((delta.count, delta.span), (12, Some(1)));
        assert_same_book(&open_segments(&enc.index, &segments), &book);

        // Only the index and the delta carry the append version, so a
        // reader of the cold format rejects them by version alone.
        let cold_version =
            |bytes: &[u8], kind| bin_open(bytes, kind, LEADS2_VERSION, true).map(|v| v.version());
        assert_eq!(
            cold_version(&segments[0], SHARD_KIND).ok(),
            Some(LEADS2_VERSION)
        );
        for (bytes, kind) in [(&enc.index, INDEX_KIND), (&segments[8], SHARD_KIND)] {
            assert!(matches!(
                cold_version(bytes, kind),
                Err(CodecError::FutureVersion {
                    version: LEADS2_APPEND_VERSION,
                    ..
                })
            ));
        }

        // Republishing the same book writes no segment at all, and its
        // index is the cold one.
        let same = append(&sealed, sample_events(120), 8).expect("append");
        assert!(same.segments.iter().all(|s| *s == Segment::Linked));
        assert_eq!(same.index, cold.index);
    }

    #[test]
    fn deltas_merge_like_a_binary_counter_then_reencode_cold() {
        let mut events = sample_events(200);
        let mut segments = resolve(&[], &encode_book(&handle(events.clone()), 4));
        let mut appends = 0u32;
        loop {
            events.extend(poll_events(1_000 + 10 * appends as usize, 10));
            let Some(enc) = append(&segments, events.clone(), 4) else {
                // Cold only once the deltas would hold the base's 200.
                assert_eq!(appends, 19);
                break;
            };
            appends += 1;
            segments = resolve(&segments, &enc);
            let deltas: Vec<SealedSegment> = (4..segments.len())
                .map(|sid| segment(&segments[sid], sid, 4).expect("delta"))
                .collect();
            // Equal polls: one delta per set bit of the append count.
            assert_eq!(deltas.len() as u32, appends.count_ones(), "after {appends}");
            assert!(deltas.windows(2).all(|w| w[0].span > w[1].span));
            assert_eq!(
                deltas.iter().map(|d| d.span.expect("span")).sum::<u64>(),
                u64::from(appends)
            );
            let mapped = open_segments(&enc.index, &segments);
            assert_same_book(&mapped, &LeadBook::build(events.clone()));

            // Republishing the loaded layout itself links everything.
            let prev: Vec<Option<SealedSegment>> = segments
                .iter()
                .enumerate()
                .map(|(sid, b)| segment(b, sid, 4).ok())
                .collect();
            let again = encode_append(&mapped, 4, &prev).expect("append");
            assert!(again.segments.iter().all(|s| *s == Segment::Linked));
            assert_eq!(again.index, enc.index);
        }
    }

    #[test]
    fn unusable_or_shrunken_segments_move_their_live_records_to_the_delta() {
        let events = sample_events(120);
        let cold = encode_book(&handle(events.clone()), 4);
        let sealed = resolve(&[], &cold);

        // Drop one event: its shard is no longer fully live.
        let gone = shard_of_event(&events[7], 4) as usize;
        let mut fewer = events.clone();
        fewer.remove(7);
        let enc = append(&sealed, fewer.clone(), 4).expect("append");
        let segments = resolve(&sealed, &enc);
        for sid in 0..4 {
            assert_eq!(
                enc.segments[sid] == Segment::Linked,
                sid != gone,
                "segment {sid}"
            );
        }
        let emptied = segment(&segments[gone], gone, 4).expect("emptied");
        assert!(emptied.count == 0);
        let delta = segment(&segments[4], 4, 4).expect("delta");
        let live = events
            .iter()
            .filter(|e| shard_of_event(e, 4) as usize == gone)
            .count()
            - 1;
        assert_eq!(delta.count, live);
        assert_same_book(
            &open_segments(&enc.index, &segments),
            &LeadBook::build(fewer),
        );

        // A segment the caller could not verify is never reused.
        let book = LeadBook::build(events);
        let mut prev: Vec<Option<SealedSegment>> = sealed
            .iter()
            .enumerate()
            .map(|(sid, b)| segment(b, sid, 4).ok())
            .collect();
        prev[1] = None;
        let enc = encode_append(&BookHandle::from(book.clone()), 4, &prev).expect("append");
        assert!(matches!(enc.segments[1], Segment::Written(_)));
        assert_same_book(&open_segments(&enc.index, &resolve(&sealed, &enc)), &book);

        // A segment of another layout is refused, and a different book
        // (no overlap) re-encodes cold.
        assert!(segment(&sealed[0], 0, 8).is_err());
        assert!(append(&sealed, poll_events(5_000, 50), 4).is_none());
    }

    #[test]
    fn encode_is_deterministic() {
        let book = handle(sample_events(50));
        let a = encode_book(&book, 4);
        let b = encode_book(&book, 4);
        assert_eq!(a.index, b.index);
        assert_eq!(a.segments, b.segments);
        // Re-encoding the sealed layout, not the heap book, gives the
        // same bytes: records and directories are copied, not rebuilt.
        let c = encode_book(&open_encoded(&a), 4);
        assert_eq!(a.index, c.index);
        assert_eq!(a.segments, c.segments);
    }

    #[test]
    fn corrupt_structures_fail_typed_never_panic() {
        let enc = encode_book(&handle(sample_events(30)), 4);

        // Truncated index.
        let short = Arc::new(Arena::Heap(enc.index[..enc.index.len() / 2].to_vec()));
        let shards = arenas(&resolve(&[], &enc));
        assert!(MappedBook::open(short, shards.clone()).is_err());

        // Wrong shard count.
        let index = Arc::new(Arena::Heap(enc.index.clone()));
        assert!(MappedBook::open(index.clone(), shards[..2].to_vec()).is_err());

        // Shards in the wrong order (metadata cross-check).
        let mut swapped = shards.clone();
        swapped.swap(0, 1);
        assert!(MappedBook::open(index.clone(), swapped).is_err());

        // Bit flips through the whole index: open may fail (typed) or
        // succeed with a benign view, but must never panic or read OOB.
        for at in (0..enc.index.len()).step_by(7) {
            let mut corrupt = enc.index.clone();
            corrupt[at] ^= 0x10;
            let arena = Arc::new(Arena::Heap(corrupt));
            if let Ok(m) = MappedBook::open(arena, shards.clone()) {
                let _ = m.top(5);
                let _ = m.companies_top(5);
                let _ = m.company_events("Acme 0");
            }
        }
    }

    #[test]
    fn handle_api_is_backing_agnostic() {
        // A heap-sealed book and the same book sharded over four
        // segments answer every query alike.
        let sealed = handle(sample_events(40));
        let sharded: BookHandle = open_encoded(&encode_book(&sealed, 4)).into();

        assert_eq!(sealed.shard_count(), 1);
        assert_eq!(sharded.shard_count(), 4);
        assert!(!sealed.is_mapped() && !sharded.is_mapped());
        assert_eq!(sealed.events_owned(), sharded.events_owned());
        assert_eq!(sealed.drivers(), sharded.drivers());
        for (a, b) in sealed.top(10).iter().zip(sharded.top(10)) {
            assert_eq!(a.snippet(), b.snippet());
            assert_eq!(a.companies_vec(), b.companies_vec());
        }
        assert_eq!(
            sealed.companies_top(usize::MAX),
            sharded.companies_top(usize::MAX)
        );
        assert!(sealed.arena_bytes() > 0 && sharded.arena_bytes() > 0);
    }

    #[test]
    fn events_without_companies_shard_by_driver() {
        let e = event(SalesDriver::RevenueGrowth, 1, 0.7, &[]);
        assert_eq!(
            shard_of_event(&e, 16),
            (fnv1a64(b"revenue_growth") % 16) as u32
        );
    }
}
