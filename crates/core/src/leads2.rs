//! `LEADS v2`: the segmented, memory-mappable binary lead book.
//!
//! The text codec (`etap::persist`, `LEADS` v1) parses every event into
//! owned heap structures at load time — O(parse) warm start and a
//! private copy per replica. This module is the scale path:
//!
//! * A book is a list of **segments** — sealed `ETAPBIN` containers of
//!   length-prefixed event records plus an offset table — and one
//!   **index**. The index's global ranking names each record by its
//!   **global number**, its place in the segments laid end to end; the
//!   per-driver and per-company rankings name **rank positions**, places
//!   in the global ranking. Every number is a 4-byte `u32`.
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
//!   index. Everything that names rank positions or canonical strings
//!   (driver table and lists, company table and lists, name keys,
//!   driver-code table) is copied verbatim; only the segment counts, the
//!   global ranking and the string places are rewritten. No publish
//!   re-encodes an event, and driver codes always travel with their own
//!   book's code table.
//! * [`MappedBook`] opens those containers over [`Arena`]s and serves
//!   them **zero-copy**: string fields stay offset+len views into the
//!   arena until response-write time. It finds the segment of a global
//!   number by binary search over the segments' first numbers, whatever
//!   the layout.
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
//! ## Index layout
//!
//! The index holds only numbers. Sections 0–2 depend on the layout and
//! are rewritten by every encode: section 0 holds `[n_segments][n_base]
//! [total]` and each segment's record count; section 1 the global
//! ranking, one global number per rank position; section 2 the **string
//! places**, one per canonical string (below). Sections 3.. name rank
//! positions and canonical strings by number, so every encode copies
//! them verbatim: sections 3+4 the driver directory (`[code u8][off]
//! [count]` per driver) and its rank-position lists; sections 5+6 the
//! company directory in MRR order (`[mrr f64 bits][events][count]`; a
//! company's list starts where the previous one's ends) and its lists;
//! section 7 the sorted name keys (`[company]` each); section 8, only
//! when registered drivers are present, their code→key table. Every
//! count, offset, global number, rank position and place is a
//! little-endian `u32`. [`MappedBook::open`] checks every global number
//! against the record count, every position against `total` and every
//! place against the string sections, so a served query never meets a
//! dangling one.
//!
//! ## Strings
//!
//! Company names and name keys live in the segments, not the index.
//! With `C` companies and `K` name keys, company `i`'s name is
//! **canonical string** `i` and key `j` is canonical string `C + j`.
//! Every segment carries a string section: distinct strings in byte
//! order, each a LEB128 varint length and its bytes. A string's place is
//! the byte offset of its length in the segments' string sections laid
//! end to end. A cold encode puts each distinct string into the base
//! shard `fnv1a64(string) % n`. An append places each canonical string
//! where a reused segment already holds it, and writes only the others,
//! once each, into its one new delta, so a watch cycle seals only the
//! names and keys its poll made new. Strings a reused segment holds but
//! the book no longer names stay until the next cold re-encode.
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
//! A segment holds four sections: its meta `(segment id, n_base,
//! records)` plus, on deltas only, the number of publishes merged into
//! it; the records' offset table; its string section; the records.
//! Nothing in a segment depends on the generation number, so the
//! generation store can hard-link a reused segment, strings and all,
//! instead of rewriting it. Base shards and deltas alike are container
//! version [`LEADS2_VERSION`] and the index is [`INDEX_VERSION`]; these
//! are the only versions this build reads or writes. A segment or an
//! index of an older layout fails to open with a typed error: the
//! generation store skips its generation, and the next publish reuses
//! none of its segments, so it encodes cold.

use std::borrow::Cow;
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
/// Format version of every segment, base shard or delta: meta, offset
/// table, string section, records. The only segment version this build
/// reads or writes; builds before string sections reject it with a
/// typed future-version error.
pub const LEADS2_VERSION: u32 = 5;
/// Format version of the index, cold or append: `u32` numbers only,
/// its strings in the segments. The only index version this build
/// reads or writes.
pub const INDEX_VERSION: u32 = 5;

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

/// `n` as the `u32` every index count, offset, number and position is.
fn put_u32(out: &mut Vec<u8>, n: usize) {
    let n = u32::try_from(n).expect("a LEADS v2 book holds fewer than 2^32 events");
    out.extend_from_slice(&n.to_le_bytes());
}

/// `n` as a LEB128 varint, the length of a string-section entry: seven
/// bits a byte, low bits first, so a length below 128 takes one byte.
fn put_varint(out: &mut Vec<u8>, n: usize) {
    let mut n = u32::try_from(n).expect("a string shorter than 4 GiB");
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
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

/// A segment container of `count` records with its meta section, offset
/// table and string section written; the records follow. `span`
/// (publishes merged into the segment) is written for deltas only.
fn segment_writer(
    id: u32,
    n_base: u32,
    span: Option<u64>,
    count: usize,
    offsets: Vec<u8>,
    strings: Vec<u8>,
) -> BinWriter<'static> {
    let mut meta = Vec::with_capacity(24);
    meta.extend_from_slice(&id.to_le_bytes());
    meta.extend_from_slice(&n_base.to_le_bytes());
    meta.extend_from_slice(&(count as u64).to_le_bytes());
    if let Some(span) = span {
        meta.extend_from_slice(&span.to_le_bytes());
    }
    let mut w = BinWriter::new(SHARD_KIND, LEADS2_VERSION);
    w.section(meta).section(offsets).section(strings);
    w
}

/// Seal one segment holding `records` in order and the string section
/// `strings`.
fn seal_segment(
    id: u32,
    n_base: u32,
    span: Option<u64>,
    records: Records,
    strings: Vec<u8>,
) -> Vec<u8> {
    let mut w = segment_writer(id, n_base, span, records.count, records.offsets, strings);
    w.section(records.blob);
    w.finish()
}

/// The canonical strings of a book ranked as `ranking`: each company's
/// name in MRR order, then each name key in key order.
fn canonical_strings(ranking: &CompanyRanking) -> Vec<&[u8]> {
    let names = ranking.companies.iter().map(|c| c.company.as_bytes());
    let keys = ranking.name_keys.iter().map(|(k, _)| k.as_bytes());
    names.chain(keys).collect()
}

/// Seal the canonical strings `ids` (indexes into `strings`) as segment
/// `sid`'s string section — each distinct string once, in byte order —
/// and record each id's `(sid, offset)` in `placed`.
fn seal_strings(
    strings: &[&[u8]],
    mut ids: Vec<usize>,
    sid: u32,
    placed: &mut [(u32, u32)],
) -> Vec<u8> {
    ids.sort_unstable_by(|&a, &b| strings[a].cmp(strings[b]));
    let mut out = Vec::new();
    let mut last: Option<(&[u8], u32)> = None;
    for id in ids {
        let s = strings[id];
        let at = match last {
            Some((prev, at)) if prev == s => at,
            _ => {
                let at = u32::try_from(out.len()).expect("string sections below 4 GiB");
                put_varint(&mut out, s.len());
                out.extend_from_slice(s);
                last = Some((s, at));
                at
            }
        };
        placed[id] = (sid, at);
    }
    out
}

/// Each `(segment, idx)` ref as the `u32` global number of its item in
/// segments of `sizes[i]` items laid end to end: a record's global
/// number, or a string's place. A ref into no segment
/// ([`Layout::NOWHERE`]) becomes `u32::MAX`.
fn globals(sizes: &[usize], refs: &[(u32, u32)]) -> Vec<u8> {
    let mut starts = Vec::with_capacity(sizes.len());
    let mut next = 0;
    for &size in sizes {
        starts.push(next);
        next += size;
    }
    let mut out = Vec::with_capacity(refs.len() * 4);
    for &(sid, idx) in refs {
        match starts.get(sid as usize) {
            Some(&start) => put_u32(&mut out, start + idx as usize),
            None => out.extend_from_slice(&u32::MAX.to_le_bytes()),
        }
    }
    out
}

/// Seal an index over `layout`: sections 0–2 (meta and counts, global
/// ranking, string places) are written here, and `directories` are
/// sections 3.. in order.
fn seal_index<'a>(
    layout: &Layout,
    n_base: u32,
    directories: impl IntoIterator<Item = Cow<'a, [u8]>>,
) -> Vec<u8> {
    let counts = &layout.counts;
    let mut meta = Vec::with_capacity(12 + counts.len() * 4);
    put_u32(&mut meta, counts.len());
    meta.extend_from_slice(&n_base.to_le_bytes());
    put_u32(&mut meta, layout.placed.len());
    for &c in counts {
        put_u32(&mut meta, c);
    }
    let mut w = BinWriter::new(INDEX_KIND, INDEX_VERSION);
    w.section(meta)
        .section(globals(counts, &layout.placed))
        .section(globals(&layout.string_bytes, &layout.strings));
    for d in directories {
        w.section(d);
    }
    w.finish()
}

/// Index sections 3.. of a book whose per-driver rankings are
/// `by_driver` and whose company ranking is `ranking`, both as rank
/// positions: the per-driver directory and lists, the company directory
/// (MRR order) and lists, the name keys' companies and, when registered
/// drivers are present, their code table. They name rank positions and
/// canonical strings by number, not where either lies, so every later
/// encode copies these sections.
fn directory_sections(
    by_driver: &[(SalesDriver, Vec<usize>)],
    ranking: &CompanyRanking,
) -> Vec<Vec<u8>> {
    // Sections 3+4: per-driver directory + rank positions.
    let mut driver_dir = Vec::new();
    let mut driver_lists = Vec::new();
    put_u32(&mut driver_dir, by_driver.len());
    for (d, positions) in by_driver {
        driver_dir.push(driver_code(*d));
        put_u32(&mut driver_dir, driver_lists.len() / 4);
        put_u32(&mut driver_dir, positions.len());
        for &p in positions {
            put_u32(&mut driver_lists, p);
        }
    }

    // Sections 5+6: company directory (MRR order) + rank positions, each
    // company's list right after the previous one's. Company `i`'s name
    // is canonical string `i`.
    let mut company_dir = Vec::new();
    let mut company_lists = Vec::new();
    put_u32(&mut company_dir, ranking.companies.len());
    for (i, c) in ranking.companies.iter().enumerate() {
        let positions = ranking.events_of(i);
        company_dir.extend_from_slice(&c.mrr.to_bits().to_le_bytes());
        put_u32(&mut company_dir, c.events);
        put_u32(&mut company_dir, positions.len());
        for &p in positions {
            put_u32(&mut company_lists, p);
        }
    }

    // Section 7: each normalized-name key's company. Key `j` is
    // canonical string `C + j`; keys are sorted for determinism and
    // binary search.
    let keys = &ranking.name_keys;
    let mut name_keys = Vec::with_capacity(4 + 4 * keys.len());
    put_u32(&mut name_keys, keys.len());
    for (_, i) in keys {
        put_u32(&mut name_keys, *i);
    }

    let mut sections = vec![
        driver_dir,
        driver_lists,
        company_dir,
        company_lists,
        name_keys,
    ];

    // Optional section 8: code→key table for registered (non-builtin)
    // drivers, omitted when only built-ins are present.
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
/// order and every canonical string, plus its index: `(index,
/// segment)`. The only encoder that reads a [`LeadBook`]; every later
/// encode copies these bytes.
fn seal(book: &LeadBook) -> (Vec<u8>, Vec<u8>) {
    let events = book.events();
    let strings = canonical_strings(book.ranking());
    let mut layout = Layout {
        segments: Vec::new(),
        counts: vec![events.len()],
        string_bytes: Vec::new(),
        // One segment in rank order: rank position `p` is record `p`.
        placed: (0..events.len() as u32).map(|p| (0, p)).collect(),
        strings: vec![Layout::NOWHERE; strings.len()],
    };
    let section = seal_strings(
        &strings,
        (0..strings.len()).collect(),
        0,
        &mut layout.strings,
    );
    layout.string_bytes.push(section.len());
    // Records are encoded straight into the sealed container, so the
    // book's bytes are never held twice.
    let mut offsets = Vec::with_capacity(events.len() * 8);
    let mut len = 0;
    for e in events {
        offsets.extend_from_slice(&(len as u64).to_le_bytes());
        len += event_len(e);
    }
    let w = segment_writer(0, 1, None, events.len(), offsets, section);
    let segment = w.finish_with(len, |out| events.iter().for_each(|e| encode_event(out, e)));
    let directories = directory_sections(book.by_driver_raw(), book.ranking());
    let index = seal_index(&layout, 1, directories.into_iter().map(Cow::Owned));
    (index, segment)
}

/// Serialize `book` cold into `n_shards` base shards plus one index.
///
/// Deterministic: the same book produces byte-identical output.
#[must_use]
pub fn encode_book(book: &MappedBook, n_shards: u32) -> EncodedBook {
    let n_shards = n_shards.max(1);
    let strings: Vec<&[u8]> = book.strings().map(str::as_bytes).collect();
    let ranked = book.ranked_records();
    let layout = cold_layout(ranked, book.len(), &book.codes, n_shards, &strings);
    book.reseal(layout, n_shards)
}

/// Where an encode puts a book's records and canonical strings: the
/// segments it seals (or reuses), the records and string bytes each one
/// holds, where the record at each rank position went, and where each
/// canonical string lies.
struct Layout {
    segments: Vec<Segment>,
    counts: Vec<usize>,
    /// Bytes of each segment's string section.
    string_bytes: Vec<usize>,
    /// `placed[p]`: the `(segment, idx)` of the record at rank position
    /// `p`, or [`Layout::NOWHERE`].
    placed: Vec<(u32, u32)>,
    /// `strings[i]`: the `(segment, offset)` of canonical string `i` in
    /// that segment's string section.
    strings: Vec<(u32, u32)>,
}

impl Layout {
    /// The place of a rank position whose record was not placed (only a
    /// corrupt book has one); its global number names no record.
    const NOWHERE: (u32, u32) = (u32::MAX, 0);
}

/// The cold layout of a book of `total` rank positions, whose records
/// are given in rank order with their positions: each goes to the base
/// shard of its primary key, in rank order, and each distinct canonical
/// string to the base shard of its hash.
fn cold_layout<'r>(
    ranked: impl IntoIterator<Item = (usize, &'r [u8])>,
    total: usize,
    codes: &CodeMap,
    n_shards: u32,
    strings: &[&[u8]],
) -> Layout {
    let mut shards: Vec<Records> = (0..n_shards).map(|_| Records::default()).collect();
    let mut placed = vec![Layout::NOWHERE; total];
    for (p, rec) in ranked {
        let Ok(e) = EventView::decode(rec, codes) else {
            continue;
        };
        let sid = shard_of(&e, n_shards);
        let shard = &mut shards[sid as usize];
        placed[p] = (sid, shard.count as u32);
        shard.push(rec);
    }
    let mut ids: Vec<Vec<usize>> = vec![Vec::new(); n_shards as usize];
    for (id, s) in strings.iter().enumerate() {
        ids[(fnv1a64(s) % u64::from(n_shards)) as usize].push(id);
    }
    let mut placed_strings = vec![Layout::NOWHERE; strings.len()];
    let mut layout = Layout {
        segments: Vec::with_capacity(shards.len()),
        counts: shards.iter().map(|s| s.count).collect(),
        string_bytes: Vec::with_capacity(shards.len()),
        placed,
        strings: Vec::new(),
    };
    for ((sid, recs), ids) in shards.into_iter().enumerate().zip(ids) {
        let section = seal_strings(strings, ids, sid as u32, &mut placed_strings);
        layout.string_bytes.push(section.len());
        let segment = seal_segment(sid as u32, n_shards, None, recs, section);
        layout.segments.push(Segment::Written(segment));
    }
    layout.strings = placed_strings;
    layout
}

/// A sealed segment container opened over its arena: what
/// [`encode_append`] matches a new book against, and what a
/// [`MappedBook`] reads its records and strings from.
#[derive(Debug, Clone)]
pub struct SealedSegment {
    arena: Arc<Arena>,
    count: usize,
    /// Publishes merged into the segment (1 for base shards); `None` for
    /// a delta whose meta omits it, which serves but is never reused.
    span: Option<u64>,
    /// `(start, len)` of the offset table within the arena bytes.
    offsets: (usize, usize),
    /// `(start, len)` of the string section within the arena bytes.
    strings: (usize, usize),
    /// `(start, len)` of the records blob within the arena bytes.
    records: (usize, usize),
}

impl SealedSegment {
    /// Open `arena` as segment `sid` of a layout with `n_base` base
    /// shards: kind, version, meta and offset table length. A record's
    /// offsets and a string's length are checked where they are read.
    ///
    /// # Errors
    /// A typed [`CodecError`] on any structural problem, and on a
    /// segment of another version than [`LEADS2_VERSION`]. Integrity
    /// checksums are the caller's job, as for [`MappedBook::open`].
    pub fn open(arena: Arc<Arena>, sid: usize, n_base: usize) -> Result<Self, CodecError> {
        let malformed = |msg: String| CodecError::Malformed { line: 0, msg };
        let sv = bin_open(arena.bytes(), SHARD_KIND, LEADS2_VERSION, false)?;
        if sv.version() != LEADS2_VERSION {
            return Err(malformed(format!(
                "segment {sid} has container version {}, this build reads version {LEADS2_VERSION}",
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
        let span = if sid >= n_base {
            meta.u64().ok()
        } else {
            Some(1)
        };
        let offsets = sv.section_range(1)?;
        if count.checked_mul(8) != Some(offsets.1) {
            return Err(malformed(format!("segment {sid} offset table length")));
        }
        let (strings, records) = (sv.section_range(2)?, sv.section_range(3)?);
        Ok(Self {
            arena,
            count,
            span,
            offsets,
            strings,
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

    /// The string whose length prefix is at byte `at` of the string
    /// section, with where its bytes start within the arena bytes.
    fn string_at(&self, at: usize) -> Result<(usize, &[u8]), CodecError> {
        let (start, len) = self.strings;
        let section = self.arena.bytes().get(start..start + len);
        let mut c = Cur::new(section.and_then(|s| s.get(at..)).unwrap_or_default());
        let n = c.varint()? as usize;
        let s = c.bytes(n)?;
        Ok((start + at + c.at - n, s))
    }

    /// The string section as `(offset, bytes)` entries in order; an
    /// entry that does not parse yields `None` and ends it.
    fn strings(&self) -> impl Iterator<Item = Option<(usize, &[u8])>> {
        let (start, len) = self.strings;
        let mut c = Cur::new(
            self.arena
                .bytes()
                .get(start..start + len)
                .unwrap_or_default(),
        );
        let mut failed = false;
        std::iter::from_fn(move || {
            if failed || c.at == c.b.len() {
                return None;
            }
            let at = c.at;
            let entry = c.varint().and_then(|n| c.bytes(n as usize));
            failed = entry.is_err();
            Some(entry.ok().map(|s| (at, s)))
        })
    }

    /// Check the container checksum of a segment that is a file mapping:
    /// its pages show the file as it is now, so a byte changed in place
    /// since the segment was opened fails here. A heap segment passes.
    fn check_mapped(&self) -> Result<(), String> {
        if !self.arena.is_mapped() {
            return Ok(());
        }
        bin_open(self.bytes(), SHARD_KIND, LEADS2_VERSION, true)
            .map(drop)
            .map_err(|e| e.to_string())
    }

    /// Whether an append may reuse this segment, which it does whole or
    /// not at all: every record resolves, every string parses, and a
    /// delta states its span.
    fn reusable(&self) -> bool {
        self.span.is_some()
            && (0..self.count).all(|i| self.record(i).is_some())
            && self.strings().all(|s| s.is_some())
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
/// bytes, strings by theirs. See the module docs for the layout, merge
/// and cold rules.
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
    let ranked: Vec<(usize, &[u8])> = book.ranked_records().collect();
    let strings: Vec<&[u8]> = book.strings().map(str::as_bytes).collect();
    let layout = append_layout(&ranked, book.len(), n_base, prev, &strings)?;
    Some(book.reseal(layout, n_base))
}

/// The append layout of a book of `total` rank positions, whose records
/// are given in rank order with their positions and whose canonical
/// strings are `strings`, on top of `prev` ([`encode_append`]'s rules);
/// `None` when the book must be laid out cold instead.
fn append_layout(
    ranked: &[(usize, &[u8])],
    total: usize,
    n_base: u32,
    prev: &[Option<SealedSegment>],
    strings: &[&[u8]],
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

    // The strings the segments that may be reused hold, each at its
    // first place.
    let mut held: HashMap<&[u8], (u32, u32)> = HashMap::new();
    for (sid, seg) in prev.iter().enumerate() {
        let Some(seg) = seg.filter(|_| reused(sid)) else {
            continue;
        };
        for (at, s) in seg.strings().flatten() {
            held.entry(s).or_insert((sid as u32, at as u32));
        }
    }
    let homeless = strings.iter().any(|s| !held.contains_key(s));

    // The delta stack as (records, publishes); entries from `tail` on
    // are rewritten into one new segment. A publish with no record to
    // write still writes one when a canonical string has no home.
    let mut stack: Vec<(usize, u64)> = (base..base + kept_deltas)
        .map(|sid| (live[sid], prev[sid].and_then(|s| s.span).unwrap_or(1)))
        .collect();
    let mut tail = stack.len();
    if fresh > 0 || homeless {
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
    let kept = |sid: u32| keep.get(sid as usize) == Some(&true);
    let mut tail_records = Records::default();
    let mut placed = vec![Layout::NOWHERE; total];
    for (&(p, rec), m) in ranked.iter().zip(&matched) {
        placed[p] = match *m {
            Some((sid, idx)) if kept(sid) => (sid, idx),
            _ => {
                tail_records.push(rec);
                (tail_sid as u32, (tail_records.count - 1) as u32)
            }
        };
    }
    // Each canonical string stays where a kept segment holds it; the
    // rest go to the tail, once each.
    let mut placed_strings = vec![Layout::NOWHERE; strings.len()];
    let mut tail_strings = Vec::new();
    for (id, s) in strings.iter().enumerate() {
        match held.get(s) {
            Some(&(sid, at)) if kept(sid) => placed_strings[id] = (sid, at),
            _ => tail_strings.push(id),
        }
    }

    let mut layout = Layout {
        segments: Vec::with_capacity(tail_sid + 1),
        counts: Vec::with_capacity(tail_sid + 1),
        string_bytes: Vec::with_capacity(tail_sid + 1),
        placed,
        strings: Vec::new(),
    };
    for (sid, &kept) in keep.iter().enumerate() {
        let (segment, count, bytes) = match (kept, prev[sid]) {
            (true, Some(seg)) => (Segment::Linked, live[sid], seg.strings.1),
            _ => {
                let empty = seal_segment(sid as u32, n_base, None, Records::default(), Vec::new());
                (Segment::Written(empty), 0, 0)
            }
        };
        layout.segments.push(segment);
        layout.counts.push(count);
        layout.string_bytes.push(bytes);
    }
    if let Some(&(records, span)) = stack.get(tail) {
        debug_assert_eq!(records, tail_records.count);
        let section = seal_strings(strings, tail_strings, tail_sid as u32, &mut placed_strings);
        layout.string_bytes.push(section.len());
        let delta = seal_segment(tail_sid as u32, n_base, Some(span), tail_records, section);
        layout.segments.push(Segment::Written(delta));
        layout.counts.push(records);
    } else {
        debug_assert!(tail_strings.is_empty(), "every string has a home");
    }
    layout.strings = placed_strings;
    Some(layout)
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

    /// A LEB128 `u32` as [`put_varint`] writes it: at most five bytes,
    /// and no longer than it needs to be.
    fn varint(&mut self) -> Result<u32, CodecError> {
        let overlong = || CodecError::Malformed {
            line: 0,
            msg: "overlong string length".into(),
        };
        let mut n = 0u64;
        for i in 0..5 {
            let b = self.u8()?;
            n |= u64::from(b & 0x7f) << (7 * i);
            if b & 0x80 == 0 {
                if (i > 0 && b == 0) || n > u64::from(u32::MAX) {
                    return Err(overlong());
                }
                return Ok(n as u32);
            }
        }
        Err(overlong())
    }

    fn str_view(&mut self) -> Result<&'a str, CodecError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.bytes(len)?).map_err(|_| CodecError::Truncated)
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
    /// The driver's rank positions: entries `off..off + count` of the
    /// driver lists.
    off: usize,
    count: usize,
}

/// A canonical string of a book, resolved from its place at open: its
/// bytes are `start..start + len` of segment `segment`'s arena.
#[derive(Debug, Clone, Copy)]
struct StrRef {
    segment: u32,
    len: u32,
    start: usize,
}

#[derive(Debug)]
struct CompanyEntry {
    name: StrRef,
    mrr: f64,
    events: usize,
    /// The company's rank positions: entries `off..off + count` of the
    /// company lists.
    off: usize,
    count: usize,
}

/// Check that `table` is a table of `u32`s — exactly `len` of them when
/// given — each below `bound`.
fn check_u32s(
    table: &[u8],
    what: &str,
    len: Option<usize>,
    bound: usize,
) -> Result<(), CodecError> {
    let malformed = |msg: String| CodecError::Malformed { line: 0, msg };
    if !table.len().is_multiple_of(4) || len.is_some_and(|n| n.checked_mul(4) != Some(table.len()))
    {
        return Err(malformed(format!("{what} length")));
    }
    let past = table
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize)
        .enumerate()
        .find(|&(_, n)| n >= bound);
    match past {
        Some((i, n)) => Err(malformed(format!(
            "{what} entry {i} is {n}, not below {bound}"
        ))),
        None => Ok(()),
    }
}

/// The `(segment, offset)` of item `g` in segments whose first items are
/// `starts`, `total` items in all: the last segment that starts at or
/// before `g`. An empty segment starts where the next one does, so it
/// never holds `g`.
fn locate_in(starts: &[usize], total: usize, g: usize) -> Option<(usize, usize)> {
    if g >= total {
        return None;
    }
    let sid = starts.partition_point(|&s| s <= g).checked_sub(1)?;
    Some((sid, g - starts[sid]))
}

/// Canonical string `i` at `place` in the string sections of `shards`
/// laid end to end (`starts[s]` is segment `s`'s first byte, `total` the
/// bytes of all): where its bytes lie, and the bytes, checked as UTF-8.
fn resolve_string<'a>(
    shards: &'a [SealedSegment],
    starts: &[usize],
    total: usize,
    i: usize,
    place: usize,
) -> Result<(StrRef, &'a [u8]), CodecError> {
    let (sid, at) = locate_in(starts, total, place).ok_or_else(|| CodecError::Malformed {
        line: 0,
        msg: format!("string {i} place {place}, not below {total}"),
    })?;
    let (start, bytes) = shards[sid].string_at(at)?;
    std::str::from_utf8(bytes).map_err(|_| CodecError::Truncated)?;
    let name = StrRef {
        segment: sid as u32,
        len: bytes.len() as u32,
        start,
    };
    Ok((name, bytes))
}

/// A lead book served directly from `LEADS v2` arenas — mmap'd files
/// for a loaded generation, heap buffers for a book sealed in this
/// process — without materializing events. The directories (driver
/// table, company table, name keys) are indexed eagerly, O(#companies),
/// into a few flat tables; company names and lookup keys (in the
/// segments' string sections), event records and every ranking stay in
/// the arenas.
#[derive(Debug)]
pub struct MappedBook {
    index: Arc<Arena>,
    shards: Vec<SealedSegment>,
    /// `starts[i]`: the global number of segment `i`'s first record.
    starts: Vec<usize>,
    /// Segments `0..n_base` are base shards; the rest are deltas.
    n_base: usize,
    total: usize,
    /// Index section 1: the global number at each rank position.
    ranking: (usize, usize),
    drivers: Vec<DriverEntry>,
    /// Index section 3: the drivers' rank positions.
    driver_lists: (usize, usize),
    companies: Vec<CompanyEntry>,
    /// Index section 5: the companies' rank positions.
    company_lists: (usize, usize),
    /// The name keys in key order: each normalized name, and its
    /// company's index.
    name_keys: Vec<(StrRef, usize)>,
    codes: CodeMap,
    /// Index sections 3.., which name rank positions and canonical
    /// strings by number and no place in a segment: every encode copies
    /// them verbatim.
    directories: Vec<(usize, usize)>,
    /// Set when this book, or one it was extended from, copied records
    /// out of a mapped segment that failed its checksum: the segment's
    /// id in that book and the error. See [`check_mapped`](Self::check_mapped).
    tainted: Option<(usize, String)>,
}

impl MappedBook {
    /// Open a book over a validated index arena and its segment arenas
    /// (`shard_arenas[i]` must be segment id `i`).
    ///
    /// Structural validation happens here — each segment's id, layout
    /// and count cross-checked against the index, every global number
    /// checked against the record count, every rank position against
    /// the total, every directory bounds-checked, every string place
    /// resolved to a UTF-8 string and the name keys checked for order —
    /// so the per-request accessors can be simple `Option` lookups that
    /// never slice out of bounds.
    ///
    /// # Errors
    /// A typed [`CodecError`] on any structural mismatch, and on an index
    /// of another version than [`INDEX_VERSION`]; integrity checksums
    /// are the caller's job (the generation-store manifest already
    /// hashes every file).
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
        let iv = bin_open(index.bytes(), INDEX_KIND, INDEX_VERSION, false)?;
        if iv.version() != INDEX_VERSION {
            return Err(malformed(format!(
                "index has container version {}, this build reads version {INDEX_VERSION}",
                iv.version()
            )));
        }
        if iv.section_count() > 9 {
            return Err(malformed(format!(
                "index has {} sections",
                iv.section_count()
            )));
        }

        let mut c = Cur::new(iv.section(0)?);
        let n_segments = c.u32()? as usize;
        let n_base = c.u32()? as usize;
        let total = c.u32()? as usize;
        let n_segments = c.count(n_segments, 4)?;
        if n_base == 0 || n_base > n_segments {
            return Err(malformed(format!(
                "index claims {n_base} base shards of {n_segments} segments"
            )));
        }
        if given != n_segments {
            return Err(malformed(format!(
                "index expects {n_segments} segments, got {given}"
            )));
        }
        let mut starts = Vec::with_capacity(n_segments);
        let mut string_starts = Vec::with_capacity(n_segments);
        let mut shards = Vec::with_capacity(n_segments);
        let (mut next, mut string_bytes) = (0usize, 0usize);
        for sid in 0..n_segments {
            let count = c.u32()? as usize;
            let shard = segment(sid, n_base)?;
            if shard.count != count {
                return Err(malformed(format!(
                    "segment {sid} holds {} events, the index says {count}",
                    shard.count
                )));
            }
            starts.push(next);
            next = next.checked_add(count).ok_or(CodecError::Truncated)?;
            string_starts.push(string_bytes);
            string_bytes += shard.strings.1;
            shards.push(shard);
        }
        if next != total {
            return Err(malformed("segment counts do not sum to total".into()));
        }

        let ranking = iv.section_range(1)?;
        check_u32s(iv.section(1)?, "rank table", Some(total), total)?;
        let driver_lists = iv.section_range(4)?;
        check_u32s(iv.section(4)?, "driver lists", None, total)?;
        let company_lists = iv.section_range(6)?;
        check_u32s(iv.section(6)?, "company lists", None, total)?;
        let directories = (3..iv.section_count())
            .map(|i| iv.section_range(i))
            .collect::<Result<Vec<_>, _>>()?;
        // A directory entry names `count` list entries from `off`.
        let past = |off: usize, count: usize, (_, len): (usize, usize)| {
            off.checked_add(count).is_none_or(|end| end > len / 4)
        };

        // The trailing code→key table (absent on builtin-only books)
        // decodes first: the driver directory below names its codes. The
        // keys are interned only once the whole index has validated, so
        // a rejected index registers no driver.
        let mut keys: Vec<(u8, &str)> = Vec::new();
        if iv.section_count() > 8 {
            let mut c = Cur::new(iv.section(8)?);
            let n = c.u32()? as usize;
            let n = c.count(n, 5)?;
            for _ in 0..n {
                keys.push((c.u8()?, c.str_view()?));
            }
        }

        let mut c = Cur::new(iv.section(3)?);
        let n = c.u32()? as usize;
        let n = c.count(n, 9)?;
        let mut driver_codes = Vec::with_capacity(n);
        for _ in 0..n {
            let code = c.u8()?;
            let off = c.u32()? as usize;
            let count = c.u32()? as usize;
            if driver_from_code(code).is_none() && !keys.iter().any(|(c, _)| *c == code) {
                return Err(malformed(format!("unknown driver code {code}")));
            }
            if past(off, count, driver_lists) {
                return Err(malformed(format!("driver code {code} list out of bounds")));
            }
            driver_codes.push((code, off, count));
        }

        // Company directory: each company's list runs on from the last.
        let mut c = Cur::new(iv.section(5)?);
        let n = c.u32()? as usize;
        let n_companies = c.count(n, 16)?;
        let mut entries = Vec::with_capacity(n_companies);
        let mut off = 0usize;
        for i in 0..n_companies {
            let mrr = f64::from_bits(c.u64()?);
            let events = c.u32()? as usize;
            let count = c.u32()? as usize;
            if past(off, count, company_lists) {
                return Err(malformed(format!("company {i} list out of bounds")));
            }
            entries.push((mrr, events, off, count));
            off += count;
        }

        let mut c = Cur::new(iv.section(7)?);
        let n = c.u32()? as usize;
        let n_keys = c.count(n, 4)?;
        let mut key_companies = Vec::with_capacity(n_keys);
        for j in 0..n_keys {
            let company = c.u32()? as usize;
            if company >= n_companies {
                return Err(malformed(format!("name key {j} points past company table")));
            }
            key_companies.push(company);
        }

        // Canonical string `i` (company names, then name keys) lies at
        // place `i` of the segments' string sections laid end to end.
        let places = iv.section(2)?;
        if Some(places.len()) != n_companies.checked_add(n_keys).map(|n| n * 4) {
            return Err(malformed("string place table length".into()));
        }
        let mut places = places
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize)
            .enumerate();
        let mut resolve = || {
            let (i, place) = places.next().expect("one place per string");
            resolve_string(&shards, &string_starts, string_bytes, i, place)
        };
        let mut companies = Vec::with_capacity(n_companies);
        for (mrr, events, off, count) in entries {
            companies.push(CompanyEntry {
                name: resolve()?.0,
                mrr,
                events,
                off,
                count,
            });
        }
        // Name keys are sealed sorted, so lookups binary-search them.
        let mut name_keys = Vec::with_capacity(n_keys);
        let mut last: Option<&[u8]> = None;
        for company in key_companies {
            let (key, bytes) = resolve()?;
            if last.is_some_and(|last| last >= bytes) {
                let key = String::from_utf8_lossy(bytes);
                return Err(malformed(format!("name key {key:?} out of order")));
            }
            last = Some(bytes);
            name_keys.push((key, company));
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
            .filter_map(|(code, off, count)| {
                Some(DriverEntry {
                    driver: codes.resolve(code)?,
                    off,
                    count,
                })
            })
            .collect();

        Ok(Self {
            index,
            shards,
            starts,
            n_base,
            total,
            ranking,
            drivers,
            driver_lists,
            companies,
            company_lists,
            name_keys,
            codes,
            directories,
            tainted: None,
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

    /// Entry `i` of the `u32` table at `(start, len)` in the index.
    fn u32_at(&self, (start, len): (usize, usize), i: usize) -> Option<usize> {
        let at = i.checked_mul(4)?;
        if at.checked_add(4)? > len {
            return None;
        }
        let b = self.index.bytes().get(start + at..start + at + 4)?;
        Some(u32::from_le_bytes(b.try_into().ok()?) as usize)
    }

    /// The `(segment, idx)` of the record with global number `g`: the
    /// last segment whose first number is at most `g`.
    fn locate(&self, g: usize) -> Option<(u32, u32)> {
        let (sid, idx) = locate_in(&self.starts, self.total, g)?;
        Some((sid as u32, idx as u32))
    }

    /// The global number of the record at rank position `p`.
    fn global(&self, p: usize) -> Option<usize> {
        self.u32_at(self.ranking, p)
    }

    /// The `(segment, idx)` of the record at rank position `p`.
    fn rank_ref(&self, p: usize) -> Option<(u32, u32)> {
        self.locate(self.global(p)?)
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
    fn event(&self, at: (u32, u32)) -> Option<EventView<'_>> {
        self.decode(self.record(at)?)
    }

    /// The event at rank position `p`, if structurally valid.
    fn event_ranked(&self, p: usize) -> Option<EventView<'_>> {
        self.event(self.rank_ref(p)?)
    }

    /// Every resolvable record in global rank order, with its rank
    /// position.
    fn ranked_records(&self) -> impl Iterator<Item = (usize, &[u8])> {
        (0..self.total).filter_map(|p| Some((p, self.record(self.rank_ref(p)?)?)))
    }

    /// The events at the rank positions `off..off + n` of `lists`.
    fn events_listed(&self, lists: (usize, usize), off: usize, n: usize) -> Vec<EventView<'_>> {
        (off..off + n)
            .filter_map(|i| self.u32_at(lists, i))
            .filter_map(|p| self.event_ranked(p))
            .collect()
    }

    /// This book re-encoded into `layout`: a new global ranking, and
    /// every other index section copied.
    fn reseal(&self, layout: Layout, n_base: u32) -> EncodedBook {
        let directories = self
            .directories
            .iter()
            .map(|&range| Cow::Borrowed(self.index_bytes(range)));
        EncodedBook {
            index: seal_index(&layout, n_base, directories),
            segments: layout.segments,
        }
    }

    /// The top `top` events across all drivers (best first).
    #[must_use]
    pub fn top(&self, top: usize) -> Vec<EventView<'_>> {
        (0..top.min(self.total))
            .filter_map(|p| self.event_ranked(p))
            .collect()
    }

    /// The top `top` events for one driver (best first).
    #[must_use]
    pub fn top_for(&self, driver: SalesDriver, top: usize) -> Vec<EventView<'_>> {
        self.drivers
            .iter()
            .find(|d| d.driver == driver)
            .map(|d| self.events_listed(self.driver_lists, d.off, d.count.min(top)))
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

    /// The bytes of a canonical string, checked at open.
    fn str_bytes(&self, s: StrRef) -> &[u8] {
        self.shards
            .get(s.segment as usize)
            .and_then(|seg| seg.arena.bytes().get(s.start..s.start + s.len as usize))
            .unwrap_or_default()
    }

    fn str_of(&self, s: StrRef) -> &str {
        std::str::from_utf8(self.str_bytes(s)).unwrap_or_default()
    }

    /// The book's canonical strings in number order: each company's name
    /// in MRR order, then each name key in key order. Every one is held
    /// by a string section of the book's segments.
    pub fn strings(&self) -> impl Iterator<Item = &str> {
        let names = self.companies.iter().map(|c| c.name);
        let keys = self.name_keys.iter().map(|&(k, _)| k);
        names.chain(keys).map(|s| self.str_of(s))
    }

    fn company_ref(&self, entry: &CompanyEntry) -> CompanyRef<'_> {
        CompanyRef {
            company: self.str_of(entry.name),
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
            .binary_search_by(|&(k, _)| self.str_bytes(k).cmp(key.as_bytes()))
            .ok()?;
        let entry = self.companies.get(self.name_keys[at].1)?;
        let events = self.events_listed(self.company_lists, entry.off, entry.count);
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
    ///    written by the index writer sealing uses. They name rank
    ///    positions, so no layout changes them;
    /// 3. **layout** — the merged records (this book's segments plus the
    ///    new ones) are laid out by the rules of [`encode_append`] against
    ///    this book's own segments, else cold as by [`encode_book`] with
    ///    this book's base shard count: the rules a publish applies
    ///    against the previous generation on disk. Only the global
    ///    ranking depends on it. A reused segment stays the same
    ///    `Arc<Arena>`, mapped or heap; deltas merge and the book
    ///    re-encodes cold as on disk, so the segment count stays bounded
    ///    however many cycles a daemon runs.
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
        let (old_total, fresh_id) = match shared {
            true => (self.total, self.shards.len() as u32),
            false => (0, 0),
        };

        // 1. Merge. Equal keys keep this book's events first, as a stable
        // sort of its events followed by the new ones would.
        let mut old = (0..old_total)
            .filter_map(|p| self.rank_ref(p))
            .filter_map(|at| Some((at, self.event(at)?)))
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

        // 2. Directories, as rank positions.
        let (by_driver, ranking) = leads::directories(&mentions);
        drop(mentions);
        drop(events);

        // 3. Layout, by the rules a publish applies on disk.
        let ranked: Vec<(usize, &[u8])> = order
            .iter()
            .enumerate()
            .map(|(p, &at)| {
                let rec = match at {
                    (sid, idx) if sid == fresh_id => fresh.get(idx as usize),
                    at => self.record(at).expect("checked by shares_records"),
                };
                (p, rec)
            })
            .collect();
        let n_base = self.n_base as u32;
        let prev: Vec<Option<SealedSegment>> = self.shards.iter().cloned().map(Some).collect();
        let strings = canonical_strings(&ranking);
        let total = order.len();
        let layout = append_layout(&ranked, total, n_base, &prev, &strings).unwrap_or_else(|| {
            let codes = CodeMap::of(by_driver.iter().map(|(d, _)| *d));
            cold_layout(ranked.iter().copied(), total, &codes, n_base, &strings)
        });
        let directories = directory_sections(&by_driver, &ranking);
        let index = seal_index(&layout, n_base, directories.into_iter().map(Cow::Owned));
        let kept: Vec<bool> = layout
            .segments
            .iter()
            .map(|s| *s == Segment::Linked)
            .collect();
        // A reused segment keeps its id and layout: it stays as opened.
        let given = layout.segments.len();
        let mut segments = layout.segments.into_iter();
        let mut book = MappedBook::assemble(Arc::new(Arena::Heap(index)), given, |sid, n_base| {
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
        .expect("an extended book opens");
        // The records of every segment not reused were copied out of it,
        // and a mapped one's copies are only as sound as its pages.
        book.tainted = self.tainted.clone().or_else(|| {
            self.shards
                .iter()
                .enumerate()
                .filter(|&(sid, _)| kept.get(sid) != Some(&true))
                .find_map(|(sid, seg)| seg.check_mapped().err().map(|e| (sid, e)))
        });
        book
    }

    /// Check that sealing this book copies no bytes that a file changed
    /// in place under its mapping since the book opened it: every mapped
    /// segment for which `vouched(sid)` is false passes its container
    /// checksum, and no extend behind this book copied records out of
    /// one that failed. A caller vouches for a segment whose bytes it
    /// has just checked itself.
    ///
    /// # Errors
    /// The id of the failing segment, in this book or the book an
    /// extend copied it from, and why it failed.
    pub fn check_mapped(&self, vouched: impl Fn(usize) -> bool) -> Result<(), (usize, String)> {
        if let Some(tainted) = &self.tainted {
            return Err(tainted.clone());
        }
        for (sid, seg) in self.shards.iter().enumerate() {
            if !vouched(sid) {
                seg.check_mapped().map_err(|e| (sid, e))?;
            }
        }
        Ok(())
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
        let mut seen = vec![false; self.total];
        (0..self.total).all(|p| {
            self.global(p)
                .filter(|&g| self.locate(g).and_then(|at| self.record(at)).is_some())
                .is_some_and(|g| !std::mem::replace(&mut seen[g], true))
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
        // Builtin-only books encode exactly eight sections.
        let enc = encode_book(&handle(sample_events(40)), 4);
        let iv = bin_open(&enc.index, INDEX_KIND, INDEX_VERSION, true).expect("open");
        assert_eq!(iv.section_count(), 8);

        // A custom driver adds the trailing code table, and the mapped
        // book resolves its events back to the registered DriverId.
        let custom =
            SalesDriver::register("test_leads2_custom", "pilot programs").expect("register");
        let mut events = sample_events(12);
        events.push(event(custom, 90, 0.91, &["Acme 0"]));
        events.push(event(custom, 91, 0.81, &[]));
        let book = LeadBook::build(events);
        let enc = encode_book(&BookHandle::from(book.clone()), 4);
        let iv = bin_open(&enc.index, INDEX_KIND, INDEX_VERSION, true).expect("open");
        assert_eq!(
            iv.section_count(),
            9,
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
    fn cold_encode_matches_its_pinned_digest() {
        // A cold encode of this book, as the format with string sections
        // seals it: a change to any segment or index byte fails here.
        let enc = encode_book(&handle(sample_events(120)), 8);
        let segments = resolve(&[], &enc).concat();
        assert_eq!(
            (fnv1a64(&segments), segments.len()),
            (0x48a6_71cb_13c8_e60c, 11_178)
        );
        // The index over them.
        assert_eq!(
            (fnv1a64(&enc.index), enc.index.len()),
            (0x9271_9517_5cdb_c9ed, 2_115)
        );
    }

    #[test]
    fn clean_shards_are_byte_identical_under_extend() {
        let n_shards = 8;
        let base_events = sample_events(60);
        let base_book = handle(base_events.clone());
        let base = resolve(&[], &encode_book(&base_book, n_shards));

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
        let ext_book = handle(extended_events);
        let ext = resolve(&[], &encode_book(&ext_book, n_shards));

        // The new company's name and key each land in the shard of their
        // hash; no other string changes.
        let strings = |b: &BookHandle| -> Vec<String> { b.strings().map(String::from).collect() };
        let (old, new) = (strings(&base_book), strings(&ext_book));
        let added: Vec<&String> = new.iter().filter(|s| !old.contains(s)).collect();
        assert_eq!(added, ["Hotspot Inc", "hotspot"]);
        assert!(old.iter().all(|s| new.contains(s)));
        let mut dirty: Vec<usize> = added
            .iter()
            .map(|s| (fnv1a64(s.as_bytes()) % u64::from(n_shards)) as usize)
            .chain([hot])
            .collect();
        dirty.sort_unstable();
        dirty.dedup();

        assert_eq!(base.len(), ext.len());
        // Every shard that received no new event and no new string must
        // be bit-identical.
        for sid in 0..base.len() {
            assert_eq!(base[sid] == ext[sid], !dirty.contains(&sid), "shard {sid}");
        }
        assert!(dirty.len() < base.len());
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

        // A reader of the layout before string sections (version 4)
        // rejects base shards, deltas and the index by version alone.
        let old_reader = |bytes: &[u8], kind| bin_open(bytes, kind, 4, true).map(|v| v.version());
        for (bytes, kind, version) in [
            (&enc.index, INDEX_KIND, INDEX_VERSION),
            (&segments[0], SHARD_KIND, LEADS2_VERSION),
            (&segments[8], SHARD_KIND, LEADS2_VERSION),
        ] {
            assert!(matches!(
                old_reader(bytes, kind),
                Err(CodecError::FutureVersion { version: v, .. }) if v == version
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
            assert_strings_sealed_once(&segments);
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
                exercise(&m);
            }
        }

        // The string sections and the place table, checksums re-sealed so
        // every change reaches the structural checks: each byte flipped,
        // set to a bare continuation byte (a truncated or overlong
        // length) or to a zero.
        let segments = resolve(&[], &enc);
        let mut targets: Vec<(Option<usize>, usize)> = Vec::new();
        for (sid, seg) in segments.iter().enumerate() {
            let view = bin_open(seg, SHARD_KIND, LEADS2_VERSION, true).expect("segment");
            let (start, len) = view.section_range(2).expect("strings");
            targets.extend((start..start + len).map(|at| (Some(sid), at)));
        }
        let view = bin_open(&enc.index, INDEX_KIND, INDEX_VERSION, true).expect("index");
        let (start, len) = view.section_range(2).expect("places");
        targets.extend((start..start + len).map(|at| (None, at)));
        let (mut opened, mut refused) = (0, 0);
        for (i, &(sid, at)) in targets.iter().enumerate() {
            let mut files = segments.clone();
            files.insert(0, enc.index.clone());
            let file = &mut files[sid.map_or(0, |s| s + 1)];
            file[at] = match i % 3 {
                0 => file[at] ^ 1 << (i % 8),
                1 => 0x80,
                _ => 0,
            };
            let sum = fnv1a64(&file[etap_persist::binfmt::HEADER_LEN..]);
            let checksum = etap_persist::binfmt::HEADER_LEN - 8;
            file[checksum..checksum + 8].copy_from_slice(&sum.to_le_bytes());
            match MappedBook::open(Arc::new(Arena::Heap(files[0].clone())), arenas(&files[1..])) {
                Ok(m) => {
                    opened += 1;
                    exercise(&m);
                }
                Err(_) => refused += 1,
            }
        }
        assert!(
            opened > 50 && refused > 50,
            "opened {opened}, refused {refused}"
        );
    }

    /// Ask `book` every query the server and the store ask, and extend
    /// it: each answers or returns nothing, none panics.
    fn exercise(book: &MappedBook) {
        let _ = (book.top(book.len()), book.events_owned());
        for d in SalesDriver::ALL {
            let _ = (book.driver_total(d), book.top_for(d, usize::MAX));
        }
        let names: Vec<String> = book
            .companies_top(usize::MAX)
            .iter()
            .map(|c| c.company.to_string())
            .chain(book.strings().map(String::from))
            .collect();
        for name in names
            .iter()
            .map(String::as_str)
            .chain(["Acme 0", "zed 1", ""])
        {
            let _ = book.company_events(name);
        }
        let _ = encode_book(book, 3);
        let extended = book.extend(poll_events(9_000, 5));
        let _ = (extended.companies_top(usize::MAX), extended.top(3));
    }

    /// `index` re-sealed at `version` after `edit` changed its sections.
    fn reseal_index(index: &[u8], version: u32, edit: impl FnOnce(&mut [Vec<u8>])) -> Vec<u8> {
        let iv = bin_open(index, INDEX_KIND, INDEX_VERSION, true).expect("index");
        let mut sections: Vec<Vec<u8>> = (0..iv.section_count())
            .map(|i| iv.section(i).expect("section").to_vec())
            .collect();
        edit(&mut sections);
        let mut w = BinWriter::new(INDEX_KIND, version);
        for s in sections {
            w.section(s);
        }
        w.finish()
    }

    fn set_u32(section: &mut [u8], at: usize, n: u32) {
        section[at..at + 4].copy_from_slice(&n.to_le_bytes());
    }

    #[test]
    fn index_refs_and_directories_are_checked_at_open() {
        let enc = encode_book(&handle(sample_events(30)), 4);
        let shards = arenas(&resolve(&[], &enc));
        let open = |index: Vec<u8>| MappedBook::open(Arc::new(Arena::Heap(index)), shards.clone());
        let refused = |what: &str, index: Vec<u8>| match open(index) {
            Err(CodecError::Malformed { msg, .. }) => msg,
            other => panic!("{what}: expected a malformed index, got {other:?}"),
        };
        assert!(open(enc.index.clone()).is_ok());

        // A global number at the record count, in the rank table.
        let msg = refused(
            "rank entry",
            reseal_index(&enc.index, INDEX_VERSION, |s| set_u32(&mut s[1], 8, 30)),
        );
        assert!(msg.contains("rank table entry 2 is 30"), "{msg}");
        // A rank position at the total, in each list blob.
        for (section, what) in [(4, "driver lists"), (6, "company lists")] {
            let msg = refused(
                what,
                reseal_index(&enc.index, INDEX_VERSION, |s| {
                    set_u32(&mut s[section], 4, 30)
                }),
            );
            assert!(msg.contains(&format!("{what} entry 1 is 30")), "{msg}");
        }
        // A driver entry whose list runs one past its blob: the first
        // entry's count, after its code and offset.
        let msg = refused(
            "driver directory",
            reseal_index(&enc.index, INDEX_VERSION, |s| {
                let (n, off) = (s[4].len() / 4, 4 + 1);
                set_u32(&mut s[3], off + 4, n as u32 + 1);
            }),
        );
        assert!(msg.contains("list out of bounds"), "{msg}");
        // A company entry whose list runs one past its blob: the first
        // entry's count, after its mrr and event count.
        let msg = refused(
            "company directory",
            reseal_index(&enc.index, INDEX_VERSION, |s| {
                let n = s[6].len() / 4;
                set_u32(&mut s[5], 4 + 8 + 4, n as u32 + 1);
            }),
        );
        assert!(msg.contains("list out of bounds"), "{msg}");
        // A name key naming the company count.
        let msg = refused(
            "name key",
            reseal_index(&enc.index, INDEX_VERSION, |s| {
                let companies = u32::from_le_bytes(s[5][..4].try_into().unwrap());
                set_u32(&mut s[7], 4, companies);
            }),
        );
        assert!(msg.contains("points past company table"), "{msg}");
        // A string place at the end of the string sections, and a place
        // table one entry short.
        let bytes: usize = shards
            .iter()
            .map(|a| {
                let seg = bin_open(a.bytes(), SHARD_KIND, LEADS2_VERSION, true).expect("segment");
                seg.section_range(2).expect("strings").1
            })
            .sum();
        let msg = refused(
            "string place",
            reseal_index(&enc.index, INDEX_VERSION, |s| {
                set_u32(&mut s[2], 0, bytes as u32)
            }),
        );
        assert!(msg.contains(&format!("string 0 place {bytes}")), "{msg}");
        let msg = refused(
            "string place table",
            reseal_index(&enc.index, INDEX_VERSION, |s| s[2].truncate(s[2].len() - 4)),
        );
        assert!(msg.contains("string place table length"), "{msg}");
        // Two name keys out of order: the places of the first two swapped.
        let msg = refused(
            "key order",
            reseal_index(&enc.index, INDEX_VERSION, |s| {
                let companies = u32::from_le_bytes(s[5][..4].try_into().unwrap()) as usize;
                let at = 4 * companies;
                let first: [u8; 4] = s[2][at..at + 4].try_into().unwrap();
                s[2].copy_within(at + 4..at + 8, at);
                s[2][at + 4..at + 8].copy_from_slice(&first);
            }),
        );
        assert!(msg.contains("out of order"), "{msg}");
        // An index of the version-4 layout opens nowhere.
        let msg = refused("version 4", reseal_index(&enc.index, 4, |_| {}));
        assert!(msg.contains("container version 4"), "{msg}");
    }

    #[test]
    fn index_width_follows_the_layout_formula() {
        // A later change that widens any index field, or moves a string
        // byte back into the index, fails here.
        let book = LeadBook::build(sample_events(120));
        let ranking = book.ranking();
        let events = book.len();
        let drivers = book.by_driver_raw().len();
        let companies = ranking.companies.len();
        let mentions: usize = (0..companies).map(|i| ranking.events_of(i).len()).sum();
        let keys = ranking.name_keys.len();
        assert_eq!(
            (events, drivers, companies, mentions, keys),
            (120, 3, 15, 120, 15)
        );
        for n_segments in [1, 8] {
            let enc = encode_book(&BookHandle::from(book.clone()), n_segments as u32);
            let formula = 44 + 16 * 8 // container header + section table
                + 12 + 4 * n_segments // s0: meta, a count per segment
                + 4 * events // s1: a global number per rank position
                + 4 * (companies + keys) // s2: a place per canonical string
                + 4 + 9 * drivers + 4 * events // s3+s4: code, off, count; positions
                + 4 + (8 + 4 + 4) * companies // s5: mrr, events, count
                + 4 * mentions // s6: a position per company mention
                + 4 + 4 * keys; // s7: the company of each key
            assert_eq!(enc.index.len(), formula, "{n_segments} segments");
        }
    }

    /// The string section of a sealed segment, entry by entry.
    fn section_strings(segment: &[u8]) -> Vec<String> {
        let view = bin_open(segment, SHARD_KIND, LEADS2_VERSION, true).expect("segment");
        let mut c = Cur::new(view.section(2).expect("strings"));
        let mut out = Vec::new();
        while c.at < c.b.len() {
            let n = c.varint().expect("length") as usize;
            out.push(String::from_utf8(c.bytes(n).expect("bytes").to_vec()).expect("UTF-8"));
        }
        out
    }

    /// Every string of every segment: each at most once, each section in
    /// byte order.
    fn assert_strings_sealed_once(segments: &[Vec<u8>]) {
        let mut all: Vec<String> = Vec::new();
        for (sid, segment) in segments.iter().enumerate() {
            let strings = section_strings(segment);
            assert!(strings.windows(2).all(|w| w[0] < w[1]), "segment {sid}");
            all.extend(strings);
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "a string sealed twice");
    }

    #[test]
    fn varint_lengths_are_minimal_and_bounded() {
        let read = |b: &[u8]| Cur::new(b).varint();
        for n in [0usize, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as usize] {
            let mut out = Vec::new();
            put_varint(&mut out, n);
            assert_eq!(read(&out).ok(), Some(n as u32), "{n}");
            assert_eq!(out.len(), [1, 2, 3, 4, 5][(n.max(1).ilog2() / 7) as usize]);
        }
        // Truncated: a continuation bit with nothing after it.
        assert!(matches!(read(&[0x80]), Err(CodecError::Truncated)));
        assert!(matches!(read(&[]), Err(CodecError::Truncated)));
        // Overlong: a trailing zero byte, a sixth byte, a value past u32.
        for overlong in [
            &[0x80, 0x00][..],
            &[0x81, 0x80, 0x00],
            &[0x80, 0x80, 0x80, 0x80, 0x80, 0x01],
            &[0xff, 0xff, 0xff, 0xff, 0x1f],
        ] {
            assert!(
                matches!(read(overlong), Err(CodecError::Malformed { ref msg, .. }) if msg.contains("overlong")),
                "{overlong:?}"
            );
        }
    }

    #[test]
    fn known_companies_extend_with_an_empty_string_section() {
        let book = handle(sample_events(120));
        let enc = encode_book(&book, 4);
        let cold = resolve(&[], &enc);
        let mapped = open_segments(&enc.index, &cold);
        // Low scores, and surfaces the book already holds: no company's
        // canonical display moves, and no new key appears.
        let known = ["Acme 3", "Zed 1", "Nadir 2"];
        let poll: Vec<TriggerEvent> = (0..6)
            .map(|i| event(SalesDriver::ALL[i % 3], 2_000 + i, 0.1, &[known[i % 3]]))
            .collect();
        let ext = mapped.extend(poll);
        assert_eq!(ext.shard_count(), 5, "one new delta");
        let delta = ext.segments().last().expect("delta").bytes().to_vec();
        assert!(section_strings(&delta).is_empty());
        let strings = |b: &MappedBook| {
            let mut all: Vec<String> = b.strings().map(String::from).collect();
            all.sort_unstable();
            all
        };
        assert_eq!(strings(&ext), strings(&mapped));
    }

    #[test]
    fn a_changed_canonical_display_seals_exactly_that_string() {
        let events = sample_events(120);
        let enc = encode_book(&handle(events.clone()), 4);
        let cold = resolve(&[], &enc);
        let mapped = open_segments(&enc.index, &cold);
        // The first mention of key "acme 0" (best score, first driver)
        // now reads "ACME 0 Inc", so that display becomes its name.
        let first = SalesDriver::MergersAcquisitions;
        let poll = vec![event(first, 3_000, 0.999, &["ACME 0 Inc"])];
        let ext = mapped.extend(poll.clone());
        let delta = ext.segments().last().expect("delta").bytes().to_vec();
        assert_eq!(section_strings(&delta), ["ACME 0 Inc"]);
        let (company, _) = ext.company_events("Acme 0").expect("acme 0");
        assert_eq!(company.company, "ACME 0 Inc");
        assert!(!ext.strings().any(|s| s == "Acme 0"));

        // The old display stays in the base shard that holds it, which
        // the extend shares whole; a cold re-encode drops it.
        let holder = (fnv1a64(b"Acme 0") % 4) as usize;
        assert!(section_strings(&cold[holder]).contains(&"Acme 0".to_string()));
        assert!(Arc::ptr_eq(
            mapped.segments().nth(holder).expect("base"),
            ext.segments().nth(holder).expect("base")
        ));
        let recold = resolve(&[], &encode_book(&ext, 4));
        assert!(!recold
            .iter()
            .any(|s| section_strings(s).contains(&"Acme 0".to_string())));

        // On disk the append seals the same delta.
        let mut all = events;
        all.extend(poll);
        let disk = append(&cold, all, 4).expect("append");
        assert!(disk.segments[..4].iter().all(|s| *s == Segment::Linked));
        assert_eq!(disk.segments[4], Segment::Written(delta));
    }

    #[test]
    fn segments_and_indexes_before_string_sections_fail_typed() {
        let enc = encode_book(&handle(sample_events(30)), 4);
        let segments = resolve(&[], &enc);
        // The same sections under an older container version.
        let downgrade = |bytes: &[u8], kind: &str, version: u32| {
            let view = bin_open(bytes, kind, LEADS2_VERSION, true).expect("container");
            let mut w = BinWriter::new(kind, version);
            for i in 0..view.section_count() {
                w.section(view.section(i).expect("section").to_vec());
            }
            w.finish()
        };
        for version in [2, 3, 4] {
            let old = downgrade(&segments[1], SHARD_KIND, version);
            let err = segment(&old, 1, 4).expect_err("an old segment");
            assert!(err
                .to_string()
                .contains(&format!("container version {version}")));
            let mut files = segments.clone();
            files[1] = old;
            assert!(
                MappedBook::open(Arc::new(Arena::Heap(enc.index.clone())), arenas(&files)).is_err()
            );
            // An append reuses no such segment.
            let prev: Vec<Option<SealedSegment>> = files
                .iter()
                .enumerate()
                .map(|(sid, b)| segment(b, sid, 4).ok())
                .collect();
            let again =
                encode_append(&open_segments(&enc.index, &segments), 4, &prev).expect("append");
            assert!(matches!(again.segments[1], Segment::Written(_)));
        }
        let old = downgrade(&enc.index, INDEX_KIND, 4);
        assert!(matches!(
            MappedBook::open(Arc::new(Arena::Heap(old)), arenas(&segments)),
            Err(CodecError::Malformed { ref msg, .. }) if msg.contains("container version 4")
        ));
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
