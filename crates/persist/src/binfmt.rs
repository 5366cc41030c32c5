//! The `ETAPBIN` binary container: the on-disk frame every binary
//! artifact (the `LEADS v2` shard and index files) is wrapped in.
//!
//! The text codec in the crate root optimizes for greppability and
//! hand-editing; this container optimizes for **zero-copy serving**: a
//! sealed file can be memory-mapped and read in place, with no parse
//! step between the page cache and a served response. Layout:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"ETAPBIN\n"
//! 8       12    kind   ASCII, space-padded (e.g. "LEADS       ")
//! 20      4     version        u32 LE
//! 24      4     section_count  u32 LE
//! 28      8     payload_len    u64 LE (bytes after the section table)
//! 36      8     checksum       u64 LE (FNV-1a 64 of table + payload)
//! 44      16×n  section table: (offset u64 LE, len u64 LE) per section,
//!               offsets relative to the payload start
//! 44+16n  …     payload (sections laid end to end)
//! ```
//!
//! Rules (documented for readers in DESIGN.md §12):
//!
//! * **Everything is little-endian.** The servers this targets are
//!   x86-64/aarch64; a big-endian reader must byte-swap.
//! * **No alignment guarantees.** All multi-byte reads go through
//!   `from_le_bytes` on byte slices, so sections may start at any
//!   offset and the file can be mapped at any address.
//! * **Validation order**: bounds first (truncation), then magic/kind,
//!   then version, then checksum — mirroring the text codec's
//!   corruption-before-content discipline.

use std::borrow::Cow;

use crate::{fnv1a64, CodecError};

/// Container magic, chosen to be self-identifying in a hex dump.
pub const MAGIC: &[u8; 8] = b"ETAPBIN\n";
/// Fixed width of the space-padded kind field.
pub const KIND_LEN: usize = 12;
/// Header bytes before the section table.
pub const HEADER_LEN: usize = 8 + KIND_LEN + 4 + 4 + 8 + 8;

/// Builds one container: declare sections, then [`finish`](Self::finish).
/// A section may borrow its bytes, so a re-encode copies them straight
/// from the container it reads into the sealed output.
#[derive(Debug)]
pub struct BinWriter<'a> {
    kind: String,
    version: u32,
    sections: Vec<Cow<'a, [u8]>>,
}

impl<'a> BinWriter<'a> {
    /// Start a container of `kind` (≤ 12 ASCII bytes) at `version`.
    #[must_use]
    pub fn new(kind: &str, version: u32) -> Self {
        debug_assert!(
            kind.len() <= KIND_LEN && kind.bytes().all(|b| b.is_ascii_graphic()),
            "kind must be ≤ {KIND_LEN} printable ASCII bytes: {kind:?}"
        );
        Self {
            kind: kind.to_string(),
            version,
            sections: Vec::new(),
        }
    }

    /// Append one section; its index is the order of calls.
    pub fn section(&mut self, bytes: impl Into<Cow<'a, [u8]>>) -> &mut Self {
        self.sections.push(bytes.into());
        self
    }

    /// Seal the container: header + section table + payload + checksum.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.seal(None::<(usize, fn(&mut Vec<u8>))>)
    }

    /// Seal the container with one more, final section of exactly `len`
    /// bytes, which `write` appends straight into the output buffer, so
    /// the bytes of that section are never held twice.
    ///
    /// # Panics
    /// If `write` appends other than `len` bytes.
    #[must_use]
    pub fn finish_with(self, len: usize, write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        self.seal(Some((len, write)))
    }

    fn seal(self, last: Option<(usize, impl FnOnce(&mut Vec<u8>))>) -> Vec<u8> {
        let lens: Vec<usize> = self
            .sections
            .iter()
            .map(|s| s.len())
            .chain(last.as_ref().map(|l| l.0))
            .collect();
        let payload_len: usize = lens.iter().sum();
        let mut out = Vec::with_capacity(HEADER_LEN + lens.len() * 16 + payload_len);
        out.extend_from_slice(MAGIC);
        let mut kind = [b' '; KIND_LEN];
        kind[..self.kind.len()].copy_from_slice(self.kind.as_bytes());
        out.extend_from_slice(&kind);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&(lens.len() as u32).to_le_bytes());
        out.extend_from_slice(&(payload_len as u64).to_le_bytes());
        out.extend_from_slice(&[0; 8]); // checksum, filled in below
        let mut off = 0u64;
        for &len in &lens {
            out.extend_from_slice(&off.to_le_bytes());
            out.extend_from_slice(&(len as u64).to_le_bytes());
            off += len as u64;
        }
        for s in &self.sections {
            out.extend_from_slice(s);
        }
        if let Some((len, write)) = last {
            let start = out.len();
            write(&mut out);
            assert_eq!(out.len() - start, len, "final section length");
        }
        // Checksum covers the section table and payload: the parts the
        // header's fixed fields cannot structurally validate.
        let checksum = fnv1a64(&out[HEADER_LEN..]);
        out[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
        out
    }
}

/// A validated read-only view over a container's bytes. Holds only
/// offsets — no copies — so it is as cheap over a 100 MB mapping as
/// over a 100-byte vector.
#[derive(Debug)]
pub struct BinView<'a> {
    bytes: &'a [u8],
    version: u32,
    /// Absolute `(start, len)` per section, bounds-checked at open.
    sections: Vec<(usize, usize)>,
}

impl<'a> BinView<'a> {
    /// Container format version.
    #[must_use]
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Number of sections.
    #[must_use]
    pub fn section_count(&self) -> usize {
        self.sections.len()
    }

    /// Section `i` as a byte slice into the original buffer.
    ///
    /// # Errors
    /// [`CodecError::Malformed`] when the section does not exist (the
    /// bounds themselves were validated at open).
    pub fn section(&self, i: usize) -> Result<&'a [u8], CodecError> {
        let (start, len) = self.section_range(i)?;
        Ok(&self.bytes[start..start + len])
    }

    /// Section `i`'s `(start, len)` within the original buffer — for
    /// callers that hold the buffer elsewhere (e.g. an `Arc<Arena>`)
    /// and want ranges instead of borrowed slices.
    ///
    /// # Errors
    /// [`CodecError::Malformed`] when the section does not exist.
    pub fn section_range(&self, i: usize) -> Result<(usize, usize), CodecError> {
        self.sections.get(i).copied().ok_or(CodecError::Malformed {
            line: 0,
            msg: format!("missing section {i} (file has {})", self.sections.len()),
        })
    }
}

/// Open and validate a container over `bytes` without copying.
///
/// `verify_checksum` controls the FNV pass over table + payload: the
/// generation store skips it here because its manifest already verified
/// the same bytes (one full-file hash per load, not two).
///
/// # Errors
/// [`CodecError::Truncated`] on any bounds failure,
/// [`CodecError::BadHeader`] on magic/kind mismatch,
/// [`CodecError::FutureVersion`] and [`CodecError::BadChecksum`] as
/// named.
pub fn bin_open<'a>(
    bytes: &'a [u8],
    kind: &str,
    max_version: u32,
    verify_checksum: bool,
) -> Result<BinView<'a>, CodecError> {
    if bytes.len() < HEADER_LEN {
        return Err(CodecError::Truncated);
    }
    let expected_header = || CodecError::BadHeader {
        expected: kind.to_string(),
        found: String::from_utf8_lossy(&bytes[..HEADER_LEN.min(bytes.len()).min(20)]).into_owned(),
    };
    if &bytes[..8] != MAGIC {
        return Err(expected_header());
    }
    let found_kind = std::str::from_utf8(&bytes[8..8 + KIND_LEN])
        .map(str::trim_end)
        .map_err(|_| expected_header())?;
    if found_kind != kind {
        return Err(expected_header());
    }
    let rd_u32 = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap_or([0; 4]));
    let rd_u64 = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap_or([0; 8]));
    let version = rd_u32(20);
    if version > max_version {
        return Err(CodecError::FutureVersion {
            kind: kind.to_string(),
            version,
            supported: max_version,
        });
    }
    let section_count = rd_u32(24) as usize;
    let payload_len = rd_u64(28);
    let stored = rd_u64(36);

    let table_len = section_count.checked_mul(16).ok_or(CodecError::Truncated)?;
    let payload_start = HEADER_LEN
        .checked_add(table_len)
        .ok_or(CodecError::Truncated)?;
    let expected_total = (payload_start as u64)
        .checked_add(payload_len)
        .ok_or(CodecError::Truncated)?;
    if bytes.len() as u64 != expected_total {
        return Err(CodecError::Truncated);
    }
    if verify_checksum {
        let computed = fnv1a64(&bytes[HEADER_LEN..]);
        if computed != stored {
            return Err(CodecError::BadChecksum { stored, computed });
        }
    }

    let mut sections = Vec::with_capacity(section_count);
    let mut expected_off = 0u64;
    for i in 0..section_count {
        let at = HEADER_LEN + i * 16;
        let off = rd_u64(at);
        let len = rd_u64(at + 8);
        // Sections must tile the payload in order: this single pass
        // makes every later `section(i)` slice provably in bounds.
        if off != expected_off || off.checked_add(len).is_none_or(|end| end > payload_len) {
            return Err(CodecError::Truncated);
        }
        expected_off = off + len;
        sections.push((payload_start + off as usize, len as usize));
    }
    if expected_off != payload_len {
        return Err(CodecError::Truncated);
    }

    Ok(BinView {
        bytes,
        version,
        sections,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = BinWriter::new("TEST", 2);
        w.section(vec![1, 2, 3]);
        w.section(Vec::new());
        w.section(b"hello world".to_vec());
        w.finish()
    }

    #[test]
    fn roundtrip_preserves_sections() {
        let bytes = sample();
        let v = bin_open(&bytes, "TEST", 2, true).expect("open");
        assert_eq!(v.version(), 2);
        assert_eq!(v.section_count(), 3);
        assert_eq!(v.section(0).unwrap(), &[1, 2, 3]);
        assert_eq!(v.section(1).unwrap(), b"");
        assert_eq!(v.section(2).unwrap(), b"hello world");
        assert!(v.section(3).is_err());
    }

    #[test]
    fn wrong_kind_and_future_version_rejected() {
        let bytes = sample();
        assert!(matches!(
            bin_open(&bytes, "OTHER", 2, true),
            Err(CodecError::BadHeader { .. })
        ));
        assert!(matches!(
            bin_open(&bytes, "TEST", 1, true),
            Err(CodecError::FutureVersion { version: 2, .. })
        ));
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            let err = bin_open(&bytes[..cut], "TEST", 2, true).expect_err("truncated");
            assert!(
                matches!(
                    err,
                    CodecError::Truncated
                        | CodecError::BadHeader { .. }
                        | CodecError::BadChecksum { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn bit_flips_fail_checksum() {
        let bytes = sample();
        // Flip one bit in every byte after the checksum field; each
        // corrupted copy must fail (never panic, never mis-read).
        for at in HEADER_LEN..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 0x40;
            assert!(
                matches!(
                    bin_open(&corrupt, "TEST", 2, true),
                    Err(CodecError::BadChecksum { .. }) | Err(CodecError::Truncated)
                ),
                "flip at {at} undetected"
            );
        }
    }

    #[test]
    fn crafted_section_table_never_reads_out_of_bounds() {
        // Rewrite the first section's length to extend past the payload
        // and recompute the checksum: structural validation must reject
        // it even though the checksum matches.
        let mut bytes = sample();
        let table_at = HEADER_LEN;
        bytes[table_at + 8..table_at + 16].copy_from_slice(&u64::MAX.to_le_bytes());
        let sum = fnv1a64(&bytes[HEADER_LEN..]);
        bytes[36..44].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            bin_open(&bytes, "TEST", 2, true),
            Err(CodecError::Truncated)
        ));
    }

    #[test]
    fn empty_container_roundtrips() {
        let bytes = BinWriter::new("E", 1).finish();
        let v = bin_open(&bytes, "E", 1, true).expect("open");
        assert_eq!(v.section_count(), 0);
    }
}
