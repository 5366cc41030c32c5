//! FNV-1a 64 — the workspace's one deterministic, non-cryptographic hash.
//!
//! Stable across runs and platforms, so it serves as the persistence
//! checksum (`etap_persist` re-exports [`fnv1a64`]), the per-point fault
//! stream seed, and the hasher of the vocabulary and alias maps. Those
//! maps hash short strings from our own tokenizer, not an adversary's,
//! so the cheap hash is safe there and measurably faster per lookup than
//! the DoS-hardened SipHash default.

use std::hash::Hasher;

/// FNV-1a 64 as a [`Hasher`] (use with `BuildHasherDefault`).
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }
}

/// FNV-1a 64 of `bytes`.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hasher = Fnv1a64::default();
    hasher.write(bytes);
    hasher.finish()
}
