//! Streamed corpus generation: the million-document web as an
//! iterator.
//!
//! [`SyntheticWeb::generate`] materializes every document up front —
//! right for training experiments that index the whole web, hopeless
//! for scale runs where a 1M-document corpus would hold gigabytes of
//! string data resident. [`DocStream`] produces the *same* documents
//! one at a time with O(1) memory: the caller scans, aggregates, and
//! drops each document before the next exists.
//!
//! **Parity contract:** with `syndication_fraction == 0` (the default),
//! `DocStream::new(config)` yields documents byte-identical to
//! `SyntheticWeb::generate(config).docs()`, in order — proven by test.
//! With syndication enabled the batch generator republishes from *all*
//! earlier documents, which a stream cannot hold; the stream instead
//! republishes from a fixed-size ring of the most recent
//! [`SYNDICATION_WINDOW`] documents. Output remains fully deterministic
//! per seed, but diverges from the batch generator in exactly those
//! syndicated copies.

use crate::generator::{DocGenerator, Genre, SyntheticDoc};
use crate::templates::BACKGROUND_GENRES;
use crate::web::WebConfig;
use etap_runtime::Rng;

/// How many recent documents the stream keeps for syndication sources.
pub const SYNDICATION_WINDOW: usize = 256;

/// An iterator yielding a [`WebConfig`]'s documents without ever
/// materializing the collection.
#[derive(Debug)]
pub struct DocStream {
    config: WebConfig,
    genre_rng: Rng,
    gen: DocGenerator,
    next_id: usize,
    /// Ring of recent documents syndication copies from (empty until
    /// the first real document; never grows past [`SYNDICATION_WINDOW`]).
    ring: Vec<SyntheticDoc>,
    /// Next ring slot to overwrite once the ring is full.
    ring_at: usize,
}

impl DocStream {
    /// Start streaming the web described by `config`.
    ///
    /// # Panics
    /// As [`crate::SyntheticWeb::generate`]: when the genre fractions
    /// exceed 1.
    #[must_use]
    pub fn new(config: WebConfig) -> Self {
        config.validate();
        Self {
            config,
            // Same derivations as SyntheticWeb::generate — this is what
            // makes the parity contract hold.
            genre_rng: Rng::seed_from_u64(config.seed ^ 0x9E37_79B9_7F4A_7C15),
            gen: DocGenerator::with_known_fraction(config.seed, config.known_name_fraction),
            next_id: 0,
            ring: Vec::new(),
            ring_at: 0,
        }
    }

    /// Documents this stream will yield in total.
    #[must_use]
    pub fn total(&self) -> usize {
        self.config.total_docs
    }

    /// The configuration being streamed.
    #[must_use]
    pub fn config(&self) -> &WebConfig {
        &self.config
    }

    fn remember(&mut self, doc: &SyntheticDoc) {
        if self.config.syndication_fraction <= 0.0 {
            return; // the ring is dead weight without syndication
        }
        if self.ring.len() < SYNDICATION_WINDOW {
            self.ring.push(doc.clone());
        } else {
            self.ring[self.ring_at] = doc.clone();
            self.ring_at = (self.ring_at + 1) % SYNDICATION_WINDOW;
        }
    }
}

impl Iterator for DocStream {
    type Item = SyntheticDoc;

    fn next(&mut self) -> Option<SyntheticDoc> {
        if self.next_id >= self.config.total_docs {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;

        // Syndication: republish a recent document under a new URL with
        // a light edit (see module docs for the window caveat).
        if self.config.syndication_fraction > 0.0
            && !self.ring.is_empty()
            && self
                .genre_rng
                .gen_bool(self.config.syndication_fraction.clamp(0.0, 1.0))
        {
            let src = &self.ring[self.genre_rng.gen_range(0..self.ring.len())];
            let mut copy = src.clone();
            copy.id = id;
            copy.url = format!("http://wire.example.com/{id}");
            copy.body = format!("{} Editors added minor context.", copy.body);
            return Some(copy);
        }

        let genre = draw_genre(&self.config, &mut self.genre_rng);
        let mut doc = self.gen.generate(genre);
        doc.id = id;
        doc.url = format!("http://news.example.com/{id}");
        self.remember(&doc);
        Some(doc)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.config.total_docs - self.next_id;
        (left, Some(left))
    }
}

impl ExactSizeIterator for DocStream {}

/// One genre draw — must consume the RNG exactly as
/// `SyntheticWeb::generate`'s internal draw does (it is the same code,
/// shared via `pub(crate)`).
fn draw_genre(config: &WebConfig, rng: &mut Rng) -> Genre {
    let x: f64 = rng.gen_f64();
    let mut acc = 0.0;
    for driver in config.drivers.iter() {
        acc += config.trigger_fraction;
        if x < acc {
            return Genre::Trigger(driver);
        }
    }
    for driver in config.drivers.iter() {
        acc += config.distractor_fraction;
        if x < acc {
            return Genre::Distractor(driver);
        }
    }
    acc += config.business_noise_fraction;
    if x < acc {
        return Genre::BusinessNoise;
    }
    Genre::Background(rng.gen_range(0..BACKGROUND_GENRES.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::web::SyntheticWeb;

    #[test]
    fn stream_matches_batch_generation_exactly() {
        // The parity contract at syndication == 0: same seed, same
        // documents, same order, byte for byte.
        let config = WebConfig::with_docs(400);
        let batch = SyntheticWeb::generate(config);
        let streamed: Vec<SyntheticDoc> = DocStream::new(config).collect();
        assert_eq!(streamed.len(), batch.len());
        assert_eq!(streamed, batch.docs());
    }

    #[test]
    fn stream_is_exact_size_and_fused() {
        let mut s = DocStream::new(WebConfig::with_docs(25));
        assert_eq!(s.len(), 25);
        assert_eq!(s.by_ref().count(), 25);
        assert_eq!(s.next(), None);
        assert_eq!(s.next(), None);
    }

    #[test]
    fn streamed_syndication_is_deterministic_and_windowed() {
        let config = WebConfig {
            syndication_fraction: 0.3,
            ..WebConfig::with_docs(600)
        };
        let a: Vec<SyntheticDoc> = DocStream::new(config).collect();
        let b: Vec<SyntheticDoc> = DocStream::new(config).collect();
        assert_eq!(a, b);
        let wire = a
            .iter()
            .filter(|d| d.url.starts_with("http://wire."))
            .count();
        assert!(wire > 80, "{wire} syndicated copies");
        // Ids stay dense even with copies interleaved.
        for (i, d) in a.iter().enumerate() {
            assert_eq!(d.id, i);
        }
    }

    #[test]
    fn stream_memory_does_not_scale_with_corpus() {
        // Structural stand-in for an RSS assertion (bench_scale measures
        // the real thing): the stream's only growing state is the
        // syndication ring, capped at SYNDICATION_WINDOW — and unused
        // entirely at the default syndication == 0.
        let mut s = DocStream::new(WebConfig::with_docs(5_000));
        let mut n = 0usize;
        for doc in s.by_ref() {
            n += 1;
            drop(doc);
        }
        assert_eq!(n, 5_000);
        assert!(
            s.ring.is_empty(),
            "ring must stay empty without syndication"
        );

        let mut synd = DocStream::new(WebConfig {
            syndication_fraction: 0.2,
            ..WebConfig::with_docs(3_000)
        });
        for _ in synd.by_ref() {}
        assert!(synd.ring.len() <= SYNDICATION_WINDOW);
    }
}
