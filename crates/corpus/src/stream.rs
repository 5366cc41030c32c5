//! Streamed corpus generation: the million-document web as an
//! iterator.
//!
//! A [`crate::SyntheticWeb`] materializes every document up front —
//! right for training experiments that index the whole web, hopeless
//! for scale runs where a 1M-document corpus would hold gigabytes of
//! string data resident. [`DocStream`] produces the *same* documents
//! one at a time with O(1) memory: the caller scans, aggregates, and
//! drops each document before the next exists.
//!
//! [`SyntheticWeb::generate`](crate::SyntheticWeb::generate) is this
//! stream collected, so the two cannot disagree.

use crate::generator::{DocGenerator, Genre, SyntheticDoc};
use crate::templates::BACKGROUND_GENRES;
use crate::web::WebConfig;
use etap_runtime::Rng;

/// An iterator yielding a [`WebConfig`]'s documents without ever
/// materializing the collection.
#[derive(Debug)]
pub struct DocStream {
    config: WebConfig,
    genre_rng: Rng,
    gen: DocGenerator,
    next_id: usize,
}

impl DocStream {
    /// Start streaming the web described by `config`.
    ///
    /// # Panics
    /// When the genre fractions exceed 1.
    #[must_use]
    pub fn new(config: WebConfig) -> Self {
        config.validate();
        Self {
            config,
            genre_rng: Rng::seed_from_u64(config.seed ^ 0x9E37_79B9_7F4A_7C15),
            gen: DocGenerator::with_known_fraction(config.seed, config.known_name_fraction),
            next_id: 0,
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

        let genre = draw_genre(&self.config, &mut self.genre_rng);
        let mut doc = self.gen.generate(genre);
        doc.id = id;
        doc.url = format!("http://news.example.com/{id}");
        Some(doc)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.config.total_docs - self.next_id;
        (left, Some(left))
    }
}

impl ExactSizeIterator for DocStream {}

/// One genre draw: the config's trigger, distractor and business-noise
/// fractions in turn, background for the rest.
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

    /// FNV-1a-64 over every document's id, url, title and body, each
    /// field terminated so adjacent fields cannot trade bytes.
    fn digest(docs: impl Iterator<Item = SyntheticDoc>) -> u64 {
        use std::hash::Hasher;
        let mut h = etap_runtime::hash::Fnv1a64::default();
        for doc in docs {
            h.write(&(doc.id as u64).to_le_bytes());
            for field in [&doc.url, &doc.title, &doc.body] {
                h.write(field.as_bytes());
                h.write(&[0]);
            }
        }
        h.finish()
    }

    #[test]
    fn generated_docs_match_pinned_digests() {
        // Pins the generator's output: any change to templates, name
        // draws, genre draws or RNG consumption moves these digests.
        let default_web = DocStream::new(WebConfig::with_docs(400));
        assert_eq!(digest(default_web), 0xa7fa_25d8_35b0_fe18);

        use crate::drivers::{DriverId, DriverSet, DriverTemplates};
        let d = DriverId::register("test_stream_digest", "pilot deployments").unwrap();
        d.set_templates(DriverTemplates {
            triggers: vec!["{company} rolled out a pilot deployment with {company2}.".into()],
            distractors: vec!["{company} shelved a pilot idea in {year}.".into()],
            headlines: vec!["{company} pilots ahead".into()],
            distractor_headlines: vec!["The {company} pilot that wasn't".into()],
        });
        let mut drivers = DriverSet::builtin();
        drivers.insert(d);
        let custom_web = DocStream::new(WebConfig {
            drivers,
            ..WebConfig::with_docs(800)
        });
        assert_eq!(digest(custom_web), 0x0577_17b9_52e8_46ce);
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
    fn stream_memory_does_not_scale_with_corpus() {
        // Structural stand-in for an RSS assertion (bench_scale measures
        // the real thing): the stream's whole state prints in its Debug
        // form, and 4,000 more documents must not grow it by even one
        // document's worth of text — only the RNG words and the counter
        // change.
        let mut s = DocStream::new(WebConfig::with_docs(5_000));
        assert_eq!(s.by_ref().take(1_000).count(), 1_000);
        let early = format!("{s:?}");
        let mut n = 1_000usize;
        for doc in s.by_ref() {
            assert_eq!(doc.id, n);
            n += 1;
        }
        assert_eq!(n, 5_000);
        let late = format!("{s:?}");
        assert!(
            late.len() < early.len() + 256,
            "stream state grew from {} to {} bytes",
            early.len(),
            late.len()
        );
    }
}
