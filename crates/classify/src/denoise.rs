//! The paper's iterative noise-reduction training loop (§3.3.2).
//!
//! > *"Given sets of noisy positive data set Pⁿ, pure positive data set
//! > Pᵖ, negative data set N and a classifier C_θ, the iterative method
//! > does the following:
//! > 1. Learns the parameters θ using Pⁿ, Pᵖ and N (Pⁿ and Pᵖ form the
//! >    positive class, N the negative class).
//! > 2. Using the trained classifier, classifies Pⁿ; for the next
//! >    iteration, Pⁿ is set to the snippets assigned the positive
//! >    class.
//! > 3. Iterates until the noisy positive data does not change
//! >    considerably."*
//!
//! This is the Brodley–Friedl "identify and eliminate mislabeled
//! instances" recipe \[3\] specialised to a single noisy class. The pure
//! positive set is oversampled (×3 in the paper) so the handful of
//! hand-verified snippets is not drowned out by thousands of noisy ones.

use crate::data::{Dataset, Label};
use crate::{Classifier, Trainer};
use etap_features::SparseVec;

/// Configuration of the de-noising loop.
#[derive(Debug, Clone, Copy)]
pub struct DenoiseConfig {
    /// Maximum training iterations. The paper's Table 1 reports results
    /// "after two iterations"; 2 is the default.
    pub max_iterations: usize,
    /// Stop early when the fraction of noisy-positive snippets removed
    /// in an iteration falls below this threshold ("does not change
    /// considerably"). Default 0.01.
    pub stability_threshold: f64,
    /// Oversampling factor for the pure positive set. Default 3 (paper:
    /// "we use it after oversampling it by a factor of 3").
    pub pure_positive_oversample: usize,
}

impl Default for DenoiseConfig {
    fn default() -> Self {
        Self {
            max_iterations: 2,
            stability_threshold: 0.01,
            pure_positive_oversample: 3,
        }
    }
}

/// Result of a de-noising run.
#[derive(Debug)]
pub struct DenoiseOutcome<M> {
    /// The classifier trained in the final iteration.
    pub model: M,
    /// Size of the noisy positive set before each iteration, plus its
    /// final size (length = iterations run + 1).
    pub noisy_sizes: Vec<usize>,
    /// Indices (into the original noisy set) of the snippets retained at
    /// the end — the distilled positives.
    pub retained: Vec<usize>,
}

impl<M> DenoiseOutcome<M> {
    /// Number of iterations actually run.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.noisy_sizes.len().saturating_sub(1)
    }
}

/// Runs the iterative noise-reduction loop over any [`Trainer`].
#[derive(Debug, Clone, Copy, Default)]
pub struct IterativeDenoiser {
    /// Loop configuration.
    pub config: DenoiseConfig,
    /// Worker threads for the re-classification step (`0` = the
    /// `ETAP_THREADS` default, `1` = sequential). The outcome is
    /// bit-identical for any value — only wall time changes.
    pub threads: usize,
}

impl IterativeDenoiser {
    /// Denoiser with the paper's defaults (2 iterations, ×3 oversample).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Denoiser running exactly `n` iterations (no early stop).
    #[must_use]
    pub fn with_iterations(n: usize) -> Self {
        Self {
            config: DenoiseConfig {
                max_iterations: n,
                stability_threshold: 0.0,
                ..DenoiseConfig::default()
            },
            ..Self::default()
        }
    }

    /// Train with noise reduction.
    ///
    /// * `noisy_positive` — Pⁿ, snippets harvested by smart queries;
    /// * `pure_positive` — Pᵖ, hand-verified snippets (may be empty);
    /// * `negative` — N, the large random background sample.
    pub fn run<T: Trainer>(
        &self,
        trainer: &T,
        noisy_positive: &[SparseVec],
        pure_positive: &[SparseVec],
        negative: &[SparseVec],
    ) -> DenoiseOutcome<T::Model>
    where
        T::Model: Sync,
    {
        let cfg = &self.config;
        let mut retained: Vec<usize> = (0..noisy_positive.len()).collect();
        let mut noisy_sizes = vec![retained.len()];

        let mut model =
            self.train_once(trainer, &retained, noisy_positive, pure_positive, negative);

        for _ in 0..cfg.max_iterations {
            // Re-classify the current noisy set in parallel; keep
            // predicted positives. Prediction is read-only per snippet,
            // so fan-out + ordered merge keeps `kept` identical to the
            // sequential filter.
            let verdicts = etap_runtime::par_map(&retained, self.threads, |&i| {
                model.predict(&noisy_positive[i])
            });
            let kept: Vec<usize> = retained
                .iter()
                .copied()
                .zip(verdicts)
                .filter_map(|(i, keep)| keep.then_some(i))
                .collect();
            let removed = retained.len() - kept.len();
            let change = if retained.is_empty() {
                0.0
            } else {
                removed as f64 / retained.len() as f64
            };
            retained = kept;
            noisy_sizes.push(retained.len());
            model = self.train_once(trainer, &retained, noisy_positive, pure_positive, negative);
            if change <= cfg.stability_threshold {
                break;
            }
        }

        DenoiseOutcome {
            model,
            noisy_sizes,
            retained,
        }
    }

    fn train_once<T: Trainer>(
        &self,
        trainer: &T,
        retained: &[usize],
        noisy_positive: &[SparseVec],
        pure_positive: &[SparseVec],
        negative: &[SparseVec],
    ) -> T::Model {
        let mut data = Dataset::with_capacity(
            retained.len()
                + pure_positive.len() * self.config.pure_positive_oversample
                + negative.len(),
        );
        for &i in retained {
            data.push(noisy_positive[i].clone(), Label::Positive);
        }
        for v in pure_positive {
            data.push_oversampled(
                v.clone(),
                Label::Positive,
                self.config.pure_positive_oversample.max(1),
            );
        }
        for v in negative {
            data.push(v.clone(), Label::Negative);
        }
        trainer.fit(&data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nb::MultinomialNb;

    fn vecf(ids: &[u32]) -> SparseVec {
        ids.iter().map(|&i| (i, 1.0)).collect()
    }

    /// Noisy positives: 60 true positives (feature 0) + 40 background
    /// look-alikes (feature 1, shared with the negative class).
    fn setup() -> (Vec<SparseVec>, Vec<SparseVec>, Vec<SparseVec>) {
        let mut noisy = Vec::new();
        for _ in 0..60 {
            noisy.push(vecf(&[0, 2]));
        }
        for _ in 0..40 {
            noisy.push(vecf(&[1, 3]));
        }
        let pure: Vec<SparseVec> = (0..5).map(|_| vecf(&[0, 2])).collect();
        let negative: Vec<SparseVec> = (0..200).map(|_| vecf(&[1, 3])).collect();
        (noisy, pure, negative)
    }

    #[test]
    fn removes_noise_and_keeps_signal() {
        let (noisy, pure, neg) = setup();
        let out = IterativeDenoiser::new().run(&MultinomialNb::new(), &noisy, &pure, &neg);
        // All 60 true positives kept, the 40 background snippets dropped.
        assert_eq!(out.retained.len(), 60, "{:?}", out.noisy_sizes);
        assert!(out.retained.iter().all(|&i| i < 60));
        // Final model classifies the marker features correctly.
        assert!(out.model.predict(&vecf(&[0, 2])));
        assert!(!out.model.predict(&vecf(&[1, 3])));
    }

    #[test]
    fn noisy_sizes_are_monotone_nonincreasing() {
        let (noisy, pure, neg) = setup();
        let out =
            IterativeDenoiser::with_iterations(5).run(&MultinomialNb::new(), &noisy, &pure, &neg);
        for w in out.noisy_sizes.windows(2) {
            assert!(w[1] <= w[0], "{:?}", out.noisy_sizes);
        }
    }

    #[test]
    fn early_stop_on_stability() {
        let (noisy, pure, neg) = setup();
        let denoiser = IterativeDenoiser {
            config: DenoiseConfig {
                max_iterations: 50,
                stability_threshold: 0.01,
                pure_positive_oversample: 3,
            },
            threads: 4,
        };
        let out = denoiser.run(&MultinomialNb::new(), &noisy, &pure, &neg);
        // Converges in far fewer than 50 iterations.
        assert!(out.iterations() < 10, "{:?}", out.noisy_sizes);
    }

    #[test]
    fn works_without_pure_positives() {
        let (noisy, _, neg) = setup();
        let out = IterativeDenoiser::new().run(&MultinomialNb::new(), &noisy, &[], &neg);
        assert!(out.retained.len() >= 55);
        assert!(out.retained.iter().all(|&i| i < 60));
    }

    #[test]
    fn zero_iterations_keeps_everything() {
        let (noisy, pure, neg) = setup();
        let out =
            IterativeDenoiser::with_iterations(0).run(&MultinomialNb::new(), &noisy, &pure, &neg);
        assert_eq!(out.retained.len(), noisy.len());
        assert_eq!(out.iterations(), 0);
    }

    #[test]
    fn empty_noisy_set_is_fine() {
        let (_, pure, neg) = setup();
        let out = IterativeDenoiser::new().run(&MultinomialNb::new(), &[], &pure, &neg);
        assert!(out.retained.is_empty());
        // Model still trained from pure positives vs negatives.
        assert!(out.model.predict(&vecf(&[0, 2])));
    }
}
