//! Naïve Bayes classifiers.
//!
//! The paper's experiments use "Weka's naïve Bayes classifier" (§5.2).
//! Two standard event models are provided:
//!
//! * [`MultinomialNb`] — term-frequency event model (McCallum & Nigam);
//!   the usual choice for text and the default throughout this repo.
//! * [`BernoulliNb`] — binary presence/absence event model; closer to
//!   Weka's default `NaiveBayes` on binarized features.
//!
//! Both train in one pass over the data with Laplace smoothing and score
//! in `O(nnz)` per snippet. Log-space arithmetic throughout.

use crate::data::Dataset;
use crate::{Classifier, Trainer};
use etap_features::SparseVec;

/// Configuration shared by both event models.
#[derive(Debug, Clone, Copy)]
pub struct NbConfig {
    /// Additive (Laplace) smoothing constant. Default 1.0.
    pub alpha: f64,
}

impl Default for NbConfig {
    fn default() -> Self {
        Self { alpha: 1.0 }
    }
}

/// Trainer for [`MultinomialNbModel`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MultinomialNb {
    /// Smoothing configuration.
    pub config: NbConfig,
}

impl MultinomialNb {
    /// Trainer with default smoothing.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Trainer with explicit smoothing constant.
    #[must_use]
    pub fn with_alpha(alpha: f64) -> Self {
        Self {
            config: NbConfig { alpha },
        }
    }
}

/// A trained multinomial naïve Bayes model.
#[derive(Debug, Clone)]
pub struct MultinomialNbModel {
    /// `log P(w | class)` per feature id, per class `[positive, negative]`.
    log_likelihood: [Vec<f64>; 2],
    /// `log P(class)`.
    log_prior: [f64; 2],
    /// Log-probability mass for unseen features, per class.
    log_unseen: [f64; 2],
}

impl Trainer for MultinomialNb {
    type Model = MultinomialNbModel;

    fn fit(&self, data: &Dataset) -> MultinomialNbModel {
        let dim = data.dimension();
        let alpha = self.config.alpha;
        let mut counts = [vec![0.0f64; dim], vec![0.0f64; dim]];
        let mut totals = [0.0f64; 2];
        let mut docs = [0.0f64; 2];
        for (v, label) in data.iter() {
            let c = usize::from(!label.is_positive());
            docs[c] += 1.0;
            for &(id, tf) in v.iter() {
                counts[c][id as usize] += f64::from(tf);
                totals[c] += f64::from(tf);
            }
        }
        let n_docs = docs[0] + docs[1];
        let log_prior = [
            ((docs[0] + alpha) / (n_docs + 2.0 * alpha)).ln(),
            ((docs[1] + alpha) / (n_docs + 2.0 * alpha)).ln(),
        ];
        // Vocabulary size for smoothing: dim + 1 (one reserved unseen slot).
        let vocab = dim as f64 + 1.0;
        let mut log_likelihood = [vec![0.0; dim], vec![0.0; dim]];
        let mut log_unseen = [0.0; 2];
        for c in 0..2 {
            let denom = totals[c] + alpha * vocab;
            for id in 0..dim {
                log_likelihood[c][id] = ((counts[c][id] + alpha) / denom).ln();
            }
            log_unseen[c] = (alpha / denom).ln();
        }
        MultinomialNbModel {
            log_likelihood,
            log_prior,
            log_unseen,
        }
    }
}

impl MultinomialNbModel {
    /// Assemble a model from pre-computed log parameters (used by the EM
    /// M-step, which works with soft counts, and by model persistence).
    #[must_use]
    pub fn from_parts(
        log_likelihood: [Vec<f64>; 2],
        log_prior: [f64; 2],
        log_unseen: [f64; 2],
    ) -> Self {
        Self {
            log_likelihood,
            log_prior,
            log_unseen,
        }
    }

    /// Joint log-probability `log P(class) + log P(v | class)`.
    #[must_use]
    pub fn log_joint(&self, v: &SparseVec, positive: bool) -> f64 {
        let c = usize::from(!positive);
        let mut lp = self.log_prior[c];
        let ll = &self.log_likelihood[c];
        for &(id, tf) in v.iter() {
            let lw = ll.get(id as usize).copied().unwrap_or(self.log_unseen[c]);
            lp += f64::from(tf) * lw;
        }
        lp
    }

    /// Per-feature evidence: `log P(w|positive) − log P(w|negative)`.
    /// Positive values are evidence *for* the positive class. Handy for
    /// model inspection and debugging.
    #[must_use]
    pub fn feature_log_odds(&self, id: u32) -> f64 {
        let p = self.log_likelihood[0]
            .get(id as usize)
            .copied()
            .unwrap_or(self.log_unseen[0]);
        let n = self.log_likelihood[1]
            .get(id as usize)
            .copied()
            .unwrap_or(self.log_unseen[1]);
        p - n
    }

    /// Prior log-odds `log P(positive) − log P(negative)`.
    #[must_use]
    pub fn prior_log_odds(&self) -> f64 {
        self.log_prior[0] - self.log_prior[1]
    }

    /// Borrow the raw parameters `(log_likelihood, log_prior,
    /// log_unseen)` — the inverse of [`MultinomialNbModel::from_parts`],
    /// used by model persistence.
    #[must_use]
    pub fn parts(&self) -> (&[Vec<f64>; 2], &[f64; 2], &[f64; 2]) {
        (&self.log_likelihood, &self.log_prior, &self.log_unseen)
    }

    /// The model's `P(positive)` prior, recovered from log space.
    #[must_use]
    pub fn prior_positive(&self) -> f64 {
        self.log_prior[0].exp()
    }

    /// The same model with a replaced class prior (likelihoods
    /// untouched). This is the online-adaptation primitive: a stored
    /// model keeps only log parameters, so continuous ingest updates
    /// the base-rate belief rather than refolding raw counts.
    #[must_use]
    pub fn with_prior_positive(&self, p: f64) -> Self {
        let p = p.clamp(1e-6, 1.0 - 1e-6);
        Self {
            log_likelihood: self.log_likelihood.clone(),
            log_prior: [p.ln(), (1.0 - p).ln()],
            log_unseen: self.log_unseen,
        }
    }

    /// The same model with `log P(class)` replaced by `log_prior`, bit
    /// for bit (what a persisted adapted prior restores).
    #[must_use]
    pub fn with_log_prior(mut self, log_prior: [f64; 2]) -> Self {
        self.log_prior = log_prior;
        self
    }
}

impl Classifier for MultinomialNbModel {
    fn posterior(&self, v: &SparseVec) -> f64 {
        let lp = self.log_joint(v, true);
        let ln = self.log_joint(v, false);
        // Numerically stable log-sum-exp over two terms.
        let m = lp.max(ln);
        let denom = m + ((lp - m).exp() + (ln - m).exp()).ln();
        (lp - denom).exp()
    }
}

/// Trainer for [`BernoulliNbModel`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BernoulliNb {
    /// Smoothing configuration.
    pub config: NbConfig,
}

impl BernoulliNb {
    /// Trainer with default smoothing.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// A trained Bernoulli naïve Bayes model.
#[derive(Debug, Clone)]
pub struct BernoulliNbModel {
    /// `log P(w present | class)` and `log P(w absent | class)`.
    log_present: [Vec<f64>; 2],
    log_absent: [Vec<f64>; 2],
    log_prior: [f64; 2],
    /// Sum over all features of `log_absent`, per class (so scoring a
    /// document costs `O(nnz)`, not `O(dim)`).
    log_all_absent: [f64; 2],
}

impl Trainer for BernoulliNb {
    type Model = BernoulliNbModel;

    fn fit(&self, data: &Dataset) -> BernoulliNbModel {
        let dim = data.dimension();
        let alpha = self.config.alpha;
        let mut df = [vec![0.0f64; dim], vec![0.0f64; dim]];
        let mut docs = [0.0f64; 2];
        for (v, label) in data.iter() {
            let c = usize::from(!label.is_positive());
            docs[c] += 1.0;
            for &(id, _) in v.iter() {
                df[c][id as usize] += 1.0;
            }
        }
        let n_docs = docs[0] + docs[1];
        let log_prior = [
            ((docs[0] + alpha) / (n_docs + 2.0 * alpha)).ln(),
            ((docs[1] + alpha) / (n_docs + 2.0 * alpha)).ln(),
        ];
        let mut log_present = [vec![0.0; dim], vec![0.0; dim]];
        let mut log_absent = [vec![0.0; dim], vec![0.0; dim]];
        let mut log_all_absent = [0.0; 2];
        for c in 0..2 {
            for id in 0..dim {
                let p = (df[c][id] + alpha) / (docs[c] + 2.0 * alpha);
                log_present[c][id] = p.ln();
                log_absent[c][id] = (1.0 - p).ln();
                log_all_absent[c] += log_absent[c][id];
            }
        }
        BernoulliNbModel {
            log_present,
            log_absent,
            log_prior,
            log_all_absent,
        }
    }
}

impl BernoulliNbModel {
    /// Joint log-probability under the Bernoulli event model.
    #[must_use]
    pub fn log_joint(&self, v: &SparseVec, positive: bool) -> f64 {
        let c = usize::from(!positive);
        let mut lp = self.log_prior[c] + self.log_all_absent[c];
        for &(id, _) in v.iter() {
            if let (Some(&p), Some(&a)) = (
                self.log_present[c].get(id as usize),
                self.log_absent[c].get(id as usize),
            ) {
                lp += p - a; // swap the absent term for the present one
            }
        }
        lp
    }
}

impl Classifier for BernoulliNbModel {
    fn posterior(&self, v: &SparseVec) -> f64 {
        let lp = self.log_joint(v, true);
        let ln = self.log_joint(v, false);
        let m = lp.max(ln);
        let denom = m + ((lp - m).exp() + (ln - m).exp()).ln();
        (lp - denom).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Label;

    fn vecf(ids: &[u32]) -> SparseVec {
        ids.iter().map(|&i| (i, 1.0)).collect()
    }

    /// Toy corpus: feature 0 marks positives, feature 1 marks negatives,
    /// feature 2 is common to both.
    fn toy() -> Dataset {
        let mut d = Dataset::new();
        for _ in 0..20 {
            d.push(vecf(&[0, 2]), Label::Positive);
            d.push(vecf(&[1, 2]), Label::Negative);
        }
        d
    }

    #[test]
    fn multinomial_separates_toy() {
        let model = MultinomialNb::new().fit(&toy());
        assert!(model.posterior(&vecf(&[0])) > 0.9);
        assert!(model.posterior(&vecf(&[1])) < 0.1);
        assert!(model.predict(&vecf(&[0, 2])));
        assert!(!model.predict(&vecf(&[1, 2])));
    }

    #[test]
    fn bernoulli_separates_toy() {
        let model = BernoulliNb::new().fit(&toy());
        assert!(model.posterior(&vecf(&[0])) > 0.9);
        assert!(model.posterior(&vecf(&[1])) < 0.1);
    }

    #[test]
    fn neutral_feature_near_prior() {
        let model = MultinomialNb::new().fit(&toy());
        let p = model.posterior(&vecf(&[2]));
        assert!((p - 0.5).abs() < 0.05, "{p}");
    }

    #[test]
    fn unseen_features_fall_back_to_prior() {
        let model = MultinomialNb::new().fit(&toy());
        let p = model.posterior(&vecf(&[999]));
        assert!((p - 0.5).abs() < 0.1, "{p}");
    }

    #[test]
    fn empty_vector_scores_prior() {
        let mut d = toy();
        // Skew the prior 2:1 positive.
        for _ in 0..20 {
            d.push(vecf(&[0, 2]), Label::Positive);
        }
        let model = MultinomialNb::new().fit(&d);
        let p = model.posterior(&SparseVec::default());
        assert!(p > 0.6, "{p}");
    }

    #[test]
    fn posterior_in_unit_interval() {
        let model = MultinomialNb::new().fit(&toy());
        for ids in [&[0u32][..], &[1], &[2], &[0, 1, 2], &[42]] {
            let p = model.posterior(&vecf(ids));
            assert!((0.0..=1.0).contains(&p), "{p}");
        }
    }

    #[test]
    fn class_imbalance_shifts_prior() {
        let mut d = Dataset::new();
        for _ in 0..5 {
            d.push(vecf(&[0]), Label::Positive);
        }
        for _ in 0..95 {
            d.push(vecf(&[1]), Label::Negative);
        }
        let model = MultinomialNb::new().fit(&d);
        // With a 5:95 prior, an uninformative snippet leans negative.
        assert!(model.posterior(&SparseVec::default()) < 0.2);
        // But the positive marker still wins.
        assert!(model.posterior(&vecf(&[0])) > 0.5);
    }

    #[test]
    fn term_frequency_matters_for_multinomial_only() {
        // A doc with the positive marker once vs. five times.
        let d = toy();
        let m = MultinomialNb::new().fit(&d);
        let weak: SparseVec = [(0u32, 1.0f32), (1, 1.0)].into_iter().collect();
        let strong: SparseVec = [(0u32, 5.0f32), (1, 1.0)].into_iter().collect();
        assert!(m.posterior(&strong) > m.posterior(&weak));

        let b = BernoulliNb::new().fit(&d);
        let pw = b.posterior(&weak.binarized());
        let ps = b.posterior(&strong.binarized());
        assert!((pw - ps).abs() < 1e-12);
    }

    #[test]
    fn prior_adaptation_shifts_posterior_only_via_prior() {
        let model = MultinomialNb::new().fit(&toy());
        let base = model.prior_positive();
        assert!((base - 0.5).abs() < 0.05, "{base}");
        let skewed = model.with_prior_positive(0.9);
        assert!((skewed.prior_positive() - 0.9).abs() < 1e-9);
        // Uninformative input follows the new prior…
        assert!(skewed.posterior(&SparseVec::default()) > 0.85);
        // …while feature evidence (likelihoods) is untouched.
        assert_eq!(
            model.feature_log_odds(0).to_bits(),
            skewed.feature_log_odds(0).to_bits()
        );
        // Extreme rates are clamped away from the log-domain poles.
        let pinned = model.with_prior_positive(0.0);
        assert!(pinned.prior_positive() > 0.0);
        assert!(model.with_prior_positive(1.0).prior_positive() < 1.0);
    }

    #[test]
    fn higher_alpha_flattens_estimates() {
        let d = toy();
        let sharp = MultinomialNb::with_alpha(0.1).fit(&d);
        let flat = MultinomialNb::with_alpha(100.0).fit(&d);
        let p_sharp = sharp.posterior(&vecf(&[0]));
        let p_flat = flat.posterior(&vecf(&[0]));
        assert!(p_sharp > p_flat);
        assert!(p_flat > 0.5); // still leaning positive, just less so
    }
}
