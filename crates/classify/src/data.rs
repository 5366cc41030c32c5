//! Labeled datasets.

use etap_features::SparseVec;
use etap_runtime::Rng;

/// Two-class label: positive = pertains to the sales driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// Snippet pertains to the sales driver.
    Positive,
    /// Background / random web snippet.
    Negative,
}

impl Label {
    /// `true` for [`Label::Positive`].
    #[must_use]
    pub fn is_positive(self) -> bool {
        matches!(self, Label::Positive)
    }
}

impl From<bool> for Label {
    fn from(b: bool) -> Self {
        if b {
            Label::Positive
        } else {
            Label::Negative
        }
    }
}

/// A labeled collection of sparse vectors.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    vectors: Vec<SparseVec>,
    labels: Vec<Label>,
}

impl Dataset {
    /// Empty dataset.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Dataset with pre-allocated capacity.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            vectors: Vec::with_capacity(cap),
            labels: Vec::with_capacity(cap),
        }
    }

    /// Append one example.
    pub fn push(&mut self, v: SparseVec, label: Label) {
        self.vectors.push(v);
        self.labels.push(label);
    }

    /// Append `v` repeated `times` times (the paper oversamples the pure
    /// positive set "by a factor of 3").
    pub fn push_oversampled(&mut self, v: SparseVec, label: Label, times: usize) {
        for _ in 0..times {
            self.vectors.push(v.clone());
            self.labels.push(label);
        }
    }

    /// Number of examples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// True when there are no examples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Count of positive examples.
    #[must_use]
    pub fn positives(&self) -> usize {
        self.labels.iter().filter(|l| l.is_positive()).count()
    }

    /// Count of negative examples.
    #[must_use]
    pub fn negatives(&self) -> usize {
        self.len() - self.positives()
    }

    /// Iterate `(vector, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&SparseVec, Label)> {
        self.vectors.iter().zip(self.labels.iter().copied())
    }

    /// Example at index `i`.
    #[must_use]
    pub fn get(&self, i: usize) -> (&SparseVec, Label) {
        (&self.vectors[i], self.labels[i])
    }

    /// Largest feature id present, plus one (the dense dimension).
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.vectors
            .iter()
            .flat_map(|v| v.iter().map(|&(id, _)| id as usize + 1))
            .max()
            .unwrap_or(0)
    }

    /// Shuffle examples in place.
    pub fn shuffle(&mut self, rng: &mut Rng) {
        let mut order: Vec<usize> = (0..self.len()).collect();
        rng.shuffle(&mut order);
        self.vectors = order.iter().map(|&i| self.vectors[i].clone()).collect();
        self.labels = order.iter().map(|&i| self.labels[i]).collect();
    }

    /// Split off the last `fraction` of examples into a second dataset
    /// (caller shuffles first for a random split).
    ///
    /// # Panics
    /// Panics if `fraction` is not in `(0, 1)`.
    #[must_use]
    pub fn split(mut self, fraction: f64) -> (Dataset, Dataset) {
        assert!(
            fraction > 0.0 && fraction < 1.0,
            "split fraction must be in (0, 1)"
        );
        let cut = ((self.len() as f64) * (1.0 - fraction)).round() as usize;
        let tail_v = self.vectors.split_off(cut);
        let tail_l = self.labels.split_off(cut);
        (
            self,
            Dataset {
                vectors: tail_v,
                labels: tail_l,
            },
        )
    }

    /// The `k` folds of a k-fold cross-validation split: returns, for
    /// fold `i`, the (train, test) pair where test is every `k`-th
    /// example starting at `i`.
    #[must_use]
    pub fn folds(&self, k: usize) -> Vec<(Dataset, Dataset)> {
        assert!(k >= 2, "need at least 2 folds");
        (0..k)
            .map(|fold| {
                let mut train = Dataset::new();
                let mut test = Dataset::new();
                for (i, (v, l)) in self.iter().enumerate() {
                    if i % k == fold {
                        test.push(v.clone(), l);
                    } else {
                        train.push(v.clone(), l);
                    }
                }
                (train, test)
            })
            .collect()
    }
}

impl Dataset {
    /// Project every vector onto a feature subset (ids not in `keep`
    /// are dropped). Used with [`etap_features::select::FeatureStats::top_k`] to train
    /// on the χ²/IG-selected features of §3.2.1.
    #[must_use]
    pub fn project(&self, keep: &std::collections::HashSet<u32>) -> Dataset {
        let mut out = Dataset::with_capacity(self.len());
        for (v, l) in self.iter() {
            let projected: SparseVec = v
                .iter()
                .filter(|(id, _)| keep.contains(id))
                .copied()
                .collect();
            out.push(projected, l);
        }
        out
    }
}

impl FromIterator<(SparseVec, Label)> for Dataset {
    fn from_iter<T: IntoIterator<Item = (SparseVec, Label)>>(iter: T) -> Self {
        let mut d = Dataset::new();
        for (v, l) in iter {
            d.push(v, l);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecf(ids: &[u32]) -> SparseVec {
        ids.iter().map(|&i| (i, 1.0)).collect()
    }

    fn sample(n: usize) -> Dataset {
        (0..n)
            .map(|i| (vecf(&[i as u32]), Label::from(i % 3 == 0)))
            .collect()
    }

    #[test]
    fn push_and_counts() {
        let mut d = Dataset::new();
        d.push(vecf(&[1]), Label::Positive);
        d.push(vecf(&[2]), Label::Negative);
        d.push(vecf(&[3]), Label::Negative);
        assert_eq!(d.len(), 3);
        assert_eq!(d.positives(), 1);
        assert_eq!(d.negatives(), 2);
    }

    #[test]
    fn oversampling_replicates() {
        let mut d = Dataset::new();
        d.push_oversampled(vecf(&[1]), Label::Positive, 3);
        assert_eq!(d.len(), 3);
        assert_eq!(d.positives(), 3);
    }

    #[test]
    fn dimension_is_max_id_plus_one() {
        let mut d = Dataset::new();
        d.push(vecf(&[0, 7]), Label::Positive);
        d.push(vecf(&[3]), Label::Negative);
        assert_eq!(d.dimension(), 8);
        assert_eq!(Dataset::new().dimension(), 0);
    }

    #[test]
    fn split_partitions() {
        let d = sample(10);
        let (train, test) = d.split(0.3);
        assert_eq!(train.len(), 7);
        assert_eq!(test.len(), 3);
    }

    #[test]
    fn shuffle_preserves_multiset() {
        let mut d = sample(20);
        let pos_before = d.positives();
        let mut rng = Rng::seed_from_u64(7);
        d.shuffle(&mut rng);
        assert_eq!(d.len(), 20);
        assert_eq!(d.positives(), pos_before);
    }

    #[test]
    fn shuffle_is_seeded() {
        let mut a = sample(20);
        let mut b = sample(20);
        a.shuffle(&mut Rng::seed_from_u64(42));
        b.shuffle(&mut Rng::seed_from_u64(42));
        for i in 0..20 {
            assert_eq!(a.get(i).1, b.get(i).1);
        }
    }

    #[test]
    fn folds_partition_everything() {
        let d = sample(11);
        let folds = d.folds(3);
        assert_eq!(folds.len(), 3);
        let total_test: usize = folds.iter().map(|(_, t)| t.len()).sum();
        assert_eq!(total_test, 11);
        for (train, test) in &folds {
            assert_eq!(train.len() + test.len(), 11);
        }
    }

    #[test]
    fn project_keeps_only_selected_features() {
        let mut d = Dataset::new();
        d.push(vecf(&[1, 2, 3]), Label::Positive);
        d.push(vecf(&[2, 4]), Label::Negative);
        let keep: std::collections::HashSet<u32> = [2u32, 3].into_iter().collect();
        let p = d.project(&keep);
        assert_eq!(p.len(), 2);
        let (v0, _) = p.get(0);
        assert_eq!(v0.nnz(), 2);
        assert_eq!(v0.get(1), 0.0);
        let (v1, _) = p.get(1);
        assert_eq!(v1.nnz(), 1);
    }

    #[test]
    #[should_panic(expected = "split fraction")]
    fn split_rejects_bad_fraction() {
        let _ = sample(4).split(1.5);
    }
}
