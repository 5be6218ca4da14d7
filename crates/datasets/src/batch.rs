//! Dataset containers, train/test splitting and batch iteration.
//!
//! Batches are central to the paper's evaluation: Fig. 6 measures mean time
//! per image as the accelerator processes "an increasingly high batch of
//! images, from 1 up to 1000". [`Dataset::batches`] produces exactly those
//! image sequences for the simulator and the threaded engine.

use crate::Sample;
use dfcnn_tensor::Tensor3;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// An owned, ordered collection of labelled samples.
#[derive(Clone, Debug, Default)]
pub struct Dataset {
    samples: Vec<Sample>,
}

/// A train/test split of a [`Dataset`].
#[derive(Clone, Debug)]
pub struct Split {
    /// Training portion.
    pub train: Dataset,
    /// Held-out test portion.
    pub test: Dataset,
}

impl Dataset {
    /// Wrap a sample vector.
    pub fn new(samples: Vec<Sample>) -> Self {
        Dataset { samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The samples, in order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Deterministically shuffle in place with the given seed.
    pub fn shuffle(&mut self, seed: u64) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        self.samples.shuffle(&mut rng);
    }

    /// Split into train/test with `train_fraction` of samples (rounded
    /// down) in the training set, preserving order.
    pub fn split(self, train_fraction: f64) -> Split {
        assert!(
            (0.0..=1.0).contains(&train_fraction),
            "train fraction must be in [0, 1]"
        );
        let n_train = (self.samples.len() as f64 * train_fraction) as usize;
        let mut samples = self.samples;
        let test = samples.split_off(n_train);
        Split {
            train: Dataset::new(samples),
            test: Dataset::new(test),
        }
    }

    /// Iterate over consecutive batches of at most `batch_size` images
    /// (labels dropped — the accelerator only sees pixels).
    pub fn batches(&self, batch_size: usize) -> impl Iterator<Item = Vec<&Tensor3<f32>>> {
        assert!(batch_size > 0, "batch size must be non-zero");
        self.samples
            .chunks(batch_size)
            .map(|chunk| chunk.iter().map(|(x, _)| x).collect())
    }

    /// The first `n` images (cycling if `n > len`), as owned clones — the
    /// exact input sequence for a Fig. 6 measurement at batch size `n`.
    pub fn image_batch(&self, n: usize) -> Vec<Tensor3<f32>> {
        assert!(!self.samples.is_empty(), "empty dataset");
        (0..n)
            .map(|i| self.samples[i % self.samples.len()].0.clone())
            .collect()
    }

    /// Count of samples per class label.
    pub fn class_histogram(&self, classes: usize) -> Vec<usize> {
        let mut hist = vec![0usize; classes];
        for (_, label) in &self.samples {
            assert!(*label < classes, "label {label} out of range");
            hist[*label] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfcnn_tensor::Shape3;

    fn mk(n: usize) -> Dataset {
        Dataset::new(
            (0..n)
                .map(|i| (Tensor3::full(Shape3::new(2, 2, 1), i as f32), i % 3))
                .collect(),
        )
    }

    #[test]
    fn split_sizes() {
        let s = mk(10).split(0.7);
        assert_eq!(s.train.len(), 7);
        assert_eq!(s.test.len(), 3);
    }

    #[test]
    fn shuffle_is_deterministic_and_permutes() {
        let mut a = mk(32);
        let mut b = mk(32);
        a.shuffle(9);
        b.shuffle(9);
        assert_eq!(a.samples()[0], b.samples()[0]);
        // almost surely not identity for 32 elements
        let moved = a
            .samples()
            .iter()
            .enumerate()
            .filter(|(i, (x, _))| x.get(0, 0, 0) != *i as f32)
            .count();
        assert!(moved > 0);
    }

    #[test]
    fn batches_chunk_correctly() {
        let d = mk(10);
        let sizes: Vec<usize> = d.batches(4).map(|b| b.len()).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
    }

    #[test]
    fn image_batch_cycles() {
        let d = mk(3);
        let b = d.image_batch(7);
        assert_eq!(b.len(), 7);
        assert_eq!(b[3].get(0, 0, 0), 0.0); // wrapped around
        assert_eq!(b[5].get(0, 0, 0), 2.0);
    }

    #[test]
    fn class_histogram_counts() {
        let d = mk(10);
        assert_eq!(d.class_histogram(3), vec![4, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_batch_size_rejected() {
        let d = mk(4);
        let _ = d.batches(0).count();
    }
}
