//! Synthetic image-classification datasets standing in for CIFAR-10 and
//! Imagewoof (why a stand-in suffices is this paragraph's last sentence):
//! deterministic class-conditional generators
//! producing 10-class RGB images. Each class is a mixture of oriented
//! sinusoidal textures with class-specific frequencies, phases and color
//! mixes; samples get per-instance jitter and additive noise. The paper's
//! phenomenon under study — swamping in low-precision GEMM accumulation and
//! its rescue by stochastic rounding — is purely numerical, so a synthetic
//! task that exercises the same convolutional pipelines preserves the
//! relevant behaviour while staying laptop-scale and fully reproducible.

use std::ops::Range;
use std::sync::Arc;

use srmac_rng::{scalar_math, SplitMix64};
use srmac_tensor::{Runtime, Tensor};

/// Number of classes in both synthetic datasets.
pub const NUM_CLASSES: usize = 10;

/// Contiguous equal-prefix spans of `n` items over `shards` shards: the
/// first `shards - 1` spans hold exactly `n / shards` items and the last
/// takes the remainder (`n / shards + n % shards`). A pure function of
/// `(n, shards)` — never of thread or replica count — so every consumer
/// (batch sharding in the trainer, [`Dataset::shard`]) splits
/// identically. Spans may be empty when `n < shards`.
///
/// # Panics
///
/// Panics if `shards` is zero.
#[must_use]
pub fn shard_spans(n: usize, shards: usize) -> Vec<Range<usize>> {
    assert!(shards > 0, "shard count must be nonzero");
    let base = n / shards;
    (0..shards)
        .map(|s| {
            let start = s * base;
            let end = if s + 1 == shards { n } else { start + base };
            start..end
        })
        .collect()
}

/// An in-memory labelled image dataset (NCHW, 3 channels).
///
/// Images live behind an `Arc`, so clones share one image buffer.
#[derive(Debug, Clone)]
pub struct Dataset {
    images: Arc<Vec<f32>>,
    labels: Vec<usize>,
    size: usize,
}

impl Dataset {
    /// Wraps raw NCHW image data (3 channels, square images of side
    /// `size`) and labels into a dataset.
    ///
    /// # Panics
    ///
    /// Panics if `images.len() != labels.len() * 3 * size * size`.
    #[must_use]
    pub fn from_parts(images: Vec<f32>, labels: Vec<usize>, size: usize) -> Self {
        assert_eq!(
            images.len(),
            labels.len() * 3 * size * size,
            "images must hold labels.len() NCHW samples of side {size}"
        );
        Self {
            images: Arc::new(images),
            labels,
            size,
        }
    }
    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if the dataset has no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Image side length.
    #[must_use]
    pub fn image_size(&self) -> usize {
        self.size
    }

    /// Labels slice.
    #[must_use]
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Assembles a batch tensor `[B, 3, S, S]` plus labels for the given
    /// sample indices.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    #[must_use]
    pub fn batch(&self, idx: &[usize]) -> (Tensor, Vec<usize>) {
        let mut x = Tensor::zeros(&[idx.len(), 3, self.size, self.size]);
        let mut labels = Vec::with_capacity(idx.len());
        self.gather(idx, &mut x, &mut labels);
        (x, labels)
    }

    /// Assembles a batch into a caller-owned tensor and label buffer —
    /// the allocation-free path for streaming loops ([`Tensor::data_mut`]
    /// reuses the buffer whenever no stale share is alive). The gather is
    /// a serial copy on the calling thread; results are bitwise identical
    /// to [`Dataset::batch`].
    ///
    /// `_rt` is unused: the parameter stays only until the benchmark
    /// harness that passes it is next revised (ROADMAP item 4 drops it).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or `x` is not
    /// `[idx.len(), 3, size, size]`.
    pub fn batch_into(
        &self,
        _rt: &Runtime,
        idx: &[usize],
        x: &mut Tensor,
        labels: &mut Vec<usize>,
    ) {
        self.gather(idx, x, labels);
    }

    /// [`Dataset::batch_into`] without the unused runtime parameter.
    pub(crate) fn gather(&self, idx: &[usize], x: &mut Tensor, labels: &mut Vec<usize>) {
        let plane = 3 * self.size * self.size;
        assert_eq!(
            x.shape(),
            &[idx.len(), 3, self.size, self.size],
            "batch tensor shape must match the index count"
        );
        labels.clear();
        for &i in idx {
            assert!(
                i < self.labels.len(),
                "sample index {i} out of range (dataset has {} samples)",
                self.labels.len()
            );
            labels.push(self.labels[i]);
        }
        // Every element is overwritten, so the tensor needs no pre-zeroing.
        let out = x.data_mut();
        for (bi, &i) in idx.iter().enumerate() {
            out[bi * plane..(bi + 1) * plane]
                .copy_from_slice(&self.images[i * plane..(i + 1) * plane]);
        }
    }

    /// Splits the dataset into `shards` contiguous shards along the
    /// sample axis, per [`shard_spans`]: equal-prefix split, remainder to
    /// the last shard. Deterministic — a pure function of
    /// `(self.len(), shards)`. Shards may be empty when the dataset has
    /// fewer samples than shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn shard(&self, shards: usize) -> Vec<Dataset> {
        let plane = 3 * self.size * self.size;
        shard_spans(self.len(), shards)
            .into_iter()
            .map(|span| Dataset {
                images: Arc::new(self.images[span.start * plane..span.end * plane].to_vec()),
                labels: self.labels[span].to_vec(),
                size: self.size,
            })
            .collect()
    }
}

/// Difficulty profile of the generator.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Angular separation between class orientations (radians).
    pub angle_step: f64,
    /// Base spatial frequency (cycles per image).
    pub base_freq: f64,
    /// Frequency increment per class group.
    pub freq_step: f64,
    /// Additive Gaussian pixel noise sigma.
    pub noise: f64,
    /// Per-sample orientation jitter sigma (radians).
    pub jitter: f64,
}

impl Profile {
    /// CIFAR-10-like difficulty: classes separated enough for a slim
    /// ResNet baseline to clear ~90% at the default experiment scale, with
    /// enough headroom below for degraded arithmetic to show.
    #[must_use]
    pub fn cifar() -> Self {
        Self {
            angle_step: 0.32,
            base_freq: 2.0,
            freq_step: 0.5,
            noise: 0.45,
            jitter: 0.10,
        }
    }

    /// Imagewoof-like difficulty ("a more challenging dataset"): closer
    /// class parameters, stronger noise and jitter.
    #[must_use]
    pub fn imagewoof() -> Self {
        Self {
            angle_step: 0.24,
            base_freq: 2.2,
            freq_step: 0.4,
            noise: 0.60,
            jitter: 0.14,
        }
    }
}

/// Generates a synthetic dataset with `n` samples of side `size`.
///
/// Deterministic in `(profile, n, size, seed)`; labels are balanced
/// round-robin.
#[must_use]
pub fn generate(profile: Profile, n: usize, size: usize, seed: u64) -> Dataset {
    let mut rng = SplitMix64::new(seed ^ 0x0DA7_A5E7);
    let plane = size * size;
    let mut images = Vec::with_capacity(n * 3 * plane);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % NUM_CLASSES;
        labels.push(class);
        // Class parameters.
        let theta0 = class as f64 * profile.angle_step;
        let freq = profile.base_freq + f64::from(class as u32 % 5) * profile.freq_step;
        let freq2 = profile.base_freq * 1.9 + f64::from(class as u32 / 5) * profile.freq_step;
        // Per-sample jitter.
        let theta = theta0 + rng.next_normal() * profile.jitter;
        let phase = rng.next_f64() * std::f64::consts::TAU;
        let phase2 = rng.next_f64() * std::f64::consts::TAU;
        let (sin_t, cos_t) = (scalar_math::sin_f64(theta), scalar_math::cos_f64(theta));
        // Class color mixing of the two texture components.
        let mix = |c: usize, ch: usize| -> f64 {
            let k = (c * 3 + ch) as f64;
            0.5 + 0.5 * scalar_math::sin_f64(k * 1.7 + 0.4)
        };
        for ch in 0..3 {
            let (w1, w2) = (mix(class, ch), 1.0 - mix(class, ch));
            for y in 0..size {
                for x in 0..size {
                    let u = x as f64 / size as f64;
                    let v = y as f64 / size as f64;
                    let ur = u * cos_t - v * sin_t;
                    let vr = u * sin_t + v * cos_t;
                    // Pinned scalar sin/cos: synthetic pixels are part of
                    // the golden-vector contract and must not change with
                    // the build's target features.
                    let t1 = scalar_math::sin_f64(std::f64::consts::TAU * freq * ur + phase);
                    let t2 = scalar_math::cos_f64(std::f64::consts::TAU * freq2 * vr + phase2);
                    let val = w1 * t1 + w2 * t2 + profile.noise * rng.next_normal();
                    images.push(val as f32 * 0.5);
                }
            }
        }
    }
    Dataset::from_parts(images, labels, size)
}

/// SynthCIFAR10: the CIFAR-10 stand-in.
#[must_use]
pub fn synth_cifar10(n: usize, size: usize, seed: u64) -> Dataset {
    generate(Profile::cifar(), n, size, seed)
}

/// SynthImagewoof: the Imagewoof stand-in (harder).
#[must_use]
pub fn synth_imagewoof(n: usize, size: usize, seed: u64) -> Dataset {
    generate(Profile::imagewoof(), n, size, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_balanced() {
        let a = synth_cifar10(40, 8, 7);
        let b = synth_cifar10(40, 8, 7);
        assert_eq!(a.images, b.images);
        assert_eq!(a.labels, b.labels);
        for c in 0..NUM_CLASSES {
            assert_eq!(a.labels().iter().filter(|&&l| l == c).count(), 4);
        }
    }

    #[test]
    fn batch_shapes() {
        let d = synth_cifar10(20, 8, 1);
        let (x, y) = d.batch(&[0, 3, 7]);
        assert_eq!(x.shape(), &[3, 3, 8, 8]);
        assert_eq!(y.len(), 3);
        assert!(x.all_finite());
    }

    #[test]
    fn batch_into_is_thread_invariant_and_reuses_the_buffer() {
        let d = synth_cifar10(20, 8, 1);
        let idx = [4usize, 0, 17, 9];
        let (want_x, want_y) = d.batch(&idx);
        let mut labels = Vec::new();
        for threads in 1..=8 {
            let rt = Runtime::new(threads);
            let mut x = Tensor::zeros(&[idx.len(), 3, 8, 8]);
            d.batch_into(&rt, &idx, &mut x, &mut labels);
            let same = want_x
                .data()
                .iter()
                .zip(x.data())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{threads} threads: batch gather diverged");
            assert_eq!(labels, want_y);
        }
        // Reuse without stale shares keeps the same allocation.
        let rt = Runtime::serial();
        let mut x = Tensor::zeros(&[idx.len(), 3, 8, 8]);
        d.batch_into(&rt, &idx, &mut x, &mut labels);
        let ptr = x.data().as_ptr();
        d.batch_into(&rt, &[1, 2, 3, 4], &mut x, &mut labels);
        assert_eq!(x.data().as_ptr(), ptr);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn batch_rejects_out_of_range_indices() {
        let d = synth_cifar10(10, 8, 1);
        let _ = d.batch(&[10]);
    }

    #[test]
    #[should_panic(expected = "must hold")]
    fn from_parts_rejects_mismatched_lengths() {
        let _ = Dataset::from_parts(vec![0.0; 10], vec![0, 1], 8);
    }

    #[test]
    fn shard_spans_are_equal_prefix_with_remainder_last() {
        assert_eq!(shard_spans(10, 4), vec![0..2, 2..4, 4..6, 6..10]);
        assert_eq!(shard_spans(12, 4), vec![0..3, 3..6, 6..9, 9..12]);
        assert_eq!(shard_spans(7, 1), vec![0..7]);
        // Fewer items than shards: every prefix span is empty, the last
        // takes everything.
        assert_eq!(shard_spans(3, 5), vec![0..0, 0..0, 0..0, 0..0, 0..3]);
        assert_eq!(shard_spans(0, 3), vec![0..0, 0..0, 0..0]);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn shard_spans_reject_zero_shards() {
        let _ = shard_spans(4, 0);
    }

    #[test]
    fn dataset_shards_partition_samples_in_order() {
        let d = synth_cifar10(10, 8, 1);
        let shards = d.shard(4);
        assert_eq!(
            shards.iter().map(Dataset::len).collect::<Vec<_>>(),
            vec![2, 2, 2, 4],
            "ragged split puts the remainder in the last shard"
        );
        // Every sample lands in exactly one shard, order preserved,
        // pixels and labels bit-identical to batching the original.
        let plane = 3 * 8 * 8;
        let mut global = 0usize;
        for shard in &shards {
            for local in 0..shard.len() {
                assert_eq!(shard.labels()[local], d.labels()[global]);
                let (sx, _) = shard.batch(&[local]);
                let (dx, _) = d.batch(&[global]);
                assert_eq!(sx.data().len(), plane);
                let same = sx
                    .data()
                    .iter()
                    .zip(dx.data())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "shard sample {global} changed bits");
                global += 1;
            }
        }
        assert_eq!(global, d.len());
    }

    #[test]
    fn sharding_below_shard_count_yields_empty_prefix_shards() {
        let d = synth_cifar10(3, 8, 2);
        let shards = d.shard(5);
        assert_eq!(
            shards.iter().map(Dataset::len).collect::<Vec<_>>(),
            vec![0, 0, 0, 0, 3]
        );
        assert!(shards[0].is_empty());
        // Empty shards are structurally valid datasets.
        assert_eq!(shards[0].image_size(), 8);
    }

    #[test]
    fn pixel_range_is_sane() {
        let d = synth_cifar10(100, 12, 2);
        let mx = d.images.iter().fold(0.0f32, |a, &b| a.max(b.abs()));
        assert!(mx < 3.0, "pixels should be O(1), got {mx}");
        let mean: f32 = d.images.iter().sum::<f32>() / d.images.len() as f32;
        assert!(mean.abs() < 0.1, "mean {mean}");
    }

    /// Phase-invariant texture features: mean absolute horizontal and
    /// vertical differences per channel (orientation- and frequency-
    /// sensitive, unlike raw pixel means, which are ~0 because each sample
    /// draws a random phase).
    fn directional_features(d: &Dataset, sample: usize) -> [f32; 6] {
        let s = d.image_size();
        let plane = s * s;
        let img = &d.images[sample * 3 * plane..(sample + 1) * 3 * plane];
        let mut feat = [0.0f32; 6];
        for ch in 0..3 {
            let base = ch * plane;
            let (mut gh, mut gv) = (0.0f32, 0.0f32);
            for y in 0..s {
                for x in 0..s - 1 {
                    gh += (img[base + y * s + x + 1] - img[base + y * s + x]).abs();
                }
            }
            for y in 0..s - 1 {
                for x in 0..s {
                    gv += (img[base + (y + 1) * s + x] - img[base + y * s + x]).abs();
                }
            }
            feat[ch * 2] = gh / (s * (s - 1)) as f32;
            feat[ch * 2 + 1] = gv / (s * (s - 1)) as f32;
        }
        feat
    }

    /// Class centroids in directional-feature space, and the ratio of the
    /// closest between-class distance to the mean within-class spread.
    fn separability(d: &Dataset) -> f32 {
        let mut centroids = [[0.0f32; 6]; NUM_CLASSES];
        let mut counts = [0usize; NUM_CLASSES];
        let feats: Vec<[f32; 6]> = (0..d.len()).map(|i| directional_features(d, i)).collect();
        for (i, f) in feats.iter().enumerate() {
            let c = d.labels()[i];
            counts[c] += 1;
            for (acc, v) in centroids[c].iter_mut().zip(f) {
                *acc += v;
            }
        }
        for (c, n) in centroids.iter_mut().zip(counts) {
            c.iter_mut().for_each(|v| *v /= n as f32);
        }
        let dist = |a: &[f32; 6], b: &[f32; 6]| -> f32 {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f32>()
                .sqrt()
        };
        let mut min_between = f32::INFINITY;
        for i in 0..NUM_CLASSES {
            for j in (i + 1)..NUM_CLASSES {
                min_between = min_between.min(dist(&centroids[i], &centroids[j]));
            }
        }
        let mut spread = 0.0f32;
        for (i, f) in feats.iter().enumerate() {
            spread += dist(f, &centroids[d.labels()[i]]);
        }
        spread /= feats.len() as f32;
        min_between / spread.max(1e-9)
    }

    #[test]
    fn classes_are_statistically_distinct() {
        let d = synth_cifar10(400, 12, 3);
        let sep = separability(&d);
        assert!(sep > 0.4, "class separability in feature space: {sep}");
    }

    #[test]
    fn imagewoof_is_harder_than_cifar() {
        // Harder = lower class separability (closer class parameters, more
        // noise and jitter).
        let easy = separability(&synth_cifar10(400, 12, 4));
        let hard = separability(&synth_imagewoof(400, 12, 4));
        assert!(
            hard < easy * 0.8,
            "imagewoof separability {hard} should be well below cifar {easy}"
        );
    }
}
