//! A minimal dense `f32` tensor.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide generation source: every tensor construction and every
/// mutation takes a fresh value, so no two distinct tensor states — not
/// even a freshly constructed tensor assigned over an old one — can ever
/// share a generation.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

fn next_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// A dense row-major `f32` tensor with a dynamic shape.
///
/// Deliberately small: just what the layer zoo needs (storage, shape
/// bookkeeping, and a few elementwise helpers). All heavy math lives in the
/// GEMM engines.
///
/// Every construction and every mutating access stamps the tensor with a
/// process-unique [`generation`](Tensor::generation); the layers key their
/// cached packed GEMM operands on it, so any write through any path
/// (optimizer step, gradient-check probe, manual weight surgery, even
/// assigning a brand-new tensor over a parameter) invalidates the caches
/// without cooperation from the writer.
///
/// Storage is an `Arc<Vec<f32>>` with copy-on-write mutation: clones are
/// O(1) and share the buffer (data-parallel replicas share their weights
/// this way). A mutable access clones the storage only when another
/// handle is still alive.
#[derive(Clone)]
pub struct Tensor {
    data: Arc<Vec<f32>>,
    shape: Vec<usize>,
    generation: u64,
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        // Generations are bookkeeping, not value: equal data is equal.
        self.shape == other.shape && self.data == other.data
    }
}

impl Tensor {
    /// Creates a zero-filled tensor.
    #[must_use]
    pub fn zeros(shape: &[usize]) -> Self {
        Self {
            data: Arc::new(vec![0.0; shape.iter().product()]),
            shape: shape.to_vec(),
            generation: next_generation(),
        }
    }

    /// Wraps existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    #[must_use]
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "data length must match shape {shape:?}"
        );
        Self {
            data: Arc::new(data),
            shape: shape.to_vec(),
            generation: next_generation(),
        }
    }

    /// Process-unique state stamp: refreshed on construction and by every
    /// `&mut self` accessor. Two observations of the same generation
    /// guarantee the data has not changed in between — across *all*
    /// tensors, not just this one (the converse does not hold — a new
    /// stamp may cover identical values). Clones share their source's
    /// generation, which is sound because they also share its data.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The shape.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[must_use]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the storage.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the storage (counts as a mutation). Copies the
    /// buffer first if another handle still shares it (copy-on-write).
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.generation = next_generation();
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Overwrites the storage with `src` (counts as a mutation). The
    /// checkpoint loader restores parameters through this: values are
    /// copied bit-for-bit (NaN payloads included) and the write bumps the
    /// generation, so cached packed operands keyed on the old state are
    /// invalidated like any other weight write.
    ///
    /// # Panics
    ///
    /// Panics if `src.len()` differs from the element count.
    pub fn copy_from_slice(&mut self, src: &[f32]) {
        assert_eq!(
            src.len(),
            self.data.len(),
            "copy_from_slice length must match the tensor's element count"
        );
        self.generation = next_generation();
        Arc::make_mut(&mut self.data).copy_from_slice(src);
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Panics
    ///
    /// Panics on element-count mismatch.
    #[must_use]
    pub fn reshaped(mut self, shape: &[usize]) -> Self {
        assert_eq!(
            self.data.len(),
            shape.iter().product::<usize>(),
            "reshape to {shape:?} changes element count"
        );
        self.shape = shape.to_vec();
        self
    }

    /// Fills with zeros in place.
    pub fn zero_(&mut self) {
        self.generation = next_generation();
        Arc::make_mut(&mut self.data)
            .iter_mut()
            .for_each(|v| *v = 0.0);
    }

    /// True if every element is finite.
    #[must_use]
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// In-place scaling.
    pub fn scale_(&mut self, s: f32) {
        self.generation = next_generation();
        Arc::make_mut(&mut self.data)
            .iter_mut()
            .for_each(|v| *v *= s);
    }

    /// Elementwise sum with another tensor of the same shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch in add_assign");
        self.generation = next_generation();
        for (a, b) in Arc::make_mut(&mut self.data)
            .iter_mut()
            .zip(other.data.iter())
        {
            *a += b;
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.numel() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{:.4}, {:.4}, ...]", self.data[0], self.data[1])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generations_are_process_unique() {
        // The packed-weight caches key on generations, so two distinct
        // tensor states must never share one — in particular a freshly
        // constructed tensor must not collide with an older tensor's
        // stamp (the "assign a new Tensor over Param::value" hole).
        let a = Tensor::zeros(&[2]);
        let b = Tensor::from_vec(vec![0.0, 0.0], &[2]);
        assert_ne!(a.generation(), b.generation());
        let mut c = b.clone();
        assert_eq!(b.generation(), c.generation(), "clones share state");
        c.data_mut()[0] = 1.0;
        assert_ne!(b.generation(), c.generation());
        let before = c.generation();
        c.zero_();
        c.scale_(2.0);
        assert!(c.generation() > before);
        // Replacing a value wholesale also moves the generation.
        let replacement = Tensor::zeros(&[2]);
        assert_ne!(replacement.generation(), c.generation());
    }

    #[test]
    fn copy_on_write_isolates_clones_and_shares() {
        let mut a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = a.clone();
        let mut c = b.clone();
        // Clones alias the same buffer until a write.
        assert_eq!(a.data().as_ptr(), b.data().as_ptr());
        assert_eq!(b.data().as_ptr(), c.data().as_ptr());
        a.data_mut()[0] = 9.0;
        assert_eq!(a.data(), &[9.0, 2.0, 3.0]);
        assert_eq!(b.data(), &[1.0, 2.0, 3.0], "clone must not see the write");
        c.data_mut()[1] = 7.0;
        assert_eq!(b.data(), &[1.0, 2.0, 3.0], "a share must not see the write");
        assert_eq!(c.data(), &[1.0, 7.0, 3.0]);
    }

    #[test]
    fn construction_and_shape() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.numel(), 24);
        assert_eq!(t.shape(), &[2, 3, 4]);
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        assert_eq!(t.data(), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "data length must match")]
    fn mismatched_shape_panics() {
        let _ = Tensor::from_vec(vec![1.0], &[2]);
    }

    #[test]
    fn copy_from_slice_is_bitwise_and_bumps_generation() {
        let mut t = Tensor::zeros(&[3]);
        let before = t.generation();
        // A NaN with a non-canonical payload must survive bit-for-bit.
        let nan = f32::from_bits(0x7FC0_1234);
        t.copy_from_slice(&[1.5, -0.0, nan]);
        assert_ne!(t.generation(), before, "restore must invalidate caches");
        assert_eq!(t.data()[0].to_bits(), 1.5f32.to_bits());
        assert_eq!(t.data()[1].to_bits(), (-0.0f32).to_bits());
        assert_eq!(t.data()[2].to_bits(), 0x7FC0_1234);
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn copy_from_slice_rejects_wrong_length() {
        Tensor::zeros(&[2]).copy_from_slice(&[0.0; 3]);
    }

    #[test]
    fn reshape_and_ops() {
        let mut t = Tensor::from_vec(vec![1.0, -2.0, 3.0, 4.0], &[2, 2]).reshaped(&[4]);
        assert_eq!(t.shape(), &[4]);
        t.scale_(2.0);
        assert_eq!(t.data(), &[2.0, -4.0, 6.0, 8.0]);
        let u = Tensor::from_vec(vec![1.0; 4], &[4]);
        t.add_assign(&u);
        assert_eq!(t.data(), &[3.0, -3.0, 7.0, 9.0]);
        assert!(t.all_finite());
        t.data_mut()[0] = f32::NAN;
        assert!(!t.all_finite());
    }
}
