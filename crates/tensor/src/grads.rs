//! Gradient plumbing for data-parallel training: flattening a model's
//! parameter gradients into one contiguous buffer (the unit
//! [`tree_reduce`](crate::tree_reduce) reduces over) and scattering a
//! reduced buffer back into the primary model's gradient tensors.
//!
//! Both directions walk the model through [`Layer::visit_params`], so the
//! order is the model's own deterministic parameter order — the same order
//! the optimizer uses — and replicas built by [`Layer::clone_layer`]
//! flatten to index-aligned buffers by construction.

use crate::layers::Layer;

/// Total number of gradient elements across every parameter of `model`.
pub fn grad_len(model: &mut dyn Layer) -> usize {
    let mut len = 0;
    model.visit_params(&mut |p| len += p.grad.numel());
    len
}

/// Flattens every parameter gradient of `model`, in `visit_params` order,
/// into `out` (cleared and refilled). Values are copied bit-for-bit.
pub fn flatten_grads(model: &mut dyn Layer, out: &mut Vec<f32>) {
    out.clear();
    model.visit_params(&mut |p| out.extend_from_slice(p.grad.data()));
}

/// Scatters `flat` — a buffer laid out by [`flatten_grads`] — back into
/// `model`'s gradient tensors, overwriting them bit-for-bit.
///
/// # Panics
///
/// Panics if `flat` does not hold exactly the model's gradient element
/// count (a structure mismatch between reduce and scatter would otherwise
/// silently corrupt training).
pub fn scatter_grads(model: &mut dyn Layer, flat: &[f32]) {
    let mut offset = 0;
    model.visit_params(&mut |p| {
        let n = p.grad.numel();
        assert!(
            offset + n <= flat.len(),
            "flattened gradient buffer shorter than the model's parameters"
        );
        p.grad.copy_from_slice(&flat[offset..offset + n]);
        offset += n;
    });
    assert_eq!(
        offset,
        flat.len(),
        "flattened gradient buffer longer than the model's parameters"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Param;
    use crate::Tensor;

    struct TwoParams {
        a: Param,
        b: Param,
    }

    impl Layer for TwoParams {
        fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
            x.clone()
        }
        fn backward(&mut self, grad: &Tensor) -> Tensor {
            grad.clone()
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.a);
            f(&mut self.b);
        }
    }

    fn layer() -> TwoParams {
        let mut a = Param::new(Tensor::zeros(&[2, 2]), true);
        a.grad.copy_from_slice(&[1.0, -2.0, 3.0, f32::MIN_POSITIVE]);
        let mut b = Param::new(Tensor::zeros(&[3]), false);
        b.grad.copy_from_slice(&[-0.0, 5.5, -7.25]);
        TwoParams { a, b }
    }

    #[test]
    fn flatten_scatter_roundtrip_is_bitwise() {
        let mut l = layer();
        assert_eq!(grad_len(&mut l), 7);
        let mut flat = Vec::new();
        flatten_grads(&mut l, &mut flat);
        assert_eq!(flat.len(), 7);
        assert_eq!(flat[4].to_bits(), (-0.0f32).to_bits());

        // Perturb, then scatter the snapshot back: bit-exact restore.
        l.a.grad.zero_();
        l.b.grad.zero_();
        scatter_grads(&mut l, &flat);
        let mut again = Vec::new();
        flatten_grads(&mut l, &mut again);
        let same = flat
            .iter()
            .zip(&again)
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "roundtrip changed bits");
    }

    #[test]
    #[should_panic(expected = "shorter than")]
    fn scatter_rejects_short_buffers() {
        let mut l = layer();
        scatter_grads(&mut l, &[0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "longer than")]
    fn scatter_rejects_long_buffers() {
        let mut l = layer();
        scatter_grads(&mut l, &[0.0; 9]);
    }
}
