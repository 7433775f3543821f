//! Residual building blocks (basic and bottleneck) shared by the ResNet
//! models.

use std::sync::Arc;

use srmac_rng::SplitMix64;
use srmac_tensor::init::kaiming_normal;
use srmac_tensor::layers::{BatchNorm2d, Conv2d, Layer, Relu};
use srmac_tensor::numerics::RoleEngines;
use srmac_tensor::{GemmEngine, Param, Sequential, Tensor};

/// Builds `Conv2d(in, out, k, stride, pad)` with Kaiming-initialized
/// weights on the given per-role engines.
pub(crate) fn conv(
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
    engines: &RoleEngines,
    rng: &mut SplitMix64,
) -> Conv2d {
    let fan_in = in_c * k * k;
    let w = kaiming_normal(&[out_c, fan_in], fan_in, rng);
    Conv2d::per_role(in_c, out_c, k, stride, pad, w, engines.clone())
}

/// A residual block: `out = relu(main(x) + shortcut(x))`.
///
/// `main` is conv-bn-relu-conv-bn (basic) or the 1x1/3x3/1x1 bottleneck
/// stack; `shortcut` is identity, or 1x1-conv + bn on shape changes.
pub struct ResidualBlock {
    main: Sequential,
    shortcut: Option<Sequential>,
    relu_mask: Vec<bool>,
}

impl std::fmt::Debug for ResidualBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.describe())
    }
}

impl ResidualBlock {
    /// A basic (two 3x3 convs) block from `in_c` to `out_c` with `stride`;
    /// every conv (the projection too, when one exists) runs on
    /// `engines`.
    #[must_use]
    pub fn basic_with(
        in_c: usize,
        out_c: usize,
        stride: usize,
        engines: &RoleEngines,
        rng: &mut SplitMix64,
    ) -> Self {
        let mut main = Sequential::new();
        main.push(conv(in_c, out_c, 3, stride, 1, engines, rng));
        main.push(BatchNorm2d::new(out_c));
        main.push(Relu::new());
        main.push(conv(out_c, out_c, 3, 1, 1, engines, rng));
        main.push(BatchNorm2d::new(out_c));
        let shortcut = Self::projection(in_c, out_c, stride, engines, rng);
        Self {
            main,
            shortcut,
            relu_mask: Vec::new(),
        }
    }

    /// A bottleneck (1x1 -> 3x3 -> 1x1, expansion 4) block; every conv
    /// (the projection too, when one exists) runs on `engines`.
    #[must_use]
    pub fn bottleneck_with(
        in_c: usize,
        width: usize,
        stride: usize,
        engines: &RoleEngines,
        rng: &mut SplitMix64,
    ) -> Self {
        let out_c = width * 4;
        let mut main = Sequential::new();
        main.push(conv(in_c, width, 1, 1, 0, engines, rng));
        main.push(BatchNorm2d::new(width));
        main.push(Relu::new());
        main.push(conv(width, width, 3, stride, 1, engines, rng));
        main.push(BatchNorm2d::new(width));
        main.push(Relu::new());
        main.push(conv(width, out_c, 1, 1, 0, engines, rng));
        main.push(BatchNorm2d::new(out_c));
        let shortcut = Self::projection(in_c, out_c, stride, engines, rng);
        Self {
            main,
            shortcut,
            relu_mask: Vec::new(),
        }
    }

    fn projection(
        in_c: usize,
        out_c: usize,
        stride: usize,
        engines: &RoleEngines,
        rng: &mut SplitMix64,
    ) -> Option<Sequential> {
        if in_c == out_c && stride == 1 {
            return None;
        }
        let mut s = Sequential::new();
        s.push(conv(in_c, out_c, 1, stride, 0, engines, rng));
        s.push(BatchNorm2d::new(out_c));
        Some(s)
    }
}

impl Layer for ResidualBlock {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut y = self.main.forward(x, train);
        let s = match &mut self.shortcut {
            Some(sc) => sc.forward(x, train),
            None => x.clone(),
        };
        y.add_assign(&s);
        if train {
            self.relu_mask = y.data().iter().map(|&v| v > 0.0).collect();
        }
        y.data_mut().iter_mut().for_each(|v| {
            if *v < 0.0 {
                *v = 0.0;
            }
        });
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.backward_masked(grad, None)
    }

    // The output ReLU overwrites the gradient with 0 where it was off.
    fn grad_mask(&self) -> Option<&[bool]> {
        Some(&self.relu_mask)
    }

    // Both paths end at the block input, so both compute only the
    // entries the caller reads; their sum is exact at every one of them.
    fn backward_masked(&mut self, grad: &Tensor, need: Option<&[bool]>) -> Tensor {
        assert_eq!(
            grad.numel(),
            self.relu_mask.len(),
            "backward before forward(train=true)"
        );
        let mut dz = grad.clone();
        for (g, &m) in dz.data_mut().iter_mut().zip(&self.relu_mask) {
            if !m {
                *g = 0.0;
            }
        }
        let mut dx = self.main.backward_masked(&dz, need);
        let ds = match &mut self.shortcut {
            Some(sc) => sc.backward_masked(&dz, need),
            None => dz,
        };
        dx.add_assign(&ds);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.main.visit_params(f);
        if let Some(sc) = &mut self.shortcut {
            sc.visit_params(f);
        }
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        self.main.visit_state(f);
        if let Some(sc) = &mut self.shortcut {
            sc.visit_state(f);
        }
    }

    fn visit_role_engines(
        &mut self,
        f: &mut dyn FnMut(srmac_tensor::GemmRole, &Arc<dyn GemmEngine>),
    ) {
        self.main.visit_role_engines(f);
        if let Some(sc) = &mut self.shortcut {
            sc.visit_role_engines(f);
        }
    }

    fn describe(&self) -> String {
        format!(
            "Residual[{}{}]",
            self.main.describe(),
            if self.shortcut.is_some() {
                " + proj"
            } else {
                ""
            }
        )
    }

    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        let main = self.main.try_clone()?;
        let shortcut = match &self.shortcut {
            Some(sc) => Some(sc.try_clone()?),
            None => None,
        };
        Some(Box::new(ResidualBlock {
            main,
            shortcut,
            // Backward-pass state; forward(train) rebuilds it per replica.
            relu_mask: Vec::new(),
        }))
    }

    fn set_batch_offset(&mut self, offset: usize) {
        self.main.set_batch_offset(offset);
        if let Some(sc) = &mut self.shortcut {
            sc.set_batch_offset(offset);
        }
    }

    fn warm_weight_packs(&mut self) {
        self.main.warm_weight_packs();
        if let Some(sc) = &mut self.shortcut {
            sc.warm_weight_packs();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srmac_tensor::{F32Engine, Numerics};

    fn numerics() -> Numerics {
        Numerics::uniform(Arc::new(F32Engine::new(1)))
    }

    #[test]
    fn identity_block_shapes() {
        let mut rng = SplitMix64::new(1);
        let mut b = ResidualBlock::basic_with(8, 8, 1, numerics().roles(), &mut rng);
        let x = Tensor::zeros(&[2, 8, 6, 6]);
        let y = b.forward(&x, true);
        assert_eq!(y.shape(), &[2, 8, 6, 6]);
        let dx = b.backward(&y);
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn downsampling_block_shapes() {
        let mut rng = SplitMix64::new(2);
        let mut b = ResidualBlock::basic_with(8, 16, 2, numerics().roles(), &mut rng);
        let x = Tensor::zeros(&[2, 8, 8, 8]);
        let y = b.forward(&x, true);
        assert_eq!(y.shape(), &[2, 16, 4, 4]);
        let dx = b.backward(&y);
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn bottleneck_block_shapes() {
        let mut rng = SplitMix64::new(3);
        let mut b = ResidualBlock::bottleneck_with(16, 4, 2, numerics().roles(), &mut rng);
        let x = Tensor::zeros(&[1, 16, 8, 8]);
        let y = b.forward(&x, true);
        assert_eq!(y.shape(), &[1, 16, 4, 4]); // 4 * expansion 4 = 16
        let dx = b.backward(&y);
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn residual_gradient_flows_through_both_paths() {
        // With an identity shortcut, a constant positive output gradient
        // must reach the input both directly and through the convs.
        let mut rng = SplitMix64::new(4);
        let mut b = ResidualBlock::basic_with(4, 4, 1, numerics().roles(), &mut rng);
        let mut x = Tensor::zeros(&[1, 4, 4, 4]);
        x.data_mut()
            .iter_mut()
            .enumerate()
            .for_each(|(i, v)| *v = (i % 7) as f32 * 0.3 + 0.1);
        let y = b.forward(&x, true);
        let g = Tensor::from_vec(vec![1.0; y.numel()], y.shape());
        let dx = b.backward(&g);
        // The identity path alone contributes 1.0 wherever relu was active;
        // dx must therefore be nonzero somewhere.
        assert!(dx.data().iter().any(|&v| v != 0.0));
    }
}
