//! ResNet models: the CIFAR-style ResNet-20 and the bottleneck ResNet-50
//! of the paper's Sec. IV, with a width knob for laptop-scale runs
//! (`width = 16` reproduces the paper-exact ResNet-20 shape).
//!
//! Each builder takes every GEMM layer's forward/backward engines from a
//! [`Numerics`] policy ([`Numerics::roles`]) — [`Numerics::uniform`] puts
//! one engine on every role.

use srmac_rng::SplitMix64;
use srmac_tensor::init::uniform_fan_in;
use srmac_tensor::layers::{BatchNorm2d, GlobalAvgPool, Linear, Relu};
use srmac_tensor::numerics::Numerics;
use srmac_tensor::Sequential;

use crate::blocks::{conv, ResidualBlock};

/// CIFAR-style ResNet-20: a 3x3 stem, three stages of three basic blocks at
/// widths `(w, 2w, 4w)` with strides `(1, 2, 2)`, global average pooling
/// and a linear classifier. `width = 16` is the paper's exact model.
#[must_use]
pub fn resnet20_with(numerics: &Numerics, width: usize, classes: usize, seed: u64) -> Sequential {
    resnet_basic_with(numerics, width, &[3, 3, 3], classes, seed)
}

/// A basic-block ResNet with `blocks[i]` blocks in stage `i`.
#[must_use]
pub fn resnet_basic_with(
    numerics: &Numerics,
    width: usize,
    blocks: &[usize],
    classes: usize,
    seed: u64,
) -> Sequential {
    let mut rng = SplitMix64::new(seed);
    let engines = numerics.roles();
    let mut net = Sequential::new();
    net.push(conv(3, width, 3, 1, 1, engines, &mut rng));
    net.push(BatchNorm2d::new(width));
    net.push(Relu::new());
    let mut in_c = width;
    for (stage, &nblocks) in blocks.iter().enumerate() {
        let out_c = width << stage;
        for b in 0..nblocks {
            let stride = if stage > 0 && b == 0 { 2 } else { 1 };
            net.push(ResidualBlock::basic_with(
                in_c, out_c, stride, engines, &mut rng,
            ));
            in_c = out_c;
        }
    }
    net.push(GlobalAvgPool::new());
    net.push(Linear::per_role(
        in_c,
        classes,
        uniform_fan_in(&[classes, in_c], in_c, &mut rng),
        engines.clone(),
    ));
    net
}

/// Bottleneck ResNet-50 adapted to small inputs (3x3 stem, no max-pool):
/// stages of `(3, 4, 6, 3)` bottleneck blocks at widths `(w, 2w, 4w, 8w)`
/// (expansion 4) with strides `(1, 2, 2, 2)`. `width = 64` is the paper's
/// exact model up to the stem.
#[must_use]
pub fn resnet50_with(numerics: &Numerics, width: usize, classes: usize, seed: u64) -> Sequential {
    let mut rng = SplitMix64::new(seed);
    let engines = numerics.roles();
    let mut net = Sequential::new();
    net.push(conv(3, width, 3, 1, 1, engines, &mut rng));
    net.push(BatchNorm2d::new(width));
    net.push(Relu::new());
    let stages = [3usize, 4, 6, 3];
    let mut in_c = width;
    for (stage, &nblocks) in stages.iter().enumerate() {
        let w = width << stage;
        for b in 0..nblocks {
            let stride = if stage > 0 && b == 0 { 2 } else { 1 };
            net.push(ResidualBlock::bottleneck_with(
                in_c, w, stride, engines, &mut rng,
            ));
            in_c = w * 4;
        }
    }
    net.push(GlobalAvgPool::new());
    net.push(Linear::per_role(
        in_c,
        classes,
        uniform_fan_in(&[classes, in_c], in_c, &mut rng),
        engines.clone(),
    ));
    net
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use srmac_tensor::layers::Layer;
    use srmac_tensor::{F32Engine, GemmEngine, Tensor};

    fn engine() -> Arc<dyn GemmEngine> {
        Arc::new(F32Engine::new(2))
    }

    fn numerics() -> Numerics {
        Numerics::uniform(engine())
    }

    #[test]
    fn resnet20_shapes_and_param_count() {
        let mut net = resnet20_with(&numerics(), 16, 10, 0);
        // The paper-exact ResNet-20 has ~0.27M parameters.
        let params = net.param_count();
        assert!(
            (250_000..300_000).contains(&params),
            "ResNet-20 has {params} params, expected ~0.27M"
        );
        let x = Tensor::zeros(&[2, 3, 32, 32]);
        let y = net.forward(&x, false);
        assert_eq!(y.shape(), &[2, 10]);
    }

    #[test]
    fn resnet20_slim_forward_backward() {
        let mut net = resnet20_with(&numerics(), 8, 10, 1);
        let x = Tensor::zeros(&[2, 3, 16, 16]);
        let y = net.forward(&x, true);
        assert_eq!(y.shape(), &[2, 10]);
        let dx = net.backward(&Tensor::zeros(&[2, 10]));
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn resnet50_slim_forward_backward() {
        let mut net = resnet50_with(&numerics(), 4, 10, 2);
        let x = Tensor::zeros(&[1, 3, 16, 16]);
        let y = net.forward(&x, true);
        assert_eq!(y.shape(), &[1, 10]);
        let dx = net.backward(&Tensor::zeros(&[1, 10]));
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn resnet50_has_50_conv_or_fc_layers_worth_of_depth() {
        // 1 stem + (3+4+6+3) blocks * 3 convs + 1 fc = 50.
        let mut net = resnet50_with(&numerics(), 4, 10, 3);
        let desc = net.describe();
        let convs = desc.matches("Conv2d").count();
        let projections = desc.matches("+ proj").count();
        // 1 stem + (3+4+6+3) blocks * 3 convs; projections render separately.
        assert_eq!(convs, 49, "conv count");
        assert_eq!(projections, 4, "one projection per stage");
        let _ = net.param_count();
    }

    #[test]
    fn uniform_policy_builds_the_same_model() {
        // A uniform policy hands its one engine object to every role of
        // every GEMM layer — the single-engine model — and two builds
        // from the same seed are the same model.
        let e = engine();
        let numerics = Numerics::uniform(e.clone());
        let mut a = resnet20_with(&numerics, 4, 10, 9);
        let mut gemm_roles = 0;
        a.visit_role_engines(&mut |_, engine| {
            assert!(
                Arc::ptr_eq(engine, &e),
                "every role runs the uniform engine"
            );
            gemm_roles += 1;
        });
        // 19 convs (stem + 18 in the blocks), 2 projections, 1 classifier;
        // three roles each.
        assert_eq!(gemm_roles, 22 * 3);
        let mut b = resnet20_with(&numerics, 4, 10, 9);
        assert_eq!(a.describe(), b.describe());
        let x = Tensor::from_vec(
            (0..2 * 3 * 8 * 8).map(|i| (i as f32).sin()).collect(),
            &[2, 3, 8, 8],
        );
        let ya = a.forward(&x, false);
        let yb = b.forward(&x, false);
        assert_eq!(ya.data(), yb.data());
    }
}
