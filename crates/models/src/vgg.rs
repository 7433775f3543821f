//! VGG16 (with batch normalization) for 32x32 inputs, with a width knob
//! (`width_div = 1` reproduces the paper-exact channel plan).

use srmac_rng::SplitMix64;
use srmac_tensor::init::uniform_fan_in;
use srmac_tensor::layers::{BatchNorm2d, Flatten, Linear, MaxPool2, Relu};
use srmac_tensor::numerics::Numerics;
use srmac_tensor::Sequential;

use crate::blocks::conv;

/// The standard VGG16 channel plan; `0` marks a 2x2 max-pool.
const PLAN: [usize; 18] = [
    64, 64, 0, 128, 128, 0, 256, 256, 256, 0, 512, 512, 512, 0, 512, 512, 512, 0,
];

/// Builds VGG16-BN for `size x size` inputs (`size` must be divisible by
/// 32); all channels are divided by `width_div`. Every GEMM layer runs
/// on the [`Numerics`] policy's role engines.
///
/// # Panics
///
/// Panics if `size` is not a multiple of 32 or `width_div` does not divide
/// the channel plan.
#[must_use]
pub fn vgg16_with(
    numerics: &Numerics,
    width_div: usize,
    classes: usize,
    size: usize,
    seed: u64,
) -> Sequential {
    assert!(
        size.is_multiple_of(32),
        "VGG16 needs input size divisible by 32"
    );
    assert!(
        width_div >= 1 && 64 % width_div == 0,
        "width_div must divide 64"
    );
    let mut rng = SplitMix64::new(seed);
    let engines = numerics.roles();
    let mut net = Sequential::new();
    let mut in_c = 3usize;
    for &c in &PLAN {
        if c == 0 {
            net.push(MaxPool2::new());
        } else {
            let out_c = c / width_div;
            net.push(conv(in_c, out_c, 3, 1, 1, engines, &mut rng));
            net.push(BatchNorm2d::new(out_c));
            net.push(Relu::new());
            in_c = out_c;
        }
    }
    // After 5 pools a 32x32 input is 1x1; larger inputs keep (size/32)^2.
    let feat = in_c * (size / 32) * (size / 32);
    net.push(Flatten::new());
    net.push(Linear::per_role(
        feat,
        classes,
        uniform_fan_in(&[classes, feat], feat, &mut rng),
        engines.clone(),
    ));
    net
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use srmac_tensor::layers::Layer;
    use srmac_tensor::{F32Engine, Tensor};

    fn numerics() -> Numerics {
        Numerics::uniform(Arc::new(F32Engine::new(2)))
    }

    #[test]
    fn vgg16_full_width_param_count() {
        let mut net = vgg16_with(&numerics(), 1, 10, 32, 0);
        // VGG16-BN conv trunk for CIFAR is ~14.7M parameters.
        let params = net.param_count();
        assert!(
            (14_000_000..15_500_000).contains(&params),
            "VGG16 has {params} params"
        );
    }

    #[test]
    fn vgg16_slim_forward_backward() {
        let mut net = vgg16_with(&numerics(), 8, 10, 32, 1);
        let x = Tensor::zeros(&[2, 3, 32, 32]);
        let y = net.forward(&x, true);
        assert_eq!(y.shape(), &[2, 10]);
        let dx = net.backward(&Tensor::zeros(&[2, 10]));
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn vgg16_has_13_convs_plus_classifier() {
        let net = vgg16_with(&numerics(), 8, 10, 32, 2);
        let desc = net.describe();
        let convs = desc.matches("Conv2d").count();
        let linears = desc.matches("Linear").count();
        assert_eq!(convs + linears, 14, "13 convs + 1 classifier");
    }
}
