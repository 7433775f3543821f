//! Activation, pooling and reshaping layers.

use crate::layers::Layer;
use crate::Tensor;

/// Rectified linear unit.
#[derive(Debug, Default)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    /// Creates the layer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut y = x.clone();
        if train {
            self.mask = x.data().iter().map(|&v| v > 0.0).collect();
        }
        y.data_mut().iter_mut().for_each(|v| {
            if *v < 0.0 {
                *v = 0.0;
            }
        });
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        assert_eq!(
            grad.numel(),
            self.mask.len(),
            "backward before forward(train=true)"
        );
        let mut dx = grad.clone();
        for (g, &m) in dx.data_mut().iter_mut().zip(&self.mask) {
            if !m {
                *g = 0.0;
            }
        }
        dx
    }

    // Entries where the input was not positive are overwritten with 0.
    fn grad_mask(&self) -> Option<&[bool]> {
        Some(&self.mask)
    }

    fn describe(&self) -> String {
        "ReLU".to_owned()
    }

    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        // Stateless apart from the backward mask, which forward(train)
        // rebuilds — a fresh layer is a faithful replica.
        Some(Box::new(Self::new()))
    }
}

/// 2x2 max pooling with stride 2.
#[derive(Debug, Default)]
pub struct MaxPool2 {
    argmax: Vec<usize>,
    in_shape: [usize; 4],
}

impl MaxPool2 {
    /// Creates the layer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for MaxPool2 {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let [n, c, h, w] = [x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]];
        assert!(
            h >= 2 && w >= 2 && h % 2 == 0 && w % 2 == 0,
            "MaxPool2 needs even spatial dims of at least 2, got {h}x{w}"
        );
        let (oh, ow) = (h / 2, w / 2);
        let xd = x.data();
        let mut y = Tensor::zeros(&[n, c, oh, ow]);
        let mut argmax = vec![0usize; n * c * oh * ow];
        {
            let yd = y.data_mut();
            for img in 0..n {
                for ch in 0..c {
                    let base = (img * c + ch) * h * w;
                    let obase = (img * c + ch) * oh * ow;
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut best = f32::NEG_INFINITY;
                            let mut best_i = 0;
                            for dy in 0..2 {
                                for dx in 0..2 {
                                    let i = base + (oy * 2 + dy) * w + ox * 2 + dx;
                                    if xd[i] > best {
                                        best = xd[i];
                                        best_i = i;
                                    }
                                }
                            }
                            yd[obase + oy * ow + ox] = best;
                            argmax[obase + oy * ow + ox] = best_i;
                        }
                    }
                }
            }
        }
        if train {
            self.argmax = argmax;
            self.in_shape = [n, c, h, w];
        }
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        assert_eq!(
            grad.numel(),
            self.argmax.len(),
            "backward before forward(train=true)"
        );
        let mut dx = Tensor::zeros(&self.in_shape);
        let dxd = dx.data_mut();
        for (g, &i) in grad.data().iter().zip(&self.argmax) {
            dxd[i] += g;
        }
        dx
    }

    fn describe(&self) -> String {
        "MaxPool2".to_owned()
    }

    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(Self::new()))
    }
}

/// Global average pooling: `[N, C, H, W] -> [N, C]`.
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    in_shape: [usize; 4],
}

impl GlobalAvgPool {
    /// Creates the layer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let [n, c, h, w] = [x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]];
        let plane = h * w;
        // An empty plane would average over zero elements (0/0 = NaN
        // propagating silently into the head); fail with geometry instead.
        assert!(
            plane > 0,
            "GlobalAvgPool needs a nonempty plane, got {h}x{w}"
        );
        let mut y = Tensor::zeros(&[n, c]);
        {
            let yd = y.data_mut();
            let xd = x.data();
            for img in 0..n {
                for ch in 0..c {
                    let base = (img * c + ch) * plane;
                    let s: f32 = xd[base..base + plane].iter().sum();
                    yd[img * c + ch] = s / plane as f32;
                }
            }
        }
        if train {
            self.in_shape = [n, c, h, w];
        }
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let [n, c, h, w] = self.in_shape;
        let plane = h * w;
        let mut dx = Tensor::zeros(&[n, c, h, w]);
        let dxd = dx.data_mut();
        for img in 0..n {
            for ch in 0..c {
                let g = grad.data()[img * c + ch] / plane as f32;
                let base = (img * c + ch) * plane;
                dxd[base..base + plane].iter_mut().for_each(|v| *v = g);
            }
        }
        dx
    }

    fn describe(&self) -> String {
        "GlobalAvgPool".to_owned()
    }

    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(Self::new()))
    }
}

/// Flattens `[N, ...]` to `[N, prod(...)]`.
#[derive(Debug, Default)]
pub struct Flatten {
    in_shape: Vec<usize>,
}

impl Flatten {
    /// Creates the layer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if train {
            self.in_shape = x.shape().to_vec();
        }
        let n = x.shape()[0];
        let rest: usize = x.shape()[1..].iter().product();
        x.clone().reshaped(&[n, rest])
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        grad.clone().reshaped(&self.in_shape)
    }

    fn describe(&self) -> String {
        "Flatten".to_owned()
    }

    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(Self::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_masks_gradient() {
        let mut l = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.5, 2.0, -0.1], &[1, 4]);
        let y = l.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 0.5, 2.0, 0.0]);
        let dx = l.backward(&Tensor::from_vec(vec![1.0; 4], &[1, 4]));
        assert_eq!(dx.data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn maxpool_selects_and_routes() {
        let mut l = MaxPool2::new();
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        );
        let y = l.forward(&x, true);
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
        let dx = l.backward(&Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]));
        assert_eq!(dx.data()[5], 1.0);
        assert_eq!(dx.data()[7], 2.0);
        assert_eq!(dx.data()[13], 3.0);
        assert_eq!(dx.data()[15], 4.0);
        assert_eq!(dx.data().iter().sum::<f32>(), 10.0);
    }

    #[test]
    fn gap_averages_and_spreads() {
        let mut l = GlobalAvgPool::new();
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[1, 1, 2, 2]);
        let y = l.forward(&x, true);
        assert_eq!(y.data(), &[4.0]);
        let dx = l.backward(&Tensor::from_vec(vec![8.0], &[1, 1]));
        assert_eq!(dx.data(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn flatten_roundtrips() {
        let mut l = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4, 4]);
        let y = l.forward(&x, true);
        assert_eq!(y.shape(), &[2, 48]);
        let dx = l.backward(&y);
        assert_eq!(dx.shape(), &[2, 3, 4, 4]);
    }
}
