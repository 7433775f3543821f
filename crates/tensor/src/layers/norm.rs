//! Batch normalization. Statistics and the affine transform stay in `f32`:
//! the paper quantizes only the GEMMs ("all GEMM operations during training
//! (FWD and BWD passes) are performed using low-precision MAC units",
//! Sec. IV), keeping normalization in higher precision.

use crate::layers::{Layer, Param};
use crate::Tensor;

/// Per-channel batch normalization over NCHW input.
#[derive(Debug)]
pub struct BatchNorm2d {
    channels: usize,
    eps: f32,
    momentum: f32,
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    cache: Option<Cache>,
}

#[derive(Debug)]
struct Cache {
    xhat: Tensor,
    inv_std: Vec<f32>,
    shape: [usize; 4],
}

impl BatchNorm2d {
    /// Creates a normalization layer over `channels` channels.
    #[must_use]
    pub fn new(channels: usize) -> Self {
        Self {
            channels,
            eps: 1e-5,
            momentum: 0.1,
            gamma: Param::new(Tensor::from_vec(vec![1.0; channels], &[channels]), false),
            beta: Param::new(Tensor::zeros(&[channels]), false),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            cache: None,
        }
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.shape().len(), 4, "batchnorm expects NCHW");
        let [n, c, h, w] = [x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]];
        assert_eq!(c, self.channels);
        let plane = h * w;
        // Zero elements per channel would make every statistic 0/0 = NaN;
        // surface the degenerate geometry instead of training on NaNs.
        assert!(
            n * plane > 0,
            "batchnorm needs a nonempty batch and plane, got n={n}, {h}x{w}"
        );
        let count = (n * plane) as f32;
        let xd = x.data();

        let (mean, var) = if train {
            let mut mean = vec![0.0f32; c];
            let mut var = vec![0.0f32; c];
            for img in 0..n {
                for (ch, m) in mean.iter_mut().enumerate() {
                    let base = (img * c + ch) * plane;
                    for &x in &xd[base..base + plane] {
                        *m += x;
                    }
                }
            }
            mean.iter_mut().for_each(|m| *m /= count);
            for img in 0..n {
                for (ch, (v, &mu)) in var.iter_mut().zip(&mean).enumerate() {
                    let base = (img * c + ch) * plane;
                    for &x in &xd[base..base + plane] {
                        let d = x - mu;
                        *v += d * d;
                    }
                }
            }
            var.iter_mut().for_each(|v| *v /= count);
            for ch in 0..c {
                self.running_mean[ch] =
                    (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean[ch];
                self.running_var[ch] =
                    (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var[ch];
            }
            (mean, var)
        } else {
            (self.running_mean.clone(), self.running_var.clone())
        };

        let inv_std: Vec<f32> = var.iter().map(|v| 1.0 / (v + self.eps).sqrt()).collect();
        let mut xhat = Tensor::zeros(x.shape());
        let mut y = Tensor::zeros(x.shape());
        {
            let xh = xhat.data_mut();
            let yd = y.data_mut();
            let g = self.gamma.value.data();
            let b = self.beta.value.data();
            for img in 0..n {
                for ch in 0..c {
                    let base = (img * c + ch) * plane;
                    for s in 0..plane {
                        let v = (xd[base + s] - mean[ch]) * inv_std[ch];
                        xh[base + s] = v;
                        yd[base + s] = g[ch] * v + b[ch];
                    }
                }
            }
        }
        if train {
            self.cache = Some(Cache {
                xhat,
                inv_std,
                shape: [n, c, h, w],
            });
        }
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        #[expect(
            clippy::expect_used,
            reason = "documented contract — backward requires a prior forward(train=true)"
        )]
        let cache = self
            .cache
            .take()
            .expect("backward before forward(train=true)");
        let [n, c, h, w] = cache.shape;
        let plane = h * w;
        let count = (n * plane) as f32;
        let gd = grad.data();
        let xh = cache.xhat.data();
        let g = self.gamma.value.data().to_vec();

        // Per-channel reductions.
        let mut sum_dy = vec![0.0f32; c];
        let mut sum_dy_xhat = vec![0.0f32; c];
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * plane;
                for s in 0..plane {
                    sum_dy[ch] += gd[base + s];
                    sum_dy_xhat[ch] += gd[base + s] * xh[base + s];
                }
            }
        }
        for ch in 0..c {
            self.gamma.grad.data_mut()[ch] += sum_dy_xhat[ch];
            self.beta.grad.data_mut()[ch] += sum_dy[ch];
        }

        let mut dx = Tensor::zeros(&[n, c, h, w]);
        let dxd = dx.data_mut();
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * plane;
                let k = g[ch] * cache.inv_std[ch] / count;
                for s in 0..plane {
                    dxd[base + s] =
                        k * (count * gd[base + s] - sum_dy[ch] - xh[base + s] * sum_dy_xhat[ch]);
                }
            }
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        // Running statistics are not parameters but evaluation reads them:
        // a checkpoint that skipped them could not reproduce eval-mode
        // outputs bitwise.
        f(&mut self.running_mean);
        f(&mut self.running_var);
    }

    fn describe(&self) -> String {
        format!("BatchNorm2d({})", self.channels)
    }

    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(Self {
            channels: self.channels,
            eps: self.eps,
            momentum: self.momentum,
            // CoW value shares (no data copied), fresh zero gradients; the
            // running statistics are copied so replicas update them
            // independently (the trainer recombines them per step).
            gamma: Param::new(self.gamma.value.clone(), self.gamma.decay),
            beta: Param::new(self.beta.value.clone(), self.beta.decay),
            running_mean: self.running_mean.clone(),
            running_var: self.running_var.clone(),
            cache: None,
        }))
    }
}
