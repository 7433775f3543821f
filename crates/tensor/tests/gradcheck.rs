//! Finite-difference gradient checks for every differentiable layer: the
//! analytic backward pass must match numerical differentiation of the
//! forward pass, for both input gradients and parameter gradients.

use std::sync::Arc;

use srmac_rng::SplitMix64;
use srmac_tensor::init::kaiming_normal;
use srmac_tensor::layers::{BatchNorm2d, Conv2d, Layer, Linear};
use srmac_tensor::{F32Engine, RoleEngines, Tensor};

fn engines() -> RoleEngines {
    RoleEngines::uniform(Arc::new(F32Engine::new(1)))
}

/// Scalar test loss: sum of `w .* y` for a fixed random `w` (gives a
/// nontrivial, smooth gradient `w`).
fn loss_of(y: &Tensor, w: &[f32]) -> f64 {
    y.data()
        .iter()
        .zip(w)
        .map(|(&a, &b)| f64::from(a) * f64::from(b))
        .sum()
}

fn rand_tensor(shape: &[usize], rng: &mut SplitMix64) -> Tensor {
    let data = (0..shape.iter().product::<usize>())
        .map(|_| (rng.next_f64() * 2.0 - 1.0) as f32)
        .collect();
    Tensor::from_vec(data, shape)
}

/// Checks d loss / d input via central differences.
fn check_input_grad<L: Layer>(layer: &mut L, x: &Tensor, tol: f64) {
    let mut rng = SplitMix64::new(999);
    let y0 = layer.forward(x, true);
    let w: Vec<f32> = (0..y0.numel())
        .map(|_| (rng.next_f64() * 2.0 - 1.0) as f32)
        .collect();
    let grad_out = Tensor::from_vec(w.clone(), y0.shape());
    let dx = layer.backward(&grad_out);

    let eps = 1e-3;
    let mut checked = 0;
    for i in (0..x.numel()).step_by((x.numel() / 40).max(1)) {
        let mut xp = x.clone();
        xp.data_mut()[i] += eps as f32;
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps as f32;
        let lp = loss_of(&layer.forward(&xp, true), &w);
        let lm = loss_of(&layer.forward(&xm, true), &w);
        let num = (lp - lm) / (2.0 * eps);
        let ana = f64::from(dx.data()[i]);
        assert!(
            (num - ana).abs() < tol * (1.0 + num.abs().max(ana.abs())),
            "input grad {i}: numeric {num:.6} vs analytic {ana:.6}"
        );
        checked += 1;
    }
    assert!(checked >= 10);
}

/// Checks d loss / d params via central differences.
fn check_param_grad<L: Layer>(layer: &mut L, x: &Tensor, tol: f64) {
    let mut rng = SplitMix64::new(555);
    layer.visit_params(&mut |p| p.grad.zero_());
    let y0 = layer.forward(x, true);
    let w: Vec<f32> = (0..y0.numel())
        .map(|_| (rng.next_f64() * 2.0 - 1.0) as f32)
        .collect();
    let grad_out = Tensor::from_vec(w.clone(), y0.shape());
    layer.backward(&grad_out);

    // Snapshot analytic parameter gradients.
    let mut analytic: Vec<Vec<f32>> = Vec::new();
    layer.visit_params(&mut |p| analytic.push(p.grad.data().to_vec()));

    let eps = 1e-3f32;
    for (pi, ana_grad) in analytic.iter().enumerate() {
        // Probe parameter pi, a few indices.
        let plen = ana_grad.len();
        for i in (0..plen).step_by((plen / 12).max(1)) {
            let mut probe = |delta: f32| -> f64 {
                let mut k = 0;
                layer.visit_params(&mut |p| {
                    if k == pi {
                        p.value.data_mut()[i] += delta;
                    }
                    k += 1;
                });
                let l = loss_of(&layer.forward(x, true), &w);
                let mut k = 0;
                layer.visit_params(&mut |p| {
                    if k == pi {
                        p.value.data_mut()[i] -= delta;
                    }
                    k += 1;
                });
                l
            };
            let num = (probe(eps) - probe(-eps)) / (2.0 * f64::from(eps));
            let ana = f64::from(ana_grad[i]);
            assert!(
                (num - ana).abs() < tol * (1.0 + num.abs().max(ana.abs())),
                "param {pi} index {i}: numeric {num:.6} vs analytic {ana:.6}"
            );
        }
    }
}

#[test]
fn conv2d_gradients() {
    let mut rng = SplitMix64::new(11);
    let w = kaiming_normal(&[4, 3 * 9], 27, &mut rng);
    let mut conv = Conv2d::per_role(3, 4, 3, 1, 1, w, engines());
    let x = rand_tensor(&[2, 3, 6, 6], &mut rng);
    check_input_grad(&mut conv, &x, 2e-2);
    check_param_grad(&mut conv, &x, 2e-2);
}

#[test]
fn strided_conv2d_gradients() {
    let mut rng = SplitMix64::new(12);
    let w = kaiming_normal(&[5, 2 * 9], 18, &mut rng);
    let mut conv = Conv2d::per_role(2, 5, 3, 2, 1, w, engines());
    let x = rand_tensor(&[2, 2, 8, 8], &mut rng);
    check_input_grad(&mut conv, &x, 2e-2);
    check_param_grad(&mut conv, &x, 2e-2);
}

#[test]
fn pointwise_conv_gradients() {
    let mut rng = SplitMix64::new(13);
    let w = kaiming_normal(&[6, 4], 4, &mut rng);
    let mut conv = Conv2d::per_role(4, 6, 1, 1, 0, w, engines());
    let x = rand_tensor(&[2, 4, 5, 5], &mut rng);
    check_input_grad(&mut conv, &x, 2e-2);
    check_param_grad(&mut conv, &x, 2e-2);
}

#[test]
fn linear_gradients() {
    let mut rng = SplitMix64::new(14);
    let w = kaiming_normal(&[7, 9], 9, &mut rng);
    let mut lin = Linear::per_role(9, 7, w, engines());
    let x = rand_tensor(&[4, 9], &mut rng);
    check_input_grad(&mut lin, &x, 1e-2);
    check_param_grad(&mut lin, &x, 1e-2);
}

#[test]
fn batchnorm_gradients() {
    let mut rng = SplitMix64::new(15);
    let mut bn = BatchNorm2d::new(3);
    let mut x = rand_tensor(&[3, 3, 4, 4], &mut rng);
    // Spread the input so the variance is well conditioned.
    x.scale_(3.0);
    check_input_grad(&mut bn, &x, 5e-2);
    check_param_grad(&mut bn, &x, 5e-2);
}

#[test]
fn batchnorm_eval_uses_running_stats() {
    let mut rng = SplitMix64::new(16);
    let mut bn = BatchNorm2d::new(2);
    // Train on shifted data to move the running stats.
    for _ in 0..50 {
        let mut x = rand_tensor(&[8, 2, 4, 4], &mut rng);
        x.data_mut().iter_mut().for_each(|v| *v = *v * 2.0 + 5.0);
        let _ = bn.forward(&x, true);
    }
    // In eval mode, data at the running mean maps near zero.
    let x = Tensor::from_vec(vec![5.0; 2 * 2 * 4 * 4], &[2, 2, 4, 4]);
    let y = bn.forward(&x, false);
    for &v in y.data() {
        assert!(v.abs() < 0.5, "eval-mode output {v} should be near 0");
    }
}
