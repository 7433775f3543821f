//! Cross-stack bitwise determinism: the full convolution and linear layer
//! passes — serial im2row/col2im/scatter/gather/transpose around GEMMs
//! whose engines dispatch on a runtime of 1..=8 threads — must produce
//! bit-identical outputs, input gradients and weight gradients for every
//! engine thread count, under the exact f32 engine and the MAC engine
//! with RN and SR accumulation. Parallelism must change wall-clock time,
//! never bits.

use std::sync::Arc;

use srmac_qgemm::{AccumRounding, MacGemm, MacGemmConfig};
use srmac_rng::SplitMix64;
use srmac_tensor::init::kaiming_normal;
use srmac_tensor::layers::{Conv2d, Layer, Linear};
use srmac_tensor::{F32Engine, GemmEngine, RoleEngines, Runtime, Tensor};

fn rand_tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = SplitMix64::new(seed);
    let data = (0..shape.iter().product())
        .map(|_| {
            let v = rng.next_f32() * 2.0 - 1.0;
            // ReLU-like sparsity so the compacted GEMM path is exercised.
            if rng.next_f64() < 0.4 {
                0.0
            } else {
                v
            }
        })
        .collect();
    Tensor::from_vec(data, shape)
}

/// Engine configurations under test; each is rebuilt per runtime so the
/// GEMM dispatch itself also runs on the runtime being checked.
fn engines(rt: &Arc<Runtime>) -> Vec<(&'static str, Arc<dyn GemmEngine>)> {
    vec![
        ("f32", Arc::new(F32Engine::new(rt.threads()))),
        (
            "mac-rn",
            Arc::new(MacGemm::with_runtime(
                MacGemmConfig::fp8_fp12(AccumRounding::Nearest, true),
                Arc::clone(rt),
            )),
        ),
        (
            "mac-sr13",
            Arc::new(MacGemm::with_runtime(
                MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, false),
                Arc::clone(rt),
            )),
        ),
    ]
}

/// One train-mode forward + backward through a conv layer; returns
/// (output, input gradient, weight gradient) bits.
fn conv_pass(engine: Arc<dyn GemmEngine>) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let mut rng = SplitMix64::new(11);
    let weight = kaiming_normal(&[6, 3 * 3 * 3], 27, &mut rng);
    let mut conv = Conv2d::per_role(3, 6, 3, 2, 1, weight, RoleEngines::uniform(engine));
    let x = rand_tensor(&[3, 3, 9, 7], 21);
    let y = conv.forward(&x, true);
    let grad = rand_tensor(y.shape(), 22);
    let dx = conv.backward(&grad);
    let mut wgrad = Vec::new();
    conv.visit_params(&mut |p| wgrad.extend(p.grad.data().iter().map(|v| v.to_bits())));
    (
        y.data().iter().map(|v| v.to_bits()).collect(),
        dx.data().iter().map(|v| v.to_bits()).collect(),
        wgrad,
    )
}

/// Same for a linear layer.
fn linear_pass(engine: Arc<dyn GemmEngine>) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let mut rng = SplitMix64::new(12);
    let weight = kaiming_normal(&[10, 24], 24, &mut rng);
    let mut lin = Linear::per_role(24, 10, weight, RoleEngines::uniform(engine));
    let x = rand_tensor(&[7, 24], 23);
    let y = lin.forward(&x, true);
    let grad = rand_tensor(y.shape(), 24);
    let dx = lin.backward(&grad);
    let mut wgrad = Vec::new();
    lin.visit_params(&mut |p| wgrad.extend(p.grad.data().iter().map(|v| v.to_bits())));
    (
        y.data().iter().map(|v| v.to_bits()).collect(),
        dx.data().iter().map(|v| v.to_bits()).collect(),
        wgrad,
    )
}

#[test]
fn conv_layer_is_bitwise_thread_invariant() {
    let serial = Arc::new(Runtime::serial());
    for (name, engine) in engines(&serial) {
        let want = conv_pass(engine);
        for threads in 1..=8 {
            let rt = Arc::new(Runtime::new(threads));
            let (engine_name, engine) = engines(&rt).into_iter().find(|(n, _)| *n == name).unwrap();
            let got = conv_pass(engine);
            assert_eq!(
                want, got,
                "{engine_name}: conv diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn linear_layer_is_bitwise_thread_invariant() {
    let serial = Arc::new(Runtime::serial());
    for (name, engine) in engines(&serial) {
        let want = linear_pass(engine);
        for threads in 1..=8 {
            let rt = Arc::new(Runtime::new(threads));
            let (engine_name, engine) = engines(&rt).into_iter().find(|(n, _)| *n == name).unwrap();
            let got = linear_pass(engine);
            assert_eq!(
                want, got,
                "{engine_name}: linear diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn conv_rejects_kernel_larger_than_padded_input() {
    let engine: Arc<dyn GemmEngine> = Arc::new(F32Engine::new(1));
    let mut rng = SplitMix64::new(3);
    let weight = kaiming_normal(&[4, 3 * 5 * 5], 75, &mut rng);
    let mut conv = Conv2d::per_role(3, 4, 5, 1, 1, weight, RoleEngines::uniform(engine));
    // 2 + 2*1 < 5: must panic with a clear message instead of wrapping in
    // release builds and allocating an absurd im2row matrix.
    let x = Tensor::zeros(&[1, 3, 2, 2]);
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = conv.forward(&x, false);
    }));
    let msg = *panic
        .expect_err("invalid geometry must panic")
        .downcast::<String>()
        .expect("panic payload should be a formatted message");
    assert!(
        msg.contains("conv geometry invalid"),
        "panic should explain the geometry, got: {msg}"
    );
}
