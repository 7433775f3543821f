//! Lane-batching equivalence suite: the batched compacted path must be a
//! pure performance transform. Ragged output widths (n not divisible by
//! a panel block) are exact, thread count changes no bit, and the
//! batched engine agrees with the dense scalar oracle
//! (`MacGemm::gemm_reference`) on sparse, signed-zero-laden, NaN-free
//! and overflowing inputs.
//!
//! (The operand-level guarantee — `FastAdderBatch` == `FastAdder` over
//! the full 256 x 256-per-format code plane and SR draws — lives next to
//! the implementation in `src/batch.rs`; this file covers the engine
//! integration on top of it.)

use srmac_qgemm::{AccumRounding, MacGemm, MacGemmConfig};
use srmac_rng::SplitMix64;
use srmac_tensor::GemmEngine;

fn rand_vec(n: usize, seed: u64, scale: f32) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| (rng.next_f64() as f32 - 0.5) * scale)
        .collect()
}

fn relu_sparse_vec(n: usize, seed: u64, sparsity: f64) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let v = rng.next_f64() as f32 - 0.5;
            if rng.next_f64() < sparsity {
                if rng.next_f64() < 0.5 {
                    0.0
                } else {
                    -0.0
                }
            } else {
                v
            }
        })
        .collect()
}

/// The default engine against the scalar oracle at 1 and 3 threads,
/// under RN and SR, with and without subnormals — including output widths
/// that leave ragged, zero-padded remainder blocks.
#[test]
fn panel_engine_matches_reference_with_ragged_tails() {
    let (m, k) = (5usize, 57);
    for rounding in [AccumRounding::Nearest, AccumRounding::Stochastic { r: 13 }] {
        for subnormals in [true, false] {
            for n in [1usize, 3, 7, 8, 9, 12, 31, 64, 65] {
                let a = rand_vec(m * k, 7 + n as u64, 2.0);
                let b = rand_vec(k * n, 9 + n as u64, 2.0);
                let reference = {
                    let engine =
                        MacGemm::new(MacGemmConfig::fp8_fp12(rounding, subnormals).with_threads(1));
                    let mut out = vec![0.0f32; m * n];
                    engine.gemm_reference(m, k, n, &a, &b, &mut out);
                    out
                };
                for threads in [1usize, 3] {
                    let engine = MacGemm::new(
                        MacGemmConfig::fp8_fp12(rounding, subnormals).with_threads(threads),
                    );
                    let mut out = vec![0.0f32; m * n];
                    engine.gemm(m, k, n, &a, &b, &mut out);
                    let same = reference
                        .iter()
                        .zip(&out)
                        .all(|(x, y)| x.to_bits() == y.to_bits());
                    assert!(
                        same,
                        "{rounding:?} sub={subnormals} n={n} threads={threads}: \
                         batched != scalar reference"
                    );
                }
            }
        }
    }
}

/// The default (batched) engine against the dense scalar oracle on
/// ReLU-sparse inputs with mixed-sign zeros: the compaction + lane
/// batching + tail handling must reproduce the dense scalar loop exactly.
#[test]
fn batched_engine_matches_dense_scalar_reference() {
    let (m, k, n) = (11usize, 83, 29);
    let a = relu_sparse_vec(m * k, 21, 0.6);
    let b = rand_vec(k * n, 22, 2.0);
    for rounding in [AccumRounding::Nearest, AccumRounding::Stochastic { r: 13 }] {
        for subnormals in [true, false] {
            let engine =
                MacGemm::new(MacGemmConfig::fp8_fp12(rounding, subnormals).with_threads(1));
            let mut dense = vec![0.0f32; m * n];
            engine.gemm_reference(m, k, n, &a, &b, &mut dense);
            let mut batched = vec![0.0f32; m * n];
            engine.gemm(m, k, n, &a, &b, &mut batched);
            let same = dense
                .iter()
                .zip(&batched)
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(
                same,
                "{rounding:?} sub={subnormals}: batched != dense scalar"
            );
        }
    }
}

/// Accumulator overflow to infinity (the special-lane scalar fallback)
/// must survive lane batching bit-for-bit.
#[test]
fn special_values_survive_lane_batching() {
    let (m, k, n) = (2usize, 48, 9);
    // Large same-sign values drive the E6M5 accumulator into saturation
    // and overflow-to-infinity territory.
    let a = vec![40000.0f32; m * k];
    let b = vec![40000.0f32; k * n];
    for rounding in [AccumRounding::Nearest, AccumRounding::Stochastic { r: 13 }] {
        let engine = MacGemm::new(MacGemmConfig::fp8_fp12(rounding, true).with_threads(1));
        let mut dense = vec![0.0f32; m * n];
        engine.gemm_reference(m, k, n, &a, &b, &mut dense);
        assert!(
            dense.iter().all(|v| v.is_infinite()),
            "overflow input must saturate to infinity"
        );
        let mut batched = vec![0.0f32; m * n];
        engine.gemm(m, k, n, &a, &b, &mut batched);
        let same = dense
            .iter()
            .zip(&batched)
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "{rounding:?}: special path diverged under batching");
    }
}
