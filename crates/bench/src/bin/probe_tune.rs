//! Development probe: `probe_tune kernel` times the tiled MAC kernel at
//! 1 and 2 threads: the headline 64x128x64 and 128x128x256 scaling
//! shapes, the six ResNet-20 weight-gradient shapes, and a `k = 8`
//! data-gradient shape, where per-row overhead shows.
//!
//! Each weight gradient `dW = dYᵀ · rows` gets the B density a width-8
//! ResNet-20 training step (SR13, batch 32, 16x16 inputs) measured in its
//! im2row matrix `rows` — post-ReLU activations plus padding — while its
//! A operand `dYᵀ` stays dense, as it is there (99% non-zero). Per shape
//! the probe prints:
//!
//! - `gemm_packed` on prepared operands in ns per *nominal* MAC step
//!   (`m * k * n`) and per *executed* one (`nnz(A) * n`: the compaction
//!   skips A's zero entries, never B's);
//! - for the weight gradients, the one-shot `gemm` — which compacts
//!   whichever operand is cheaper to skip — next to the packed path in
//!   today's orientation (`pack_a` + `pack_b` + `gemm_packed`), both
//!   packing included, with the executed steps of compacting `Bᵀ`
//!   instead (`nnz(B) * m`).
//!
//! Every point computes bitwise-identical output (asserted here against
//! the scalar oracle `MacGemm::gemm_reference`), so the probe is a pure
//! wall-clock measurement.
//!
//! Environment knobs: `SRMAC_KERNEL_REPS` (default 120) timing
//! repetitions of the headline shape; other shapes scale theirs to time
//! about as many MAC steps.

#![forbid(unsafe_code)]

use std::time::Instant;

use srmac_bench::env_or;
use srmac_qgemm::{AccumRounding, MacGemm, MacGemmConfig};
use srmac_rng::SplitMix64;
use srmac_tensor::GemmEngine;

/// Uniform values in `[-0.5, 0.5)`, each replaced by `+0` with
/// probability `1 - density`.
fn rand_vec(n: usize, seed: u64, density: f64) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let v = rng.next_f32() - 0.5;
            if rng.next_f64() < density {
                v
            } else {
                0.0
            }
        })
        .collect()
}

/// Mean ns of `reps` calls of `run` after one warm-up call.
fn time_ns(reps: usize, mut run: impl FnMut()) -> f64 {
    run();
    let start = Instant::now();
    for _ in 0..reps {
        run();
    }
    start.elapsed().as_secs_f64() * 1e9 / reps as f64
}

/// The probe's shapes: label, `m x k x n`, B density, and whether the
/// product is a weight gradient (which the layers run one-shot).
const SHAPES: [(&str, usize, usize, usize, f64, bool); 11] = [
    ("headline 64x128x64", 64, 128, 64, 1.0, false),
    ("scaling 128x128x256", 128, 128, 256, 1.0, false),
    ("wgrad 8x8192x27", 8, 8192, 27, 0.92, true),
    ("wgrad 8x8192x72", 8, 8192, 72, 0.51, true),
    ("wgrad 16x2048x72", 16, 2048, 72, 0.68, true),
    ("wgrad 16x2048x144", 16, 2048, 144, 0.45, true),
    ("wgrad 32x512x144", 32, 512, 144, 0.60, true),
    ("wgrad 32x512x288", 32, 512, 288, 0.37, true),
    ("wgrad 16x2048x8", 16, 2048, 8, 0.73, true),
    ("wgrad 32x512x16", 32, 512, 16, 0.71, true),
    ("dgrad 8192x8x72", 8192, 8, 72, 1.0, false),
];

/// Times every shape of [`SHAPES`] at 1 and 2 threads, bit-checked
/// against the scalar oracle. Repetitions scale down with the product
/// size so each point times about as many MAC steps as a headline point.
fn kernel() {
    let reps: usize = env_or("SRMAC_KERNEL_REPS", 120);
    let headline_steps = 64 * 128 * 64;
    let config =
        MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, false).with_threads(1);
    println!("-- SR13, default tiles; ns per nominal (m*k*n) and executed MAC step --");
    for (label, m, k, n, density, wgrad) in SHAPES {
        let a = rand_vec(m * k, 3, 1.0);
        let b = rand_vec(k * n, 4, density);
        let probe = MacGemm::new(config);
        let mut out = vec![0.0f32; m * n];
        probe.gemm_reference(m, k, n, &a, &b, &mut out);
        let reference: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        let nonzero = |xs: &[f32]| {
            probe
                .quantize_codes(xs)
                .iter()
                .filter(|&&c| c & 0x7f != 0)
                .count()
        };
        let (nominal, exec_a, exec_b) = (m * k * n, nonzero(&a) * n, nonzero(&b) * m);
        let reps = (reps * headline_steps / nominal).max(3);
        let check = |what: &str, threads: usize, out: &[f32]| {
            assert!(
                out.iter().zip(&reference).all(|(v, &r)| v.to_bits() == r),
                "{label} {what} threads={threads}: bits diverged from reference"
            );
        };
        let (mut kernel_ns, mut one_shot_ns, mut packed_ns) =
            ([0.0f64; 2], [0.0f64; 2], [0.0f64; 2]);
        for (t, threads) in [1usize, 2].into_iter().enumerate() {
            let engine = MacGemm::new(config.with_threads(threads));
            let pa = engine.pack_a(m, k, &a);
            let pb = engine.pack_b(k, n, &b);
            kernel_ns[t] = time_ns(reps, || engine.gemm_packed(m, k, n, &pa, &pb, &mut out));
            check("gemm_packed", threads, &out);
            if wgrad {
                packed_ns[t] = time_ns(reps, || {
                    let (pa, pb) = (engine.pack_a(m, k, &a), engine.pack_b(k, n, &b));
                    engine.gemm_packed(m, k, n, &pa, &pb, &mut out);
                });
                check("packed path", threads, &out);
                one_shot_ns[t] = time_ns(reps, || engine.gemm(m, k, n, &a, &b, &mut out));
                check("one-shot gemm", threads, &out);
            }
        }
        println!(
            "{label:<19} B {:>3.0}% nz  packed 1t {:.2} ns/step {:.2} ns/exec  \
             2t {:.2} ns/step ({:.2}x, {reps} reps)",
            density * 100.0,
            kernel_ns[0] / nominal as f64,
            kernel_ns[0] / exec_a as f64,
            kernel_ns[1] / nominal as f64,
            kernel_ns[0] / kernel_ns[1],
        );
        if wgrad {
            println!(
                "{:<19} steps: nominal {:.2}M, executed {:.2}M compacting A, {:.2}M compacting Bᵀ; \
                 one-shot/packed path 1t {:.2}/{:.2} ms ({:.2}x), 2t {:.2}/{:.2} ms ({:.2}x)",
                "",
                nominal as f64 / 1e6,
                exec_a as f64 / 1e6,
                exec_b as f64 / 1e6,
                one_shot_ns[0] / 1e6,
                packed_ns[0] / 1e6,
                packed_ns[0] / one_shot_ns[0],
                one_shot_ns[1] / 1e6,
                packed_ns[1] / 1e6,
                packed_ns[1] / one_shot_ns[1],
            );
        }
    }
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("kernel") | None => kernel(),
        Some(other) => {
            eprintln!("probe_tune: unknown subcommand {other} (try `kernel`)");
            std::process::exit(2);
        }
    }
}
