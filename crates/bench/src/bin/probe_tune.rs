//! Development probe: `probe_tune kernel` times the tiled MAC kernel on
//! prepared operands at 1 and 2 threads: the headline 64x128x64 and
//! 128x128x256 scaling shapes, then thin products — the ResNet-20
//! weight-gradient shapes, which the dispatch grid cuts into few-row
//! jobs, and a `k = 8` data-gradient shape, where per-row overhead
//! shows. Every point computes bitwise-identical output (asserted here
//! against the scalar oracle `MacGemm::gemm_reference`), so the probe is
//! a pure wall-clock measurement.
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

fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_f32() - 0.5).collect()
}

/// ns per MAC step of `gemm_packed` on prepared operands at the default
/// tile grid, 1 and 2 threads, bit-checked against the scalar oracle.
/// Repetitions scale down with the product size so each point times
/// about as many MAC steps as a headline point.
fn kernel() {
    let reps: usize = env_or("SRMAC_KERNEL_REPS", 120);
    let headline_steps = 64 * 128 * 64;
    let config =
        MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, false).with_threads(1);
    println!("-- SR13, default tiles, prepared operands --");
    for (label, m, k, n) in [
        ("headline 64x128x64", 64usize, 128usize, 64usize),
        ("scaling 128x128x256", 128, 128, 256),
        ("wgrad 8x8192x72", 8, 8192, 72),
        ("wgrad 16x2048x144", 16, 2048, 144),
        ("wgrad 32x512x288", 32, 512, 288),
        ("dgrad 8192x8x72", 8192, 8, 72),
    ] {
        let a = rand_vec(m * k, 3);
        let b = rand_vec(k * n, 4);
        let mut out = vec![0.0f32; m * n];
        MacGemm::new(config).gemm_reference(m, k, n, &a, &b, &mut out);
        let reference: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        let reps = (reps * headline_steps / (m * k * n)).max(3);
        let mut ns_per_step = [0.0f64; 2];
        for (t, threads) in [1usize, 2].into_iter().enumerate() {
            let engine = MacGemm::new(config.with_threads(threads));
            let pa = engine.pack_a(m, k, &a);
            let pb = engine.pack_b(k, n, &b);
            engine.gemm_packed(m, k, n, &pa, &pb, &mut out); // warm-up
            let start = Instant::now();
            for _ in 0..reps {
                engine.gemm_packed(m, k, n, &pa, &pb, &mut out);
            }
            let ns = start.elapsed().as_secs_f64() * 1e9 / reps as f64;
            assert!(
                out.iter().zip(&reference).all(|(v, &r)| v.to_bits() == r),
                "{label} threads={threads}: bits diverged from reference"
            );
            ns_per_step[t] = ns / (m * k * n) as f64;
        }
        println!(
            "{label:<19} 1 thread {:.2} ns/step  2 threads {:.2} ns/step  ({:.2}x, {reps} reps)",
            ns_per_step[0],
            ns_per_step[1],
            ns_per_step[0] / ns_per_step[1]
        );
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
