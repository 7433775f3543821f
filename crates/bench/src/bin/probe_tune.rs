//! Development probe: `probe_tune kernel` sweeps the tiled MAC kernel's
//! tuning surface — tile configurations x pair-LUT on/off at the
//! headline and scaling shapes, on prepared operands. This is where
//! [`srmac_qgemm::TileConfig::auto`] comes from: run it on a new machine
//! class, read off the fastest (tile, LUT) point, and adjust the
//! defaults if they moved. It then reports ns per MAC step at 1 and 2
//! threads for thin products — the ResNet-20 weight-gradient shapes,
//! which the dispatch grid cuts into few-row jobs, and a `k = 8`
//! data-gradient shape, where per-row overhead shows. Every point
//! computes bitwise-identical output (asserted here against the scalar
//! oracle `MacGemm::gemm_reference`), so the sweep is a pure wall-clock
//! search.
//!
//! Environment knobs: `SRMAC_KERNEL_REPS` (default 120) timing
//! repetitions per point.

use std::time::Instant;

use srmac_bench::env_or;
use srmac_qgemm::{AccumRounding, MacGemm, MacGemmConfig, TileConfig};
use srmac_rng::SplitMix64;
use srmac_tensor::GemmEngine;

fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_f32() - 0.5).collect()
}

/// The tile geometries the kernel sweep visits: the degenerate
/// single-block grid, cache-pressure points around the L2 boundary, and
/// the shipped `auto` defaults.
const TILE_SWEEP: [TileConfig; 6] = [
    TileConfig {
        row_tile: 1,
        col_tile: 64,
    },
    TileConfig {
        row_tile: 4,
        col_tile: 64,
    },
    TileConfig {
        row_tile: 8,
        col_tile: 128,
    },
    TileConfig {
        row_tile: 16,
        col_tile: 256,
    },
    TileConfig {
        row_tile: 32,
        col_tile: 512,
    },
    TileConfig {
        row_tile: 64,
        col_tile: 1024,
    },
];

fn kernel_sweep() {
    let reps: usize = env_or("SRMAC_KERNEL_REPS", 120);
    for (label, m, k, n) in [
        ("headline 64x128x64", 64usize, 128usize, 64usize),
        ("scaling 128x128x256", 128, 128, 256),
    ] {
        let a = rand_vec(m * k, 1);
        let b = rand_vec(k * n, 2);
        let mut out = vec![0.0f32; m * n];
        let config =
            MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, false).with_threads(1);
        // Reference bits: every sweep point must reproduce these exactly.
        let reference: Vec<u32> = {
            MacGemm::new(config).gemm_reference(m, k, n, &a, &b, &mut out);
            out.iter().map(|v| v.to_bits()).collect()
        };
        println!("-- {label} (SR13, 1 thread, prepared operands, {reps} reps) --");
        let mut best: Option<(f64, TileConfig, bool)> = None;
        for tiles in TILE_SWEEP {
            for pair_lut in [true, false] {
                let engine = MacGemm::new(config)
                    .with_tiles(tiles)
                    .with_pair_lut(pair_lut);
                let pa = engine.pack_a(m, k, &a);
                let pb = engine.pack_b(k, n, &b);
                engine.gemm_packed(m, k, n, &pa, &pb, &mut out); // warm-up
                let t = Instant::now();
                for _ in 0..reps {
                    engine.gemm_packed(m, k, n, &pa, &pb, &mut out);
                }
                let ns = t.elapsed().as_secs_f64() * 1e9 / reps as f64;
                assert!(
                    out.iter().zip(&reference).all(|(v, &r)| v.to_bits() == r),
                    "tiles {tiles:?} pair_lut={pair_lut}: bits diverged from reference"
                );
                let ns_step = ns / (m * k * n) as f64;
                println!(
                    "tiles {:>2}x{:<4} pair_lut={:<5} {:>12.0} ns  ({ns_step:.2} ns/step)",
                    tiles.row_tile, tiles.col_tile, pair_lut, ns
                );
                if best.is_none_or(|(b, _, _)| ns < b) {
                    best = Some((ns, tiles, pair_lut));
                }
            }
        }
        if let Some((ns, tiles, pair_lut)) = best {
            println!(
                "best: tiles {}x{} pair_lut={pair_lut} at {ns:.0} ns (auto = {:?})\n",
                tiles.row_tile,
                tiles.col_tile,
                TileConfig::auto()
            );
        }
    }
}

/// Thin products at the default tiles, 1 and 2 threads: ns per MAC
/// step of `gemm_packed` on prepared operands, bit-checked against the
/// scalar oracle. Repetitions scale down with the product size so each
/// point times about as many MAC steps as a headline point.
fn thin_products() {
    let reps: usize = env_or("SRMAC_KERNEL_REPS", 120);
    let headline_steps = 64 * 128 * 64;
    let config =
        MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, false).with_threads(1);
    println!("-- thin products (SR13, default tiles, prepared operands) --");
    for (label, m, k, n) in [
        ("wgrad 8x8192x72", 8usize, 8192usize, 72usize),
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
            "{label:<18} 1 thread {:.2} ns/step  2 threads {:.2} ns/step  ({:.2}x, {reps} reps)",
            ns_per_step[0],
            ns_per_step[1],
            ns_per_step[0] / ns_per_step[1]
        );
    }
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("kernel") | None => {
            kernel_sweep();
            thin_products();
        }
        Some(other) => {
            eprintln!("probe_tune: unknown subcommand {other} (try `kernel`)");
            std::process::exit(2);
        }
    }
}
