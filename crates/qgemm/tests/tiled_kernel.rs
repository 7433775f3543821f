//! Tiled-kernel equivalence suite: the cache-blocked tile grid, the
//! multi-core tile dispatch and the narrow product-pair LUT must all be
//! pure performance transforms. Every tile shape x thread count
//! combination reproduces the single-threaded scalar oracle
//! (`MacGemm::gemm_reference`) bit-for-bit, the pair LUT changes nothing when toggled, and formats
//! outside the narrow envelope (which silently fall back to the wide
//! u64 kernel) obey the same invariances.
//!
//! (Ragged-width equivalence at the default tiling lives in
//! `tests/lane_batch.rs`; the operand-level narrow/wide adder
//! equivalence lives next to the implementation in `src/batch.rs`.)

use srmac_fp::FpFormat;
use srmac_qgemm::{AccumRounding, MacGemm, MacGemmConfig, TileConfig};
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

const SHAPES: [(usize, usize, usize); 4] = [(5, 33, 67), (17, 40, 130), (3, 57, 8), (9, 48, 200)];

/// The output widths of the width-8 ResNet-20 — conv outputs
/// `n = out_c` in {8, 16, 32}, the stem's 27, and the 72-column remainder
/// of wider products — each ending in a partial or full zero-padded
/// 16-lane panel block. `k = 72` is a 3x3 conv over 8 channels, and
/// `m * k * n` clears the single-job threshold at every width, so the
/// tile grid and the worker pool are both in play.
const RESNET_SHAPES: [(usize, usize, usize); 5] = [
    (64, 72, 8),
    (64, 72, 16),
    (64, 72, 27),
    (64, 72, 32),
    (64, 72, 72),
];

/// Thin products in the shape of the ResNet-20 weight gradients
/// (`out_c` rows, long rows): at the default tiles the dispatch grid
/// cuts them into rectangles of a few rows each, so the worker pool
/// runs several jobs of one short-and-wide product.
const THIN_SHAPES: [(usize, usize, usize); 3] = [(8, 2048, 72), (16, 512, 144), (32, 256, 288)];

const TILES: [TileConfig; 4] = [
    TileConfig {
        row_tile: 1,
        col_tile: 64,
    },
    TileConfig {
        row_tile: 3,
        col_tile: 64,
    },
    TileConfig {
        row_tile: 8,
        col_tile: 128,
    },
    TileConfig {
        row_tile: 32,
        col_tile: 512,
    },
];

fn assert_bits_eq(reference: &[f32], out: &[f32], what: &str) {
    let same = reference
        .iter()
        .zip(out)
        .all(|(x, y)| x.to_bits() == y.to_bits());
    assert!(same, "{what}: output bits changed");
}

fn scalar_reference(
    config: MacGemmConfig,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
) -> Vec<f32> {
    let engine = MacGemm::new(config.with_threads(1));
    let mut out = vec![0.0f32; m * n];
    engine.gemm_reference(m, k, n, a, b, &mut out);
    out
}

/// The load-bearing invariance of the tentpole: every tile shape x
/// thread count reproduces the scalar single-thread reference exactly,
/// under SR (where any dispatch-order leak would scramble the
/// position-seeded streams) and RN.
#[test]
fn tile_thread_grid_is_bitwise_invariant() {
    for rounding in [AccumRounding::Stochastic { r: 13 }, AccumRounding::Nearest] {
        let config = MacGemmConfig::fp8_fp12(rounding, false);
        for &(m, k, n) in SHAPES.iter().chain(&RESNET_SHAPES).chain(&THIN_SHAPES) {
            let a = rand_vec(m * k, 100 + (m * n) as u64, 2.0);
            let b = rand_vec(k * n, 200 + (k * n) as u64, 2.0);
            let reference = scalar_reference(config, m, k, n, &a, &b);
            for tiles in TILES {
                for threads in [1usize, 2, 3, 8] {
                    let engine = MacGemm::new(config.with_threads(threads)).with_tiles(tiles);
                    let mut out = vec![0.0f32; m * n];
                    engine.gemm(m, k, n, &a, &b, &mut out);
                    assert_bits_eq(
                        &reference,
                        &out,
                        &format!("{rounding:?} {m}x{k}x{n} tiles={tiles:?} threads={threads}"),
                    );
                }
            }
        }
    }
}

/// The prepared-operand path (`gemm_packed`) walks the same tile grid;
/// tile geometry must be equally invisible there, including when the
/// packed operands came from a *differently tiled* engine (packing is
/// tile-independent by contract).
#[test]
fn packed_path_is_tile_invariant() {
    let (m, k, n) = (17usize, 40, 130);
    let config = MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, false);
    let a = rand_vec(m * k, 41, 2.0);
    let b = rand_vec(k * n, 42, 2.0);
    let reference = scalar_reference(config, m, k, n, &a, &b);
    let packer = MacGemm::new(config.with_threads(1));
    let (pa, pb) = (packer.pack_a(m, k, &a), packer.pack_b(k, n, &b));
    for tiles in TILES {
        for threads in [1usize, 3] {
            let engine = MacGemm::new(config.with_threads(threads)).with_tiles(tiles);
            let mut out = vec![0.0f32; m * n];
            engine.gemm_packed(m, k, n, &pa, &pb, &mut out);
            assert_bits_eq(
                &reference,
                &out,
                &format!("packed tiles={tiles:?} threads={threads}"),
            );
        }
    }
}

/// The narrow product-pair LUT is engaged by default for the paper's
/// E6M5 family and must be a no-op in the bits when toggled off (wide
/// u64 fallback), across rounding modes, subnormal handling and ragged
/// shapes.
#[test]
fn pair_lut_toggle_changes_no_bits() {
    for rounding in [AccumRounding::Stochastic { r: 13 }, AccumRounding::Nearest] {
        for subnormals in [false, true] {
            let config = MacGemmConfig::fp8_fp12(rounding, subnormals);
            for &(m, k, n) in &SHAPES {
                let a = rand_vec(m * k, 300 + n as u64, 2.0);
                let b = rand_vec(k * n, 400 + n as u64, 2.0);
                let on = MacGemm::new(config.with_threads(1));
                assert!(
                    on.pair_lut_active(),
                    "E6M5 family must engage the narrow pair LUT by default"
                );
                let off = MacGemm::new(config.with_threads(1)).with_pair_lut(false);
                assert!(!off.pair_lut_active());
                let mut out_on = vec![0.0f32; m * n];
                on.gemm(m, k, n, &a, &b, &mut out_on);
                let mut out_off = vec![0.0f32; m * n];
                off.gemm(m, k, n, &a, &b, &mut out_off);
                assert_bits_eq(
                    &out_on,
                    &out_off,
                    &format!("{rounding:?} sub={subnormals} {m}x{k}x{n} pair LUT toggle"),
                );
            }
        }
    }
}

/// An accumulator outside the narrow envelope (E5M10 at SR13) must
/// decline the pair LUT and still honor the tile/thread invariance on
/// the wide kernel it falls back to.
#[test]
fn wide_fallback_format_keeps_tile_invariance() {
    let config = MacGemmConfig::fp8_acc(
        FpFormat::e5m10(),
        AccumRounding::Stochastic { r: 13 },
        false,
    );
    let probe = MacGemm::new(config.with_threads(1));
    assert!(
        !probe.pair_lut_active(),
        "E5M10 @ SR13 exceeds the narrow envelope; the gate must disengage"
    );
    let (m, k, n) = (9usize, 48, 200);
    let a = rand_vec(m * k, 51, 2.0);
    let b = rand_vec(k * n, 52, 2.0);
    let reference = scalar_reference(config, m, k, n, &a, &b);
    for tiles in [TILES[0], TILES[2], TILES[3]] {
        for threads in [1usize, 3] {
            let engine = MacGemm::new(config.with_threads(threads)).with_tiles(tiles);
            let mut out = vec![0.0f32; m * n];
            engine.gemm(m, k, n, &a, &b, &mut out);
            assert_bits_eq(
                &reference,
                &out,
                &format!("e5m10 tiles={tiles:?} threads={threads}"),
            );
        }
    }
}

/// ReLU-sparse inputs (zero-product skip interacts with SR draw
/// consumption) and saturating inputs (the special-lane scalar fixup)
/// must survive the tiled multi-core path bit-for-bit, under SR and RN,
/// including the padded lanes of partial 16-lane blocks and the
/// few-row rectangles of thin products.
#[test]
fn sparse_and_special_inputs_survive_tiling() {
    for rounding in [AccumRounding::Stochastic { r: 13 }, AccumRounding::Nearest] {
        let config = MacGemmConfig::fp8_fp12(rounding, true);
        for &(m, k, n) in [(11usize, 83usize, 67usize)]
            .iter()
            .chain(&RESNET_SHAPES)
            .chain(&THIN_SHAPES)
        {
            let a = relu_sparse_vec(m * k, 61 + n as u64, 0.6);
            let b = rand_vec(k * n, 62 + n as u64, 2.0);
            let reference = scalar_reference(config, m, k, n, &a, &b);
            for tiles in [TILES[1], TILES[3]] {
                for threads in [1usize, 2, 3] {
                    let engine = MacGemm::new(config.with_threads(threads)).with_tiles(tiles);
                    let mut out = vec![0.0f32; m * n];
                    engine.gemm(m, k, n, &a, &b, &mut out);
                    assert_bits_eq(
                        &reference,
                        &out,
                        &format!(
                            "{rounding:?} sparse {m}x{k}x{n} tiles={tiles:?} threads={threads}"
                        ),
                    );
                }
            }

            // Saturating magnitudes drive the accumulator to infinity; the
            // special path diverts to the scalar fixup inside the vector
            // loop.
            let sat_a = vec![40000.0f32; m * k];
            let sat_b = vec![40000.0f32; k * n];
            let sat_ref = scalar_reference(config, m, k, n, &sat_a, &sat_b);
            assert!(sat_ref.iter().all(|v| v.is_infinite()));
            for threads in [1usize, 2, 3] {
                for tiles in [TILES[2], TILES[3]] {
                    let engine = MacGemm::new(config.with_threads(threads)).with_tiles(tiles);
                    let mut out = vec![0.0f32; m * n];
                    engine.gemm(m, k, n, &sat_a, &sat_b, &mut out);
                    assert_bits_eq(
                        &sat_ref,
                        &out,
                        &format!(
                            "{rounding:?} saturated {m}x{k}x{n} tiles={tiles:?} threads={threads}"
                        ),
                    );
                }
            }
        }
    }
}

/// Tile accessors and validation: the builder round-trips, and
/// `TileConfig::auto` is what a fresh engine reports.
#[test]
fn tile_config_accessors() {
    let config = MacGemmConfig::fp8_fp12(AccumRounding::Nearest, false);
    let engine = MacGemm::new(config);
    assert_eq!(engine.tiles(), TileConfig::auto());
    let custom = TileConfig {
        row_tile: 7,
        col_tile: 192,
    };
    assert_eq!(MacGemm::new(config).with_tiles(custom).tiles(), custom);
}
