//! Tiled-kernel equivalence suite: the cache-blocked tile grid, the
//! multi-core tile dispatch and the product-pair LUT must all be pure
//! performance transforms. Every shape x thread count combination
//! reproduces the single-threaded scalar oracle
//! (`MacGemm::gemm_reference`) bit-for-bit — on the pair-LUT lane kernel
//! the paper's E6M5 family engages, and on the scalar path formats
//! outside the `u32` lane-word envelope take.
//!
//! (Ragged-width equivalence at the default tiling lives in
//! `tests/lane_batch.rs`; the operand-level lane-adder equivalence lives
//! next to the implementation in `src/batch.rs`.)

use srmac_fp::FpFormat;
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

/// Shapes that cross the fixed 32-row x 512-column dispatch grid:
/// 40x24x1100 is cut to 12-row rectangles (a ragged 4-row last one),
/// spans three 512-column tiles and ends in a partial 16-lane block
/// (1100 = 17 * 64 + 12); 70x48x96 keeps the full 32-row tile and ends
/// in a ragged 6-row rectangle; 3x8x1030 is a single job whose in-job
/// column loop still walks three 512-column tiles, the last ending in a
/// partial block.
const GRID_SHAPES: [(usize, usize, usize); 3] = [(40, 24, 1100), (70, 48, 96), (3, 8, 1030)];

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

/// The load-bearing invariance: every thread count reproduces the
/// scalar single-thread reference exactly, under SR (where any
/// dispatch-order leak would scramble the position-seeded streams) and
/// RN.
#[test]
fn tile_thread_grid_is_bitwise_invariant() {
    for rounding in [AccumRounding::Stochastic { r: 13 }, AccumRounding::Nearest] {
        let config = MacGemmConfig::fp8_fp12(rounding, false);
        for &(m, k, n) in SHAPES
            .iter()
            .chain(&RESNET_SHAPES)
            .chain(&THIN_SHAPES)
            .chain(&GRID_SHAPES)
        {
            let a = rand_vec(m * k, 100 + (m * n) as u64, 2.0);
            let b = rand_vec(k * n, 200 + (k * n) as u64, 2.0);
            let reference = scalar_reference(config, m, k, n, &a, &b);
            for threads in [1usize, 2, 3, 8] {
                let engine = MacGemm::new(config.with_threads(threads));
                let mut out = vec![0.0f32; m * n];
                engine.gemm(m, k, n, &a, &b, &mut out);
                assert_bits_eq(
                    &reference,
                    &out,
                    &format!("{rounding:?} {m}x{k}x{n} threads={threads}"),
                );
            }
        }
    }
}

/// The prepared-operand path (`gemm_packed`) walks the same tile grid;
/// the grid must be equally invisible there, including when the packed
/// operands came from an engine on a different thread count (packing is
/// dispatch-independent by contract).
#[test]
fn packed_path_is_tile_invariant() {
    let config = MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, false);
    let packer = MacGemm::new(config.with_threads(1));
    for &(m, k, n) in [(17usize, 40usize, 130usize)].iter().chain(&GRID_SHAPES) {
        let a = rand_vec(m * k, 41, 2.0);
        let b = rand_vec(k * n, 42, 2.0);
        let reference = scalar_reference(config, m, k, n, &a, &b);
        let (pa, pb) = (packer.pack_a(m, k, &a), packer.pack_b(k, n, &b));
        for threads in [1usize, 3] {
            let engine = MacGemm::new(config.with_threads(threads));
            let mut out = vec![0.0f32; m * n];
            engine.gemm_packed(m, k, n, &pa, &pb, &mut out);
            assert_bits_eq(
                &reference,
                &out,
                &format!("packed {m}x{k}x{n} threads={threads}"),
            );
        }
    }
}

/// Accumulators outside the `u32` lane-word envelope — E5M10 at SR13,
/// E6M5 at SR16 and E8M7 at SR12, with and without subnormals — build no
/// lane kernel and must still reproduce the scalar reference at every
/// thread count, through the scalar loop over the compaction and panel:
/// one-shot and packed, on dense and ReLU-sparse A, and with a NaN in B,
/// which must meet every A entry (`0 * NaN` included). The paper's E6M5
/// family engages the pair LUT, and so does E5M10 under RN, which also
/// checks the lane kernel on a wider accumulator.
#[test]
fn out_of_envelope_formats_take_the_scalar_path() {
    for subnormals in [false, true] {
        for rounding in [AccumRounding::Stochastic { r: 13 }, AccumRounding::Nearest] {
            assert!(
                MacGemm::new(MacGemmConfig::fp8_fp12(rounding, subnormals)).pair_lut_active(),
                "E6M5 {rounding:?} must engage the pair LUT"
            );
        }
        for (acc, rounding, lanes) in [
            (FpFormat::e5m10(), AccumRounding::Nearest, true),
            (
                FpFormat::e5m10(),
                AccumRounding::Stochastic { r: 13 },
                false,
            ),
            (FpFormat::e6m5(), AccumRounding::Stochastic { r: 16 }, false),
            (FpFormat::e8m7(), AccumRounding::Stochastic { r: 12 }, false),
        ] {
            let config =
                MacGemmConfig::fp8_acc(acc.with_subnormals(subnormals), rounding, subnormals);
            assert_eq!(
                MacGemm::new(config).pair_lut_active(),
                lanes,
                "{acc} {rounding:?}: the lane kernel engages exactly inside the u32 envelope"
            );
            for &(m, k, n) in &SHAPES {
                let dense_a = rand_vec(m * k, 300 + n as u64, 2.0);
                let sparse_a = relu_sparse_vec(m * k, 500 + n as u64, 0.5);
                for (a, nan_in_b) in [(&dense_a, false), (&sparse_a, false), (&sparse_a, true)] {
                    let mut b = rand_vec(k * n, 400 + n as u64, 2.0);
                    if nan_in_b {
                        b[k * n / 2] = f32::NAN;
                    }
                    let reference = scalar_reference(config, m, k, n, a, &b);
                    assert_eq!(reference.iter().any(|v| v.is_nan()), nan_in_b);
                    for threads in [1usize, 3] {
                        let engine = MacGemm::new(config.with_threads(threads));
                        let at = format!(
                            "{acc} {rounding:?} sub={subnormals} {m}x{k}x{n} \
                             nan_in_b={nan_in_b} threads={threads}"
                        );
                        let mut out = vec![0.0f32; m * n];
                        engine.gemm(m, k, n, a, &b, &mut out);
                        assert_bits_eq(&reference, &out, &format!("{at}: gemm"));
                        let (pa, pb) = (engine.pack_a(m, k, a), engine.pack_b(k, n, &b));
                        engine.gemm_packed(m, k, n, &pa, &pb, &mut out);
                        assert_bits_eq(&reference, &out, &format!("{at}: gemm_packed"));
                    }
                }
            }
        }
    }
}

/// ReLU-sparse inputs (zero-product skip interacts with SR draw
/// consumption) and saturating inputs (the special-lane scalar fixup)
/// must survive the tiled multi-core path bit-for-bit, under SR and RN,
/// including the padded lanes of partial 16-lane blocks, the few-row
/// rectangles of thin products and the ragged edges of the grid.
#[test]
fn sparse_and_special_inputs_survive_tiling() {
    for rounding in [AccumRounding::Stochastic { r: 13 }, AccumRounding::Nearest] {
        let config = MacGemmConfig::fp8_fp12(rounding, true);
        for &(m, k, n) in [(11usize, 83usize, 67usize)]
            .iter()
            .chain(&RESNET_SHAPES)
            .chain(&THIN_SHAPES)
            .chain(&GRID_SHAPES)
        {
            let a = relu_sparse_vec(m * k, 61 + n as u64, 0.6);
            let b = rand_vec(k * n, 62 + n as u64, 2.0);
            let reference = scalar_reference(config, m, k, n, &a, &b);
            for threads in [1usize, 2, 3] {
                let engine = MacGemm::new(config.with_threads(threads));
                let mut out = vec![0.0f32; m * n];
                engine.gemm(m, k, n, &a, &b, &mut out);
                assert_bits_eq(
                    &reference,
                    &out,
                    &format!("{rounding:?} sparse {m}x{k}x{n} threads={threads}"),
                );
            }

            // Saturating magnitudes drive the accumulator to infinity; the
            // special path diverts to the scalar fixup inside the vector
            // loop.
            let sat_a = vec![40000.0f32; m * k];
            let sat_b = vec![40000.0f32; k * n];
            let sat_ref = scalar_reference(config, m, k, n, &sat_a, &sat_b);
            assert!(sat_ref.iter().all(|v| v.is_infinite()));
            for threads in [1usize, 2, 3] {
                let engine = MacGemm::new(config.with_threads(threads));
                let mut out = vec![0.0f32; m * n];
                engine.gemm(m, k, n, &sat_a, &sat_b, &mut out);
                assert_bits_eq(
                    &sat_ref,
                    &out,
                    &format!("{rounding:?} saturated {m}x{k}x{n} threads={threads}"),
                );
            }
        }
    }
}
