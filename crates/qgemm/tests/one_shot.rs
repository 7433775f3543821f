//! One-shot `gemm` equivalence suite. `MacGemm::gemm` quantizes both
//! operands once and compacts whichever is cheaper to zero-skip — in
//! training, the sparse im2row B of a weight gradient, by computing
//! `outᵀ = Bᵀ · Aᵀ` — and must still reproduce, bit for bit, the scalar
//! oracle `MacGemm::gemm_reference` and the prepared-operand path
//! `pack_a` + `pack_b` + `gemm_packed`, which always compacts A. Every
//! output element keeps its `(row_base + i, j)` SR stream and its `k`
//! order in both orientations.
//!
//! The orientation rule itself is unit-tested next to it in
//! `src/engine.rs`, on the same ResNet-20 shapes, so these comparisons
//! cover both orientations — on the lane kernel and, through an
//! accumulator outside the `u32` lane word, on the scalar loop.

mod common;

use srmac_fp::FpFormat;
use srmac_qgemm::{AccumRounding, MacGemm, MacGemmConfig};
use srmac_rng::SplitMix64;
use srmac_tensor::GemmEngine;

/// Values in `[-1, 1)`, each replaced by a zero (of either sign) with
/// probability `1 - density`, the way ReLU and im2row padding zero an
/// activation matrix.
fn sparse_vec(n: usize, seed: u64, density: f64) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let v = 2.0 * rng.next_f32() - 1.0;
            if rng.next_f64() < density {
                v
            } else if rng.next_f64() < 0.5 {
                0.0
            } else {
                -0.0
            }
        })
        .collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

const SR13: AccumRounding = AccumRounding::Stochastic { r: 13 };

/// The paper's engines, SR13 and RN, then E5M10 at SR13, whose
/// accumulator has no lane kernel.
fn configs() -> [MacGemmConfig; 3] {
    let lane_less = MacGemmConfig::fp8_acc(FpFormat::e5m10().with_subnormals(false), SR13, false);
    assert!(!MacGemm::new(lane_less).pair_lut_active());
    [
        MacGemmConfig::fp8_fp12(SR13, false),
        MacGemmConfig::fp8_fp12(AccumRounding::Nearest, false),
        lane_less,
    ]
}

/// The row offset of the derived engines below.
const FIRST_ROW: usize = 7;

/// Checks one product on engines of 1..=4 threads under every vector-ISA
/// tier the host supports: the one-shot and the packed path against the
/// oracle, and — for products of more than
/// [`FIRST_ROW`] rows — a `with_row_base(FIRST_ROW)` engine's one-shot
/// and packed products over A's tail rows against the oracle's tail
/// rows. Returns the oracle's output bits.
fn assert_matches_reference(
    cfg: MacGemmConfig,
    (m, k, n): (usize, usize, usize),
    a: &[f32],
    b: &[f32],
    what: &str,
) -> Vec<u32> {
    let mut reference = vec![f32::NAN; m * n];
    MacGemm::new(cfg).gemm_reference(m, k, n, a, b, &mut reference);
    let reference = bits(&reference);
    let engines = (1..=4).flat_map(|threads| common::tier_engines(cfg, threads));
    for (tier, engine) in engines {
        let threads = engine.config().threads;
        let at = format!("{what} {m}x{k}x{n} {cfg} {tier:?} threads={threads}");
        let mut one_shot = vec![f32::NAN; m * n];
        engine.gemm(m, k, n, a, b, &mut one_shot);
        assert_eq!(bits(&one_shot), reference, "{at}: one-shot gemm");
        let mut packed = vec![f32::NAN; m * n];
        let (pa, pb) = (engine.pack_a(m, k, a), engine.pack_b(k, n, b));
        engine.gemm_packed(m, k, n, &pa, &pb, &mut packed);
        assert_eq!(bits(&packed), reference, "{at}: gemm_packed");
        let Some(derived) = engine.with_row_base(FIRST_ROW).filter(|_| m > FIRST_ROW) else {
            continue;
        };
        let rows = m - FIRST_ROW;
        let tail = &a[FIRST_ROW * k..];
        let want = &reference[FIRST_ROW * n..];
        let mut sub = vec![f32::NAN; rows * n];
        derived.gemm(rows, k, n, tail, b, &mut sub);
        assert_eq!(bits(&sub), want, "{at}: one-shot at row base {FIRST_ROW}");
        let (pa, pb) = (derived.pack_a(rows, k, tail), derived.pack_b(k, n, b));
        derived.gemm_packed(rows, k, n, &pa, &pb, &mut sub);
        assert_eq!(bits(&sub), want, "{at}: packed at row base {FIRST_ROW}");
    }
    reference
}

/// The six weight-gradient shapes of the width-8 ResNet-20 at batch 32
/// on 16x16 inputs, `dW (out_c x in_c*9) = dYᵀ · rows`, with the B
/// density a training step measured in each im2row matrix and a 99%
/// non-zero `dYᵀ`, on every engine of [`configs`].
#[test]
fn resnet20_weight_gradients_match_the_reference() {
    for (i, (m, k, n, b_density)) in [
        (8usize, 8192usize, 27usize, 0.92),
        (8, 8192, 72, 0.51),
        (16, 2048, 72, 0.68),
        (16, 2048, 144, 0.45),
        (32, 512, 144, 0.60),
        (32, 512, 288, 0.37),
    ]
    .into_iter()
    .enumerate()
    {
        let a = sparse_vec(m * k, 100 + i as u64, 0.99);
        let b = sparse_vec(k * n, 200 + i as u64, b_density);
        for cfg in configs() {
            assert_matches_reference(cfg, (m, k, n), &a, &b, "wgrad");
        }
    }
}

/// Ragged `m`, which becomes the panel width when the product runs
/// transposed: one lane, a half and an almost-full 16-lane block, one
/// past it, one short of and one past a 64-lane block, and 64 + 16. At
/// 3% B density every `m` here runs transposed; at 40% the narrow ones
/// keep today's orientation.
#[test]
fn ragged_panel_widths_match_the_reference() {
    let (k, n) = (96usize, 200usize);
    for m in [1usize, 8, 15, 17, 63, 65, 80] {
        for b_density in [0.03, 0.4] {
            let a = sparse_vec(m * k, 300 + m as u64, 0.99);
            let b = sparse_vec(k * n, 400 + m as u64, b_density);
            for cfg in configs() {
                let what = format!("ragged B density {b_density}");
                assert_matches_reference(cfg, (m, k, n), &a, &b, &what);
            }
        }
    }
}

/// A NaN in A must keep today's orientation: transposed, A's codes form
/// the panel, whose lanes only ever see B's non-zero entries, so
/// `NaN * 0` would be skipped. A NaN in B keeps every A entry, so
/// `0 * NaN` reaches the accumulator. Both propagate into the output
/// exactly as the oracle does, on every engine of [`configs`], at 1..=4
/// threads and at row base [`FIRST_ROW`]: the NaN meets a zero in row 9,
/// inside the derived engines' rows.
#[test]
fn nan_operands_take_the_exact_fallbacks() {
    let (m, k, n) = (32usize, 64usize, 144usize);
    for nan_in_a in [true, false] {
        let mut a = sparse_vec(m * k, 500, 0.99);
        let mut b = sparse_vec(k * n, 501, 0.1);
        if nan_in_a {
            a[9 * k + 3] = f32::NAN;
            // A zero in B's row 3 meets the NaN.
            b[3 * n + 10] = 0.0;
        } else {
            b[3 * n + 10] = f32::NAN;
            // A zero in A's column 3 meets the NaN.
            a[9 * k + 3] = 0.0;
        }
        let what = if nan_in_a { "NaN in A" } else { "NaN in B" };
        for cfg in configs() {
            let reference = assert_matches_reference(cfg, (m, k, n), &a, &b, what);
            assert!(
                f32::from_bits(reference[9 * n + 10]).is_nan(),
                "{what} {cfg}: the NaN must meet the zero"
            );
        }
    }
}

/// An all-zero B compacts to nothing (every output is the empty sum),
/// and empty dimensions produce empty or all-`+0` outputs.
#[test]
fn all_zero_and_empty_operands_match_the_reference() {
    let (m, k, n) = (16usize, 40usize, 72usize);
    let a = sparse_vec(m * k, 600, 0.99);
    let b = sparse_vec(k * n, 601, 0.0);
    for cfg in configs() {
        assert_matches_reference(cfg, (m, k, n), &a, &b, "all-zero B");
        for (m, k, n) in [(0usize, 5usize, 9usize), (9, 0, 5), (9, 5, 0), (0, 0, 0)] {
            let a = sparse_vec(m * k, 602, 0.5);
            let b = sparse_vec(k * n, 603, 0.5);
            assert_matches_reference(cfg, (m, k, n), &a, &b, "empty");
        }
    }
}
