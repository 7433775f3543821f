//! Row-group edge suite. The `n % 64` columns past the last full panel
//! block form one tail block of width `W` in 8, 16, 32 or 64, and every
//! kernel call advances `64 / W` consecutive compacted rows across it:
//! each 16-lane chain holds one row, or two 8-column rows, a row that
//! runs out of entries meets code `+0`, and a partial group runs only the
//! chains holding a live lane. None of it may move a bit: every output
//! here must equal the scalar oracle `MacGemm::gemm_reference`, on every
//! vector-ISA tier the host supports, at 1 and 2 threads, under SR13 and
//! RN —
//!
//! - for every tail width and group edge: `n` from 1 to 288 against `m`
//!   rows that fill, split or overrun a group;
//! - with rows of unequal non-zero counts, empty rows among them;
//! - on the packed path, which compacts A, and the one-shot `gemm` in
//!   both orientations: a dense A against a 5%-dense B runs transposed
//!   (Bᵀ compacted, Aᵀ's `m` columns the panel), so `m` picks the tail
//!   width and `n` the group edges;
//! - at a non-zero row base, where a derived engine's rows must draw
//!   their full-product streams;
//! - with a NaN in the panel and `m` not a multiple of the group: the
//!   compaction then keeps every entry, its rows are never padded, and
//!   `0 * NaN` reaches the accumulator as in the oracle.

mod common;

use srmac_qgemm::{AccumRounding, MacGemm, MacGemmConfig};
use srmac_rng::SplitMix64;
use srmac_tensor::GemmEngine;

const NS: [usize; 14] = [1, 7, 8, 9, 10, 16, 17, 27, 32, 33, 48, 72, 144, 288];
const MS: [usize; 7] = [1, 2, 3, 7, 8, 9, 33];

/// The row offset of the derived engines.
const FIRST_ROW: usize = 2;

const ROUNDINGS: [AccumRounding; 2] = [AccumRounding::Stochastic { r: 13 }, AccumRounding::Nearest];

/// A `rows x cols` operand in `[-1, 1)` whose row `i` keeps each entry
/// with probability `density(i)`, the others zeros of either sign.
fn operand(rows: usize, cols: usize, seed: u64, density: impl Fn(usize) -> f64) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..rows * cols)
        .map(|x| {
            let v = 2.0 * rng.next_f32() - 1.0;
            if rng.next_f64() < density(x / cols) {
                v
            } else if rng.next_f64() < 0.5 {
                0.0
            } else {
                -0.0
            }
        })
        .collect()
}

/// Rows of unequal density, every fifth one empty.
fn ragged_rows(i: usize) -> f64 {
    [0.0, 0.3, 0.9, 0.55, 1.0][i % 5]
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The oracle's bits of the `m x k x n` product.
fn reference(
    cfg: MacGemmConfig,
    (m, k, n): (usize, usize, usize),
    a: &[f32],
    b: &[f32],
) -> Vec<u32> {
    let mut out = vec![f32::NAN; m * n];
    MacGemm::new(cfg.with_threads(1)).gemm_reference(m, k, n, a, b, &mut out);
    bits(&out)
}

/// The packed path, the one-shot `gemm` and — when `m > FIRST_ROW` and
/// the engine derives one — a row-based engine's one-shot and packed
/// products over A's tail rows, on every tier at 1 and 2 threads, each
/// against the oracle's `want` bits.
fn assert_paths_match(
    cfg: MacGemmConfig,
    (m, k, n): (usize, usize, usize),
    a: &[f32],
    b: &[f32],
    want: &[u32],
    what: &str,
) {
    for threads in [1usize, 2] {
        for (tier, engine) in common::tier_engines(cfg, threads) {
            let at = format!("{what} {m}x{k}x{n} {cfg} {tier:?} threads={threads}");
            let mut out = vec![f32::NAN; m * n];
            engine.gemm(m, k, n, a, b, &mut out);
            assert_eq!(bits(&out), want, "{at}: one-shot gemm");
            let (pa, pb) = (engine.pack_a(m, k, a), engine.pack_b(k, n, b));
            engine.gemm_packed(m, k, n, &pa, &pb, &mut out);
            assert_eq!(bits(&out), want, "{at}: gemm_packed");
            let Some(derived) = engine.with_row_base(FIRST_ROW).filter(|_| m > FIRST_ROW) else {
                continue;
            };
            let (rows, tail) = (m - FIRST_ROW, &a[FIRST_ROW * k..]);
            let mut sub = vec![f32::NAN; rows * n];
            derived.gemm(rows, k, n, tail, b, &mut sub);
            assert_eq!(
                bits(&sub),
                want[FIRST_ROW * n..],
                "{at}: one-shot at row base"
            );
            let (pa, pb) = (derived.pack_a(rows, k, tail), derived.pack_b(k, n, b));
            derived.gemm_packed(rows, k, n, &pa, &pb, &mut sub);
            assert_eq!(
                bits(&sub),
                want[FIRST_ROW * n..],
                "{at}: packed at row base"
            );
        }
    }
}

/// Every tail width against every group edge, in both one-shot
/// orientations. `k` varies with the shape, so some rows outlast a
/// 64-step staging chunk.
#[test]
fn group_edges_match_the_reference() {
    for rounding in ROUNDINGS {
        let cfg = MacGemmConfig::fp8_fp12(rounding, false);
        for (s, (&n, &m)) in NS
            .iter()
            .flat_map(|n| MS.iter().map(move |m| (n, m)))
            .enumerate()
        {
            let k = [5usize, 19, 70, 131][s % 4];
            let seed = 1000 + s as u64;
            // Ragged A against a dense B: the packed path and, mostly,
            // the one-shot `gemm` compact A.
            let a = operand(m, k, seed, ragged_rows);
            let b = operand(k, n, seed + 1, |_| 1.0);
            let want = reference(cfg, (m, k, n), &a, &b);
            assert_paths_match(cfg, (m, k, n), &a, &b, &want, "ragged A");
            // A dense A against a 5%-dense B: the one-shot `gemm` runs
            // transposed, Aᵀ's `m` columns forming the panel.
            let a = operand(m, k, seed + 2, |_| 1.0);
            let b = operand(k, n, seed + 3, |_| 0.05);
            let want = reference(cfg, (m, k, n), &a, &b);
            assert_paths_match(cfg, (m, k, n), &a, &b, &want, "sparse B");
        }
    }
}

/// Long rows of unequal length through the staging chunks: a transposed
/// stage-1 weight-gradient shape (`m = 8`, an 8-wide Aᵀ panel, Bᵀ rows
/// of a few hundred entries each, some empty) and its forward
/// counterpart with an 8-column B.
#[test]
fn long_unequal_rows_match_the_reference() {
    for rounding in ROUNDINGS {
        let cfg = MacGemmConfig::fp8_fp12(rounding, false);
        let (m, k, n) = (8usize, 1500usize, 21usize);
        let a = operand(m, k, 70, |_| 0.99);
        let bt = operand(n, k, 71, |j| ragged_rows(j) / 2.0);
        let b: Vec<f32> = (0..k * n).map(|x| bt[(x % n) * k + x / n]).collect();
        let want = reference(cfg, (m, k, n), &a, &b);
        assert_paths_match(cfg, (m, k, n), &a, &b, &want, "wgrad-like");
        let (m, k, n) = (29usize, 300usize, 8usize);
        let a = operand(m, k, 72, ragged_rows);
        let b = operand(k, n, 73, |_| 1.0);
        let want = reference(cfg, (m, k, n), &a, &b);
        assert_paths_match(cfg, (m, k, n), &a, &b, &want, "forward-like");
    }
}

/// A NaN in the panel operand B, with `m` not a multiple of the tail
/// block's group: A's compaction keeps every entry, so its rows all
/// have `k` entries and none is padded, and the NaN meets a zero of A
/// in a row of the last, partial group.
#[test]
fn nan_in_the_panel_meets_every_entry_of_partial_groups() {
    for rounding in ROUNDINGS {
        let cfg = MacGemmConfig::fp8_fp12(rounding, false);
        for &n in &NS {
            let group = 64 / (n % 64).next_power_of_two().max(8);
            for m in [3usize, 7, 9, 33].into_iter().filter(|m| m % group != 0) {
                let k = 23;
                let mut a = operand(m, k, 80 + n as u64, ragged_rows);
                let mut b = operand(k, n, 81 + n as u64, |_| 1.0);
                let (row, ci, col) = (m - 1, 4, n / 2);
                a[row * k + ci] = 0.0;
                b[ci * n + col] = f32::NAN;
                let want = reference(cfg, (m, k, n), &a, &b);
                assert!(
                    f32::from_bits(want[row * n + col]).is_nan(),
                    "{m}x{k}x{n}: the NaN must meet the zero"
                );
                assert_paths_match(cfg, (m, k, n), &a, &b, &want, "NaN in B");
            }
        }
    }
}
