//! Row-offset engine derivation (`GemmEngine::with_row_base`): the
//! position contract behind deterministic data parallelism. A derived
//! engine computing a sub-batch's rows must reproduce, bit for bit, the
//! rows the base engine assigns those positions in the full-batch
//! product — regardless of lane blocking, row grouping, thread count,
//! vector-ISA tier, or whether the operands arrive packed or raw.

mod common;

use std::sync::Arc;

use srmac_qgemm::{AccumRounding, MacGemm, MacGemmConfig};
use srmac_rng::SplitMix64;
use srmac_tensor::GemmEngine;

fn rand_vec(n: usize, seed: u64, scale: f32) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| (rng.next_f64() as f32 - 0.5) * scale)
        .collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Under SR, the derived engine's output over A's tail rows must equal
/// the same rows of the base engine's full product — across output
/// widths whose zero-padded tail block keeps 1 of 8 (`n = 65`), all 8
/// (`n = 72`) and all 16 (`n = 144`) lanes live, offsets that start
/// the derived rows inside a row group, and across thread counts and
/// vector-ISA tiers.
#[test]
fn derived_rows_match_full_product_rows() {
    let (m, k) = (13usize, 57);
    let sr = AccumRounding::Stochastic { r: 13 };
    for n in [65usize, 72, 144] {
        let a = rand_vec(m * k, 11 + n as u64, 2.0);
        let b = rand_vec(k * n, 13 + n as u64, 2.0);
        let engines = [1usize, 4]
            .into_iter()
            .flat_map(|threads| common::tier_engines(MacGemmConfig::fp8_fp12(sr, true), threads));
        for (tier, base) in engines {
            let threads = base.config().threads;
            let mut full = vec![0.0f32; m * n];
            base.gemm(m, k, n, &a, &b, &mut full);
            for first_row in [1usize, 4, 9] {
                let rows = m - first_row;
                let derived = base
                    .with_row_base(first_row)
                    .expect("SR engine must derive a row-offset engine");
                let mut sub = vec![0.0f32; rows * n];
                derived.gemm(rows, k, n, &a[first_row * k..], &b, &mut sub);
                assert_eq!(
                    bits(&sub),
                    bits(&full[first_row * n..]),
                    "offset {first_row} rows differ from the full product \
                     (n={n}, {tier:?}, threads={threads})"
                );
            }
        }
    }
}

/// Packed operands carry no position state: packs built by the base
/// engine must run through a derived engine bit-identically to the
/// derived engine's raw-operand path.
#[test]
fn base_packed_operands_run_on_derived_engines() {
    let (m, k, n) = (11usize, 33, 70);
    let sr = AccumRounding::Stochastic { r: 13 };
    let first_row = 5;
    let rows = m - first_row;
    let a = rand_vec(m * k, 3, 2.0);
    let b = rand_vec(k * n, 5, 2.0);
    for (tier, base) in common::tier_engines(MacGemmConfig::fp8_fp12(sr, false), 1) {
        let derived = base.with_row_base(first_row).expect("SR engine derives");

        let mut raw = vec![0.0f32; rows * n];
        derived.gemm(rows, k, n, &a[first_row * k..], &b, &mut raw);

        let pa = base.pack_a(rows, k, &a[first_row * k..]);
        let pb = base.pack_b(k, n, &b);
        let mut packed = vec![0.0f32; rows * n];
        derived.gemm_packed(rows, k, n, &pa, &pb, &mut packed);
        assert_eq!(
            bits(&raw),
            bits(&packed),
            "{tier:?}: packed path changed bits"
        );
    }
}

/// Deriving from a derived engine composes offsets: two hops of 3 and 4
/// equal one hop of 7.
#[test]
fn row_bases_compose() {
    let (m, k, n) = (10usize, 21, 17);
    let sr = AccumRounding::Stochastic { r: 13 };
    let base = MacGemm::new(MacGemmConfig::fp8_fp12(sr, true).with_threads(1));
    let a = rand_vec(m * k, 17, 2.0);
    let b = rand_vec(k * n, 19, 2.0);
    let rows = m - 7;

    let one_hop = base.with_row_base(7).expect("SR engine derives");
    let two_hop: Arc<dyn GemmEngine> = {
        let mid = base.with_row_base(3).expect("SR engine derives");
        mid.with_row_base(4).expect("derived engine derives again")
    };
    let mut out_one = vec![0.0f32; rows * n];
    one_hop.gemm(rows, k, n, &a[7 * k..], &b, &mut out_one);
    let mut out_two = vec![0.0f32; rows * n];
    two_hop.gemm(rows, k, n, &a[7 * k..], &b, &mut out_two);
    assert_eq!(bits(&out_one), bits(&out_two), "offset composition broke");
}

/// Position-invariant configurations (RN accumulation) and a zero offset
/// both decline derivation — callers keep using the engine unchanged.
#[test]
fn rn_and_zero_offsets_decline_derivation() {
    let sr = AccumRounding::Stochastic { r: 13 };
    let rn_engine = MacGemm::new(MacGemmConfig::fp8_fp12(AccumRounding::Nearest, true));
    assert!(rn_engine.with_row_base(5).is_none(), "RN needs no offset");
    let sr_engine = MacGemm::new(MacGemmConfig::fp8_fp12(sr, true));
    assert!(
        sr_engine.with_row_base(0).is_none(),
        "zero offset is a no-op"
    );
    assert!(sr_engine.with_row_base(1).is_some());
}
