//! Block quantization on every vector-ISA tier: `MacGemm::quantize_codes`
//! (the `FastQuantizer::quantize_block` every packed operand and the
//! scalar oracle `gemm_reference` go through) must equal the scalar
//! `FastQuantizer::quantize` code for code — over every `f32` exponent,
//! both sides of every round-to-nearest tie, signed zeros, subnormals,
//! the saturation edges, infinities and NaNs, at every slice length from
//! 0 to 33 and every lane position.

mod common;

use srmac_fp::FpFormat;
use srmac_qgemm::{AccumRounding, FastQuantizer, MacGemmConfig};
use srmac_rng::SplitMix64;

/// The inputs that exercise `fmt`'s quantizer.
fn edge_values(fmt: FpFormat) -> Vec<f32> {
    let mut xs = vec![
        0.0f32,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
    ];
    // NaN payloads, quiet and signalling.
    xs.extend([0x7FC0_0001u32, 0x7F80_0001, 0xFFBF_FFFF].map(f32::from_bits));
    // Every f32 exponent (subnormals included), with low, random and
    // full mantissas, both signs.
    let mut rng = SplitMix64::new(1);
    for exp in 0u32..=255 {
        for man in [0u32, 1, rng.next_u64() as u32 & 0x7F_FFFF, 0x7F_FFFF] {
            let x = f32::from_bits(exp << 23 | man);
            xs.extend([x, -x]);
        }
    }
    // Both sides of every tie between neighbouring target values (exact
    // in f32: the target has few significand bits), the saturation edge
    // above the largest finite value, and the target's own grid.
    let q = FastQuantizer::new(fmt);
    let grid: Vec<f32> = fmt
        .iter_encodings()
        .filter(|&b| !fmt.is_nan(b) && !fmt.is_inf(b) && b >> (fmt.bits() - 1) == 0)
        .map(|b| fmt.decode_f64(b) as f32)
        .collect();
    let mut sorted = grid.clone();
    sorted.sort_by(f32::total_cmp);
    let max = sorted[sorted.len() - 1];
    let gap = max - sorted[sorted.len() - 2];
    sorted.push(max + gap);
    for pair in sorted.windows(2) {
        let tie = (pair[0] + pair[1]) / 2.0;
        for x in [pair[0], tie.next_down(), tie, tie.next_up()] {
            xs.extend([x, -x]);
        }
    }
    assert!(
        xs.iter()
            .any(|&x| q.quantize(x) == fmt.max_finite_bits(false)),
        "the saturation edge must be covered"
    );
    xs
}

#[test]
fn block_quantization_matches_the_scalar_quantizer_on_every_tier() {
    let sr = AccumRounding::Stochastic { r: 13 };
    for fmt in [
        FpFormat::e5m2(),
        FpFormat::e5m2().with_subnormals(false),
        FpFormat::e4m3(),
    ] {
        let xs = edge_values(fmt);
        let q = FastQuantizer::new(fmt);
        let want: Vec<u8> = xs.iter().map(|&x| q.quantize(x) as u8).collect();
        let cfg = MacGemmConfig {
            mul_fmt: fmt,
            ..MacGemmConfig::fp8_fp12(sr, fmt.subnormals())
        };
        for (tier, engine) in common::tier_engines(cfg, 1) {
            assert_eq!(
                engine.quantize_codes(&xs),
                want,
                "{fmt} {tier:?}: whole slice"
            );
            // Every length from 0 to 33 at starts 7 apart, so each value
            // lands in a 16-lane vector, its ragged tail and its scalar
            // remainder.
            for len in 0..=33 {
                for start in (0..xs.len() - len).step_by(7) {
                    let got = engine.quantize_codes(&xs[start..start + len]);
                    assert_eq!(
                        got,
                        want[start..start + len],
                        "{fmt} {tier:?}: {len} values from {start}"
                    );
                }
            }
        }
    }
}
