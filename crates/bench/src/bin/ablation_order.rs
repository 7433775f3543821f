//! Extension ablation, beyond the paper (the second paragraph says why):
//! does the *order* of accumulation
//! matter for low-precision MAC dot products? Compares sequential
//! accumulation (what a MAC naturally does), blocked accumulation with
//! per-block sub-accumulators, and a pairwise tree — under RN and SR.
//!
//! The paper fixes sequential accumulation in hardware; this study shows
//! what that choice costs relative to reduction trees that need extra
//! adder hardware.

#![forbid(unsafe_code)]

use srmac_bench::table;
use srmac_core::{EagerCorrection, FpAdder, MacConfig, MacUnit, RoundingDesign};
use srmac_fp::{FpFormat, RoundMode};
use srmac_rng::{GaloisLfsr, RandomBits, SplitMix64};

fn quantize_terms(n: usize, seed: u64) -> (Vec<u64>, f64) {
    let fp8 = FpFormat::e5m2();
    let mut rng = SplitMix64::new(seed);
    let mut exact = 0.0;
    let terms: Vec<u64> = (0..n)
        .map(|_| {
            let x = 0.25 + rng.next_f64() * 0.5;
            let q = fp8.quantize_f64(x, RoundMode::NearestEven).bits;
            exact += fp8.decode_f64(q);
            q
        })
        .collect();
    (terms, exact)
}

/// Sequential MAC accumulation (the hardware baseline).
fn sequential(design: RoundingDesign, terms: &[u64], seed: u64) -> f64 {
    let mut mac = MacUnit::new(MacConfig::fp8_fp12(design, true).with_seed(seed)).unwrap();
    let one = FpFormat::e5m2()
        .quantize_f64(1.0, RoundMode::NearestEven)
        .bits;
    for &t in terms {
        mac.mac(t, one);
    }
    mac.acc_f64()
}

/// Blocked accumulation: `blocks` sub-accumulators, summed at the end.
fn blocked(design: RoundingDesign, terms: &[u64], seed: u64, blocks: usize) -> f64 {
    let cfg = MacConfig::fp8_fp12(design, true);
    let one = FpFormat::e5m2()
        .quantize_f64(1.0, RoundMode::NearestEven)
        .bits;
    let adder = FpAdder::new(cfg.acc_fmt, cfg.design);
    let mut lfsr = GaloisLfsr::new(cfg.design.random_bits().clamp(4, 64), seed ^ 0xB10C);
    let r = cfg.design.random_bits();
    let mut partials = Vec::new();
    for (i, chunk) in terms.chunks(terms.len().div_ceil(blocks)).enumerate() {
        let mut mac = MacUnit::new(cfg.with_seed(seed.wrapping_add(i as u64 * 77))).unwrap();
        for &t in chunk {
            mac.mac(t, one);
        }
        partials.push(mac.acc_bits());
    }
    // Final reduction through the same adder design.
    let mut acc = cfg.acc_fmt.zero_bits(false);
    for p in partials {
        let word = if r == 0 { 0 } else { lfsr.next_bits(r) };
        acc = adder.add(acc, p, word);
    }
    cfg.acc_fmt.decode_f64(acc)
}

/// Pairwise (tree) reduction all the way down.
fn tree(design: RoundingDesign, terms: &[u64], seed: u64) -> f64 {
    let cfg = MacConfig::fp8_fp12(design, true);
    let fp8 = FpFormat::e5m2();
    let fp12 = cfg.acc_fmt;
    let mult = srmac_core::ExactMultiplier::new(cfg.mul_fmt, fp12).unwrap();
    let one = fp8.quantize_f64(1.0, RoundMode::NearestEven).bits;
    let adder = FpAdder::new(fp12, cfg.design);
    let mut lfsr = GaloisLfsr::new(cfg.design.random_bits().clamp(4, 64), seed ^ 0x7EE);
    let r = cfg.design.random_bits();
    let mut level: Vec<u64> = terms.iter().map(|&t| mult.multiply(t, one)).collect();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            if pair.len() == 2 {
                let word = if r == 0 { 0 } else { lfsr.next_bits(r) };
                next.push(adder.add(pair[0], pair[1], word));
            } else {
                next.push(pair[0]);
            }
        }
        level = next;
    }
    fp12.decode_f64(level[0])
}

fn main() {
    let n = srmac_bench::env_or("SRMAC_N", 4096usize);
    let trials = srmac_bench::env_or("SRMAC_TRIALS", 10u64);
    println!("Accumulation-order ablation — E6M5 accumulator, N = {n}, {trials} trials");
    println!("(mean relative error of sum of N terms ~U[0.25,0.75))\n");

    let designs: Vec<(&str, RoundingDesign)> = vec![
        ("RN", RoundingDesign::Nearest),
        (
            "SR r=9",
            RoundingDesign::SrEager {
                r: 9,
                correction: EagerCorrection::Exact,
            },
        ),
        (
            "SR r=13",
            RoundingDesign::SrEager {
                r: 13,
                correction: EagerCorrection::Exact,
            },
        ),
    ];

    let mut rows = Vec::new();
    for (label, design) in &designs {
        let mut errs = [0.0f64; 4]; // sequential, blocked-16, blocked-64, tree
        for t in 0..trials {
            let (terms, exact) = quantize_terms(n, 500 + t);
            let rel = |v: f64| (v - exact).abs() / exact;
            errs[0] += rel(sequential(*design, &terms, 1000 + t));
            errs[1] += rel(blocked(*design, &terms, 2000 + t, 16));
            errs[2] += rel(blocked(*design, &terms, 3000 + t, 64));
            errs[3] += rel(tree(*design, &terms, 4000 + t));
        }
        rows.push(vec![
            (*label).to_owned(),
            format!("{:.4}", errs[0] / trials as f64),
            format!("{:.4}", errs[1] / trials as f64),
            format!("{:.4}", errs[2] / trials as f64),
            format!("{:.4}", errs[3] / trials as f64),
        ]);
    }
    println!(
        "{}",
        table::render(
            &[
                "design",
                "sequential",
                "blocked x16",
                "blocked x64",
                "pairwise tree"
            ],
            &rows
        )
    );
    println!("reading: under RN, blocking/trees tame swamping (shorter chains per");
    println!("accumulator) at extra hardware cost; under SR, plain sequential");
    println!("accumulation is already unbiased — the paper's cheap MAC needs no tree.");
}
