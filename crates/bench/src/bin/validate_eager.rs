//! Reproduction of the paper's Sec. III-B validation, strengthened:
//!
//! "we also conduct brute-force testing using a vast array of 10000 input
//! pairs covering all the possible execution traces in the adder
//! architecture. For every combination of input values x and y, we employ
//! 1000 random integers and we calculate the probability of rounding
//! occurrence accurately. We verify that, for each input configuration, the
//! calculated probability aligns with the stochastic rounding definition
//! outlined in Sec. II-A."
//!
//! Here we (1) check bit-exact equality of eager and lazy for every pair and
//! every one of the 2^r random words (stronger than probability agreement),
//! (2) verify the exact up-count floor(eps * 2^r) against exact arithmetic,
//! and (3) quantify the bias of the literal "sum-bit" reading of the prose
//! (derived in the far-path docs of `srmac-core`, `src/adder/far.rs`)
//! that the Exact reading avoids.

#![forbid(unsafe_code)]

use srmac_core::{EagerCorrection, FpAdder, RoundingDesign};
use srmac_fp::{FpFormat, FpValue, RoundMode};

use srmac_rng::SplitMix64;

fn exact_scaled(fmt: FpFormat, bits: u64) -> Option<i128> {
    match fmt.decode(bits) {
        FpValue::Finite { neg, exp, sig } => {
            let v = i128::try_from(sig).unwrap() << (exp + 40);
            Some(if neg { -v } else { v })
        }
        FpValue::Zero { .. } => Some(0),
        _ => None,
    }
}

fn main() {
    let fmt = FpFormat::e6m5();
    let r = srmac_bench::env_or("SRMAC_R", 9u32);
    let pairs = srmac_bench::env_or("SRMAC_PAIRS", 10_000usize);
    let lazy = FpAdder::new(fmt, RoundingDesign::SrLazy { r });
    let eager = FpAdder::new(
        fmt,
        RoundingDesign::SrEager {
            r,
            correction: EagerCorrection::Exact,
        },
    );
    let sumbit = FpAdder::new(
        fmt,
        RoundingDesign::SrEager {
            r,
            correction: EagerCorrection::SumBit,
        },
    );

    let mut rng = SplitMix64::new(0xE5E5);
    let mut tested = 0usize;
    let mut eager_lazy_equal = 0usize;
    let mut count_exact = 0usize;
    let mut sumbit_divergent_pairs = 0usize;
    let mut sumbit_max_prob_err = 0.0f64;
    let mut paths = [0usize; 4]; // far-add, far-sub, close, special/exact

    while tested < pairs {
        let a = rng.next_u64() & fmt.bits_mask();
        let b = rng.next_u64() & fmt.bits_mask();
        let (Some(xa), Some(xb)) = (exact_scaled(fmt, a), exact_scaled(fmt, b)) else {
            continue;
        };
        tested += 1;

        // Classify the trace for coverage reporting.
        let (_, trace) = lazy.add_traced(a, b, 0);
        let pi = match trace.path {
            srmac_core::PathTaken::Far if !trace.effective_sub => 0,
            srmac_core::PathTaken::Far => 1,
            srmac_core::PathTaken::Close => 2,
            srmac_core::PathTaken::Special => 3,
        };
        paths[pi] += 1;

        // (1) per-word equality + up-counts.
        let mut ups = 0u64;
        let mut sumbit_ups = 0u64;
        let mut all_equal = true;
        let mut base = None;
        for word in 0..(1u64 << r) {
            let l = lazy.add(a, b, word);
            let e = eager.add(a, b, word);
            let s = sumbit.add(a, b, word);
            all_equal &= l == e;
            let low = *base.get_or_insert_with(|| {
                // round-toward-zero result = the "down" candidate
                srmac_fp::ops::add(fmt, a, b, RoundMode::TowardZero)
            });
            if l != low {
                ups += 1;
            }
            if s != low {
                sumbit_ups += 1;
            }
        }
        eager_lazy_equal += usize::from(all_equal);

        // (2) the exact expected up-count, straight from the SR definition:
        // T = the top r bits of the discarded tail at the exact sum's
        // rounding quantum (clamped to the subnormal quantum).
        let exact = xa + xb;
        let m = exact.unsigned_abs();
        let msb = if m == 0 {
            0
        } else {
            127 - m.leading_zeros() as i32
        };
        if m != 0 && msb >= fmt.emax() + 1 + 40 {
            // |sum| >= 2^(emax+1): every rounding overflows to infinity; the
            // random word is irrelevant. Verify exactly that.
            let inf = fmt.inf_bits(exact < 0);
            let mut all_inf = true;
            for word in 0..(1u64 << r) {
                all_inf &= eager.add(a, b, word) == inf;
            }
            if all_inf {
                count_exact += 1;
            } else {
                eprintln!("MISMATCH: {a:#x}+{b:#x}: saturating sum must overflow for every word");
            }
            continue;
        }
        let expected = if m == 0 {
            0
        } else {
            let p = fmt.precision() as i32;
            let q = (msb - (p - 1)).max(fmt.min_quantum() + 40);
            debug_assert!(q > 0, "scaled values are 2^-40-granular");
            let tail = m & ((1u128 << q) - 1);
            ((tail << r) >> q) as u64
        };
        if ups == expected {
            count_exact += 1;
        } else {
            eprintln!("MISMATCH: {a:#x}+{b:#x}: up-count {ups} vs exact {expected}");
        }

        // (3) sum-bit ablation bias.
        if sumbit_ups != ups {
            sumbit_divergent_pairs += 1;
            let err = (sumbit_ups as f64 - ups as f64).abs() / f64::from(1u32 << r);
            sumbit_max_prob_err = sumbit_max_prob_err.max(err);
        }
    }

    println!("Sec. III-B validation — E6M5, r = {r}, {tested} input pairs x ALL 2^{r} words");
    println!(
        "  trace coverage: far-add {}, far-sub {}, close {}, special/trivial {}",
        paths[0], paths[1], paths[2], paths[3]
    );
    println!("  eager(Exact) == lazy per-word:            {eager_lazy_equal}/{tested} pairs");
    println!("  up-count == floor(eps*2^r) exactly:       {count_exact}/{tested} pairs");
    println!(
        "  SumBit (literal prose) divergent pairs:   {sumbit_divergent_pairs}/{tested}, max probability error {:.4}",
        sumbit_max_prob_err
    );
    println!("\npaper: \"the calculated probability aligns with the stochastic rounding");
    println!("definition\" — reproduced (and strengthened to exact per-word equality)");
    println!("for the Exact reading; the literal sum-bit reading shows measurable bias,");
    println!("supporting the reconstruction in srmac-core's src/adder/far.rs.");

    assert_eq!(
        eager_lazy_equal, tested,
        "eager(Exact) must equal lazy everywhere"
    );
    assert_eq!(
        count_exact, tested,
        "up-counts must match the SR definition exactly"
    );
}
