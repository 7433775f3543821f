//! An *independent*, deliberately simple executable specification of the
//! rounding semantics, used as an oracle in tests.
//!
//! Values of small formats are represented as exact scaled integers
//! (`value * 2^SCALE` as an `i128`), the full value grid is materialized,
//! and rounding picks between the two enclosing grid neighbors literally
//! following Sec. II-A of the paper. No bit tricks are shared with the
//! production code in [`crate::round`] / [`crate::ops`], which is the point:
//! agreement between the two is strong evidence of correctness.
//!
//! Only formats with `min_quantum() >= -SCALE_MARGIN` and values that fit
//! the scaled range are supported (E3M2, E4M3, E5M2, E6M5 — the exhaustive
//! test formats). Subnormal support must be enabled; the flush-to-zero
//! variants are covered by targeted tests instead.

use crate::format::FpFormat;
use crate::round::RoundMode;
use crate::value::FpValue;

/// Power-of-two scale of the exact integer representation.
pub const SCALE: i32 = 48;

/// A materialized rounding grid for a small format.
#[derive(Debug, Clone)]
pub struct Grid {
    fmt: FpFormat,
    /// Sorted non-negative finite grid values (scaled), including one
    /// virtual binade above the largest finite value for overflow handling.
    values: Vec<i128>,
    /// Encoding for each grid value; `None` marks virtual overflow points.
    encodings: Vec<Option<u64>>,
    max_finite: i128,
}

impl Grid {
    /// Builds the grid for `fmt`.
    ///
    /// # Panics
    ///
    /// Panics if the format is too large for the oracle or lacks subnormal
    /// support.
    #[must_use]
    pub fn new(fmt: FpFormat) -> Self {
        assert!(
            fmt.subnormals(),
            "the naive oracle requires subnormal support"
        );
        assert!(
            fmt.min_quantum() >= -SCALE,
            "format too fine for the oracle scale"
        );
        assert!(fmt.emax() <= 40, "format too wide for the oracle scale");
        let mut pairs: Vec<(i128, Option<u64>)> = Vec::new();
        for bits in fmt.iter_encodings() {
            match fmt.decode(bits) {
                FpValue::Zero { neg: false } => pairs.push((0, Some(bits))),
                FpValue::Finite {
                    neg: false,
                    exp,
                    sig,
                } => {
                    pairs.push((scaled(exp, sig), Some(bits)));
                }
                _ => {}
            }
        }
        // One virtual binade above emax so overflow rounding has neighbors.
        let p = fmt.precision();
        let e_over = fmt.emax() + 1;
        for k in 0..(1u128 << (p - 1)) {
            let sig = (1u128 << (p - 1)) + k;
            let exp = e_over - (p as i32 - 1);
            pairs.push((scaled(exp, sig), None));
        }
        // And the single point 2^(emax+2) that caps the largest possible sum.
        pairs.push((scaled(fmt.emax() + 2, 1), None));
        pairs.sort_by_key(|(v, _)| *v);
        pairs.dedup_by_key(|(v, _)| *v);
        #[expect(
            clippy::expect_used,
            reason = "every format encodes at least one finite value"
        )]
        let max_finite = scaled(0, 0).max(
            pairs
                .iter()
                .filter(|(_, e)| e.is_some())
                .map(|(v, _)| *v)
                .max()
                .expect("grid has finite values"),
        );
        let (values, encodings) = pairs.into_iter().unzip();
        Self {
            fmt,
            values,
            encodings,
            max_finite,
        }
    }

    /// The format this grid belongs to.
    #[must_use]
    pub fn format(&self) -> FpFormat {
        self.fmt
    }

    /// Exact scaled value of a finite encoding (`None` for NaN/Inf).
    #[must_use]
    pub fn exact(&self, bits: u64) -> Option<i128> {
        match self.fmt.decode(bits) {
            FpValue::Nan | FpValue::Inf { .. } => None,
            FpValue::Zero { .. } => Some(0),
            FpValue::Finite { neg, exp, sig } => {
                let m = scaled(exp, sig);
                Some(if neg { -m } else { m })
            }
        }
    }

    /// Rounds the exact scaled value `x` into the format, literally per
    /// Sec. II-A: find the two enclosing grid values, then apply the mode.
    #[must_use]
    pub fn round(&self, x: i128, mode: RoundMode) -> u64 {
        if x == 0 {
            return self.fmt.zero_bits(false);
        }
        let neg = x < 0;
        let m = x.unsigned_abs() as i128;
        let idx = self.values.partition_point(|&v| v <= m);
        let lo_i = idx - 1; // values[0] == 0 <= m, so idx >= 1
        let lo = self.values[lo_i];
        if lo == m {
            return self.encode(lo_i, neg, mode);
        }
        let hi_i = lo_i + 1;
        assert!(hi_i < self.values.len(), "value beyond the extended grid");
        let hi = self.values[hi_i];
        let gap = hi - lo;
        let num = m - lo;
        let up = match mode {
            RoundMode::TowardZero => false,
            RoundMode::NearestEven => {
                match (2 * num).cmp(&gap) {
                    std::cmp::Ordering::Less => false,
                    std::cmp::Ordering::Greater => true,
                    std::cmp::Ordering::Equal => {
                        // Tie: choose the candidate whose encoding has an
                        // even significand LSB (virtual points count as even).
                        let lo_even = self.encodings[lo_i].is_none_or(|b| b & 1 == 0);
                        !lo_even
                    }
                }
            }
            RoundMode::Stochastic { r, word } => {
                // eps = num / gap; T = floor(eps * 2^r); up iff T + word
                // carries out of r bits (Fig. 1 semantics).
                let t = ((num as u128) << r) / (gap as u128);
                t + u128::from(word & crate::format::mask(r)) >= (1u128 << r)
            }
        };
        self.encode(if up { hi_i } else { lo_i }, neg, mode)
    }

    fn encode(&self, idx: usize, neg: bool, mode: RoundMode) -> u64 {
        match self.encodings[idx] {
            Some(_) if self.values[idx] == 0 => self.fmt.zero_bits(neg),
            Some(bits) => {
                if neg {
                    self.fmt.negate(bits)
                } else {
                    bits
                }
            }
            // Beyond the largest finite value: truncation saturates, the
            // nearest/stochastic modes overflow to infinity.
            None => match mode {
                RoundMode::TowardZero => self.fmt.max_finite_bits(neg),
                _ => self.fmt.inf_bits(neg),
            },
        }
    }

    /// Naive addition: exact integer sum, then grid rounding, with IEEE
    /// special/zero-sign rules spelled out longhand.
    #[must_use]
    pub fn add(&self, a: u64, b: u64, mode: RoundMode) -> u64 {
        let f = &self.fmt;
        if f.is_nan(a) || f.is_nan(b) {
            return f.nan_bits();
        }
        match (f.is_inf(a), f.is_inf(b)) {
            (true, true) => {
                let (sa, _, _) = f.unpack(a);
                let (sb, _, _) = f.unpack(b);
                return if sa == sb { a } else { f.nan_bits() };
            }
            (true, false) => return a,
            (false, true) => return b,
            _ => {}
        }
        #[expect(
            clippy::expect_used,
            reason = "non-finite operands were handled by the match above"
        )]
        let xa = self.exact(a).expect("finite");
        #[expect(
            clippy::expect_used,
            reason = "non-finite operands were handled by the match above"
        )]
        let xb = self.exact(b).expect("finite");
        if xa == 0 && xb == 0 {
            let (sa, _, _) = f.unpack(a);
            let (sb, _, _) = f.unpack(b);
            return f.zero_bits(sa && sb);
        }
        if xa == 0 {
            return b;
        }
        if xb == 0 {
            return a;
        }
        self.round(xa + xb, mode)
    }

    /// The largest finite scaled value of the grid.
    #[must_use]
    pub fn max_finite(&self) -> i128 {
        self.max_finite
    }
}

fn scaled(exp: i32, sig: u128) -> i128 {
    let sh = exp + SCALE;
    assert!(sh >= 0, "value finer than the oracle scale");
    assert!(sh < 100, "value beyond the oracle range");
    #[expect(
        clippy::expect_used,
        reason = "the asserts above bound sh, and the significand fits i128"
    )]
    let sig = i128::try_from(sig).expect("significand fits");
    sig << sh
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    const RN: RoundMode = RoundMode::NearestEven;

    #[test]
    fn grid_is_strictly_sorted_with_zero_first() {
        for fmt in [FpFormat::e3m2(), FpFormat::e4m3(), FpFormat::e5m2()] {
            let g = Grid::new(fmt);
            assert_eq!(g.values[0], 0);
            assert!(g.values.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn oracle_add_matches_golden_rn_exhaustive_e3m2() {
        let fmt = FpFormat::e3m2();
        let g = Grid::new(fmt);
        for a in fmt.iter_encodings() {
            for b in fmt.iter_encodings() {
                let want = g.add(a, b, RN);
                let got = ops::add(fmt, a, b, RN);
                assert_eq!(
                    fmt.decode(got).normalized(),
                    fmt.decode(want).normalized(),
                    "a={a:#x} b={b:#x}: golden {got:#x} vs oracle {want:#x}"
                );
                // Also require identical encodings (same zero signs etc.).
                assert_eq!(got, want, "a={a:#x} b={b:#x}");
            }
        }
    }

    #[test]
    fn oracle_add_matches_golden_sr_exhaustive_e3m2() {
        let fmt = FpFormat::e3m2();
        let g = Grid::new(fmt);
        let r = 5;
        for a in fmt.iter_encodings() {
            for b in fmt.iter_encodings() {
                if fmt.is_nan(a) || fmt.is_nan(b) {
                    continue;
                }
                for word in 0..(1u64 << r) {
                    let mode = RoundMode::Stochastic { r, word };
                    let want = g.add(a, b, mode);
                    let got = ops::add(fmt, a, b, mode);
                    assert_eq!(got, want, "a={a:#x} b={b:#x} word={word}");
                }
            }
        }
    }

    #[test]
    fn oracle_add_matches_golden_e4m3_sampled_words() {
        let fmt = FpFormat::e4m3();
        let g = Grid::new(fmt);
        for a in fmt.iter_encodings() {
            for b in fmt.iter_encodings() {
                if fmt.is_nan(a) || fmt.is_nan(b) {
                    continue;
                }
                assert_eq!(
                    g.add(a, b, RN),
                    ops::add(fmt, a, b, RN),
                    "RN a={a:#x} b={b:#x}"
                );
                for word in [0u64, 1, 9, 20, 31] {
                    let mode = RoundMode::Stochastic { r: 5, word };
                    assert_eq!(
                        g.add(a, b, mode),
                        ops::add(fmt, a, b, mode),
                        "SR a={a:#x} b={b:#x} word={word}"
                    );
                }
                let rz = RoundMode::TowardZero;
                assert_eq!(
                    g.add(a, b, rz),
                    ops::add(fmt, a, b, rz),
                    "RZ a={a:#x} b={b:#x}"
                );
            }
        }
    }

    #[test]
    fn oracle_quantize_matches_golden_on_random_reals() {
        // Dense rational probes around the E5M2 grid.
        let fmt = FpFormat::e5m2();
        let g = Grid::new(fmt);
        let mut x = 1i128;
        // Simple LCG over scaled values within range.
        for _ in 0..20_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let v = (x % (g.max_finite() * 2)).abs();
            let got = fmt.round_finite(false, -SCALE, v.max(1) as u128, false, false, RN);
            let want = g.round(v.max(1), RN);
            assert_eq!(got.bits, want, "v={v}");
        }
    }
}
