//! Exact semantic values of floating-point encodings.
//!
//! [`FpValue`] represents the mathematical value behind an encoding without
//! any precision limit: finite values are `(-1)^neg * sig * 2^exp` with an
//! exact integer significand. This is the representation the golden
//! arithmetic in [`crate::ops`] computes with.

use crate::format::FpFormat;

/// The exact value of a floating-point encoding.
///
/// Finite values are *not* required to be normalized: `sig` may carry
/// trailing zeros. Use [`FpValue::normalized`] for canonical comparisons.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FpValue {
    /// Not a number (payload-less; all NaNs are collapsed).
    Nan,
    /// Positive or negative infinity.
    Inf {
        /// Sign: `true` for negative infinity.
        neg: bool,
    },
    /// Positive or negative zero.
    Zero {
        /// Sign: `true` for negative zero.
        neg: bool,
    },
    /// A nonzero finite value `(-1)^neg * sig * 2^exp`.
    Finite {
        /// Sign: `true` for negative values.
        neg: bool,
        /// Exponent of the significand's unit in the last place.
        exp: i32,
        /// Integer significand, never zero.
        sig: u128,
    },
}

impl FpValue {
    /// Creates a finite value, collapsing a zero significand to `Zero`.
    #[must_use]
    pub fn finite(neg: bool, exp: i32, sig: u128) -> Self {
        if sig == 0 {
            FpValue::Zero { neg }
        } else {
            FpValue::Finite { neg, exp, sig }
        }
    }

    /// Canonicalizes a finite value by stripping trailing zero bits of the
    /// significand; other variants are returned unchanged.
    #[must_use]
    pub fn normalized(self) -> Self {
        match self {
            FpValue::Finite { neg, exp, sig } => {
                let tz = sig.trailing_zeros();
                FpValue::Finite {
                    neg,
                    exp: exp + tz as i32,
                    sig: sig >> tz,
                }
            }
            other => other,
        }
    }

    /// True if the value is NaN.
    #[must_use]
    pub fn is_nan(&self) -> bool {
        matches!(self, FpValue::Nan)
    }

    /// True for ±zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        matches!(self, FpValue::Zero { .. })
    }

    /// Sign of the value (`true` = negative). NaN reports `false`.
    #[must_use]
    pub fn is_negative(&self) -> bool {
        match self {
            FpValue::Nan => false,
            FpValue::Inf { neg } | FpValue::Zero { neg } | FpValue::Finite { neg, .. } => *neg,
        }
    }

    /// Exact conversion to `f64`.
    ///
    /// Exact for every value of every supported format (p <= 24, |exp| small);
    /// values outside `f64` range would lose precision, but no supported
    /// format produces them.
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        match *self {
            FpValue::Nan => f64::NAN,
            FpValue::Inf { neg } => {
                if neg {
                    f64::NEG_INFINITY
                } else {
                    f64::INFINITY
                }
            }
            FpValue::Zero { neg } => {
                if neg {
                    -0.0
                } else {
                    0.0
                }
            }
            FpValue::Finite { neg, exp, sig } => {
                let v = self.normalized();
                let (exp, sig) = match v {
                    FpValue::Finite { exp, sig, .. } => (exp, sig),
                    _ => (exp, sig),
                };
                debug_assert!(sig <= (1u128 << 53), "significand too wide for exact f64");
                let magnitude = (sig as f64) * 2f64.powi(exp);
                if neg {
                    -magnitude
                } else {
                    magnitude
                }
            }
        }
    }

    /// Compares the magnitudes of two values. NaN and infinities are not
    /// supported here (callers dispatch on specials first).
    ///
    /// # Panics
    ///
    /// Panics if either value is NaN or infinite.
    #[must_use]
    pub fn cmp_mag(&self, other: &FpValue) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        // Key = (exponent of MSB, left-justified significand): magnitudes
        // compare lexicographically on it.
        let key = |v: &FpValue| -> Option<(i32, u128)> {
            match *v {
                FpValue::Zero { .. } => None,
                FpValue::Finite { exp, sig, .. } => {
                    let lz = sig.leading_zeros();
                    Some((exp + (127 - lz as i32), sig << lz))
                }
                _ => panic!("cmp_mag on non-finite value"),
            }
        };
        match (key(self), key(other)) {
            (None, None) => Ordering::Equal,
            (None, Some(_)) => Ordering::Less,
            (Some(_), None) => Ordering::Greater,
            (Some((ea, sa)), Some((eb, sb))) => ea.cmp(&eb).then(sa.cmp(&sb)),
        }
    }
}

impl FpFormat {
    /// Decodes an encoding into its exact value.
    ///
    /// With subnormal support disabled, subnormal encodings decode to
    /// (signed) zero, matching the paper's "W/O Sub" hardware.
    ///
    /// # Examples
    ///
    /// ```
    /// use srmac_fp::{FpFormat, FpValue};
    ///
    /// let f = FpFormat::e5m2();
    /// // 0x3C = 0_01111_00 = 1.0
    /// assert_eq!(f.decode(0x3C).to_f64(), 1.0);
    /// ```
    #[must_use]
    pub fn decode(&self, bits: u64) -> FpValue {
        let (neg, e, m) = self.unpack(bits);
        if e == self.exp_special() {
            return if m == 0 {
                FpValue::Inf { neg }
            } else {
                FpValue::Nan
            };
        }
        if e == 0 {
            if m == 0 || !self.subnormals() {
                return FpValue::Zero { neg };
            }
            // Subnormal: value = m * 2^(emin - M).
            return FpValue::Finite {
                neg,
                exp: self.min_quantum(),
                sig: u128::from(m),
            };
        }
        let sig = u128::from(m) | (1u128 << self.man_bits());
        let exp = (e as i32 - self.bias()) - self.man_bits() as i32;
        FpValue::Finite { neg, exp, sig }
    }

    /// Decodes an encoding directly to `f64` (exact for all supported
    /// formats).
    #[must_use]
    pub fn decode_f64(&self, bits: u64) -> f64 {
        self.decode(bits).to_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_known_e5m2_values() {
        let f = FpFormat::e5m2();
        assert_eq!(f.decode_f64(0x00), 0.0);
        assert!(f.decode_f64(0x80).is_sign_negative());
        assert_eq!(f.decode_f64(0x3C), 1.0);
        assert_eq!(f.decode_f64(0x3D), 1.25);
        assert_eq!(f.decode_f64(0x3E), 1.5);
        assert_eq!(f.decode_f64(0x42), 3.0);
        assert_eq!(f.decode_f64(0x44), 4.0);
        // Max finite E5M2 = 1.75 * 2^15 = 57344.
        assert_eq!(f.decode_f64(f.max_finite_bits(false)), 57344.0);
        // Min subnormal = 2^-16.
        assert_eq!(f.decode_f64(0x01), 2f64.powi(-16));
        assert!(f.decode_f64(f.inf_bits(false)).is_infinite());
        assert!(f.decode_f64(f.nan_bits()).is_nan());
    }

    #[test]
    fn decode_subnormals_flush_when_disabled() {
        let f = FpFormat::e5m2().with_subnormals(false);
        assert_eq!(f.decode(0x01), FpValue::Zero { neg: false });
        assert_eq!(f.decode(0x81), FpValue::Zero { neg: true });
        // Normals unaffected.
        assert_eq!(f.decode_f64(0x3C), 1.0);
    }

    #[test]
    fn decode_e6m5_values() {
        let f = FpFormat::e6m5();
        // 1.0 = 0_011111_00000
        let one = f.pack(false, 31, 0);
        assert_eq!(f.decode_f64(one), 1.0);
        // ULP of 1.0 is 2^-5.
        assert_eq!(f.decode_f64(one + 1), 1.0 + 2f64.powi(-5));
        assert_eq!(f.decode_f64(f.min_normal_bits(false)), 2f64.powi(-30));
        assert_eq!(f.decode_f64(1), 2f64.powi(-35));
    }

    #[test]
    fn normalized_strips_trailing_zeros() {
        let v = FpValue::Finite {
            neg: false,
            exp: -4,
            sig: 0b1100,
        };
        assert_eq!(
            v.normalized(),
            FpValue::Finite {
                neg: false,
                exp: -2,
                sig: 0b11
            }
        );
        assert_eq!(v.to_f64(), 0.75);
    }

    #[test]
    fn cmp_mag_orders_by_magnitude() {
        use std::cmp::Ordering;
        let f = FpFormat::e5m2();
        let one = f.decode(0x3C);
        let one_q = f.decode(0x3D);
        let three = f.decode(0x42);
        let zero = f.decode(0x00);
        assert_eq!(one.cmp_mag(&one_q), Ordering::Less);
        assert_eq!(three.cmp_mag(&one), Ordering::Greater);
        assert_eq!(zero.cmp_mag(&one), Ordering::Less);
        assert_eq!(one.cmp_mag(&one), Ordering::Equal);
        // Sign is ignored.
        let neg_three = f.decode(f.negate(0x42));
        assert_eq!(neg_three.cmp_mag(&three), Ordering::Equal);
    }

    #[test]
    fn roundtrip_all_encodings_to_f64_and_back_is_injective() {
        // Distinct finite encodings (modulo -0/+0) map to distinct f64s.
        for fmt in [FpFormat::e5m2(), FpFormat::e4m3(), FpFormat::e6m5()] {
            let mut seen = std::collections::BTreeMap::new();
            for bits in fmt.iter_encodings() {
                if fmt.is_nan(bits) {
                    continue;
                }
                let v = fmt.decode_f64(bits);
                if let Some(prev) = seen.insert(v.to_bits(), bits) {
                    panic!("{fmt}: encodings {prev:#x} and {bits:#x} both decode to {v}");
                }
            }
        }
    }
}
