//! Parameterized binary floating-point format descriptors.
//!
//! A [`FpFormat`] describes an IEEE-754-style binary interchange format with
//! `E` exponent bits, `M` explicitly stored significand bits and optional
//! subnormal support. All formats studied in the paper are expressible:
//! E5M2 (FP8), E6M5 (the proposed FP12 accumulator), E5M10 (FP16),
//! E8M7 (BFloat16) and E8M23 (FP32).
//!
//! Encodings are carried as the low `1 + E + M` bits of a `u64`
//! (sign | exponent | significand, sign in the MSB position of the format).

use std::fmt;

/// Maximum supported exponent field width in bits.
pub const MAX_EXP_BITS: u32 = 8;
/// Maximum supported stored-significand field width in bits.
pub const MAX_MAN_BITS: u32 = 23;

/// Error returned when constructing an invalid [`FpFormat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FormatError {
    exp_bits: u32,
    man_bits: u32,
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unsupported floating-point format E{}M{} (need 2 <= E <= {MAX_EXP_BITS}, 1 <= M <= {MAX_MAN_BITS})",
            self.exp_bits, self.man_bits
        )
    }
}

impl std::error::Error for FormatError {}

/// A binary floating-point format with `E` exponent bits and `M` stored
/// significand bits, plus a flag controlling subnormal support.
///
/// With subnormal support disabled ("W/O Sub" in the paper), encodings whose
/// exponent field is zero decode to (signed) zero, and rounding results that
/// fall below the normal range flush to zero — "values in the subnormal range
/// are treated as zero" (paper, footnote 3).
///
/// # Examples
///
/// ```
/// use srmac_fp::FpFormat;
///
/// let fp12 = FpFormat::e6m5();
/// assert_eq!(fp12.bits(), 12);
/// assert_eq!(fp12.precision(), 6);
/// assert_eq!(fp12.emax(), 31);
/// assert_eq!(fp12.emin(), -30);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct FpFormat {
    exp_bits: u32,
    man_bits: u32,
    subnormals: bool,
}

impl FpFormat {
    /// Creates a format with `exp_bits` exponent bits and `man_bits` stored
    /// significand bits, with subnormal support enabled.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError`] if `exp_bits` is not in `2..=8` or `man_bits`
    /// is not in `1..=23`.
    pub fn new(exp_bits: u32, man_bits: u32) -> Result<Self, FormatError> {
        if !(2..=MAX_EXP_BITS).contains(&exp_bits) || !(1..=MAX_MAN_BITS).contains(&man_bits) {
            return Err(FormatError { exp_bits, man_bits });
        }
        Ok(Self {
            exp_bits,
            man_bits,
            subnormals: true,
        })
    }

    /// Like [`FpFormat::new`] but panics on invalid widths; for the fixed
    /// format tables used throughout this crate family.
    ///
    /// # Panics
    ///
    /// Panics if the widths are outside the supported range.
    #[must_use]
    pub fn of(exp_bits: u32, man_bits: u32) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "of() is the documented panicking constructor; fallible callers use new()"
        )]
        let format = Self::new(exp_bits, man_bits).expect("invalid floating-point format");
        format
    }

    /// Returns a copy of this format with subnormal support set to `enabled`.
    #[must_use]
    pub fn with_subnormals(self, enabled: bool) -> Self {
        Self {
            subnormals: enabled,
            ..self
        }
    }

    /// FP8 E5M2, the paper's multiplier input format.
    #[must_use]
    pub fn e5m2() -> Self {
        Self::of(5, 2)
    }

    /// FP8 E4M3, the other OCP FP8 format (supported as an extension).
    #[must_use]
    pub fn e4m3() -> Self {
        Self::of(4, 3)
    }

    /// FP12 E6M5, the paper's proposed 12-bit accumulator format.
    #[must_use]
    pub fn e6m5() -> Self {
        Self::of(6, 5)
    }

    /// FP16 (half precision), E5M10.
    #[must_use]
    pub fn e5m10() -> Self {
        Self::of(5, 10)
    }

    /// BFloat16, E8M7.
    #[must_use]
    pub fn e8m7() -> Self {
        Self::of(8, 7)
    }

    /// FP32 (single precision), E8M23.
    #[must_use]
    pub fn e8m23() -> Self {
        Self::of(8, 23)
    }

    /// A deliberately tiny format (E3M2, 6 bits) used for exhaustive oracle
    /// testing; not part of the paper.
    #[must_use]
    pub fn e3m2() -> Self {
        Self::of(3, 2)
    }

    /// Number of exponent field bits `E`.
    #[must_use]
    pub fn exp_bits(&self) -> u32 {
        self.exp_bits
    }

    /// Number of stored significand field bits `M`.
    #[must_use]
    pub fn man_bits(&self) -> u32 {
        self.man_bits
    }

    /// Whether subnormal encodings are honoured ("W/ Sub").
    #[must_use]
    pub fn subnormals(&self) -> bool {
        self.subnormals
    }

    /// Total encoding width in bits: `1 + E + M`.
    #[must_use]
    pub fn bits(&self) -> u32 {
        1 + self.exp_bits + self.man_bits
    }

    /// Significand precision `p = M + 1` (including the implicit bit).
    #[must_use]
    pub fn precision(&self) -> u32 {
        self.man_bits + 1
    }

    /// Exponent bias, `2^(E-1) - 1`.
    #[must_use]
    pub fn bias(&self) -> i32 {
        (1i32 << (self.exp_bits - 1)) - 1
    }

    /// Maximum unbiased exponent of a normal value (equals the bias).
    #[must_use]
    pub fn emax(&self) -> i32 {
        self.bias()
    }

    /// Minimum unbiased exponent of a normal value, `1 - bias`.
    #[must_use]
    pub fn emin(&self) -> i32 {
        1 - self.bias()
    }

    /// The exponent (power of two) of the smallest representable quantum:
    /// the ULP of the smallest subnormal, `emin - M`.
    #[must_use]
    pub fn min_quantum(&self) -> i32 {
        self.emin() - self.man_bits as i32
    }

    /// Mask covering every encoding bit of this format.
    #[must_use]
    pub fn bits_mask(&self) -> u64 {
        mask(self.bits())
    }

    /// Mask covering the significand field.
    #[must_use]
    pub fn man_mask(&self) -> u64 {
        mask(self.man_bits)
    }

    /// The all-ones (special) exponent field value.
    #[must_use]
    pub fn exp_special(&self) -> u64 {
        mask(self.exp_bits)
    }

    /// Splits an encoding into `(sign, exponent_field, significand_field)`.
    #[must_use]
    pub fn unpack(&self, bits: u64) -> (bool, u64, u64) {
        let bits = bits & self.bits_mask();
        let sign = (bits >> (self.exp_bits + self.man_bits)) & 1 == 1;
        let e = (bits >> self.man_bits) & mask(self.exp_bits);
        let m = bits & self.man_mask();
        (sign, e, m)
    }

    /// Packs `(sign, exponent_field, significand_field)` into an encoding.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if a field exceeds its width.
    #[must_use]
    pub fn pack(&self, sign: bool, e: u64, m: u64) -> u64 {
        debug_assert!(e <= mask(self.exp_bits), "exponent field out of range");
        debug_assert!(m <= self.man_mask(), "significand field out of range");
        (u64::from(sign) << (self.exp_bits + self.man_bits)) | (e << self.man_bits) | m
    }

    /// Encoding of positive zero.
    #[must_use]
    pub fn zero_bits(&self, negative: bool) -> u64 {
        self.pack(negative, 0, 0)
    }

    /// Encoding of infinity with the given sign.
    #[must_use]
    pub fn inf_bits(&self, negative: bool) -> u64 {
        self.pack(negative, self.exp_special(), 0)
    }

    /// Canonical quiet-NaN encoding (positive sign, MSB of significand set).
    #[must_use]
    pub fn nan_bits(&self) -> u64 {
        self.pack(false, self.exp_special(), 1 << (self.man_bits - 1))
    }

    /// Encoding of the largest finite value with the given sign.
    #[must_use]
    pub fn max_finite_bits(&self, negative: bool) -> u64 {
        self.pack(negative, self.exp_special() - 1, self.man_mask())
    }

    /// Encoding of the smallest positive normal value.
    #[must_use]
    pub fn min_normal_bits(&self, negative: bool) -> u64 {
        self.pack(negative, 1, 0)
    }

    /// True if `bits` encodes a NaN.
    #[must_use]
    pub fn is_nan(&self, bits: u64) -> bool {
        let (_, e, m) = self.unpack(bits);
        e == self.exp_special() && m != 0
    }

    /// True if `bits` encodes ±infinity.
    #[must_use]
    pub fn is_inf(&self, bits: u64) -> bool {
        let (_, e, m) = self.unpack(bits);
        e == self.exp_special() && m == 0
    }

    /// True if `bits` encodes ±zero (an exponent field of zero also counts
    /// when subnormal support is disabled).
    #[must_use]
    pub fn is_zero(&self, bits: u64) -> bool {
        let (_, e, m) = self.unpack(bits);
        e == 0 && (m == 0 || !self.subnormals)
    }

    /// True if `bits` encodes a subnormal value (always false when subnormal
    /// support is disabled).
    #[must_use]
    pub fn is_subnormal(&self, bits: u64) -> bool {
        let (_, e, m) = self.unpack(bits);
        self.subnormals && e == 0 && m != 0
    }

    /// Flips the sign bit of an encoding.
    #[must_use]
    pub fn negate(&self, bits: u64) -> u64 {
        bits ^ (1 << (self.exp_bits + self.man_bits))
    }

    /// Iterates over every encoding of the format (`2^(1+E+M)` patterns).
    pub fn iter_encodings(&self) -> impl Iterator<Item = u64> {
        0..(1u64 << self.bits())
    }
}

impl fmt::Debug for FpFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "E{}M{}{}",
            self.exp_bits,
            self.man_bits,
            if self.subnormals { "" } else { "-nosub" }
        )
    }
}

impl fmt::Display for FpFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Returns a mask with the low `n` bits set (`n <= 64`).
#[must_use]
pub fn mask(n: u32) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Returns a mask with the low `n` bits set as a `u128` (`n <= 128`).
#[must_use]
pub fn mask128(n: u32) -> u128 {
    if n >= 128 {
        u128::MAX
    } else {
        (1u128 << n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_widths() {
        assert_eq!(FpFormat::e5m2().bits(), 8);
        assert_eq!(FpFormat::e4m3().bits(), 8);
        assert_eq!(FpFormat::e6m5().bits(), 12);
        assert_eq!(FpFormat::e5m10().bits(), 16);
        assert_eq!(FpFormat::e8m7().bits(), 16);
        assert_eq!(FpFormat::e8m23().bits(), 32);
    }

    #[test]
    fn bias_and_ranges() {
        let f = FpFormat::e5m2();
        assert_eq!(f.bias(), 15);
        assert_eq!(f.emax(), 15);
        assert_eq!(f.emin(), -14);
        assert_eq!(f.min_quantum(), -16);

        let f = FpFormat::e8m23();
        assert_eq!(f.bias(), 127);
        assert_eq!(f.emin(), -126);
        assert_eq!(f.min_quantum(), -149);
    }

    #[test]
    fn invalid_formats_rejected() {
        assert!(FpFormat::new(1, 2).is_err());
        assert!(FpFormat::new(9, 2).is_err());
        assert!(FpFormat::new(5, 0).is_err());
        assert!(FpFormat::new(5, 24).is_err());
        let err = FpFormat::new(9, 0).unwrap_err();
        assert!(err.to_string().contains("E9M0"));
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let f = FpFormat::e6m5();
        for bits in f.iter_encodings() {
            let (s, e, m) = f.unpack(bits);
            assert_eq!(f.pack(s, e, m), bits);
        }
    }

    #[test]
    fn special_encodings() {
        let f = FpFormat::e5m2();
        assert!(f.is_inf(f.inf_bits(false)));
        assert!(f.is_inf(f.inf_bits(true)));
        assert!(f.is_nan(f.nan_bits()));
        assert!(!f.is_nan(f.inf_bits(false)));
        assert!(f.is_zero(f.zero_bits(true)));
        // FP8 E5M2 max finite = 57344.
        let (s, e, m) = f.unpack(f.max_finite_bits(false));
        assert!(!s);
        assert_eq!(e, 30);
        assert_eq!(m, 3);
    }

    #[test]
    fn subnormal_classification_respects_flag() {
        let sub_on = FpFormat::e5m2();
        let sub_off = sub_on.with_subnormals(false);
        let sub_enc = sub_on.pack(false, 0, 1);
        assert!(sub_on.is_subnormal(sub_enc));
        assert!(!sub_on.is_zero(sub_enc));
        assert!(!sub_off.is_subnormal(sub_enc));
        assert!(sub_off.is_zero(sub_enc));
    }

    #[test]
    fn negate_flips_only_sign() {
        let f = FpFormat::e6m5();
        for bits in [0u64, 1, 0x7ff, f.max_finite_bits(false)] {
            let n = f.negate(bits);
            let (s1, e1, m1) = f.unpack(bits);
            let (s2, e2, m2) = f.unpack(n);
            assert_ne!(s1, s2);
            assert_eq!((e1, m1), (e2, m2));
        }
    }
}
