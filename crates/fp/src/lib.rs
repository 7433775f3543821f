//! # srmac-fp: parameterized floating-point formats and golden arithmetic
//!
//! The numeric substrate of the SR-MAC reproduction (Ben Ali, Filip,
//! Sentieys, *A Stochastic Rounding-Enabled Low-Precision Floating-Point MAC
//! for DNN Training*, DATE 2024).
//!
//! This crate provides:
//!
//! - [`FpFormat`]: IEEE-754-style formats with `E` exponent bits, `M` stored
//!   significand bits and optional subnormal support — E5M2 (FP8), E6M5
//!   (the paper's FP12 accumulator), E5M10 (FP16), E8M7 (BFloat16), E8M23
//!   (FP32);
//! - [`FpValue`]: exact decoded values;
//! - [`RoundMode`]: round-to-nearest-even, truncation, and **stochastic
//!   rounding** with an `r`-bit random word, following the paper's
//!   add-random-bits-then-truncate hardware semantics (Sec. II-A, Fig. 1);
//! - golden bit-exact [`ops`] (`add`, `sub`, `mul`) that compute the exact
//!   real result and round once — the ground truth for the RTL-level models
//!   in `srmac-core`;
//! - a [`naive`] oracle: an independent, grid-based executable specification
//!   used to validate the golden implementation exhaustively on small
//!   formats.
//!
//! # Example
//!
//! ```
//! use srmac_fp::{ops, FpFormat, RoundMode};
//!
//! let fp12 = FpFormat::e6m5();
//! let one = fp12.quantize_f64(1.0, RoundMode::NearestEven).bits;
//! let small = fp12.quantize_f64(2f64.powi(-9), RoundMode::NearestEven).bits;
//!
//! // Round-to-nearest swallows the small addend ("swamping") ...
//! let rn = ops::add(fp12, one, small, RoundMode::NearestEven);
//! assert_eq!(fp12.decode_f64(rn), 1.0);
//!
//! // ... stochastic rounding sometimes rounds up, and is unbiased on
//! // average: with eps = 2^-4 ulp, exactly 2^9/2^4 words round up at r = 9.
//! let ups = (0..512u64)
//!     .filter(|&word| {
//!         let sr = ops::add(fp12, one, small, RoundMode::Stochastic { r: 9, word });
//!         fp12.decode_f64(sr) > 1.0
//!     })
//!     .count();
//! assert_eq!(ups, 32);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod format;
pub mod naive;
pub mod ops;
pub mod round;
pub mod value;

pub use format::{mask, mask128, FormatError, FpFormat, MAX_EXP_BITS, MAX_MAN_BITS};
pub use round::{Flags, RoundMode, Rounded, TailInfo, MAX_SR_BITS};
pub use value::FpValue;
