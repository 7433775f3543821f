//! # srmac-core: RTL-faithful SR-MAC unit models
//!
//! The primary contribution of *A Stochastic Rounding-Enabled Low-Precision
//! Floating-Point MAC for DNN Training* (Ben Ali, Filip, Sentieys, DATE
//! 2024), reproduced as cycle-approximate, **value-exact** Rust models:
//!
//! - [`FpAdder`]: a dual-path floating-point adder in three rounding
//!   designs — round-to-nearest-even, classic **lazy** stochastic rounding
//!   (rounding after normalization, Fig. 3a), and the paper's **eager**
//!   stochastic rounding (Sticky Round at alignment time + a 2-bit Round
//!   Correction after normalization, Fig. 3b/4);
//! - [`ExactMultiplier`]: the exact widening multiplier
//!   (E5M2 × E5M2 → E6M5 in the reference design);
//! - [`MacUnit`]: multiplier + adder + Galois-LFSR random source (Fig. 2).
//!
//! Every design is bit-for-bit verified against the golden arithmetic of
//! [`srmac_fp`], and the eager design (with [`EagerCorrection::Exact`])
//! against the lazy one — the reproduction of the paper's Sec. III-B
//! validation, strengthened from sampled probabilities to exhaustive
//! per-word equality.
//!
//! # Example: one MAC step
//!
//! ```
//! use srmac_core::{MacConfig, MacUnit};
//!
//! let mut mac = MacUnit::new(MacConfig::paper_best())?;
//! mac.mac_f64(1.5, 2.0);
//! mac.mac_f64(0.25, -0.5);
//! assert_eq!(mac.acc_f64(), 2.875);
//! # Ok::<(), srmac_core::InexactProductError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod adder;
mod mac;
mod multiplier;
mod systolic;

pub use adder::{
    golden_mode, AdderTrace, EagerCorrection, FpAdder, PathTaken, RoundingDesign, StickyRoundTrace,
};
pub use mac::{MacConfig, MacUnit};
pub use multiplier::{ExactMultiplier, InexactProductError};
pub use systolic::{array_throughput, SystolicArray, SystolicStats};
