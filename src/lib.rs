//! # srmac — stochastic-rounding-enabled low-precision floating-point MACs
//!
//! A full-system Rust reproduction of *A Stochastic Rounding-Enabled
//! Low-Precision Floating-Point MAC for DNN Training* (Ben Ali, Filip,
//! Sentieys — DATE 2024, arXiv:2404.14010): bit-exact number formats and
//! golden arithmetic, RTL-faithful MAC unit models (round-to-nearest, lazy
//! and eager stochastic rounding), calibrated ASIC/FPGA cost models, a
//! bit-exact low-precision GEMM engine, and a DNN training stack that runs
//! every matrix product through the emulated MAC.
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! - [`fp`] — formats ([`fp::FpFormat`]), golden ops, rounding modes;
//! - [`rng`] — Galois LFSR and SplitMix64 random sources;
//! - [`runtime`] — the shared parallel runtime (worker pool,
//!   deterministic tiled fills for the GEMM kernels, replica jobs);
//! - [`mod@unit`] — the MAC unit models ([`unit::FpAdder`], [`unit::MacUnit`]);
//! - [`hwcost`] — 28nm and FPGA cost models calibrated on the paper;
//! - [`tensor`] — the minimal deep-learning framework, including the
//!   [`tensor::Numerics`] policy that resolves a GEMM engine per role
//!   (forward / data gradient / weight gradient);
//! - [`qgemm`] — the bit-exact low-precision GEMM engine and the one
//!   spec-atom resolver ([`qgemm::numerics_from_spec`]) that turns
//!   strings like `"fwd=fp8_fp12_rn;bwd=fp8_fp12_sr13"` into whole
//!   mixed-precision experiment policies;
//! - [`models`] — ResNet-20/50, VGG16, synthetic datasets, trainer, and
//!   the micro-batching inference server ([`models::serve`]);
//! - [`io`] — versioned, deterministic binary model checkpoints.
//!
//! # Quickstart
//!
//! ```
//! use srmac::unit::{MacConfig, MacUnit};
//!
//! // The paper's recommended MAC: FP8 (E5M2) multipliers, FP12 (E6M5)
//! // accumulator, eager stochastic rounding with r = 13, no subnormals.
//! let mut mac = MacUnit::new(MacConfig::paper_best())?;
//! let acc = mac.dot_f64(&[0.5, 0.25, -1.5], &[2.0, 4.0, 1.0]);
//! assert_eq!(acc, 0.5);
//! # Ok::<(), srmac::unit::InexactProductError>(())
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! binaries that regenerate every table and figure of the paper.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub use srmac_fp as fp;
pub use srmac_hwcost as hwcost;
pub use srmac_io as io;
pub use srmac_models as models;
pub use srmac_qgemm as qgemm;
pub use srmac_rng as rng;
pub use srmac_runtime as runtime;
pub use srmac_tensor as tensor;
/// RTL-faithful MAC unit models (re-export of `srmac-core`).
pub mod unit {
    pub use srmac_core::*;
}
