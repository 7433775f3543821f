//! # srmac-hwcost: calibrated synthesis cost models
//!
//! Stand-in for the paper's Synopsys Design Vision (FDSOI 28nm) and Vivado
//! (Virtex UltraScale+ VU9P) synthesis runs: structural per-block cost
//! models whose technology unit costs are calibrated on the paper's own
//! Table I / Table II and validated on the held-out Table V r-sweep.
//!
//! - [`AsicModel`]: area (µm²) / delay (ns) / energy (nW/MHz) of any adder
//!   configuration (Tables I & V, Fig. 5);
//! - [`FpgaModel`]: LUT / FF / delay (Table II);
//! - [`paper`]: the published measurements themselves, reprinted by the
//!   experiment harness next to the model outputs.
//!
//! The structural geometry ([`Geometry`]) encodes exactly the widths the
//! RTL designs in `srmac-core` instantiate — notably the lazy design's
//! `p + r` normalization/LZD against the eager design's `p + 2`, which is
//! the paper's source of the eager savings.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod asic;
pub mod fpga;
pub mod linalg;
pub mod paper;

pub use asic::{relative_errors, AsicCost, AsicModel, Geometry};
pub use fpga::{FpgaCost, FpgaModel};
pub use paper::{AdderConfig, AsicPoint, DesignKind, FpgaPoint};
