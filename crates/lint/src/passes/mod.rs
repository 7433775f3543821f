//! The lint passes. Each encodes one contract the runtime test suites
//! only sample:
//!
//! | pass | protects |
//! |---|---|
//! | [`unsafe_hygiene`] | the SAFETY protocol around the SIMD kernels |
//! | [`determinism`]    | bitwise-invariant numerics (no hash order, wall clock, stray threads) |
//! | [`panic_hygiene`]  | typed-error (never-panic) library surfaces |
//! | [`diag_registry`]  | stable, documented diagnostic codes |

pub mod determinism;
pub mod diag_registry;
pub mod panic_hygiene;
pub mod unsafe_hygiene;
